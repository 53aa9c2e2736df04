//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/`
//! (`cargo run -p risgraph-bench --release --bin <name>`); this library
//! provides the pieces they share: scale selection, the emulated
//! synchronous sessions of §6.2, single-writer per-update drivers, and
//! table formatting that mirrors the paper's layout.
//!
//! Scale knobs (environment variables):
//!
//! * `RISGRAPH_SCALE` — log2 of the vertex count for generated datasets
//!   (default 13 ⇒ 8192 vertices; the paper's graphs are larger by
//!   3–4 orders of magnitude);
//! * `RISGRAPH_SESSIONS` — maximum emulated sessions (default 64);
//! * `RISGRAPH_DATASETS` — comma-separated Table 3 abbreviations to
//!   run (default a representative subset: PH,WK,TT,UK);
//! * `RISGRAPH_THREADS` — engine worker threads (default all cores).

pub mod drivers;
pub mod json;
pub mod table;

pub use drivers::{measure_server, run_per_update, PerfResult};
pub use json::{emit_bench_json, write_bench_json, BenchRow};
pub use table::{fmt_duration_us, fmt_ops, print_table};

/// log2 vertex count for generated datasets.
pub fn scale() -> u32 {
    std::env::var("RISGRAPH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(13)
}

/// Maximum number of emulated sessions.
pub fn max_sessions() -> usize {
    std::env::var("RISGRAPH_SESSIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// The Table 3 subset to run (defaults keep harness runtimes in
/// seconds; set `RISGRAPH_DATASETS=PH,WK,FC,SO,BC,SB,LB,TT,SD,UK` for
/// the full sweep).
pub fn dataset_selection() -> Vec<&'static risgraph_workloads::DatasetSpec> {
    let selected = std::env::var("RISGRAPH_DATASETS").unwrap_or_else(|_| "PH,WK,TT,UK".into());
    selected
        .split(',')
        .filter_map(|abbr| risgraph_workloads::datasets::by_abbr(abbr.trim()))
        .collect()
}

/// Worker threads for engines (default: all cores).
pub fn threads() -> usize {
    std::env::var("RISGRAPH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}
