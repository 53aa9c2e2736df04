//! # perfbench — the repository's benchmark
//!
//! One ruler for RisGraph: seven named workloads, the end-to-end
//! metrics a client of a real-time graph-analytics service feels, and
//! an outside-in per-layer traced run. `../BENCHMARK.json` is the
//! contract; `README.md` is the manual; `src/bin/bench.rs` is the one
//! runner.
//!
//! Nothing here is linked into the program, and nothing in the program
//! was changed to be measured: every per-layer number is a
//! benchmark-side span around a public call, or a counter the program
//! already exports. The `RISGRAPH_*` knobs of the paper's
//! figure/table binaries in `crates/bench` do not affect `bench`: it
//! scrubs them from its environment before building any configuration.

pub mod harness;
