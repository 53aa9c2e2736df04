//! Seeded input generation. The seed feeds only these generators; the
//! program under test receives nothing but the generated graph and
//! update streams.
//!
//! Every stream is **cyclic**: replaying it any number of times keeps
//! every operation valid, so a run lasts any duration without an
//! operation failing.
//!
//! * safe churn — duplicate-insert / duplicate-delete pairs of loaded
//!   edges, one stream per session (`testkit::safe_churn`), regrouped
//!   into blocks of [`CHURN_BLOCK`] inserts followed by their deletes.
//!   A delete is only *classified* safe once its own insert has been
//!   applied; back to back on a pipelined session it would be gathered
//!   first and take the unsafe path. A block is longer than any window,
//!   so the stream stays in the safe class however it is pipelined;
//! * §6.1 stream — `StreamConfig::default().build(..)` (90 % preload,
//!   alternating real insertions and deletions) striped round-robin
//!   over the sessions, each stripe followed by its own inverse (delete
//!   what it inserted, re-insert what it deleted). Every deletion is
//!   budgeted by a distinct preloaded copy or by the session's own
//!   earlier insert, so any interleaving of the sessions is valid;
//! * unsafe chains — `testkit::unsafe_chain_streams`: each session cuts
//!   and re-joins the first edge of its own path.

use std::sync::Arc;

use risgraph_algorithms::{Bfs, Sssp, Wcc};
use risgraph_common::ids::Update;
use risgraph_core::engine::DynAlgorithm;
use risgraph_testkit::{
    safe_churn, unsafe_chain_preload, unsafe_chain_streams, LiveEdge, UnsafeChainConfig,
};
use risgraph_workloads::rmat::RmatConfig;
use risgraph_workloads::stream::StreamConfig;

/// RMAT scale of the full-size workloads: 65 536 vertices, ≈ 1.05 M
/// edges — a resident set well beyond L2/L3.
pub const FULL_SCALE: u32 = 16;
/// RMAT scale under `--quick`.
pub const QUICK_SCALE: u32 = 12;
/// Inserts (then deletes) per safe-churn block: far more than any
/// client window, 10 ms of traffic at the open loop's rate.
pub const CHURN_BLOCK: usize = 1024;
/// Vertices per unsafe chain.
pub const CHAIN_LEN: u64 = 256;

/// The maintained algorithm of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Bfs,
    Sssp,
    Wcc,
}

impl Algo {
    pub fn make(self) -> DynAlgorithm {
        match self {
            Algo::Bfs => Arc::new(Bfs::new(0)),
            Algo::Sssp => Arc::new(Sssp::new(0)),
            Algo::Wcc => Arc::new(Wcc::new()),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Algo::Bfs => "BFS",
            Algo::Sssp => "SSSP",
            Algo::Wcc => "WCC",
        }
    }

    fn weighted(self) -> bool {
        self == Algo::Sssp
    }
}

/// What the generators hand the load generator.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Vertex capacity to start the server with.
    pub capacity: usize,
    /// Edges loaded before the first request.
    pub preload: Vec<LiveEdge>,
    /// One cyclic update stream per logical session.
    pub streams: Vec<Vec<Update>>,
}

impl Inputs {
    /// FNV-1a over everything generated — equal digests mean
    /// byte-identical inputs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.word(self.capacity as u64);
        for &(s, d, w) in &self.preload {
            h.word(s);
            h.word(d);
            h.word(w);
        }
        for stream in &self.streams {
            h.word(stream.len() as u64);
            for u in stream {
                match u {
                    Update::InsEdge(e) => h.edge(1, e.src, e.dst, e.data),
                    Update::DelEdge(e) => h.edge(2, e.src, e.dst, e.data),
                    Update::InsVertex(v) => h.edge(3, *v, 0, 0),
                    Update::DelVertex(v) => h.edge(4, *v, 0, 0),
                }
            }
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn edge(&mut self, tag: u64, a: u64, b: u64, c: u64) {
        self.word(tag);
        self.word(a);
        self.word(b);
        self.word(c);
    }
}

/// SplitMix64: the benchmark's own generator for sub-seeds and for the
/// reader's version/vertex choices.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`; modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.draw() % n
    }
}

/// Sub-seed `lane` of `seed`.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    SplitMix(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f)).draw()
}

/// The RMAT graph every RMAT-based workload runs on. The graph is the
/// data set and does not depend on the run's seed — the paper fixes its
/// data sets and draws the updates at random (§6.1), and so does this:
/// the seed decides which edges are withheld, deleted and churned. (A
/// graph per seed was tried first: it moved throughput by ±10 % from
/// seed to seed, five times the run-to-run noise of one seed.)
pub fn rmat(scale: u32, algo: Algo) -> Vec<LiveEdge> {
    RmatConfig {
        scale,
        edge_factor: 16.0,
        max_weight: if algo.weighted() { 100 } else { 0 },
        ..RmatConfig::default()
    }
    .generate()
}

/// Safe churn: the whole RMAT graph preloaded, one churn stream of
/// `pairs` insert/delete pairs per session.
pub fn safe_churn_inputs(
    seed: u64,
    scale: u32,
    algo: Algo,
    sessions: usize,
    pairs: usize,
) -> Inputs {
    let preload = rmat(scale, algo);
    let streams = (0..sessions)
        .map(|s| {
            let paired = safe_churn(&preload, pairs, sub_seed(seed, 100 + s as u64));
            paired
                .chunks(2 * CHURN_BLOCK)
                .flat_map(|block| {
                    // `paired` alternates insert, delete: all the
                    // block's inserts first, then its deletes.
                    let inserts = block.iter().step_by(2);
                    let deletes = block.iter().skip(1).step_by(2);
                    inserts.chain(deletes).copied()
                })
                .collect()
        })
        .collect();
    Inputs {
        capacity: 1 << scale,
        preload,
        streams,
    }
}

/// The paper's §6.1 stream, striped over `sessions` and made cyclic.
pub fn paper_stream_inputs(seed: u64, scale: u32, algo: Algo, sessions: usize) -> Inputs {
    let built = StreamConfig {
        seed: sub_seed(seed, 2),
        ..StreamConfig::default()
    }
    .build(&rmat(scale, algo));
    let streams = (0..sessions)
        .map(|s| {
            let forward: Vec<Update> = built
                .updates
                .iter()
                .skip(s)
                .step_by(sessions)
                .copied()
                .collect();
            let inverse: Vec<Update> = forward.iter().map(invert).collect();
            [forward, inverse].concat()
        })
        .collect();
    Inputs {
        capacity: 1 << scale,
        preload: built.preload,
        streams,
    }
}

fn invert(u: &Update) -> Update {
    match *u {
        Update::InsEdge(e) => Update::DelEdge(e),
        Update::DelEdge(e) => Update::InsEdge(e),
        Update::InsVertex(v) => Update::DelVertex(v),
        Update::DelVertex(v) => Update::InsVertex(v),
    }
}

/// All-unsafe, session-disjoint chains. The streams themselves are
/// fixed by construction, so the seed moves where the chains sit in the
/// vertex range.
pub fn unsafe_chain_inputs(seed: u64, sessions: usize) -> Inputs {
    let cfg = UnsafeChainConfig {
        sessions,
        chain: CHAIN_LEN,
        base: 1 + sub_seed(seed, 3) % CHAIN_LEN,
        pairs: 1,
    };
    Inputs {
        capacity: cfg.capacity(),
        preload: unsafe_chain_preload(&cfg),
        streams: unsafe_chain_streams(&cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_change_inputs_and_repeat_exactly() {
        for gen in [
            |s| safe_churn_inputs(s, 8, Algo::Bfs, 2, 50),
            |s| paper_stream_inputs(s, 8, Algo::Sssp, 2),
            |s| unsafe_chain_inputs(s, 2),
        ] {
            assert_eq!(gen(1).digest(), gen(1).digest());
            assert_ne!(gen(1).digest(), gen(2).digest());
        }
    }

    #[test]
    fn paper_stream_cycle_restores_the_graph() {
        let inputs = paper_stream_inputs(7, 8, Algo::Sssp, 3);
        let mut live: Vec<LiveEdge> = inputs.preload.clone();
        live.sort_unstable();
        let before = live.clone();
        // Any interleaving is valid; round-robin is one of them.
        let longest = inputs.streams.iter().map(Vec::len).max().unwrap();
        for i in 0..longest {
            for stream in &inputs.streams {
                match stream.get(i) {
                    Some(Update::InsEdge(e)) => live.push((e.src, e.dst, e.data)),
                    Some(Update::DelEdge(e)) => {
                        let at = live
                            .iter()
                            .position(|&l| l == (e.src, e.dst, e.data))
                            .expect("deletion of a live edge");
                        live.swap_remove(at);
                    }
                    _ => {}
                }
            }
        }
        live.sort_unstable();
        assert_eq!(live, before);
    }
}
