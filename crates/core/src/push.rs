//! Push-mode incremental propagation with **Hybrid Parallel Mode**
//! (§3.2).
//!
//! Propagation starts from a sparse frontier of activated vertices and
//! relaxes their out-edges (plus in-edges for undirected algorithms)
//! until no value improves. Three execution strategies:
//!
//! * **sequential** — the common per-update case (affected areas are
//!   tiny, §7): a plain worklist that avoids every parallelization
//!   overhead;
//! * **vertex-parallel** — workers claim chunks of frontier vertices;
//! * **edge-parallel** — the concatenated edge ranges of the frontier
//!   are split evenly, which wins on skewed frontiers dominated by hubs
//!   (Figure 7's top-left region).
//!
//! # Budget, then escalate
//!
//! Whether an affected area is large enough to pay for parallelism is
//! decided by the work it turns out to need, not by a guess made on
//! its first frontier. Every frontier of at most
//! [`PushConfig::sequential_grain`] vertices starts on the sequential
//! worklist with a budget of `sequential_grain` relaxed edges. Most
//! updates reach their fixpoint inside it and never touch the worker
//! pool or a bitmap. On backends that can count a vertex's edges
//! without scanning them, the stage also stops *before* a vertex whose
//! edges alone overrun what is left of the budget, so a hub is never
//! walked by the calling thread.
//!
//! When the stage stops, what is left of the worklist — sorted and
//! deduplicated — is escalated only if there is something to share
//! out: more vertices than one worker's chunk
//! ([`PushConfig::parallel_grain`]), or more edge mass than a whole
//! budget (the hub). Otherwise it simply gets a fresh budget; a long
//! chain leaves a single vertex each time and never sees the pool. An
//! escalated worklist becomes the frontier of a parallel iteration:
//! pull when it covers more than [`PushConfig::pull_threshold`] of the
//! vertices, otherwise vertex- or edge-parallel as the linear
//! classifier chooses from the frontier's size and edge mass (callers
//! can force a mode to reproduce the Figure 13 ablation, whose bins set
//! `sequential_grain = 0` and so go straight to it). A parallel
//! iteration whose output frontier is small again gets a fresh budget.
//! So a one-vertex frontier that explodes is bounded by the budget
//! before it goes parallel, and a frontier of half the vertices of a
//! 512-vertex graph costs 512 relaxations, not a round trip through
//! the pool. `sequential_grain = usize::MAX` never escalates.
//!
//! Propagation only ever runs inside the epoch loop's *serial* unsafe
//! phase (or during loads/recovery), never concurrently with the
//! sharded safe phase: safe updates are exactly those that provably
//! need no propagation, which is why shard executors can mutate the
//! structure through [`crate::engine::Engine::try_apply_safe`] while
//! no `PushCtx` is live.

use parking_lot::Mutex;
use risgraph_algorithms::Monotonic;
use risgraph_common::ids::{Edge, VertexId, Weight};
use risgraph_storage::DynamicGraph;

use crate::classifier::{LinearClassifier, PushMode};
use crate::pool::WorkerPool;
use crate::tree::{TreeStore, Value, VertexState};

/// Tuning knobs for propagation.
#[derive(Debug, Clone)]
pub struct PushConfig {
    /// A frontier of at most this many vertices starts on the
    /// sequential worklist, which may relax this many edges before the
    /// rest of it goes to the parallel modes (`0`: always parallel;
    /// `usize::MAX`: always sequential).
    pub sequential_grain: usize,
    /// Chunk size handed to pool workers.
    pub parallel_grain: usize,
    /// The vertex-/edge-parallel decision boundary.
    pub classifier: LinearClassifier,
    /// Force a mode (Figure 13 ablations); `None` = hybrid.
    pub forced_mode: Option<PushMode>,
    /// Switch to pull mode (converting the frontier to a bitmap, §5)
    /// when the frontier holds more than this fraction of all vertices.
    /// Pull wins on very dense frontiers (initial whole-graph loads);
    /// `1.0` disables it.
    pub pull_threshold: f64,
}

impl Default for PushConfig {
    fn default() -> Self {
        PushConfig {
            sequential_grain: 4096,
            parallel_grain: 128,
            classifier: LinearClassifier::default(),
            forced_mode: None,
            pull_threshold: 0.25,
        }
    }
}

/// Everything a propagation run needs. Generic over the storage
/// backend: propagation only touches the [`DynamicGraph`] scan surface,
/// so every backend (IA, IO, OOC) runs the same push machinery.
pub(crate) struct PushCtx<'a, G: DynamicGraph> {
    pub store: &'a G,
    pub alg: &'a dyn Monotonic<Value = Value>,
    pub tree: &'a TreeStore,
    pub pool: &'a WorkerPool,
    pub config: &'a PushConfig,
    /// Update epoch for exact first-change capture.
    pub epoch: u64,
}

/// Outcome of a propagation run.
#[derive(Debug, Default)]
pub(crate) struct PushResult {
    /// `(vertex, pre-update state)` for every vertex first modified
    /// during this update (includes modifications made by the caller
    /// before propagation only if the caller merges them itself).
    pub changed: Vec<(VertexId, VertexState)>,
    /// Parallel iterations executed (0 when fully sequential).
    pub iterations: usize,
    /// Times a sequential stage stopped on its budget with enough left
    /// to hand to the parallel modes.
    pub escalations: u64,
    /// Edges relaxed (diagnostics; drives Figure 7 sample collection).
    pub edges_relaxed: u64,
}

struct WorkerBuf {
    next: Vec<VertexId>,
    changed: Vec<(VertexId, VertexState)>,
    edges: u64,
}

impl<'a, G: DynamicGraph> PushCtx<'a, G> {
    #[inline]
    fn undirected(&self) -> bool {
        self.alg.undirected()
    }

    /// Relax one edge `v --w--> d` given the source value; activate `d`
    /// on improvement.
    #[inline]
    fn relax(
        &self,
        v: VertexId,
        d: VertexId,
        w: Weight,
        src_val: Value,
        next: &mut Vec<VertexId>,
        changed: &mut Vec<(VertexId, VertexState)>,
    ) {
        let cand = self.alg.gen_next(Edge::new(v, d, w), src_val);
        if let Some((old, first)) = self.tree.try_update(d, Some((v, w)), self.epoch, |cur| {
            self.alg.need_upd(d, cur, cand).then_some(cand)
        }) {
            if first {
                changed.push((d, old));
            }
            next.push(d);
        }
    }

    /// Relax every neighbour of `v` (out-edges; plus in-edges when the
    /// algorithm is undirected).
    fn relax_from(
        &self,
        v: VertexId,
        next: &mut Vec<VertexId>,
        changed: &mut Vec<(VertexId, VertexState)>,
    ) -> u64 {
        let val = self.tree.value(v);
        let mut relaxed = 0u64;
        {
            let (next_ref, changed_ref, relaxed_ref) = (&mut *next, &mut *changed, &mut relaxed);
            self.store.scan_out(v, &mut |d, w, _| {
                self.relax(v, d, w, val, next_ref, changed_ref);
                *relaxed_ref += 1;
            });
        }
        if self.undirected() {
            // In-list entries of v are (x, w) for stored edges x→v;
            // undirected propagation pushes v's value to x.
            let (next_ref, changed_ref, relaxed_ref) = (&mut *next, &mut *changed, &mut relaxed);
            self.store.scan_in(v, &mut |x, w, _| {
                self.relax(v, x, w, val, next_ref, changed_ref);
                *relaxed_ref += 1;
            });
        }
        relaxed
    }

    /// Edge mass of `v`: scan-position counts (backends may include
    /// tombstones — they bound the scan work, which is what load
    /// balancing needs).
    fn slots(&self, v: VertexId) -> usize {
        let out = self.store.out_slots(v);
        if self.undirected() {
            out + self.store.in_slots(v)
        } else {
            out
        }
    }

    fn frontier_slots(&self, frontier: &[VertexId]) -> usize {
        frontier.iter().map(|&v| self.slots(v)).sum()
    }

    /// Sequential worklist propagation until the fixpoint or until
    /// `budget` edges were relaxed, whichever comes first; returns the
    /// worklist that is left (empty at the fixpoint). Where counting a
    /// vertex's edges is cheap (positional backends), a vertex that
    /// alone would overrun what is left of the budget is not started
    /// but left on the worklist: a hub's edges are for the edge-parallel
    /// mode to split, not for the calling thread to walk.
    fn run_sequential(
        &self,
        mut work: Vec<VertexId>,
        budget: usize,
        result: &mut PushResult,
    ) -> Vec<VertexId> {
        let count_first = self.store.has_positional_scans();
        let mut changed = std::mem::take(&mut result.changed);
        let mut spent = 0u64;
        while let Some(v) = work.pop() {
            if count_first && self.slots(v) as u64 > budget as u64 - spent {
                work.push(v);
                break;
            }
            spent += self.relax_from(v, &mut work, &mut changed);
            if spent >= budget as u64 {
                break;
            }
        }
        result.edges_relaxed += spent;
        result.changed = changed;
        work
    }

    fn run_vertex_parallel(&self, frontier: &[VertexId], bufs: &[Mutex<WorkerBuf>]) {
        self.pool
            .run_ranges(frontier.len(), self.config.parallel_grain, |w, range| {
                let mut buf = bufs[w].lock();
                let WorkerBuf {
                    next,
                    changed,
                    edges,
                } = &mut *buf;
                for &v in &frontier[range] {
                    *edges += self.relax_from(v, next, changed);
                }
            });
    }

    fn run_edge_parallel(&self, frontier: &[VertexId], bufs: &[Mutex<WorkerBuf>]) {
        // Prefix sums over per-vertex scan-position counts so a global
        // edge index maps to (vertex, local position). Positions are
        // stable: the push phases never mutate graph structure.
        let mut prefix = Vec::with_capacity(frontier.len() + 1);
        prefix.push(0usize);
        let mut total = 0usize;
        let mut out_lens = Vec::with_capacity(frontier.len());
        for &v in frontier {
            let out_n = self.store.out_slots(v);
            out_lens.push(out_n);
            let mut n = out_n;
            if self.undirected() {
                n += self.store.in_slots(v);
            }
            total += n;
            prefix.push(total);
        }
        let grain = self.config.parallel_grain.max(16);
        self.pool.run_ranges(total, grain, |w, range| {
            let mut buf = bufs[w].lock();
            let WorkerBuf {
                next,
                changed,
                edges,
            } = &mut *buf;
            // First vertex whose position range intersects `range`.
            let mut vi = prefix.partition_point(|&p| p <= range.start) - 1;
            let mut pos = range.start;
            while pos < range.end && vi < frontier.len() {
                let v = frontier[vi];
                let v_start = prefix[vi];
                let v_end = prefix[vi + 1];
                let lo = pos - v_start;
                let hi = (range.end.min(v_end)) - v_start;
                if lo < hi {
                    let val = self.tree.value(v);
                    let out_len = out_lens[vi];
                    // Out-position portion of [lo, hi).
                    let out_hi = hi.min(out_len);
                    if lo < out_hi {
                        let (next_ref, changed_ref) = (&mut *next, &mut *changed);
                        self.store.scan_out_range(v, lo, out_hi, &mut |d, w, _| {
                            self.relax(v, d, w, val, next_ref, changed_ref);
                        });
                        *edges += (out_hi - lo) as u64;
                    }
                    // In-position portion (undirected only).
                    if self.undirected() && hi > out_len {
                        let ilo = lo.max(out_len) - out_len;
                        let ihi = hi - out_len;
                        let (next_ref, changed_ref) = (&mut *next, &mut *changed);
                        self.store.scan_in_range(v, ilo, ihi, &mut |x, w, _| {
                            self.relax(v, x, w, val, next_ref, changed_ref);
                        });
                        *edges += (ihi - ilo) as u64;
                    }
                }
                pos = v_end;
                vi += 1;
            }
        });
    }

    /// One pull-mode iteration: the frontier becomes a bitmap ("RisGraph
    /// … converts them to bitmaps only when performing pull operations",
    /// §5) and every live vertex checks its *incoming* edges for
    /// frontier sources. Wins on very dense frontiers because each
    /// destination is written once and the frontier test is O(1).
    fn run_pull_iteration(&self, frontier: &[VertexId], bufs: &[Mutex<WorkerBuf>]) {
        let cap = self.store.capacity();
        let in_frontier = risgraph_common::bitmap::AtomicBitmap::new(cap);
        for &v in frontier {
            in_frontier.set(v);
        }
        let undirected = self.undirected();
        self.pool
            .run_ranges(cap, self.config.parallel_grain.max(256), |w, range| {
                let mut buf = bufs[w].lock();
                let WorkerBuf {
                    next,
                    changed,
                    edges,
                } = &mut *buf;
                for v in range.start as u64..range.end as u64 {
                    if !self.store.vertex_exists(v) {
                        continue;
                    }
                    {
                        let (next_ref, changed_ref, edges_ref) =
                            (&mut *next, &mut *changed, &mut *edges);
                        self.store.scan_in(v, &mut |x, w, _| {
                            *edges_ref += 1;
                            if in_frontier.get(x) {
                                let sv = self.tree.value(x);
                                self.relax(x, v, w, sv, next_ref, changed_ref);
                            }
                        });
                    }
                    if undirected {
                        let (next_ref, changed_ref, edges_ref) =
                            (&mut *next, &mut *changed, &mut *edges);
                        self.store.scan_out(v, &mut |x, w, _| {
                            *edges_ref += 1;
                            if in_frontier.get(x) {
                                let sv = self.tree.value(x);
                                self.relax(x, v, w, sv, next_ref, changed_ref);
                            }
                        });
                    }
                }
            });
    }

    /// Run propagation to fixpoint from `frontier`.
    pub(crate) fn propagate(&self, frontier: Vec<VertexId>) -> PushResult {
        let mut result = PushResult::default();
        self.propagate_into(frontier, &mut result);
        result
    }

    /// Like [`Self::propagate`] but appends into an existing result
    /// (deletion recovery seeds `changed` with reset records first).
    pub(crate) fn propagate_into(&self, mut frontier: Vec<VertexId>, result: &mut PushResult) {
        let grain = self.config.sequential_grain;
        loop {
            if frontier.len() <= grain {
                frontier = self.run_sequential(frontier, grain, result);
                if frontier.is_empty() {
                    return;
                }
                // A vertex improved twice sits on the worklist twice.
                frontier.sort_unstable();
                frontier.dedup();
                // Budget spent. What is left is worth the pool only if
                // there is something to share out: more vertices than
                // one worker's chunk (or than this stage accepts), or
                // more edges than a whole budget (a hub; that bound is
                // also what lets a fresh budget start its first
                // vertex). A long chain leaves one vertex every time
                // and just carries on.
                let share_out = frontier.len() > self.config.parallel_grain.min(grain)
                    || (self.store.has_positional_scans()
                        && self.frontier_slots(&frontier) > grain);
                if !share_out {
                    continue;
                }
                result.escalations += 1;
            }
            // Dense frontiers pull (skipped under forced push modes so
            // the Figure 13 ablations measure pure push).
            let cap = self.store.capacity().max(1);
            let pull = self.config.forced_mode.is_none()
                && frontier.len() as f64 > self.config.pull_threshold * cap as f64;
            let bufs: Vec<Mutex<WorkerBuf>> = (0..self.pool.threads())
                .map(|_| {
                    Mutex::new(WorkerBuf {
                        next: Vec::new(),
                        changed: Vec::new(),
                        edges: 0,
                    })
                })
                .collect();
            if pull {
                self.run_pull_iteration(&frontier, &bufs);
            } else {
                let mode = self.config.forced_mode.unwrap_or_else(|| {
                    // Edge-parallel partitions positional sub-ranges of
                    // each vertex's edges; on backends without O(range)
                    // positional scans (IO_*, OOC) every chunk would
                    // rescan the whole adjacency — and counting slots
                    // there is itself a degree scan — so the hybrid
                    // choice stays vertex-parallel. Forced modes
                    // (Figure 13 ablations, tests) are honoured — the
                    // range scans are correct, just slower.
                    if self.store.has_positional_scans() {
                        self.config
                            .classifier
                            .choose(frontier.len(), self.frontier_slots(&frontier))
                    } else {
                        PushMode::VertexParallel
                    }
                });
                match mode {
                    PushMode::VertexParallel => self.run_vertex_parallel(&frontier, &bufs),
                    PushMode::EdgeParallel => self.run_edge_parallel(&frontier, &bufs),
                }
            }
            result.iterations += 1;
            let mut next = Vec::new();
            for buf in bufs {
                let buf = buf.into_inner();
                next.extend(buf.next);
                result.changed.extend(buf.changed);
                result.edges_relaxed += buf.edges;
            }
            // Duplicate activations across workers are possible (a vertex
            // improved twice in one iteration lands in two buffers).
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risgraph_algorithms::{Bfs, Sssp, Wcc};
    use risgraph_common::ids::Edge as E;
    use risgraph_storage::{GraphStore, HashIndex, IndexOnlyStore};
    use std::sync::Arc;

    // The helpers are generic over `G: DynamicGraph`, exactly like the
    // production engine: push-mode correctness is checked through the
    // trait on both an IA and an IO backend, so no test can silently
    // depend on GraphStore-only behaviour.

    fn fill<G: DynamicGraph>(store: &G, edges: &[(u64, u64, u64)]) {
        for &(s, d, w) in edges {
            store.insert_edge(E::new(s, d, w)).unwrap();
        }
    }

    fn run_push<G: DynamicGraph>(
        store: &G,
        alg: &dyn Monotonic<Value = u64>,
        tree: &TreeStore,
        pool: &WorkerPool,
        config: &PushConfig,
        frontier: Vec<u64>,
    ) -> PushResult {
        let ctx = PushCtx {
            store,
            alg,
            tree,
            pool,
            config,
            epoch: 1,
        };
        ctx.propagate(frontier)
    }

    fn full_compute<G: DynamicGraph>(
        store: &G,
        alg: &dyn Monotonic<Value = u64>,
        tree: &TreeStore,
        pool: &WorkerPool,
        config: &PushConfig,
    ) {
        let mut seeds = Vec::new();
        store.for_each_vertex(&mut |v| seeds.push(v));
        run_push(store, alg, tree, pool, config, seeds);
    }

    fn random_graph(n: u64, m: usize, seed: u64) -> Vec<(u64, u64, u64)> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| {
                (
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(1..10u64),
                )
            })
            .collect()
    }

    fn check_alg<G: DynamicGraph, A: Monotonic<Value = u64> + Copy>(
        alg: A,
        mode: Option<PushMode>,
        sequential_grain: usize,
        edges: &[(u64, u64, u64)],
        n: u64,
        store: &G,
        pool: &WorkerPool,
    ) {
        let config = PushConfig {
            sequential_grain,
            parallel_grain: 16,
            forced_mode: mode,
            ..PushConfig::default()
        };
        let tree = TreeStore::new(n as usize, move |v| alg.init_val(v));
        full_compute(store, &alg, &tree, pool, &config);
        let want = risgraph_algorithms::reference::compute(&alg, n as usize, edges);
        for v in 0..n {
            assert_eq!(
                tree.value(v),
                want[v as usize],
                "{} {} mode={mode:?} vertex {v}",
                store.backend_name(),
                alg.name()
            );
        }
    }

    fn check_mode_on<G: DynamicGraph>(
        store: &G,
        pool: &WorkerPool,
        edges: &[(u64, u64, u64)],
        n: u64,
        mode: Option<PushMode>,
        sequential_grain: usize,
    ) {
        check_alg(Bfs::new(0), mode, sequential_grain, edges, n, store, pool);
        check_alg(Sssp::new(0), mode, sequential_grain, edges, n, store, pool);
        check_alg(Wcc::new(), mode, sequential_grain, edges, n, store, pool);
    }

    fn check_mode(mode: Option<PushMode>, sequential_grain: usize) {
        let n = 300u64;
        let edges = random_graph(n, 2000, 42);
        let pool = WorkerPool::new(4);
        let ia: GraphStore<HashIndex> = GraphStore::with_capacity(n as usize);
        fill(&ia, &edges);
        check_mode_on(&ia, &pool, &edges, n, mode, sequential_grain);
        let io: IndexOnlyStore<HashIndex> = IndexOnlyStore::with_capacity(n as usize);
        fill(&io, &edges);
        check_mode_on(&io, &pool, &edges, n, mode, sequential_grain);
    }

    #[test]
    fn sequential_matches_oracle() {
        check_mode(None, usize::MAX); // grain huge → always sequential
    }

    #[test]
    fn vertex_parallel_matches_oracle() {
        check_mode(Some(PushMode::VertexParallel), 0);
    }

    #[test]
    fn edge_parallel_matches_oracle() {
        check_mode(Some(PushMode::EdgeParallel), 0);
    }

    #[test]
    fn hybrid_matches_oracle() {
        check_mode(None, 64);
    }

    #[test]
    fn parent_pointers_certify_values_after_push() {
        let n = 200u64;
        let edges = random_graph(n, 1200, 7);
        let store: GraphStore<HashIndex> = GraphStore::with_capacity(n as usize);
        fill(&store, &edges);
        let pool = Arc::new(WorkerPool::new(4));
        let config = PushConfig::default();
        let alg = Sssp::new(0);
        let tree = TreeStore::new(n as usize, move |v| alg.init_val(v));
        full_compute(&store, &alg, &tree, &pool, &config);
        // Every vertex with a parent must satisfy
        // value(v) == gen_next(parent_edge, value(parent)).
        for v in 0..n {
            if let Some(pe) = tree.parent(v) {
                assert_eq!(
                    tree.value(v),
                    alg.gen_next(pe, tree.value(pe.src)),
                    "vertex {v} not certified by its parent edge"
                );
                assert!(store.contains_edge(pe), "parent edge {pe:?} not in graph");
            }
        }
    }

    #[test]
    fn changed_records_capture_pre_update_values() {
        // Graph 0→1→2; frontier from fresh init state must record every
        // reached vertex exactly once with its init value as `old`.
        let store: GraphStore<HashIndex> = GraphStore::with_capacity(4);
        fill(&store, &[(0, 1, 0), (1, 2, 0)]);
        let pool = Arc::new(WorkerPool::new(4));
        let alg = Bfs::new(0);
        let tree = TreeStore::new(4, move |v| alg.init_val(v));
        let config = PushConfig::default();
        let result = run_push(&store, &alg, &tree, &pool, &config, vec![0]);
        let mut changed = result.changed.clone();
        changed.sort_by_key(|c| c.0);
        assert_eq!(changed.len(), 2);
        assert_eq!(changed[0].0, 1);
        assert_eq!(changed[0].1.value, u64::MAX);
        assert_eq!(changed[1].0, 2);
        assert_eq!(changed[1].1.value, u64::MAX);
    }

    #[test]
    fn empty_frontier_is_noop() {
        let store: IndexOnlyStore<HashIndex> = IndexOnlyStore::with_capacity(4);
        fill(&store, &[(0, 1, 0)]);
        let pool = Arc::new(WorkerPool::new(4));
        let alg = Bfs::new(0);
        let tree = TreeStore::new(4, move |v| alg.init_val(v));
        let result = run_push(&store, &alg, &tree, &pool, &PushConfig::default(), vec![]);
        assert!(result.changed.is_empty());
        assert_eq!(result.edges_relaxed, 0);
    }
}

#[cfg(test)]
mod pull_tests {
    use super::*;
    use risgraph_algorithms::{Bfs, Wcc};
    use risgraph_common::ids::Edge as E;
    use risgraph_storage::{GraphStore, HashIndex};
    use std::sync::Arc;

    #[test]
    fn pull_mode_matches_oracle_on_dense_frontier() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let n = 256u64;
        let edges: Vec<(u64, u64, u64)> = (0..3000)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), 0))
            .collect();
        let store = GraphStore::<HashIndex>::with_capacity(n as usize);
        for &(s, d, w) in &edges {
            store.insert_edge(E::new(s, d, w)).unwrap();
        }
        let pool = Arc::new(WorkerPool::new(4));
        for undirected in [false, true] {
            let config = PushConfig {
                pull_threshold: 0.01, // force pull immediately
                ..PushConfig::default()
            };
            if undirected {
                let alg = Wcc::new();
                let tree = TreeStore::new(n as usize, move |v| alg.init_val(v));
                let ctx = PushCtx {
                    store: &store,
                    alg: &alg,
                    tree: &tree,
                    pool: &pool,
                    config: &config,
                    epoch: 1,
                };
                let mut seeds = Vec::new();
                store.for_each_vertex(|v| seeds.push(v));
                let result = ctx.propagate(seeds);
                assert!(result.iterations > 0, "pull iterations must run");
                let want = risgraph_algorithms::reference::compute(&alg, n as usize, &edges);
                for v in 0..n {
                    assert_eq!(tree.value(v), want[v as usize], "wcc vertex {v}");
                }
            } else {
                let alg = Bfs::new(0);
                let tree = TreeStore::new(n as usize, move |v| alg.init_val(v));
                let ctx = PushCtx {
                    store: &store,
                    alg: &alg,
                    tree: &tree,
                    pool: &pool,
                    config: &config,
                    epoch: 1,
                };
                let mut seeds = Vec::new();
                store.for_each_vertex(|v| seeds.push(v));
                ctx.propagate(seeds);
                let want = risgraph_algorithms::reference::compute(&alg, n as usize, &edges);
                for v in 0..n {
                    assert_eq!(tree.value(v), want[v as usize], "bfs vertex {v}");
                }
            }
        }
    }

    /// The small-graph misfire: a tree-edge delete on a 256-chain
    /// invalidates 255 vertices, which is more than `pull_threshold` of
    /// a 512-slot store but only 510 relaxations — far inside the
    /// default budget, so the worker pool must not be touched.
    #[test]
    fn half_the_vertices_of_a_small_graph_stay_sequential() {
        let store = GraphStore::<HashIndex>::with_capacity(512);
        for v in 0..255u64 {
            store.insert_edge(E::new(v, v + 1, 0)).unwrap();
        }
        let pool = Arc::new(WorkerPool::new(2));
        let alg = Wcc::new();
        let tree = TreeStore::new(512, move |v| alg.init_val(v));
        let config = PushConfig::default();
        let ctx = |epoch| PushCtx {
            store: &store,
            alg: &alg,
            tree: &tree,
            pool: &pool,
            config: &config,
            epoch,
        };
        ctx(1).propagate((0..256).collect());
        assert!((0..256).all(|v| tree.value(v) == 0));
        // What the engine does for `DelEdge(0, 1)`: the subtree below
        // the edge goes back to its initial labels, each vertex is
        // re-seeded from its neighbours in discovery order, and the
        // whole subtree is the frontier.
        store.delete_edge(E::new(0, 1, 0)).unwrap();
        for v in 1..256 {
            tree.reset(v, 2);
        }
        for v in 2..256 {
            let cand = tree.value(v - 1);
            tree.try_update(v, Some((v - 1, 0)), 2, |cur| (cand < cur).then_some(cand));
        }
        let result = ctx(2).propagate((1..256).collect());
        assert_eq!(result.iterations, 0, "went through the worker pool");
        assert_eq!(result.escalations, 0);
        assert_eq!(result.edges_relaxed, 2 * 254);
        assert!((1..256).all(|v| tree.value(v) == 1));
    }

    fn bfs_from_zero(
        store: &GraphStore<HashIndex>,
        vertices: usize,
        config: &PushConfig,
    ) -> (PushResult, Vec<u64>) {
        let pool = Arc::new(WorkerPool::new(2));
        let alg = Bfs::new(0);
        let tree = TreeStore::new(vertices, move |v| alg.init_val(v));
        let ctx = PushCtx {
            store,
            alg: &alg,
            tree: &tree,
            pool: &pool,
            config,
            epoch: 1,
        };
        let result = ctx.propagate(vec![0]);
        let values = (0..vertices as u64).map(|v| tree.value(v)).collect();
        (result, values)
    }

    /// A spent budget with one vertex left is nothing to share out: a
    /// chain far longer than the budget gets a fresh one each time and
    /// never sees the pool.
    #[test]
    fn a_long_chain_outlives_its_budget_sequentially() {
        let store = GraphStore::<HashIndex>::with_capacity(256);
        for v in 0..200u64 {
            store.insert_edge(E::new(v, v + 1, 0)).unwrap();
        }
        let config = PushConfig {
            sequential_grain: 16,
            ..PushConfig::default()
        };
        let (result, values) = bfs_from_zero(&store, 256, &config);
        assert_eq!((result.iterations, result.escalations), (0, 0));
        assert_eq!(result.edges_relaxed, 200);
        assert!((0..=200).all(|v| values[v] == v as u64));
    }

    /// A one-vertex frontier whose vertex has more edges than the whole
    /// budget is not walked by the calling thread: it is escalated
    /// untouched, so the pool runs one iteration over the hub and one
    /// over its (edgeless) neighbours.
    #[test]
    fn a_hub_is_escalated_before_it_is_relaxed() {
        let store = GraphStore::<HashIndex>::with_capacity(128);
        for leaf in 1..=100u64 {
            store.insert_edge(E::new(0, leaf, 0)).unwrap();
        }
        let config = PushConfig {
            sequential_grain: 32,
            parallel_grain: 16,
            pull_threshold: 1.0,
            ..PushConfig::default()
        };
        let (result, values) = bfs_from_zero(&store, 128, &config);
        assert_eq!((result.iterations, result.escalations), (2, 1));
        assert_eq!(result.edges_relaxed, 100);
        assert!((1..=100).all(|v| values[v] == 1));
    }

    #[test]
    fn pull_disabled_when_threshold_is_one() {
        let store = GraphStore::<HashIndex>::with_capacity(8);
        store.insert_edge(E::new(0, 1, 0)).unwrap();
        let pool = Arc::new(WorkerPool::new(2));
        let alg = Bfs::new(0);
        let tree = TreeStore::new(8, move |v| alg.init_val(v));
        let config = PushConfig {
            pull_threshold: 1.0,
            sequential_grain: usize::MAX,
            ..PushConfig::default()
        };
        let ctx = PushCtx {
            store: &store,
            alg: &alg,
            tree: &tree,
            pool: &pool,
            config: &config,
            epoch: 1,
        };
        let result = ctx.propagate(vec![0, 1]);
        assert_eq!(
            result.iterations, 0,
            "fully sequential: no parallel iterations"
        );
        assert_eq!(tree.value(1), 1);
    }
}
