//! Differential test of the budget-then-escalate push: the same random
//! insert/delete stream through an engine whose sequential stage may
//! relax 8 edges before the worker pool takes over and through one that
//! never escalates (`sequential_grain = usize::MAX`) — all five
//! algorithms, three seeds each.
//!
//! At **every step** the two engines must hold the same value for every
//! vertex and report the same value changes (vertex, old, new). Their
//! dependency trees need not be the same tree: between candidates of
//! equal value the first relaxation wins, and a LIFO worklist and a
//! level-synchronous parallel iteration visit edges in different
//! orders. So parents are compared as what they are for — certificates:
//! on both sides every parent edge is in the graph and derives its
//! child's value, and every change record's `old` side is the state
//! that engine held before the step.
//!
//! `core.push.escalations` (read here from the engine's handle; the
//! server adopts the same handle into its registry) says which path
//! ran: `> 0` for the budgeted engine, `== 0` for the other.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use risgraph_algorithms::{Bfs, Monotonic, Reachability, Sssp, Sswp, Wcc};
use risgraph_common::ids::{Edge, Update};
use risgraph_core::{ChangeRecord, ChangeSet, Engine, EngineConfig};

const VERTICES: u64 = 60;

fn engine<A: Monotonic<Value = u64>>(alg: A, sequential_grain: usize) -> Engine {
    let mut config = EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    };
    config.push.sequential_grain = sequential_grain;
    config.push.parallel_grain = 8;
    Engine::new(vec![Arc::new(alg)], VERTICES as usize, config)
}

/// `(vertex, old, new)` of the records that changed a value, by vertex.
fn value_changes(changes: &ChangeSet) -> Vec<(u64, u64, u64)> {
    let mut out: Vec<_> = changes.per_algo[0]
        .iter()
        .filter(|c| c.value_changed())
        .map(|c| (c.vertex, c.old, c.new))
        .collect();
    out.sort_unstable();
    out
}

type Tree = Vec<(u64, Option<Edge>)>;

fn tree(e: &Engine) -> Tree {
    (0..VERTICES)
        .map(|v| (e.value(0, v), e.parent(0, v)))
        .collect()
}

/// Every parent edge exists (in either direction for an undirected
/// algorithm) and derives its child's value.
fn assert_certified<A: Monotonic<Value = u64>>(alg: &A, e: &Engine, tree: &Tree, ctx: &str) {
    for (v, &(value, parent)) in tree.iter().enumerate() {
        let Some(pe) = parent else { continue };
        assert_eq!(pe.dst, v as u64);
        let stored = e.with_store(|s| {
            s.contains_edge(pe) || (alg.undirected() && s.contains_edge(pe.reversed()))
        });
        assert!(stored, "{ctx}: parent edge {pe:?} is not in the graph");
        assert_eq!(
            value,
            alg.gen_next(pe, tree[pe.src as usize].0),
            "{ctx}: vertex {v} is not certified by {pe:?}"
        );
    }
}

/// Each record's `old` side is what `before` held, its `new` side what
/// `after` holds, and no changed vertex is missing.
fn assert_records_match(records: &[ChangeRecord], before: &Tree, after: &Tree, ctx: &str) {
    let mut recorded = vec![false; before.len()];
    for r in records {
        let v = r.vertex as usize;
        assert!(
            !std::mem::replace(&mut recorded[v], true),
            "{ctx}: {v} twice"
        );
        assert_eq!((r.old, r.old_parent), before[v], "{ctx}: old side of {v}");
        assert_eq!((r.new, r.new_parent), after[v], "{ctx}: new side of {v}");
    }
    for v in 0..before.len() {
        assert!(
            recorded[v] || before[v] == after[v],
            "{ctx}: vertex {v} changed without a record"
        );
    }
}

fn run<A: Monotonic<Value = u64> + Copy>(alg: A, seed: u64) {
    let budgeted = engine(alg, 8);
    let unbounded = engine(alg, usize::MAX);
    let mut rng = StdRng::seed_from_u64(seed);
    let draw = |rng: &mut StdRng| {
        (
            rng.gen_range(0..VERTICES),
            rng.gen_range(0..VERTICES),
            rng.gen_range(1..8u64),
        )
    };
    let mut live: Vec<(u64, u64, u64)> = (0..150).map(|_| draw(&mut rng)).collect();
    budgeted.load_edges(&live);
    unbounded.load_edges(&live);
    // The initial compute of the budgeted engine went through the pool;
    // count from here so the assertion below is about updates.
    let loaded = budgeted.stats().push_escalations.load(Ordering::Relaxed);
    let mut before = (tree(&budgeted), tree(&unbounded));
    for step in 0..400 {
        let update = if !live.is_empty() && rng.gen_bool(0.45) {
            let (s, d, w) = live.swap_remove(rng.gen_range(0..live.len()));
            Update::DelEdge(Edge::new(s, d, w))
        } else {
            let (s, d, w) = draw(&mut rng);
            live.push((s, d, w));
            Update::InsEdge(Edge::new(s, d, w))
        };
        let ctx = format!("{} seed {seed} step {step} {update:?}", alg.name());
        let got = (
            budgeted.apply(&update).unwrap().1,
            unbounded.apply(&update).unwrap().1,
        );
        let after = (tree(&budgeted), tree(&unbounded));
        let values = |t: &Tree| t.iter().map(|s| s.0).collect::<Vec<_>>();
        assert_eq!(values(&after.0), values(&after.1), "{ctx}: values");
        assert_eq!(value_changes(&got.0), value_changes(&got.1), "{ctx}");
        assert_certified(&alg, &budgeted, &after.0, &ctx);
        assert_certified(&alg, &unbounded, &after.1, &ctx);
        assert_records_match(&got.0.per_algo[0], &before.0, &after.0, &ctx);
        assert_records_match(&got.1.per_algo[0], &before.1, &after.1, &ctx);
        before = after;
    }
    let escalated = budgeted.stats().push_escalations.load(Ordering::Relaxed) - loaded;
    assert!(escalated > 0, "{} seed {seed}: never escalated", alg.name());
    assert_eq!(
        unbounded.stats().push_escalations.load(Ordering::Relaxed),
        0,
        "{} seed {seed}: an unbounded budget was spent",
        alg.name()
    );
}

#[test]
fn budgeted_push_equals_unbounded_sequential_push() {
    for seed in [1u64, 2, 3] {
        run(Bfs::new(0), seed);
        run(Sssp::new(0), seed);
        run(Sswp::new(0), seed);
        run(Wcc::new(), seed * 7);
        run(Reachability::new(0), seed * 13);
    }
}
