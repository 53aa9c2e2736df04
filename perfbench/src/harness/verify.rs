//! Output checking: the program's final results against a full
//! recompute of its final graph.
//!
//! The oracle is `risgraph_baselines::recompute::recompute` over the
//! structure the engine itself exports. A vertex is a mismatch when its
//! value differs from the oracle's, or when its dependency-tree parent
//! does not justify that value (the parent edge must exist in the final
//! graph and generate exactly the vertex's value — equally good parents
//! are all accepted, which is why parents are checked for consistency
//! and not compared literally).

use risgraph_baselines::recompute::{recompute, symmetrize};
use risgraph_common::ids::Update;
use risgraph_core::engine::Engine;
use risgraph_storage::csr::Csr;
use risgraph_storage::{AnyStore, DynamicGraph};
use risgraph_testkit::LiveEdge;

use super::inputs::Algo;

/// What a run left behind, captured at a quiesced epoch boundary.
pub struct FinalState {
    /// Algorithm 0's value per vertex, `0..capacity`.
    pub values: Vec<u64>,
    /// Live edges, repeated by multiplicity.
    pub edges: Vec<LiveEdge>,
}

/// Snapshot a quiesced engine.
pub fn capture(engine: &Engine<AnyStore>) -> FinalState {
    let edges = engine
        .export_structure()
        .into_iter()
        .filter_map(|u| match u {
            Update::InsEdge(e) => Some((e.src, e.dst, e.data)),
            _ => None,
        })
        .collect();
    FinalState {
        values: engine.values_snapshot(0, engine.capacity()),
        edges,
    }
}

/// The oracle's values for `state`'s graph.
pub fn oracle(algo: Algo, state: &FinalState) -> Vec<u64> {
    let n = state.values.len();
    let alg = algo.make();
    if alg.undirected() {
        recompute(&alg, &symmetrize(n, &state.edges))
    } else {
        recompute(&alg, &Csr::from_edges(n, state.edges.iter().copied()))
    }
}

/// Vertices of `engine` whose value or parent is wrong (see the module
/// docs). `expect` is [`oracle`]'s output for the engine's final graph.
pub fn result_mismatches(
    algo: Algo,
    engine: &Engine<AnyStore>,
    state: &FinalState,
    expect: &[u64],
) -> u64 {
    let alg = algo.make();
    let mut bad = 0u64;
    for (v, (&got, &want)) in state.values.iter().zip(expect).enumerate() {
        let v = v as u64;
        let parent_ok = match engine.parent(0, v) {
            // No parent: the vertex must sit at its initial value.
            None => got == alg.init_val(v),
            Some(e) => {
                let present = engine.with_store(|s| {
                    s.contains_edge(e) || (alg.undirected() && s.contains_edge(e.reversed()))
                });
                present && alg.gen_next(e, state.values[e.src as usize]) == got
            }
        };
        if got != want || !parent_ok {
            bad += 1;
        }
    }
    bad
}

/// Vertices on which two value vectors disagree (length difference
/// included) — recovered engine against pre-shutdown engine.
pub fn value_mismatches(a: &[u64], b: &[u64]) -> u64 {
    let common = a.len().min(b.len());
    let differing = a[..common]
        .iter()
        .zip(&b[..common])
        .filter(|(x, y)| x != y)
        .count();
    (differing + a.len().max(b.len()) - common) as u64
}
