//! The cross-shard differential harness.
//!
//! The sharded epoch loop rests on one claim: because safe updates
//! commute (§4), partitioning the safe phase across shard executors
//! changes *scheduling* but never *results*. This module turns the
//! claim into a checkable property. Drive identical per-session update
//! streams through two servers — typically `shards = 1` (the serial
//! coordinator) and `shards = N` — and assert, update by update, that
//! both produce:
//!
//! * the same reply outcome, safety class and result-change count;
//! * the same point-in-time query answers (`get_value`) at each reply's
//!   version, both between the servers and against the oracle;
//! * a *certificate* for each of those values (`get_parent`): a live
//!   edge that yields the value from its source's — parents may differ
//!   between servers on ties, but each must prove its answer;
//! * the same `get_modified_vertices` set per version;
//! * and finally the same value snapshot, current version, and
//!   count-annotated store contents.
//!
//! Version *numbers* are intentionally not compared across servers:
//! with concurrent sessions the global version order is a race in both
//! configurations. What must agree is everything observable through
//! those versions. Use [`crate::streams::disjoint_session_streams`] so
//! each session's observations are deterministic.

use std::sync::Arc;

use risgraph_algorithms::Monotonic;
use risgraph_common::ids::{Edge, Update, VersionId};
use risgraph_core::engine::{Engine, Safety};
use risgraph_core::server::{Reply, Server};
use risgraph_storage::DynamicGraph;

use crate::oracle::{apply_update, oracle_values, LiveEdge};

/// What one session observed for one submitted update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepTrace {
    /// Whether the update was applied.
    pub ok: bool,
    /// How it executed (`None` on error).
    pub safety: Option<Safety>,
    /// Result-change records reported by the reply.
    pub result_changes: usize,
    /// The version id the reply carried.
    pub version: VersionId,
}

impl From<Reply> for StepTrace {
    fn from(reply: Reply) -> Self {
        match reply.outcome {
            Ok(applied) => StepTrace {
                ok: true,
                safety: Some(applied.safety),
                result_changes: applied.result_changes,
                version: reply.version,
            },
            Err(_) => StepTrace {
                ok: false,
                safety: None,
                result_changes: 0,
                version: reply.version,
            },
        }
    }
}

/// One session's full observation sequence.
#[derive(Debug, Clone)]
pub struct SessionTrace {
    /// Per-submitted-update observations, in submission order.
    pub steps: Vec<StepTrace>,
}

/// Submit each stream through its own live session (one thread per
/// stream, synchronous one-outstanding-op clients as in §6.2) and
/// record what every session observed.
pub fn drive_sessions(server: &Arc<Server>, streams: &[Vec<Update>]) -> Vec<SessionTrace> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let server = Arc::clone(server);
                scope.spawn(move || {
                    let session = server.session();
                    let steps = stream
                        .iter()
                        .map(|u| session.submit_update(u).into())
                        .collect();
                    SessionTrace { steps }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    })
}

/// [`drive_sessions`] with fully pipelined clients: every session's
/// whole stream is submitted tag-first (round-robin across sessions,
/// from one thread — all server channels are unbounded) and only then
/// are the replies collected. Every session therefore provably has
/// operations pending at the same time, which is what makes the
/// coordinator's unsafe queue actually fill up — the precondition for
/// the parallel unsafe phase (or its conflict fallback) to engage.
/// The server executes and answers one session's updates in submission
/// order regardless of pipelining (the gather phase drains session
/// queues FIFO, the first unsafe op blocks the rest, and a demotion
/// holds back everything behind it), so the traces are directly
/// comparable with [`drive_sessions`] output and feed
/// [`assert_servers_equivalent`] unchanged. That order is asserted
/// here: every session's replies must arrive in tag order.
pub fn drive_sessions_pipelined(
    server: &Arc<Server>,
    streams: &[Vec<Update>],
) -> Vec<SessionTrace> {
    let sessions: Vec<_> = streams.iter().map(|_| server.session()).collect();
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for t in 0..longest {
        for (session, stream) in sessions.iter().zip(streams) {
            if let Some(u) = stream.get(t) {
                session.submit_update_tagged(u, t as u64).expect("submit");
            }
        }
    }
    sessions
        .iter()
        .zip(streams)
        .enumerate()
        .map(|(i, (session, stream))| {
            let steps = (0..stream.len() as u64)
                .map(|t| {
                    let (tag, reply) = session.recv_tagged().expect("reply");
                    assert_eq!(tag, t, "session {i}: reply out of submission order");
                    reply.into()
                })
                .collect();
            SessionTrace { steps }
        })
        .collect()
}

/// The network-path twin of [`drive_sessions`]: submit each stream
/// through its own [`risgraph_net::NetClient`] connection (one thread
/// per stream, blocking one-outstanding-op clients as in §6.2) and
/// record what every connection observed, in the same [`SessionTrace`]
/// shape — so [`assert_servers_equivalent`] can compare a served
/// network path against an in-process one, update by update.
pub fn drive_net_sessions(
    addr: std::net::SocketAddr,
    streams: &[Vec<Update>],
) -> Vec<SessionTrace> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let client = risgraph_net::NetClient::connect(addr).expect("connect");
                    let steps = stream
                        .iter()
                        .map(|u| {
                            let reply = client.submit_update(u).expect("wire round-trip");
                            match reply.outcome {
                                Ok(applied) => StepTrace {
                                    ok: true,
                                    safety: Some(if applied.safe {
                                        Safety::Safe
                                    } else {
                                        Safety::Unsafe
                                    }),
                                    result_changes: applied.result_changes as usize,
                                    version: reply.version,
                                },
                                Err(_) => StepTrace {
                                    ok: false,
                                    safety: None,
                                    result_changes: 0,
                                    version: reply.version,
                                },
                            }
                        })
                        .collect();
                    SessionTrace { steps }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("net session thread"))
            .collect()
    })
}

/// A store-contents fingerprint: total edge count plus each vertex's
/// sorted `(dst, weight, multiplicity)` adjacency.
pub type StoreFingerprint = (u64, Vec<Vec<(u64, u64, u32)>>);

/// Count-annotated adjacency of every vertex in `0..n` plus the edge
/// total — the canonical "store contents" fingerprint two equivalent
/// servers must share, whatever their backend layout.
pub fn store_fingerprint<G: DynamicGraph>(engine: &Engine<G>, n: u64) -> StoreFingerprint {
    engine.with_store(|s| raw_store_fingerprint(s, n))
}

/// [`store_fingerprint`] for a bare store (no engine around it) — what
/// the cold-restart suite compares a reopened block file against.
pub fn raw_store_fingerprint<G: DynamicGraph>(store: &G, n: u64) -> StoreFingerprint {
    let mut all = Vec::with_capacity(n as usize);
    for v in 0..n {
        let mut adj = Vec::new();
        store.scan_out(v, &mut |d, w, c| adj.push((d, w, c)));
        adj.sort_unstable();
        all.push(adj);
    }
    (store.num_edges(), all)
}

/// The vertices a stream mentions (the session's region), sorted.
fn touched_vertices(stream: &[Update]) -> Vec<u64> {
    let mut vs: Vec<u64> = stream
        .iter()
        .flat_map(|u| match u {
            Update::InsEdge(e) | Update::DelEdge(e) => vec![e.src, e.dst],
            Update::InsVertex(v) | Update::DelVertex(v) => vec![*v],
        })
        .collect();
    vs.sort_unstable();
    vs.dedup();
    vs
}

/// Assert that `parent` — what a server answered for `get_parent` of `v`
/// at the version where the oracle says `want` — certifies `want[v]`: it
/// is an edge into `v` present in `live` (either way round for an
/// undirected algorithm) whose generated value from its source's is
/// `v`'s. Call only for a `v` off its initial value.
fn assert_certified<A: Monotonic<Value = u64>>(
    alg: &A,
    live: &[LiveEdge],
    want: &[u64],
    v: u64,
    parent: Option<Edge>,
    ctx: &str,
) {
    let e = parent.unwrap_or_else(|| {
        panic!(
            "{ctx}: vertex {v} holds {} but has no parent",
            want[v as usize]
        )
    });
    assert_eq!(e.dst, v, "{ctx}: parent {e:?} does not point at {v}");
    let present = live.contains(&(e.src, e.dst, e.data))
        || (alg.undirected() && live.contains(&(e.dst, e.src, e.data)));
    assert!(present, "{ctx}: parent {e:?} of {v} is not a live edge");
    assert_eq!(
        alg.gen_next(e, want[e.src as usize]),
        want[v as usize],
        "{ctx}: parent {e:?} of {v} does not yield its value"
    );
}

/// Assert full observable equivalence of two servers that executed the
/// same per-session `streams` (see module docs for what is compared).
/// Sessions must touch pairwise-disjoint vertex regions — that is what
/// makes each session's oracle well-defined under concurrency.
///
/// `alg` is the single maintained algorithm of both servers, `n` the
/// vertex universe for snapshots and fingerprints, `label` names the
/// configuration pair in failures.
#[allow(clippy::too_many_arguments)] // two (server, trace) pairs + the shared inputs
pub fn assert_servers_equivalent<A: Monotonic<Value = u64> + Copy>(
    label: &str,
    a: &Server,
    traces_a: &[SessionTrace],
    b: &Server,
    traces_b: &[SessionTrace],
    streams: &[Vec<Update>],
    alg: A,
    n: usize,
) {
    assert_eq!(traces_a.len(), streams.len());
    assert_eq!(traces_b.len(), streams.len());
    let query_a = a.session();
    let query_b = b.session();

    for (i, stream) in streams.iter().enumerate() {
        let (ta, tb) = (&traces_a[i].steps, &traces_b[i].steps);
        assert_eq!(ta.len(), stream.len(), "{label}: session {i} trace length");
        assert_eq!(tb.len(), stream.len(), "{label}: session {i} trace length");
        let touched = touched_vertices(stream);
        let mut live: Vec<LiveEdge> = Vec::new();
        let mut prev_version = 0;
        for (t, u) in stream.iter().enumerate() {
            let (sa, sb) = (ta[t], tb[t]);
            let ctx = format!("{label}: session {i} step {t} ({u:?})");
            assert_eq!(sa.ok, sb.ok, "{ctx}: outcome");
            assert_eq!(sa.safety, sb.safety, "{ctx}: safety class");
            assert_eq!(sa.result_changes, sb.result_changes, "{ctx}: changes");
            if !sa.ok {
                continue;
            }
            assert!(sa.version > prev_version, "{ctx}: version monotonicity");
            prev_version = sa.version;
            apply_update(&mut live, u);

            // Point-in-time queries at each server's own version for
            // this step must agree with the session-local oracle.
            let want = oracle_values(&alg, n, &live);
            for &v in &touched {
                let va = query_a.get_value(0, sa.version, v).unwrap();
                let vb = query_b.get_value(0, sb.version, v).unwrap();
                assert_eq!(va, want[v as usize], "{ctx}: server A value of {v}");
                assert_eq!(vb, want[v as usize], "{ctx}: server B value of {v}");
                if want[v as usize] != alg.init_val(v) {
                    let pa = query_a.get_parent(0, sa.version, v).unwrap();
                    let pb = query_b.get_parent(0, sb.version, v).unwrap();
                    assert_certified(&alg, &live, &want, v, pa, &format!("{ctx}: server A"));
                    assert_certified(&alg, &live, &want, v, pb, &format!("{ctx}: server B"));
                }
            }
            // Identical history: the same versions record the same
            // modification sets, confined to this session's region.
            let mut ma = query_a.get_modified_vertices(0, sa.version).unwrap();
            let mut mb = query_b.get_modified_vertices(0, sb.version).unwrap();
            ma.sort_unstable();
            mb.sort_unstable();
            assert_eq!(ma, mb, "{ctx}: modified-vertex sets");
            for v in &ma {
                assert!(
                    touched.binary_search(v).is_ok(),
                    "{ctx}: modification leaked outside the session region (vertex {v})"
                );
            }
        }
    }

    // Global post-conditions: same number of versions handed out, same
    // final values, same store contents.
    assert_eq!(
        a.current_version(),
        b.current_version(),
        "{label}: total versions assigned"
    );
    assert_eq!(
        a.engine().values_snapshot(0, n),
        b.engine().values_snapshot(0, n),
        "{label}: final value snapshots"
    );
    assert_eq!(
        store_fingerprint(a.engine(), n as u64),
        store_fingerprint(b.engine(), n as u64),
        "{label}: final store contents"
    );
}
