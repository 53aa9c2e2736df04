//! Interactive-tier semantics across crates: versioned snapshots match
//! an offline reconstruction of every version; concurrent sessions
//! preserve per-update analysis semantics; WAL recovery restores state.

use std::sync::Arc;
use std::time::Duration;

use risgraph::algorithms::{Bfs, Sssp};
use risgraph::core::server::{Server, ServerConfig};
use risgraph::prelude::*;
use risgraph::workloads::datasets::by_abbr;
use risgraph::workloads::StreamConfig;
use risgraph_testkit::oracle;

/// Every version the server hands out must answer `get_value` exactly
/// like an oracle recomputation of the graph as of that version.
#[test]
fn every_version_matches_offline_reconstruction() {
    let spec = by_abbr("PH").unwrap();
    let data = spec.generate(7, 0); // 128 vertices
    let stream = StreamConfig {
        timestamped: spec.temporal,
        ..StreamConfig::default()
    }
    .build(&data.edges);

    let mut config = ServerConfig::default();
    config.engine.threads = 4;
    let server: Server = Server::start(
        vec![Arc::new(Bfs::new(data.root)) as DynAlgorithm],
        data.num_vertices,
        config,
    )
    .unwrap();
    server.load_edges(&stream.preload);
    let session = server.session();

    // Apply updates one by one, remembering (version, graph-state).
    let mut live = stream.preload.clone();
    let mut checkpoints: Vec<(u64, Vec<u64>)> = Vec::new();
    let take = stream.updates.len().min(250);
    for u in &stream.updates[..take] {
        let reply = match *u {
            Update::InsEdge(e) => session.ins_edge(e),
            Update::DelEdge(e) => session.del_edge(e),
            _ => unreachable!(),
        };
        assert!(reply.outcome.is_ok(), "update {u:?} failed");
        oracle::apply_update(&mut live, u);
        let want = oracle::oracle_values(&Bfs::new(data.root), data.num_vertices, &live);
        checkpoints.push((reply.version, want));
    }

    // All historical versions still answer correctly afterwards.
    for (version, want) in &checkpoints {
        for v in 0..data.num_vertices as u64 {
            assert_eq!(
                session.get_value(0, *version, v).unwrap(),
                want[v as usize],
                "version {version}, vertex {v}"
            );
        }
    }
    server.shutdown();
}

/// Sequential consistency per session: a session that inserts then
/// deletes then re-inserts the same edge must observe its own program
/// order in the returned versions.
#[test]
fn session_program_order() {
    let server: Server = Server::start(
        vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
        64,
        ServerConfig::default(),
    )
    .unwrap();
    server.load_edges(&[(0, 1, 0)]);
    let s = server.session();
    let e = Edge::new(1, 2, 0);
    let mut versions = Vec::new();
    for _ in 0..10 {
        versions.push(s.ins_edge(e).version);
        versions.push(s.del_edge(e).version);
    }
    assert!(versions.windows(2).all(|w| w[0] < w[1]), "{versions:?}");
    assert_eq!(server.engine().value(0, 2), u64::MAX);
    server.shutdown();
}

/// Per-update semantics under concurrency: each result-changing update
/// gets its own version; no version merges two updates' effects.
#[test]
fn per_update_versions_under_concurrency() {
    let server: Arc<Server> = Arc::new(
        Server::start(
            vec![Arc::new(Sssp::new(0)) as DynAlgorithm],
            1 << 10,
            ServerConfig::default(),
        )
        .unwrap(),
    );
    // A path so extensions are unsafe (result-changing).
    server.load_edges(&[(0, 1, 1)]);
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            let session = server.session();
            let mut out = Vec::new();
            // Each thread grows its own chain off vertex 1.
            let base = 10 + t * 100;
            let mut prev = 1u64;
            for i in 0..50 {
                let v = base + i;
                let reply = session.ins_edge(Edge::new(prev, v, 1));
                let applied = reply.outcome.unwrap();
                out.push((reply.version, applied.result_changes));
                prev = v;
            }
            out
        }));
    }
    let mut seen = std::collections::HashSet::new();
    for h in handles {
        for (version, changes) in h.join().unwrap() {
            assert!(seen.insert(version), "duplicate version {version}");
            assert_eq!(changes, 1, "each chain extension changes exactly 1 vertex");
        }
    }
    let server = Arc::try_unwrap(server).ok().unwrap();
    server.shutdown();
}

/// Crash recovery: a server restarted from its WAL serves the same
/// values as the original.
#[test]
fn wal_recovery_is_value_equivalent() {
    let dir = std::env::temp_dir().join("risgraph-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("e2e-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let spec = by_abbr("PH").unwrap();
    let data = spec.generate(7, 0);
    let stream = StreamConfig::default().build(&data.edges);
    let take = stream.updates.len().min(300);

    let mut config = ServerConfig::default();
    config.engine.threads = 2;
    config.wal_path = Some(path.clone());

    let reference_values;
    {
        let server: Server = Server::start(
            vec![Arc::new(Bfs::new(data.root)) as DynAlgorithm],
            data.num_vertices,
            config.clone(),
        )
        .unwrap();
        // Preload goes through sessions so it lands in the WAL.
        let s = server.session();
        for &(a, b, w) in &stream.preload {
            assert!(s.ins_edge(Edge::new(a, b, w)).outcome.is_ok());
        }
        for u in &stream.updates[..take] {
            let _ = match *u {
                Update::InsEdge(e) => s.ins_edge(e),
                Update::DelEdge(e) => s.del_edge(e),
                _ => unreachable!(),
            };
        }
        reference_values = server.engine().values_snapshot(0, data.num_vertices);
        server.shutdown(); // graceful: final group commit flushed
    }

    let recovered: Server = Server::start(
        vec![Arc::new(Bfs::new(data.root)) as DynAlgorithm],
        data.num_vertices,
        config,
    )
    .unwrap();
    assert_eq!(
        recovered.engine().values_snapshot(0, data.num_vertices),
        reference_values
    );
    recovered.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// Starvation avoidance (§4/§5): a session flooding safe updates must
/// not starve another session's unsafe updates — the scheduler's
/// waiting-time heuristic bounds how long an unsafe update waits.
#[test]
fn unsafe_updates_are_not_starved_by_safe_floods() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let server: Arc<Server> = Arc::new(
        Server::start(
            vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
            1 << 12,
            ServerConfig::default(),
        )
        .unwrap(),
    );
    // A chain so that extensions at the end are unsafe.
    let chain: Vec<(u64, u64, u64)> = (0..32).map(|i| (i, i + 1, 0)).collect();
    server.load_edges(&chain);

    let stop = Arc::new(AtomicBool::new(false));
    let mut flooders = Vec::new();
    for t in 0..3u64 {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        flooders.push(std::thread::spawn(move || {
            let session = server.session();
            // Back-edges to the root are always safe.
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let e = Edge::new(40 + (i + t * 1000) % 500, 0, 0);
                let _ = session.ins_edge(e);
                let _ = session.del_edge(e);
                i += 1;
            }
        }));
    }
    // Meanwhile: unsafe chain extensions must all complete promptly.
    let session = server.session();
    let mut worst = std::time::Duration::ZERO;
    for i in 0..50u64 {
        let t = std::time::Instant::now();
        let r = session.ins_edge(Edge::new(32 + i, 33 + i, 0));
        assert!(r.outcome.is_ok());
        worst = worst.max(t.elapsed());
    }
    stop.store(true, Ordering::Relaxed);
    for f in flooders {
        f.join().unwrap();
    }
    assert!(
        worst < std::time::Duration::from_secs(2),
        "unsafe update starved: worst latency {worst:?}"
    );
    assert_eq!(server.engine().value(0, 82), 82, "chain fully extended");
    let server = Arc::try_unwrap(server).ok().unwrap();
    server.shutdown();
}

/// History GC must never reclaim versions a session still holds.
#[test]
fn gc_respects_unreleased_sessions() {
    let mut config = ServerConfig::default();
    config.engine.threads = 2;
    config.gc_interval = Duration::from_millis(1);
    let srv: Server =
        Server::start(vec![Arc::new(Bfs::new(0)) as DynAlgorithm], 64, config).unwrap();
    srv.load_edges(&[(0, 1, 0)]);
    let holder = srv.session(); // never releases: watermark stays 0
    let worker = srv.session();
    let r1 = worker.ins_edge(Edge::new(1, 2, 0));
    worker.release_history(u64::MAX); // worker needs nothing
    for _ in 0..50 {
        let _ = worker.ins_edge(Edge::new(2, 0, 0));
        let _ = worker.del_edge(Edge::new(2, 0, 0));
        std::thread::sleep(Duration::from_millis(1));
    }
    // The holder session still pins version r1.
    assert_eq!(holder.get_value(0, r1.version, 2).unwrap(), 2);
    srv.shutdown();
}

/// Unsafe-transaction atomicity: a failing operation mid-transaction on
/// the *unsafe* path must undo already-applied result changes.
#[test]
fn unsafe_txn_rollback_restores_results() {
    let srv: Server = Server::start(
        vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
        64,
        ServerConfig::default(),
    )
    .unwrap();
    srv.load_edges(&[(0, 1, 0)]);
    let s = srv.session();
    let before: Vec<u64> = (0..8).map(|v| srv.engine().value(0, v)).collect();
    // First op is unsafe (extends the BFS tree); second op fails.
    let r = s.txn_updates(vec![
        Update::InsEdge(Edge::new(1, 2, 0)),
        Update::DelEdge(Edge::new(7, 7, 7)),
    ]);
    assert!(r.outcome.is_err());
    let after: Vec<u64> = (0..8).map(|v| srv.engine().value(0, v)).collect();
    assert_eq!(before, after, "results must be restored after rollback");
    assert_eq!(srv.engine().num_edges(), 1, "structure restored too");
    srv.shutdown();
}

/// A rolled-back transaction re-derives results and records nothing, so
/// it may leave a live parent pointer on another, equally good edge —
/// here 3's, on 2→3 instead of 1→3. A read of a version older than the
/// vertex's last recorded change must not pick that up: at `v0` vertex
/// 2 is not even reachable. (From that change on — `v1` here — reads
/// answer from the live tree, rolled-back moves included; ROADMAP.)
#[test]
fn rollback_moving_a_live_parent_does_not_rewrite_older_versions() {
    let srv: Server = Server::start(
        vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
        8,
        ServerConfig::default(),
    )
    .unwrap();
    srv.load_edges(&[(0, 5, 0), (5, 1, 0), (1, 3, 0), (2, 3, 0)]);
    let s = srv.session();
    let v0 = s.get_current_version();
    // Shortens 3's path through the parent it already has; then 2
    // becomes as good a parent as 1.
    let v1 = s.ins_edge(Edge::new(0, 1, 0)).version;
    let v2 = s.ins_edge(Edge::new(0, 2, 0)).version;
    let r = s.txn_updates(vec![
        Update::DelEdge(Edge::new(1, 3, 0)),
        Update::DelVertex(0),
    ]);
    assert!(r.outcome.is_err(), "vertex 0 still has edges");
    assert_eq!(srv.engine().num_edges(), 6, "structure restored");
    assert_eq!(s.get_value(0, v0, 3).unwrap(), 3);
    assert_eq!(s.get_parent(0, v0, 3).unwrap(), Some(Edge::new(1, 3, 0)));
    for version in [v1, v2] {
        assert_eq!(s.get_value(0, version, 3).unwrap(), 2);
    }
    srv.shutdown();
}

/// The coordinator's per-session queue table follows the sessions that
/// have something queued, not every session id it has ever seen: after
/// 10 000 sessions came, submitted one update each and went, a GC tick
/// leaves at most the one session that is still open.
#[test]
fn closed_sessions_leave_the_coordinators_queue_table() {
    let config = ServerConfig {
        gc_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let server: Server =
        Server::start(vec![Arc::new(Bfs::new(0)) as DynAlgorithm], 8, config).unwrap();
    let live = server.session();
    for i in 0..10_000 {
        let gone = server.session();
        assert!(gone.ins_edge(Edge::new(0, 1, i)).outcome.is_ok());
    }
    // The table is pruned on the tick at the end of an epoch, so give
    // it two intervals and an (empty) operation to ride on.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        std::thread::sleep(Duration::from_millis(10));
        live.txn_updates(Vec::new()).outcome.expect("empty txn");
        let tracked = server
            .stats()
            .pending_sessions
            .load(std::sync::atomic::Ordering::Relaxed);
        if tracked <= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{tracked} session queues still tracked"
        );
    }
    server.shutdown();
}
