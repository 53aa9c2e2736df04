//! Safe updates applied on the caller's thread, where durability and
//! replication can see them go wrong: a synchronous session classifies
//! and applies a safe update itself and stamps it into the server's
//! inline log, and the coordinator's cut folds that log into the
//! epoch's WAL record and feed record ahead of the unsafe phase.
//!
//! * Beside a pipelined unsafe stream, with checkpoints every few
//!   milliseconds and a follower attached, the follower answers like
//!   the leader at **every** version; a second follower that bootstraps
//!   from a snapshot taken mid-traffic converges to the same store; and
//!   a restart from the log rebuilds the live state.
//! * Under a shutdown that lands mid-traffic, every update that was
//!   acknowledged is in the log, in its session's order, and nothing
//!   else is.
//! * A delete that §4's count test refuses on the caller's thread
//!   routes to the coordinator without counting a demotion, and every
//!   update — inline or routed — is
//!   counted and sampled exactly once.
//!
//! Determinism protocol as in the other differential suites: disjoint
//! per-session vertex regions and one engine worker thread on both
//! sides, so dependency-tree parents are comparable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use risgraph::algorithms::Wcc;
use risgraph::core::wal::replay;
use risgraph::prelude::*;
use risgraph::storage::BackendKind;
use risgraph_net::{FollowerConfig, NetConfig, NetServer, ReplicaServer};
use risgraph_testkit::{
    disjoint_session_streams, remove_wal, server_config, store_fingerprint, temp_path,
    RegionStreamConfig,
};

fn wcc_algorithms() -> Vec<DynAlgorithm> {
    vec![Arc::new(Wcc::new()) as DynAlgorithm]
}

/// A chain over `[lo, lo + len)` built edge by edge, then cut and
/// rejoined edge by edge `rounds` times: under WCC every update splits
/// or merges a component, so all of it is unsafe.
fn unsafe_chain_stream(lo: u64, len: u64, rounds: usize) -> Vec<Update> {
    let edge = |i: u64| Edge::new(lo + i, lo + i + 1, 1);
    let mut out: Vec<Update> = (0..len - 1).map(|i| Update::InsEdge(edge(i))).collect();
    for r in 0..rounds {
        let i = r as u64 % (len - 1);
        out.push(Update::DelEdge(edge(i)));
        out.push(Update::InsEdge(edge(i)));
    }
    out
}

/// Whether `u` touches a vertex in `[lo, hi)`.
fn in_region(u: &Update, lo: u64, hi: u64) -> bool {
    let inside = |v: u64| (lo..hi).contains(&v);
    match u {
        Update::InsEdge(e) | Update::DelEdge(e) => inside(e.src) || inside(e.dst),
        Update::InsVertex(v) | Update::DelVertex(v) => inside(*v),
    }
}

/// Wait until `replica` has applied `version` with zero lag.
fn await_convergence(label: &str, replica: &ReplicaServer, version: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while replica.replica().current_version() < version || replica.lag() > 0 {
        assert!(
            Instant::now() < deadline,
            "{label}: stuck at version {} (lag {}), leader at {version}",
            replica.replica().current_version(),
            replica.lag(),
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Three synchronous sessions apply their safe updates inline while a
/// fourth pipelines an all-unsafe chain stream, on a leader that
/// checkpoints every 3 ms, rotates 4 KiB segments and streams to a
/// follower attached from the start. That follower must match the
/// leader's store, and its `get_value` / `get_parent` /
/// `get_modified_vertices` at every version. A second follower,
/// attached once checkpoints have evicted the feed's head, bootstraps
/// from a snapshot taken while callers apply — a snapshot that is not
/// on a record boundary double-applies what straddles it. A restart
/// from the log must rebuild the live store and values.
#[test]
fn inline_applies_beside_unsafe_stream_replicate_and_recover() {
    let cfg = RegionStreamConfig {
        sessions: 3,
        region: 16,
        steps: 2_000,
        seed: 23,
        ..RegionStreamConfig::default()
    };
    let chain_lo = cfg.capacity() as u64;
    let capacity = cfg.capacity() + 16;
    let path = temp_path("inline-apply-replicate.wal");
    let mut config = server_config(BackendKind::IaHash, 2);
    config.wal_path = Some(path.clone());
    config.checkpoint_interval = Some(Duration::from_millis(3));
    config.max_wal_segment_bytes = 4096;
    config.max_followers = 2;
    let net = NetServer::start(
        wcc_algorithms(),
        capacity,
        config.clone(),
        NetConfig::default(),
    )
    .expect("leader");
    let follower = ReplicaServer::start(
        wcc_algorithms(),
        capacity,
        server_config(BackendKind::IaHash, 1),
        FollowerConfig::to_leader(net.local_addr().to_string()),
    )
    .expect("follower");
    let leader = net.server();

    let streams = disjoint_session_streams(&cfg);
    let chain = unsafe_chain_stream(chain_lo, 16, 120);
    let feed = Arc::clone(leader.feed().expect("feed"));
    let late = std::thread::scope(|scope| {
        for stream in &streams {
            scope.spawn(move || {
                let session = leader.session();
                for u in stream {
                    let reply = session.submit_update(u);
                    assert!(reply.outcome.is_ok(), "{u:?}: {:?}", reply.outcome);
                }
            });
        }
        let chain = &chain;
        scope.spawn(move || {
            let session = leader.session();
            for (tag, u) in chain.iter().enumerate() {
                session.submit_update_tagged(u, tag as u64).unwrap();
            }
            for _ in chain {
                let (tag, reply) = session.recv_tagged().unwrap();
                let applied = reply.outcome.expect("chain update");
                assert_eq!(applied.safety, Safety::Unsafe, "chain update {tag}");
            }
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while feed.base() == 0 {
            assert!(Instant::now() < deadline, "the feed never evicted its head");
            std::thread::sleep(Duration::from_millis(1));
        }
        ReplicaServer::start(
            wcc_algorithms(),
            capacity,
            server_config(BackendKind::IaHash, 1),
            FollowerConfig::to_leader(net.local_addr().to_string()),
        )
        .expect("late follower")
    });

    let stats = leader.stats();
    assert!(
        stats.safe_inline.load(Ordering::Relaxed) > 0,
        "nothing applied inline"
    );
    assert!(stats.unsafe_executed.load(Ordering::Relaxed) >= chain.len() as u64);
    let version = leader.current_version();
    await_convergence("follower", &follower, version);
    await_convergence("late follower", &late, version);
    assert!(
        stats.wal_checkpoints.load(Ordering::Relaxed) > 0,
        "no checkpoint fired under traffic"
    );
    assert_eq!(
        late.stats().snapshot_bootstraps.load(Ordering::Relaxed),
        1,
        "the late follower starts from a snapshot"
    );

    let replica = follower.replica();
    let n = capacity as u64;
    assert_eq!(replica.current_version(), version, "total versions");
    let live_store = store_fingerprint(leader.engine(), n);
    assert_eq!(
        store_fingerprint(replica.engine(), n),
        live_store,
        "store fingerprints"
    );
    assert_eq!(
        store_fingerprint(late.replica().engine(), n),
        live_store,
        "late follower store fingerprint"
    );
    assert_eq!(
        late.replica().current_version(),
        version,
        "late follower versions"
    );
    let reads = leader.versioned();
    for v in 0..=version {
        let mut modified = reads.get_modified_vertices(0, v).unwrap();
        let mut replica_modified = replica.get_modified_vertices(0, v).unwrap();
        modified.sort_unstable();
        replica_modified.sort_unstable();
        assert_eq!(
            replica_modified, modified,
            "modified vertices at version {v}"
        );
        for x in 0..n {
            assert_eq!(
                replica.get_value(0, v, x).unwrap(),
                reads.get_value(0, v, x).unwrap(),
                "value of {x} at version {v}"
            );
            assert_eq!(
                replica.get_parent(0, v, x).unwrap(),
                reads.get_parent(0, v, x).unwrap(),
                "parent of {x} at version {v}"
            );
        }
    }

    let live_values = leader.engine().values_snapshot(0, capacity);
    late.shutdown();
    follower.shutdown();
    net.shutdown();
    let recovered = Server::start(wcc_algorithms(), capacity, config).expect("restart");
    assert_eq!(
        store_fingerprint(recovered.engine(), n),
        live_store,
        "restart store"
    );
    assert_eq!(
        recovered.engine().values_snapshot(0, capacity),
        live_values,
        "restart values"
    );
    recovered.shutdown();
    remove_wal(&path);
}

/// Synchronous sessions keep submitting while the server shuts down
/// under them, once a thousand safe updates have been applied inline.
/// Every update acknowledged `Ok` — applied on the caller's thread or
/// by the coordinator — is in the replayed log, in its session's order,
/// and the log holds nothing that was not acknowledged.
#[test]
fn shutdown_under_load_logs_every_acknowledged_update() {
    let cfg = RegionStreamConfig {
        sessions: 3,
        region: 32,
        steps: 200_000,
        seed: 5,
        ..RegionStreamConfig::default()
    };
    let path = temp_path("inline-apply-shutdown.wal");
    let mut config = server_config(BackendKind::IaHash, 2);
    config.wal_path = Some(path.clone());
    let server = Server::start(wcc_algorithms(), cfg.capacity(), config).expect("server");
    let streams = disjoint_session_streams(&cfg);
    let sessions: Vec<Session> = streams.iter().map(|_| server.session()).collect();

    let acked: Vec<Vec<Update>> = std::thread::scope(|scope| {
        let drivers: Vec<_> = sessions
            .into_iter()
            .zip(&streams)
            .map(|(session, stream)| {
                scope.spawn(move || {
                    let mut acked = Vec::new();
                    for u in stream {
                        match session.submit_update(u).outcome {
                            Ok(_) => acked.push(*u),
                            Err(Error::Shutdown) => break,
                            Err(e) => panic!("{u:?}: {e}"),
                        }
                    }
                    acked
                })
            })
            .collect();
        // Shut down once the callers are well into their safe updates.
        let inline = Arc::clone(&server.stats().safe_inline);
        let deadline = Instant::now() + Duration::from_secs(30);
        while inline.load(Ordering::Relaxed) < 1_000 {
            assert!(Instant::now() < deadline, "nothing applied inline");
            std::thread::sleep(Duration::from_millis(1));
        }
        server.shutdown();
        drivers.into_iter().map(|d| d.join().unwrap()).collect()
    });
    for (i, acked) in acked.iter().enumerate() {
        assert!(
            acked.len() < cfg.steps,
            "session {i} finished before the shutdown"
        );
    }

    let logged: Vec<Update> = replay(&path).unwrap().into_iter().flatten().collect();
    for (i, acked) in acked.iter().enumerate() {
        let lo = cfg.base + i as u64 * cfg.region;
        let mine: Vec<Update> = logged
            .iter()
            .filter(|u| in_region(u, lo, lo + cfg.region))
            .copied()
            .collect();
        assert_eq!(
            mine.len(),
            acked.len(),
            "session {i}: {} logged, {} acknowledged",
            mine.len(),
            acked.len()
        );
        assert!(
            mine == *acked,
            "session {i}: the log is not its acknowledged order"
        );
    }
    remove_wal(&path);
}

/// Two synchronous sessions race to delete the two copies of a WCC
/// tree edge. Each delete may find a spare copy when it looks, but only
/// one can take it: the other is refused by §4's count test and routes
/// to the coordinator, which deletes the last copy on the unsafe path.
/// No demotion is counted for the refusal — the test and the apply are
/// one check on the caller's thread — and every delete is served once.
#[test]
fn a_refused_revalidation_routes_without_a_demotion() {
    const ROUNDS: u64 = 400;
    // No WAL and no feed: a cut then takes the gate only for unsafe
    // work, and none is in flight while a round's deletes race.
    let config = ServerConfig {
        max_followers: 0,
        ..server_config(BackendKind::IaHash, 1)
    };
    let server = Server::start(wcc_algorithms(), 2 * ROUNDS as usize, config).expect("server");
    let stats = server.stats();
    // Round `r`'s copies are in once `ready` reads `r + 1`. Both
    // threads spin on it, so their deletes start within a cache-line
    // transfer of each other. A round starts once both deletes of the
    // last one are answered (`done`), so no cut holds the gate and
    // each delete meets the other on the caller's thread.
    let ready = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let safe_deletes: u64 = std::thread::scope(|scope| {
        let drivers: Vec<_> = (0..2)
            .map(|t| {
                let session = server.session();
                let (ready, done) = (&ready, &done);
                scope.spawn(move || {
                    let mut safe = 0u64;
                    for r in 0..ROUNDS {
                        let e = Edge::new(2 * r, 2 * r + 1, 1);
                        if t == 0 {
                            while done.load(Ordering::Acquire) < 2 * r {
                                std::hint::spin_loop();
                            }
                            // The first copy joins two components
                            // (unsafe); the second changes nothing.
                            for _ in 0..2 {
                                session
                                    .submit_update(&Update::InsEdge(e))
                                    .outcome
                                    .expect("insert");
                            }
                            ready.store(r + 1, Ordering::Release);
                        }
                        while ready.load(Ordering::Acquire) <= r {
                            std::hint::spin_loop();
                        }
                        let del = session
                            .submit_update(&Update::DelEdge(e))
                            .outcome
                            .expect("delete");
                        safe += u64::from(del.safety == Safety::Safe);
                        done.fetch_add(1, Ordering::Release);
                    }
                    safe
                })
            })
            .collect();
        drivers.into_iter().map(|d| d.join().unwrap()).sum()
    });

    // Of each round's two deletes, one took the spare copy safely and
    // the other cut the tree edge on the unsafe path.
    assert_eq!(safe_deletes, ROUNDS, "one safe delete per round");
    assert_eq!(stats.demotions.load(Ordering::Relaxed), 0, "demotions");
    let inline = stats.safe_inline.load(Ordering::Relaxed);
    let routed_safe = stats.safe_executed.load(Ordering::Relaxed) - inline;
    let routed_unsafe = stats.unsafe_executed.load(Ordering::Relaxed);
    // Per round: two inserts (one unsafe, one safe) and two deletes.
    assert_eq!(routed_unsafe, 2 * ROUNDS, "unsafe joins and cuts");
    assert_eq!(
        inline + routed_safe + routed_unsafe,
        4 * ROUNDS,
        "inline + routed"
    );
    server.shutdown();
}

/// Two threads each submit N synchronous updates, safe and unsafe
/// mixed. Each update is one latency sample, whichever path served it,
/// and the inline updates plus the routed ones are all 2N.
#[test]
fn every_update_is_counted_once_on_either_path() {
    let cfg = RegionStreamConfig {
        sessions: 2,
        region: 24,
        steps: 3_000,
        seed: 41,
        ..RegionStreamConfig::default()
    };
    let server = Server::start(
        wcc_algorithms(),
        cfg.capacity(),
        server_config(BackendKind::IaHash, 2),
    )
    .expect("server");
    let streams = disjoint_session_streams(&cfg);
    let unsafe_replies: u64 = std::thread::scope(|scope| {
        let drivers: Vec<_> = streams
            .iter()
            .map(|stream| {
                let session = server.session();
                scope.spawn(move || {
                    let mut unsafe_replies = 0u64;
                    for u in stream {
                        let applied = session.submit_update(u).outcome.expect("valid update");
                        unsafe_replies += u64::from(applied.safety == Safety::Unsafe);
                    }
                    unsafe_replies
                })
            })
            .collect();
        drivers.into_iter().map(|d| d.join().unwrap()).sum()
    });

    let n = (cfg.sessions * cfg.steps) as u64;
    let stats = server.stats();
    let inline = stats.safe_inline.load(Ordering::Relaxed);
    let routed_safe = stats.safe_executed.load(Ordering::Relaxed) - inline;
    let routed_unsafe = stats.unsafe_executed.load(Ordering::Relaxed);
    assert!(inline > 0, "nothing applied inline");
    assert!(unsafe_replies > 0, "the stream has no unsafe update");
    assert_eq!(routed_unsafe, unsafe_replies, "unsafe updates executed");
    assert_eq!(inline + routed_safe + routed_unsafe, n, "inline + routed");
    assert_eq!(stats.update_latency.count(), n, "latency samples");
    server.shutdown();
}
