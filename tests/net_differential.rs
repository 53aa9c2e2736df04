//! The network ≡ in-process differential suite: the TCP serving tier
//! (`crates/net`) must be observably identical to in-process
//! [`Session`]s on the same update streams — same reply outcomes,
//! safety classes and result-change counts, same point-in-time query
//! answers at every returned version, same per-version modification
//! sets, same final values and count-annotated store fingerprints —
//! checked on IA_Hash and the concurrent mmap-backed OOC store, at
//! `shards = 1` and `shards = 4`.
//!
//! Determinism protocol is the same as the cross-shard suite: each
//! connection/session owns a disjoint vertex region
//! ([`risgraph_testkit::disjoint_session_streams`]) and servers run one
//! engine worker thread. On top of the trace comparison, the network
//! *query* path (`get_value` / `get_parent` / `get_modified_vertices` /
//! `get_current_version` over the wire) is differentially checked
//! against an in-process session of the same server.
//!
//! The `net_soak` case is `#[ignore]`d (30 s of pipelined churn) and
//! runs in the slow CI job.

use std::sync::Arc;
use std::time::{Duration, Instant};

use risgraph::algorithms::Wcc;
use risgraph::prelude::*;
use risgraph_net::NetClient;
use risgraph_testkit::{
    assert_servers_equivalent, disjoint_session_streams, drive_net_sessions, drive_sessions,
    loopback_net_server, server_config, RegionStreamConfig,
};

fn wcc_algorithms() -> Vec<DynAlgorithm> {
    vec![Arc::new(Wcc::new()) as DynAlgorithm]
}

/// Drive `streams` over TCP against one server and in-process against
/// another (same backend/shards), and assert full observable
/// equivalence plus wire-query agreement.
fn net_differential(
    label: &str,
    (backend_a, shards_a): (BackendKind, usize),
    (backend_b, shards_b): (BackendKind, usize),
    streams: &[Vec<Update>],
    capacity: usize,
) {
    let net = loopback_net_server(
        wcc_algorithms(),
        capacity,
        server_config(backend_a, shards_a),
    );
    let in_proc = Arc::new(
        Server::start(
            wcc_algorithms(),
            capacity,
            server_config(backend_b, shards_b),
        )
        .unwrap(),
    );

    let traces_net = drive_net_sessions(net.local_addr(), streams);
    let traces_in = drive_sessions(&in_proc, streams);

    assert_servers_equivalent(
        label,
        net.server(),
        &traces_net,
        &in_proc,
        &traces_in,
        streams,
        Wcc::new(),
        capacity,
    );

    // The wire query path must agree with an in-process session of the
    // *same* server at every version a connection observed.
    let client = NetClient::connect(net.local_addr()).unwrap();
    let direct = net.server().session();
    assert_eq!(
        client.current_version().unwrap(),
        direct.get_current_version(),
        "{label}: wire current_version"
    );
    for (i, trace) in traces_net.iter().enumerate() {
        for (t, step) in trace.steps.iter().enumerate().filter(|(_, s)| s.ok) {
            let ctx = format!("{label}: session {i} step {t} version {}", step.version);
            let mut wire_mods = client.get_modified_vertices(0, step.version).unwrap();
            let mut direct_mods = direct.get_modified_vertices(0, step.version).unwrap();
            wire_mods.sort_unstable();
            direct_mods.sort_unstable();
            assert_eq!(wire_mods, direct_mods, "{ctx}: modified sets");
            for &v in &wire_mods {
                assert_eq!(
                    client.get_value(0, step.version, v).unwrap(),
                    direct.get_value(0, step.version, v).unwrap(),
                    "{ctx}: value of {v}"
                );
                assert_eq!(
                    client.get_parent(0, step.version, v).unwrap(),
                    direct.get_parent(0, step.version, v).unwrap(),
                    "{ctx}: parent of {v}"
                );
            }
        }
    }
    drop(direct);
    drop(client);

    net.shutdown();
    Arc::try_unwrap(in_proc).ok().unwrap().shutdown();
}

#[test]
fn network_equals_in_process_on_ia_hash() {
    for (shards, seed) in [(1usize, 11u64), (4, 12)] {
        let cfg = RegionStreamConfig {
            sessions: 4,
            region: 20,
            steps: 100,
            seed,
            ..RegionStreamConfig::default()
        };
        net_differential(
            &format!("net IA_Hash shards {shards}"),
            (BackendKind::IaHash, shards),
            (BackendKind::IaHash, shards),
            &disjoint_session_streams(&cfg),
            cfg.capacity(),
        );
    }
}

#[test]
fn network_equals_in_process_on_ooc_mmap() {
    for (shards, seed) in [(1usize, 21u64), (4, 22)] {
        let cfg = RegionStreamConfig {
            sessions: 4,
            region: 16,
            steps: 80,
            seed,
            ..RegionStreamConfig::default()
        };
        let (mmap_net, path_net) =
            risgraph_testkit::ooc_mmap_backend(&format!("net-diff-{shards}-net"));
        let (mmap_in, path_in) =
            risgraph_testkit::ooc_mmap_backend(&format!("net-diff-{shards}-in"));
        net_differential(
            &format!("net OOC_MMAP shards {shards}"),
            (mmap_net, shards),
            (mmap_in, shards),
            &disjoint_session_streams(&cfg),
            cfg.capacity(),
        );
        risgraph_testkit::remove_ooc_files(&path_net);
        risgraph_testkit::remove_ooc_files(&path_in);
    }
}

/// The cross-shape case: a sharded server behind TCP against a serial
/// server in-process — network framing and the shard barrier compose
/// without changing anything observable.
#[test]
fn sharded_network_equals_serial_in_process() {
    let cfg = RegionStreamConfig {
        sessions: 4,
        region: 16,
        steps: 80,
        seed: 33,
        ..RegionStreamConfig::default()
    };
    net_differential(
        "net IA_Hash s4 vs in-proc IA_Hash s1",
        (BackendKind::IaHash, 4),
        (BackendKind::IaHash, 1),
        &disjoint_session_streams(&cfg),
        cfg.capacity(),
    );
}

/// 30 seconds of pipelined churn from multiple connections **with a
/// replication follower attached**: zero protocol errors on both the
/// client connections and the replication stream, per-connection
/// version monotonicity, a monotone follower watermark whose lag never
/// wedges (it converges to zero once the churn stops), and a live
/// server afterwards. Slow-job material.
#[test]
#[ignore = "slow: 30 s soak, run via `cargo test --release -- --ignored`"]
fn net_soak() {
    use risgraph_net::{FollowerConfig, ReplicaServer};
    let capacity = 1 << 10;
    let preload = [(0, 1, 0), (1, 2, 0), (2, 3, 0)];
    let net = loopback_net_server(
        wcc_algorithms(),
        capacity,
        ServerConfig {
            backend: BackendKind::IaHash,
            max_followers: 1,
            ..ServerConfig::default()
        },
    );
    net.server().load_edges(&preload);
    let addr = net.local_addr();
    // Attach the follower before any update traffic; bulk loads are
    // not replicated, so it preloads the same base edges.
    let follower = Arc::new(
        ReplicaServer::start(
            wcc_algorithms(),
            capacity,
            ServerConfig {
                backend: BackendKind::IaHash,
                max_followers: 0,
                ..ServerConfig::default()
            },
            FollowerConfig::to_leader(addr.to_string()),
        )
        .expect("follower"),
    );
    follower.replica().load_edges(&preload);
    let deadline = Instant::now() + Duration::from_secs(30);
    let window = 64usize;

    // Sample the follower throughout the soak: its applied watermark
    // must be monotone (replication progresses, never regresses) and
    // the stream must stay clean.
    let stop_sampling = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop_sampling);
        let follower = Arc::clone(&follower);
        std::thread::spawn(move || {
            let mut last_watermark = 0u64;
            let mut worst_lag = 0u64;
            let mut samples = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let watermark = follower.replica().current_version();
                assert!(
                    watermark >= last_watermark,
                    "follower watermark regressed: {last_watermark} -> {watermark}"
                );
                last_watermark = watermark;
                worst_lag = worst_lag.max(follower.lag());
                samples += 1;
                std::thread::sleep(Duration::from_millis(25));
            }
            (samples, worst_lag)
        })
    };

    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let client = NetClient::connect(addr).expect("connect");
                let base = 10 + t * 200;
                let mut inflight: std::collections::VecDeque<u64> = Default::default();
                let mut last_version = 0u64;
                let mut i = 0u64;
                let mut ops = 0u64;
                while Instant::now() < deadline {
                    // Alternate insert/delete churn inside this
                    // connection's region; keep `window` in flight.
                    let e = Edge::new(base + (i % 100), base + ((i * 7 + 1) % 100), 0);
                    let u = if i.is_multiple_of(2) {
                        Update::InsEdge(e)
                    } else {
                        Update::DelEdge(Edge::new(
                            base + ((i - 1) % 100),
                            base + (((i - 1) * 7 + 1) % 100),
                            0,
                        ))
                    };
                    inflight.push_back(client.submit_update_pipelined(&u).expect("submit"));
                    i += 1;
                    while inflight.len() >= window {
                        let id = inflight.pop_front().unwrap();
                        let reply = client.wait_reply(id).expect("no protocol errors");
                        if reply.outcome.is_ok() {
                            assert!(reply.version > last_version, "versions monotone");
                            last_version = reply.version;
                        }
                        ops += 1;
                    }
                }
                for id in inflight {
                    let reply = client.wait_reply(id).expect("drain");
                    if reply.outcome.is_ok() {
                        assert!(reply.version > last_version);
                        last_version = reply.version;
                    }
                    ops += 1;
                }
                ops
            })
        })
        .collect();
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);
    // Server still healthy after the soak.
    let c = NetClient::connect(addr).unwrap();
    assert!(c.ins_edge(Edge::new(3, 4, 0)).unwrap().outcome.is_ok());
    use risgraph::common::metrics::MetricValue;
    let snap = c.metrics().unwrap();
    let latency = snap
        .iter()
        .find_map(|(name, value)| match value {
            MetricValue::Histogram(h) if name == "core.update_latency_ns" => Some(*h),
            _ => None,
        })
        .expect("core.update_latency_ns");
    assert!(latency.count > 0);
    assert!(
        snap.iter()
            .any(|(name, value)| name == "replication.feed.followers"
                && *value == MetricValue::Gauge(1)),
        "the follower stayed subscribed"
    );

    // The follower drains the feed tail: its watermark converges to
    // the leader's final version with a clean stream — zero protocol
    // errors, zero rejections, no duplicate records.
    let leader_version = net.server().current_version();
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while follower.replica().current_version() < leader_version || follower.lag() > 0 {
        assert!(
            Instant::now() < drain_deadline,
            "follower wedged at {} (leader {leader_version})",
            follower.replica().current_version()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    stop_sampling.store(true, std::sync::atomic::Ordering::Release);
    let (samples, worst_lag) = sampler.join().unwrap();
    use std::sync::atomic::Ordering as AtOrd;
    let fstats = follower.stats();
    assert_eq!(
        fstats.stream_errors.load(AtOrd::Relaxed),
        0,
        "stream errors"
    );
    assert_eq!(fstats.rejections.load(AtOrd::Relaxed), 0, "rejections");
    assert_eq!(fstats.duplicates_skipped.load(AtOrd::Relaxed), 0, "dups");
    assert_eq!(fstats.reconnects.load(AtOrd::Relaxed), 0, "reconnects");
    let applied = fstats.records_applied.load(AtOrd::Relaxed);
    assert!(applied > 0, "follower never applied a record");
    println!(
        "net_soak: {total} ops, p50={}ns p99={}ns p999={}ns; follower applied \
         {applied} records over {samples} samples, worst lag {worst_lag} versions",
        latency.p50_ns, latency.p99_ns, latency.p999_ns
    );
    drop(c);
    Arc::try_unwrap(follower).ok().unwrap().shutdown();
    net.shutdown();
}
