//! End-to-end observability: the metrics registry, the epoch-pipeline
//! tracer, and the `METRICS` wire opcode observed from a real client
//! against a real TCP server under load.
//!
//! The acceptance pair for the observability layer:
//!  1. a loaded server reports per-phase epoch histograms (safe
//!     execute, barrier wait, WAL append, feed publish, …) over
//!     `METRICS`;
//!  2. with the slow-epoch threshold at zero every traced epoch is
//!     flagged, and a flagged trace carries its full phase breakdown.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use risgraph::algorithms::Wcc;
use risgraph::common::metrics::{MetricValue, Phase};
use risgraph::common::protocol::Request;
use risgraph::prelude::*;
use risgraph_net::{FollowerConfig, NetClient, NetConfig, NetServer, ReplicaServer};
use risgraph_testkit::{
    disjoint_session_streams, drive_net_sessions, remove_wal, safe_churn, server_config, temp_path,
    unsafe_chain_preload, unsafe_chain_streams, RegionStreamConfig, UnsafeChainConfig,
};

fn wcc_algorithms() -> Vec<DynAlgorithm> {
    vec![Arc::new(Wcc::new()) as DynAlgorithm]
}

/// A loaded leader with every epoch traced (threshold zero).
fn loaded_server() -> (NetServer, usize) {
    let cfg = RegionStreamConfig {
        sessions: 4,
        region: 16,
        steps: 60,
        seed: 7_082_021,
        ..RegionStreamConfig::default()
    };
    let streams = disjoint_session_streams(&cfg);
    let mut server_cfg = server_config(BackendKind::IaHash, 2);
    server_cfg.trace_slow_epoch = Duration::ZERO;
    server_cfg.max_followers = 2;
    let net = NetServer::start(
        wcc_algorithms(),
        cfg.capacity(),
        server_cfg,
        NetConfig::default(),
    )
    .expect("leader");
    drive_net_sessions(net.local_addr(), &streams);
    (net, cfg.capacity())
}

/// Find a histogram by name in a snapshot.
fn histogram_count(snapshot: &[(String, MetricValue)], name: &str) -> Option<u64> {
    snapshot.iter().find_map(|(n, v)| match v {
        MetricValue::Histogram(h) if n == name => Some(h.count),
        _ => None,
    })
}

fn counter(snapshot: &[(String, MetricValue)], name: &str) -> Option<u64> {
    snapshot.iter().find_map(|(n, v)| match v {
        MetricValue::Counter(c) if n == name => Some(*c),
        _ => None,
    })
}

fn gauge(snapshot: &[(String, MetricValue)], name: &str) -> Option<u64> {
    snapshot.iter().find_map(|(n, v)| match v {
        MetricValue::Gauge(g) if n == name => Some(*g),
        _ => None,
    })
}

#[test]
fn metrics_opcode_reports_per_phase_epoch_histograms() {
    let (net, _) = loaded_server();
    let client = NetClient::connect(net.local_addr()).expect("connect");
    let snap = client.metrics().expect("METRICS");

    // The epoch pipeline's mandatory phases ran and were histogrammed.
    // (Rotation/checkpoint/unsafe phases are workload-dependent, so
    // only their registration — not a nonzero count — is guaranteed.)
    for phase in [Phase::SafeExecute, Phase::Finalize] {
        let name = format!("epoch.phase.{}_ns", phase.name());
        assert!(
            histogram_count(&snap, &name).expect(&name) > 0,
            "{name} should have samples after a load"
        );
    }
    let traced = counter(&snap, "epoch.traced").expect("epoch.traced");
    assert!(traced > 0, "no epochs traced");
    assert_eq!(
        counter(&snap, "epoch.flagged"),
        Some(traced),
        "threshold zero must flag every traced epoch"
    );
    assert!(
        histogram_count(&snap, "epoch.total_ns").expect("epoch.total_ns") >= traced,
        "every traced epoch records its total span"
    );

    // Core counters moved, and the reactor's per-worker gauges are
    // registered (the drive's connections are closed by now, so only
    // presence — not a level — is stable).
    assert!(counter(&snap, "core.epochs").expect("core.epochs") > 0);
    assert!(counter(&snap, "core.safe_executed").expect("core.safe_executed") > 0);
    // The hand-off counters travel over the wire too. Blocking clients
    // keep one update in flight per connection, so every epoch stayed
    // on the coordinator; the serving tier submits tagged and drains on
    // a waker, so nothing ever waited synchronously.
    assert_eq!(
        counter(&snap, "core.epochs_inline"),
        counter(&snap, "core.epochs")
    );
    assert_eq!(counter(&snap, "core.sync_reply_parks"), Some(0));
    // The engine's own handle, adopted: the load's affected areas are a
    // few vertices each, far inside the sequential stage's edge budget.
    assert_eq!(counter(&snap, "core.push.escalations"), Some(0));
    assert!(
        snap.iter()
            .any(|(n, v)| n == "net.worker.0.connections" && matches!(v, MetricValue::Gauge(_))),
        "reactor worker gauges missing from the registry"
    );

    net.shutdown();
}

/// The registry names the benchmark harness (`perfbench`) reads by
/// string. Its lookups get-or-create, so a renamed or deleted metric
/// would read 0 there instead of failing: this keeps the list alive
/// under the workspace's own tests. Keep it in step with
/// `perfbench/src/harness/counters.rs`.
#[test]
fn every_metric_the_benchmark_reads_is_registered() {
    let wal = temp_path("bench-names.wal");
    let cfg = RegionStreamConfig {
        sessions: 2,
        region: 8,
        steps: 20,
        seed: 5,
        ..RegionStreamConfig::default()
    };
    let mut server_cfg = server_config(BackendKind::IaHash, 2);
    server_cfg.wal_path = Some(wal.clone());
    let net = NetServer::start(
        wcc_algorithms(),
        cfg.capacity(),
        server_cfg,
        NetConfig::default(),
    )
    .expect("server");
    drive_net_sessions(net.local_addr(), &disjoint_session_streams(&cfg));

    let registered: Vec<String> = net
        .server()
        .metrics()
        .snapshot()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let counters = [
        "epoch.traced",
        "core.safe_executed",
        "core.unsafe_executed",
        "core.demotions",
        "core.unsafe_serial_fallbacks",
        "net.admission.admitted",
        "net.admission.shed_budget",
        "net.admission.shed_quota",
        "net.admission.shed_overload",
        "wal.checkpoints",
    ];
    let phases = Phase::ALL
        .iter()
        .map(|p| format!("epoch.phase.{}_ns", p.name()));
    let missing: Vec<String> = counters
        .iter()
        .map(|c| c.to_string())
        .chain(phases)
        .chain(
            [
                "epoch.total_ns",
                "net.admission.inflight",
                "wal.segment_lag",
            ]
            .map(String::from),
        )
        .filter(|name| !registered.contains(name))
        .collect();
    assert!(
        missing.is_empty(),
        "the benchmark would read these as 0: {missing:?}"
    );
    net.shutdown();
    remove_wal(&wal);
}

#[test]
fn zero_threshold_flags_epochs_with_full_breakdown() {
    let (net, _) = loaded_server();
    let flagged = net.server().tracer().flagged(64);
    assert!(
        !flagged.is_empty(),
        "threshold zero under load must flag at least one epoch"
    );
    for trace in &flagged {
        assert!(trace.flagged);
        assert_eq!(
            trace.total_ns,
            trace.phase_ns.iter().sum::<u64>(),
            "epoch {}: breakdown must reassemble into the total",
            trace.epoch
        );
        assert!(
            trace.phase_ns[Phase::SafeExecute as usize] > 0
                || trace.phase_ns[Phase::UnsafeExecute as usize] > 0,
            "epoch {}: a traced epoch executed work in some phase",
            trace.epoch
        );
    }
    // Flagged epochs are a subset of the recent ring's view of history.
    let recent = net.server().tracer().recent(64);
    assert!(!recent.is_empty());
    net.shutdown();
}

#[test]
fn replica_serves_follower_stats_over_metrics() {
    let (net, capacity) = loaded_server();
    let follower = ReplicaServer::start(
        wcc_algorithms(),
        capacity,
        server_config(BackendKind::IaHash, 1),
        FollowerConfig {
            listen: Some("127.0.0.1:0".into()),
            ..FollowerConfig::to_leader(net.local_addr().to_string())
        },
    )
    .expect("follower");

    let leader_version = net.server().current_version();
    let deadline = Instant::now() + Duration::from_secs(60);
    while follower.replica().current_version() < leader_version || follower.lag() > 0 {
        assert!(Instant::now() < deadline, "replica never converged");
        std::thread::sleep(Duration::from_millis(2));
    }

    let client = NetClient::connect(follower.local_addr().expect("replica addr")).expect("connect");
    let snap = client.metrics().expect("replica METRICS");
    assert!(
        counter(&snap, "replica.records_applied").expect("replica.records_applied") > 0,
        "the follower applied records"
    );
    assert!(counter(&snap, "replica.connects").expect("replica.connects") >= 1);
    assert_eq!(
        gauge(&snap, "replica.lag"),
        Some(0),
        "converged replica must report zero lag"
    );

    follower.shutdown();
    net.shutdown();
}

/// A follower's watermark gauges move with the watermark, not with a
/// wire read: a replica with no listener (so nobody ever asks it for
/// `METRICS`) that has caught up reports the leader's version and zero
/// lag from its own registry — what `--metrics-listen` exposes.
#[test]
fn follower_watermark_gauges_move_without_a_listener() {
    let (net, capacity) = loaded_server();
    let follower = ReplicaServer::start(
        wcc_algorithms(),
        capacity,
        server_config(BackendKind::IaHash, 1),
        FollowerConfig::to_leader(net.local_addr().to_string()),
    )
    .expect("follower");
    assert!(follower.local_addr().is_none());

    let leader_version = net.server().current_version();
    assert!(leader_version > 0);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = follower.metrics().snapshot();
        let (version, lag) = (gauge(&snap, "replica.version"), gauge(&snap, "replica.lag"));
        if version == Some(leader_version) && lag == Some(0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watermark gauges read version {version:?} lag {lag:?}; the replica is at \
             version {} lag {}, the leader at {leader_version}",
            follower.replica().current_version(),
            follower.lag()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(follower.replica().current_version(), leader_version);

    follower.shutdown();
    net.shutdown();
}

/// The history footprint is visible from the running process: the
/// `core.history.resident_*` gauges rise under unsafe traffic and fall
/// once the session releases its versions and a GC tick has run.
#[test]
fn history_footprint_gauges_rise_under_unsafe_traffic_and_fall_after_release() {
    let cfg = UnsafeChainConfig {
        sessions: 1,
        chain: 256,
        pairs: 16,
        ..UnsafeChainConfig::default()
    };
    let mut server_cfg = server_config(BackendKind::IaHash, 2);
    server_cfg.gc_interval = Duration::from_millis(2);
    let srv: Server = Server::start(wcc_algorithms(), cfg.capacity(), server_cfg).expect("server");
    srv.load_edges(&unsafe_chain_preload(&cfg));
    let session = srv.session();
    // The coordinator collects at the end of an epoch — after that
    // epoch's replies — so a tick needs an operation (an empty
    // transaction records no history itself) and a reader has to poll.
    let gauges_when = |what: &str, done: &dyn Fn(u64, u64) -> bool| {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            std::thread::sleep(Duration::from_millis(5));
            session.txn_updates(Vec::new()).outcome.expect("empty txn");
            let snap = srv.metrics().snapshot();
            let entries = gauge(&snap, "core.history.resident_entries").expect("resident_entries");
            let bytes = gauge(&snap, "core.history.resident_bytes").expect("resident_bytes");
            if done(entries, bytes) {
                return (entries, bytes);
            }
            assert!(
                Instant::now() < deadline,
                "{what}: gauges stuck at {entries} entries, {bytes} bytes"
            );
        }
    };

    let (_, bytes_idle) = gauges_when("first tick", &|entries, bytes| entries == 0 && bytes > 0);

    // 32 unsafe updates × 255 changed labels: more than one log segment.
    let mut last = 0;
    for u in &unsafe_chain_streams(&cfg)[0] {
        let reply = session.submit_update(u);
        reply.outcome.expect("chain update");
        last = reply.version;
    }
    let (entries_loaded, bytes_loaded) =
        gauges_when("after traffic", &|entries, _| entries == 32 * 255);
    assert_eq!(entries_loaded as usize, srv.history_resident_entries());
    assert!(bytes_loaded > bytes_idle, "{bytes_idle} → {bytes_loaded}");

    // Only the released version's own modification list stays needed,
    // and the segments in front of it go.
    session.release_history(last);
    gauges_when("after release", &|entries, bytes| {
        entries == 255 && bytes < bytes_loaded
    });
    srv.shutdown();
}

/// The hand-offs of the synchronous round trip are countable: one
/// synchronous session over safe churn applies every update on its own
/// thread (`core.safe_inline` is the update count), so the coordinator
/// runs far fewer epochs than there are updates — each one only cuts
/// what the caller applied, on its own (`core.epochs_inline ==
/// core.epochs`) — and no reply is waited for (`core.sync_reply_parks`
/// stays 0), while one update that relabels a long chain is routed,
/// outlasts the spin and is counted as a park.
#[test]
fn synchronous_round_trip_counts_inline_epochs_and_parks() {
    const UPDATES: u64 = 4_000;
    let cfg = UnsafeChainConfig {
        sessions: 1,
        chain: 20_000,
        ..UnsafeChainConfig::default()
    };
    let preload = unsafe_chain_preload(&cfg);
    let srv: Server = Server::start(
        wcc_algorithms(),
        cfg.capacity(),
        server_config(BackendKind::IaHash, 2),
    )
    .expect("server");
    srv.load_edges(&preload);
    let session = srv.session();
    let counters = || {
        let snap = srv.metrics().snapshot();
        (
            counter(&snap, "core.epochs").expect("core.epochs"),
            counter(&snap, "core.epochs_inline").expect("core.epochs_inline"),
            counter(&snap, "core.sync_reply_parks").expect("core.sync_reply_parks"),
            counter(&snap, "core.safe_inline").expect("core.safe_inline"),
        )
    };

    for u in &safe_churn(&preload, UPDATES as usize / 2, 7) {
        let applied = session.submit_update(u).outcome.expect("safe churn");
        assert_eq!(applied.safety, Safety::Safe);
    }
    // Counted before the reply: no wait for the coordinator.
    let (epochs, inline, parks_safe, safe_inline) = counters();
    assert_eq!(safe_inline, UPDATES, "every safe update applied inline");
    assert_eq!(parks_safe, 0, "no inline update waited for a reply");
    assert!(
        epochs < UPDATES / 4,
        "{epochs} epochs for {UPDATES} updates applied on the caller's thread"
    );
    assert_eq!(
        inline, epochs,
        "an epoch with nothing routed was dispatched"
    );

    // Cutting the chain's first edge relabels every vertex behind it.
    let cut = session.submit_update(&unsafe_chain_streams(&cfg)[0][0]);
    assert_eq!(cut.outcome.expect("cut").safety, Safety::Unsafe);
    let (_, _, parks, safe_inline) = counters();
    assert_eq!(parks, parks_safe + 1, "a 20 000-vertex relabel parks");
    assert_eq!(safe_inline, UPDATES, "an unsafe update is routed");

    // All three are in the Prometheus exposition as well, with the
    // value the snapshot has (read after shutdown: the coordinator
    // counts an epoch after its reply went out).
    let metrics = Arc::clone(srv.metrics());
    srv.shutdown();
    let epochs_inline = counter(&metrics.snapshot(), "core.epochs_inline").expect("epochs_inline");
    let text = metrics.render_prometheus();
    for line in [
        format!("risgraph_core_epochs_inline {epochs_inline}"),
        format!("risgraph_core_sync_reply_parks {parks}"),
        format!("risgraph_core_safe_inline {UPDATES}"),
    ] {
        assert!(text.lines().any(|l| l == line), "no `{line}` in:\n{text}");
    }
}

/// A star around vertex 0: every duplicate insert of one of its edges,
/// and every delete of such a duplicate, is safe.
fn star_preload(leaves: u64) -> Vec<(u64, u64, u64)> {
    (1..=leaves).map(|leaf| (0, leaf, 1)).collect()
}

/// The gather stage's cost per update does not depend on how many
/// sessions are open. 4 096 sessions submit one update each and stay
/// open — with the GC tick out of the way the coordinator keeps a queue
/// for every one of them — and then one of them submits 2 000 more, one
/// at a time. A gather that walked its whole table would look at
/// ≈ 4 096 queues per pass (≈ 16 million visits); looking only where
/// something arrived is one visit per update. Each update goes through
/// the gather — tagged, one in flight, as the network tier submits —
/// since a synchronous caller applies a safe update itself.
#[test]
fn gather_visits_grow_with_updates_not_with_open_sessions() {
    const SESSIONS: u64 = 4_096;
    const SOLO: u64 = 2_000;
    let preload = star_preload(64);
    let mut cfg = server_config(BackendKind::IaHash, 2);
    cfg.gc_interval = Duration::from_secs(3600);
    let srv: Server = Server::start(wcc_algorithms(), 128, cfg).expect("server");
    srv.load_edges(&preload);

    let sessions: Vec<Session> = (0..SESSIONS).map(|_| srv.session()).collect();
    let churn = safe_churn(&preload, (SESSIONS + SOLO) as usize, 11);
    let (one_each, solo) = churn.split_at(SESSIONS as usize);
    let round_trip = |session: &Session, u: &Update| {
        session.submit_update_tagged(u, 0).expect("submit");
        let (_, reply) = session.recv_tagged().expect("reply");
        reply.outcome.expect("safe churn");
    };
    for (session, u) in sessions.iter().zip(one_each) {
        round_trip(session, u);
    }
    for u in &solo[..SOLO as usize] {
        round_trip(&sessions[0], u);
    }

    // An epoch is counted as it ends, after its reply went out.
    let updates = SESSIONS + SOLO;
    let deadline = Instant::now() + Duration::from_secs(30);
    let (epochs, examined) = loop {
        let snap = srv.metrics().snapshot();
        let epochs = counter(&snap, "core.epochs").expect("core.epochs");
        if epochs >= updates {
            let name = "core.gather.sessions_examined";
            break (epochs, counter(&snap, name).expect(name));
        }
        assert!(Instant::now() < deadline, "epoch {epochs} never ended");
        std::thread::yield_now();
    };
    assert!(
        examined >= updates,
        "{examined} visits for {updates} updates"
    );
    assert!(
        examined <= 2 * updates + epochs,
        "{examined} queue visits for {updates} updates in {epochs} epochs \
         with {SESSIONS} sessions open"
    );
    let line = format!("risgraph_core_gather_sessions_examined {examined}");
    let text = srv.metrics().render_prometheus();
    assert!(text.lines().any(|l| l == line), "no `{line}` in:\n{text}");
    drop(sessions);
    srv.shutdown();
}

/// Every reply on a window-1 session is the first of its burst, so each
/// one decides once whether the owning reactor worker needs the eventfd
/// written: `net.reactor.wakes` (it was asleep) plus
/// `net.reactor.wakes_elided` (it was awake, no syscall) is the number
/// of replies. 256 such sessions on one connection are answered in
/// bursts, and inside a burst the worker is awake.
#[test]
fn reply_nudges_write_the_eventfd_only_for_a_sleeping_worker() {
    const SESSIONS: usize = 256;
    const ROUNDS: usize = 20;
    let preload = star_preload(64);
    let net = NetServer::start(
        wcc_algorithms(),
        128,
        server_config(BackendKind::IaHash, 2),
        NetConfig::default(),
    )
    .expect("server");
    net.server().load_edges(&preload);
    let client = NetClient::connect(net.local_addr()).expect("connect");
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|_| client.open_session().expect("v2 session"))
        .collect();
    // Whole insert/delete pairs per session (ROUNDS is even), so a
    // delete always finds the copy its own session inserted.
    let churn = safe_churn(&preload, SESSIONS * ROUNDS / 2, 13);
    let streams: Vec<&[Update]> = churn.chunks(ROUNDS).collect();
    for round in 0..ROUNDS {
        let ids: Vec<u64> = sessions
            .iter()
            .zip(&streams)
            .map(|(s, stream)| s.submit_update_pipelined(&stream[round]).expect("submit"))
            .collect();
        for (s, id) in sessions.iter().zip(ids) {
            s.wait_reply(id)
                .expect("reply")
                .outcome
                .expect("safe churn");
        }
    }

    let snap = client.metrics().expect("METRICS");
    let wakes = counter(&snap, "net.reactor.wakes").expect("net.reactor.wakes");
    let elided = counter(&snap, "net.reactor.wakes_elided").expect("net.reactor.wakes_elided");
    assert_eq!(
        wakes + elided,
        (SESSIONS * ROUNDS) as u64,
        "{wakes} writes + {elided} elided: one decision per reply"
    );
    assert!(elided > 0, "every one of {wakes} replies wrote the eventfd");
    let text = net.server().metrics().render_prometheus();
    for line in [
        format!("risgraph_net_reactor_wakes {wakes}"),
        format!("risgraph_net_reactor_wakes_elided {elided}"),
    ] {
        assert!(text.lines().any(|l| l == line), "no `{line}` in:\n{text}");
    }
    drop(sessions);
    drop(client);
    net.shutdown();
}

/// Requests buffered behind an uncollected reply reach the server as
/// one burst: 64 pipelined updates written by one `flush()` are parsed
/// out of at most two socket reads (`net.reactor.frames` over
/// `net.reactor.reads`), and both counters are in the Prometheus text.
#[test]
fn a_flushed_burst_is_parsed_out_of_few_reads() {
    const UPDATES: u64 = 64;
    let preload = star_preload(64);
    let net = NetServer::start(
        wcc_algorithms(),
        128,
        server_config(BackendKind::IaHash, 2),
        NetConfig {
            inflight_budget: 0,
            session_quota: 0,
            ..NetConfig::default()
        },
    )
    .expect("server");
    net.server().load_edges(&preload);
    let client = NetClient::connect(net.local_addr()).expect("connect");
    // Two queries are answered in order, so collecting the second
    // leaves the first's reply delivered and uncollected: from here on
    // the client buffers what it submits.
    let held = client.send(&Request::CurrentVersion).expect("send");
    let probe = client.send(&Request::CurrentVersion).expect("send");
    client.wait(probe).expect("probe");

    let registry = net.server().metrics();
    let reads = registry.counter("net.reactor.reads");
    let frames = registry.counter("net.reactor.frames");
    let (reads_before, frames_before) = (
        reads.load(Ordering::Relaxed),
        frames.load(Ordering::Relaxed),
    );
    let ids: Vec<u64> = safe_churn(&preload, UPDATES as usize / 2, 17)
        .iter()
        .map(|u| client.submit_update_pipelined(u).expect("submit"))
        .collect();
    client.flush().expect("flush");
    for id in ids {
        client
            .wait_reply(id)
            .expect("reply")
            .outcome
            .expect("safe churn");
    }
    let (reads_after, frames_after) = (
        reads.load(Ordering::Relaxed),
        frames.load(Ordering::Relaxed),
    );
    let burst_reads = reads_after - reads_before;
    let burst_frames = frames_after - frames_before;
    assert_eq!(burst_frames, UPDATES);
    assert!(
        burst_reads >= 1 && burst_frames >= 32 * burst_reads,
        "{burst_frames} frames in {burst_reads} reads"
    );
    let text = registry.render_prometheus();
    for line in [
        format!("risgraph_net_reactor_reads {reads_after}"),
        format!("risgraph_net_reactor_frames {frames_after}"),
    ] {
        assert!(text.lines().any(|l| l == line), "no `{line}` in:\n{text}");
    }
    client.wait(held).expect("held reply");
    drop(client);
    net.shutdown();
}
