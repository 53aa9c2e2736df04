//! Server-side admission control: the serving tier sheds requests with
//! a `Busy` wire error instead of queueing unboundedly — exactly at
//! global-budget / per-session-quota exhaustion and never below it,
//! whether or not the connection opened with `Hello`. Shed requests are
//! cheap: no session allocated, the epoch loop untouched. Slow readers
//! ride the existing `send_timeout` clock into a *counted* eviction
//! that carries a best-effort connection-level notice.
//!
//! Determinism protocol: the raw-socket tests write every update frame
//! of a burst in **one** `write(2)` call, so the reactor worker parses
//! the whole burst in a single `process()` batch — budget release only
//! happens in `drain_session`, which cannot interleave with that batch,
//! making the admitted/shed split exact rather than timing-dependent.
//! The admission knobs are pinned through `NetConfig` (not the
//! environment), so the suite is immune to the CI job's
//! `RISGRAPH_NET_*` exports.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use risgraph::algorithms::{Bfs, Wcc};
use risgraph::common::protocol::{
    read_frame, write_frame, BusyCause, Request, Response, MAX_RESPONSE_FRAME,
};
use risgraph::prelude::*;
use risgraph_net::{NetClient, NetConfig};
use risgraph_testkit::{loopback_net_server_with, server_config, store_fingerprint};

fn bfs() -> Vec<DynAlgorithm> {
    vec![Arc::new(Bfs::new(0)) as DynAlgorithm]
}

fn wcc() -> Vec<DynAlgorithm> {
    vec![Arc::new(Wcc::new()) as DynAlgorithm]
}

/// Admission knobs pinned explicitly (overriding any `RISGRAPH_NET_*`
/// environment the CI job exports), one reactor worker so counters and
/// gauges have a single home.
fn net_config(budget: usize, quota: usize) -> NetConfig {
    NetConfig {
        net_workers: 1,
        inflight_budget: budget,
        session_quota: quota,
        accept_high_water: 0,
        ..NetConfig::default()
    }
}

/// Poll `cond` for up to `secs` seconds.
fn eventually(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// A hand-rolled wire client: unlike [`NetClient`] it can put an entire
/// burst of frames into one `write(2)` (one server-side parse batch)
/// and can *stop reading* on purpose.
struct RawClient {
    stream: TcpStream,
}

impl RawClient {
    fn connect(addr: SocketAddr, hello: Option<u32>) -> RawClient {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        if let Some(version) = hello {
            write_frame(&mut stream, &Request::Hello { version }.encode(1)).unwrap();
            let frame = read_frame(&mut (&stream), MAX_RESPONSE_FRAME)
                .unwrap()
                .expect("hello reply");
            let (_, resp) = Response::decode(&frame).unwrap();
            assert!(
                matches!(resp, Response::Hello { version: v } if v == version),
                "handshake: {resp:?}"
            );
        }
        RawClient { stream }
    }

    /// Write all `payloads` as frames through a single `write_all`.
    fn send_batch(&mut self, payloads: &[Vec<u8>]) {
        let mut buf = Vec::new();
        for p in payloads {
            write_frame(&mut buf, p).unwrap();
        }
        self.stream.write_all(&buf).unwrap();
    }

    fn read_response(&mut self) -> (u64, Response) {
        let frame = read_frame(&mut (&self.stream), MAX_RESPONSE_FRAME)
            .unwrap()
            .expect("response frame");
        Response::decode(&frame).unwrap()
    }

    fn read_responses(&mut self, n: usize) -> Vec<(u64, Response)> {
        (0..n).map(|_| self.read_response()).collect()
    }
}

fn update_frame(req_id: u64, sid: u64, src: u64, dst: u64) -> Vec<u8> {
    Request::Update(Update::InsEdge(Edge::new(src, dst, 1))).encode_in_session(req_id, sid)
}

/// Partition responses into (applied req ids, shed req ids), asserting
/// every shed frame carries the expected cause.
fn split_outcomes(responses: &[(u64, Response)], expect_cause: BusyCause) -> (Vec<u64>, Vec<u64>) {
    let mut applied = Vec::new();
    let mut shed = Vec::new();
    for (req_id, resp) in responses {
        match resp {
            Response::Applied { .. } => applied.push(*req_id),
            Response::Busy { cause, message } => {
                assert_eq!(*cause, expect_cause, "wrong shed cause: {message}");
                assert!(!message.is_empty(), "Busy must explain itself");
                shed.push(*req_id);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    (applied, shed)
}

/// Global budget: a one-batch burst of 32 updates against a budget of 4
/// admits exactly the first 4 and sheds exactly the rest —
/// `Busy(inflight-budget)` at exhaustion, never below it. Once the
/// admitted replies land the budget frees and a later update is
/// admitted again. A connection that never sent `Hello` gets the same
/// session-wrapped service and the same `Busy` frames.
#[test]
fn v2_burst_sheds_exactly_at_global_budget() {
    const BUDGET: usize = 4;
    const BURST: u64 = 32;
    for hello in [Some(2), None] {
        let srv = loopback_net_server_with(
            bfs(),
            1 << 12,
            server_config(BackendKind::IaHash, 1),
            net_config(BUDGET, 0),
        );
        let mut c = RawClient::connect(srv.local_addr(), hello);

        let frames: Vec<Vec<u8>> = (0..BURST)
            .map(|i| update_frame(10 + i, 1, i, i + 1))
            .collect();
        c.send_batch(&frames);
        let responses = c.read_responses(BURST as usize);
        let (applied, shed) = split_outcomes(&responses, BusyCause::InflightBudget);
        assert_eq!(
            applied,
            (10..10 + BUDGET as u64).collect::<Vec<_>>(),
            "exactly the first {BUDGET} frames of the batch hold the budget (hello {hello:?})"
        );
        assert_eq!(
            shed.len(),
            (BURST as usize) - BUDGET,
            "everything else sheds (hello {hello:?})"
        );

        let registry = srv.server().metrics();
        assert_eq!(
            registry
                .counter("net.admission.shed_budget")
                .load(Ordering::Relaxed),
            shed.len() as u64
        );
        // The replies we already read mean the budget has drained: the
        // occupancy gauge returns to zero and a fresh update is
        // admitted — shedding never outlives the overload.
        let occupancy = registry.gauge("net.admission.inflight");
        assert!(
            eventually(5, || occupancy.load(Ordering::Relaxed) == 0),
            "budget occupancy stuck at {}",
            occupancy.load(Ordering::Relaxed)
        );
        c.send_batch(&[update_frame(100, 1, 200, 201)]);
        let (_, resp) = c.read_response();
        assert!(
            matches!(resp, Response::Applied { .. }),
            "an idle server must admit: {resp:?}"
        );
    }
}

/// Per-session quota: with quota 2, a one-batch interleaving of six
/// updates on session 1 and two on session 2 sheds exactly session 1's
/// third-and-later frames — session 2 is untouched (the quota is per
/// session, not global).
#[test]
fn session_quota_sheds_only_the_over_quota_session() {
    let srv = loopback_net_server_with(
        bfs(),
        1 << 12,
        server_config(BackendKind::IaHash, 1),
        net_config(0, 2),
    );
    let mut c = RawClient::connect(srv.local_addr(), Some(2));

    let mut frames = Vec::new();
    for i in 0..6u64 {
        frames.push(update_frame(10 + i, 1, i, i + 1));
    }
    frames.push(update_frame(20, 2, 100, 101));
    frames.push(update_frame(21, 2, 101, 102));
    c.send_batch(&frames);

    let responses = c.read_responses(frames.len());
    let (mut applied, shed) = split_outcomes(&responses, BusyCause::SessionQuota);
    applied.sort_unstable();
    assert_eq!(
        applied,
        vec![10, 11, 20, 21],
        "session 1 admits its quota of 2, session 2 is unaffected"
    );
    assert_eq!(shed, vec![12, 13, 14, 15]);
    assert_eq!(
        srv.server()
            .metrics()
            .counter("net.admission.shed_quota")
            .load(Ordering::Relaxed),
        4
    );
}

/// A shed request costs nothing but the reject frame: seven updates on
/// seven *distinct, never-before-seen* sessions shed over an exhausted
/// global budget must leave the worker's session gauge at exactly the
/// one admitted session — no `Session` allocation, no epoch-loop touch
/// (the epoch counter only advances for the admitted update).
#[test]
fn shed_requests_allocate_no_session() {
    let srv = loopback_net_server_with(
        bfs(),
        1 << 12,
        server_config(BackendKind::IaHash, 1),
        net_config(1, 0),
    );
    let registry = Arc::clone(srv.server().metrics());
    let mut c = RawClient::connect(srv.local_addr(), Some(2));

    let mut frames = vec![update_frame(10, 1, 0, 1)];
    for i in 0..7u64 {
        // Each shed frame names a fresh session id; admission must
        // refuse it *before* any per-session state exists.
        frames.push(update_frame(20 + i, 2 + i, 50 + i, 51 + i));
    }
    c.send_batch(&frames);
    let responses = c.read_responses(frames.len());
    let (applied, shed) = split_outcomes(&responses, BusyCause::InflightBudget);
    assert_eq!(applied, vec![10]);
    assert_eq!(shed.len(), 7);

    assert_eq!(
        registry
            .counter("net.admission.admitted")
            .load(Ordering::Relaxed),
        1
    );
    let sessions = registry.gauge("net.worker.0.sessions");
    assert!(
        eventually(5, || sessions.load(Ordering::Relaxed) == 1),
        "shed requests must not allocate sessions (gauge {})",
        sessions.load(Ordering::Relaxed)
    );
}

/// The [`NetClient`] surface turns a shed into [`Error::Busy`] (the
/// only retryable error), and the admitted subset — whatever the
/// squeeze let through — is differentially equal to an in-process
/// server fed exactly that subset: same version sequence, same final
/// store fingerprint.
#[test]
fn admitted_subset_is_differentially_equal_to_in_process() {
    const N: u64 = 512;
    let capacity = 1 << 12;
    let srv = loopback_net_server_with(
        wcc(),
        capacity,
        server_config(BackendKind::IaHash, 1),
        net_config(1, 0),
    );
    let client = NetClient::connect(srv.local_addr()).unwrap();
    let session = client.open_session().unwrap();

    let updates: Vec<Update> = (0..N)
        .map(|i| Update::InsEdge(Edge::new(i % 64, 64 + (i * 7) % 512, 1 + i % 4)))
        .collect();
    let ids: Vec<u64> = updates
        .iter()
        .map(|u| session.submit_update_pipelined(u).unwrap())
        .collect();

    let mut admitted = Vec::new();
    let mut net_versions = Vec::new();
    let mut shed = 0u64;
    for (id, update) in ids.iter().zip(&updates) {
        let reply = session.wait_reply(*id).unwrap();
        match reply.outcome {
            Ok(_) => {
                admitted.push(*update);
                net_versions.push(reply.version);
            }
            Err(e) => {
                assert!(e.is_busy(), "a shed must surface as Busy, got: {e}");
                shed += 1;
            }
        }
    }
    assert!(
        shed > 0,
        "pipelining {N} updates through a budget of 1 must shed some"
    );
    assert_eq!(admitted.len() as u64 + shed, N);

    // Replay exactly the admitted subset in-process: version-for-version
    // identical (shed requests never reached the epoch loop, so they
    // burned nothing), and the stores fingerprint-match.
    let in_proc = Server::start(wcc(), capacity, server_config(BackendKind::IaHash, 1)).unwrap();
    let s = in_proc.session();
    let in_versions: Vec<u64> = admitted
        .iter()
        .map(|u| {
            let r = s.submit_update(u);
            r.outcome.as_ref().unwrap();
            r.version
        })
        .collect();
    drop(s);
    assert_eq!(net_versions, in_versions, "admitted subset version drift");
    assert_eq!(
        store_fingerprint(srv.server().engine(), capacity as u64),
        store_fingerprint(in_proc.engine(), capacity as u64),
        "admitted subset store drift"
    );
    in_proc.shutdown();
}

/// A peer that stops reading its replies is evicted on the
/// `send_timeout` clock — torn down *and counted* — and the teardown
/// carries the same best-effort req-id-0 connection-level error the
/// malformed-frame path uses, so a reader that comes back learns *why*
/// instead of seeing a bare reset.
#[test]
fn stalled_reader_is_evicted_with_a_counted_connection_level_notice() {
    const CHAIN: u64 = 20_000;
    let mut net = net_config(0, 0);
    net.send_timeout = Duration::from_millis(300);
    let srv = loopback_net_server_with(bfs(), 1 << 16, server_config(BackendKind::IaHash, 1), net);
    let registry = Arc::clone(srv.server().metrics());
    let mut c = RawClient::connect(srv.local_addr(), Some(2));

    // One large transaction so a single version's modification set is
    // ~CHAIN vertices (~160 KB per GetModified reply).
    let txn: Vec<Update> = (0..CHAIN)
        .map(|i| Update::InsEdge(Edge::new(i, i + 1, 1)))
        .collect();
    c.send_batch(&[Request::Txn(txn).encode_in_session(5, 1)]);
    let (_, resp) = c.read_response();
    let version = match resp {
        Response::Applied { version, .. } => version,
        other => panic!("txn failed: {other:?}"),
    };

    // Queue ~10 MB of replies and stop reading: far beyond what the
    // loopback socket buffers can absorb, so the server's write buffer
    // stays non-empty and the send clock runs out.
    let queries: Vec<Vec<u8>> = (0..64u64)
        .map(|i| Request::GetModified { algo: 0, version }.encode_in_session(10 + i, 1))
        .collect();
    c.send_batch(&queries);
    let evicted = registry.counter("net.admission.evicted");
    assert!(
        eventually(30, || evicted.load(Ordering::Relaxed) >= 1),
        "a stalled reader must be evicted on the send_timeout clock"
    );

    // Resume reading: the backlog flushes first (appending the notice
    // never clears the write buffer — the write position may sit
    // mid-frame), then the req-id-0 notice, then EOF.
    let mut notice = None;
    // A read error means teardown mid-frame: the stream is over.
    while let Ok(Some(frame)) = read_frame(&mut (&c.stream), MAX_RESPONSE_FRAME) {
        let (req_id, resp) = Response::decode(&frame).unwrap();
        if req_id == 0 {
            notice = Some(resp);
        }
    }
    match notice {
        Some(Response::Failed { error, .. }) => {
            let e = error.to_error();
            assert!(e.is_busy(), "the notice must be Busy-coded, got: {e}");
            assert!(
                e.to_string().contains("evicted"),
                "the notice must name the eviction: {e}"
            );
        }
        other => panic!("expected a req-id-0 eviction notice, got {other:?}"),
    }
    assert!(
        eventually(5, || srv.live_connections() == 0),
        "the evicted connection must leave the registry"
    );
}

/// The [`NetClient`] end of the same eviction: all in-flight waiters on
/// the torn-down connection die with a reason that names the eviction
/// (the req-id-0 notice becomes the connection's death reason) rather
/// than a bare `connection reset`.
#[test]
fn evicted_connection_names_the_eviction_in_waiter_errors() {
    const CHAIN: u64 = 20_000;
    let mut net = net_config(0, 0);
    net.send_timeout = Duration::from_millis(300);
    let srv = loopback_net_server_with(bfs(), 1 << 16, server_config(BackendKind::IaHash, 1), net);
    let mut c = RawClient::connect(srv.local_addr(), Some(2));
    let txn: Vec<Update> = (0..CHAIN)
        .map(|i| Update::InsEdge(Edge::new(i, i + 1, 1)))
        .collect();
    c.send_batch(&[Request::Txn(txn).encode_in_session(5, 1)]);
    let (_, resp) = c.read_response();
    let version = match resp {
        Response::Applied { version, .. } => version,
        other => panic!("txn failed: {other:?}"),
    };
    let queries: Vec<Vec<u8>> = (0..64u64)
        .map(|i| Request::GetModified { algo: 0, version }.encode_in_session(10 + i, 1))
        .collect();
    c.send_batch(&queries);
    // Never read; wait for the hard teardown (eviction + grace), then
    // confirm the server freed the slot.
    let evicted = srv
        .server()
        .metrics()
        .counter("net.admission.evicted")
        .load(Ordering::Relaxed);
    assert!(
        eventually(30, || srv
            .server()
            .metrics()
            .counter("net.admission.evicted")
            .load(Ordering::Relaxed)
            > evicted
            || srv.live_connections() == 0),
        "stalled connection never evicted"
    );
    assert!(
        eventually(30, || srv.live_connections() == 0),
        "evicted connection still registered"
    );
    // The server stays fully serviceable for well-behaved clients.
    let healthy = NetClient::connect(srv.local_addr()).unwrap();
    healthy
        .ins_edge(Edge::new(1, 2, 1))
        .unwrap()
        .outcome
        .unwrap();
}

/// The high-water gate stays out of the way of a healthy server: under
/// a generous mark, connects and Hellos all land (the overload shed is
/// reserved for genuine backlog, which the step-load bench exercises),
/// and the gate being *disabled* (0) never misreads as "always over".
#[test]
fn high_water_gate_admits_everything_on_an_idle_server() {
    for high_water in [0usize, 4096] {
        let srv = loopback_net_server_with(
            bfs(),
            1 << 12,
            server_config(BackendKind::IaHash, 1),
            NetConfig {
                net_workers: 1,
                inflight_budget: 0,
                session_quota: 0,
                accept_high_water: high_water,
                ..NetConfig::default()
            },
        );
        for _ in 0..4 {
            let c = NetClient::connect(srv.local_addr()).unwrap();
            assert_eq!(c.protocol_version(), 2);
            c.ins_edge(Edge::new(0, 1, 1)).unwrap().outcome.unwrap();
        }
        assert_eq!(
            srv.server()
                .metrics()
                .counter("net.admission.shed_overload")
                .load(Ordering::Relaxed),
            0,
            "an idle server (high water {high_water}) must never shed a Hello"
        );
        srv.shutdown();
    }
}
