//! Session multiplexing over one connection: the `Hello` exchange (one
//! protocol version, whatever the client announces), per-session
//! ordering with cross-session independence, the session cap, wrapped
//! frames served without a `Hello`, and the connection-count
//! regression (gauges shrink with no new connects) on both the leader
//! and the replica listener — the same reactor in both roles.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use risgraph_algorithms::Bfs;
use risgraph_common::ids::{Edge, Update};
use risgraph_common::protocol::{
    read_frame, write_frame, Request, Response, MAX_RESPONSE_FRAME, PROTOCOL_VERSION,
};
use risgraph_core::engine::DynAlgorithm;
use risgraph_core::server::ServerConfig;
use risgraph_net::{FollowerConfig, NetClient, NetConfig, NetServer, ReplicaServer};

fn bfs() -> Vec<DynAlgorithm> {
    vec![Arc::new(Bfs::new(0)) as DynAlgorithm]
}

fn config() -> ServerConfig {
    let mut config = ServerConfig::default();
    config.engine.threads = 1;
    config.shards = 1;
    config
}

fn start(capacity: usize, net: NetConfig) -> NetServer {
    NetServer::start(bfs(), capacity, config(), net).unwrap()
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

/// Send one request frame on a raw socket and read one response.
fn raw_call(stream: &TcpStream, req_id: u64, req: &Request) -> (u64, Response) {
    write_frame(&mut &*stream, &req.encode(req_id)).unwrap();
    let payload = read_frame(&mut &*stream, MAX_RESPONSE_FRAME)
        .unwrap()
        .expect("response frame");
    Response::decode(&payload).unwrap()
}

fn raw_connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

#[test]
fn connect_negotiates_v2_and_excess_versions_clamp() {
    let srv = start(16, NetConfig::default());
    let c = NetClient::connect(srv.local_addr()).unwrap();
    assert_eq!(c.protocol_version(), PROTOCOL_VERSION);

    // Whatever version a Hello announces, older or newer, the answer is
    // the one version the server speaks.
    for (req_id, version) in [(1, 1), (2, 99)] {
        let raw = raw_connect(srv.local_addr());
        let (id, resp) = raw_call(&raw, req_id, &Request::Hello { version });
        assert_eq!(id, req_id);
        assert!(
            matches!(resp, Response::Hello { version: v } if v == PROTOCOL_VERSION),
            "Hello {{ version: {version} }} answered {resp:?}"
        );
        // ... and the connection serves requests after it.
        let (_, resp) = raw_call(&raw, 10, &Request::CurrentVersion);
        assert!(matches!(resp, Response::Version(_)), "{resp:?}");
    }
}

#[test]
fn interleaved_sessions_keep_per_session_order() {
    let srv = start(256, NetConfig::default());
    let c = NetClient::connect(srv.local_addr()).unwrap();
    let a = c.open_session().unwrap();
    let b = c.open_session().unwrap();
    assert_ne!(a.id(), b.id());

    // Interleave pipelined updates: sessions alternate on the wire.
    // Session A grows a chain from 0, session B from 100.
    let mut ids_a = Vec::new();
    let mut ids_b = Vec::new();
    for i in 0..32u64 {
        ids_a.push(
            a.submit_update_pipelined(&Update::InsEdge(Edge::new(i, i + 1, 0)))
                .unwrap(),
        );
        ids_b.push(
            b.submit_update_pipelined(&Update::InsEdge(Edge::new(100 + i, 101 + i, 0)))
                .unwrap(),
        );
    }
    // Collect B before A: replies are demuxed by request id, so
    // cross-session completion order never blocks a waiter.
    let versions_b: Vec<u64> = ids_b
        .iter()
        .map(|id| {
            let r = b.wait_reply(*id).unwrap();
            r.outcome.unwrap();
            r.version
        })
        .collect();
    let versions_a: Vec<u64> = ids_a
        .iter()
        .map(|id| {
            let r = a.wait_reply(*id).unwrap();
            r.outcome.unwrap();
            r.version
        })
        .collect();
    // Per-session program order: each session's versions are strictly
    // increasing in submission order.
    for vs in [&versions_a, &versions_b] {
        for w in vs.windows(2) {
            assert!(w[0] < w[1], "session replies out of program order: {vs:?}");
        }
    }
    // Both chains fully applied: BFS depths at the chain tails.
    let tip = c.current_version().unwrap();
    assert_eq!(a.get_value(0, tip, 32).unwrap(), 32);
    assert_eq!(
        b.get_value(0, tip, 132).unwrap(),
        u64::MAX,
        "disconnected from root"
    );
    assert_eq!(
        b.get_modified_vertices(0, versions_b[0]).unwrap(),
        Vec::<u64>::new()
    );
}

#[test]
fn queries_and_txns_work_per_session() {
    let srv = start(64, NetConfig::default());
    srv.server().load_edges(&[(0, 1, 0)]);
    let c = NetClient::connect(srv.local_addr()).unwrap();
    let s = c.open_session().unwrap();

    let r = s
        .txn_updates(vec![
            Update::InsEdge(Edge::new(1, 2, 0)),
            Update::InsEdge(Edge::new(2, 3, 0)),
        ])
        .unwrap();
    r.outcome.as_ref().unwrap();
    assert_eq!(s.get_value(0, r.version, 3).unwrap(), 3);
    assert_eq!(
        s.get_parent(0, r.version, 3).unwrap(),
        Some(Edge::new(2, 3, 0))
    );
    let mut modified = s.get_modified_vertices(0, r.version).unwrap();
    modified.sort_unstable();
    assert_eq!(modified, vec![2, 3]);
    s.release_history(r.version).unwrap();
}

#[test]
fn session_cap_fails_request_but_keeps_connection() {
    let net = NetConfig {
        max_sessions_per_conn: 2,
        ..NetConfig::default()
    };
    let srv = start(16, net);
    let c = NetClient::connect(srv.local_addr()).unwrap();
    let s1 = c.open_session().unwrap();
    let s2 = c.open_session().unwrap();
    let s3 = c.open_session().unwrap();
    s1.submit_update(&Update::InsEdge(Edge::new(0, 1, 0)))
        .unwrap()
        .outcome
        .unwrap();
    s2.submit_update(&Update::InsEdge(Edge::new(1, 2, 0)))
        .unwrap()
        .outcome
        .unwrap();
    // The third session is over the cap: its request fails...
    let err = s3
        .submit_update(&Update::InsEdge(Edge::new(2, 3, 0)))
        .unwrap()
        .outcome
        .unwrap_err()
        .to_string();
    assert!(err.contains("session limit"), "unexpected error: {err}");
    // ... but the connection and its existing sessions stay healthy.
    s1.submit_update(&Update::InsEdge(Edge::new(2, 3, 0)))
        .unwrap()
        .outcome
        .unwrap();
    assert_eq!(c.current_version().unwrap(), srv.server().current_version());
}

#[test]
fn wrapped_frame_without_hello_is_answered() {
    let srv = start(16, NetConfig::default());
    // A client that never sent Hello emits session wrappers: they are
    // served like any other request, and the connection stays up.
    let raw = raw_connect(srv.local_addr());
    let wrapped = |req: Request| Request::InSession {
        sid: 7,
        req: Box::new(req),
    };
    let (id, resp) = raw_call(
        &raw,
        1,
        &wrapped(Request::Update(Update::InsEdge(Edge::new(0, 1, 0)))),
    );
    assert_eq!(id, 1);
    let Response::Applied { version, .. } = resp else {
        panic!("wrapped update without Hello: {resp:?}");
    };
    let (id, resp) = raw_call(
        &raw,
        2,
        &wrapped(Request::GetValue {
            algo: 0,
            version,
            vertex: 1,
        }),
    );
    assert_eq!(id, 2);
    assert!(matches!(resp, Response::Value(1)), "{resp:?}");
    let (_, resp) = raw_call(&raw, 3, &Request::CurrentVersion);
    assert!(
        matches!(resp, Response::Version(v) if v == version),
        "{resp:?}"
    );
    assert_eq!(srv.live_connections(), 1, "the connection stays up");
}

#[test]
fn subscribe_refused_inside_a_session_without_closing() {
    let mut cfg = config();
    cfg.max_followers = 1;
    let srv = NetServer::start(bfs(), 16, cfg, NetConfig::default()).unwrap();
    let c = NetClient::connect(srv.local_addr()).unwrap();
    let s = c.open_session().unwrap();
    let id = c
        .send(&Request::InSession {
            sid: s.id(),
            req: Box::new(Request::Subscribe { from: 0 }),
        })
        .unwrap();
    let resp = c.wait(id).unwrap();
    let shown = format!("{resp:?}");
    assert!(shown.contains("Failed"), "expected refusal, got {shown}");
    // The connection survives the refusal.
    s.submit_update(&Update::InsEdge(Edge::new(0, 1, 0)))
        .unwrap()
        .outcome
        .unwrap();
}

/// The registry-leak regression (reactor side): closed connections
/// leave the gauge without any new accept arriving.
#[test]
fn connection_gauge_shrinks_without_new_connects() {
    let srv = start(16, NetConfig::default());
    let clients: Vec<NetClient> = (0..3)
        .map(|_| NetClient::connect(srv.local_addr()).unwrap())
        .collect();
    for c in &clients {
        c.current_version().unwrap();
    }
    assert!(
        eventually(5, || srv.live_connections() == 3),
        "expected 3 live connections, saw {}",
        srv.live_connections()
    );
    drop(clients);
    assert!(
        eventually(5, || srv.live_connections() == 0),
        "connection gauge stuck at {} after all clients dropped",
        srv.live_connections()
    );
}

/// The registry-leak regression (replica side): the replica's listener
/// is the leader's reactor, so it speaks the one protocol version,
/// serves session-wrapped reads exactly like unwrapped ones, and drops
/// closed connections from its count with no new connect needed.
#[test]
fn replica_speaks_sessions_and_prunes_idle_connections() {
    let mut leader_cfg = config();
    leader_cfg.max_followers = 1;
    let leader = NetServer::start(bfs(), 64, leader_cfg, NetConfig::default()).unwrap();
    let lc = NetClient::connect(leader.local_addr()).unwrap();
    lc.ins_edge(Edge::new(0, 1, 0)).unwrap().outcome.unwrap();
    let last = lc.ins_edge(Edge::new(1, 2, 0)).unwrap().version;

    let replica = ReplicaServer::start(
        bfs(),
        64,
        config(),
        FollowerConfig {
            listen: Some("127.0.0.1:0".into()),
            ..FollowerConfig::to_leader(leader.local_addr().to_string())
        },
    )
    .unwrap();
    let addr = replica.local_addr().unwrap();
    assert!(
        eventually(10, || replica.replica().current_version() == last),
        "replica never caught up to version {last}"
    );

    let rc = NetClient::connect(addr).unwrap();
    assert_eq!(rc.protocol_version(), PROTOCOL_VERSION);
    let s = rc.open_session().unwrap();
    // Reads wrapped in a session equal unwrapped reads.
    for v in 0..4u64 {
        assert_eq!(
            s.get_value(0, last, v).unwrap(),
            rc.get_value(0, last, v).unwrap()
        );
        assert_eq!(
            s.get_parent(0, last, v).unwrap(),
            rc.get_parent(0, last, v).unwrap()
        );
    }
    assert_eq!(s.get_value(0, last, 2).unwrap(), 2);
    assert_eq!(
        s.get_modified_vertices(0, last).unwrap(),
        rc.get_modified_vertices(0, last).unwrap()
    );

    // Closed connections leave the count with no further accepts.
    let extra: Vec<NetClient> = (0..2).map(|_| NetClient::connect(addr).unwrap()).collect();
    for c in &extra {
        c.current_version().unwrap();
    }
    assert!(eventually(5, || replica.live_query_connections() == 3));
    drop(extra);
    drop(rc);
    assert!(
        eventually(5, || replica.live_query_connections() == 0),
        "replica connection count stuck at {}",
        replica.live_query_connections()
    );

    replica.shutdown();
    leader.shutdown();
}
