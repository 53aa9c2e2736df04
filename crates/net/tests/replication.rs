//! Socket-level replication tests: subscribe admission (follower
//! limit, disabled feed), follower catch-up + live tail over a real
//! leader, heartbeat lag reporting, and the replica's read-only query
//! listener.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use risgraph_algorithms::Bfs;
use risgraph_common::ids::{Edge, Update};
use risgraph_common::metrics::MetricValue;
use risgraph_common::protocol::{read_frame, write_frame, Request, Response, MAX_RESPONSE_FRAME};
use risgraph_core::engine::DynAlgorithm;
use risgraph_core::server::ServerConfig;
use risgraph_net::{FollowerConfig, NetClient, NetConfig, NetServer, ReplicaServer};

fn bfs() -> Vec<DynAlgorithm> {
    vec![Arc::new(Bfs::new(0)) as DynAlgorithm]
}

fn leader_config(max_followers: usize) -> ServerConfig {
    let mut config = ServerConfig::default();
    config.engine.threads = 1;
    config.shards = 1;
    config.max_followers = max_followers;
    config
}

fn fast_net() -> NetConfig {
    NetConfig {
        heartbeat_interval: Duration::from_millis(20),
        ..NetConfig::default()
    }
}

/// Wait until the replica's applied version reaches the leader's (and
/// its lag reads 0), panicking after `secs`.
fn await_catch_up(replica: &ReplicaServer, leader_version: u64, secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while replica.replica().current_version() < leader_version || replica.lag() > 0 {
        assert!(
            Instant::now() < deadline,
            "replica stuck at version {} (lag {}), leader at {leader_version}",
            replica.replica().current_version(),
            replica.lag()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn follower_catches_up_and_tails_live_updates() {
    let net = NetServer::start(bfs(), 64, leader_config(1), fast_net()).unwrap();
    let client = NetClient::connect(net.local_addr()).unwrap();
    // Phase 1: history the follower must catch up on.
    for i in 0..8u64 {
        client
            .ins_edge(Edge::new(i, i + 1, 0))
            .unwrap()
            .outcome
            .unwrap();
    }
    let replica = ReplicaServer::start(
        bfs(),
        64,
        leader_config(0),
        FollowerConfig::to_leader(net.local_addr().to_string()),
    )
    .unwrap();
    let mid = net.server().current_version();
    await_catch_up(&replica, mid, 10);
    // Phase 2: live tail, including deletes and a transaction.
    for i in 0..4u64 {
        client
            .del_edge(Edge::new(i, i + 1, 0))
            .unwrap()
            .outcome
            .unwrap();
    }
    client
        .txn_updates(vec![
            Update::InsEdge(Edge::new(20, 21, 0)),
            Update::InsEdge(Edge::new(21, 22, 0)),
        ])
        .unwrap()
        .outcome
        .unwrap();
    let final_version = net.server().current_version();
    await_catch_up(&replica, final_version, 10);

    // The replica answers the read-only surface at the watermark,
    // matching the leader's own sessions version-for-version.
    let session = net.server().session();
    assert_eq!(replica.replica().current_version(), final_version);
    for v in 0..24u64 {
        assert_eq!(
            replica.replica().get_value(0, final_version, v).unwrap(),
            session.get_value(0, final_version, v).unwrap(),
            "value of {v}"
        );
    }
    let stats = replica.stats();
    assert_eq!(
        stats
            .stream_errors
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
    assert!(stats.heartbeats.load(std::sync::atomic::Ordering::Relaxed) > 0);
    drop(session);
    drop(client);
    replica.shutdown();
    net.shutdown();
}

/// Raw-socket subscribe: returns the first response frame.
fn raw_subscribe(addr: std::net::SocketAddr, from: u64) -> Response {
    let stream = TcpStream::connect(addr).unwrap();
    let mut w = &stream;
    write_frame(&mut w, &Request::Subscribe { from }.encode(1)).unwrap();
    let mut r = BufReader::new(&stream);
    let payload = read_frame(&mut r, MAX_RESPONSE_FRAME).unwrap().unwrap();
    let (id, resp) = Response::decode(&payload).unwrap();
    assert_eq!(id, 1, "subscribe id echoed");
    resp
}

#[test]
fn subscribe_is_refused_when_replication_is_disabled() {
    let net = NetServer::start(bfs(), 16, leader_config(0), fast_net()).unwrap();
    match raw_subscribe(net.local_addr(), 0) {
        Response::Failed { error, .. } => {
            let msg = error.to_error().to_string();
            assert!(msg.contains("replication disabled"), "{msg}");
        }
        other => panic!("expected refusal, got {other:?}"),
    }
    net.shutdown();
}

#[test]
fn follower_limit_rejects_excess_subscribers_and_frees_on_disconnect() {
    let net = NetServer::start(bfs(), 16, leader_config(1), fast_net()).unwrap();
    // First subscriber takes the only slot (its ack is a heartbeat).
    let first = TcpStream::connect(net.local_addr()).unwrap();
    let mut w = &first;
    write_frame(&mut w, &Request::Subscribe { from: 0 }.encode(1)).unwrap();
    let mut r = BufReader::new(&first);
    let payload = read_frame(&mut r, MAX_RESPONSE_FRAME).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap().1,
        Response::Heartbeat { .. }
    ));
    // Second subscriber is over the limit.
    match raw_subscribe(net.local_addr(), 0) {
        Response::Failed { error, .. } => {
            let msg = error.to_error().to_string();
            assert!(msg.contains("follower limit"), "{msg}");
        }
        other => panic!("expected limit rejection, got {other:?}"),
    }
    // An offset beyond the feed is refused too.
    match raw_subscribe(net.local_addr(), 999) {
        Response::Failed { error, .. } => {
            let msg = error.to_error().to_string();
            assert!(msg.contains("beyond the feed"), "{msg}");
        }
        other => panic!("expected offset rejection, got {other:?}"),
    }
    // Dropping the first follower frees the slot.
    drop(r);
    first.shutdown(std::net::Shutdown::Both).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match raw_subscribe(net.local_addr(), 0) {
            Response::Heartbeat { .. } => break,
            Response::Failed { .. } if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("slot never freed: {other:?}"),
        }
    }
    net.shutdown();
}

#[test]
fn replica_listener_serves_reads_and_refuses_writes() {
    let net = NetServer::start(bfs(), 32, leader_config(1), fast_net()).unwrap();
    let client = NetClient::connect(net.local_addr()).unwrap();
    let mut last = 0;
    for i in 0..5u64 {
        last = client.ins_edge(Edge::new(i, i + 1, 0)).unwrap().version;
    }
    let replica = ReplicaServer::start(
        bfs(),
        32,
        leader_config(0),
        FollowerConfig {
            listen: Some("127.0.0.1:0".into()),
            ..FollowerConfig::to_leader(net.local_addr().to_string())
        },
    )
    .unwrap();
    await_catch_up(&replica, last, 10);

    // The read-only surface speaks the same wire protocol, so a plain
    // NetClient works against the replica.
    let ro = NetClient::connect(replica.local_addr().unwrap()).unwrap();
    assert_eq!(ro.current_version().unwrap(), last);
    for v in 0..6u64 {
        assert_eq!(ro.get_value(0, last, v).unwrap(), v, "BFS distance of {v}");
        assert_eq!(
            ro.get_parent(0, last, v).unwrap(),
            if v == 0 {
                None
            } else {
                Some(Edge::new(v - 1, v, 0))
            }
        );
    }
    let mods = ro.get_modified_vertices(0, last).unwrap();
    assert_eq!(mods, vec![5], "version {last} modified vertex 5");
    let snap = ro.metrics().unwrap();
    let metric = |name: &str| {
        snap.iter()
            .find_map(|(n, v)| match *v {
                MetricValue::Counter(x) | MetricValue::Gauge(x) if n == name => Some(x),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    assert_eq!(metric("replica.version"), last);
    assert_eq!(metric("replica.lag"), 0);
    assert!(metric("replica.records_applied") > 0);
    // Mutations are refused without disturbing the connection.
    match ro.ins_edge(Edge::new(9, 9, 9)).unwrap().outcome {
        Err(e) => assert!(e.to_string().contains("read-only replica"), "{e}"),
        Ok(_) => panic!("replica accepted a write"),
    }
    assert_eq!(ro.current_version().unwrap(), last, "connection still live");
    // So are a history release and a chained subscription: both need
    // the leader.
    let e = ro.release_history(last).unwrap_err();
    assert!(e.to_string().contains("read-only replica"), "{e}");
    assert_eq!(ro.current_version().unwrap(), last, "connection still live");
    let id = ro.send(&Request::Subscribe { from: 0 }).unwrap();
    match ro.wait(id).unwrap() {
        Response::Failed { error, .. } => {
            let msg = error.to_error().to_string();
            assert!(msg.contains("read-only replica"), "{msg}");
        }
        other => panic!("replica accepted a subscription: {other:?}"),
    }
    assert_eq!(ro.current_version().unwrap(), last, "connection still live");
    drop(ro);
    drop(client);
    replica.shutdown();
    net.shutdown();
}
