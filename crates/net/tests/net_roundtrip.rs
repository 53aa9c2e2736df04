//! Loopback smoke tests for the serving tier: the full Table 1 surface
//! over a real socket, pipelining, and connection robustness. The
//! cross-backend differential proof lives in the workspace-level
//! `tests/net_differential.rs`.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use risgraph_algorithms::Bfs;
use risgraph_common::ids::{Edge, Update};
use risgraph_common::metrics::MetricValue;
use risgraph_common::protocol::{write_frame, Request};
use risgraph_core::engine::DynAlgorithm;
use risgraph_core::server::ServerConfig;
use risgraph_net::{NetClient, NetConfig, NetServer};

fn bfs_config() -> ServerConfig {
    let mut config = ServerConfig::default();
    config.engine.threads = 2;
    config
}

fn start_bfs(capacity: usize) -> NetServer {
    NetServer::start(
        vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
        capacity,
        bfs_config(),
        // This suite asserts every pipelined request is admitted, so
        // pin admission off regardless of the environment — the CI
        // `test-admission` job runs the net suite with tiny
        // `RISGRAPH_NET_*` budgets to pressure the shed paths, and
        // deliberate shedding is `tests/admission.rs`' job, not ours.
        NetConfig {
            inflight_budget: 0,
            session_quota: 0,
            ..NetConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn full_api_surface_over_loopback() {
    let srv = start_bfs(32);
    srv.server().load_edges(&[(0, 1, 0)]);
    let c = NetClient::connect(srv.local_addr()).unwrap();

    // Updates and their versions.
    let r1 = c.ins_edge(Edge::new(1, 2, 0)).unwrap();
    let a1 = r1.outcome.unwrap();
    assert!(!a1.safe, "chain extension is unsafe");
    assert_eq!(a1.result_changes, 1);
    assert_eq!(c.get_value(0, r1.version, 2).unwrap(), 2);
    assert_eq!(
        c.get_parent(0, r1.version, 2).unwrap(),
        Some(Edge::new(1, 2, 0))
    );
    assert_eq!(c.get_modified_vertices(0, r1.version).unwrap(), vec![2]);

    // A safe back edge.
    let r2 = c.ins_edge(Edge::new(2, 0, 0)).unwrap();
    assert!(r2.outcome.unwrap().safe);
    assert!(r2.version > r1.version);
    assert_eq!(c.current_version().unwrap(), r2.version);

    // Transactions.
    let r3 = c
        .txn_updates(vec![
            Update::InsEdge(Edge::new(2, 3, 0)),
            Update::InsEdge(Edge::new(3, 4, 0)),
        ])
        .unwrap();
    assert!(r3.outcome.is_ok());
    assert_eq!(c.get_value(0, r3.version, 4).unwrap(), 4);

    // Vertex lifecycle + error passthrough.
    assert!(c.ins_vertex(9).unwrap().outcome.is_ok());
    assert!(c.ins_vertex(9).unwrap().outcome.is_err(), "duplicate");
    assert!(c.del_vertex(9).unwrap().outcome.is_ok());
    let err = c.del_edge(Edge::new(7, 8, 0)).unwrap();
    assert!(matches!(
        err.outcome,
        Err(risgraph_common::Error::EdgeNotFound(_))
    ));

    // History release + the completion-latency histogram.
    c.release_history(r3.version).unwrap();
    let latency = c
        .metrics()
        .unwrap()
        .into_iter()
        .find_map(|(name, value)| match value {
            MetricValue::Histogram(h) if name == "core.update_latency_ns" => Some(h),
            _ => None,
        })
        .expect("core.update_latency_ns");
    assert!(latency.count >= 6, "updates sampled: {latency:?}");
    assert!(latency.p50_ns > 0);
    assert!(latency.p999_ns >= latency.p50_ns);

    srv.shutdown();
}

#[test]
fn pipelined_window_preserves_order_and_tags() {
    let srv = start_bfs(128);
    srv.server().load_edges(&[(0, 1, 0)]);
    let c = NetClient::connect(srv.local_addr()).unwrap();

    // Fill a deep pipeline; per-connection program order must hold so
    // the chain builds deterministically.
    let n = 64u64;
    let ids: Vec<u64> = (0..n)
        .map(|i| {
            c.submit_update_pipelined(&Update::InsEdge(Edge::new(i + 1, i + 2, 0)))
                .unwrap()
        })
        .collect();
    let mut last_version = 0;
    for id in ids {
        let reply = c.wait_reply(id).unwrap();
        assert!(reply.outcome.is_ok());
        assert!(reply.version > last_version, "versions monotone");
        last_version = reply.version;
    }
    assert_eq!(c.get_value(0, last_version, n + 1).unwrap(), n + 1);
    srv.shutdown();
}

#[test]
fn queries_overtake_inflight_updates() {
    let srv = start_bfs(64);
    srv.server().load_edges(&[(0, 1, 0)]);
    let c = NetClient::connect(srv.local_addr()).unwrap();
    let v0 = c.current_version().unwrap();
    // Updates in flight...
    let ids: Vec<u64> = (0..16u64)
        .map(|i| {
            c.submit_update_pipelined(&Update::InsEdge(Edge::new(i + 1, i + 2, 0)))
                .unwrap()
        })
        .collect();
    // ...while a query on an *old* version answers immediately and
    // correctly (out-of-order completion across the pipeline).
    assert_eq!(c.get_value(0, v0, 1).unwrap(), 1);
    for id in ids {
        assert!(c.wait_reply(id).unwrap().outcome.is_ok());
    }
    srv.shutdown();
}

#[test]
fn two_clients_share_one_server() {
    let srv = start_bfs(256);
    srv.server().load_edges(&[(0, 1, 0)]);
    let addr = srv.local_addr();
    let handles: Vec<_> = (0..2u64)
        .map(|t| {
            std::thread::spawn(move || {
                let c = NetClient::connect(addr).unwrap();
                // Disjoint regions per client.
                let base = 100 + t * 50;
                for i in 0..30 {
                    let e = Edge::new(base + i, base + i + 1, 0);
                    assert!(c.ins_edge(e).unwrap().outcome.is_ok());
                }
                for i in 0..30 {
                    let e = Edge::new(base + i, base + i + 1, 0);
                    assert!(c.del_edge(e).unwrap().outcome.is_ok());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(srv.server().engine().num_edges(), 1);
    srv.shutdown();
}

#[test]
fn corrupt_frame_closes_connection_but_not_server() {
    let srv = start_bfs(32);
    let addr = srv.local_addr();

    // Hand-roll a client that sends a frame whose CRC lies.
    let mut raw = TcpStream::connect(addr).unwrap();
    let payload = Request::Update(Update::InsVertex(1)).encode(1);
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).unwrap();
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;
    raw.write_all(&frame).unwrap();
    raw.flush().unwrap();
    // The server answers with a protocol error (req id 0) and closes.
    let mut r = std::io::BufReader::new(raw.try_clone().unwrap());
    let resp = risgraph_common::protocol::read_frame(&mut r, 1 << 20)
        .unwrap()
        .expect("error response before close");
    let (id, resp) = risgraph_common::protocol::Response::decode(&resp).unwrap();
    assert_eq!(id, 0);
    assert!(matches!(
        resp,
        risgraph_common::protocol::Response::Failed { .. }
    ));
    assert!(
        risgraph_common::protocol::read_frame(&mut r, 1 << 20)
            .unwrap()
            .is_none(),
        "connection closed after protocol error"
    );

    // A fresh, well-behaved client is unaffected.
    let c = NetClient::connect(addr).unwrap();
    assert!(c.ins_edge(Edge::new(0, 1, 0)).unwrap().outcome.is_ok());
    srv.shutdown();
}

#[test]
fn oversized_frame_is_rejected() {
    let srv = start_bfs(32);
    let addr = srv.local_addr();
    let mut raw = TcpStream::connect(addr).unwrap();
    // A header claiming a 512 MiB payload: rejected before allocation.
    raw.write_all(&(512u32 << 20).to_le_bytes()).unwrap();
    raw.write_all(&0u32.to_le_bytes()).unwrap();
    raw.flush().unwrap();
    let mut r = std::io::BufReader::new(raw.try_clone().unwrap());
    let resp = risgraph_common::protocol::read_frame(&mut r, 1 << 20)
        .unwrap()
        .expect("error response");
    let (_, resp) = risgraph_common::protocol::Response::decode(&resp).unwrap();
    match resp {
        risgraph_common::protocol::Response::Failed { error, .. } => {
            assert!(error.to_error().to_string().contains("oversized"));
        }
        other => panic!("expected failure, got {other:?}"),
    }
    let c = NetClient::connect(addr).unwrap();
    assert!(c.ins_edge(Edge::new(0, 1, 0)).unwrap().outcome.is_ok());
    srv.shutdown();
}

#[test]
fn hostile_update_vertex_ids_fail_cleanly() {
    let srv = start_bfs(32);
    srv.server().load_edges(&[(0, 1, 0)]);
    let c = NetClient::connect(srv.local_addr()).unwrap();
    // Updates naming absurd vertex ids must be rejected — not drive
    // on-demand capacity growth into a coordinator-killing allocation.
    for u in [
        Update::InsVertex(u64::MAX),
        Update::InsVertex(1 << 60),
        Update::InsEdge(Edge::new(1 << 60, 0, 0)),
        Update::DelEdge(Edge::new(0, u64::MAX, 0)),
    ] {
        let r = c.submit_update(&u).unwrap();
        assert!(
            matches!(r.outcome, Err(risgraph_common::Error::VertexNotFound(_))),
            "{u:?} must be rejected"
        );
    }
    let r = c
        .txn_updates(vec![
            Update::InsEdge(Edge::new(1, 2, 0)),
            Update::InsVertex(1 << 60),
        ])
        .unwrap();
    assert!(r.outcome.is_err(), "over-limit txn rejected");
    // The coordinator survived: the same connection still applies
    // updates and answers queries.
    let r = c.ins_edge(Edge::new(1, 2, 0)).unwrap();
    assert!(r.outcome.is_ok());
    assert_eq!(c.get_value(0, r.version, 2).unwrap(), 2);
    srv.shutdown();
}

#[test]
fn hostile_query_coordinates_fail_cleanly() {
    let srv = start_bfs(32);
    srv.server().load_edges(&[(0, 1, 0)]);
    let c = NetClient::connect(srv.local_addr()).unwrap();
    let v = c.current_version().unwrap();
    // Out-of-range vertex / algorithm probes must come back as wire
    // errors on a live connection — not panic the connection thread.
    assert!(matches!(
        c.get_value(0, v, u64::MAX),
        Err(risgraph_common::Error::VertexNotFound(_))
    ));
    assert!(matches!(
        c.get_parent(7, v, 0),
        Err(risgraph_common::Error::Protocol(_))
    ));
    assert!(matches!(
        c.get_modified_vertices(7, v),
        Err(risgraph_common::Error::Protocol(_))
    ));
    // Same connection still serves real traffic afterwards.
    assert_eq!(c.get_value(0, v, 1).unwrap(), 1);
    assert!(c.ins_edge(Edge::new(1, 2, 0)).unwrap().outcome.is_ok());
    srv.shutdown();
}

#[test]
fn abrupt_disconnect_mid_pipeline_does_not_wedge_the_server() {
    let srv = start_bfs(256);
    srv.server().load_edges(&[(0, 1, 0)]);
    let addr = srv.local_addr();
    {
        let c = NetClient::connect(addr).unwrap();
        // Leave a pile of updates in flight and slam the door.
        for i in 0..100u64 {
            let _ = c.submit_update_pipelined(&Update::InsEdge(Edge::new(i + 1, i + 2, 0)));
        }
        // Drop without waiting: the socket closes with replies pending.
    }
    // Give the server a moment to notice, then prove the epoch loop
    // still serves fresh traffic promptly.
    std::thread::sleep(Duration::from_millis(50));
    let c = NetClient::connect(addr).unwrap();
    for i in 0..20u64 {
        let r = c.ins_edge(Edge::new(200 + i, 201 + i, 0)).unwrap();
        assert!(r.outcome.is_ok());
    }
    srv.shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_replies() {
    let srv = start_bfs(128);
    srv.server().load_edges(&[(0, 1, 0)]);
    let c = NetClient::connect(srv.local_addr()).unwrap();
    let ids: Vec<u64> = (0..50u64)
        .map(|i| {
            c.submit_update_pipelined(&Update::InsEdge(Edge::new(i + 1, i + 2, 0)))
                .unwrap()
        })
        .collect();
    // "Submitted" means written: a pipelined request may wait in the
    // client's out-buffer behind an uncollected reply, and one still
    // there when the drain takes its final read is never served. Write
    // them all before the shutdown starts.
    c.flush().unwrap();
    // Shut down concurrently with the in-flight pipeline: every reply
    // already submitted must still be delivered (drain, not abort).
    let shut = std::thread::spawn(move || srv.shutdown());
    for id in ids {
        let reply = c.wait_reply(id).unwrap();
        assert!(reply.outcome.is_ok(), "drained replies are real replies");
    }
    shut.join().unwrap();
}
