//! The request half of the client's pipelining contract, observed from
//! the server. A pipelined request is written at once unless a delivered
//! reply waits to be collected, nobody is parked in a wait, and the
//! out-buffer is under 64 KiB; otherwise it goes out with the next wait
//! that parks or collects the last ready reply, a later send that is
//! written, `flush()`, or the client's drop. `net.admission.admitted`,
//! read in-process, says when a request reached the server.

use std::sync::atomic::Ordering;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use risgraph_algorithms::Bfs;
use risgraph_common::ids::{Edge, Update};
use risgraph_common::protocol::Request;
use risgraph_core::engine::DynAlgorithm;
use risgraph_core::server::ServerConfig;
use risgraph_net::{NetClient, NetConfig, NetServer};

/// How long an eventual write may take before a test calls it lost.
const PATIENCE: Duration = Duration::from_secs(10);

/// How long a buffered request is watched for not reaching the server.
const QUIET: Duration = Duration::from_millis(50);

fn start() -> NetServer {
    let mut config = ServerConfig::default();
    config.engine.threads = 2;
    NetServer::start(
        vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
        256,
        config,
        // Every request must be admitted, whatever budget the
        // environment sets (see `net_roundtrip.rs`).
        NetConfig {
            inflight_budget: 0,
            session_quota: 0,
            ..NetConfig::default()
        },
    )
    .unwrap()
}

fn admitted(srv: &NetServer) -> u64 {
    srv.server()
        .metrics()
        .counter("net.admission.admitted")
        .load(Ordering::Relaxed)
}

/// Wait until the server has admitted `n` updates in all.
fn admits(srv: &NetServer, n: u64) -> bool {
    let deadline = Instant::now() + PATIENCE;
    while admitted(srv) < n {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Leave one delivered reply uncollected in the client's demux: two
/// queries are answered in order, so collecting the second leaves the
/// first's reply behind. Returns the first's id.
fn hold_a_reply(c: &NetClient) -> u64 {
    let held = c.send(&Request::CurrentVersion).unwrap();
    let probe = c.send(&Request::CurrentVersion).unwrap();
    c.wait(probe).unwrap();
    held
}

/// A chain extension per `i`; every one applies.
fn update(i: u64) -> Update {
    Update::InsEdge(Edge::new(i + 1, i + 2, 0))
}

fn submit(c: &NetClient, range: std::ops::Range<u64>) -> Vec<u64> {
    range
        .map(|i| c.submit_update_pipelined(&update(i)).unwrap())
        .collect()
}

#[test]
fn submits_behind_an_uncollected_reply_go_out_with_its_collection_or_a_flush() {
    let srv = start();
    let c = NetClient::connect(srv.local_addr()).unwrap();

    let held = hold_a_reply(&c);
    let base = admitted(&srv);
    let ids = submit(&c, 0..16);
    std::thread::sleep(QUIET);
    assert_eq!(
        admitted(&srv),
        base,
        "buffered behind the uncollected reply"
    );
    // Collecting the held reply empties the demux, which writes them.
    c.wait(held).unwrap();
    assert!(admits(&srv, base + 16), "the last collection wrote nothing");
    for id in ids {
        assert!(c.wait_reply(id).unwrap().outcome.is_ok());
    }

    let held = hold_a_reply(&c);
    let base = admitted(&srv);
    let ids = submit(&c, 16..32);
    std::thread::sleep(QUIET);
    assert_eq!(
        admitted(&srv),
        base,
        "buffered behind the uncollected reply"
    );
    c.flush().unwrap();
    assert!(admits(&srv, base + 16), "flush() wrote nothing");
    c.wait(held).unwrap();
    for id in ids {
        assert!(c.wait_reply(id).unwrap().outcome.is_ok());
    }
    srv.shutdown();
}

#[test]
fn a_parked_waiter_makes_a_submit_go_out_at_once() {
    let srv = start();
    let c = NetClient::connect(srv.local_addr()).unwrap();
    let _held = hold_a_reply(&c);
    let base = admitted(&srv);
    std::thread::scope(|s| {
        // An id that was never sent: this waiter parks until the
        // connection dies. The pause only gives it time to park; a
        // waiter that parks late writes the submit itself, which can
        // let the test pass without the rule but never fail it. The
        // forced interleaving is `client.rs`'s
        // `a_send_behind_a_parked_waiter_is_written_at_once`.
        let parked = s.spawn(|| c.wait(u64::MAX));
        std::thread::sleep(QUIET);
        let id = c.submit_update_pipelined(&update(0)).unwrap();
        assert!(
            admits(&srv, base + 1),
            "a submit stayed buffered while a waiter was parked"
        );
        assert!(c.wait_reply(id).unwrap().outcome.is_ok());
        srv.shutdown();
        assert!(parked.join().unwrap().is_err());
    });
}

/// perfbench's open-loop shape: one thread submits, another collects,
/// blocking on a channel between replies.
#[test]
fn a_sender_and_a_receiver_thread_share_one_client() {
    const UPDATES: u64 = 20_000;
    let srv = start();
    let c = Arc::new(NetClient::connect(srv.local_addr()).unwrap());
    let (done_tx, done_rx) = channel();
    let sender = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || {
            let (tx, rx) = channel::<u64>();
            let receiver = {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut ok = 0u64;
                    for id in rx {
                        ok += u64::from(c.wait_reply(id).unwrap().outcome.is_ok());
                    }
                    ok
                })
            };
            for i in 0..UPDATES {
                // An insert, then the delete of the same edge.
                let e = Edge::new(1 + (i / 2) % 200, 2 + (i / 2) % 200, 0);
                let u = if i % 2 == 0 {
                    Update::InsEdge(e)
                } else {
                    Update::DelEdge(e)
                };
                tx.send(c.submit_update_pipelined(&u).unwrap()).unwrap();
            }
            drop(tx);
            done_tx.send(receiver.join().unwrap()).unwrap();
        })
    };
    let ok = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("20 000 updates did not complete within 30 s");
    assert_eq!(ok, UPDATES);
    sender.join().unwrap();
    srv.shutdown();
}

#[test]
fn dropping_the_client_writes_what_is_buffered() {
    const UPDATES: u64 = 100;
    let srv = start();
    let c = NetClient::connect(srv.local_addr()).unwrap();
    let _held = hold_a_reply(&c);
    let base = admitted(&srv);
    submit(&c, 0..UPDATES);
    std::thread::sleep(QUIET);
    assert_eq!(
        admitted(&srv),
        base,
        "buffered behind the uncollected reply"
    );
    drop(c);
    assert!(
        admits(&srv, base + UPDATES),
        "drop left buffered requests unwritten"
    );
    srv.shutdown();
}

#[test]
fn requests_still_buffered_when_the_server_drains_fail_instead_of_hanging() {
    let srv = start();
    let c = NetClient::connect(srv.local_addr()).unwrap();
    let _held = hold_a_reply(&c);
    let ids = submit(&c, 0..16);
    // The drain's final read pass cannot see what was never written.
    srv.shutdown();
    let (done_tx, done_rx) = channel();
    let waiter = std::thread::spawn(move || {
        let failed = ids.iter().filter(|&&id| c.wait_reply(id).is_err()).count();
        done_tx.send(failed).unwrap();
    });
    let failed = done_rx
        .recv_timeout(PATIENCE)
        .expect("a wait on a request the server never read hung");
    assert_eq!(failed, 16);
    waiter.join().unwrap();
}
