//! Connection-scale soak (ignored by default; CI's slow job runs it
//! with an `ulimit -n` bump): thousands of concurrent sockets against
//! the reactor, proving the thread count stays O(net_workers) — not
//! O(connections) — while every connection stays live and served, and
//! that the connection gauge drains to zero once they close.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use risgraph_algorithms::Bfs;
use risgraph_common::protocol::{write_frame, Request, Response, FRAME_HEADER};
use risgraph_core::engine::DynAlgorithm;
use risgraph_core::server::ServerConfig;
use risgraph_net::{NetConfig, NetServer};

/// `getrlimit`/`setrlimit` via raw FFI (no-new-deps discipline): the
/// soak needs ~2 fds per connection in this one process, far over the
/// usual 1024 default soft limit.
mod rlimit {
    const RLIMIT_NOFILE: i32 = 7;

    #[repr(C)]
    struct Rlimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }

    /// Raise the fd soft limit toward `want` (bounded by the hard
    /// limit) and return the resulting soft limit.
    pub fn raise_nofile(want: u64) -> u64 {
        unsafe {
            let mut lim = Rlimit {
                rlim_cur: 0,
                rlim_max: 0,
            };
            if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
                return 1024;
            }
            let target = want.min(lim.rlim_max);
            if target > lim.rlim_cur {
                let new = Rlimit {
                    rlim_cur: target,
                    rlim_max: lim.rlim_max,
                };
                if setrlimit(RLIMIT_NOFILE, &new) == 0 {
                    return target;
                }
            }
            lim.rlim_cur
        }
    }
}

/// Threads of this process, from /proc/self/status.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

/// A raw client that skips `Hello`: connect and exchange one
/// CurrentVersion call.
fn open_and_probe(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).ok();
    let payload = Request::CurrentVersion.encode(1);
    write_frame(&mut s, &payload).unwrap();
    read_one_response(&mut s);
    s
}

fn read_one_response(s: &mut TcpStream) {
    let mut header = [0u8; FRAME_HEADER];
    s.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    s.read_exact(&mut payload).unwrap();
    let (_, resp) = Response::decode(&payload).unwrap();
    assert!(matches!(resp, Response::Version(_)), "probe got {resp:?}");
}

fn eventually(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

#[test]
#[ignore = "10k-connection soak; run in the slow CI job with an ulimit bump"]
fn ten_thousand_connections_stay_on_a_fixed_thread_pool() {
    // Both ends of every connection live in this process: budget 2 fds
    // per connection plus slack for the server/engine/WAL internals.
    let soft = rlimit::raise_nofile(65536);
    let conns = (10_000usize).min(((soft.saturating_sub(256)) / 2) as usize);
    assert!(
        conns >= 1_000,
        "fd limit {soft} too low for a meaningful soak"
    );

    let mut config = ServerConfig::default();
    config.engine.threads = 1;
    config.shards = 1;
    let srv = NetServer::start(
        vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
        64,
        config,
        NetConfig {
            net_workers: 4,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = srv.local_addr();
    let threads_before = thread_count();

    let mut sockets = Vec::with_capacity(conns);
    for _ in 0..conns {
        sockets.push(open_and_probe(addr));
    }
    assert!(
        eventually(30, || srv.live_connections() == conns),
        "gauge stuck at {} of {conns}",
        srv.live_connections()
    );

    // Every connection was served (the probe above) and is still live.
    // The whole process — engine, WAL, 4 reactor workers, test main —
    // must sit far below O(connections) threads; the old
    // thread-per-connection design would need ~2 threads per socket.
    let threads = thread_count();
    assert!(
        threads < 200,
        "{threads} threads serving {conns} connections (was {threads_before} before)"
    );

    // A random sample still gets answers while all others are open.
    for i in (0..conns).step_by(conns / 100) {
        let s = &mut sockets[i];
        let payload = Request::CurrentVersion.encode(2);
        write_frame(s, &payload).unwrap();
        read_one_response(s);
    }

    // Closing everything drains the gauge with no new accepts.
    drop(sockets);
    assert!(
        eventually(60, || srv.live_connections() == 0),
        "gauge stuck at {} after close",
        srv.live_connections()
    );
    srv.shutdown();
}
