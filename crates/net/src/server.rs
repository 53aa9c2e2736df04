//! [`NetServer`]: the event-driven TCP front end over
//! [`risgraph_core::server::Server`].
//!
//! A fixed pool of reactor workers ([`NetConfig::net_workers`]) owns
//! every connection: each worker runs an epoll loop
//! ([`crate::reactor`]) over its share of the sockets, parsing frames
//! out of per-connection read buffers, submitting updates through the
//! core's tagged session API under a bounded in-flight window, and
//! flushing replies from per-connection write buffers. Reply delivery
//! is push-based: each logical session installs a
//! [`ReplyWaker`](risgraph_core::server::ReplyWaker) that dings the
//! owning worker's eventfd, so no thread ever parks on a reply channel.
//! Total server threads are O(`net_workers`), not O(connections).
//!
//! One TCP connection can multiplex many logical sessions (protocol
//! v2, negotiated via `Hello`): each wire session id maps to its own
//! core [`Session`](risgraph_core::server::Session), which is exactly
//! the granularity the epoch loop orders submissions by — per-session
//! ordering for free, cross-session independence by construction.
//! Replication subscribers (`SUBSCRIBE`) ride the same reactor: the
//! worker pumps the feed into the connection's write buffer on its
//! tick, so followers cost no dedicated threads either.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use risgraph_common::hash::FxHashMap;
use risgraph_common::ids::Update;
use risgraph_common::metrics::{Counter, Gauge, Phase, Registry};
use risgraph_common::protocol::{
    encode_wal_epoch, write_frame, BusyCause, Request, Response, StatsReport, WireError,
    FRAME_HEADER, MAX_FRAME, MAX_RESPONSE_FRAME, PROTOCOL_VERSION,
};
use risgraph_common::{Error, Result};
use risgraph_core::engine::{DynAlgorithm, Safety};
use risgraph_core::server::{Op, Server, ServerConfig, Session as CoreSession};
use risgraph_core::ReplicationFeed;

use crate::reactor::{Event, Interest, Poller, Wakeup};

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok().and_then(|v| v.trim().parse().ok())
}

fn env_millis(key: &str) -> Option<Duration> {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .map(Duration::from_millis)
}

/// Network-tier tuning.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port —
    /// handy for tests; read it back via [`NetServer::local_addr`]).
    pub listen: String,
    /// Maximum accepted frame payload, bytes. Oversized frames are
    /// rejected before allocation and close the connection.
    pub max_frame: usize,
    /// Per-connection in-flight update window (shared across that
    /// connection's sessions). Once this many updates are unanswered
    /// the worker stops reading the socket, so TCP flow control
    /// propagates the backpressure to the client.
    pub window: usize,
    /// Cadence of replication heartbeats on subscribed connections —
    /// both the idle keep-alive and the lag reference (each heartbeat
    /// carries the leader's current version).
    pub heartbeat_interval: Duration,
    /// Reactor worker threads (each runs its own epoll loop over its
    /// share of the connections). Env override: `RISGRAPH_NET_WORKERS`.
    pub net_workers: usize,
    /// A connection whose outbound buffer makes no progress for this
    /// long (peer stopped reading its replies) is torn down. Env
    /// override: `RISGRAPH_NET_SEND_TIMEOUT_MS`.
    pub send_timeout: Duration,
    /// A draining connection still owed replies that receives none for
    /// this long is torn down (a dead coordinator can never answer the
    /// in-flight tail). Env override: `RISGRAPH_NET_REPLY_TIMEOUT_MS`.
    pub reply_timeout: Duration,
    /// Cap on logical sessions one connection may open (protocol v2
    /// multiplexing). Exceeding it fails the offending request; the
    /// connection stays up.
    pub max_sessions_per_conn: usize,
    /// Global admission budget: updates in flight across **all**
    /// connections and workers. Once exhausted, v2 connections get a
    /// [`Response::Busy`] shed (cheap: no session allocation, no epoch-
    /// loop touch) while v1 connections park under TCP backpressure —
    /// byte-compatible with the pre-admission protocol. `0` disables
    /// the budget. Env override: `RISGRAPH_NET_INFLIGHT_BUDGET`.
    pub inflight_budget: usize,
    /// Per logical (v2) session cap on in-flight updates, keyed by the
    /// wire session id. Exceeding it sheds that request with
    /// [`Response::Busy`] without touching the others. `0` disables
    /// the quota. Env override: `RISGRAPH_NET_SESSION_QUOTA`.
    pub session_quota: usize,
    /// High-water mark on a worker's un-adopted inbox plus ready
    /// backlog. While over it, new connections are refused with a
    /// best-effort connection-level error before any state is
    /// allocated, and `Hello` is answered with [`Response::Busy`].
    /// `0` disables the gate. Env override:
    /// `RISGRAPH_NET_ACCEPT_HIGH_WATER`.
    pub accept_high_water: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        let workers = env_usize("RISGRAPH_NET_WORKERS").unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        NetConfig {
            listen: "127.0.0.1:0".into(),
            max_frame: MAX_FRAME,
            window: 256,
            heartbeat_interval: Duration::from_millis(100),
            net_workers: workers.clamp(1, 4),
            send_timeout: env_millis("RISGRAPH_NET_SEND_TIMEOUT_MS")
                .unwrap_or(Duration::from_secs(10)),
            reply_timeout: env_millis("RISGRAPH_NET_REPLY_TIMEOUT_MS")
                .unwrap_or(Duration::from_secs(30)),
            max_sessions_per_conn: 1 << 16,
            inflight_budget: env_usize("RISGRAPH_NET_INFLIGHT_BUDGET").unwrap_or(0),
            session_quota: env_usize("RISGRAPH_NET_SESSION_QUOTA").unwrap_or(0),
            accept_high_water: env_usize("RISGRAPH_NET_ACCEPT_HIGH_WATER").unwrap_or(4096),
        }
    }
}

/// Reserved poller token for a worker's wakeup eventfd.
const TOKEN_WAKEUP: u64 = 0;
/// Reserved poller token for the listener (worker 0 only).
const TOKEN_LISTENER: u64 = 1;
/// First connection token; tokens count up and are never reused, so a
/// stale waker entry for a closed connection can never alias a live one.
const TOKEN_FIRST_CONN: u64 = 2;

/// Soft cap on a connection's outbound buffer. Reaching it stalls
/// query processing and feed pumping (replies for already-submitted
/// updates still land — their count is bounded by the window); the
/// single frame that crosses the cap may exceed it.
const OUT_BUF_SOFT_CAP: usize = MAX_RESPONSE_FRAME;

/// Bytes read from one socket per readiness event before yielding to
/// other connections (level-triggered epoll re-fires if more is
/// pending).
const READ_BURST: usize = 256 * 1024;

/// Updates per [`Response::SnapshotChunk`] frame — at 26 encoded bytes
/// per update a full chunk stays far below the response frame cap.
const SNAPSHOT_CHUNK_UPDATES: usize = 1 << 16;

/// The slice of a worker other threads can see: the acceptor hands
/// off sockets through `inbox`, reply wakers enqueue `(token, sid)`
/// drain requests through `ready`, and `wakeup` pulls the worker out of
/// `epoll_wait` — always for a hand-off or shutdown, for a reply only
/// when the worker is `sleeping`.
struct WorkerShared {
    wakeup: Wakeup,
    inbox: Mutex<Vec<TcpStream>>,
    ready: Mutex<Vec<(u64, u64)>>,
    /// The worker is in `epoll_wait` or committed to entering it. The
    /// worker raises it and *then* looks at `ready` once more; a reply
    /// waker pushes onto `ready` and *then* takes the flag down. Both
    /// sides go through the `ready` mutex in between, so either the
    /// waker finds the flag up and writes the eventfd, or the worker
    /// finds the entry and does not sleep — and a waker that finds the
    /// flag down knows the worker will reach `drain_ready` on its own,
    /// so an awake worker costs the epoch loop no syscall.
    sleeping: AtomicBool,
    /// Eventfd writes reply wakers made (`net.reactor.wakes`) and
    /// skipped because the worker was awake
    /// (`net.reactor.wakes_elided`), summed over the workers.
    wakes: Arc<Counter>,
    wakes_elided: Arc<Counter>,
    conns: AtomicUsize,
}

impl WorkerShared {
    fn new(registry: &Registry) -> Result<WorkerShared> {
        Ok(WorkerShared {
            wakeup: Wakeup::new()?,
            inbox: Mutex::new(Vec::new()),
            ready: Mutex::new(Vec::new()),
            sleeping: AtomicBool::new(false),
            wakes: registry.counter("net.reactor.wakes"),
            wakes_elided: registry.counter("net.reactor.wakes_elided"),
            conns: AtomicUsize::new(0),
        })
    }

    /// The worker's sleep: `epoll_wait` for at most `timeout`, or not
    /// at all when `ready` already holds something.
    fn sleep(&self, poller: &Poller, events: &mut Vec<Event>, mut timeout: Duration) {
        // Announce the sleep, then look at `ready` once more: a reply
        // pushed before the look is drained without sleeping, one
        // pushed after it finds the flag up and writes the eventfd.
        self.sleeping.store(true, Ordering::SeqCst);
        if !self.ready.lock().unwrap().is_empty() {
            self.sleeping.store(false, Ordering::SeqCst);
            timeout = Duration::ZERO;
        }
        #[cfg(test)]
        tests::before_epoll_wait();
        let _ = poller.wait(events, Some(timeout));
        self.sleeping.store(false, Ordering::SeqCst);
    }

    /// The reply waker's tail: `(token, sid)` has replies to drain.
    fn nudge(&self, token: u64, sid: u64) {
        self.ready.lock().unwrap().push((token, sid));
        if self.sleeping.swap(false, Ordering::SeqCst) {
            self.wakeup.wake();
            self.wakes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.wakes_elided.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-worker reactor gauges, registered in the core server's metrics
/// registry as `net.worker.<i>.*` and refreshed on every reactor tick
/// — live occupancy of the event loop, readable over `METRICS` and the
/// Prometheus exposition.
struct WorkerGauges {
    connections: Arc<Gauge>,
    sessions: Arc<Gauge>,
    inbox_depth: Arc<Gauge>,
    ready_backlog: Arc<Gauge>,
}

/// Process-wide admission state, shared by every worker. The global
/// occupancy counter is the single synchronization point between
/// workers; everything else is monitoring (registry counters under
/// `net.admission.*`).
struct Admission {
    /// Updates admitted and not yet answered, across all connections.
    inflight: AtomicUsize,
    admitted: Arc<Counter>,
    shed_budget: Arc<Counter>,
    shed_quota: Arc<Counter>,
    shed_overload: Arc<Counter>,
    evicted: Arc<Counter>,
    occupancy: Arc<Gauge>,
}

impl Admission {
    fn registered(registry: &Registry) -> Admission {
        Admission {
            inflight: AtomicUsize::new(0),
            admitted: registry.counter("net.admission.admitted"),
            shed_budget: registry.counter("net.admission.shed_budget"),
            shed_quota: registry.counter("net.admission.shed_quota"),
            shed_overload: registry.counter("net.admission.shed_overload"),
            evicted: registry.counter("net.admission.evicted"),
            occupancy: registry.gauge("net.admission.inflight"),
        }
    }

    /// Reserve one budget slot. With `budget == 0` (unlimited) the
    /// occupancy is still tracked so the gauge stays meaningful.
    fn try_acquire(&self, budget: usize) -> bool {
        if budget == 0 {
            let v = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
            self.occupancy.store(v as u64, Ordering::Relaxed);
            return true;
        }
        let mut cur = self.inflight.load(Ordering::Acquire);
        loop {
            if cur >= budget {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.occupancy.store(cur as u64 + 1, Ordering::Relaxed);
                    return true;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Return `n` budget slots (replies delivered, or a teardown
    /// abandoning a connection's remaining in-flight share).
    fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let v = self
            .inflight
            .fetch_sub(n, Ordering::AcqRel)
            .saturating_sub(n);
        self.occupancy.store(v as u64, Ordering::Relaxed);
    }
}

/// A TCP serving front end wrapping one [`Server`].
pub struct NetServer {
    server: Option<Arc<Server>>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<Arc<WorkerShared>>,
    threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Start a [`Server`] with `config` and serve it on `net.listen`.
    pub fn start(
        algorithms: Vec<DynAlgorithm>,
        capacity: usize,
        config: ServerConfig,
        net: NetConfig,
    ) -> Result<NetServer> {
        Self::serve(Server::start(algorithms, capacity, config)?, net)
    }

    /// Serve an already-running [`Server`] (e.g. one that replayed a
    /// WAL or bulk-loaded a dataset first).
    pub fn serve(server: Server, net: NetConfig) -> Result<NetServer> {
        let listener = TcpListener::bind(&net.listen)
            .map_err(|e| Error::Protocol(format!("cannot bind {}: {e}", net.listen)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| Error::Protocol(format!("no local addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::Protocol(format!("nonblocking listener: {e}")))?;
        let server = Arc::new(server);
        let shutdown = Arc::new(AtomicBool::new(false));
        let admission = Arc::new(Admission::registered(server.metrics()));

        let num_workers = net.net_workers.max(1);
        let mut workers = Vec::with_capacity(num_workers);
        for _ in 0..num_workers {
            workers.push(Arc::new(WorkerShared::new(server.metrics())?));
        }

        let mut threads = Vec::with_capacity(num_workers);
        let mut listener = Some(listener);
        for (i, shared) in workers.iter().enumerate() {
            let poller = Poller::new()?;
            poller.add(shared.wakeup.fd(), TOKEN_WAKEUP, Interest::READ)?;
            let worker_listener = if i == 0 { listener.take() } else { None };
            if let Some(l) = &worker_listener {
                poller.add(l.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
            }
            let registry = server.metrics();
            let worker = Worker {
                ctx: Ctx {
                    server: Arc::clone(&server),
                    net: net.clone(),
                    shared: Arc::clone(shared),
                    admission: Arc::clone(&admission),
                    poller,
                },
                gauges: WorkerGauges {
                    connections: registry.gauge(&format!("net.worker.{i}.connections")),
                    sessions: registry.gauge(&format!("net.worker.{i}.sessions")),
                    inbox_depth: registry.gauge(&format!("net.worker.{i}.inbox_depth")),
                    ready_backlog: registry.gauge(&format!("net.worker.{i}.ready_backlog")),
                },
                peers: workers.clone(),
                shutdown: Arc::clone(&shutdown),
                conns: FxHashMap::default(),
                next_token: TOKEN_FIRST_CONN,
                listener: worker_listener,
                listener_paused: None,
                rr: 0,
                drain_started: false,
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("risgraph-net-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn net worker"),
            );
        }

        Ok(NetServer {
            server: Some(server),
            local_addr,
            shutdown,
            workers,
            threads,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The wrapped server (stats, engine access, in-process sessions —
    /// the differential suite queries both paths through this).
    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("server live until shutdown")
    }

    /// Connections currently owned by the reactor workers. Closed
    /// connections leave this gauge on their close event — no new
    /// accept is needed to prune them.
    pub fn live_connections(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.conns.load(Ordering::Acquire))
            .sum()
    }

    /// Graceful drain-then-shutdown: stop accepting (after serving the
    /// backlog), give every connection a final read pass, finish its
    /// in-flight updates and flush their replies, then shut the inner
    /// server down — which drains its epochs and flushes WAL and store.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for w in &self.workers {
            w.wakeup.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(server) = self.server.take() {
            match Arc::try_unwrap(server) {
                Ok(server) => server.shutdown(),
                Err(_) => unreachable!("all worker threads joined"),
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}

/// Translate a core [`Reply`](risgraph_core::server::Reply) into a wire
/// [`Response`].
fn reply_to_response(reply: risgraph_core::server::Reply) -> Response {
    match reply.outcome {
        Ok(applied) => Response::Applied {
            version: reply.version,
            safe: applied.safety == Safety::Safe,
            result_changes: applied.result_changes as u64,
        },
        Err(e) => Response::Failed {
            version: reply.version,
            error: WireError::from_error(&e),
        },
    }
}

fn stats_report(server: &Server) -> StatsReport {
    let s = server.stats();
    // One snapshot for every latency field, so the report is internally
    // consistent (p50 ≤ p999, count matches) under concurrent recording.
    let lat = s.update_latency.snapshot();
    let phase = s.unsafe_phase.snapshot();
    StatsReport {
        version: server.current_version(),
        epochs: s.epochs.load(Ordering::Relaxed),
        safe_executed: s.safe_executed.load(Ordering::Relaxed),
        unsafe_executed: s.unsafe_executed.load(Ordering::Relaxed),
        demotions: s.demotions.load(Ordering::Relaxed),
        threshold: s.threshold.load(Ordering::Relaxed),
        latency_count: lat.count(),
        latency_p50_ns: lat.quantile_ns(0.5),
        latency_p99_ns: lat.quantile_ns(0.99),
        latency_p999_ns: lat.quantile_ns(0.999),
        latency_max_ns: if lat.count() == 0 { 0 } else { lat.max_ns() },
        followers: server.feed().map_or(0, |f| f.followers() as u64),
        replication_records: server.feed().map_or(0, |f| f.len()),
        replication_lag: 0, // a leader is its own watermark
        unsafe_parallel_groups: s.unsafe_parallel_groups.load(Ordering::Relaxed),
        unsafe_serial_fallbacks: s.unsafe_serial_fallbacks.load(Ordering::Relaxed),
        unsafe_phase_count: phase.count(),
        unsafe_phase_p50_ns: phase.quantile_ns(0.5),
        unsafe_phase_p99_ns: phase.quantile_ns(0.99),
        unsafe_phase_p999_ns: phase.quantile_ns(0.999),
    }
}

/// Validate a wire-supplied algorithm index before it reaches
/// unchecked `history[algo]`/engine indexing. (Vertex bounds are
/// enforced by [`CoreSession`] itself, and update-path capacity growth
/// by `ServerConfig::max_capacity`.)
fn check_algo(server: &Server, algo: u32) -> std::result::Result<(), Error> {
    if algo as usize >= server.engine().num_algorithms() {
        return Err(Error::Protocol(format!(
            "algorithm index {algo} out of range ({} maintained)",
            server.engine().num_algorithms()
        )));
    }
    Ok(())
}

/// A [`Response::Failed`] for `e` at the server's current version.
fn failed(server: &Server, e: &Error) -> Response {
    Response::Failed {
        version: server.current_version(),
        error: WireError::from_error(e),
    }
}

/// Everything a connection needs from its worker, owned by the worker
/// so connection methods and `conns` map access borrow disjoint fields.
struct Ctx {
    server: Arc<Server>,
    net: NetConfig,
    shared: Arc<WorkerShared>,
    admission: Arc<Admission>,
    poller: Poller,
}

impl Ctx {
    /// Is this worker's choke point over the accept high-water mark?
    /// (un-adopted handoffs plus reply backlog — the two queues that
    /// grow when the worker cannot keep up).
    fn over_high_water(&self) -> bool {
        let hw = self.net.accept_high_water;
        if hw == 0 {
            return false;
        }
        let inbox = self.shared.inbox.lock().unwrap().len();
        if inbox > hw {
            return true;
        }
        inbox + self.shared.ready.lock().unwrap().len() > hw
    }
}

/// One logical session on a connection: its core session plus the
/// waker-dedup flag (`queued` is set by the first reply waker to fire
/// since the last drain, so a burst of replies costs one eventfd
/// write, not one per reply).
struct SessState {
    core: Arc<CoreSession>,
    queued: Arc<AtomicBool>,
    /// Updates submitted on this session and not yet answered — the
    /// occupancy the per-session admission quota is checked against.
    inflight: usize,
}

/// An update parked because the in-flight window is full. Parsing
/// stops while one is parked (and read interest is dropped), so TCP
/// backpressure reaches the client; queries already parsed keep their
/// overtake semantics because they were answered inline before the
/// park.
struct PendingOp {
    req_id: u64,
    sid: u64,
    op: Op,
}

/// An in-progress snapshot bootstrap for a fresh subscriber whose
/// requested offset was evicted: the checkpoint structure ships in
/// bounded chunks as the write buffer drains.
struct SnapshotShip {
    updates: Vec<Update>,
    pos: usize,
    resume_index: u64,
    resume_version: u64,
}

/// A connection flipped into replication streaming by `SUBSCRIBE`.
struct SubState {
    feed: Arc<ReplicationFeed>,
    slot: u64,
    next: u64,
    sub_id: u64,
    last_beat: Instant,
    acked: bool,
    snapshot: Option<SnapshotShip>,
}

/// One connection's state machine.
struct Conn {
    token: u64,
    stream: TcpStream,
    /// Unparsed inbound bytes; `rpos` marks how far frames have been
    /// consumed (compacted lazily).
    rbuf: Vec<u8>,
    rpos: usize,
    /// Encoded outbound frames; `wpos` marks how far the socket has
    /// accepted them (compacted lazily).
    wbuf: Vec<u8>,
    wpos: usize,
    /// 1 until a `Hello` negotiates higher; session wrappers before
    /// negotiation are a protocol error.
    proto_version: u32,
    /// Wire session id → core session. Unwrapped requests use sid 0.
    sessions: FxHashMap<u64, SessState>,
    /// Updates submitted and not yet answered, across all sessions.
    inflight: usize,
    pending: Option<PendingOp>,
    /// No more socket reads: clean EOF, drain mode, or a poisoned
    /// byte stream. In-flight replies still deliver and `wbuf` still
    /// flushes; the connection closes once both are empty.
    read_closed: bool,
    interest: Interest,
    /// Last instant the write buffer made progress (or was empty).
    last_progress: Instant,
    reply_starved_since: Option<Instant>,
    sub: Option<SubState>,
    /// Set when the connection was evicted (send/reply starvation):
    /// the notice frame is in `wbuf` and the connection gets one more
    /// `send_timeout` of grace to read it before the hard teardown.
    evicting: Option<Instant>,
    dead: bool,
}

impl Conn {
    fn new(token: u64, stream: TcpStream) -> Conn {
        Conn {
            token,
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            proto_version: 1,
            sessions: FxHashMap::default(),
            inflight: 0,
            pending: None,
            read_closed: false,
            interest: Interest::READ,
            last_progress: Instant::now(),
            reply_starved_since: None,
            sub: None,
            evicting: None,
            dead: false,
        }
    }

    fn out_len(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Append one encoded payload to the write buffer, framed.
    fn enqueue(&mut self, payload: Vec<u8>) {
        if self.dead {
            return;
        }
        if self.out_len() == 0 {
            // The send-timeout clock measures progress while data is
            // pending; restart it as the buffer goes non-empty.
            self.last_progress = Instant::now();
        }
        // Writing into a Vec cannot fail (the payload is always far
        // below the u32 length cap).
        let _ = write_frame(&mut self.wbuf, &payload);
    }

    fn enqueue_failed(&mut self, server: &Server, req_id: u64, e: &Error) {
        self.enqueue(failed(server, e).encode(req_id));
    }

    /// Stop consuming the byte stream but keep the connection up for
    /// its drain: in-flight replies deliver, the write buffer flushes,
    /// then the socket closes. Used for clean EOF and for protocol
    /// errors (after the best-effort id-0 report).
    fn begin_close(&mut self) {
        self.read_closed = true;
        self.rbuf.clear();
        self.rpos = 0;
    }

    /// Pull bytes off the socket (bounded per event for fairness).
    fn on_readable(&mut self, burst: usize) {
        if self.read_closed || self.dead {
            return;
        }
        if self.sub.is_some() {
            // Subscribed connections are one-way: consume and discard
            // anything the peer writes so a half-close is observed,
            // but keep streaming until the socket actually fails —
            // a follower may FIN its write side yet still read.
            let mut scratch = [0u8; 4096];
            loop {
                match self.stream.read(&mut scratch) {
                    Ok(0) => {
                        self.read_closed = true;
                        return;
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.dead = true;
                        return;
                    }
                }
            }
        }
        let mut total = 0;
        loop {
            let old_len = self.rbuf.len();
            self.rbuf.resize(old_len + 64 * 1024, 0);
            match self.stream.read(&mut self.rbuf[old_len..]) {
                Ok(0) => {
                    self.rbuf.truncate(old_len);
                    self.read_closed = true;
                    return;
                }
                Ok(n) => {
                    self.rbuf.truncate(old_len + n);
                    total += n;
                    if total >= burst {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.rbuf.truncate(old_len);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    self.rbuf.truncate(old_len);
                }
                Err(_) => {
                    // Abrupt reset: immediate teardown; any replies
                    // still executing complete in the epoch loop and
                    // are discarded harmlessly.
                    self.rbuf.truncate(old_len);
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Extract the next complete frame payload from the read buffer.
    /// `Ok(None)` means more bytes are needed.
    fn next_frame(&mut self, max_frame: usize) -> Result<Option<Vec<u8>>> {
        let avail = &self.rbuf[self.rpos..];
        if avail.len() < FRAME_HEADER {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(avail[4..FRAME_HEADER].try_into().unwrap());
        if len > max_frame {
            return Err(Error::Protocol(format!(
                "oversized frame: {len} bytes exceeds the {max_frame}-byte limit"
            )));
        }
        if avail.len() < FRAME_HEADER + len {
            return Ok(None);
        }
        let payload = avail[FRAME_HEADER..FRAME_HEADER + len].to_vec();
        let got_crc = risgraph_common::crc::crc32(&payload);
        if got_crc != want_crc {
            return Err(Error::Protocol(format!(
                "frame CRC mismatch: header says {want_crc:#010x}, payload is {got_crc:#010x}"
            )));
        }
        self.rpos += FRAME_HEADER + len;
        if self.rpos > 64 * 1024 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        Ok(Some(payload))
    }

    /// Look up or lazily create the core session behind a wire sid.
    fn session_core(&mut self, ctx: &Ctx, sid: u64) -> Result<Arc<CoreSession>> {
        if let Some(st) = self.sessions.get(&sid) {
            return Ok(Arc::clone(&st.core));
        }
        if self.sessions.len() >= ctx.net.max_sessions_per_conn.max(1) {
            return Err(Error::Protocol(format!(
                "session limit reached ({} logical sessions on one connection)",
                ctx.net.max_sessions_per_conn.max(1)
            )));
        }
        let core = Arc::new(ctx.server.session());
        let queued = Arc::new(AtomicBool::new(false));
        let shared = Arc::clone(&ctx.shared);
        let q = Arc::clone(&queued);
        let token = self.token;
        core.set_reply_waker(Some(Arc::new(move || {
            // First waker since the last drain nudges the worker; the
            // rest coalesce behind the flag.
            if !q.swap(true, Ordering::AcqRel) {
                shared.nudge(token, sid);
            }
        })));
        self.sessions.insert(
            sid,
            SessState {
                core: Arc::clone(&core),
                queued,
                inflight: 0,
            },
        );
        Ok(core)
    }

    /// Pull every ready reply for `sid` into the write buffer.
    fn drain_session(&mut self, ctx: &Ctx, sid: u64) {
        let Some(st) = self.sessions.get(&sid) else {
            return;
        };
        // Reset the dedup flag BEFORE draining: a reply landing after
        // the drain below re-fires the waker instead of being lost.
        st.queued.store(false, Ordering::Release);
        let core = Arc::clone(&st.core);
        let mut drained = 0usize;
        while let Some((req_id, reply)) = core.try_recv_tagged() {
            drained += 1;
            self.inflight = self.inflight.saturating_sub(1);
            self.reply_starved_since = None;
            self.enqueue(reply_to_response(reply).encode(req_id));
        }
        if drained > 0 {
            if let Some(st) = self.sessions.get_mut(&sid) {
                st.inflight = st.inflight.saturating_sub(drained);
            }
            ctx.admission.release(drained);
        }
    }

    /// Shed one request with a [`Response::Busy`] — the v2-only cheap
    /// reject: encoded straight from the reader path, no session
    /// allocated, the epoch loop never touched.
    fn shed(&mut self, req_id: u64, cause: BusyCause, message: String) {
        self.enqueue(Response::Busy { cause, message }.encode(req_id));
    }

    /// Submit an update op, shed it (v2 over an admission limit), or
    /// park it (window full, or a v1 connection over the global
    /// budget). Returns `false` when frame processing must stop: the op
    /// was parked, or the submit failed and closed the read side
    /// (*either* of `read_closed` / `dead` stops the parser).
    fn submit_or_park(&mut self, ctx: &Ctx, req_id: u64, sid: u64, op: Op) -> bool {
        if self.inflight >= ctx.net.window.max(1) {
            self.pending = Some(PendingOp { req_id, sid, op });
            return false;
        }
        // Admission — checked before any session is allocated, so a
        // shed request costs this connection's buffers and nothing
        // else. Order: per-session quota (no global effect) first,
        // then the global budget reservation.
        let quota = ctx.net.session_quota;
        if quota != 0
            && self.proto_version >= 2
            && self.sessions.get(&sid).is_some_and(|s| s.inflight >= quota)
        {
            ctx.admission.shed_quota.fetch_add(1, Ordering::Relaxed);
            self.shed(
                req_id,
                BusyCause::SessionQuota,
                format!("session {sid} is at its in-flight quota ({quota})"),
            );
            return true;
        }
        if !ctx.admission.try_acquire(ctx.net.inflight_budget) {
            if self.proto_version >= 2 {
                ctx.admission.shed_budget.fetch_add(1, Ordering::Relaxed);
                self.shed(
                    req_id,
                    BusyCause::InflightBudget,
                    format!(
                        "global in-flight budget ({}) exhausted",
                        ctx.net.inflight_budget
                    ),
                );
                return true;
            }
            // v1 keeps the pre-admission wire behavior byte-for-byte:
            // park and let TCP backpressure reach the client; the
            // worker's housekeeping tick retries once budget frees.
            self.pending = Some(PendingOp { req_id, sid, op });
            return false;
        }
        self.submit(ctx, req_id, sid, op);
        !(self.read_closed || self.dead)
    }

    /// Submit an op whose budget slot is already reserved; releases the
    /// slot again on every non-submitted path.
    fn submit(&mut self, ctx: &Ctx, req_id: u64, sid: u64, op: Op) {
        let core = match self.session_core(ctx, sid) {
            Ok(c) => c,
            Err(e) => {
                // Over the session cap: fail this request, keep the
                // connection (its other sessions are healthy).
                ctx.admission.release(1);
                self.enqueue_failed(&ctx.server, req_id, &e);
                return;
            }
        };
        if let Err(e) = core.submit_op_tagged(op, req_id) {
            // The coordinator is gone (shutdown): report and drain.
            ctx.admission.release(1);
            self.enqueue_failed(&ctx.server, req_id, &e);
            self.begin_close();
        } else {
            self.inflight += 1;
            if let Some(st) = self.sessions.get_mut(&sid) {
                st.inflight += 1;
            }
            ctx.admission.admitted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Parse and dispatch every processable frame in the read buffer.
    fn process(&mut self, ctx: &Ctx) {
        if self.sub.is_some() {
            // One-way from here: drop anything the peer still sent.
            self.rbuf.clear();
            self.rpos = 0;
            return;
        }
        loop {
            if self.dead {
                return;
            }
            if let Some(p) = self.pending.take() {
                // Re-run the full admission gate: the park may have
                // been window pressure or (v1) an exhausted global
                // budget, and either may still hold.
                if !self.submit_or_park(ctx, p.req_id, p.sid, p.op) {
                    return;
                }
                continue;
            }
            if self.out_len() >= OUT_BUF_SOFT_CAP {
                // Out-pressure: the peer is not reading fast enough;
                // stop producing until the buffer drains.
                return;
            }
            let payload = match self.next_frame(ctx.net.max_frame) {
                Ok(Some(p)) => p,
                Ok(None) => {
                    if self.read_closed && self.rpos < self.rbuf.len() {
                        // EOF with a partial frame left over.
                        self.enqueue_failed(
                            &ctx.server,
                            0,
                            &Error::Protocol("torn frame at connection end".into()),
                        );
                        self.rbuf.clear();
                        self.rpos = 0;
                    }
                    return;
                }
                Err(e) => {
                    // Malformed framing: the byte stream can no longer
                    // be trusted — report (best-effort, request id 0),
                    // then drain and close.
                    self.enqueue_failed(&ctx.server, 0, &e);
                    self.begin_close();
                    return;
                }
            };
            let (req_id, request) = match Request::decode(&payload) {
                Ok(x) => x,
                Err(e) => {
                    self.enqueue_failed(&ctx.server, 0, &e);
                    self.begin_close();
                    return;
                }
            };
            if !self.dispatch(ctx, req_id, request) {
                return;
            }
        }
    }

    /// Handle one decoded request. Returns `false` when frame
    /// processing must stop (window full, subscription started,
    /// connection closing).
    fn dispatch(&mut self, ctx: &Ctx, req_id: u64, request: Request) -> bool {
        let (sid, request) = match request {
            Request::InSession { sid, req } => {
                if self.proto_version < 2 {
                    self.enqueue_failed(
                        &ctx.server,
                        0,
                        &Error::Protocol(
                            "session wrapper before version negotiation (send Hello first)".into(),
                        ),
                    );
                    self.begin_close();
                    return false;
                }
                (sid, *req)
            }
            other => (0, other),
        };
        match request {
            Request::Hello { version } => {
                let negotiated = version.clamp(1, PROTOCOL_VERSION);
                // HELLO gating: a new session arriving while this
                // worker is over its high-water mark is turned away
                // before any state is allocated. The peer announced
                // v2 by sending Hello at all, so Busy is safe to send.
                if negotiated >= 2 && ctx.over_high_water() {
                    ctx.admission.shed_overload.fetch_add(1, Ordering::Relaxed);
                    self.shed(
                        req_id,
                        BusyCause::Overloaded,
                        "serving tier over its high-water mark; retry after backoff".into(),
                    );
                    self.begin_close();
                    return false;
                }
                self.proto_version = negotiated;
                self.enqueue(
                    Response::Hello {
                        version: negotiated,
                    }
                    .encode(req_id),
                );
                true
            }
            // Nested wrappers are rejected at decode; this arm is for
            // exhaustiveness only.
            Request::InSession { .. } => {
                self.enqueue_failed(
                    &ctx.server,
                    0,
                    &Error::Protocol("nested session wrapper".into()),
                );
                self.begin_close();
                false
            }
            // Updates: pipelined through the tagged session API under
            // the in-flight window. Replies surface via the waker.
            Request::Update(u) => self.submit_or_park(ctx, req_id, sid, Op::Single(u)),
            Request::Txn(updates) => self.submit_or_park(ctx, req_id, sid, Op::Txn(updates)),
            // Queries: answered inline (they read a versioned snapshot,
            // so they need not wait behind in-flight updates — that is
            // the out-of-order completion the request ids exist for).
            Request::GetValue {
                algo,
                version,
                vertex,
            } => {
                let resp = match self.session_core(ctx, sid).and_then(|core| {
                    check_algo(&ctx.server, algo)
                        .and_then(|()| core.get_value(algo as usize, version, vertex))
                }) {
                    Ok(v) => Response::Value(v),
                    Err(e) => failed(&ctx.server, &e),
                };
                self.enqueue(resp.encode(req_id));
                true
            }
            Request::GetParent {
                algo,
                version,
                vertex,
            } => {
                let resp = match self.session_core(ctx, sid).and_then(|core| {
                    check_algo(&ctx.server, algo)
                        .and_then(|()| core.get_parent(algo as usize, version, vertex))
                }) {
                    Ok(p) => Response::Parent(p),
                    Err(e) => failed(&ctx.server, &e),
                };
                self.enqueue(resp.encode(req_id));
                true
            }
            Request::GetModified { algo, version } => {
                let resp = match self.session_core(ctx, sid).and_then(|core| {
                    check_algo(&ctx.server, algo)
                        .and_then(|()| core.get_modified_vertices(algo as usize, version))
                }) {
                    Ok(vs) => Response::Modified(vs),
                    Err(e) => failed(&ctx.server, &e),
                };
                // The one response whose size scales with the affected
                // area: refuse to emit a frame the client would reject
                // as oversized — failing this request alone beats
                // tearing down every pipelined request on the session.
                let mut payload = resp.encode(req_id);
                if payload.len() > MAX_RESPONSE_FRAME {
                    let e = Error::Protocol(format!(
                        "modification set encodes to {} bytes, over the \
                         {MAX_RESPONSE_FRAME}-byte response limit",
                        payload.len()
                    ));
                    payload = failed(&ctx.server, &e).encode(req_id);
                }
                self.enqueue(payload);
                true
            }
            Request::CurrentVersion => {
                self.enqueue(Response::Version(ctx.server.current_version()).encode(req_id));
                true
            }
            Request::Release(version) => {
                match self.session_core(ctx, sid) {
                    Ok(core) => {
                        core.release_history(version);
                        self.enqueue(Response::Released.encode(req_id));
                    }
                    Err(e) => self.enqueue_failed(&ctx.server, req_id, &e),
                }
                true
            }
            Request::Stats => {
                self.enqueue(Response::Stats(stats_report(&ctx.server)).encode(req_id));
                true
            }
            // The schema-less registry snapshot: every named counter,
            // gauge and histogram summary, self-describing on the wire
            // so new metrics never break old clients (unknown entries
            // are skipped by the decoder, not fatal).
            Request::Metrics => {
                self.enqueue(Response::Metrics(ctx.server.metrics().snapshot()).encode(req_id));
                true
            }
            // Replication: flip this connection into a one-way feed
            // stream pumped by the worker's tick.
            Request::Subscribe { from } => {
                if sid != 0 {
                    // A subscription owns the whole connection; it
                    // cannot ride one multiplexed session among many.
                    self.enqueue_failed(
                        &ctx.server,
                        req_id,
                        &Error::Protocol(
                            "subscribe cannot be wrapped in a multiplexed session".into(),
                        ),
                    );
                    return true;
                }
                self.start_subscribe(ctx, req_id, from)
            }
        }
    }

    /// Validate and register a subscription; on success the connection
    /// stops parsing requests and the feed pump takes over.
    fn start_subscribe(&mut self, ctx: &Ctx, req_id: u64, from: u64) -> bool {
        let Some(feed) = ctx.server.feed() else {
            self.enqueue_failed(
                &ctx.server,
                req_id,
                &Error::Protocol("replication disabled on this server (max_followers = 0)".into()),
            );
            return true;
        };
        if from > feed.len() {
            self.enqueue_failed(
                &ctx.server,
                req_id,
                &Error::Protocol(format!(
                    "subscribe offset {from} beyond the feed ({} records)",
                    feed.len()
                )),
            );
            return true;
        }
        let Some(slot) = feed.try_register(from) else {
            self.enqueue_failed(
                &ctx.server,
                req_id,
                &Error::Protocol(format!(
                    "follower limit reached ({} slots)",
                    feed.max_followers()
                )),
            );
            return true;
        };
        // Registration pinned the retention floor at `from`, so `base`
        // cannot advance past it from here on.
        let feed = Arc::clone(feed);
        let mut sub = SubState {
            feed,
            slot,
            next: from,
            sub_id: req_id,
            last_beat: Instant::now(),
            acked: false,
            snapshot: None,
        };
        if sub.next < sub.feed.base() {
            // The requested records were evicted past a checkpoint. A
            // fresh follower bootstraps from the snapshot; a mid-stream
            // one cannot (its local state is not the snapshot's). The
            // structured `FeedTruncated` rejection tells the follower
            // to reset itself to fresh and re-subscribe at 0 — the
            // follower-side recovery `ReplicaServer` performs
            // automatically.
            if from != 0 {
                let floor = sub.feed.base();
                sub.feed.unregister(sub.slot);
                self.enqueue_failed(
                    &ctx.server,
                    req_id,
                    &Error::FeedTruncated {
                        requested: from,
                        floor,
                    },
                );
                return true;
            }
            let Some((updates, resume_index, resume_version)) = ctx.server.snapshot_for_bootstrap()
            else {
                sub.feed.unregister(sub.slot);
                self.enqueue_failed(
                    &ctx.server,
                    req_id,
                    &Error::Protocol(
                        "feed retention advanced past the requested offset but no checkpoint \
                         snapshot is readable"
                            .into(),
                    ),
                );
                return true;
            };
            sub.snapshot = Some(SnapshotShip {
                updates,
                pos: 0,
                resume_index,
                resume_version,
            });
        }
        self.sub = Some(sub);
        self.rbuf.clear();
        self.rpos = 0;
        self.pump_sub(ctx);
        false
    }

    /// Advance an active subscription: ship snapshot chunks, then feed
    /// records as they appear, plus heartbeats on cadence — all gated
    /// on the write buffer's soft cap so a slow follower throttles its
    /// own stream, never the epoch loop.
    fn pump_sub(&mut self, ctx: &Ctx) {
        let Some(mut sub) = self.sub.take() else {
            return;
        };
        if self.dead {
            sub.feed.unregister(sub.slot);
            return;
        }
        if let Some(ship) = &mut sub.snapshot {
            while ship.pos < ship.updates.len() && self.out_len() < OUT_BUF_SOFT_CAP {
                let end = (ship.pos + SNAPSHOT_CHUNK_UPDATES).min(ship.updates.len());
                let chunk = ship.updates[ship.pos..end].to_vec();
                ship.pos = end;
                self.enqueue(Response::SnapshotChunk(chunk).encode(sub.sub_id));
            }
            if ship.pos >= ship.updates.len() && self.out_len() < OUT_BUF_SOFT_CAP {
                // An empty structure still ships the Done frame — the
                // resume coordinates are what flips the replica out of
                // "fresh".
                let done = Response::SnapshotDone {
                    resume_index: ship.resume_index,
                    resume_version: ship.resume_version,
                };
                self.enqueue(done.encode(sub.sub_id));
                sub.next = ship.resume_index;
                sub.feed.set_watermark(sub.slot, sub.next);
                sub.snapshot = None;
            } else {
                self.sub = Some(sub);
                return;
            }
        }
        let beat = |server: &Server, next: u64| Response::Heartbeat {
            records: next,
            version: server.current_version(),
        };
        if !sub.acked {
            // Subscribe acknowledgement: an immediate heartbeat tells
            // the follower where the stream stands before any record
            // arrives.
            self.enqueue(beat(&ctx.server, sub.next).encode(sub.sub_id));
            sub.last_beat = Instant::now();
            sub.acked = true;
        }
        while self.out_len() < OUT_BUF_SOFT_CAP {
            let Some(rec) = sub.feed.get(sub.next) else {
                break;
            };
            self.enqueue(encode_wal_epoch(&rec, sub.sub_id));
            sub.next += 1;
            // The frame is buffered: everything below `next` is this
            // follower's problem now, so release it for eviction once
            // the checkpoint cut also passes it.
            sub.feed.set_watermark(sub.slot, sub.next);
        }
        if sub.last_beat.elapsed() >= ctx.net.heartbeat_interval {
            self.enqueue(beat(&ctx.server, sub.next).encode(sub.sub_id));
            sub.last_beat = Instant::now();
        }
        self.sub = Some(sub);
    }

    /// Flush as much of the write buffer as the socket accepts.
    fn try_write(&mut self) {
        if self.dead {
            return;
        }
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.wpos += n;
                    self.last_progress = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    /// A drained connection — no more reads, nothing in flight, write
    /// buffer flushed — closes cleanly.
    fn check_complete(&mut self) {
        if self.dead || !self.read_closed || self.sub.is_some() {
            return;
        }
        if self.rpos >= self.rbuf.len()
            && self.pending.is_none()
            && self.inflight == 0
            && self.out_len() == 0
        {
            self.dead = true;
        }
    }

    /// The full post-event cycle: process frames, pump the feed, flush,
    /// check drain completion, re-arm interest.
    fn service(&mut self, ctx: &Ctx) {
        if !self.dead {
            self.process(ctx);
            if self.evicting.is_none() {
                self.pump_sub(ctx);
            }
            self.try_write();
            self.check_complete();
        }
        if !self.dead {
            self.update_interest(ctx);
        }
    }

    fn desired_interest(&self) -> Interest {
        Interest {
            read: !self.read_closed
                && !self.dead
                && self.pending.is_none()
                && self.out_len() < OUT_BUF_SOFT_CAP,
            write: !self.dead && self.out_len() > 0,
        }
    }

    fn update_interest(&mut self, ctx: &Ctx) {
        let want = self.desired_interest();
        if want != self.interest {
            if ctx
                .poller
                .modify(self.stream.as_raw_fd(), self.token, want)
                .is_ok()
            {
                self.interest = want;
            } else {
                self.dead = true;
            }
        }
    }

    /// Evict this connection: stop reading, drop anything un-admitted,
    /// and put a best-effort req-id-0 connection-level error — the
    /// same channel the malformed-frame path uses, carrying a Busy-
    /// coded [`WireError`] — at the tail of the write buffer, so every
    /// client waiter's death reason names the eviction instead of a
    /// bare connection reset. The frame is *appended* (never replaces
    /// `wbuf` — `wpos` may sit mid-frame and clearing would desync the
    /// peer's framing); a reader that resumes receives its backlog and
    /// then the notice, a truly dead one is torn down when the grace
    /// period lapses.
    fn evict(&mut self, ctx: &Ctx, now: Instant, detail: String) {
        ctx.admission.evicted.fetch_add(1, Ordering::Relaxed);
        // A parked op was never admitted (holds no budget): drop it.
        self.pending = None;
        self.begin_close();
        self.enqueue_failed(
            &ctx.server,
            0,
            &Error::Busy(format!("connection evicted: {detail}")),
        );
        self.reply_starved_since = None;
        self.evicting = Some(now);
    }

    /// Timer-driven checks, run on the worker's tick.
    fn housekeep(&mut self, ctx: &Ctx, now: Instant) {
        if self.dead {
            return;
        }
        if let Some(since) = self.evicting {
            // Grace: once the notice is delivered (buffer empty) or
            // another send_timeout lapses without the peer taking it,
            // tear down for real. Replies already in the buffer flush
            // ahead of the notice; anything still executing is dropped
            // at teardown like any abrupt disconnect.
            if self.out_len() == 0 || now.duration_since(since) > ctx.net.send_timeout {
                self.dead = true;
            }
            return;
        }
        // A peer that never reads its replies can stall the writer
        // only briefly: the send timeout turns a dead drain into an
        // eviction (torn down *and counted*, freeing its budget share
        // at teardown).
        if self.out_len() > 0 && now.duration_since(self.last_progress) > ctx.net.send_timeout {
            let stalled = now.duration_since(self.last_progress);
            self.evict(
                ctx,
                now,
                format!(
                    "no send progress for {}ms (send timeout {}ms)",
                    stalled.as_millis(),
                    ctx.net.send_timeout.as_millis()
                ),
            );
            return;
        }
        // Escape hatch: a draining connection still owed replies that
        // receives none (a dead coordinator can never answer the
        // in-flight tail) gives up after a deadline instead of wedging
        // — and through the joins, the whole server's shutdown.
        if self.read_closed && (self.inflight > 0 || self.pending.is_some()) {
            let since = *self.reply_starved_since.get_or_insert(now);
            if now.duration_since(since) > ctx.net.reply_timeout {
                let starved = now.duration_since(since);
                self.evict(
                    ctx,
                    now,
                    format!(
                        "reply starvation: {} update(s) unanswered for {}ms \
                         (reply timeout {}ms)",
                        self.inflight,
                        starved.as_millis(),
                        ctx.net.reply_timeout.as_millis()
                    ),
                );
            }
        } else {
            self.reply_starved_since = None;
        }
    }
}

/// One reactor worker: an epoll loop over its share of the
/// connections (plus the listener, on worker 0).
struct Worker {
    ctx: Ctx,
    gauges: WorkerGauges,
    peers: Vec<Arc<WorkerShared>>,
    shutdown: Arc<AtomicBool>,
    conns: FxHashMap<u64, Conn>,
    next_token: u64,
    listener: Option<TcpListener>,
    /// Accept backoff after fd exhaustion (EMFILE): the listener's
    /// readiness is disarmed until this instant has aged, preventing a
    /// level-triggered busy loop on a connection we cannot take.
    listener_paused: Option<Instant>,
    rr: usize,
    drain_started: bool,
}

impl Worker {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut dead: Vec<u64> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Acquire) && !self.drain_started {
                self.begin_drain();
            }
            if self.drain_started
                && self.conns.is_empty()
                && self.listener.is_none()
                && self.ctx.shared.inbox.lock().unwrap().is_empty()
            {
                break;
            }
            let timeout = self.tick_timeout();
            self.ctx
                .shared
                .sleep(&self.ctx.poller, &mut events, timeout);
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    TOKEN_WAKEUP => self.ctx.shared.wakeup.drain(),
                    TOKEN_LISTENER => self.accept_burst(),
                    token => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            if ev.readable || ev.hangup {
                                conn.on_readable(READ_BURST);
                            }
                            conn.service(&self.ctx);
                        }
                    }
                }
            }
            events = batch;
            self.adopt_inbox();
            self.drain_ready();
            self.housekeep();
            self.publish_gauges();
            dead.extend(self.conns.iter().filter(|(_, c)| c.dead).map(|(t, _)| *t));
            for token in dead.drain(..) {
                self.teardown(token);
            }
        }
    }

    /// How long to sleep when nothing is ready: short when
    /// subscriptions need their feed pumped, longer for plain timer
    /// housekeeping.
    fn tick_timeout(&self) -> Duration {
        let has_subs = self.conns.values().any(|c| c.sub.is_some());
        let base = if has_subs {
            Duration::from_millis(5)
        } else {
            Duration::from_millis(25)
        };
        base.min(
            self.ctx
                .net
                .heartbeat_interval
                .max(Duration::from_millis(1)),
        )
    }

    /// Accept everything pending, distributing connections round-robin
    /// across the worker pool (remote workers get the stream through
    /// their inbox plus a wakeup).
    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let target = if self.drain_started {
                        0 // peers may already be exiting; serve locally
                    } else {
                        self.rr % self.peers.len()
                    };
                    self.rr = self.rr.wrapping_add(1);
                    if target == 0 {
                        self.adopt(stream);
                    } else {
                        let peer = &self.peers[target];
                        peer.inbox.lock().unwrap().push(stream);
                        peer.wakeup.wake();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // E.g. EMFILE under fd exhaustion: disarm the
                    // listener and re-arm on a later tick, so the
                    // level-triggered event cannot spin a core.
                    let fd = listener.as_raw_fd();
                    let _ = self.ctx.poller.modify(fd, TOKEN_LISTENER, Interest::NONE);
                    self.listener_paused = Some(Instant::now());
                    return;
                }
            }
        }
    }

    /// Take ownership of a freshly accepted (or handed-off) stream.
    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        // Connection-arrival gating: over the high-water mark the
        // cheapest possible reject — one best-effort frame onto the
        // fresh socket (its send buffer is empty, the write virtually
        // always completes), then drop. No poller registration, no
        // `Conn`, no session. Drain mode still serves the backlog.
        if !self.drain_started && self.ctx.over_high_water() {
            self.ctx
                .admission
                .shed_overload
                .fetch_add(1, Ordering::Relaxed);
            let notice = failed(
                &self.ctx.server,
                &Error::Busy("serving tier over its high-water mark; retry after backoff".into()),
            )
            .encode(0);
            let mut framed = Vec::with_capacity(FRAME_HEADER + notice.len());
            let _ = write_frame(&mut framed, &notice);
            let mut s = &stream;
            let _ = s.write(&framed);
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .ctx
            .poller
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.ctx.shared.conns.fetch_add(1, Ordering::AcqRel);
        let mut conn = Conn::new(token, stream);
        if self.drain_started {
            // A backlog connection adopted mid-drain gets one read
            // pass (whatever it managed to send is served), then
            // drains like everyone else.
            conn.on_readable(usize::MAX);
            conn.read_closed = true;
        }
        self.conns.insert(token, conn);
        if self.drain_started {
            if let Some(c) = self.conns.get_mut(&token) {
                c.service(&self.ctx);
            }
        }
    }

    fn adopt_inbox(&mut self) {
        let streams = std::mem::take(&mut *self.ctx.shared.inbox.lock().unwrap());
        for s in streams {
            self.adopt(s);
        }
    }

    /// Deliver replies flagged by session wakers since the last pass.
    fn drain_ready(&mut self) {
        let ready = std::mem::take(&mut *self.ctx.shared.ready.lock().unwrap());
        if ready.is_empty() {
            return;
        }
        let t_drain = Instant::now();
        let mut touched: VecDeque<u64> = VecDeque::new();
        for (token, sid) in ready {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // closed since the waker fired; stale entry
            };
            conn.drain_session(&self.ctx, sid);
            if touched.back() != Some(&token) {
                touched.push_back(token);
            }
        }
        // Freed window slots may unpark an op and resume parsing.
        for token in touched {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.service(&self.ctx);
            }
        }
        self.ctx
            .server
            .tracer()
            .note_phase(Phase::ReactorDrain, t_drain.elapsed().as_nanos() as u64);
    }

    /// Refresh this worker's occupancy gauges (one tick's staleness at
    /// most — monitoring data, not a linearizable view).
    fn publish_gauges(&self) {
        let g = &self.gauges;
        g.connections
            .store(self.conns.len() as u64, Ordering::Relaxed);
        g.sessions.store(
            self.conns.values().map(|c| c.sessions.len() as u64).sum(),
            Ordering::Relaxed,
        );
        g.inbox_depth.store(
            self.ctx.shared.inbox.lock().unwrap().len() as u64,
            Ordering::Relaxed,
        );
        g.ready_backlog.store(
            self.ctx.shared.ready.lock().unwrap().len() as u64,
            Ordering::Relaxed,
        );
    }

    fn housekeep(&mut self) {
        let now = Instant::now();
        if let Some(paused) = self.listener_paused {
            if now.duration_since(paused) >= Duration::from_millis(10) {
                if let Some(listener) = &self.listener {
                    let fd = listener.as_raw_fd();
                    let _ = self.ctx.poller.modify(fd, TOKEN_LISTENER, Interest::READ);
                }
                self.listener_paused = None;
            }
        }
        for conn in self.conns.values_mut() {
            conn.housekeep(&self.ctx, now);
            conn.service(&self.ctx);
        }
    }

    /// Stop accepting (after serving the backlog) and flip every
    /// connection into drain mode.
    fn begin_drain(&mut self) {
        self.drain_started = true;
        if self.listener.is_some() {
            // Serve the backlog that completed its handshake before
            // shutdown, then retire the listener.
            self.accept_burst();
            if let Some(l) = self.listener.take() {
                self.ctx.poller.delete(l.as_raw_fd());
            }
        }
        self.adopt_inbox();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            // Followers reconnect on their own; cut their streams now
            // so the feed's retention floor is released.
            if let Some(sub) = conn.sub.take() {
                sub.feed.unregister(sub.slot);
                conn.begin_close();
            }
            if !conn.read_closed {
                // Final read pass: consume what the kernel already
                // buffered so requests sent before shutdown are served.
                conn.on_readable(usize::MAX);
                conn.read_closed = true;
            }
            conn.service(&self.ctx);
        }
    }

    fn teardown(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.ctx.poller.delete(conn.stream.as_raw_fd());
            if let Some(sub) = &conn.sub {
                sub.feed.unregister(sub.slot);
            }
            // Whatever this connection still had in flight will never
            // be drained: hand its budget share back so an evicted or
            // reset connection frees admission capacity immediately.
            self.ctx.admission.release(conn.inflight);
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.ctx.shared.conns.fetch_sub(1, Ordering::AcqRel);
            // `conn.sessions` drops here, releasing the core sessions
            // (and their history holds).
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    thread_local! {
        /// Runs once on this thread between a worker's second look at
        /// `ready` (`sleeping` already raised) and its `epoll_wait`, so
        /// a test can fire a reply waker in that gap.
        static BEFORE_EPOLL_WAIT: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn before_epoll_wait() {
        if let Some(hook) = BEFORE_EPOLL_WAIT.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    fn worker_shared(registry: &Registry) -> (Arc<WorkerShared>, Poller) {
        let shared = Arc::new(WorkerShared::new(registry).unwrap());
        let poller = Poller::new().unwrap();
        poller
            .add(shared.wakeup.fd(), TOKEN_WAKEUP, Interest::READ)
            .unwrap();
        (shared, poller)
    }

    /// A reply that lands after the worker's last look at `ready` and
    /// before its `epoll_wait` must cut the sleep short: the waker finds
    /// `sleeping` up and writes the eventfd. With the raise moved behind
    /// the look the waker elides the write and the worker sleeps out its
    /// whole timeout (60 s here; 25 ms of added latency per lost nudge
    /// in `Worker::run`).
    #[test]
    fn nudge_in_the_sleep_window_wakes_the_worker() {
        let registry = Registry::new();
        let (shared, poller) = worker_shared(&registry);
        let (in_window_tx, in_window_rx) = channel();
        let (acted_tx, acted_rx) = channel::<()>();
        let (woke_tx, woke_rx) = channel();
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                BEFORE_EPOLL_WAIT.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        in_window_tx.send(()).unwrap();
                        acted_rx.recv().unwrap();
                    }));
                });
                let mut events = Vec::new();
                shared.sleep(&poller, &mut events, Duration::from_secs(60));
                woke_tx.send(events).unwrap();
            })
        };
        in_window_rx.recv().unwrap();
        shared.nudge(5, 1);
        acted_tx.send(()).unwrap();
        let events = woke_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("lost nudge: the worker slept through a reply");
        worker.join().unwrap();
        assert!(events.iter().any(|e| e.token == TOKEN_WAKEUP));
        assert_eq!(*shared.ready.lock().unwrap(), [(5, 1)]);
        assert!(!shared.sleeping.load(Ordering::SeqCst));
        assert_eq!(shared.wakes.load(Ordering::Relaxed), 1);
        assert_eq!(shared.wakes_elided.load(Ordering::Relaxed), 0);
    }

    /// A reply that lands while the worker is awake costs no eventfd
    /// write, and the worker's look at `ready` keeps it from sleeping.
    #[test]
    fn nudge_to_an_awake_worker_is_elided_and_still_seen() {
        let registry = Registry::new();
        let (shared, poller) = worker_shared(&registry);
        shared.nudge(5, 1);
        shared.nudge(5, 2);
        assert_eq!(shared.wakes.load(Ordering::Relaxed), 0);
        assert_eq!(shared.wakes_elided.load(Ordering::Relaxed), 2);
        let t = Instant::now();
        let mut events = Vec::new();
        shared.sleep(&poller, &mut events, Duration::from_secs(60));
        assert!(t.elapsed() < Duration::from_secs(10), "slept on a backlog");
        assert!(events.is_empty(), "nobody wrote the eventfd");
        assert_eq!(*shared.ready.lock().unwrap(), [(5, 1), (5, 2)]);
    }
}
