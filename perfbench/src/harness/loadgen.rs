//! The load generators. One function per client shape; each runs on its
//! own thread, classifies every reply (ok / `BUSY` / error) instead of
//! `expect()`ing on it, and records into its own exact per-slice
//! buffers ([`Recorder`]). Connecting, spawning and the drain tail lie
//! outside the measured interval by construction: threads connect
//! first, meet at a [`StartGate`], and only replies that arrive inside
//! the interval are counted.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use risgraph_common::ids::Update;
use risgraph_common::protocol::{Request, Response};
use risgraph_core::server::Server;
use risgraph_net::NetClient;

use super::inputs::SplitMix;
use super::samples::{Outcome, Plan, Recorder, SliceClock};
use super::spans::SpanLog;

/// Reads draw their version uniformly from this many latest versions.
pub const READ_VERSION_WINDOW: u64 = 1_000;
/// How far behind its newest acknowledged version a client sets its
/// release floor — beyond [`READ_VERSION_WINDOW`], so no read ever
/// asks for a collected version.
pub const RELEASE_LAG: u64 = 5_000;
/// Cadence of `release_history` calls (§5: GC every second).
pub const RELEASE_EVERY: Duration = Duration::from_secs(1);

/// Where the load generating threads of a run meet once they are
/// connected, so that they share one clock.
pub struct StartGate {
    barrier: Barrier,
    clock: OnceLock<SliceClock>,
}

impl StartGate {
    /// A gate for `threads` load generating threads plus the runner.
    pub fn new(threads: usize) -> StartGate {
        StartGate {
            barrier: Barrier::new(threads + 1),
            clock: OnceLock::new(),
        }
    }

    /// Thread side: report ready, wait for the clock.
    pub fn ready(&self) -> SliceClock {
        self.barrier.wait();
        self.barrier.wait();
        *self
            .clock
            .get()
            .expect("runner sets the clock between the waits")
    }

    /// Runner side: wait until every thread is ready, start the clock.
    pub fn open(&self, plan: Plan) -> SliceClock {
        self.barrier.wait();
        let clock = SliceClock::start(plan);
        let _ = self.clock.set(clock);
        self.barrier.wait();
        clock
    }
}

/// Per-thread span sampling for the traced re-run (`every == 0`: off).
#[derive(Debug, Clone, Copy)]
pub struct TraceCfg {
    pub every: u64,
    pub origin: Instant,
    pub lane: u64,
    pub parent: u64,
}

impl TraceCfg {
    pub fn off() -> TraceCfg {
        TraceCfg {
            every: 0,
            origin: Instant::now(),
            lane: 0,
            parent: 0,
        }
    }

    fn lane(self, lane: u64) -> TraceCfg {
        TraceCfg { lane, ..self }
    }
}

struct Tracer {
    cfg: TraceCfg,
    log: SpanLog,
    seen: u64,
}

impl Tracer {
    fn new(cfg: TraceCfg) -> Tracer {
        Tracer {
            cfg,
            log: SpanLog::new(cfg.origin, cfg.lane),
            seen: 0,
        }
    }

    #[inline]
    fn request(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.cfg.every != 0 {
            self.seen += 1;
            if self.seen.is_multiple_of(self.cfg.every) {
                self.log.add(name, self.cfg.parent, start, end);
            }
        }
    }
}

/// How the open-loop generator itself behaved.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopHealth {
    /// Requests whose due time fell in the measured interval.
    pub offered: u64,
    /// Send-time lateness (send − due) of those requests, ns, sorted.
    pub late_ns: Vec<u64>,
    /// Sent but unanswered when the measured interval ended.
    pub backlog_end: u64,
}

impl OpenLoopHealth {
    /// Fold in another server instance's share of the run.
    pub fn absorb(&mut self, other: OpenLoopHealth) {
        self.offered += other.offered;
        self.late_ns.extend(other.late_ns);
        self.late_ns.sort_unstable();
        self.backlog_end = self.backlog_end.max(other.backlog_end);
    }
}

/// What one load generating thread hands back.
pub struct ThreadOut {
    pub updates: Option<Recorder>,
    pub reads: Option<Recorder>,
    pub open: Option<OpenLoopHealth>,
    pub spans: SpanLog,
    /// A transport failure that ended the thread early.
    pub fatal: Option<String>,
}

impl ThreadOut {
    fn new(tracer: Tracer) -> ThreadOut {
        ThreadOut {
            updates: None,
            reads: None,
            open: None,
            spans: tracer.log,
            fatal: None,
        }
    }

    /// A thread that could not even connect: it still passes the gate
    /// (or the runner would wait forever) and reports why.
    fn stillborn(gate: &StartGate, cfg: TraceCfg, why: String) -> ThreadOut {
        gate.ready();
        let mut out = ThreadOut::new(Tracer::new(cfg));
        out.fatal = Some(why);
        out
    }
}

fn classify<T>(outcome: &risgraph_common::Result<T>) -> Outcome {
    match outcome {
        Ok(_) => Outcome::Ok,
        Err(e) if e.is_busy() => Outcome::Busy,
        Err(_) => Outcome::Error,
    }
}

fn classify_read(resp: &Response) -> Outcome {
    match resp {
        Response::Value(_) | Response::Modified(_) => Outcome::Ok,
        Response::Busy { .. } => Outcome::Busy,
        _ => Outcome::Error,
    }
}

/// A cyclic cursor over one session's stream.
struct Cursor<'a> {
    stream: &'a [Update],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(stream: &'a [Update]) -> Cursor<'a> {
        assert!(!stream.is_empty(), "a session needs a stream");
        Cursor { stream, pos: 0 }
    }

    #[inline]
    fn next(&mut self) -> &'a Update {
        let u = &self.stream[self.pos];
        self.pos += 1;
        if self.pos == self.stream.len() {
            self.pos = 0;
        }
        u
    }
}

/// Optional duties of a closed-loop writer.
#[derive(Clone, Copy, Default)]
pub struct WriterDuties<'a> {
    /// Publish the newest acknowledged version here (for a reader).
    pub publish: Option<&'a AtomicU64>,
    /// Advance this session's release floor every [`RELEASE_EVERY`].
    pub release: bool,
}

/// Closed loop over TCP: one connection keeping `window` updates in
/// flight. Latency is submit → demultiplexed reply.
pub fn closed_tcp(
    addr: SocketAddr,
    stream: &[Update],
    window: usize,
    gate: &StartGate,
    duties: WriterDuties<'_>,
    trace: TraceCfg,
) -> ThreadOut {
    let client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(e) => return ThreadOut::stillborn(gate, trace, format!("connect: {e}")),
    };
    let clock = gate.ready();
    let mut tracer = Tracer::new(trace);
    let mut rec = Recorder::new(clock.plan());
    let mut cursor = Cursor::new(stream);
    let mut inflight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(window);
    let mut fatal = None;
    let mut newest = 0u64;
    let mut next_release = Instant::now() + RELEASE_EVERY;
    'run: loop {
        let now = Instant::now();
        if clock.done(now) {
            break;
        }
        if duties.release && now >= next_release {
            next_release = now + RELEASE_EVERY;
            if let Err(e) = client.release_history(newest.saturating_sub(RELEASE_LAG)) {
                fatal = Some(format!("release_history: {e}"));
                break;
            }
        }
        while inflight.len() < window {
            let t = Instant::now();
            match client.submit_update_pipelined(cursor.next()) {
                Ok(id) => inflight.push_back((id, t)),
                Err(e) => {
                    fatal = Some(format!("submit: {e}"));
                    break 'run;
                }
            }
        }
        let (id, t) = inflight.pop_front().expect("window ≥ 1");
        match client.wait_reply(id) {
            Ok(reply) => {
                let done = Instant::now();
                rec.record(
                    &clock,
                    done,
                    (done - t).as_nanos() as u64,
                    classify(&reply.outcome),
                );
                tracer.request("request.update", t, done);
                if reply.outcome.is_ok() {
                    newest = newest.max(reply.version);
                    if let Some(cell) = duties.publish {
                        cell.fetch_max(reply.version, Ordering::Relaxed);
                    }
                }
            }
            Err(e) => {
                fatal = Some(format!("wait: {e}"));
                break;
            }
        }
    }
    // Drain tail: answered, not counted.
    if fatal.is_none() {
        for (id, _) in inflight {
            if let Err(e) = client.wait_reply(id) {
                fatal = Some(format!("drain: {e}"));
                break;
            }
        }
    }
    let mut out = ThreadOut::new(tracer);
    out.updates = Some(rec);
    out.fatal = fatal;
    out
}

/// Closed loop over TCP with protocol-v2 multiplexing: one connection,
/// one logical session per stream, one update in flight per session.
pub fn mux_tcp(
    addr: SocketAddr,
    streams: &[Vec<Update>],
    gate: &StartGate,
    trace: TraceCfg,
) -> ThreadOut {
    let client = match NetClient::connect(addr) {
        Ok(c) if c.protocol_version() >= 2 => c,
        Ok(_) => return ThreadOut::stillborn(gate, trace, "server speaks protocol v1".into()),
        Err(e) => return ThreadOut::stillborn(gate, trace, format!("connect: {e}")),
    };
    let sessions: Vec<_> = match streams.iter().map(|_| client.open_session()).collect() {
        Ok(s) => s,
        Err(e) => return ThreadOut::stillborn(gate, trace, format!("open_session: {e}")),
    };
    let clock = gate.ready();
    let mut tracer = Tracer::new(trace);
    let mut rec = Recorder::new(clock.plan());
    let mut cursors: Vec<Cursor<'_>> = streams.iter().map(|s| Cursor::new(s)).collect();
    let mut inflight: Vec<Option<(u64, Instant)>> = vec![None; sessions.len()];
    let mut fatal = None;
    'run: while !clock.done(Instant::now()) {
        // Top up every session before draining any reply, so all of
        // them stay in flight at once.
        for (i, session) in sessions.iter().enumerate() {
            if inflight[i].is_none() {
                let t = Instant::now();
                match session.submit_update_pipelined(cursors[i].next()) {
                    Ok(id) => inflight[i] = Some((id, t)),
                    Err(e) => {
                        fatal = Some(format!("submit: {e}"));
                        break 'run;
                    }
                }
            }
        }
        for (i, session) in sessions.iter().enumerate() {
            let Some((id, t)) = inflight[i].take() else {
                continue;
            };
            match session.wait_reply(id) {
                Ok(reply) => {
                    let done = Instant::now();
                    rec.record(
                        &clock,
                        done,
                        (done - t).as_nanos() as u64,
                        classify(&reply.outcome),
                    );
                    tracer.request("request.update", t, done);
                }
                Err(e) => {
                    fatal = Some(format!("wait: {e}"));
                    break 'run;
                }
            }
        }
    }
    if fatal.is_none() {
        for (i, session) in sessions.iter().enumerate() {
            if let Some((id, _)) = inflight[i].take() {
                if let Err(e) = session.wait_reply(id) {
                    fatal = Some(format!("drain: {e}"));
                    break;
                }
            }
        }
    }
    let mut out = ThreadOut::new(tracer);
    out.updates = Some(rec);
    out.fatal = fatal;
    out
}

/// Open loop over TCP: one connection, a sender on a fixed schedule of
/// `rate` updates per second and a receiver. Arrivals do not slow when
/// the server does, and latency is charged **from the instant the
/// request was due**, so a stall is paid for by every request scheduled
/// during it, not only by the one that happened to be in flight.
pub fn open_tcp(
    addr: SocketAddr,
    stream: &[Update],
    rate: f64,
    gate: &StartGate,
    trace: TraceCfg,
) -> ThreadOut {
    let client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(e) => return ThreadOut::stillborn(gate, trace, format!("connect: {e}")),
    };
    let clock = gate.ready();
    let plan = clock.plan();
    let period_ns = 1e9 / rate;
    let first_due = Instant::now();
    let received = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(u64, Instant)>();

    let (sender_out, (rec, tracer, recv_fatal)) = std::thread::scope(|scope| {
        let client = &client;
        let received = &received;
        let receiver = scope.spawn(move || {
            let mut tracer = Tracer::new(trace.lane(trace.lane + 1));
            let mut rec = Recorder::new(plan);
            let mut fatal = None;
            for (id, due) in rx {
                match client.wait_reply(id) {
                    Ok(reply) => {
                        let done = Instant::now();
                        received.fetch_add(1, Ordering::Relaxed);
                        let latency = done.saturating_duration_since(due).as_nanos() as u64;
                        rec.record(&clock, done, latency, classify(&reply.outcome));
                        tracer.request("request.update", due, done);
                    }
                    Err(e) => {
                        fatal = Some(format!("wait: {e}"));
                        break;
                    }
                }
            }
            (rec, tracer, fatal)
        });

        let mut cursor = Cursor::new(stream);
        let mut health = OpenLoopHealth::default();
        let mut fatal = None;
        let mut sent = 0u64;
        loop {
            let due = first_due + Duration::from_nanos((sent as f64 * period_ns) as u64);
            if clock.done(due) {
                break;
            }
            let mut now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
                now = Instant::now();
            }
            match client.submit_update_pipelined(cursor.next()) {
                Ok(id) => {
                    if tx.send((id, due)).is_err() {
                        break; // the receiver died; it reports why
                    }
                }
                Err(e) => {
                    fatal = Some(format!("submit: {e}"));
                    break;
                }
            }
            sent += 1;
            if clock.slice_of(due).is_some() {
                health.offered += 1;
                health
                    .late_ns
                    .push(now.saturating_duration_since(due).as_nanos() as u64);
            }
        }
        health.backlog_end = sent - received.load(Ordering::Relaxed);
        health.late_ns.sort_unstable();
        drop(tx);
        ((health, fatal), receiver.join().expect("receiver thread"))
    });

    let mut out = ThreadOut::new(tracer);
    out.updates = Some(rec);
    out.open = Some(sender_out.0);
    out.fatal = sender_out.1.or(recv_fatal);
    out
}

/// Closed loop with no socket: one in-process session submitting one
/// update at a time (the paper's emulated synchronous user, §6.2).
pub fn closed_inproc(
    server: &Server,
    stream: &[Update],
    gate: &StartGate,
    release: bool,
    trace: TraceCfg,
) -> ThreadOut {
    let session = server.session();
    let clock = gate.ready();
    let mut tracer = Tracer::new(trace);
    let mut rec = Recorder::new(clock.plan());
    let mut cursor = Cursor::new(stream);
    let mut newest = 0u64;
    let mut next_release = Instant::now() + RELEASE_EVERY;
    loop {
        let t = Instant::now();
        if clock.done(t) {
            break;
        }
        if release && t >= next_release {
            next_release = t + RELEASE_EVERY;
            session.release_history(newest.saturating_sub(RELEASE_LAG));
        }
        let reply = session.submit_update(cursor.next());
        let done = Instant::now();
        rec.record(
            &clock,
            done,
            (done - t).as_nanos() as u64,
            classify(&reply.outcome),
        );
        tracer.request("request.update", t, done);
        if reply.outcome.is_ok() {
            newest = newest.max(reply.version);
        }
    }
    let mut out = ThreadOut::new(tracer);
    out.updates = Some(rec);
    out
}

/// Which versions and vertices a reader asks about.
pub struct ReadTarget<'a> {
    /// Newest version known to be assigned (published by the writer).
    pub newest: &'a AtomicU64,
    pub vertices: u64,
    pub seed: u64,
    /// Advance this connection's release floor every [`RELEASE_EVERY`].
    pub release: bool,
}

impl ReadTarget<'_> {
    /// 80 % `get_value`, 20 % `get_modified_vertices`, at a version
    /// drawn uniformly from the newest [`READ_VERSION_WINDOW`].
    fn pick(&self, rng: &mut SplitMix) -> Request {
        let newest = self.newest.load(Ordering::Relaxed);
        let version = newest - rng.below(READ_VERSION_WINDOW.min(newest + 1));
        if rng.below(5) == 0 {
            Request::GetModified { algo: 0, version }
        } else {
            Request::GetValue {
                algo: 0,
                version,
                vertex: rng.below(self.vertices),
            }
        }
    }
}

/// Closed loop of versioned reads over TCP, `window` in flight.
pub fn reader_tcp(
    addr: SocketAddr,
    window: usize,
    target: ReadTarget<'_>,
    gate: &StartGate,
    trace: TraceCfg,
) -> ThreadOut {
    let client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(e) => return ThreadOut::stillborn(gate, trace, format!("connect: {e}")),
    };
    let clock = gate.ready();
    let mut tracer = Tracer::new(trace);
    let mut rec = Recorder::new(clock.plan());
    let mut rng = SplitMix(target.seed);
    let mut inflight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(window);
    let mut fatal = None;
    let mut next_release = Instant::now() + RELEASE_EVERY;
    'run: loop {
        let now = Instant::now();
        if clock.done(now) {
            break;
        }
        if target.release && now >= next_release {
            next_release = now + RELEASE_EVERY;
            let floor = target
                .newest
                .load(Ordering::Relaxed)
                .saturating_sub(RELEASE_LAG);
            if let Err(e) = client.release_history(floor) {
                fatal = Some(format!("release_history: {e}"));
                break;
            }
        }
        while inflight.len() < window {
            let t = Instant::now();
            match client.send(&target.pick(&mut rng)) {
                Ok(id) => inflight.push_back((id, t)),
                Err(e) => {
                    fatal = Some(format!("send: {e}"));
                    break 'run;
                }
            }
        }
        let (id, t) = inflight.pop_front().expect("window ≥ 1");
        match client.wait(id) {
            Ok(resp) => {
                let done = Instant::now();
                rec.record(
                    &clock,
                    done,
                    (done - t).as_nanos() as u64,
                    classify_read(&resp),
                );
                tracer.request("request.read", t, done);
            }
            Err(e) => {
                fatal = Some(format!("wait: {e}"));
                break;
            }
        }
    }
    if fatal.is_none() {
        for (id, _) in inflight {
            if let Err(e) = client.wait(id) {
                fatal = Some(format!("drain: {e}"));
                break;
            }
        }
    }
    let mut out = ThreadOut::new(tracer);
    out.reads = Some(rec);
    out.fatal = fatal;
    out
}
