//! [`NetClient`]: the connection-side half of the wire protocol.
//!
//! One background reader thread demultiplexes response frames into
//! per-request slots keyed by request id; callers either block for
//! their reply immediately (the synchronous Table 1 methods) or keep a
//! window of requests in flight ([`NetClient::submit_update_pipelined`]
//! / [`NetClient::wait_reply`]) — the shape the `net_load` harness uses
//! to measure pipelined throughput against one-at-a-time submission.
//!
//! Connecting negotiates the protocol version with a `Hello` exchange;
//! against a v2 server, [`NetClient::open_session`] multiplexes many
//! logical sessions ([`SessionHandle`]) over the one socket — each
//! with its own server-side ordering domain, all sharing the reader,
//! the demux, and the globally-unique request-id space (which is why
//! responses need no session tag).

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use risgraph_common::hash::FxHashMap;
use risgraph_common::ids::{Edge, Update, VersionId, VertexId};
use risgraph_common::metrics::MetricValue;
use risgraph_common::protocol::{
    read_frame, write_frame, Request, Response, StatsReport, MAX_FRAME, MAX_RESPONSE_FRAME,
    PROTOCOL_VERSION,
};
use risgraph_common::{Error, Result};

/// What an applied update reports back (the wire view of
/// [`risgraph_core::server::Applied`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetApplied {
    /// Whether the update ran on the safe (parallel) path.
    pub safe: bool,
    /// Per-vertex result changes across all algorithms.
    pub result_changes: u64,
}

/// The reply to a submitted update or transaction (the wire view of
/// [`risgraph_core::server::Reply`]).
#[derive(Debug)]
pub struct NetReply {
    /// Version id of the result view after this operation (on error:
    /// the version preceding the failed operation).
    pub version: VersionId,
    /// Outcome.
    pub outcome: Result<NetApplied>,
}

/// Reply slots shared between callers and the demultiplexer thread.
struct Demux {
    slots: Mutex<DemuxState>,
    cv: Condvar,
}

struct DemuxState {
    /// `req_id → Some(response)` once arrived; `None` while pending.
    ready: FxHashMap<u64, Response>,
    /// Set when the reader thread dies (EOF, socket error, protocol
    /// violation); every waiter is failed with this.
    dead: Option<String>,
    /// Callers inside `Condvar::wait` (or committed to entering it:
    /// raised with the mutex held, and the wait releases the mutex
    /// atomically).
    waiters: usize,
}

impl Demux {
    /// File a response under its request id and wake whoever waits.
    /// std's `Condvar::notify_all` is a `futex` syscall whether or not
    /// anyone listens, so it is issued only when a caller is parked: a
    /// caller that locks after this insert finds its response and never
    /// waits.
    fn deliver(&self, req_id: u64, resp: Response) {
        let mut s = self.slots.lock().unwrap();
        s.ready.insert(req_id, resp);
        let wake = s.waiters > 0;
        drop(s);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Block until the response for `id` arrives (or the reader dies).
    fn wait(&self, id: u64) -> Result<Response> {
        let mut s = self.slots.lock().unwrap();
        loop {
            if let Some(resp) = s.ready.remove(&id) {
                return Ok(resp);
            }
            if let Some(reason) = &s.dead {
                return Err(Error::Protocol(reason.clone()));
            }
            s.waiters += 1;
            #[cfg(test)]
            tests::before_wait();
            s = self.cv.wait(s).unwrap();
            s.waiters -= 1;
        }
    }
}

/// A blocking **and** pipelined client for one server connection.
pub struct NetClient {
    writer: Mutex<BufWriter<TcpStream>>,
    stream: TcpStream,
    demux: Arc<Demux>,
    reader: Option<JoinHandle<()>>,
    next_id: AtomicU64,
    /// Negotiated protocol version (1 = no session multiplexing).
    proto_version: u32,
    /// Next wire session id for [`NetClient::open_session`]. Session
    /// ids are client-chosen; the server creates sessions lazily on
    /// first use, so opening is purely local.
    next_session: AtomicU64,
}

impl NetClient {
    /// Connect to a [`crate::NetServer`], negotiating the highest
    /// protocol version both sides speak.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient> {
        Self::connect_with_version(addr, PROTOCOL_VERSION)
    }

    /// Connect offering at most protocol version `max_version`.
    /// `max_version = 1` skips the `Hello` exchange entirely —
    /// byte-for-byte the pre-v2 client, for wire-compat tests.
    pub fn connect_with_version(addr: impl ToSocketAddrs, max_version: u32) -> Result<NetClient> {
        let mut client = Self::connect_raw(addr)?;
        if max_version >= 2 {
            client.proto_version = match client.call(&Request::Hello {
                version: max_version,
            })? {
                Response::Hello { version } => version.clamp(1, max_version),
                // Admission gating: the server is shedding new
                // sessions. Surface the typed retryable error — never
                // silently downgrade to v1, the peer clearly speaks v2.
                Response::Busy { cause, message } => {
                    return Err(busy_err(cause, &message));
                }
                // A peer that refuses Hello still speaks v1 (e.g. a
                // replica predating negotiation); stay unwrapped.
                Response::Failed { .. } => 1,
                other => {
                    return Err(Error::Protocol(format!(
                        "hello reply has wrong shape: {other:?}"
                    )))
                }
            };
        }
        Ok(client)
    }

    fn connect_raw(addr: impl ToSocketAddrs) -> Result<NetClient> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| Error::Protocol(format!("connect failed: {e}")))?;
        let _ = stream.set_nodelay(true);
        let write_half = stream
            .try_clone()
            .map_err(|e| Error::Protocol(format!("clone failed: {e}")))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| Error::Protocol(format!("clone failed: {e}")))?;
        let demux = Arc::new(Demux {
            slots: Mutex::new(DemuxState {
                ready: FxHashMap::default(),
                dead: None,
                waiters: 0,
            }),
            cv: Condvar::new(),
        });
        let reader_demux = Arc::clone(&demux);
        let reader = std::thread::Builder::new()
            .name("risgraph-net-client-reader".into())
            .spawn(move || {
                let mut r = BufReader::new(read_half);
                let reason = loop {
                    match read_frame(&mut r, MAX_RESPONSE_FRAME) {
                        Ok(Some(payload)) => match Response::decode(&payload) {
                            // Request id 0 is the server's reserved
                            // connection-level error channel (framing
                            // violations): no caller can wait on it, so
                            // surface it as the death reason every
                            // in-flight waiter sees.
                            Ok((0, Response::Failed { error, .. })) => {
                                break format!(
                                    "server closed the connection: {}",
                                    error.to_error()
                                );
                            }
                            // Defensive twin of the above: an id-0
                            // Busy (connection-level shed/eviction) is
                            // also a death sentence for every waiter.
                            Ok((0, Response::Busy { cause, message })) => {
                                break format!(
                                    "server closed the connection: {}",
                                    busy_err(cause, &message)
                                );
                            }
                            Ok((req_id, resp)) => reader_demux.deliver(req_id, resp),
                            Err(e) => break e.to_string(),
                        },
                        Ok(None) => break "connection closed by server".into(),
                        Err(e) => break e.to_string(),
                    }
                };
                let mut s = reader_demux.slots.lock().unwrap();
                s.dead = Some(reason);
                drop(s);
                reader_demux.cv.notify_all();
            })
            .map_err(|e| Error::Protocol(format!("spawn reader: {e}")))?;
        Ok(NetClient {
            writer: Mutex::new(BufWriter::new(write_half)),
            stream,
            demux,
            reader: Some(reader),
            next_id: AtomicU64::new(1),
            proto_version: 1,
            next_session: AtomicU64::new(1),
        })
    }

    /// The protocol version negotiated at connect (1 when the peer
    /// does not speak sessions).
    pub fn protocol_version(&self) -> u32 {
        self.proto_version
    }

    /// Open a logical session multiplexed over this connection.
    /// Requires a v2 peer; each session gets its own server-side
    /// ordering domain (updates within a session keep program order,
    /// replies across sessions may overtake).
    pub fn open_session(&self) -> Result<SessionHandle<'_>> {
        if self.proto_version < 2 {
            return Err(Error::Protocol(format!(
                "peer speaks protocol v{}: session multiplexing needs v2",
                self.proto_version
            )));
        }
        Ok(SessionHandle {
            client: self,
            sid: self.next_session.fetch_add(1, Ordering::Relaxed),
        })
    }

    fn send_payload(&self, id: u64, payload: Vec<u8>) -> Result<u64> {
        // Refuse locally what the server would reject as oversized —
        // failing one request beats having the whole connection (and
        // every other pipelined request on it) torn down.
        if payload.len() > MAX_FRAME {
            return Err(Error::Protocol(format!(
                "request encodes to {} bytes, over the {MAX_FRAME}-byte frame limit",
                payload.len()
            )));
        }
        let mut w = self.writer.lock().unwrap();
        write_frame(&mut *w, &payload)?;
        w.flush()?;
        Ok(id)
    }

    /// Send `req`, returning its request id without waiting.
    pub fn send(&self, req: &Request) -> Result<u64> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.send_payload(id, req.encode(id))
    }

    /// Send `req` wrapped in session `sid`, returning its request id.
    fn send_in_session(&self, req: &Request, sid: u64) -> Result<u64> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.send_payload(id, req.encode_in_session(id, sid))
    }

    /// Block until the response for `id` arrives.
    pub fn wait(&self, id: u64) -> Result<Response> {
        self.demux.wait(id)
    }

    fn call(&self, req: &Request) -> Result<Response> {
        let id = self.send(req)?;
        self.wait(id)
    }

    // -- pipelined update path ---------------------------------------

    /// Submit an update without waiting; pair with
    /// [`NetClient::wait_reply`] to collect it later. Keep several in
    /// flight to pipeline the connection.
    pub fn submit_update_pipelined(&self, u: &Update) -> Result<u64> {
        self.send(&Request::Update(*u))
    }

    /// Wait for a pipelined update submitted earlier.
    pub fn wait_reply(&self, id: u64) -> Result<NetReply> {
        to_net_reply(self.wait(id)?)
    }

    // -- blocking Table 1 surface ------------------------------------

    /// Submit one update and wait for its reply.
    pub fn submit_update(&self, u: &Update) -> Result<NetReply> {
        let id = self.submit_update_pipelined(u)?;
        self.wait_reply(id)
    }

    /// `ins_edge(edge) → version_id`.
    pub fn ins_edge(&self, e: Edge) -> Result<NetReply> {
        self.submit_update(&Update::InsEdge(e))
    }

    /// `del_edge(edge) → version_id`.
    pub fn del_edge(&self, e: Edge) -> Result<NetReply> {
        self.submit_update(&Update::DelEdge(e))
    }

    /// `ins_vertex(vertex_id) → version_id`.
    pub fn ins_vertex(&self, v: VertexId) -> Result<NetReply> {
        self.submit_update(&Update::InsVertex(v))
    }

    /// `del_vertex(vertex_id) → version_id`.
    pub fn del_vertex(&self, v: VertexId) -> Result<NetReply> {
        self.submit_update(&Update::DelVertex(v))
    }

    /// `txn_updates(updates) → version_id`: an atomic batch.
    pub fn txn_updates(&self, updates: Vec<Update>) -> Result<NetReply> {
        to_net_reply(self.call(&Request::Txn(updates))?)
    }

    /// `get_value(version_id, vertex_id) → value` for algorithm `algo`.
    pub fn get_value(&self, algo: u32, version: VersionId, vertex: VertexId) -> Result<u64> {
        match self.call(&Request::GetValue {
            algo,
            version,
            vertex,
        })? {
            Response::Value(v) => Ok(v),
            Response::Failed { error, .. } => Err(error.to_error()),
            Response::Busy { cause, message } => Err(busy_err(cause, &message)),
            other => Err(Error::Protocol(format!(
                "get_value reply has wrong shape: {other:?}"
            ))),
        }
    }

    /// `get_parent(version_id, vertex_id) → edge`.
    pub fn get_parent(
        &self,
        algo: u32,
        version: VersionId,
        vertex: VertexId,
    ) -> Result<Option<Edge>> {
        match self.call(&Request::GetParent {
            algo,
            version,
            vertex,
        })? {
            Response::Parent(p) => Ok(p),
            Response::Failed { error, .. } => Err(error.to_error()),
            Response::Busy { cause, message } => Err(busy_err(cause, &message)),
            other => Err(Error::Protocol(format!(
                "get_parent reply has wrong shape: {other:?}"
            ))),
        }
    }

    /// `get_modified_vertices(version_id) → vertex_ids`.
    pub fn get_modified_vertices(&self, algo: u32, version: VersionId) -> Result<Vec<VertexId>> {
        match self.call(&Request::GetModified { algo, version })? {
            Response::Modified(vs) => Ok(vs),
            Response::Failed { error, .. } => Err(error.to_error()),
            Response::Busy { cause, message } => Err(busy_err(cause, &message)),
            other => Err(Error::Protocol(format!(
                "get_modified reply has wrong shape: {other:?}"
            ))),
        }
    }

    /// `get_current_version() → version_id`.
    pub fn current_version(&self) -> Result<VersionId> {
        match self.call(&Request::CurrentVersion)? {
            Response::Version(v) => Ok(v),
            Response::Failed { error, .. } => Err(error.to_error()),
            Response::Busy { cause, message } => Err(busy_err(cause, &message)),
            other => Err(Error::Protocol(format!(
                "current_version reply has wrong shape: {other:?}"
            ))),
        }
    }

    /// `release_history(version_id)`: this connection's session no
    /// longer needs snapshots strictly older than `version`.
    pub fn release_history(&self, version: VersionId) -> Result<()> {
        match self.call(&Request::Release(version))? {
            Response::Released => Ok(()),
            Response::Failed { error, .. } => Err(error.to_error()),
            Response::Busy { cause, message } => Err(busy_err(cause, &message)),
            other => Err(Error::Protocol(format!(
                "release reply has wrong shape: {other:?}"
            ))),
        }
    }

    /// Server counters and completion-latency percentiles.
    pub fn stats(&self) -> Result<StatsReport> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Failed { error, .. } => Err(error.to_error()),
            Response::Busy { cause, message } => Err(busy_err(cause, &message)),
            other => Err(Error::Protocol(format!(
                "stats reply has wrong shape: {other:?}"
            ))),
        }
    }

    /// The server's full metrics-registry snapshot: every named
    /// counter, gauge and histogram summary, sorted by name. Schema-
    /// less — entries with kinds this client build doesn't know are
    /// skipped during decoding, so new server metrics never break an
    /// old client.
    pub fn metrics(&self) -> Result<Vec<(String, MetricValue)>> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(m) => Ok(m),
            Response::Failed { error, .. } => Err(error.to_error()),
            Response::Busy { cause, message } => Err(busy_err(cause, &message)),
            other => Err(Error::Protocol(format!(
                "metrics reply has wrong shape: {other:?}"
            ))),
        }
    }
}

/// A shed reply as the typed, retryable [`Error::Busy`] — callers can
/// match [`Error::is_busy`] and resubmit after backoff.
fn busy_err(cause: risgraph_common::protocol::BusyCause, message: &str) -> Error {
    Error::Busy(format!("{cause}: {message}"))
}

/// Translate an update/txn [`Response`] into a [`NetReply`].
fn to_net_reply(resp: Response) -> Result<NetReply> {
    match resp {
        Response::Applied {
            version,
            safe,
            result_changes,
        } => Ok(NetReply {
            version,
            outcome: Ok(NetApplied {
                safe,
                result_changes,
            }),
        }),
        Response::Failed { version, error } => Ok(NetReply {
            version,
            outcome: Err(error.to_error()),
        }),
        // Admission shed: the update was never admitted (no version
        // was consumed — `version` reports 0), and a retry after
        // backoff is safe.
        Response::Busy { cause, message } => Ok(NetReply {
            version: 0,
            outcome: Err(busy_err(cause, &message)),
        }),
        other => Err(Error::Protocol(format!(
            "update reply has wrong shape: {other:?}"
        ))),
    }
}

/// One logical session multiplexed over a [`NetClient`] connection
/// (protocol v2). Sessions share the socket, reader thread, and
/// request-id space; each owns its server-side submission order.
/// Dropping the handle is free — the server releases its session state
/// when the connection closes.
pub struct SessionHandle<'a> {
    client: &'a NetClient,
    sid: u64,
}

impl std::fmt::Debug for SessionHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("sid", &self.sid)
            .finish()
    }
}

impl SessionHandle<'_> {
    /// This session's wire id (unique per connection).
    pub fn id(&self) -> u64 {
        self.sid
    }

    fn call(&self, req: &Request) -> Result<Response> {
        let id = self.client.send_in_session(req, self.sid)?;
        self.client.wait(id)
    }

    /// Submit an update on this session without waiting; pair with
    /// [`SessionHandle::wait_reply`].
    pub fn submit_update_pipelined(&self, u: &Update) -> Result<u64> {
        self.client.send_in_session(&Request::Update(*u), self.sid)
    }

    /// Wait for a pipelined update submitted earlier on this client.
    pub fn wait_reply(&self, id: u64) -> Result<NetReply> {
        self.client.wait_reply(id)
    }

    /// Submit one update on this session and wait for its reply.
    pub fn submit_update(&self, u: &Update) -> Result<NetReply> {
        let id = self.submit_update_pipelined(u)?;
        self.wait_reply(id)
    }

    /// `txn_updates(updates) → version_id`: an atomic batch on this
    /// session.
    pub fn txn_updates(&self, updates: Vec<Update>) -> Result<NetReply> {
        to_net_reply(self.call(&Request::Txn(updates))?)
    }

    /// `get_value(version_id, vertex_id) → value` for algorithm `algo`.
    pub fn get_value(&self, algo: u32, version: VersionId, vertex: VertexId) -> Result<u64> {
        match self.call(&Request::GetValue {
            algo,
            version,
            vertex,
        })? {
            Response::Value(v) => Ok(v),
            Response::Failed { error, .. } => Err(error.to_error()),
            Response::Busy { cause, message } => Err(busy_err(cause, &message)),
            other => Err(Error::Protocol(format!(
                "get_value reply has wrong shape: {other:?}"
            ))),
        }
    }

    /// `get_parent(version_id, vertex_id) → edge`.
    pub fn get_parent(
        &self,
        algo: u32,
        version: VersionId,
        vertex: VertexId,
    ) -> Result<Option<Edge>> {
        match self.call(&Request::GetParent {
            algo,
            version,
            vertex,
        })? {
            Response::Parent(p) => Ok(p),
            Response::Failed { error, .. } => Err(error.to_error()),
            Response::Busy { cause, message } => Err(busy_err(cause, &message)),
            other => Err(Error::Protocol(format!(
                "get_parent reply has wrong shape: {other:?}"
            ))),
        }
    }

    /// `get_modified_vertices(version_id) → vertex_ids`.
    pub fn get_modified_vertices(&self, algo: u32, version: VersionId) -> Result<Vec<VertexId>> {
        match self.call(&Request::GetModified { algo, version })? {
            Response::Modified(vs) => Ok(vs),
            Response::Failed { error, .. } => Err(error.to_error()),
            Response::Busy { cause, message } => Err(busy_err(cause, &message)),
            other => Err(Error::Protocol(format!(
                "get_modified reply has wrong shape: {other:?}"
            ))),
        }
    }

    /// `release_history(version_id)` for this session's history hold.
    pub fn release_history(&self, version: VersionId) -> Result<()> {
        match self.call(&Request::Release(version))? {
            Response::Released => Ok(()),
            Response::Failed { error, .. } => Err(error.to_error()),
            Response::Busy { cause, message } => Err(busy_err(cause, &message)),
            other => Err(Error::Protocol(format!(
                "release reply has wrong shape: {other:?}"
            ))),
        }
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    thread_local! {
        /// Runs once on this thread between a waiter's "not here yet"
        /// check (`waiters` already raised, mutex held) and its
        /// `Condvar` wait, so a test can start the reader's delivery in
        /// that gap.
        static BEFORE_WAIT: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn before_wait() {
        if let Some(hook) = BEFORE_WAIT.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    fn demux() -> Arc<Demux> {
        Arc::new(Demux {
            slots: Mutex::new(DemuxState {
                ready: FxHashMap::default(),
                dead: None,
                waiters: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// A response delivered while its caller sits between the empty
    /// check and the wait must still wake it: the delivery reaches the
    /// mutex either while the caller holds it or after the wait let it
    /// go, and finds `waiters` raised both times. Red (hangs, then
    /// fails) with the raise removed.
    #[test]
    fn delivery_in_the_wait_window_reaches_the_waiter() {
        let demux = demux();
        let (in_window_tx, in_window_rx) = channel();
        let (acting_tx, acting_rx) = channel::<()>();
        let (got_tx, got_rx) = channel();
        let waiter = {
            let demux = Arc::clone(&demux);
            std::thread::spawn(move || {
                BEFORE_WAIT.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        in_window_tx.send(()).unwrap();
                        acting_rx.recv().unwrap();
                        // Let the reader get as far as the mutex this
                        // thread is holding.
                        for _ in 0..64 {
                            std::thread::yield_now();
                        }
                    }));
                });
                got_tx.send(demux.wait(7)).unwrap();
            })
        };
        in_window_rx.recv().unwrap();
        let reader = {
            let demux = Arc::clone(&demux);
            std::thread::spawn(move || {
                acting_tx.send(()).unwrap();
                demux.deliver(7, Response::Released);
            })
        };
        let got = got_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("lost wake-up: the waiter never returned");
        assert!(matches!(got, Ok(Response::Released)));
        waiter.join().unwrap();
        reader.join().unwrap();
        assert_eq!(demux.slots.lock().unwrap().waiters, 0);
    }

    /// With nobody parked a delivery is filed and found by the next
    /// caller without any waiting.
    #[test]
    fn delivery_before_the_wait_is_found_without_waiting() {
        let demux = demux();
        demux.deliver(3, Response::Version(9));
        assert!(matches!(demux.wait(3), Ok(Response::Version(9))));
    }
}
