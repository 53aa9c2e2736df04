//! [`NetClient`]: the connection-side half of the wire protocol.
//!
//! One background reader thread demultiplexes response frames into
//! per-request slots keyed by request id; callers either block for
//! their reply immediately (the synchronous Table 1 methods) or keep a
//! window of requests in flight ([`NetClient::submit_update_pipelined`]
//! / [`NetClient::wait_reply`]) — the shape the `net_load` harness uses
//! to measure pipelined throughput against one-at-a-time submission.
//!
//! Connecting opens with a `Hello` exchange, the server's overload
//! gate; [`NetClient::open_session`] then multiplexes many logical
//! sessions ([`SessionHandle`]) over the one socket — each with its
//! own server-side ordering domain, all sharing the reader, the demux,
//! and the globally-unique request-id space (which is why responses
//! need no session tag). Leader and read replica answer the same way;
//! a replica refuses the requests that need the leader.
//!
//! Requests ride the wire in bursts. Every request is framed into one
//! per-connection out-buffer, and a send writes that buffer to the
//! socket at once unless all three hold: a delivered reply is waiting
//! for a caller to collect it, no caller is parked waiting for a reply,
//! and the buffer is under 64 KiB. Otherwise the bytes go out
//! with the first of: a wait that is about to park, the wait that
//! collects the last ready reply, a later send for which the three no
//! longer hold, [`NetClient::flush`], or dropping the client. A closed
//! loop that keeps a window in flight so pays one `write` per reply
//! burst rather than one per request, while a sender whose receiver has
//! caught up still writes each request as it is made. The reader thread
//! never writes: blocked in `write`, it would stop draining replies
//! while the server waits for its own output to drain.

use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use risgraph_common::hash::FxHashMap;
use risgraph_common::ids::{Edge, Update, VersionId, VertexId};
use risgraph_common::metrics::MetricValue;
use risgraph_common::protocol::{
    read_frame, write_frame, Request, Response, MAX_FRAME, MAX_RESPONSE_FRAME, PROTOCOL_VERSION,
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

/// Buffered request bytes are written once they reach this size, even
/// behind an uncollected reply.
const OUT_BUF_CAP: usize = 64 * 1024;

const SLOTS_POISONED: &str = "a caller panicked holding the reply slots";
const OUT_POISONED: &str = "a caller panicked holding the out-buffer";

/// Reply slots shared between callers and the demultiplexer thread,
/// and the request out-buffer whose writes the reply traffic paces.
///
/// Two pairs of flags close the windows in which buffered bytes could
/// be left behind with nobody to write them. In each pair both sides
/// write their own flag and then read the other's, all `SeqCst`, so at
/// least one of them sees the other:
/// - a send raises `unsent` and reads `parked`; a waiter about to park
///   raises `parked` and reads `unsent`;
/// - a send raises `unsent` and reads `uncollected`; the collector of
///   the last ready reply takes `uncollected` to zero and reads
///   `unsent`.
struct Demux {
    slots: Mutex<DemuxState>,
    cv: Condvar,
    /// Delivered replies no caller has collected yet (`ready.len()`,
    /// readable without the mutex).
    uncollected: AtomicUsize,
    /// Callers in [`Demux::wait`] that have announced they will park.
    parked: AtomicUsize,
    out: Mutex<OutBuf>,
    /// `out` holds bytes not yet written (readable without its mutex).
    unsent: AtomicBool,
}

/// Framed requests not yet written, and where they go.
struct OutBuf {
    bytes: Vec<u8>,
    sink: Box<dyn Write + Send>,
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
    fn new(sink: Box<dyn Write + Send>) -> Demux {
        Demux {
            slots: Mutex::new(DemuxState {
                ready: FxHashMap::default(),
                dead: None,
                waiters: 0,
            }),
            cv: Condvar::new(),
            uncollected: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            out: Mutex::new(OutBuf {
                bytes: Vec::new(),
                sink,
            }),
            unsent: AtomicBool::new(false),
        }
    }

    /// File a response under its request id and wake whoever waits.
    /// std's `Condvar::notify_all` is a `futex` syscall whether or not
    /// anyone listens, so it is issued only when a caller is parked: a
    /// caller that locks after this insert finds its response and never
    /// waits.
    fn deliver(&self, req_id: u64, resp: Response) {
        let mut s = self.slots.lock().expect(SLOTS_POISONED);
        if s.ready.insert(req_id, resp).is_none() {
            self.uncollected.fetch_add(1, Ordering::SeqCst);
        }
        let wake = s.waiters > 0;
        drop(s);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Fail every waiter with `reason` (the first reason given stays).
    fn fail(&self, reason: String) {
        self.slots
            .lock()
            .expect(SLOTS_POISONED)
            .dead
            .get_or_insert(reason);
        self.cv.notify_all();
    }

    /// Block until the response for `id` arrives (or the connection
    /// dies). Writes the out-buffer before parking, and after
    /// collecting the last ready reply.
    fn wait(&self, id: u64) -> Result<Response> {
        let mut s = self.slots.lock().expect(SLOTS_POISONED);
        let mut announced = false;
        let got = loop {
            if let Some(resp) = s.ready.remove(&id) {
                break Ok(resp);
            }
            if let Some(reason) = &s.dead {
                break Err(Error::Protocol(reason.clone()));
            }
            if !announced {
                // Announce the park, then look at the out-buffer once
                // more: bytes buffered before the look are written
                // here, a send after it finds `parked` up and writes
                // its own. Never write under the slots mutex — the
                // reader needs it to drain the replies a blocked write
                // may be waiting behind.
                announced = true;
                self.parked.fetch_add(1, Ordering::SeqCst);
                if self.unsent.load(Ordering::SeqCst) {
                    drop(s);
                    // A failed write fails the connection, which the
                    // next pass reports.
                    let _ = self.flush();
                    s = self.slots.lock().expect(SLOTS_POISONED);
                    continue;
                }
            }
            s.waiters += 1;
            #[cfg(test)]
            tests::before_wait();
            s = self.cv.wait(s).unwrap();
            s.waiters -= 1;
        };
        if announced {
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
        let emptied = got.is_ok() && self.uncollected.fetch_sub(1, Ordering::SeqCst) == 1;
        drop(s);
        // The collector that empties the ready set writes what was
        // buffered behind it; a send after the decrement finds the set
        // empty and writes its own.
        if emptied && self.unsent.load(Ordering::SeqCst) {
            let _ = self.flush();
        }
        #[cfg(test)]
        tests::after_collect();
        got
    }

    /// Frame `payload` into the out-buffer and write the buffer unless
    /// someone else will soon: a delivered reply is waiting for a
    /// caller (whose collection writes it), nobody is parked (a parked
    /// caller would not), and the buffer is under [`OUT_BUF_CAP`].
    fn send(&self, payload: &[u8]) -> Result<()> {
        let mut out = self.out.lock().expect(OUT_POISONED);
        // Writing into a Vec cannot fail.
        let _ = write_frame(&mut out.bytes, payload);
        self.unsent.store(true, Ordering::SeqCst);
        if out.bytes.len() < OUT_BUF_CAP
            && self.parked.load(Ordering::SeqCst) == 0
            && self.uncollected.load(Ordering::SeqCst) > 0
        {
            return Ok(());
        }
        self.write_out(&mut out)
    }

    /// Write whatever is buffered.
    fn flush(&self) -> Result<()> {
        if !self.unsent.load(Ordering::SeqCst) {
            return Ok(());
        }
        self.write_out(&mut self.out.lock().expect(OUT_POISONED))
    }

    /// Write and empty `out`. A failed write leaves the byte stream
    /// torn, so it fails the connection: every waiter gets the error
    /// rather than waiting on a request that never left.
    fn write_out(&self, out: &mut OutBuf) -> Result<()> {
        if out.bytes.is_empty() {
            return Ok(());
        }
        let written = out.sink.write_all(&out.bytes);
        out.bytes.clear();
        self.unsent.store(false, Ordering::SeqCst);
        written.map_err(|e| {
            let reason = format!("request write failed: {e}");
            self.fail(reason.clone());
            Error::Protocol(reason)
        })
    }
}

/// A blocking **and** pipelined client for one server connection.
pub struct NetClient {
    stream: TcpStream,
    demux: Arc<Demux>,
    reader: Option<JoinHandle<()>>,
    next_id: AtomicU64,
    /// Next wire session id for [`NetClient::open_session`]. Session
    /// ids are client-chosen; the server creates sessions lazily on
    /// first use, so opening is purely local.
    next_session: AtomicU64,
}

impl NetClient {
    /// Connect to a [`crate::NetServer`] (a leader, or a replica's
    /// read-only listener) and exchange `Hello`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| Error::Protocol(format!("connect failed: {e}")))?;
        let _ = stream.set_nodelay(true);
        let write_half = stream
            .try_clone()
            .map_err(|e| Error::Protocol(format!("clone failed: {e}")))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| Error::Protocol(format!("clone failed: {e}")))?;
        let demux = Arc::new(Demux::new(Box::new(write_half)));
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
                reader_demux.fail(reason);
            })
            .map_err(|e| Error::Protocol(format!("spawn reader: {e}")))?;
        let client = NetClient {
            stream,
            demux,
            reader: Some(reader),
            next_id: AtomicU64::new(1),
            next_session: AtomicU64::new(1),
        };
        match client.call(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::Hello {
                version: PROTOCOL_VERSION,
            } => Ok(client),
            // Admission gating: the server is shedding new clients.
            // Surface the typed retryable error.
            Response::Busy { cause, message } => Err(busy_err(cause, &message)),
            other => Err(Error::Protocol(format!(
                "hello reply is not protocol version {PROTOCOL_VERSION}: {other:?}"
            ))),
        }
    }

    /// The protocol version spoken on this connection: `connect`
    /// accepts no other.
    pub fn protocol_version(&self) -> u32 {
        PROTOCOL_VERSION
    }

    /// Open a logical session multiplexed over this connection. Each
    /// session gets its own server-side ordering domain (updates within
    /// a session keep program order, replies across sessions may
    /// overtake). Opening is local and never fails.
    pub fn open_session(&self) -> Result<SessionHandle<'_>> {
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
        self.demux.send(&payload)?;
        Ok(id)
    }

    /// Send `req`, returning its request id without waiting.
    ///
    /// The request reaches the socket before this returns unless a
    /// delivered reply is still waiting to be collected, no caller is
    /// parked in a wait, and the out-buffer is under 64 KiB. Then it
    /// is buffered, and written by the next wait that parks or
    /// that collects the last ready reply, by a later send that is
    /// written, by [`NetClient::flush`], or when the client drops.
    pub fn send(&self, req: &Request) -> Result<u64> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.send_payload(id, req.encode(id))
    }

    /// Send `req` wrapped in session `sid`, returning its request id.
    fn send_in_session(&self, req: &Request, sid: u64) -> Result<u64> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.send_payload(id, req.encode_in_session(id, sid))
    }

    /// Block until the response for `id` arrives. Writes any buffered
    /// requests before it parks.
    pub fn wait(&self, id: u64) -> Result<Response> {
        self.demux.wait(id)
    }

    /// Write every buffered request to the socket now. Needed only by a
    /// caller that will neither wait nor send again for a while but
    /// wants the server to see what it sent (see [`NetClient::send`]).
    pub fn flush(&self) -> Result<()> {
        self.demux.flush()
    }

    fn call(&self, req: &Request) -> Result<Response> {
        let id = self.send(req)?;
        self.wait(id)
    }

    // -- pipelined update path ---------------------------------------

    /// Submit an update without waiting; pair with
    /// [`NetClient::wait_reply`] to collect it later. Keep several in
    /// flight to pipeline the connection. Reaches the socket when
    /// [`NetClient::send`] says: at once, or with the burst the next
    /// wait writes.
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

/// One logical session multiplexed over a [`NetClient`] connection.
/// Sessions share the socket, reader thread, and request-id space;
/// each owns its server-side submission order.
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
    /// [`SessionHandle::wait_reply`]. Written to the socket as
    /// [`NetClient::send`] says.
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
        let _ = self.demux.flush();
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

    thread_local! {
        /// Runs once on this thread as a wait returns, after a
        /// collector's last look at the out-buffer.
        static AFTER_COLLECT: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn before_wait() {
        if let Some(hook) = BEFORE_WAIT.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    pub(super) fn after_collect() {
        if let Some(hook) = AFTER_COLLECT.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    fn demux() -> Arc<Demux> {
        Arc::new(Demux::new(Box::new(std::io::sink())))
    }

    /// A sink that hands every write to the test, which plays the peer.
    struct Wire(std::sync::mpsc::Sender<Vec<u8>>);

    impl Write for Wire {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let _ = self.0.send(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A demux writing into a [`Wire`], with one delivered reply (id 1)
    /// left uncollected, so a send is buffered unless a waiter parks.
    fn wired() -> (Arc<Demux>, std::sync::mpsc::Receiver<Vec<u8>>) {
        let (tx, rx) = channel();
        let demux = Arc::new(Demux::new(Box::new(Wire(tx))));
        demux.deliver(1, Response::Released);
        (demux, rx)
    }

    fn request(id: u64) -> Vec<u8> {
        Request::CurrentVersion.encode(id)
    }

    const PATIENCE: Duration = Duration::from_secs(10);

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

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, payload).unwrap();
        bytes
    }

    /// Parking, send side: a send made after a waiter announced its park
    /// and took its last look at the out-buffer must find `parked` up
    /// and write at once, since the waiter will not. Red (the request
    /// never reaches the wire, the waiter never returns) with the send's
    /// read of `parked` removed.
    #[test]
    fn a_send_behind_a_parked_waiter_is_written_at_once() {
        let (demux, wire) = wired();
        let (got_tx, got_rx) = channel();
        let waiter = {
            let demux = Arc::clone(&demux);
            std::thread::spawn(move || {
                let sender = Arc::clone(&demux);
                BEFORE_WAIT.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        std::thread::spawn(move || sender.send(&request(2)).unwrap())
                            .join()
                            .unwrap();
                    }));
                });
                got_tx.send(demux.wait(2)).unwrap();
            })
        };
        // Play the server: answer request 2 once its bytes arrive.
        let bytes = wire
            .recv_timeout(PATIENCE)
            .expect("lost flush: a send stayed buffered behind a parked waiter");
        assert_eq!(bytes, framed(&request(2)));
        demux.deliver(2, Response::Version(5));
        let got = got_rx
            .recv_timeout(PATIENCE)
            .expect("the waiter never returned");
        assert!(matches!(got, Ok(Response::Version(5))));
        waiter.join().unwrap();
    }

    /// Parking, waiter side: a send made before the waiter announced its
    /// park finds nobody parked and stays buffered behind the
    /// uncollected reply, so the waiter's look after its announcement
    /// must write it. Red (nothing reaches the wire) with that look
    /// removed.
    #[test]
    fn a_wait_about_to_park_writes_the_buffer() {
        let (demux, wire) = wired();
        demux.send(&request(2)).unwrap();
        assert!(wire.try_recv().is_err(), "buffered behind reply 1");
        let waiter = {
            let demux = Arc::clone(&demux);
            std::thread::spawn(move || demux.wait(2))
        };
        let bytes = wire
            .recv_timeout(PATIENCE)
            .expect("lost flush: the waiter parked on its own buffered request");
        assert_eq!(bytes, framed(&request(2)));
        demux.deliver(2, Response::Version(5));
        assert!(matches!(waiter.join().unwrap(), Ok(Response::Version(5))));
    }

    /// Collecting, send side: a send made after the last ready reply
    /// was collected, and after the collector's last look at the
    /// out-buffer, must find nothing uncollected and write at once.
    /// Red with the send's read of `uncollected` removed.
    #[test]
    fn a_send_after_the_last_collection_is_written_at_once() {
        let (demux, wire) = wired();
        let sender = Arc::clone(&demux);
        AFTER_COLLECT.with(|h| {
            *h.borrow_mut() = Some(Box::new(move || {
                std::thread::spawn(move || sender.send(&request(2)).unwrap())
                    .join()
                    .unwrap();
            }));
        });
        assert!(matches!(demux.wait(1), Ok(Response::Released)));
        let bytes = wire
            .try_recv()
            .expect("lost flush: a send stayed buffered with nothing left to collect");
        assert_eq!(bytes, framed(&request(2)));
    }

    /// Collecting, collector side: sends made while a reply waits to be
    /// collected stay buffered, and the wait that collects that last
    /// ready reply writes them, in one write. Red with the collector's
    /// look at `unsent` removed.
    #[test]
    fn collecting_the_last_ready_reply_writes_the_buffer() {
        let (demux, wire) = wired();
        demux.send(&request(2)).unwrap();
        demux.send(&request(3)).unwrap();
        assert!(wire.try_recv().is_err(), "buffered behind reply 1");
        assert!(matches!(demux.wait(1), Ok(Response::Released)));
        let mut burst = framed(&request(2));
        burst.extend(framed(&request(3)));
        let bytes = wire
            .try_recv()
            .expect("lost flush: the last collection left the buffer behind");
        assert_eq!(bytes, burst);
    }

    /// Behind an uncollected reply with nobody parked, the buffer is
    /// still written by the send that takes it to [`OUT_BUF_CAP`].
    #[test]
    fn a_full_out_buffer_is_written_without_a_wait() {
        let (demux, wire) = wired();
        let mut buffered = 0;
        for id in 2.. {
            demux.send(&request(id)).unwrap();
            let frame = framed(&request(id)).len();
            buffered += frame;
            if let Ok(bytes) = wire.try_recv() {
                assert_eq!(bytes.len(), buffered);
                assert!(buffered >= OUT_BUF_CAP && buffered - frame < OUT_BUF_CAP);
                return;
            }
            assert!(buffered < OUT_BUF_CAP, "{buffered} bytes held back");
        }
    }
}
