//! The RisGraph wire protocol: the binary request/response vocabulary
//! spoken between `NetClient` and `NetServer` (`crates/net`).
//!
//! Every message travels in one **frame**:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! `crc` is the CRC32 ([`crate::crc`]) of the payload, so a torn or
//! corrupted frame is detected before it is interpreted — the same
//! discipline the write-ahead log applies to records. `len` is bounded
//! by a receiver-chosen maximum ([`MAX_FRAME`] by default); anything
//! larger is rejected *before* allocation, so a hostile or broken peer
//! cannot balloon server memory.
//!
//! A payload is `[req_id: u64 LE] [opcode: u8] [body…]`. The request id
//! is chosen by the client (ids start at 1; **id 0 is reserved** for
//! server-initiated connection-level errors, e.g. a framing violation
//! that cannot be attributed to any request) and echoed verbatim in
//! the response, which
//! is what makes **pipelining** work: a client may keep many requests
//! in flight on one connection, and responses — which may complete out
//! of order across the server's safe/unsafe epoch machinery — are
//! matched back by id, not by position. Responses are self-describing
//! (their opcode encodes the body shape), so a demultiplexer needs no
//! per-request context to decode them.
//!
//! Any request body may carry a **session wrapper** (`[0x51] [sid:
//! u64 LE]` between the request id and the inner opcode, see
//! [`Request::InSession`]): the session id names a logical client session, so one TCP connection
//! multiplexes many independently-ordered update streams. Responses
//! are *not* wrapped — request ids are unique per connection, so the
//! demultiplexer needs no session tag.
//!
//! The request vocabulary mirrors the paper's Interactive API (Table 1)
//! exactly: `ins_edge`/`del_edge`/`ins_vertex`/`del_vertex`,
//! `txn_updates`, `get_value`/`get_parent`/`get_modified_vertices`/
//! `get_current_version`, `release_history`, plus a `metrics` probe
//! returning the server's metrics registry.
//!
//! **Replication** rides the same framing: a follower sends one
//! [`Request::Subscribe`] naming the next feed record it needs, and the
//! connection switches into a one-way stream of [`Response::WalEpoch`]
//! frames (the leader's merged, stamp-sorted epoch records, see
//! [`FeedRecord`]) interleaved with [`Response::Heartbeat`] liveness
//! probes when the follower is caught up — all echoing the subscribe
//! request id. Records are explicitly indexed, so a follower that
//! reconnects after any fault resumes exactly where it left off and
//! drops duplicates idempotently.
//!
//! Everything here is pure bytes ↔ types; socket handling lives in
//! `crates/net`.

use std::io::{Read, Write};

use crate::crc::crc32;
use crate::ids::{Edge, Update, VersionId, VertexId};
use crate::metrics::{HistogramSummary, MetricValue};
use crate::{Error, Result};

/// Default upper bound on a frame's payload length (1 MiB): far above
/// any legitimate message (a maximal transaction), far below anything
/// that could hurt the server.
pub const MAX_FRAME: usize = 1 << 20;

/// Upper bound on a *response* frame's payload: responses carrying
/// modification lists scale with the affected area, so clients accept
/// more than they may send. Servers refuse to emit anything larger
/// (failing that one request) rather than desync the connection.
pub const MAX_RESPONSE_FRAME: usize = 8 * MAX_FRAME;

/// Bytes of frame header preceding the payload (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// The protocol version this build speaks — the only one.
///
/// Any request may be wrapped in [`Request::InSession`], tagging it
/// with a client-chosen logical session id so one TCP connection
/// carries many independently-ordered update streams. A client opens
/// with [`Request::Hello`]; the server answers [`Response::Hello`]
/// carrying this version, or [`Response::Busy`] when it is over its
/// high-water mark. The exchange is the connect-time overload gate:
/// nothing else depends on it.
pub const PROTOCOL_VERSION: u32 = 2;

// Request opcodes.
const OP_INS_EDGE: u8 = 0x01;
const OP_DEL_EDGE: u8 = 0x02;
const OP_INS_VERTEX: u8 = 0x03;
const OP_DEL_VERTEX: u8 = 0x04;
const OP_TXN: u8 = 0x05;
const OP_GET_VALUE: u8 = 0x10;
const OP_GET_PARENT: u8 = 0x11;
const OP_GET_MODIFIED: u8 = 0x12;
const OP_CURRENT_VERSION: u8 = 0x13;
const OP_RELEASE: u8 = 0x20;
const OP_METRICS: u8 = 0x31;
const OP_SUBSCRIBE: u8 = 0x40;
const OP_HELLO: u8 = 0x50;
const OP_SESSION: u8 = 0x51;

// Response opcodes.
const RE_APPLIED: u8 = 0x81;
const RE_FAILED: u8 = 0x82;
const RE_VALUE: u8 = 0x83;
const RE_PARENT: u8 = 0x84;
const RE_MODIFIED: u8 = 0x85;
const RE_VERSION: u8 = 0x86;
const RE_RELEASED: u8 = 0x87;
const RE_METRICS: u8 = 0x89;
const RE_WAL_EPOCH: u8 = 0x90;
const RE_HEARTBEAT: u8 = 0x91;
const RE_SNAPSHOT_CHUNK: u8 = 0x92;
const RE_SNAPSHOT_DONE: u8 = 0x93;
const RE_HELLO: u8 = 0x94;
const RE_BUSY: u8 = 0x95;

// Metric-entry kind tags inside a [`Response::Metrics`] body. Each
// entry carries an explicit byte length, so a decoder skips kinds it
// does not know (added by a newer server) instead of failing.
const METRIC_KIND_COUNTER: u8 = 1;
const METRIC_KIND_GAUGE: u8 = 2;
const METRIC_KIND_HISTOGRAM: u8 = 3;

/// A client → server message (one per frame, after the request id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// One graph update (Table 1's four mutating calls).
    Update(Update),
    /// An atomic write-only transaction (`txn_updates`).
    Txn(Vec<Update>),
    /// `get_value(version, vertex)` for algorithm `algo`.
    GetValue {
        /// Maintained-algorithm index.
        algo: u32,
        /// Snapshot version to read.
        version: VersionId,
        /// Vertex whose value is requested.
        vertex: VertexId,
    },
    /// `get_parent(version, vertex)` for algorithm `algo`.
    GetParent {
        /// Maintained-algorithm index.
        algo: u32,
        /// Snapshot version to read.
        version: VersionId,
        /// Vertex whose dependency-tree parent is requested.
        vertex: VertexId,
    },
    /// `get_modified_vertices(version)` for algorithm `algo`.
    GetModified {
        /// Maintained-algorithm index.
        algo: u32,
        /// The version whose modification set is requested.
        version: VersionId,
    },
    /// `get_current_version()`.
    CurrentVersion,
    /// `release_history(version)`: this connection's session no longer
    /// needs snapshots strictly older than `version`.
    Release(VersionId),
    /// The full metrics-registry snapshot as schema-less
    /// `(name, typed value)` pairs ([`Response::Metrics`]): new metrics
    /// never break old clients — unknown value kinds are skipped by the
    /// decoder, and names the client does not recognize are simply
    /// extra rows.
    Metrics,
    /// Become a replication follower: stream feed records starting at
    /// index `from` (live tail once caught up, heartbeats when idle).
    /// After a successful subscribe the connection is one-way —
    /// [`Response::WalEpoch`] / [`Response::Heartbeat`] frames until
    /// either side closes.
    Subscribe {
        /// Index of the first feed record the follower still needs
        /// (its applied-record count; 0 for a fresh replica).
        from: u64,
    },
    /// The connect-time greeting. The client announces the version it
    /// speaks; the server answers with [`Response::Hello`] carrying
    /// [`PROTOCOL_VERSION`], or sheds the connection with
    /// [`Response::Busy`] when overloaded. Not allowed inside
    /// [`Request::InSession`].
    Hello {
        /// The protocol version the client speaks.
        version: u32,
    },
    /// A request tagged with a logical session id. Requests carrying
    /// the same `sid` on one connection keep their submission order end-to-end;
    /// requests on different sids are independent and their replies may
    /// overtake each other. Wrapping another `InSession` (or a `Hello`)
    /// is a protocol error.
    InSession {
        /// Client-chosen logical session id.
        sid: u64,
        /// The wrapped request.
        req: Box<Request>,
    },
}

/// One record of the leader's replication feed: an epoch's applied
/// updates, shaped so a follower can reproduce the leader's store
/// *byte-exactly* and its version/history assignment *query-exactly*.
///
/// The safe phase commutes and provably changes no results, so its
/// updates are shipped flat in global stamp order (the actual execution
/// order) with only a version-bump count; the serial unsafe phase is
/// shipped as ordered per-operation groups, each of which produced
/// exactly one version and whose result changes the follower recomputes
/// through the same incremental path the leader used. Within an epoch
/// every safe version precedes every unsafe version (the shard barrier
/// orders the `fetch_add`s), so `base + safe_versions + group_index`
/// reconstructs the leader's numbering exactly.
///
/// `bootstrap` records replay a recovered WAL prefix (structure only,
/// zero version bumps — the leader itself restarts at version 0 after
/// recovery); the follower recomputes results once the bootstrap prefix
/// ends. Oversized epochs are chunked into consecutive records at
/// version-group boundaries, so every record stays under the response
/// frame limit while remaining independently applicable in order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FeedRecord {
    /// Position in the feed (0-based, dense). Followers apply records
    /// strictly in index order; a gap means frames were lost and the
    /// follower must resubscribe.
    pub index: u64,
    /// Recovered-WAL-prefix record: apply structure only, then
    /// recompute once the bootstrap prefix ends.
    pub bootstrap: bool,
    /// Version bumps the safe updates produced (each changed nothing
    /// observable — empty modification sets).
    pub safe_versions: u64,
    /// Safe-phase updates in global application-stamp order.
    pub safe_updates: Vec<Update>,
    /// Serial unsafe operations in version order; each group is one
    /// atomic operation (update or transaction) = one version bump.
    /// A group may be empty (an empty transaction still bumps).
    pub unsafe_groups: Vec<Vec<Update>>,
}

impl FeedRecord {
    /// Total updates carried (sizing/chunking metric).
    pub fn update_count(&self) -> usize {
        self.safe_updates.len() + self.unsafe_groups.iter().map(Vec::len).sum::<usize>()
    }

    /// Version bumps this record produces on a follower.
    pub fn version_bumps(&self) -> u64 {
        self.safe_versions + self.unsafe_groups.len() as u64
    }
}

/// An [`Error`] flattened for the wire: a stable code, up to three
/// numeric arguments, and a free-text message for the string-carrying
/// variants. Round-trips every variant losslessly enough for clients
/// to match on the reconstructed [`Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable numeric code (one per [`Error`] variant).
    pub code: u8,
    /// Variant-specific numeric arguments (vertex/version ids, edge
    /// endpoints).
    pub args: [u64; 3],
    /// Variant-specific message text (empty when unused).
    pub message: String,
}

impl WireError {
    /// Flatten an [`Error`] for transmission.
    pub fn from_error(e: &Error) -> WireError {
        let (code, args, message) = match e {
            Error::VertexNotFound(v) => (1, [*v, 0, 0], String::new()),
            Error::EdgeNotFound(e) => (2, [e.src, e.dst, e.data], String::new()),
            Error::VertexExists(v) => (3, [*v, 0, 0], String::new()),
            Error::VertexNotIsolated(v) => (4, [*v, 0, 0], String::new()),
            Error::VersionNotFound(v) => (5, [*v, 0, 0], String::new()),
            Error::InvalidTransaction(m) => (6, [0, 0, 0], m.clone()),
            Error::SessionNotFound(s) => (7, [*s, 0, 0], String::new()),
            Error::Wal(m) => (8, [0, 0, 0], m.clone()),
            Error::Corruption(m) => (9, [0, 0, 0], m.clone()),
            Error::Protocol(m) => (10, [0, 0, 0], m.clone()),
            Error::Shutdown => (11, [0, 0, 0], String::new()),
            Error::Busy(m) => (12, [0, 0, 0], m.clone()),
            Error::FeedTruncated { requested, floor } => {
                (13, [*requested, *floor, 0], String::new())
            }
        };
        WireError {
            code,
            args,
            message,
        }
    }

    /// Reconstruct the [`Error`] on the client side.
    pub fn to_error(&self) -> Error {
        let [a, b, c] = self.args;
        match self.code {
            1 => Error::VertexNotFound(a),
            2 => Error::EdgeNotFound(Edge::new(a, b, c)),
            3 => Error::VertexExists(a),
            4 => Error::VertexNotIsolated(a),
            5 => Error::VersionNotFound(a),
            6 => Error::InvalidTransaction(self.message.clone()),
            7 => Error::SessionNotFound(a),
            8 => Error::Wal(self.message.clone()),
            9 => Error::Corruption(self.message.clone()),
            10 => Error::Protocol(self.message.clone()),
            11 => Error::Shutdown,
            12 => Error::Busy(self.message.clone()),
            13 => Error::FeedTruncated {
                requested: a,
                floor: b,
            },
            other => Error::Protocol(format!("unknown wire error code {other}")),
        }
    }
}

/// Why the server shed a request or evicted a connection — carried by
/// [`Response::Busy`] so clients (and operators reading logs) can
/// distinguish *which* admission limit fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyCause {
    /// The global in-flight update budget
    /// (`RISGRAPH_NET_INFLIGHT_BUDGET`) is exhausted.
    InflightBudget,
    /// This session's in-flight quota (`RISGRAPH_NET_SESSION_QUOTA`)
    /// is exhausted.
    SessionQuota,
    /// The serving tier is over a high-water mark (worker inbox depth
    /// or ready backlog) — new connections/sessions are being gated.
    Overloaded,
    /// The connection was evicted (send/reply starvation timeout).
    /// Rides the req-id-0 connection-level error path rather than a
    /// per-request reply.
    Evicted,
}

impl BusyCause {
    /// Stable wire tag.
    pub fn code(self) -> u8 {
        match self {
            BusyCause::InflightBudget => 1,
            BusyCause::SessionQuota => 2,
            BusyCause::Overloaded => 3,
            BusyCause::Evicted => 4,
        }
    }

    /// Decode a wire tag (unknown tags fold to [`BusyCause::Overloaded`]
    /// — the generic "server too busy" reading keeps old clients
    /// forward-compatible with new causes).
    pub fn from_code(code: u8) -> BusyCause {
        match code {
            1 => BusyCause::InflightBudget,
            2 => BusyCause::SessionQuota,
            4 => BusyCause::Evicted,
            _ => BusyCause::Overloaded,
        }
    }
}

impl std::fmt::Display for BusyCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BusyCause::InflightBudget => "inflight-budget",
            BusyCause::SessionQuota => "session-quota",
            BusyCause::Overloaded => "overloaded",
            BusyCause::Evicted => "evicted",
        })
    }
}

/// A server → client message (one per frame, after the echoed id).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// An update or transaction was applied.
    Applied {
        /// The result-view version this operation produced.
        version: u64,
        /// Whether it ran on the safe (parallel) path.
        safe: bool,
        /// Per-vertex result changes across all algorithms.
        result_changes: u64,
    },
    /// An update, transaction or query failed.
    Failed {
        /// The current version at failure time (errors carry no version
        /// semantics; mirrors [`Error`]-carrying replies).
        version: u64,
        /// The flattened error.
        error: WireError,
    },
    /// `get_value` answer.
    Value(u64),
    /// `get_parent` answer.
    Parent(Option<Edge>),
    /// `get_modified_vertices` answer.
    Modified(Vec<VertexId>),
    /// `get_current_version` answer.
    Version(u64),
    /// `release_history` acknowledgement.
    Released,
    /// `metrics` answer: the registry snapshot, sorted by name. Each
    /// entry is self-describing on the wire
    /// (`[name][kind: u8][len: u32][payload]`), so decoders skip
    /// entries whose kind they do not understand instead of failing —
    /// the forward-compatibility contract that lets every future PR
    /// add metrics without a protocol bump.
    Metrics(Vec<(String, MetricValue)>),
    /// One replication feed record (streamed after a subscribe).
    WalEpoch(FeedRecord),
    /// Replication liveness probe: the subscribe acknowledgement and
    /// the idle keep-alive, carrying the stream position and the
    /// leader's current result version (the follower's lag reference).
    Heartbeat {
        /// Feed records already streamed **on this subscription**
        /// (the leader's next-to-send index). Frames are ordered, so a
        /// follower that has applied fewer when the heartbeat arrives
        /// knows frames were lost and must resubscribe — the gap
        /// detector for drops at the stream tail, where no later
        /// record would ever expose them.
        records: u64,
        /// The leader's current result version.
        version: u64,
    },
    /// One chunk of a snapshot bootstrap's structure batch. Streamed
    /// to a *fresh* subscriber (`from == 0`) when the feed's oldest
    /// records have been evicted past a checkpoint: instead of a
    /// replay-from-genesis record stream, the leader ships its
    /// checkpointed structure in bounded chunks. The follower buffers
    /// chunks and installs them atomically when
    /// [`Response::SnapshotDone`] arrives — a disconnect mid-bootstrap
    /// leaves the replica untouched (still fresh, clean retry).
    SnapshotChunk(Vec<Update>),
    /// Snapshot bootstrap complete: the buffered chunks are the
    /// leader's full checkpointed structure, and the live
    /// [`Response::WalEpoch`] stream resumes at feed index
    /// `resume_index` with the leader at `resume_version`.
    SnapshotDone {
        /// Feed index of the first post-snapshot record (the
        /// follower's applied-record count after installing).
        resume_index: u64,
        /// Leader result version the snapshot corresponds to.
        resume_version: u64,
    },
    /// Answer to [`Request::Hello`]: the server's
    /// [`PROTOCOL_VERSION`].
    Hello {
        /// The server's protocol version.
        version: u32,
    },
    /// The request was shed by admission control instead of being
    /// queued. The request was not admitted: no session was allocated, the epoch
    /// loop never saw it, and a retry after backoff is safe.
    Busy {
        /// Which admission limit fired.
        cause: BusyCause,
        /// Operator-facing detail (limit values, occupancy).
        message: String,
    },
}

/// Encode a [`Response::WalEpoch`] payload directly from a borrowed
/// record — the streaming path uses this to serialize straight out of
/// the feed's shared `Arc<FeedRecord>` without cloning up to
/// `MAX_RECORD_UPDATES` updates per frame per follower.
pub fn encode_wal_epoch(rec: &FeedRecord, req_id: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + rec.update_count() * 25);
    put_u64(&mut buf, req_id);
    put_wal_epoch(&mut buf, rec);
    buf
}

fn put_wal_epoch(buf: &mut Vec<u8>, rec: &FeedRecord) {
    buf.push(RE_WAL_EPOCH);
    put_u64(buf, rec.index);
    buf.push(u8::from(rec.bootstrap));
    put_u64(buf, rec.safe_versions);
    put_updates(buf, &rec.safe_updates);
    put_u32(buf, rec.unsafe_groups.len() as u32);
    for group in &rec.unsafe_groups {
        put_updates(buf, group);
    }
}

// ---------------------------------------------------------------------
// Byte-level helpers
// ---------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::Protocol(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Protocol("non-UTF-8 string field".into()))
    }

    fn finished(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(Error::Protocol(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append one update in its one encoding: its request opcode
/// (`0x01`–`0x04`) followed by its fields as little-endian `u64`s. An
/// update request, a transaction, a feed record, a snapshot chunk, a
/// write-ahead-log record and a checkpoint's structure section all
/// carry updates in this form.
pub fn put_update(buf: &mut impl Extend<u8>, u: &Update) {
    buf.extend([update_opcode(u)]);
    match *u {
        Update::InsEdge(e) | Update::DelEdge(e) => {
            for word in [e.src, e.dst, e.data] {
                buf.extend(word.to_le_bytes());
            }
        }
        Update::InsVertex(v) | Update::DelVertex(v) => buf.extend(v.to_le_bytes()),
    }
}

fn update_opcode(u: &Update) -> u8 {
    match u {
        Update::InsEdge(_) => OP_INS_EDGE,
        Update::DelEdge(_) => OP_DEL_EDGE,
        Update::InsVertex(_) => OP_INS_VERTEX,
        Update::DelVertex(_) => OP_DEL_VERTEX,
    }
}

/// `[count: u32 LE]` then `count` updates as [`put_update`] writes them.
fn put_updates(buf: &mut Vec<u8>, updates: &[Update]) {
    put_u32(buf, updates.len() as u32);
    for u in updates {
        put_update(buf, u);
    }
}

fn read_update(op: u8, c: &mut Cursor<'_>) -> Result<Update> {
    Ok(match op {
        OP_INS_EDGE => Update::InsEdge(Edge::new(c.u64()?, c.u64()?, c.u64()?)),
        OP_DEL_EDGE => Update::DelEdge(Edge::new(c.u64()?, c.u64()?, c.u64()?)),
        OP_INS_VERTEX => Update::InsVertex(c.u64()?),
        OP_DEL_VERTEX => Update::DelVertex(c.u64()?),
        other => return Err(Error::Protocol(format!("unknown update opcode {other}"))),
    })
}

/// Read what [`put_updates`] wrote. Each update is at least 9 bytes, so
/// a count the rest of the payload cannot hold is refused before
/// anything is allocated.
fn read_updates(c: &mut Cursor<'_>) -> Result<Vec<Update>> {
    let n = c.u32()? as usize;
    let left = c.buf.len() - c.pos;
    if n > left / 9 {
        return Err(Error::Protocol(format!(
            "update count {n} exceeds the {left} bytes left"
        )));
    }
    let mut updates = Vec::with_capacity(n);
    for _ in 0..n {
        let op = c.u8()?;
        updates.push(read_update(op, c)?);
    }
    Ok(updates)
}

/// Decode a payload that is exactly `[count: u32 LE]` plus `count`
/// updates in [`put_update`] form — the body of a write-ahead-log
/// record or of a checkpoint's structure section.
pub fn decode_updates(payload: &[u8]) -> Result<Vec<Update>> {
    let mut c = Cursor::new(payload);
    let updates = read_updates(&mut c)?;
    c.finished()?;
    Ok(updates)
}

// ---------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------

/// Write a request's opcode + body (everything after the request id).
/// `InSession` recurses once; the decoder enforces the matching
/// no-nesting rule.
fn put_request_body(buf: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Update(u) => put_update(buf, u),
        Request::Txn(updates) => {
            buf.push(OP_TXN);
            put_updates(buf, updates);
        }
        Request::GetValue {
            algo,
            version,
            vertex,
        } => {
            buf.push(OP_GET_VALUE);
            put_u32(buf, *algo);
            put_u64(buf, *version);
            put_u64(buf, *vertex);
        }
        Request::GetParent {
            algo,
            version,
            vertex,
        } => {
            buf.push(OP_GET_PARENT);
            put_u32(buf, *algo);
            put_u64(buf, *version);
            put_u64(buf, *vertex);
        }
        Request::GetModified { algo, version } => {
            buf.push(OP_GET_MODIFIED);
            put_u32(buf, *algo);
            put_u64(buf, *version);
        }
        Request::CurrentVersion => buf.push(OP_CURRENT_VERSION),
        Request::Release(version) => {
            buf.push(OP_RELEASE);
            put_u64(buf, *version);
        }
        Request::Metrics => buf.push(OP_METRICS),
        Request::Subscribe { from } => {
            buf.push(OP_SUBSCRIBE);
            put_u64(buf, *from);
        }
        Request::Hello { version } => {
            buf.push(OP_HELLO);
            put_u32(buf, *version);
        }
        Request::InSession { sid, req } => {
            buf.push(OP_SESSION);
            put_u64(buf, *sid);
            put_request_body(buf, req);
        }
    }
}

/// Decode a request's body given its already-read opcode. `in_session`
/// forbids the wrapper opcodes (no nested `InSession`, no `Hello`
/// inside a session).
fn read_request_body(op: u8, c: &mut Cursor<'_>, in_session: bool) -> Result<Request> {
    Ok(match op {
        OP_INS_EDGE | OP_DEL_EDGE | OP_INS_VERTEX | OP_DEL_VERTEX => {
            Request::Update(read_update(op, c)?)
        }
        OP_TXN => Request::Txn(read_updates(c)?),
        OP_GET_VALUE => Request::GetValue {
            algo: c.u32()?,
            version: c.u64()?,
            vertex: c.u64()?,
        },
        OP_GET_PARENT => Request::GetParent {
            algo: c.u32()?,
            version: c.u64()?,
            vertex: c.u64()?,
        },
        OP_GET_MODIFIED => Request::GetModified {
            algo: c.u32()?,
            version: c.u64()?,
        },
        OP_CURRENT_VERSION => Request::CurrentVersion,
        OP_RELEASE => Request::Release(c.u64()?),
        OP_METRICS => Request::Metrics,
        OP_SUBSCRIBE => Request::Subscribe { from: c.u64()? },
        OP_HELLO if !in_session => Request::Hello { version: c.u32()? },
        OP_HELLO => {
            return Err(Error::Protocol(
                "hello inside a session wrapper".to_string(),
            ));
        }
        OP_SESSION if !in_session => {
            let sid = c.u64()?;
            let inner_op = c.u8()?;
            let req = read_request_body(inner_op, c, true)?;
            Request::InSession {
                sid,
                req: Box::new(req),
            }
        }
        OP_SESSION => {
            return Err(Error::Protocol("nested session wrapper".to_string()));
        }
        other => {
            return Err(Error::Protocol(format!("unknown request opcode {other}")));
        }
    })
}

impl Request {
    /// Encode as a frame payload carrying `req_id`.
    pub fn encode(&self, req_id: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        put_u64(&mut buf, req_id);
        put_request_body(&mut buf, self);
        buf
    }

    /// Encode as a frame payload carrying `req_id`, wrapped in a
    /// session tag — equivalent to encoding
    /// `Request::InSession { sid, req: Box::new(self.clone()) }` but
    /// without the box or the clone (the client's per-session hot
    /// path).
    pub fn encode_in_session(&self, req_id: u64, sid: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(48);
        put_u64(&mut buf, req_id);
        buf.push(OP_SESSION);
        put_u64(&mut buf, sid);
        put_request_body(&mut buf, self);
        buf
    }

    /// Decode a frame payload into `(req_id, request)`.
    pub fn decode(payload: &[u8]) -> Result<(u64, Request)> {
        let mut c = Cursor::new(payload);
        let req_id = c.u64()?;
        let op = c.u8()?;
        let req = read_request_body(op, &mut c, false)?;
        c.finished()?;
        Ok((req_id, req))
    }
}

impl Response {
    /// Encode as a frame payload echoing `req_id`.
    pub fn encode(&self, req_id: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        put_u64(&mut buf, req_id);
        match self {
            Response::Applied {
                version,
                safe,
                result_changes,
            } => {
                buf.push(RE_APPLIED);
                put_u64(&mut buf, *version);
                buf.push(u8::from(*safe));
                put_u64(&mut buf, *result_changes);
            }
            Response::Failed { version, error } => {
                buf.push(RE_FAILED);
                put_u64(&mut buf, *version);
                buf.push(error.code);
                for a in error.args {
                    put_u64(&mut buf, a);
                }
                put_string(&mut buf, &error.message);
            }
            Response::Value(v) => {
                buf.push(RE_VALUE);
                put_u64(&mut buf, *v);
            }
            Response::Parent(p) => {
                buf.push(RE_PARENT);
                match p {
                    Some(e) => {
                        buf.push(1);
                        put_u64(&mut buf, e.src);
                        put_u64(&mut buf, e.dst);
                        put_u64(&mut buf, e.data);
                    }
                    None => buf.push(0),
                }
            }
            Response::Modified(vs) => {
                buf.push(RE_MODIFIED);
                put_u32(&mut buf, vs.len() as u32);
                for v in vs {
                    put_u64(&mut buf, *v);
                }
            }
            Response::Version(v) => {
                buf.push(RE_VERSION);
                put_u64(&mut buf, *v);
            }
            Response::Released => buf.push(RE_RELEASED),
            Response::Metrics(entries) => {
                buf.push(RE_METRICS);
                put_u32(&mut buf, entries.len() as u32);
                for (name, value) in entries {
                    put_string(&mut buf, name);
                    match value {
                        MetricValue::Counter(v) => {
                            buf.push(METRIC_KIND_COUNTER);
                            put_u32(&mut buf, 8);
                            put_u64(&mut buf, *v);
                        }
                        MetricValue::Gauge(v) => {
                            buf.push(METRIC_KIND_GAUGE);
                            put_u32(&mut buf, 8);
                            put_u64(&mut buf, *v);
                        }
                        MetricValue::Histogram(s) => {
                            buf.push(METRIC_KIND_HISTOGRAM);
                            put_u32(&mut buf, 48);
                            for v in [s.count, s.min_ns, s.max_ns, s.p50_ns, s.p99_ns, s.p999_ns] {
                                put_u64(&mut buf, v);
                            }
                        }
                    }
                }
            }
            Response::WalEpoch(rec) => put_wal_epoch(&mut buf, rec),
            Response::Heartbeat { records, version } => {
                buf.push(RE_HEARTBEAT);
                put_u64(&mut buf, *records);
                put_u64(&mut buf, *version);
            }
            Response::SnapshotChunk(updates) => {
                buf.push(RE_SNAPSHOT_CHUNK);
                put_updates(&mut buf, updates);
            }
            Response::SnapshotDone {
                resume_index,
                resume_version,
            } => {
                buf.push(RE_SNAPSHOT_DONE);
                put_u64(&mut buf, *resume_index);
                put_u64(&mut buf, *resume_version);
            }
            Response::Hello { version } => {
                buf.push(RE_HELLO);
                put_u32(&mut buf, *version);
            }
            Response::Busy { cause, message } => {
                buf.push(RE_BUSY);
                buf.push(cause.code());
                put_string(&mut buf, message);
            }
        }
        buf
    }

    /// Decode a frame payload into `(req_id, response)`.
    pub fn decode(payload: &[u8]) -> Result<(u64, Response)> {
        let mut c = Cursor::new(payload);
        let req_id = c.u64()?;
        let op = c.u8()?;
        let resp = match op {
            RE_APPLIED => Response::Applied {
                version: c.u64()?,
                safe: c.u8()? != 0,
                result_changes: c.u64()?,
            },
            RE_FAILED => Response::Failed {
                version: c.u64()?,
                error: WireError {
                    code: c.u8()?,
                    args: [c.u64()?, c.u64()?, c.u64()?],
                    message: c.string()?,
                },
            },
            RE_VALUE => Response::Value(c.u64()?),
            RE_PARENT => Response::Parent(if c.u8()? != 0 {
                Some(Edge::new(c.u64()?, c.u64()?, c.u64()?))
            } else {
                None
            }),
            RE_MODIFIED => {
                let n = c.u32()? as usize;
                if n > payload.len() / 8 + 1 {
                    return Err(Error::Protocol(format!(
                        "modified count {n} exceeds payload"
                    )));
                }
                let mut vs = Vec::with_capacity(n);
                for _ in 0..n {
                    vs.push(c.u64()?);
                }
                Response::Modified(vs)
            }
            RE_VERSION => Response::Version(c.u64()?),
            RE_RELEASED => Response::Released,
            RE_METRICS => {
                let n = c.u32()? as usize;
                // An entry costs at least 9 bytes (empty name: 4-byte
                // length + 1-byte kind + 4-byte payload length), so an
                // impossible count is rejected before allocation.
                if n > payload.len() / 9 + 1 {
                    return Err(Error::Protocol(format!(
                        "metrics count {n} exceeds payload"
                    )));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = c.string()?;
                    let kind = c.u8()?;
                    let len = c.u32()? as usize;
                    let body = c.take(len)?;
                    let mut words = body
                        .chunks_exact(8)
                        .map(|w| u64::from_le_bytes(w.try_into().unwrap()));
                    // Skip — never fail on — entries this decoder does
                    // not understand: an unknown kind, or a known kind
                    // whose payload is shorter than expected. A longer
                    // payload (a newer peer appended fields) keeps its
                    // known prefix.
                    let value = match kind {
                        METRIC_KIND_COUNTER if len >= 8 => {
                            MetricValue::Counter(words.next().unwrap())
                        }
                        METRIC_KIND_GAUGE if len >= 8 => MetricValue::Gauge(words.next().unwrap()),
                        METRIC_KIND_HISTOGRAM if len >= 48 => {
                            let mut next = || words.next().unwrap();
                            MetricValue::Histogram(HistogramSummary {
                                count: next(),
                                min_ns: next(),
                                max_ns: next(),
                                p50_ns: next(),
                                p99_ns: next(),
                                p999_ns: next(),
                            })
                        }
                        _ => continue,
                    };
                    entries.push((name, value));
                }
                Response::Metrics(entries)
            }
            RE_WAL_EPOCH => {
                let index = c.u64()?;
                let bootstrap = c.u8()? != 0;
                let safe_versions = c.u64()?;
                let safe_updates = read_updates(&mut c)?;
                let n_groups = c.u32()? as usize;
                // A group costs at least 4 length bytes.
                if n_groups > payload.len() / 4 + 1 {
                    return Err(Error::Protocol(format!(
                        "feed record group count {n_groups} exceeds payload"
                    )));
                }
                let mut unsafe_groups = Vec::with_capacity(n_groups);
                for _ in 0..n_groups {
                    unsafe_groups.push(read_updates(&mut c)?);
                }
                Response::WalEpoch(FeedRecord {
                    index,
                    bootstrap,
                    safe_versions,
                    safe_updates,
                    unsafe_groups,
                })
            }
            RE_HEARTBEAT => Response::Heartbeat {
                records: c.u64()?,
                version: c.u64()?,
            },
            RE_SNAPSHOT_CHUNK => Response::SnapshotChunk(read_updates(&mut c)?),
            RE_SNAPSHOT_DONE => Response::SnapshotDone {
                resume_index: c.u64()?,
                resume_version: c.u64()?,
            },
            RE_HELLO => Response::Hello { version: c.u32()? },
            RE_BUSY => Response::Busy {
                cause: BusyCause::from_code(c.u8()?),
                message: c.string()?,
            },
            other => {
                return Err(Error::Protocol(format!("unknown response opcode {other}")));
            }
        };
        c.finished()?;
        Ok((req_id, resp))
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Write one CRC-framed payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > u32::MAX as usize {
        return Err(Error::Protocol(format!(
            "frame payload of {} bytes does not fit a u32 length header",
            payload.len()
        )));
    }
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(())
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (connection closed between messages); every other shortfall
/// — truncation mid-frame, a length above `max_frame`, a CRC mismatch —
/// is an [`Error::Protocol`].
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER];
    // Read the first byte separately to distinguish a clean EOF from a
    // torn header.
    match r.read(&mut header[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            return read_frame(r, max_frame);
        }
        Err(e) => return Err(e.into()),
    }
    r.read_exact(&mut header[1..])
        .map_err(|e| Error::Protocol(format!("torn frame header: {e}")))?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > max_frame {
        return Err(Error::Protocol(format!(
            "oversized frame: {len} bytes exceeds the {max_frame}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| Error::Protocol(format!("torn frame payload: {e}")))?;
    let got_crc = crc32(&payload);
    if got_crc != want_crc {
        return Err(Error::Protocol(format!(
            "frame CRC mismatch: header says {want_crc:#010x}, payload is {got_crc:#010x}"
        )));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let payload = req.encode(42);
        let (id, back) = Request::decode(&payload).unwrap();
        assert_eq!(id, 42);
        assert_eq!(back, req);
    }

    fn roundtrip_response(resp: Response) {
        let payload = resp.encode(7);
        let (id, back) = Response::decode(&payload).unwrap();
        assert_eq!(id, 7);
        assert_eq!(back, resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Update(Update::InsEdge(Edge::new(1, 2, 3))));
        roundtrip_request(Request::Update(Update::DelEdge(Edge::new(9, 8, 7))));
        roundtrip_request(Request::Update(Update::InsVertex(5)));
        roundtrip_request(Request::Update(Update::DelVertex(6)));
        roundtrip_request(Request::Txn(vec![
            Update::InsEdge(Edge::new(1, 2, 0)),
            Update::DelVertex(3),
        ]));
        roundtrip_request(Request::Txn(vec![]));
        roundtrip_request(Request::GetValue {
            algo: 2,
            version: 100,
            vertex: 4,
        });
        roundtrip_request(Request::GetParent {
            algo: 0,
            version: 1,
            vertex: u64::MAX,
        });
        roundtrip_request(Request::GetModified {
            algo: 1,
            version: 77,
        });
        roundtrip_request(Request::CurrentVersion);
        roundtrip_request(Request::Release(12));
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::InSession {
            sid: 3,
            req: Box::new(Request::Metrics),
        });
        roundtrip_request(Request::Subscribe { from: 17 });
        roundtrip_request(Request::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip_request(Request::InSession {
            sid: 9,
            req: Box::new(Request::Update(Update::InsEdge(Edge::new(1, 2, 3)))),
        });
        roundtrip_request(Request::InSession {
            sid: u64::MAX,
            req: Box::new(Request::Txn(vec![Update::DelVertex(4)])),
        });
        roundtrip_request(Request::InSession {
            sid: 0,
            req: Box::new(Request::Release(3)),
        });
    }

    #[test]
    fn encode_in_session_matches_wrapped_encoding() {
        let inner = Request::Update(Update::InsEdge(Edge::new(5, 6, 7)));
        let wrapped = Request::InSession {
            sid: 31,
            req: Box::new(inner.clone()),
        };
        assert_eq!(inner.encode_in_session(12, 31), wrapped.encode(12));
    }

    #[test]
    fn nested_session_wrappers_are_rejected() {
        let inner = Request::InSession {
            sid: 2,
            req: Box::new(Request::Metrics),
        };
        let payload = inner.encode_in_session(1, 1); // forge a nested wrapper
        match Request::decode(&payload) {
            Err(Error::Protocol(msg)) => assert!(msg.contains("nested"), "{msg}"),
            other => panic!("expected nested-wrapper rejection, got {other:?}"),
        }
    }

    #[test]
    fn hello_inside_a_session_is_rejected() {
        let payload = Request::Hello { version: 2 }.encode_in_session(1, 7);
        match Request::decode(&payload) {
            Err(Error::Protocol(msg)) => assert!(msg.contains("hello"), "{msg}"),
            other => panic!("expected in-session hello rejection, got {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Applied {
            version: 9,
            safe: true,
            result_changes: 3,
        });
        roundtrip_response(Response::Failed {
            version: 4,
            error: WireError::from_error(&Error::EdgeNotFound(Edge::new(1, 2, 3))),
        });
        roundtrip_response(Response::Value(u64::MAX));
        roundtrip_response(Response::Parent(Some(Edge::new(1, 2, 3))));
        roundtrip_response(Response::Parent(None));
        roundtrip_response(Response::Modified(vec![1, 5, 9]));
        roundtrip_response(Response::Modified(vec![]));
        roundtrip_response(Response::Version(1234));
        roundtrip_response(Response::Released);
        roundtrip_response(Response::Metrics(vec![]));
        roundtrip_response(Response::Metrics(vec![
            ("core.epochs".into(), MetricValue::Counter(17)),
            ("core.threshold".into(), MetricValue::Gauge(500)),
            (
                "epoch.phase.wal_append_ns".into(),
                MetricValue::Histogram(HistogramSummary {
                    count: 9,
                    min_ns: 100,
                    max_ns: 90_000,
                    p50_ns: 4_000,
                    p99_ns: 80_000,
                    p999_ns: 90_000,
                }),
            ),
            (String::new(), MetricValue::Counter(0)), // empty name is legal
        ]));
        roundtrip_response(Response::WalEpoch(FeedRecord {
            index: 42,
            bootstrap: false,
            safe_versions: 3,
            safe_updates: vec![
                Update::InsEdge(Edge::new(1, 2, 0)),
                Update::DelEdge(Edge::new(2, 3, 9)),
                Update::InsVertex(7),
            ],
            unsafe_groups: vec![
                vec![Update::InsEdge(Edge::new(4, 5, 1))],
                vec![], // an empty transaction still bumps the version
                vec![Update::DelVertex(6), Update::DelEdge(Edge::new(5, 4, 1))],
            ],
        }));
        roundtrip_response(Response::WalEpoch(FeedRecord {
            index: 0,
            bootstrap: true,
            safe_versions: 0,
            safe_updates: vec![Update::InsEdge(Edge::new(0, 1, 0))],
            unsafe_groups: vec![],
        }));
        roundtrip_response(Response::Heartbeat {
            records: 5,
            version: 99,
        });
        roundtrip_response(Response::SnapshotChunk(vec![
            Update::InsVertex(3),
            Update::InsEdge(Edge::new(3, 4, 2)),
        ]));
        roundtrip_response(Response::SnapshotChunk(vec![]));
        roundtrip_response(Response::SnapshotDone {
            resume_index: 17,
            resume_version: 5,
        });
        roundtrip_response(Response::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip_response(Response::Busy {
            cause: BusyCause::InflightBudget,
            message: "inflight budget 8 exhausted".into(),
        });
        roundtrip_response(Response::Busy {
            cause: BusyCause::SessionQuota,
            message: String::new(),
        });
        roundtrip_response(Response::Busy {
            cause: BusyCause::Overloaded,
            message: "inbox over high-water".into(),
        });
        roundtrip_response(Response::Busy {
            cause: BusyCause::Evicted,
            message: "send starvation".into(),
        });
    }

    #[test]
    fn busy_cause_codes_are_stable_and_total() {
        for cause in [
            BusyCause::InflightBudget,
            BusyCause::SessionQuota,
            BusyCause::Overloaded,
            BusyCause::Evicted,
        ] {
            assert_eq!(BusyCause::from_code(cause.code()), cause);
            assert!(!cause.to_string().is_empty());
        }
        // Unknown future causes fold to the generic reading.
        assert_eq!(BusyCause::from_code(250), BusyCause::Overloaded);
    }

    #[test]
    fn unknown_metric_kinds_are_skipped_not_fatal() {
        // Forge a METRICS body interleaving a counter this decoder
        // knows, an entry with a future kind tag, and a histogram with
        // a payload *longer* than today's 48 bytes (a newer server
        // appended a field). The unknown kind is dropped, the known
        // entries survive, the longer histogram keeps its known prefix.
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u64.to_le_bytes()); // req id
        buf.push(0x89); // RE_METRICS
        buf.extend_from_slice(&3u32.to_le_bytes()); // three entries
        let put_name = |buf: &mut Vec<u8>, name: &str| {
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
        };
        put_name(&mut buf, "known.counter");
        buf.push(1); // counter
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(&5u64.to_le_bytes());
        put_name(&mut buf, "future.kind");
        buf.push(200); // a kind tag from the future
        buf.extend_from_slice(&12u32.to_le_bytes());
        buf.extend_from_slice(&[0xAB; 12]);
        put_name(&mut buf, "extended.histogram");
        buf.push(3); // histogram, with one extra appended u64
        buf.extend_from_slice(&56u32.to_le_bytes());
        for v in [4u64, 1, 9, 2, 8, 9, 12345] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let (id, resp) = Response::decode(&buf).unwrap();
        assert_eq!(id, 7);
        assert_eq!(
            resp,
            Response::Metrics(vec![
                ("known.counter".into(), MetricValue::Counter(5)),
                (
                    "extended.histogram".into(),
                    MetricValue::Histogram(HistogramSummary {
                        count: 4,
                        min_ns: 1,
                        max_ns: 9,
                        p50_ns: 2,
                        p99_ns: 8,
                        p999_ns: 9,
                    })
                ),
            ])
        );
    }

    #[test]
    fn forged_metrics_count_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u64.to_le_bytes()); // req id
        buf.push(0x89); // RE_METRICS
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd count
        assert!(matches!(Response::decode(&buf), Err(Error::Protocol(_))));
    }

    #[test]
    fn forged_snapshot_chunk_count_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u64.to_le_bytes()); // req id
        buf.push(0x92); // RE_SNAPSHOT_CHUNK
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd count
        assert!(matches!(Response::decode(&buf), Err(Error::Protocol(_))));
    }

    #[test]
    fn feed_record_counters() {
        let rec = FeedRecord {
            index: 0,
            bootstrap: false,
            safe_versions: 2,
            safe_updates: vec![Update::InsVertex(1); 3],
            unsafe_groups: vec![vec![Update::InsVertex(2); 2], vec![]],
        };
        assert_eq!(rec.update_count(), 5);
        assert_eq!(rec.version_bumps(), 4);
    }

    #[test]
    fn forged_feed_counts_are_rejected_before_allocation() {
        // A WalEpoch whose safe count claims far more updates than the
        // payload could hold must fail cleanly, not allocate.
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u64.to_le_bytes()); // req id
        buf.push(0x90); // RE_WAL_EPOCH
        buf.extend_from_slice(&0u64.to_le_bytes()); // index
        buf.push(0); // bootstrap
        buf.extend_from_slice(&0u64.to_le_bytes()); // safe_versions
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd count
        assert!(matches!(Response::decode(&buf), Err(Error::Protocol(_))));
    }

    #[test]
    fn wire_errors_roundtrip_every_variant() {
        let errors = [
            Error::VertexNotFound(3),
            Error::EdgeNotFound(Edge::new(1, 2, 9)),
            Error::VertexExists(4),
            Error::VertexNotIsolated(5),
            Error::VersionNotFound(6),
            Error::InvalidTransaction("dup".into()),
            Error::SessionNotFound(7),
            Error::Wal("io".into()),
            Error::Corruption("desync".into()),
            Error::Protocol("bad crc".into()),
            Error::Shutdown,
            Error::Busy("inflight budget exhausted".into()),
            Error::FeedTruncated {
                requested: 3,
                floor: 9,
            },
        ];
        for e in errors {
            let wire = WireError::from_error(&e);
            assert_eq!(wire.to_error().to_string(), e.to_string(), "{e:?}");
        }
    }

    #[test]
    fn frames_roundtrip_over_a_byte_pipe() {
        let mut pipe: Vec<u8> = Vec::new();
        for payload in [b"hello".to_vec(), Vec::new(), vec![0xAB; 1000]] {
            write_frame(&mut pipe, &payload).unwrap();
        }
        let mut r = &pipe[..];
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().unwrap(), b"hello");
        assert!(read_frame(&mut r, MAX_FRAME).unwrap().unwrap().is_empty());
        assert_eq!(
            read_frame(&mut r, MAX_FRAME).unwrap().unwrap(),
            vec![0xAB; 1000]
        );
        assert!(read_frame(&mut r, MAX_FRAME).unwrap().is_none(), "EOF");
    }

    #[test]
    fn corrupted_frame_is_detected() {
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, b"payload").unwrap();
        let last = pipe.len() - 1;
        pipe[last] ^= 0x01;
        let mut r = &pipe[..];
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut pipe: Vec<u8> = Vec::new();
        pipe.extend_from_slice(&u32::MAX.to_le_bytes());
        pipe.extend_from_slice(&0u32.to_le_bytes());
        let mut r = &pipe[..];
        match read_frame(&mut r, MAX_FRAME) {
            Err(Error::Protocol(msg)) => assert!(msg.contains("oversized"), "{msg}"),
            other => panic!("expected oversized-frame rejection, got {other:?}"),
        }
    }

    #[test]
    fn torn_frame_is_a_protocol_error() {
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, b"full payload").unwrap();
        pipe.truncate(pipe.len() - 3);
        let mut r = &pipe[..];
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn garbage_payload_decodes_to_protocol_errors() {
        assert!(Request::decode(&[1, 2, 3]).is_err(), "truncated id");
        assert!(Request::decode(&[0; 9]).is_err(), "opcode 0");
        let mut ok = Request::Update(Update::InsVertex(1)).encode(1);
        ok.push(0xFF);
        assert!(Request::decode(&ok).is_err(), "trailing bytes");
        assert!(Response::decode(&[0; 9]).is_err(), "response opcode 0");
    }
}
