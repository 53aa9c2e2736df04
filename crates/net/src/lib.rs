//! # risgraph-net — the TCP serving tier
//!
//! RisGraph's point is per-update analysis served to *many concurrent
//! clients* at millions of ops/s with P999 below 20 ms (§4–§5). This
//! crate is the layer that makes that an observable scenario rather
//! than a library call: a length-prefixed, CRC-framed binary protocol
//! ([`risgraph_common::protocol`]) over TCP, an event-driven
//! [`NetServer`], and a [`NetClient`] usable both as a blocking
//! one-request-at-a-time client (the paper's emulated synchronous
//! users, §6.2) and as a **pipelined** client keeping a window of
//! requests in flight behind a reply demultiplexer — now also as a
//! **multiplexed** client running many logical sessions
//! ([`SessionHandle`]) over one socket.
//!
//! ## Server anatomy: an epoll reactor, not thread-per-connection
//!
//! A fixed pool of reactor workers ([`NetConfig::net_workers`], env
//! `RISGRAPH_NET_WORKERS`) owns every connection; the readiness layer
//! ([`reactor`]) is raw-FFI epoll + eventfd, the same no-new-deps
//! discipline as the mmap store. Total server threads are
//! O(net_workers), not O(connections).
//!
//! ```text
//!             ┌──────────── worker (one of N) ────────────┐
//!  accept ──▶ │ epoll: sockets + eventfd wakeup           │
//!  (rr to     │  ┌─ per-conn state machine ─────────────┐ │
//!   workers)  │  │ rbuf → frames → Request              │ │
//!             │  │   queries answered inline            │ │
//!             │  │   updates → core Session (tagged) ───┼─┼─▶ epoch loop
//!             │  │ replies ◀─ waker dings eventfd ◀─────┼─┼── tagged replies
//!             │  │ wbuf ← encoded Responses → socket    │ │
//!             │  └──────────────────────────────────────┘ │
//!             └───────────────────────────────────────────┘
//! ```
//!
//! * **Push-based replies:** each logical session installs a
//!   [`ReplyWaker`](risgraph_core::server::ReplyWaker); when the epoch
//!   loop finishes an update, the waker marks the `(connection,
//!   session)` pair ready and dings the owning worker's eventfd. No
//!   thread ever parks on a reply channel.
//! * **Pipelining:** updates are submitted through
//!   [`Session::submit_op_tagged`](risgraph_core::server::Session::submit_op_tagged)
//!   without waiting; replies carry the wire request id and may
//!   complete out of order relative to queries (answered inline) —
//!   exactly what the request-id protocol is for. On the client side
//!   requests ride the wire in bursts: [`NetClient`] buffers a request
//!   while a delivered reply waits to be collected and nobody is parked,
//!   and writes the buffer when a wait parks or collects the last ready
//!   reply, at 64 KiB, on [`NetClient::flush`] or on drop — one `write`
//!   per reply burst instead of one per request (see [`client`]).
//! * **Backpressure:** a bounded in-flight window per connection; once
//!   full, the worker parks the update and drops read interest, so TCP
//!   flow control pushes back on the client. Outbound, a soft cap on
//!   the write buffer stalls query answering and feed pumping until
//!   the peer drains.
//! * **Robustness:** malformed, oversized or CRC-corrupt frames
//!   drain-close that connection with a best-effort error response; an
//!   abrupt disconnect drops its sessions — in-flight replies fall on
//!   the floor without wedging the epoch loop.
//! * **Graceful drain:** [`NetServer::shutdown`] retires the listener
//!   (after serving its backlog), gives every connection a final read
//!   pass, finishes in-flight updates and flushes their replies, joins
//!   the worker pool, then shuts the inner
//!   [`Server`](risgraph_core::server::Server) down — which drains
//!   remaining epochs and flushes WAL *and* store.
//!
//! ## Session multiplexing
//!
//! [`NetClient::connect`] opens with a `Hello` exchange (the server's
//! connect-time overload gate); [`NetClient::open_session`] then
//! yields [`SessionHandle`]s whose requests ride the same socket
//! wrapped in a session-id frame
//! ([`Request::InSession`](risgraph_common::protocol::Request::InSession)).
//! Server-side, each wire session id lazily maps to its own core
//! [`Session`](risgraph_core::server::Session) — which is exactly the
//! granularity the epoch loop orders submissions by, so per-session
//! program order is preserved while cross-session replies may
//! overtake. There is one protocol generation: a request needs no
//! `Hello` to be served, wrapped or not.
//!
//! The `net_differential` suite proves the whole network path
//! observably identical to in-process sessions on multiple backends
//! and shard counts; `session_mux` covers the multiplexing semantics;
//! `net_load` (in `risgraph-bench`) measures client-observed ops/s and
//! P50/P99/P999 over loopback, including a 64/1k/10k session sweep.
//!
//! ## Replication
//!
//! A connection that sends `SUBSCRIBE` becomes a **follower**: the
//! server streams the epoch-merged, stamp-sorted WAL records
//! ([`risgraph_core::ReplicationFeed`]) from the requested offset —
//! catch-up first, then the live tail, heartbeats when idle — under
//! the leader's `max_followers` limit. The stream is pumped by the
//! same reactor workers on their tick, gated by the connection's write
//! buffer cap, so a slow follower throttles only itself, never the
//! epoch loop — and followers no longer cost dedicated threads.
//! [`ReplicaServer`] is the follower-side counterpart: it applies the
//! stream onto any backend through the core replay path,
//! reconnects-and-resubscribes across stream faults, and optionally
//! serves the read-only Table 1 surface (plus its `METRICS`, lag
//! included) at its applied watermark. That listener is a
//! [`NetServer`] reactor too, over the replica's versioned store: the
//! same workers, framing, admission and query function as the
//! leader's, with every request that needs the leader refused. A
//! replica so runs one follower thread plus `net_workers` reactor
//! threads, whatever its connection count.
//! `tests/replication_differential.rs` proves leader ≡ follower on
//! IA_Hash and ooc-mmap at shards 1 and 4, under injected frame
//! faults.

#![warn(missing_docs)]

pub mod client;
mod query;
pub mod reactor;
pub mod replica;
pub mod server;

pub use client::{NetApplied, NetClient, NetReply, SessionHandle};
pub use replica::{FollowerConfig, FollowerStats, ReplicaServer};
pub use server::{NetConfig, NetServer};
