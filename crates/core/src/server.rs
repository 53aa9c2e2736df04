//! The interactive server: sessions, the **epoch loop schema** (§4,
//! Figure 9), the scheduler, history versioning and WAL integration.
//!
//! Architecture (Figure 1, top three tiers):
//!
//! * **Sessions** ([`Session`]) emulate the paper's synchronous users:
//!   each submits one update (or transaction) and waits for the reply
//!   carrying a result-view version id.
//! * **Safe updates apply where they arrive** (§4: they change no
//!   result, so they commute with one another and may run anywhere
//!   unsafe updates are excluded). A synchronous session classifies its
//!   single update on the calling thread and, if it is safe, applies it
//!   there under the shared side of the store's gate, takes its version
//!   and stamps it into its thread's stripe of the inline log, then
//!   replies — no hand-off to the coordinator, and no shared write but
//!   the gate, the engine-state lock, the stamp and the version
//!   (counters and histograms are per-thread stripes). Everything else
//!   is routed to the coordinator: unsafe or
//!   multi-update ops, ops that need the engine to grow or
//!   find the gate held, tagged (pipelined, network) submissions, and
//!   anything after shutdown or a failed log write.
//! * The **coordinator thread** runs epoch loops: it gathers routed
//!   updates, classifies each session's queue prefix (stopping at the
//!   first unsafe update — everything behind it is *next-epoch*, §4),
//!   executes all safe updates **in parallel across shards**, then
//!   *cuts*: it takes the gate's exclusive side, so no caller is
//!   mid-apply, folds the inline log's stripes into the epoch's safe log, runs the
//!   epoch's multi-update safe transactions (a rollback must never run
//!   beside another applier), then executes unsafe updates **one by
//!   one** (each internally parallel), consulting the [`Scheduler`] to
//!   bound tail latency. An idle coordinator cuts after each
//!   `idle_poll` wait that finds callers' work in the log. A gather pass
//!   costs what arrived, not what is open (`server/gather.rs`).
//! * The **sharded safe phase** ([`ServerConfig::shards`]): sessions
//!   are hash-partitioned over `shards` executors. The executors are
//!   the server's [`WorkerPool`]: the coordinator is executor 0 and
//!   the pool's workers (`risgraph-shard-1` …) are executors `1..N`.
//!   Safe updates commute by construction — they provably change no
//!   result — so each shard drains its partition of the epoch's safe
//!   prefix concurrently with the others, preserving per-session order
//!   because a session maps to exactly one shard. A **barrier** (the
//!   pool's [`WorkerPool::fork_join`] joins every dispatched part)
//!   separates the parallel safe phase from the serial unsafe phase, so
//!   the engine's phase discipline is unchanged. Durability, history,
//!   scheduling and sessions stay centralized on the coordinator:
//!   shards report applied updates and latency counts, the coordinator
//!   merges them into one WAL group-commit record per epoch and one
//!   aggregated scheduler batch.
//! * The **inline rule**: the partition above is applied only to an
//!   epoch that holds more than [`INLINE_SAFE_PER_SHARD`] safe updates
//!   per shard. A smaller epoch is one partition — exactly the
//!   `shards = 1` schedule — which the coordinator drains itself, with
//!   no job dispatched and no barrier to wait at: two thread hand-offs
//!   cost more than the ≈ 0.7 µs of work in a two-update epoch (§3.2
//!   uses parallelism only where the work outweighs its
//!   synchronisation). The choice is made per epoch from its size
//!   alone, so synchronous sessions (§6.2, one update in flight each)
//!   run inline and pipelined or multiplexed traffic shards as before;
//!   `core.epochs_inline` against `core.epochs` says which a server is
//!   doing. A caller applying its own update is in no epoch at all.
//! * Per-session order is preserved and each session observes
//!   sequentially consistent behaviour: a session's updates execute in
//!   submission order, and a demoted safe update re-enters its session's
//!   queue front.
//!
//! Durability: every update applied in an epoch — across all shards,
//! the callers' threads since the last cut and the unsafe phase — is
//! appended as **one merged WAL record** inside the cut and fsynced on
//! the group-commit cadence after it. The first failed append or fsync
//! (counted in `wal.errors`) stops the write path: every update not yet
//! executed, and every later one, is answered [`Error::Wal`] at the
//! current version, while reads keep answering. The failing record's own
//! replies went out before its append (and, for a failed fsync, so did
//! those of callers that applied after its cut). Each safe update
//! carries a **global application-order stamp** drawn inside the store
//! lock that serializes same-edge operations; the record is the
//! stamp-sorted safe log followed by the serial unsafe groups (whose
//! execution order *is* their record order, every safe stamp preceding
//! them via the shard barrier and the cut) — so replay reproduces the
//! cross-shard execution order byte-exactly, even for same-edge
//! count-races across sessions within one epoch. A checkpoint is taken
//! inside the cut too, so a record, a feed cut and a snapshot all close
//! on one boundary. When [`ServerConfig::max_followers`]
//! `> 0`, the same per-epoch record — enriched with its version shape
//! (safe bump count + unsafe version groups) — is also published to
//! the [`ReplicationFeed`] for streaming replicas
//! ([`crate::replication`]). History: every result-changing update records
//! its per-vertex deltas (serial phase only — safe updates change no
//! results); GC runs on released-version watermarks every
//! `gc_interval` (default 100 ms; §5 collects every second, but here a
//! collection costs only the log segments it drops, so a shorter
//! cadence just keeps less history resident).

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use risgraph_common::hash::FxHashMap;
use risgraph_common::ids::{Edge, Update, VersionId, VertexId};
use risgraph_common::metrics::{
    slow_epoch_threshold_from_env, Counter, EpochTracer, Gauge, Phase, Registry, PHASE_COUNT,
};
use risgraph_common::stats::AtomicHistogram;
use risgraph_common::stripe::Striped;
use risgraph_common::{Error, Result};
use risgraph_storage::{AnyStore, BackendKind, DynamicGraph};

use crate::engine::{
    ChangeRecord, ChangeSet, DynAlgorithm, Engine, EngineConfig, SafeApply, Safety,
};
use crate::injector::Injector;
use crate::pool::WorkerPool;
use crate::replication::ReplicationFeed;
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::tree::Value;
use crate::versioned::{vertex_bound, Versioned};
use crate::wal::{read_snapshot, write_snapshot, Snapshot, WalWriter};

mod gather;
use gather::Gather;

/// Server construction parameters.
#[derive(Clone)]
pub struct ServerConfig {
    /// Engine tuning.
    pub engine: EngineConfig,
    /// Storage backend (§6.3's comparison matrix): the server
    /// enum-dispatches over [`AnyStore`] so sessions, the WAL and the
    /// history store stay non-generic while any Table 8/9 layout — or
    /// either out-of-core store — serves the same traffic. Defaults to
    /// the `RISGRAPH_STORE` environment variable (any CLI spelling,
    /// e.g. `ooc-mmap`) when set, else IA_Hash.
    pub backend: BackendKind,
    /// Scheduler tuning (latency limit etc.).
    pub scheduler: SchedulerConfig,
    /// Shard executors for the epoch loop's safe phase. `1` keeps the
    /// fully serial coordinator; `N > 1` hash-partitions sessions across
    /// `N` executors: the coordinator (executor 0) and the workers of
    /// the server's [`WorkerPool`], which holds
    /// `max(shards, unsafe_workers) − 1` threads. Defaults to the
    /// `RISGRAPH_SHARDS` environment variable when set, else the
    /// machine's available parallelism.
    ///
    /// The partition applies to epochs of more than
    /// [`INLINE_SAFE_PER_SHARD`]` × shards` safe updates; a smaller
    /// epoch runs on the coordinator alone, as if `shards` were 1 (the
    /// inline rule, see the module docs), so the value set here costs
    /// nothing while traffic is sparse.
    pub shards: usize,
    /// Enable the write-ahead log at this path (replayed on startup).
    pub wal_path: Option<PathBuf>,
    /// Maintain the history store (versioned snapshots).
    pub enable_history: bool,
    /// History GC cadence. The paper (§5) collects every second; the
    /// default here is 100 ms, because
    /// [`HistoryStore::collect`](crate::HistoryStore::collect) costs
    /// only the log segments it drops and defers nothing to later
    /// writes — collecting ten times as often is not more work, it only
    /// bounds resident history to the release lag plus 100 ms of
    /// traffic instead of plus 1 s.
    pub gc_interval: Duration,
    /// Coordinator poll timeout while idle.
    pub idle_poll: Duration,
    /// Minimum interval between WAL fsyncs. Group commit batches all
    /// updates applied since the last sync; a per-epoch fsync would
    /// dominate wall time when epochs are small (buffered appends still
    /// happen every epoch — only the `fsync` is paced).
    pub wal_sync_interval: Duration,
    /// Upper bound on safe updates gathered per epoch (backpressure).
    pub max_epoch_updates: usize,
    /// Hard ceiling on the vertex range on-demand capacity growth may
    /// reach: an update addressing a vertex id at or beyond this is
    /// rejected with `VertexNotFound` instead of growing the engine.
    /// Without it, one update naming vertex `2^60` — trivially
    /// craftable over the wire — would drive `ensure_capacity` into a
    /// capacity-overflow panic on the coordinator and take the whole
    /// server down. Bulk loads (`Server::load_edges`) are not subject
    /// to this limit.
    pub max_capacity: usize,
    /// Executors for the epoch loop's unsafe phase. `1` (the default)
    /// keeps the fully serial paper discipline. `N > 1` enables the
    /// optimistic parallel unsafe phase: before executing, every
    /// pending unsafe operation's affected area is probed (a capped
    /// component walk, see `crate::affected::footprint`), the
    /// operations are partitioned into footprint-disjoint conflict
    /// groups, and disjoint groups execute concurrently on `N` of the
    /// shard executors (see [`ServerConfig::shards`]) — with version
    /// numbers, replies, history and the WAL record still assigned in
    /// arrival order, so everything observable (including replication
    /// replay) is identical to the serial phase. Any probe overflow or
    /// full-overlap partition falls back to the serial path for that
    /// epoch. Defaults to the `RISGRAPH_UNSAFE_WORKERS` environment
    /// variable when set, else 1.
    pub unsafe_workers: usize,
    /// Probe budget for the parallel unsafe phase: an operation whose
    /// affected-area walk exceeds this many vertices is treated as
    /// conflicting with everything (serial fallback). §7: affected
    /// areas on power-law graphs are tiny, so a small cap admits the
    /// common case while bounding probe cost.
    pub unsafe_footprint_cap: usize,
    /// Replication follower slots. `0` (the default) disables the
    /// replication feed entirely — no records are retained and
    /// `SUBSCRIBE` is refused. `N > 0` publishes every epoch's merged,
    /// stamp-sorted record to an in-memory [`ReplicationFeed`] that up
    /// to `N` followers may stream (`crates/net`'s `SUBSCRIBE` path).
    /// Appending to the feed never blocks on followers, so a slow
    /// follower lags without wedging the epoch loop. Defaults to the
    /// `RISGRAPH_MAX_FOLLOWERS` environment variable when set, else 0.
    pub max_followers: usize,
    /// Rotate the WAL to a fresh segment once the active one reaches
    /// this many bytes. `0` (the default) disables rotation and keeps
    /// the pre-segmentation single-file behaviour; `> 0` also arms the
    /// checkpoint-pressure trigger (a checkpoint fires once enough
    /// sealed segments pile up, pg_walrus's `max_wal_size`
    /// discipline), which truncates segments older than the snapshot.
    /// Defaults to the `RISGRAPH_MAX_WAL_SEGMENT` environment variable
    /// when set, else 0.
    pub max_wal_segment_bytes: u64,
    /// Periodic checkpoint cadence: every interval the coordinator
    /// rotates the log, persists a structure + results snapshot,
    /// truncates pre-snapshot segments and cuts the replication feed's
    /// retention floor. `None` (the default) leaves checkpointing to
    /// the pressure trigger alone (or disables it entirely when
    /// `max_wal_segment_bytes` is also 0). Defaults to the
    /// `RISGRAPH_CHECKPOINT_INTERVAL_MS` environment variable when
    /// set, else `None`.
    pub checkpoint_interval: Option<Duration>,
    /// Slow-epoch tracing threshold: an epoch whose total execution
    /// time (post-gather) reaches this duration is flagged by the
    /// [`EpochTracer`] and retained in the flagged ring with its full
    /// per-phase breakdown, retrievable after the fact via
    /// [`Server::tracer`]. `Duration::ZERO` flags every traced epoch.
    /// Defaults to the `RISGRAPH_TRACE_SLOW_EPOCH_MS` environment
    /// variable when set, else 1000 ms.
    pub trace_slow_epoch: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            engine: EngineConfig::default(),
            backend: BackendKind::from_env(),
            scheduler: SchedulerConfig::default(),
            shards: std::env::var("RISGRAPH_SHARDS")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&n: &usize| n >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(4)
                }),
            wal_path: None,
            enable_history: true,
            gc_interval: Duration::from_millis(100),
            idle_poll: Duration::from_micros(200),
            wal_sync_interval: Duration::from_millis(2),
            max_epoch_updates: 1 << 16,
            max_capacity: 1 << 26,
            unsafe_workers: std::env::var("RISGRAPH_UNSAFE_WORKERS")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&n: &usize| n >= 1)
                .unwrap_or(1),
            unsafe_footprint_cap: 4096,
            max_followers: std::env::var("RISGRAPH_MAX_FOLLOWERS")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
            max_wal_segment_bytes: std::env::var("RISGRAPH_MAX_WAL_SEGMENT")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
            checkpoint_interval: std::env::var("RISGRAPH_CHECKPOINT_INTERVAL_MS")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&ms: &u64| ms > 0)
                .map(Duration::from_millis),
            trace_slow_epoch: slow_epoch_threshold_from_env(),
        }
    }
}

/// A submitted operation: one update, or an atomic batch (`txn_updates`).
#[derive(Debug, Clone)]
pub enum Op {
    /// A single vertex/edge update.
    Single(Update),
    /// A write-only transaction: all-or-nothing (§4 "Supporting
    /// Transactions").
    Txn(Vec<Update>),
}

impl Op {
    fn updates(&self) -> &[Update] {
        match self {
            Op::Single(u) => std::slice::from_ref(u),
            Op::Txn(us) => us,
        }
    }
}

/// Take a checkpoint: rotate the log onto a fresh segment, persist a
/// snapshot of the full store structure plus per-algorithm results
/// (with the replication-feed cut it corresponds to), truncate every
/// pre-snapshot segment, and move the feed's retention floor to the
/// cut. Crash-safe at every step: until the snapshot rename lands,
/// recovery uses the previous snapshot plus the still-retained
/// segments; once it lands, the older segments are dead weight whether
/// or not the truncation completed.
fn perform_checkpoint(
    shared: &Shared,
    wal: &mut WalWriter,
    feed: Option<&ReplicationFeed>,
) -> Result<()> {
    let start_seg = wal.rotate()?;
    // The cut is taken after this epoch's feed publish (and before any
    // later one — the coordinator is the only publisher), so the
    // exported structure reflects exactly the records below it.
    let (cut_index, cut_version) = match feed {
        Some(f) => (f.len(), shared.versioned.current_version()),
        None => (0, 0),
    };
    let engine = shared.versioned.engine();
    let upper_bound = engine.capacity() as u64;
    let snap = Snapshot {
        start_seg,
        cut_index,
        cut_version,
        upper_bound,
        updates: engine.export_structure(),
        results: engine.results_snapshot(upper_bound as usize),
    };
    write_snapshot(wal.base(), &snap)?;
    wal.truncate_to(start_seg)?;
    if let Some(f) = feed {
        f.set_checkpoint(cut_index, cut_version);
    }
    shared.stats.wal_checkpoints.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Sealed-segment backlog that forces a pressure checkpoint when
/// rotation is enabled — pg_walrus's `max_wal_size` discipline: disk
/// never holds more than about this many segments beyond the snapshot.
const CHECKPOINT_SEGMENT_LAG: u64 = 4;

/// The inline rule's constant: an epoch holding at most this many safe
/// updates **per configured shard** runs its safe phase on the
/// coordinator alone (see [`ServerConfig::shards`]).
///
/// From a three-point sweep on the `perfbench` workloads either side of
/// the rule (nproc 2, `shards = 2`, seeds 1 and 2, one 10 s run each;
/// the parent commit, which never inlines, for reference):
///
/// | per shard | `inproc_paper_sync` ops/s | `tcp_safe_open` P50 µs | `tcp_safe_peak` ops/s | `tcp_mux_sessions` ops/s |
/// |---|---|---|---|---|
/// | parent | 33 k, 33 k | 350, 277 | 186 k, 236 k | 185 k, 223 k |
/// | **8** | 241 k, 271 k | 395, 230 | 201 k, 255 k | 207 k, 216 k |
/// | 64 | 230 k, 271 k | 353, 231 | 181 k, 233 k | 203 k, 228 k |
/// | 512 | 203 k, 266 k | 335, 247 | 195 k, 219 k | 213 k, 211 k |
///
/// 8 and 64 are not distinguishable (a seed moves every row by more
/// than the constant does); 512 starts to pull mid-sized epochs off the
/// workers and trails on the synchronous and the saturated workload.
/// The smallest value that covers a synchronous epoch — one update per
/// session, a handful of sessions per core — is the one that leaves
/// everything larger on the path it was on.
pub const INLINE_SAFE_PER_SHARD: usize = 8;

/// How long a synchronous submission the coordinator answers — a routed
/// one: unsafe, demoted, a transaction, or one that found the gate held
/// (see [`Session`]) — probes its reply channel before it parks (by the
/// clock). A safe update applied on the calling thread never waits.
/// About ten small epochs: long enough that a routed safe update's
/// reply is caught, short enough that a caller waiting out an unsafe
/// update or a large epoch gives its core away almost at once.
pub const SYNC_REPLY_SPIN: Duration = Duration::from_micros(30);

/// Information returned with every successful update.
#[derive(Debug, Clone, Copy)]
pub struct Applied {
    /// How the update was executed.
    pub safety: Safety,
    /// Number of per-vertex result changes (across all algorithms).
    pub result_changes: usize,
}

/// The reply to a submitted operation.
#[derive(Debug)]
pub struct Reply {
    /// Version id of the result view after this operation.
    pub version: VersionId,
    /// Outcome (errors carry no version semantics: the view is the
    /// version preceding the failed operation).
    pub outcome: Result<Applied>,
}

/// A callback fired after a reply lands in a session's channel, so a
/// reactor-style consumer that cannot park on `recv()` (it is busy in
/// `epoll_wait`) learns there is something to drain. Installed per
/// session via [`Session::set_reply_waker`]; must be cheap and
/// non-blocking (it runs on the epoch loop).
pub type ReplyWaker = Arc<dyn Fn() + Send + Sync>;

struct Envelope {
    session: u64,
    /// Caller-chosen correlation tag, echoed with the reply. The
    /// synchronous [`Session`] API uses 0 (one outstanding op, nothing
    /// to correlate); pipelined callers (the network tier) thread their
    /// request ids through so replies can be matched out of band.
    tag: u64,
    op: Op,
    enqueued: Instant,
    reply: Sender<(u64, Reply)>,
    /// Snapshot of the session's reply waker at submission time, fired
    /// after the reply is sent.
    waker: Option<ReplyWaker>,
}

/// Coordinator-visible counters, sampled by the Figure 11b/12 harnesses.
///
/// Every field is an [`Arc`] handle into the server's metrics
/// [`Registry`] (see `ServerStats::registered`), so the same cells
/// back both this struct's named accessors and the schema-less registry
/// snapshot behind the `METRICS` opcode — no double accounting, no
/// field threading. `Arc<Counter>`/`Arc<Gauge>` deref to the same
/// `fetch_add`/`load`/`store` surface as the `AtomicU64`s they
/// replaced, so call sites are unchanged.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Epoch loops completed.
    pub epochs: Arc<Counter>,
    /// Epochs whose safe phase stayed on the coordinator — no dispatch,
    /// no barrier — because they held at most
    /// [`INLINE_SAFE_PER_SHARD`] routed safe updates per shard (every
    /// epoch of a `shards = 1` server, and every epoch that only cut
    /// what callers applied on their own threads). `epochs −
    /// epochs_inline` is the number that took the sharded path. Safe
    /// updates a synchronous caller applied itself are not in any
    /// epoch's safe phase; `safe_inline` counts them.
    pub epochs_inline: Arc<Counter>,
    /// Synchronous submissions whose reply took longer than the
    /// caller-side spin ([`SYNC_REPLY_SPIN`]) and parked the calling
    /// thread — each one cost a sleep and a wake-up syscall.
    pub sync_reply_parks: Arc<Counter>,
    /// Session queues the coordinator holds, as of the last GC tick
    /// (which drops the drained ones).
    pub pending_sessions: Arc<Gauge>,
    /// Session queues the gather stage looked at. A pass visits only
    /// sessions that received something (plus, in an epoch's first
    /// pass, those carried over blocked or demoted), so this grows with
    /// the updates served — at most two visits each — and not with the
    /// number of sessions open.
    pub sessions_examined: Arc<Counter>,
    /// Updates executed on the parallel safe path.
    pub safe_executed: Arc<Counter>,
    /// Of `safe_executed`, the updates a synchronous caller classified
    /// and applied on its own thread (see [`Session`]) — no hand-off to
    /// the coordinator and back.
    pub safe_inline: Arc<Counter>,
    /// Safe transactions whose rollback could not undo an applied
    /// update: the store matches neither the pre-transaction state nor
    /// any prefix of it, and the reply said [`Error::Corruption`].
    pub safe_rollback_failures: Arc<Counter>,
    /// Updates executed on the serial unsafe path.
    pub unsafe_executed: Arc<Counter>,
    /// Safe-phase demotions (revalidation failures).
    pub demotions: Arc<Counter>,
    /// Current scheduler threshold (Figure 12's trace).
    pub threshold: Arc<Gauge>,
    /// Nanoseconds spent in the scheduler/classification bookkeeping.
    pub sched_ns: Arc<Counter>,
    /// Nanoseconds recording history.
    pub history_ns: Arc<Counter>,
    /// Undo entries a readable version can still need, summed over
    /// algorithms; refreshed on the GC tick.
    pub history_resident_entries: Arc<Gauge>,
    /// Heap bytes of the history stores (whole log segments, head
    /// tables, version indexes); refreshed on the GC tick.
    pub history_resident_bytes: Arc<Gauge>,
    /// Nanoseconds appending + syncing the WAL.
    pub wal_ns: Arc<Counter>,
    /// Nanoseconds envelopes spent queued before execution ("network"
    /// tier in the Figure 11b breakdown).
    pub queue_ns: Arc<Counter>,
    /// Log-bucketed histogram of per-update completion latency
    /// (submission → reply sent), across both safety classes — the
    /// paper's headline metric, queryable as P50/P99/P999 via
    /// [`ServerStats::latency_percentiles_ns`], the CLI `stats`
    /// command, and the wire protocol's `METRICS` opcode.
    pub update_latency: Arc<AtomicHistogram>,
    /// Histogram of unsafe-update waits (submission → start of serial
    /// execution). Its max is the scheduler's side of the latency
    /// contract: bounded by the limit plus at most one epoch.
    pub unsafe_wait: Arc<AtomicHistogram>,
    /// Histogram of whole unsafe-phase durations, one sample per epoch
    /// that executed any unsafe work — the phase-split counterpart of
    /// `update_latency`, and the quantity the parallel unsafe phase
    /// exists to shrink.
    pub unsafe_phase: Arc<AtomicHistogram>,
    /// Conflict groups executed concurrently by the parallel unsafe
    /// phase (0 unless `ServerConfig::unsafe_workers > 1`).
    pub unsafe_parallel_groups: Arc<Counter>,
    /// Epochs where the parallel unsafe phase declined to run — probe
    /// overflow or full overlap — and the serial path executed instead
    /// (counted only when `unsafe_workers > 1` and more than one
    /// unsafe operation was pending, i.e. parallelism was forgone).
    pub unsafe_serial_fallbacks: Arc<Counter>,
    /// Longest epoch execution (post-gather) in nanoseconds — the grace
    /// term in the scheduler's wait bound.
    pub max_epoch_ns: Arc<Gauge>,
    /// Lowest scheduler threshold observed (`u64::MAX` until the first
    /// epoch) — witnesses downward self-adjustment under pressure.
    pub min_threshold: Arc<Gauge>,
    /// WAL records replayed at startup — the restart-cost counter.
    /// With checkpointing active this counts only post-snapshot
    /// records, witnessing that recovery is proportional to the delta
    /// since the last checkpoint rather than to history since genesis.
    pub wal_replayed_records: Arc<Counter>,
    /// Checkpoints taken (snapshot written + old segments truncated +
    /// feed retention cut), including the startup checkpoint after a
    /// recovery.
    pub wal_checkpoints: Arc<Counter>,
    /// Failed WAL appends and fsyncs, read as `wal.errors` from the
    /// registry. The first one stops the write path (module docs).
    pub(crate) wal_errors: Arc<Counter>,
}

impl ServerStats {
    /// Stats whose every cell is owned by `registry`, under stable
    /// `core.*` names — the `METRICS` snapshot reads the same memory.
    fn registered(registry: &Registry) -> Self {
        let stats = ServerStats {
            epochs: registry.counter("core.epochs"),
            epochs_inline: registry.counter("core.epochs_inline"),
            sync_reply_parks: registry.counter("core.sync_reply_parks"),
            pending_sessions: registry.gauge("core.pending_sessions"),
            sessions_examined: registry.counter("core.gather.sessions_examined"),
            safe_executed: registry.counter("core.safe_executed"),
            safe_inline: registry.counter("core.safe_inline"),
            safe_rollback_failures: registry.counter("core.safe_rollback_failures"),
            unsafe_executed: registry.counter("core.unsafe_executed"),
            demotions: registry.counter("core.demotions"),
            threshold: registry.gauge("core.threshold"),
            sched_ns: registry.counter("core.sched_ns"),
            history_ns: registry.counter("core.history_ns"),
            history_resident_entries: registry.gauge("core.history.resident_entries"),
            history_resident_bytes: registry.gauge("core.history.resident_bytes"),
            wal_ns: registry.counter("core.wal_ns"),
            queue_ns: registry.counter("core.queue_ns"),
            update_latency: registry.histogram("core.update_latency_ns"),
            unsafe_wait: registry.histogram("core.unsafe_wait_ns"),
            unsafe_phase: registry.histogram("core.unsafe_phase_ns"),
            unsafe_parallel_groups: registry.counter("core.unsafe_parallel_groups"),
            unsafe_serial_fallbacks: registry.counter("core.unsafe_serial_fallbacks"),
            max_epoch_ns: registry.gauge("core.max_epoch_ns"),
            min_threshold: registry.gauge("core.min_threshold"),
            wal_replayed_records: registry.counter("wal.replayed_records"),
            wal_checkpoints: registry.counter("wal.checkpoints"),
            wal_errors: registry.counter("wal.errors"),
        };
        stats.min_threshold.store(u64::MAX, Ordering::Relaxed);
        stats
    }

    /// Worst wait (submission → start of execution) of any unsafe
    /// update, in nanoseconds (0 when none executed yet).
    pub fn max_unsafe_wait_ns(&self) -> u64 {
        let max = self.unsafe_wait.max_ns();
        if self.unsafe_wait.count() == 0 {
            0
        } else {
            max
        }
    }

    /// `(p50, p99, p999)` of per-update completion latency in
    /// nanoseconds — read from one snapshot, so the three values are
    /// mutually consistent (monotone) under concurrent recording.
    pub fn latency_percentiles_ns(&self) -> (u64, u64, u64) {
        let snap = self.update_latency.snapshot();
        (
            snap.quantile_ns(0.5),
            snap.quantile_ns(0.99),
            snap.quantile_ns(0.999),
        )
    }

    /// `(p50, p99, p999)` of per-epoch unsafe-phase duration in
    /// nanoseconds, from one snapshot (all zero until an epoch has run
    /// unsafe work).
    pub fn unsafe_phase_percentiles_ns(&self) -> (u64, u64, u64) {
        let snap = self.unsafe_phase.snapshot();
        (
            snap.quantile_ns(0.5),
            snap.quantile_ns(0.99),
            snap.quantile_ns(0.999),
        )
    }
}

struct Shared {
    /// The engine, its histories, the version counter and the query
    /// gate — held exclusively by the cut, through unsafe execution, so
    /// point-in-time queries never observe a half-applied update.
    versioned: Versioned,
    /// The submit side: sessions push, the coordinator takes the whole
    /// backlog once per gather pass.
    injector: Injector<Envelope>,
    shutdown: AtomicBool,
    released: Mutex<FxHashMap<u64, VersionId>>,
    next_session: AtomicU64,
    /// Global application-order stamp for WAL linearization: every
    /// applied update draws one (edge updates inside the store lock
    /// that serializes same-edge operations), and the epoch's merged
    /// WAL record is sorted by it before appending.
    seq: AtomicU64,
    /// What synchronous callers applied on their own threads since the
    /// last cut (see [`Session`]): each update with its stamp, and the
    /// op and scheduler counts. One log per thread stripe, so callers
    /// on different threads take different locks on different lines;
    /// the cut walks them all. Pushed to under the gate's shared side
    /// and drained under its exclusive side, so a cut never separates
    /// an apply from its version or from its entry here.
    inline_log: Striped<Mutex<SafeOutcome>>,
    /// Whether epochs become records — a WAL or a replication feed is
    /// on. Without either, callers log only counts (the updates would be
    /// written nowhere), and a cut with no unsafe work and no
    /// transaction to run takes no gate.
    records: bool,
    /// The scheduler's latency limit, for the callers' own count of the
    /// safe updates they served within it.
    latency_limit: Duration,
    /// Set by the first failed WAL append or fsync: from then on callers
    /// route every update to the coordinator, which refuses it.
    write_stopped: AtomicBool,
    stats: ServerStats,
    /// The unified metrics registry: every `stats` cell, the WAL and
    /// replication-feed gauges, and (via [`Server::metrics`]) whatever
    /// the serving tier registers all live here, snapshot lock-free by
    /// the `METRICS` opcode and the Prometheus exposition.
    metrics: Arc<Registry>,
    /// The epoch-pipeline tracer: per-epoch phase spans in a lock-free
    /// ring, slow epochs flagged and retained separately.
    tracer: Arc<EpochTracer>,
    /// Set by [`Server::crash`]: exit without the final WAL flush,
    /// simulating power loss of the buffered log tail.
    hard_crash: AtomicBool,
    /// Test hook: force every compensating rollback application to
    /// report failure, so the `Error::Corruption` surfacing path is
    /// exercisable (real inverses essentially never fail).
    #[cfg(test)]
    fail_rollback: AtomicBool,
    /// Test hook: make every WAL append report failure.
    #[cfg(test)]
    fail_wal_append: AtomicBool,
    /// Test hook: run between a safe transaction's constituents, after
    /// the first has applied and before the next applies.
    #[cfg(test)]
    txn_gap: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

/// The RisGraph interactive server.
pub struct Server {
    shared: Arc<Shared>,
    coordinator: Option<std::thread::JoinHandle<()>>,
    /// The replication feed (present iff `max_followers > 0`).
    feed: Option<Arc<ReplicationFeed>>,
    /// WAL base path, kept for snapshot-bootstrap reads.
    wal_path: Option<PathBuf>,
}

impl Server {
    /// Start a server maintaining `algorithms` with the given capacity.
    /// If a WAL exists at the configured path it is replayed first.
    pub fn start(
        algorithms: Vec<DynAlgorithm>,
        capacity: usize,
        config: ServerConfig,
    ) -> Result<Self> {
        let num_algos = algorithms.len();
        let versioned = Versioned::open(
            algorithms,
            capacity,
            &config.backend,
            config.engine.clone(),
            config.max_capacity,
            config.enable_history,
        )?;
        let engine = versioned.engine();

        // The registry precedes every subsystem so each can self-register
        // its cells instead of threading fields through by hand.
        let metrics = Arc::new(Registry::new());
        let tracer = Arc::new(EpochTracer::new(config.trace_slow_epoch, &metrics));
        metrics.adopt_counter(
            "core.push.escalations",
            Arc::clone(&engine.stats().push_escalations),
        );

        let feed = (config.max_followers > 0)
            .then(|| Arc::new(ReplicationFeed::new(config.max_followers)));
        if let Some(feed) = &feed {
            feed.register_metrics(&metrics);
        }

        let mut wal = None;
        let mut replayed_records: u64 = 0;
        let mut recovered_any = false;
        if let Some(path) = &config.wal_path {
            // Recovery: apply the checkpoint snapshot (structure plus
            // per-algorithm results), replay the retained post-snapshot
            // segments, and recompute only when a tail actually
            // replayed (or the snapshot carried no results). `recover`
            // also physically truncates a torn tail before reopening
            // for append, so records written after this recovery can
            // never land behind leftover garbage.
            let (recovery, writer) = WalWriter::recover(path, config.max_wal_segment_bytes)?;
            replayed_records = recovery.replayed_records;
            let mut bootstrap: Vec<Update> = Vec::new();
            let mut restored_results = false;
            if let Some(snap) = &recovery.snapshot {
                recovered_any = true;
                versioned.load_structure(&snap.updates);
                if !snap.results.is_empty() && snap.results.len() == num_algos {
                    engine.restore_results(&snap.results);
                    restored_results = true;
                }
                bootstrap.extend_from_slice(&snap.updates);
            }
            let had_tail = !recovery.batches.is_empty();
            recovered_any |= had_tail;
            for batch in &recovery.batches {
                versioned.load_structure(batch);
            }
            if had_tail || (recovered_any && !restored_results) {
                engine.recompute_all();
            }
            // Re-publish the recovered prefix so a fresh follower can
            // catch up from feed index 0: structure-only bootstrap
            // records (the server itself restarts at version 0 after
            // recovery). The startup checkpoint below immediately cuts
            // these when checkpointing is on, so a snapshot bootstrap
            // replaces the replayed-from-genesis catch-up.
            bootstrap.extend(recovery.batches.into_iter().flatten());
            if !bootstrap.is_empty() {
                if let Some(feed) = &feed {
                    feed.append_bootstrap(bootstrap);
                }
            }
            wal = Some(writer);
        }
        let wal_path = config.wal_path.clone();

        let shared = Arc::new(Shared {
            versioned,
            injector: Injector::new(),
            shutdown: AtomicBool::new(false),
            released: Mutex::new(FxHashMap::default()),
            next_session: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            inline_log: Striped::new(|| Mutex::new(SafeOutcome::default())),
            records: wal.is_some() || feed.is_some(),
            latency_limit: config.scheduler.latency_limit,
            write_stopped: AtomicBool::new(false),
            stats: ServerStats::registered(&metrics),
            metrics,
            tracer,
            hard_crash: AtomicBool::new(false),
            #[cfg(test)]
            fail_rollback: AtomicBool::new(false),
            #[cfg(test)]
            fail_wal_append: AtomicBool::new(false),
            #[cfg(test)]
            txn_gap: Mutex::new(None),
        });
        shared
            .stats
            .wal_replayed_records
            .store(replayed_records, Ordering::Relaxed);

        // Startup checkpoint: fold the recovered state into a fresh
        // snapshot so the next restart replays nothing, and cut the
        // feed so the bootstrap records just appended become evictable
        // once followers pass them. Only when checkpointing is on —
        // with it off the log keeps its legacy single-file,
        // replay-from-genesis behaviour byte-for-byte.
        if recovered_any
            && (config.checkpoint_interval.is_some() || config.max_wal_segment_bytes > 0)
        {
            if let Some(w) = wal.as_mut() {
                perform_checkpoint(&shared, w, feed.as_deref())?;
            }
        }

        // Shard executors 1..N; the coordinator itself is executor 0.
        // The safe phase partitions across exactly `config.shards`
        // executors and the parallel unsafe phase across
        // `config.unsafe_workers`, so the pool is sized for the larger
        // of the two — spare workers simply idle during the other
        // phase. The coordinator owns the pool, so the workers exit
        // when it returns.
        let executors = config.shards.max(config.unsafe_workers).max(1);
        let pool = WorkerPool::spawn(executors - 1, |i| format!("risgraph-shard-{}", i + 1));

        let coord_shared = Arc::clone(&shared);
        let coord_feed = feed.clone();
        let coordinator = std::thread::Builder::new()
            .name("risgraph-coordinator".into())
            .spawn(move || coordinator_loop(coord_shared, config, wal, pool, coord_feed))
            .expect("spawn coordinator");
        Ok(Server {
            shared,
            coordinator: Some(coordinator),
            feed,
            wal_path,
        })
    }

    /// Bulk-load a graph before serving traffic (initial computation
    /// included). Not logged to the WAL — load from your dataset on
    /// recovery instead.
    pub fn load_edges(&self, edges: &[(VertexId, VertexId, u64)]) {
        self.shared.versioned.engine().load_edges(edges);
    }

    /// Open a new session.
    pub fn session(&self) -> Session {
        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        self.shared.released.lock().insert(id, 0);
        let (reply_tx, reply_rx) = unbounded();
        Session {
            id,
            shared: Arc::clone(&self.shared),
            reply_tx,
            reply_rx,
            waker: Mutex::new(None),
        }
    }

    /// Direct engine access (benchmarks, tests).
    pub fn engine(&self) -> &Engine<AnyStore> {
        self.shared.versioned.engine()
    }

    /// The versioned result store every query reads (the serving tier
    /// answers wire queries from it).
    pub fn versioned(&self) -> &Versioned {
        &self.shared.versioned
    }

    /// Server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// The unified metrics registry — every coordinator/WAL/feed cell,
    /// plus anything outer tiers register (the net tier adds its
    /// per-worker reactor gauges here). Snapshot it for the `METRICS`
    /// opcode or render it for Prometheus exposition.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.shared.metrics
    }

    /// The epoch-pipeline tracer: recent per-epoch phase breakdowns and
    /// the retained slow-epoch ring (threshold
    /// [`ServerConfig::trace_slow_epoch`]).
    pub fn tracer(&self) -> &Arc<EpochTracer> {
        &self.shared.tracer
    }

    /// The replication feed, when enabled
    /// ([`ServerConfig::max_followers`] `> 0`).
    pub fn feed(&self) -> Option<&Arc<ReplicationFeed>> {
        self.feed.as_ref()
    }

    /// The latest checkpoint snapshot, packaged for a fresh follower's
    /// bootstrap: `(structure updates, resume feed index, resume
    /// version)`. Re-reads until the snapshot's embedded feed cut is
    /// at or beyond the feed's retention base — a concurrent
    /// checkpoint atomically replaces the file, so a stale read just
    /// retries against the newer snapshot. `None` when the WAL, the
    /// feed or a snapshot doesn't exist (the caller falls back to
    /// streaming retained feed records).
    pub fn snapshot_for_bootstrap(&self) -> Option<(Vec<Update>, u64, u64)> {
        let path = self.wal_path.as_ref()?;
        let feed = self.feed.as_ref()?;
        for _ in 0..64 {
            let snap = read_snapshot(path).ok()??;
            if snap.cut_index >= feed.base() {
                return Some((snap.updates, snap.cut_index, snap.cut_version));
            }
        }
        None
    }

    /// The latest assigned result version.
    pub fn current_version(&self) -> VersionId {
        self.shared.versioned.current_version()
    }

    /// Memory-resident history deltas across all algorithms: the undo
    /// entries a readable version can still need, which sessions bound
    /// by releasing versions. The `core.history.resident_entries` gauge
    /// is this number as of the last GC tick.
    pub fn history_resident_entries(&self) -> usize {
        self.shared.versioned.resident_entries()
    }

    /// Stop the coordinator and drain.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    /// Stop the server **without** flushing the buffered WAL tail —
    /// a power-loss simulation for crash-recovery tests. Updates whose
    /// records were still buffered (group commit trades a bounded
    /// durability window for throughput, §5) are lost; replay recovers
    /// the longest clean record prefix.
    pub fn crash(mut self) {
        self.shared.hard_crash.store(true, Ordering::Release);
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // The coordinator joins the shard executors as it exits.
        if let Some(h) = self.coordinator.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}

/// A client session (an emulated synchronous user, §6.2).
///
/// Two submission disciplines share one reply channel:
///
/// * the **synchronous** Table 1 methods ([`Session::ins_edge`] etc.)
///   submit one op and return its reply — the paper's emulated
///   synchronous users. A single update is classified **on the calling
///   thread**, and a safe one is applied there too (§4: safe updates
///   change no result, so they commute with each other and may run
///   anywhere that unsafe ones are excluded): under the shared side of
///   the store's gate the caller classifies and applies it in one
///   engine call ([`Engine::try_apply_safe_inline`]), takes its
///   version and stamps it into its thread stripe of the server's
///   inline log, which the coordinator's next *cut* — the gate's
///   exclusive side, once per epoch — folds into that epoch's WAL
///   record and feed record ahead of the unsafe phase. Nothing is
///   handed to the coordinator and nothing comes back;
///   `core.safe_inline` counts these updates. Everything else is
///   *routed* through the coordinator as before: an unsafe update, a
///   transaction, an update that needs the engine to grow, one that
///   finds the gate held, and anything after shutdown or a failed log
///   write. A routed op's wait is
///   spin-then-park on the calling thread: it probes the reply channel
///   (lock-free, yielding every 64 probes) for at most
///   [`SYNC_REPLY_SPIN`] before it sleeps. Waits that outlast the spin
///   are counted in `core.sync_reply_parks`;
/// * the **pipelined** pair [`Session::submit_op_tagged`] /
///   [`Session::recv_tagged`] keeps many ops in flight, each stamped
///   with a caller-chosen tag that comes back with its reply. It never
///   spins: `recv_tagged` parks at once, and an event loop uses
///   [`Session::set_reply_waker`]. The network tier threads wire
///   request-ids through here, so every network update is routed.
///   Don't mix the two on one session while tagged ops are in flight —
///   a synchronous call would steal the next tagged reply, or apply
///   ahead of them.
///
/// No server thread spins — only the thread that owns a synchronous
/// wait may burn its own time slice on it.
pub struct Session {
    id: u64,
    shared: Arc<Shared>,
    reply_tx: Sender<(u64, Reply)>,
    reply_rx: Receiver<(u64, Reply)>,
    waker: Mutex<Option<ReplyWaker>>,
}

impl Session {
    /// This session's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    fn submit(&self, op: Op) -> Reply {
        if let Op::Single(u) = &op {
            if let Some(reply) = self.apply_inline(u) {
                return reply;
            }
        }
        if let Err(e) = self.submit_op_tagged(op, 0) {
            return Reply {
                version: self.shared.versioned.current_version(),
                outcome: Err(e),
            };
        }
        // Spin, then park. A small epoch answers in a few
        // microseconds; picking that reply up without sleeping saves
        // this thread's wake-up latency and — the reply channel only
        // notifies a parked receiver — the coordinator's wake-up
        // syscall. The probe takes no lock, and the yields hand the
        // core over whenever something else is runnable.
        let spin_until = Instant::now() + SYNC_REPLY_SPIN;
        'spin: loop {
            for _ in 0..64 {
                if !self.reply_rx.is_empty() {
                    break 'spin;
                }
                std::hint::spin_loop();
            }
            if Instant::now() >= spin_until {
                self.shared
                    .stats
                    .sync_reply_parks
                    .fetch_add(1, Ordering::Relaxed);
                break;
            }
            std::thread::yield_now();
        }
        match self.reply_rx.recv() {
            Ok((_, r)) => r,
            Err(_) => Reply {
                version: self.shared.versioned.current_version(),
                outcome: Err(Error::Shutdown),
            },
        }
    }

    /// Apply `u` on this thread if it is safe (see the type docs): one
    /// engine call classifies and applies it under one read of the
    /// engine state. `None` routes it: it is not safe, needs growth, or
    /// the gate is held or the write path closed. The clock is read
    /// twice — on entry and once the reply is ready — and that one span
    /// is both the scheduler's latency sample and `update_latency`'s.
    fn apply_inline(&self, u: &Update) -> Option<Reply> {
        let start = Instant::now();
        let shared = &*self.shared;
        let versioned = &shared.versioned;
        let _gate = versioned.try_shared()?;
        // Read under the gate: the final cut, taken after the shutdown
        // flag is raised, sees every update applied before it and none
        // after it.
        if shared.shutdown.load(Ordering::Acquire) || shared.write_stopped.load(Ordering::Acquire) {
            return None;
        }
        let applied = versioned
            .engine()
            .try_apply_safe_inline(u, vertex_bound([u]), &shared.seq);
        let (reply, stamp) = match applied {
            Ok(None) => return None,
            Ok(Some(stamp)) => {
                let reply = Reply {
                    version: versioned.advance(1),
                    outcome: Ok(Applied {
                        safety: Safety::Safe,
                        result_changes: 0,
                    }),
                };
                (reply, Some(stamp))
            }
            Err(e) => {
                let reply = Reply {
                    version: versioned.current_version(),
                    outcome: Err(e),
                };
                (reply, None)
            }
        };
        let latency = start.elapsed();
        let mut log = shared.inline_log.local().lock();
        log.total += 1;
        if let Some(stamp) = stamp {
            if shared.records {
                log.applied.push((stamp, *u));
            }
            log.applied_ops += 1;
            log.qualified += u64::from(latency <= shared.latency_limit);
        }
        drop(log);
        if stamp.is_some() {
            shared.stats.safe_executed.fetch_add(1, Ordering::Relaxed);
            shared.stats.safe_inline.fetch_add(1, Ordering::Relaxed);
        }
        shared.stats.update_latency.record(latency);
        Some(reply)
    }

    /// Enqueue `op` without waiting for its reply. The reply surfaces
    /// through [`Session::recv_tagged`] carrying `tag`; per-session
    /// submission order is preserved by the epoch loop regardless of
    /// how many ops are in flight.
    pub fn submit_op_tagged(&self, op: Op, tag: u64) -> Result<()> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(Error::Shutdown);
        }
        let env = Envelope {
            session: self.id,
            tag,
            op,
            enqueued: Instant::now(),
            reply: self.reply_tx.clone(),
            waker: self.waker.lock().clone(),
        };
        self.shared.injector.push(env).map_err(|_| Error::Shutdown)
    }

    /// [`Session::submit_op_tagged`] for a single update.
    pub fn submit_update_tagged(&self, u: &Update, tag: u64) -> Result<()> {
        self.submit_op_tagged(Op::Single(*u), tag)
    }

    /// Block for the next in-flight reply: `(tag, reply)`.
    pub fn recv_tagged(&self) -> Result<(u64, Reply)> {
        self.reply_rx.recv().map_err(|_| Error::Shutdown)
    }

    /// [`Session::recv_tagged`] with a deadline; `None` on timeout.
    pub fn recv_tagged_timeout(&self, timeout: Duration) -> Option<(u64, Reply)> {
        self.reply_rx.recv_timeout(timeout).ok()
    }

    /// Non-blocking [`Session::recv_tagged`]: `None` when no reply is
    /// ready. The drain half of the waker protocol — see
    /// [`Session::set_reply_waker`].
    pub fn try_recv_tagged(&self) -> Option<(u64, Reply)> {
        self.reply_rx.try_recv().ok()
    }

    /// Install (or clear) this session's [`ReplyWaker`]. Each
    /// subsequent submission snapshots the current waker and fires it
    /// right after its reply is delivered, so an event-loop consumer
    /// can sleep in its poller and drain with
    /// [`Session::try_recv_tagged`] when woken. Wakers may coalesce —
    /// one wake can cover several deliveries — so consumers must drain
    /// until empty.
    pub fn set_reply_waker(&self, waker: Option<ReplyWaker>) {
        *self.waker.lock() = waker;
    }

    /// Submit any [`Update`] through its Table 1 operation — the
    /// one-stop dispatch harnesses use to replay generated streams.
    pub fn submit_update(&self, u: &Update) -> Reply {
        self.submit(Op::Single(*u))
    }

    /// `ins_edge(edge) → version_id` (Table 1).
    pub fn ins_edge(&self, e: Edge) -> Reply {
        self.submit(Op::Single(Update::InsEdge(e)))
    }

    /// `del_edge(edge) → version_id`.
    pub fn del_edge(&self, e: Edge) -> Reply {
        self.submit(Op::Single(Update::DelEdge(e)))
    }

    /// `ins_vertex(vertex_id) → version_id`.
    pub fn ins_vertex(&self, v: VertexId) -> Reply {
        self.submit(Op::Single(Update::InsVertex(v)))
    }

    /// `del_vertex(vertex_id) → version_id`.
    pub fn del_vertex(&self, v: VertexId) -> Reply {
        self.submit(Op::Single(Update::DelVertex(v)))
    }

    /// `txn_updates(updates) → version_id`: an atomic batch.
    pub fn txn_updates(&self, updates: Vec<Update>) -> Reply {
        self.submit(Op::Txn(updates))
    }

    /// `get_value(version_id, vertex_id) → value` for algorithm `algo`.
    pub fn get_value(&self, algo: usize, version: VersionId, v: VertexId) -> Result<Value> {
        self.shared.versioned.get_value(algo, version, v)
    }

    /// `get_parent(version_id, vertex_id) → edge`.
    pub fn get_parent(&self, algo: usize, version: VersionId, v: VertexId) -> Result<Option<Edge>> {
        self.shared.versioned.get_parent(algo, version, v)
    }

    /// `get_current_version() → version_id`.
    pub fn get_current_version(&self) -> VersionId {
        self.shared.versioned.current_version()
    }

    /// `get_modified_vertices(version_id) → vertex_ids`.
    pub fn get_modified_vertices(&self, algo: usize, version: VersionId) -> Result<Vec<VertexId>> {
        self.shared.versioned.get_modified_vertices(algo, version)
    }

    /// `release_history(version_id)`: snapshots strictly older than
    /// `version` are no longer needed by this session.
    pub fn release_history(&self, version: VersionId) {
        self.shared.released.lock().insert(self.id, version);
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // A closed session must not hold back GC.
        self.shared.released.lock().remove(&self.id);
    }
}

// ----------------------------------------------------------------------
// Coordinator
// ----------------------------------------------------------------------

pub(crate) fn merge_changesets(sets: Vec<ChangeSet>, num_algos: usize) -> ChangeSet {
    if sets.len() == 1 {
        return sets.into_iter().next().unwrap();
    }
    let mut merged: Vec<FxHashMap<VertexId, ChangeRecord>> =
        (0..num_algos).map(|_| FxHashMap::default()).collect();
    for set in sets {
        for (algo, changes) in set.per_algo.into_iter().enumerate() {
            for c in changes {
                merged[algo]
                    .entry(c.vertex)
                    .and_modify(|prev| {
                        prev.new = c.new;
                        prev.new_parent = c.new_parent;
                    })
                    .or_insert(c);
            }
        }
    }
    ChangeSet {
        per_algo: merged
            .into_iter()
            .map(|m| {
                m.into_values()
                    .filter(|c| c.old != c.new || c.old_parent != c.new_parent)
                    .collect()
            })
            .collect(),
    }
}

fn inverse(u: &Update) -> Update {
    match u {
        Update::InsEdge(e) => Update::DelEdge(*e),
        Update::DelEdge(e) => Update::InsEdge(*e),
        Update::InsVertex(v) => Update::DelVertex(*v),
        Update::DelVertex(v) => Update::InsVertex(*v),
    }
}

struct EpochBuf {
    /// The epoch's safe updates, one flat part per configured shard: a
    /// session always lands on part `session % shards`, so arrival
    /// order within a part *is* per-session order.
    safe_parts: Vec<Vec<Envelope>>,
    safe_count: usize,
    /// Unsafe updates in arrival order.
    unsafe_queue: VecDeque<Envelope>,
}

/// What a shard executor reports for a safe-phase partition.
#[derive(Default)]
struct SafeOutcome {
    /// Updates applied, each with its global application-order stamp
    /// (feeds the epoch's merged, stamp-sorted WAL record).
    applied: Vec<(u64, Update)>,
    /// Operations applied successfully — each bumped the version once
    /// (a safe transaction counts 1 however many updates it carries).
    /// The replication feed ships this as the epoch's safe version-bump
    /// count so a follower's numbering tracks the leader's.
    applied_ops: u64,
    /// Sessions stopped by a demotion (normally none).
    stopped: Vec<u64>,
    /// The demoted updates and everything gathered behind them on their
    /// sessions, in submission order, to requeue.
    leftovers: Vec<Envelope>,
    /// Sessions whose multi-update transaction waits for the cut.
    held: Vec<u64>,
    /// Those transactions and everything gathered behind them on their
    /// sessions, in submission order, for the cut to run.
    deferred: Vec<Envelope>,
    /// Safe updates that completed within the latency limit.
    qualified: u64,
    /// Safe updates served (applied or errored).
    total: u64,
}

impl SafeOutcome {
    /// Fold a worker's outcome into the coordinator's own.
    fn absorb(&mut self, other: SafeOutcome) {
        self.applied.extend(other.applied);
        self.applied_ops += other.applied_ops;
        self.stopped.extend(other.stopped);
        self.leftovers.extend(other.leftovers);
        self.held.extend(other.held);
        self.deferred.extend(other.deferred);
        self.qualified += other.qualified;
        self.total += other.total;
    }
}

/// Serially drain one shard's part of the epoch's safe prefix into
/// `out`. Runs concurrently with the other shards and with callers
/// applying on their own threads — safe updates commute, and
/// [`Engine::try_apply_safe`] revalidates under the store's own locks —
/// while per-session order holds because all of a session's envelopes
/// are on one part, in submission order. A demotion stops that session:
/// the demoted update and the session's later envelopes go back to its
/// queue via `leftovers`; everyone else's are applied.
///
/// A transaction of more than one update may roll back, and a rollback
/// beside other appliers can undo an update one of them just relied on
/// (a duplicate edge another session's delete counted on). Unless
/// `in_cut` — the coordinator holds the gate exclusively and nothing
/// else applies — such a transaction and its session's later envelopes
/// are handed to the cut via `deferred`.
fn drain_shard(
    shared: &Shared,
    part: &mut Vec<Envelope>,
    limit: Duration,
    out: &mut SafeOutcome,
    in_cut: bool,
) {
    if part.is_empty() {
        return;
    }
    let mut queue_ns = 0;
    for env in part.drain(..) {
        if out.stopped.contains(&env.session) {
            out.leftovers.push(env);
            continue;
        }
        if !in_cut && (env.op.updates().len() > 1 || out.held.contains(&env.session)) {
            if !out.held.contains(&env.session) {
                out.held.push(env.session);
            }
            out.deferred.push(env);
            continue;
        }
        match execute_safe(shared, &env, &mut out.applied) {
            SafeExec::Applied => {
                out.applied_ops += 1;
                let lat = env.enqueued.elapsed();
                out.total += 1;
                if lat <= limit {
                    out.qualified += 1;
                }
                queue_ns += lat.as_nanos() as u64;
            }
            SafeExec::Errored => {
                out.total += 1;
            }
            SafeExec::Demoted => {
                shared.stats.demotions.fetch_add(1, Ordering::Relaxed);
                out.stopped.push(env.session);
                out.leftovers.push(env);
            }
        }
    }
    // Once per part, not per update: every executor adds to this cell.
    shared.stats.queue_ns.fetch_add(queue_ns, Ordering::Relaxed);
}

fn coordinator_loop(
    shared: Arc<Shared>,
    config: ServerConfig,
    mut wal: Option<WalWriter>,
    pool: WorkerPool,
    feed: Option<Arc<ReplicationFeed>>,
) {
    run_epochs(&shared, &config, &mut wal, &pool, feed.as_deref());
    match wal {
        // Power-loss simulation (`Server::crash`): leak the writer so
        // its buffered tail is never flushed; the fd is reclaimed at
        // process exit.
        Some(w) if shared.hard_crash.load(Ordering::Acquire) => std::mem::forget(w),
        // Graceful exit: flush and fsync whatever is still buffered.
        Some(mut w) => {
            let synced = w.sync();
            if synced.is_err() {
                shared.stats.wal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        None => {}
    }
    if !shared.hard_crash.load(Ordering::Acquire) {
        // Graceful drain also flushes the store itself (msync + chain
        // directory on the mmap backend, block writeback on the
        // others) so a clean shutdown leaves no dirty state behind.
        let _ = shared.versioned.engine().with_store(|s| s.flush());
    }
}

fn run_epochs(
    shared: &Arc<Shared>,
    config: &ServerConfig,
    wal: &mut Option<WalWriter>,
    pool: &WorkerPool,
    feed: Option<&ReplicationFeed>,
) {
    let mut scheduler = Scheduler::new(config.scheduler.clone());
    // WAL occupancy gauges, refreshed at every epoch end (registered
    // here rather than in `Server::start` because the writer lives on
    // this thread).
    let wal_gauges = wal.as_ref().map(|_| {
        (
            shared.metrics.gauge("wal.active_segment"),
            shared.metrics.gauge("wal.records"),
            shared.metrics.gauge("wal.segment_lag"),
        )
    });
    let mut gather = Gather::default();
    // The injector's backlog is swapped into this buffer once per pass.
    let mut inbox: Vec<Envelope> = Vec::new();
    let shard_count = config.shards.max(1);
    let mut buf = EpochBuf {
        safe_parts: (0..shard_count).map(|_| Vec::new()).collect(),
        safe_count: 0,
        unsafe_queue: VecDeque::new(),
    };
    let mut last_gc = Instant::now();
    let mut last_wal_sync = Instant::now();
    let mut last_checkpoint = Instant::now();
    // Records in the log at the last checkpoint — a time-triggered
    // checkpoint is skipped while nothing new has been appended.
    let mut records_at_checkpoint = wal.as_ref().map_or(0, |w| w.records());
    // Set by the first failed append or fsync: from then on nothing
    // executes, and every gathered update is refused with it.
    let mut wal_failure: Option<String> = None;
    // The epoch ordinal the tracer records: this loop's own count, so
    // the traced epochs are dense and increasing whatever reads or
    // re-seeds the `core.epochs` counter beside it.
    let mut epoch_no: u64 = 0;
    shared
        .stats
        .threshold
        .store(scheduler.threshold() as u64, Ordering::Relaxed);

    loop {
        buf.safe_count = 0;

        // ---- Gather & classify phase -------------------------------
        gather.begin_epoch();
        loop {
            // Take whatever is available without blocking.
            let got_any = shared.injector.take(&mut inbox);
            for env in inbox.drain(..) {
                gather.receive(env);
            }

            // Classify the queue prefixes of the sessions that got
            // something (and, first pass, of those carried over).
            let t_sched = Instant::now();
            gather.classify(shared, &mut buf);
            shared
                .stats
                .sched_ns
                .fetch_add(t_sched.elapsed().as_nanos() as u64, Ordering::Relaxed);

            let oldest_wait = buf.unsafe_queue.front().map(|e| e.enqueued.elapsed());
            if scheduler.should_flush(oldest_wait, buf.unsafe_queue.len())
                || buf.safe_count >= config.max_epoch_updates
            {
                break;
            }
            if buf.safe_count > 0 || !buf.unsafe_queue.is_empty() {
                // Work gathered and nothing more immediately available:
                // run the epoch rather than idle-wait.
                if !got_any {
                    break;
                }
                continue;
            }
            // Nothing to do: sleep briefly, watching for shutdown.
            if shared.shutdown.load(Ordering::Acquire)
                && gather.is_drained()
                && shared.injector.is_empty()
            {
                if !inline_pending(shared, true) {
                    refuse_latecomers(shared, &mut inbox);
                    return;
                }
                break;
            }
            shared.injector.wait(config.idle_poll);
            // Idle, but callers applied something: cut it.
            if shared.injector.is_empty() && inline_pending(shared, false) {
                break;
            }
        }
        if let Some(cause) = &wal_failure {
            // Refuse what was gathered. A session's safe prefix precedes
            // its one unsafe update, so its replies keep their order.
            let gathered = buf.safe_parts.iter_mut().flat_map(|part| part.drain(..));
            let gathered = gathered.chain(buf.unsafe_queue.drain(..));
            for env in gathered {
                let outcome = Err(Error::Wal(cause.clone()));
                let version = shared.versioned.current_version();
                send_reply(shared, &env, Reply { version, outcome });
            }
            buf.safe_count = 0;
        }

        // ---- Sharded parallel safe phase ---------------------------
        let t_epoch = Instant::now();
        // Per-phase span accumulators for the epoch tracer (gather is
        // excluded: it is dominated by idle waiting, not execution).
        let mut phases = [0u64; PHASE_COUNT];
        let limit = scheduler.latency_limit();
        let mut safe = SafeOutcome::default();
        let mut unsafe_groups: Vec<Vec<Update>> = Vec::new();
        // The inline rule (§3.2: parallelism only where the work
        // outweighs its synchronisation): an epoch with at most
        // `INLINE_SAFE_PER_SHARD` safe updates per shard (and every
        // epoch of a one-shard server) is drained by the coordinator
        // alone, part after part — nothing is dispatched and the
        // barrier below has nobody to wait for.
        let inline = shard_count == 1 || buf.safe_count <= INLINE_SAFE_PER_SHARD * shard_count;
        if inline {
            shared.stats.epochs_inline.fetch_add(1, Ordering::Relaxed);
        }
        if buf.safe_count > 0 {
            // Part 0 is the coordinator's; the other non-empty parts go
            // to the pool's workers unless the epoch is inline. The pool
            // may be larger (sized for `unsafe_workers`); the safe
            // partition deliberately stays a function of
            // `config.shards` and the epoch's size alone so enabling
            // parallel unsafe execution cannot change safe-phase
            // scheduling.
            let t_safe = Instant::now();
            let jobs: Vec<_> = buf.safe_parts[1..]
                .iter_mut()
                .filter(|part| !inline && !part.is_empty())
                .map(|part| {
                    let (shared, mut part) = (Arc::clone(shared), std::mem::take(part));
                    move || {
                        let mut out = SafeOutcome::default();
                        drain_shard(&shared, &mut part, limit, &mut out, false);
                        out
                    }
                })
                .collect();
            // The epoch barrier is the join: every dispatched part must
            // report before the serial unsafe phase may touch results.
            let (t_barrier, outs) = pool.fork_join(jobs, || {
                for part in &mut buf.safe_parts {
                    drain_shard(shared, part, limit, &mut safe, false);
                }
                Instant::now()
            });
            phases[Phase::SafeExecute as usize] =
                t_barrier.duration_since(t_safe).as_nanos() as u64;
            phases[Phase::BarrierWait as usize] = t_barrier.elapsed().as_nanos() as u64;
            for out in outs {
                safe.absorb(out);
            }
        }

        // ---- Cut ---------------------------------------------------
        // The gate's exclusive side, held through the unsafe phase, the
        // WAL append, the feed publish and any checkpoint: no caller is
        // mid-apply, so the inline log holds exactly what callers
        // applied since the last cut, all of it versioned before this
        // epoch's unsafe groups — every record, feed cut and snapshot
        // closes on one boundary, safe versions first. With no record to
        // close and nothing to run that callers must not overlap, the
        // cut only collects the callers' counts.
        let exclude = shared.records || !buf.unsafe_queue.is_empty() || !safe.deferred.is_empty();
        let gate = exclude.then(|| shared.versioned.exclusive());
        let mut cut_inline = 0;
        for log in shared.inline_log.cells() {
            let inline = std::mem::take(&mut *log.lock());
            cut_inline += inline.total;
            safe.absorb(inline);
        }
        if !safe.deferred.is_empty() {
            // Multi-update safe transactions, after the fork-join and
            // with callers shut out: nothing can rely on what a
            // rollback undoes (see `drain_shard`).
            let t_txns = Instant::now();
            let mut deferred = std::mem::take(&mut safe.deferred);
            drain_shard(shared, &mut deferred, limit, &mut safe, true);
            phases[Phase::SafeExecute as usize] += t_txns.elapsed().as_nanos() as u64;
        }
        // Demoted suffixes go back to the front of their queues, with
        // their sessions' unsafe updates behind them.
        gather.requeue(
            std::mem::take(&mut safe.leftovers),
            std::mem::take(&mut safe.stopped),
            &mut buf.unsafe_queue,
        );

        // ---- Unsafe phase ------------------------------------------
        let t_unsafe = Instant::now();
        let had_unsafe = !buf.unsafe_queue.is_empty();
        let unsafe_workers = config.unsafe_workers.max(1);
        // Optimistic parallel execution (§7: affected areas are tiny,
        // so pending unsafe operations almost never overlap). Declines
        // — leaving the queue untouched — when probing finds overlap
        // or overflow; the serial path below is the fallback.
        let ran_parallel = unsafe_workers > 1
            && buf.unsafe_queue.len() > 1
            && run_unsafe_parallel(
                shared,
                &mut buf.unsafe_queue,
                &mut unsafe_groups,
                &mut scheduler,
                config,
                pool,
                &mut phases,
            );
        if !ran_parallel && unsafe_workers > 1 && buf.unsafe_queue.len() > 1 {
            // Parallelism was available but declined (overlap or probe
            // overflow). A single pending op counts neither way.
            shared
                .stats
                .unsafe_serial_fallbacks
                .fetch_add(1, Ordering::Relaxed);
        }
        // Serial unsafe phase (the paper's discipline, and the
        // fallback target of the parallel phase).
        let serial_pending = !buf.unsafe_queue.is_empty();
        let t_serial = Instant::now();
        while let Some(env) = buf.unsafe_queue.pop_front() {
            shared.stats.unsafe_wait.record(env.enqueued.elapsed());
            let result = apply_unsafe_op(shared, &env, false);
            finish_unsafe(shared, &env, result, &mut unsafe_groups, &mut scheduler);
        }
        if serial_pending {
            phases[Phase::UnsafeExecute as usize] += t_serial.elapsed().as_nanos() as u64;
        }
        if had_unsafe {
            shared.stats.unsafe_phase.record(t_unsafe.elapsed());
        }

        // ---- Epoch end: merged WAL group commit, feed, scheduler ---
        // Sort the safe log by the global application-order stamp
        // (drawn inside the store locks that serialize same-edge
        // operations); unsafe updates executed serially after the cut,
        // so appending their groups in order completes the exact
        // execution order.
        safe.applied.sort_unstable_by_key(|&(stamp, _)| stamp);
        let safe_updates: Vec<Update> = safe.applied.iter().map(|&(_, u)| u).collect();
        let mut appended = false;
        if let Some(w) = wal.as_mut().filter(|_| wal_failure.is_none()) {
            let total = safe_updates.len() + unsafe_groups.iter().map(Vec::len).sum::<usize>();
            if total > 0 {
                let t_wal = Instant::now();
                // Segment rotation fires *inside* `append` when the
                // active segment crosses its budget; the writer's
                // cumulative rotation clock recovers that span.
                let rotate_before = w.rotate_ns();
                // One merged record per epoch, in stamp order, so
                // replaying the record reproduces the cross-shard
                // execution order byte-exactly — even for same-edge
                // count-races across sessions within one epoch.
                let mut updates = Vec::with_capacity(total);
                updates.extend_from_slice(&safe_updates);
                for group in &unsafe_groups {
                    updates.extend_from_slice(group);
                }
                #[allow(unused_mut)]
                let mut written = w.append(&updates);
                #[cfg(test)]
                if shared.fail_wal_append.load(Ordering::Acquire) {
                    written = Err(Error::Wal("injected append failure".into()));
                }
                // No retry: a partial append leaves a torn tail, which
                // recovery truncates. Raised under the gate, the stop is
                // seen by every caller that applies after this record.
                match written {
                    Ok(()) => appended = true,
                    Err(e) => wal_failure = Some(stop_writes(shared, e)),
                }
                let wal_ns = t_wal.elapsed().as_nanos() as u64;
                let rotate_ns = w.rotate_ns() - rotate_before;
                phases[Phase::WalRotate as usize] += rotate_ns;
                phases[Phase::WalAppend as usize] += wal_ns.saturating_sub(rotate_ns);
                shared.stats.wal_ns.fetch_add(wal_ns, Ordering::Relaxed);
            }
        }
        // Publish the epoch to the replication feed (after the WAL
        // append — a follower never holds a record the leader hasn't
        // at least buffered). The append is a lock-push + notify; a
        // slow follower lags behind the feed without ever blocking this
        // loop.
        if let Some(feed) = feed {
            let t_feed = Instant::now();
            feed.append_epoch(
                safe_updates,
                safe.applied_ops,
                std::mem::take(&mut unsafe_groups),
            );
            phases[Phase::FeedPublish as usize] += t_feed.elapsed().as_nanos() as u64;
        }

        // ---- Checkpoint (time- or pressure-triggered) --------------
        // After the feed publish and inside the cut, so the snapshot's
        // embedded cut, its version and the engine state it captures
        // agree. A failed checkpoint is not fatal: the log stays fully
        // usable and the next trigger retries. A failed append or fsync
        // is: nothing is written after it.
        if let Some(w) = wal.as_mut().filter(|_| wal_failure.is_none()) {
            let due_time = config
                .checkpoint_interval
                .is_some_and(|iv| last_checkpoint.elapsed() >= iv);
            let due_pressure =
                config.max_wal_segment_bytes > 0 && w.segment_lag() >= CHECKPOINT_SEGMENT_LAG;
            if (due_pressure || due_time) && w.records() > records_at_checkpoint {
                let t_ckpt = Instant::now();
                if perform_checkpoint(shared, w, feed).is_ok() {
                    records_at_checkpoint = w.records();
                }
                phases[Phase::WalCheckpoint as usize] += t_ckpt.elapsed().as_nanos() as u64;
                last_checkpoint = Instant::now();
            }
        }
        drop(gate);

        // Group commit: fsync at most every wal_sync_interval, outside
        // the cut — readers and callers do not wait on it.
        if let Some(w) = wal.as_mut().filter(|_| appended && wal_failure.is_none()) {
            if last_wal_sync.elapsed() >= config.wal_sync_interval {
                let t_sync = Instant::now();
                if let Err(e) = w.sync() {
                    wal_failure = Some(stop_writes(shared, e));
                }
                last_wal_sync = Instant::now();
                let sync_ns = t_sync.elapsed().as_nanos() as u64;
                phases[Phase::WalAppend as usize] += sync_ns;
                shared.stats.wal_ns.fetch_add(sync_ns, Ordering::Relaxed);
            }
        }
        if let (Some(w), Some((seg, recs, lag))) = (wal.as_ref(), wal_gauges.as_ref()) {
            seg.store(w.active_segment(), Ordering::Relaxed);
            recs.store(w.records(), Ordering::Relaxed);
            lag.store(w.segment_lag(), Ordering::Relaxed);
        }

        // Threshold accounting over the aggregated per-shard counts.
        let t_finalize = Instant::now();
        scheduler.record_shards([(safe.qualified, safe.total)]);
        scheduler.end_epoch();
        shared
            .stats
            .threshold
            .store(scheduler.threshold() as u64, Ordering::Relaxed);
        shared
            .stats
            .min_threshold
            .fetch_min(scheduler.threshold() as u64, Ordering::Relaxed);
        epoch_no += 1;
        shared.stats.epochs.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .max_epoch_ns
            .fetch_max(t_epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);

        let tick = last_gc.elapsed() >= config.gc_interval;
        if tick {
            last_gc = Instant::now();
            // Forget the sessions with nothing queued: the table would
            // otherwise hold a queue for every session id ever seen. On
            // the tick rather than per epoch — a live synchronous
            // session's queue is drained after every update, and
            // dropping it each time would put an allocation on the
            // per-update path.
            shared
                .stats
                .pending_sessions
                .store(gather.forget_drained() as u64, Ordering::Relaxed);
        }
        if config.enable_history && tick {
            let t_hist = Instant::now();
            let watermark = {
                let released = shared.released.lock();
                released.values().copied().min().unwrap_or(0)
            };
            let (entries, bytes) = shared.versioned.collect(watermark);
            shared
                .stats
                .history_resident_entries
                .store(entries as u64, Ordering::Relaxed);
            shared
                .stats
                .history_resident_bytes
                .store(bytes as u64, Ordering::Relaxed);
            shared
                .stats
                .history_ns
                .fetch_add(t_hist.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        phases[Phase::Finalize as usize] += t_finalize.elapsed().as_nanos() as u64;

        // Trace only epochs that executed or cut work: idle loops would
        // drown the rings and the per-phase histograms in structural
        // zeros.
        if buf.safe_count > 0 || had_unsafe || cut_inline > 0 {
            shared.tracer.record(epoch_no, &phases);
        }

        if shared.shutdown.load(Ordering::Acquire)
            && gather.is_drained()
            && shared.injector.is_empty()
            && !inline_pending(shared, true)
        {
            // The final WAL flush (or its deliberate omission under
            // `Server::crash`) happens in `coordinator_loop` once this
            // returns.
            refuse_latecomers(shared, &mut inbox);
            return;
        }
    }
}

/// Whether callers served anything since the last cut. `settled` asks
/// for the shutdown path: only what a record must carry counts, and the
/// gate's exclusive side is taken to ask, so no caller is mid-apply — a
/// settled `false` is final, because a caller checks the shutdown flag
/// under the shared side. Unsettled, it is a hint for the idle loop.
fn inline_pending(shared: &Shared, settled: bool) -> bool {
    if settled && !shared.records {
        return false;
    }
    let _gate = settled.then(|| shared.versioned.exclusive());
    shared.inline_log.cells().any(|log| log.lock().total > 0)
}

/// Stop the write path after a failed append or fsync: count it, and
/// send every later update — callers' included — to the coordinator,
/// which refuses it with the returned cause.
fn stop_writes(shared: &Shared, e: Error) -> String {
    shared.stats.wal_errors.fetch_add(1, Ordering::Relaxed);
    shared.write_stopped.store(true, Ordering::Release);
    format!("write path stopped by a failed log write ({e})")
}

/// The coordinator's last act: close the injector and refuse whatever
/// slipped in after the final emptiness check. Once the injector is
/// closed a submit fails in the caller's hands, so nothing is ever left
/// queued with nobody to answer it.
fn refuse_latecomers(shared: &Shared, inbox: &mut Vec<Envelope>) {
    shared.injector.close(inbox);
    for env in inbox.drain(..) {
        let _ = env.reply.send((
            env.tag,
            Reply {
                version: shared.versioned.current_version(),
                outcome: Err(Error::Shutdown),
            },
        ));
        if let Some(waker) = &env.waker {
            waker();
        }
    }
}

/// The optimistic parallel unsafe phase (the §7 payoff): probe every
/// pending unsafe operation's affected area, partition into
/// footprint-disjoint conflict groups, execute groups concurrently on
/// the shard executors, then finalize — versions, history, feed
/// groups, replies — in arrival order.
///
/// Correctness rests on two facts. (1) A completed footprint walk is
/// closed under adjacency, so everything an operation reads or writes
/// (including failure-detection reads and rollback inverses) stays
/// inside its footprint; disjoint groups therefore neither race nor
/// influence each other's outcomes. (2) Because outcomes are
/// scheduling-independent, replaying the coordinator-side effects in
/// arrival order reproduces the serial phase byte-exactly: the same
/// per-operation version numbers, history records, WAL/feed groups
/// and replies.
///
/// Returns `false` — leaving `queue` untouched for the serial
/// fallback — when any probe overflows the footprint cap or the
/// operations all collapse into one conflict group.
fn run_unsafe_parallel(
    shared: &Arc<Shared>,
    queue: &mut VecDeque<Envelope>,
    unsafe_groups: &mut Vec<Vec<Update>>,
    scheduler: &mut Scheduler,
    config: &ServerConfig,
    pool: &WorkerPool,
    phases: &mut [u64; PHASE_COUNT],
) -> bool {
    let n = queue.len();
    let executors = config.unsafe_workers;
    let cap = config.unsafe_footprint_cap;
    let t_probe = Instant::now();

    // Stage 1: probe affected areas in parallel. Probes are read-only
    // component walks, and the structure is quiescent: the shard
    // barrier has passed and the cut shuts callers out.
    let mut chunks: Vec<Vec<(usize, Vec<Update>)>> = (0..executors).map(|_| Vec::new()).collect();
    for (i, env) in queue.iter().enumerate() {
        chunks[i % executors].push((i, env.op.updates().to_vec()));
    }
    let probed = fork_parts(pool, shared, chunks, move |shared, ops| {
        ops.into_iter()
            .map(|(idx, updates)| {
                let engine = shared.versioned.engine();
                (idx, crate::affected::footprint(engine, &updates, cap))
            })
            .collect()
    });
    let mut footprints: Vec<Option<Vec<VertexId>>> = (0..n).map(|_| None).collect();
    for (idx, fp) in probed {
        footprints[idx] = fp;
    }
    if footprints.iter().any(Option::is_none) {
        phases[Phase::UnsafeProbe as usize] += t_probe.elapsed().as_nanos() as u64;
        return false; // an unbounded footprint conflicts with everything
    }

    // Conflict grouping: union-find over arrival indices, keyed by the
    // first operation to claim each footprint vertex.
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..n).collect();
    let mut owner: FxHashMap<VertexId, usize> = FxHashMap::default();
    for (i, fp) in footprints.iter().enumerate() {
        for &v in fp.as_deref().expect("overflow handled above") {
            if let Some(&first) = owner.get(&v) {
                let (a, b) = (find(&mut parent, first), find(&mut parent, i));
                if a != b {
                    // Root at the smaller index so group identity is
                    // deterministic.
                    parent[a.max(b)] = a.min(b);
                }
            } else {
                owner.insert(v, i);
            }
        }
    }
    let mut by_root: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let r = find(&mut parent, i);
        by_root[r].push(i);
    }
    let groups: Vec<Vec<usize>> = by_root.into_iter().filter(|g| !g.is_empty()).collect();
    let num_groups = groups.len();
    // Probe span covers the footprint walks *and* conflict grouping —
    // the whole admission decision for the parallel phase.
    phases[Phase::UnsafeProbe as usize] += t_probe.elapsed().as_nanos() as u64;
    if num_groups <= 1 {
        return false; // everything overlaps: parallelism buys nothing
    }

    // Committed, inside the cut's exclusive gate; waits are recorded
    // here — execution starts now for every pending operation.
    let mut envs: Vec<Option<Envelope>> = queue.drain(..).map(Some).collect();
    for env in envs.iter().flatten() {
        shared.stats.unsafe_wait.record(env.enqueued.elapsed());
    }
    let t_exec = Instant::now();

    // Stage 2: longest-group-first greedy assignment over the
    // executors (coordinator = executor 0), then execute. Within a
    // group, arrival order; across groups, true concurrency. Groups on
    // one executor run back-to-back.
    let mut order: Vec<usize> = (0..num_groups).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(groups[g].len()));
    let mut assign: Vec<Vec<(usize, Envelope)>> = (0..executors).map(|_| Vec::new()).collect();
    let mut load = vec![0usize; executors];
    for g in order {
        let exec = (0..executors)
            .min_by_key(|&e| (load[e], e))
            .expect("at least the coordinator");
        load[exec] += groups[g].len();
        assign[exec].extend(groups[g].iter().map(|&idx| {
            (
                idx,
                envs[idx].take().expect("each op is in exactly one group"),
            )
        }));
    }
    // The join is the phase barrier: every executor finishes before any
    // version is assigned. The envelope travels back with its
    // structural/recompute outcome but no version or history side
    // effects — those stay with the coordinator.
    let mut execs = fork_parts(pool, shared, assign, |shared, ops| {
        ops.into_iter()
            .map(|(idx, env)| {
                // Sequential propagation: concurrent executors must
                // never contend for the engine's shared pool, and
                // disjoint footprints make concurrent sequential
                // application race-free.
                let result = apply_unsafe_op(shared, &env, true);
                (idx, env, result)
            })
            .collect()
    });
    phases[Phase::UnsafeExecute as usize] += t_exec.elapsed().as_nanos() as u64;
    let t_finalize = Instant::now();

    // Finalize in arrival order — indistinguishable from the serial
    // phase for every observer (clients, history, WAL, replication).
    execs.sort_unstable_by_key(|e| e.0);
    for (_, env, result) in execs {
        finish_unsafe(shared, &env, result, unsafe_groups, scheduler);
    }
    phases[Phase::Finalize as usize] += t_finalize.elapsed().as_nanos() as u64;
    shared
        .stats
        .unsafe_parallel_groups
        .fetch_add(num_groups as u64, Ordering::Relaxed);
    true
}

/// One fork of the parallel unsafe phase: executor `e` runs
/// `run(parts[e])` — the coordinator is executor 0, and an empty part
/// wakes nobody. Returns every part's output, concatenated.
fn fork_parts<T: Send + 'static, X: Send + 'static>(
    pool: &WorkerPool,
    shared: &Arc<Shared>,
    parts: Vec<Vec<T>>,
    run: impl Fn(&Shared, Vec<T>) -> Vec<X> + Copy + Send + 'static,
) -> Vec<X> {
    let mut parts = parts.into_iter();
    let own = parts.next().unwrap_or_default();
    let jobs: Vec<_> = parts
        .filter(|part| !part.is_empty())
        .map(|part| {
            let shared = Arc::clone(shared);
            move || run(&shared, part)
        })
        .collect();
    let (mut out, rest) = pool.fork_join(jobs, || run(shared, own));
    out.extend(rest.into_iter().flatten());
    out
}

/// Record the completion-latency sample, then deliver the reply. The
/// sample lands first so a client holding its reply never reads a
/// histogram missing its own update.
fn send_reply(shared: &Shared, env: &Envelope, reply: Reply) {
    shared.stats.update_latency.record(env.enqueued.elapsed());
    let _ = env.reply.send((env.tag, reply));
    if let Some(waker) = &env.waker {
        waker();
    }
}

enum SafeExec {
    /// Applied and answered; the stamped updates are on the log.
    Applied,
    Errored,
    /// Revalidation failed; the caller still owns the envelope and must
    /// requeue it at its session's front for the unsafe path.
    Demoted,
}

/// Execute one safe operation, appending what it applied — each update
/// with its application-order stamp — to `log`.
fn execute_safe(shared: &Shared, env: &Envelope, log: &mut Vec<(u64, Update)>) -> SafeExec {
    // All-or-nothing for a transaction: roll back the applied prefix on
    // demotion or error (inverse structural ops restore state exactly —
    // safe updates change nothing else).
    let start = log.len();
    for u in env.op.updates() {
        let failure = match shared.versioned.engine().try_apply_safe_seq(u, &shared.seq) {
            Ok((SafeApply::Applied, stamp)) => {
                log.push((stamp.expect("applied updates are stamped"), *u));
                #[cfg(test)]
                if log.len() - start < env.op.updates().len() {
                    let gap = shared.txn_gap.lock().clone();
                    if let Some(gap) = gap {
                        gap();
                    }
                }
                continue;
            }
            Ok((SafeApply::Demoted, _)) => None,
            Err(e) => Some(e),
        };
        let undone = rollback_structure(shared, &log[start..]);
        log.truncate(start);
        let e = match (undone, failure) {
            (Err(corrupt), _) => corrupt,
            (Ok(()), Some(e)) => e,
            (Ok(()), None) => return SafeExec::Demoted,
        };
        send_reply(
            shared,
            env,
            Reply {
                version: shared.versioned.current_version(),
                outcome: Err(e),
            },
        );
        return SafeExec::Errored;
    }
    let version = shared.versioned.advance(1);
    // Count before replying so a client that has its reply never reads
    // a stats snapshot missing its own update.
    shared.stats.safe_executed.fetch_add(1, Ordering::Relaxed);
    send_reply(
        shared,
        env,
        Reply {
            version,
            outcome: Ok(Applied {
                safety: Safety::Safe,
                result_changes: 0,
            }),
        },
    );
    SafeExec::Applied
}

/// Undo a safe transaction's applied prefix with inverse updates,
/// newest first. Safe updates changed no result, so the structure is
/// all there is to put back. Runs only in the cut (see [`drain_shard`]),
/// where no other applier can have relied on the prefix. An inverse
/// that fails leaves a store matching no prefix of the transaction: it
/// is counted in `core.safe_rollback_failures` and reported as
/// [`Error::Corruption`].
fn rollback_structure(shared: &Shared, applied: &[(u64, Update)]) -> Result<()> {
    for (_, u) in applied.iter().rev() {
        #[allow(unused_mut)]
        let mut outcome = shared.versioned.engine().apply_structure(&inverse(u));
        #[cfg(test)]
        if shared.fail_rollback.load(Ordering::Acquire) {
            outcome = Err(Error::EdgeNotFound(Edge::new(0, 0, 0)));
        }
        if let Err(e) = outcome {
            shared
                .stats
                .safe_rollback_failures
                .fetch_add(1, Ordering::Relaxed);
            return Err(Error::Corruption(format!(
                "safe transaction rollback failed undoing {u:?}: {e}"
            )));
        }
    }
    Ok(())
}

/// Apply one operation's updates with full recomputation but **no**
/// version, history, feed or reply side effects — the part of unsafe
/// execution that parallel workers may run concurrently on disjoint
/// footprints (`sequential = true` pins pool-free propagation). The
/// gather stage grew the engine for every admitted operation already.
/// On a mid-transaction error the applied prefix is rolled back (see
/// [`rollback_unsafe`]) and the error reported.
fn apply_unsafe_op(shared: &Shared, env: &Envelope, sequential: bool) -> Result<ChangeSet> {
    let engine = shared.versioned.engine();
    let updates = env.op.updates();
    let mut sets: Vec<ChangeSet> = Vec::with_capacity(updates.len());
    for u in updates {
        let outcome = if sequential {
            engine.apply_unsafe_sequential(u)
        } else {
            engine.apply_unsafe(u)
        };
        match outcome {
            Ok(set) => sets.push(set),
            Err(e) => {
                rollback_unsafe(shared, &updates[..sets.len()], &sets)?;
                return Err(e);
            }
        }
    }
    Ok(merge_changesets(sets, engine.num_algorithms()))
}

/// Transaction atomicity for the unsafe path: undo the applied prefix's
/// structure with inverse updates, newest first, then put back every
/// vertex state its change sets name. The graph is the pre-transaction
/// graph again, so the pre-transaction tree is valid again — and it is
/// the tree history saw, so every older version still reads true (a
/// forward recomputation could settle a parent on another, equally good
/// edge that no version had). An inverse failing is unrecoverable — the
/// store now matches neither the pre-transaction nor any applied-prefix
/// state — and is reported as [`Error::Corruption`].
fn rollback_unsafe(shared: &Shared, applied: &[Update], sets: &[ChangeSet]) -> Result<()> {
    let engine = shared.versioned.engine();
    for prev in applied.iter().rev() {
        #[allow(unused_mut)]
        let mut outcome = engine.apply_structure(&inverse(prev));
        #[cfg(test)]
        if shared.fail_rollback.load(Ordering::Acquire) {
            outcome = Err(Error::EdgeNotFound(Edge::new(0, 0, 0)));
        }
        if let Err(e) = outcome {
            return Err(Error::Corruption(format!(
                "transaction rollback failed undoing {prev:?}: {e}"
            )));
        }
    }
    engine.revert(sets);
    Ok(())
}

/// The coordinator-only tail of one unsafe operation, under the
/// exclusive gate and in arrival order: commit its version group, count
/// it and reply. Execution order here *is* stamp order — every safe
/// stamp precedes it (the shard barrier ran, and the cut shut callers
/// out), so appending the groups after the sorted safe log reproduces
/// the global application order exactly. Each successful operation is
/// one version group in the replication feed (an empty transaction
/// still bumps the version, so it ships as an empty group).
fn finish_unsafe(
    shared: &Shared,
    env: &Envelope,
    result: Result<ChangeSet>,
    unsafe_groups: &mut Vec<Vec<Update>>,
    scheduler: &mut Scheduler,
) {
    let reply = match result {
        Ok(merged) => {
            let t_hist = Instant::now();
            let version = shared.versioned.commit(&merged);
            shared
                .stats
                .history_ns
                .fetch_add(t_hist.elapsed().as_nanos() as u64, Ordering::Relaxed);
            unsafe_groups.push(env.op.updates().to_vec());
            Reply {
                version,
                outcome: Ok(Applied {
                    safety: Safety::Unsafe,
                    result_changes: merged.len(),
                }),
            }
        }
        Err(e) => Reply {
            version: shared.versioned.current_version(),
            outcome: Err(e),
        },
    };
    let lat = env.enqueued.elapsed();
    scheduler.record_latency(lat);
    shared
        .stats
        .queue_ns
        .fetch_add(lat.as_nanos() as u64, Ordering::Relaxed);
    shared.stats.unsafe_executed.fetch_add(1, Ordering::Relaxed);
    send_reply(shared, env, reply);
}

#[cfg(test)]
mod tests {
    use super::*;
    use risgraph_algorithms::{Bfs, Sssp, Sswp, Wcc};
    use std::sync::Arc as StdArc;

    fn server_with(algs: Vec<DynAlgorithm>, cap: usize) -> Server {
        let mut config = ServerConfig::default();
        config.engine.threads = 4;
        Server::start(algs, cap, config).unwrap()
    }

    fn bfs_server(cap: usize) -> Server {
        server_with(vec![StdArc::new(Bfs::new(0))], cap)
    }

    #[test]
    fn single_session_updates_and_queries() {
        let srv = bfs_server(16);
        srv.load_edges(&[(0, 1, 0)]);
        let s = srv.session();
        let r1 = s.ins_edge(Edge::new(1, 2, 0));
        let a1 = r1.outcome.unwrap();
        assert_eq!(a1.safety, Safety::Unsafe);
        assert_eq!(a1.result_changes, 1);
        assert_eq!(s.get_value(0, r1.version, 2).unwrap(), 2);

        // A safe update gets a fresh version with no modifications.
        let r2 = s.ins_edge(Edge::new(2, 1, 0));
        assert_eq!(r2.outcome.unwrap().safety, Safety::Safe);
        assert!(r2.version > r1.version);
        assert!(s.get_modified_vertices(0, r2.version).unwrap().is_empty());
        assert_eq!(s.get_current_version(), r2.version);
        srv.shutdown();
    }

    #[test]
    fn historical_values_remain_queryable() {
        let srv = bfs_server(16);
        srv.load_edges(&[(0, 1, 0), (1, 2, 0)]);
        let s = srv.session();
        let v_before = s.get_current_version();
        assert_eq!(s.get_value(0, v_before, 2).unwrap(), 2);
        let r = s.ins_edge(Edge::new(0, 2, 0)); // shortcut: dist 2 → 1
        let v_after = r.version;
        assert_eq!(s.get_value(0, v_after, 2).unwrap(), 1);
        // The old snapshot still answers 2.
        assert_eq!(s.get_value(0, v_before, 2).unwrap(), 2);
        assert_eq!(s.get_modified_vertices(0, v_after).unwrap(), vec![2]);
        // Parent history: 2's parent flipped from (1,2) to (0,2).
        assert_eq!(
            s.get_parent(0, v_before, 2).unwrap(),
            Some(Edge::new(1, 2, 0))
        );
        assert_eq!(
            s.get_parent(0, v_after, 2).unwrap(),
            Some(Edge::new(0, 2, 0))
        );
        srv.shutdown();
    }

    #[test]
    fn future_version_queries_fail() {
        let srv = bfs_server(8);
        let s = srv.session();
        assert!(matches!(
            s.get_value(0, 999, 0),
            Err(Error::VersionNotFound(999))
        ));
        srv.shutdown();
    }

    #[test]
    fn transactions_are_atomic() {
        let srv = bfs_server(16);
        srv.load_edges(&[(0, 1, 0)]);
        let s = srv.session();
        // Valid txn: two inserts applied together.
        let r = s.txn_updates(vec![
            Update::InsEdge(Edge::new(1, 2, 0)),
            Update::InsEdge(Edge::new(2, 3, 0)),
        ]);
        assert!(r.outcome.is_ok());
        assert_eq!(s.get_value(0, r.version, 3).unwrap(), 3);
        // Failing txn (second op deletes a missing edge) must undo the
        // first op.
        let r = s.txn_updates(vec![
            Update::InsEdge(Edge::new(3, 4, 0)),
            Update::DelEdge(Edge::new(9, 9, 9)),
        ]);
        assert!(r.outcome.is_err());
        let now = s.get_current_version();
        assert_eq!(
            s.get_value(0, now, 4).unwrap(),
            u64::MAX,
            "rolled-back insert must not be visible"
        );
        assert_eq!(srv.engine().num_edges(), 3);
        srv.shutdown();
    }

    #[test]
    fn many_concurrent_sessions_converge() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let srv = StdArc::new(bfs_server(512));
        // A base path so some updates are safe, some unsafe.
        let base: Vec<(u64, u64, u64)> = (0..64).map(|i| (i, i + 1, 0)).collect();
        srv.load_edges(&base);

        let mut handles = Vec::new();
        let mut all_edges: Vec<Vec<(u64, u64)>> = Vec::new();
        for t in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(t);
            // Pre-generate each session's distinct edge set (disjoint
            // ranges so cross-session deletes can't collide).
            let edges: Vec<(u64, u64)> = (0..60)
                .map(|_| {
                    (
                        100 + t * 40 + rng.gen_range(0..40),
                        100 + t * 40 + rng.gen_range(0..40),
                    )
                })
                .collect();
            all_edges.push(edges.clone());
            let srv = StdArc::clone(&srv);
            handles.push(std::thread::spawn(move || {
                let session = srv.session();
                for &(a, b) in &edges {
                    let r = session.ins_edge(Edge::new(a, b, 0));
                    assert!(r.outcome.is_ok());
                }
                for &(a, b) in &edges {
                    let r = session.del_edge(Edge::new(a, b, 0));
                    assert!(r.outcome.is_ok(), "delete {a}->{b} failed");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All session edges were inserted then deleted: only the base
        // path remains and BFS distances are intact.
        assert_eq!(srv.engine().num_edges(), 64);
        for i in 0..65u64 {
            assert_eq!(srv.engine().value(0, i), i);
        }
        let stats = srv.stats();
        // The sessions applied their safe updates themselves; the
        // coordinator cuts what they logged after its next idle poll.
        let deadline = Instant::now() + Duration::from_secs(10);
        while stats.epochs.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "no epoch ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(stats.safe_executed.load(Ordering::Relaxed) > 0);
        StdArc::try_unwrap(srv).ok().unwrap().shutdown();
    }

    #[test]
    fn session_order_is_preserved_across_safety_classes() {
        let srv = bfs_server(32);
        srv.load_edges(&[(0, 1, 0)]);
        let s = srv.session();
        // unsafe (extends the tree), safe (back edge), unsafe (delete
        // tree edge), executed in order ⇒ final state deterministic.
        let r1 = s.ins_edge(Edge::new(1, 2, 0));
        let r2 = s.ins_edge(Edge::new(2, 1, 0));
        let r3 = s.del_edge(Edge::new(1, 2, 0));
        assert!(r1.version < r2.version && r2.version < r3.version);
        assert_eq!(srv.engine().value(0, 2), u64::MAX);
        assert_eq!(srv.engine().value(0, 1), 1);
        srv.shutdown();
    }

    #[test]
    fn multi_algorithm_server() {
        let srv = server_with(
            vec![
                StdArc::new(Bfs::new(0)),
                StdArc::new(Sssp::new(0)),
                StdArc::new(Sswp::new(0)),
            ],
            32,
        );
        srv.load_edges(&[(0, 1, 3), (1, 2, 4)]);
        let s = srv.session();
        let r = s.ins_edge(Edge::new(0, 2, 10));
        let v = r.version;
        assert_eq!(s.get_value(0, v, 2).unwrap(), 1, "BFS");
        assert_eq!(
            s.get_value(1, v, 2).unwrap(),
            7,
            "SSSP unchanged (3+4 < 10)"
        );
        assert_eq!(s.get_value(2, v, 2).unwrap(), 10, "SSWP widened");
        srv.shutdown();
    }

    #[test]
    fn wcc_server_with_history() {
        let srv = server_with(vec![StdArc::new(Wcc::new())], 32);
        srv.load_edges(&[(1, 2, 0), (3, 4, 0)]);
        let s = srv.session();
        let v0 = s.get_current_version();
        assert_eq!(s.get_value(0, v0, 4).unwrap(), 3);
        let r = s.ins_edge(Edge::new(2, 3, 0));
        assert_eq!(s.get_value(0, r.version, 4).unwrap(), 1);
        assert_eq!(s.get_value(0, v0, 4).unwrap(), 3, "history intact");
        srv.shutdown();
    }

    #[test]
    fn release_history_enables_gc() {
        let mut config = ServerConfig::default();
        config.engine.threads = 2;
        config.gc_interval = Duration::from_millis(1);
        let srv: Server = Server::start(vec![StdArc::new(Bfs::new(0))], 16, config).unwrap();
        srv.load_edges(&[(0, 1, 0)]);
        let s = srv.session();
        let r1 = s.ins_edge(Edge::new(1, 2, 0));
        let r2 = s.ins_edge(Edge::new(0, 2, 0));
        s.release_history(r2.version);
        // Drive epochs until GC runs; old version becomes unreadable.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let _ = s.ins_edge(Edge::new(2, 0, 0)); // safe churn
            std::thread::sleep(Duration::from_millis(2));
            match s.get_value(0, r1.version, 2) {
                Err(Error::VersionNotFound(_)) => break,
                Ok(_) if Instant::now() < deadline => continue,
                other => panic!("GC never happened: {other:?}"),
            }
        }
        // Newer versions still readable.
        assert!(s.get_value(0, r2.version, 2).is_ok());
        srv.shutdown();
    }

    #[test]
    fn wal_recovery_restores_state() {
        let dir = std::env::temp_dir().join("risgraph-server-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("recovery-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut config = ServerConfig::default();
        config.engine.threads = 2;
        config.wal_path = Some(path.clone());
        {
            let srv: Server =
                Server::start(vec![StdArc::new(Bfs::new(0))], 16, config.clone()).unwrap();
            let s = srv.session();
            for (a, b) in [(0u64, 1u64), (1, 2), (2, 3)] {
                assert!(s.ins_edge(Edge::new(a, b, 0)).outcome.is_ok());
            }
            assert!(s.del_edge(Edge::new(2, 3, 0)).outcome.is_ok());
            srv.shutdown();
        }
        // Restart from the log alone.
        let srv: Server = Server::start(vec![StdArc::new(Bfs::new(0))], 16, config).unwrap();
        assert_eq!(srv.engine().num_edges(), 2);
        assert_eq!(srv.engine().value(0, 2), 2);
        assert_eq!(srv.engine().value(0, 3), u64::MAX);
        srv.shutdown();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let srv = bfs_server(16);
        let s = srv.session();
        let r = s.del_edge(Edge::new(5, 6, 0));
        assert!(matches!(r.outcome, Err(Error::EdgeNotFound(_))));
        // The server keeps serving.
        let r = s.ins_edge(Edge::new(0, 1, 0));
        assert!(r.outcome.is_ok());
        srv.shutdown();
    }

    #[test]
    fn vertex_lifecycle_through_sessions() {
        let srv = bfs_server(16);
        let s = srv.session();
        assert!(s.ins_vertex(7).outcome.is_ok());
        assert!(s.ins_vertex(7).outcome.is_err(), "duplicate id");
        assert!(s.ins_edge(Edge::new(7, 8, 0)).outcome.is_ok());
        assert!(s.del_vertex(7).outcome.is_err(), "not isolated");
        assert!(s.del_edge(Edge::new(7, 8, 0)).outcome.is_ok());
        assert!(s.del_vertex(7).outcome.is_ok());
        srv.shutdown();
    }

    #[test]
    fn tagged_pipelining_preserves_session_order() {
        let srv = bfs_server(64);
        srv.load_edges(&[(0, 1, 0)]);
        let s = srv.session();
        // Submit a whole chain without waiting: per-session order must
        // hold, so the final state is deterministic and every tag comes
        // back exactly once.
        let n = 20u64;
        for i in 0..n {
            s.submit_update_tagged(&Update::InsEdge(Edge::new(i + 1, i + 2, 0)), 100 + i)
                .unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        let mut last_version = 0;
        for _ in 0..n {
            let (tag, reply) = s.recv_tagged().unwrap();
            assert!((100..100 + n).contains(&tag), "unexpected tag {tag}");
            assert!(seen.insert(tag), "tag {tag} delivered twice");
            let applied = reply.outcome.unwrap();
            assert_eq!(applied.safety, Safety::Unsafe, "chain extensions");
            assert!(reply.version > last_version, "versions monotone");
            last_version = reply.version;
        }
        // All applied, in order: the chain is fully connected.
        assert_eq!(srv.engine().value(0, n + 1), n + 1);
        srv.shutdown();
    }

    #[test]
    fn completion_latency_histogram_fills() {
        let srv = bfs_server(32);
        srv.load_edges(&[(0, 1, 0)]);
        let s = srv.session();
        for i in 0..32u64 {
            let _ = s.ins_edge(Edge::new(1 + (i % 4), 1 + ((i + 1) % 4), 0));
        }
        let stats = srv.stats();
        assert!(stats.update_latency.count() >= 32, "every update sampled");
        let (p50, p99, p999) = stats.latency_percentiles_ns();
        assert!(p50 > 0 && p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        assert!(p999 <= stats.update_latency.max_ns());
        srv.shutdown();
    }

    #[test]
    fn max_capacity_gates_growth_not_addressing() {
        let mut config = ServerConfig::default();
        config.engine.threads = 2;
        config.max_capacity = 16;
        // Started capacity exceeds the growth ceiling: ids below the
        // existing capacity stay fully usable.
        let srv: Server = Server::start(vec![StdArc::new(Bfs::new(0))], 32, config).unwrap();
        srv.load_edges(&[(0, 1, 0)]);
        let s = srv.session();
        let r = s.ins_edge(Edge::new(20, 21, 0));
        assert!(r.outcome.is_ok(), "within existing capacity: {r:?}");
        // Growth beyond the ceiling is rejected, not attempted.
        for u in [
            Update::InsVertex(u64::MAX),
            Update::InsEdge(Edge::new(1 << 60, 0, 0)),
        ] {
            let r = s.submit_update(&u);
            assert!(
                matches!(r.outcome, Err(Error::VertexNotFound(_))),
                "{u:?} must be rejected"
            );
        }
        // The coordinator is alive and serving.
        assert!(s.ins_edge(Edge::new(1, 2, 0)).outcome.is_ok());
        srv.shutdown();
    }

    #[test]
    fn merge_changesets_keeps_first_old_last_new() {
        let a = ChangeSet {
            per_algo: vec![vec![ChangeRecord {
                vertex: 1,
                old: 10,
                new: 5,
                old_parent: None,
                new_parent: Some(Edge::new(0, 1, 0)),
            }]],
        };
        let b = ChangeSet {
            per_algo: vec![vec![ChangeRecord {
                vertex: 1,
                old: 5,
                new: 3,
                old_parent: Some(Edge::new(0, 1, 0)),
                new_parent: Some(Edge::new(2, 1, 0)),
            }]],
        };
        let m = merge_changesets(vec![a, b], 1);
        assert_eq!(m.per_algo[0].len(), 1);
        let c = m.per_algo[0][0];
        assert_eq!((c.old, c.new), (10, 3));
        assert_eq!(c.new_parent, Some(Edge::new(2, 1, 0)));
    }

    #[test]
    fn merge_changesets_drops_net_noops() {
        let a = ChangeSet {
            per_algo: vec![vec![ChangeRecord {
                vertex: 1,
                old: 10,
                new: 5,
                old_parent: None,
                new_parent: None,
            }]],
        };
        let b = ChangeSet {
            per_algo: vec![vec![ChangeRecord {
                vertex: 1,
                old: 5,
                new: 10,
                old_parent: None,
                new_parent: None,
            }]],
        };
        let m = merge_changesets(vec![a, b], 1);
        assert!(m.is_empty(), "insert+delete net effect is nothing");
    }

    /// A failed transaction's rollback normally restores the
    /// pre-transaction state exactly and the original error is
    /// reported.
    #[test]
    fn failed_unsafe_txn_rolls_back_and_reports_cause() {
        let srv = bfs_server(16);
        srv.load_edges(&[(0, 1, 0)]);
        let s = srv.session();
        // InsEdge(1,2) applies (unsafe: improves 2), then DelVertex(0)
        // fails — vertex 0 has incident edges.
        let r = s.txn_updates(vec![
            Update::InsEdge(Edge::new(1, 2, 0)),
            Update::DelVertex(0),
        ]);
        assert!(matches!(r.outcome, Err(Error::VertexNotIsolated(0))));
        // The applied prefix was undone: 2 is unreachable again.
        assert_eq!(srv.engine().value(0, 2), u64::MAX);
        assert_eq!(
            srv.engine().with_store(|st| st.num_edges()),
            1,
            "rollback removed the prefix edge"
        );
        srv.shutdown();
    }

    /// Regression for the silently-discarded compensating
    /// `apply_unsafe(&inverse(..))`: when an inverse itself fails the
    /// store matches no consistent prefix, and the reply must say
    /// `Corruption` — not the (now meaningless) original error.
    #[test]
    fn failed_rollback_surfaces_as_corruption() {
        let srv = bfs_server(16);
        srv.load_edges(&[(0, 1, 0)]);
        srv.shared.fail_rollback.store(true, Ordering::Release);
        let s = srv.session();
        let r = s.txn_updates(vec![
            Update::InsEdge(Edge::new(1, 2, 0)),
            Update::DelVertex(0),
        ]);
        match r.outcome {
            Err(Error::Corruption(msg)) => {
                assert!(
                    msg.contains("rollback"),
                    "corruption names the rollback: {msg}"
                );
            }
            other => panic!("expected Corruption, got {other:?}"),
        }
        srv.shared.fail_rollback.store(false, Ordering::Release);
        srv.shutdown();
    }

    /// A safe transaction that fails after its first constituent rolls
    /// the prefix back, and no other applier may run in between. Tree
    /// edge `e = 1→2` has one copy. The transaction inserts a duplicate
    /// (safe: it improves nothing), then deletes a missing edge (safe,
    /// and it fails). In the gap between the two, another session's
    /// synchronous delete of `e` would find two copies and apply as
    /// safe; the rollback would then delete the last copy while 2 still
    /// hangs off it. The transaction runs in the cut, so the delete
    /// waits it out, finds one copy and is unsafe: 2 ends unreachable.
    #[test]
    fn safe_txn_rollback_never_runs_beside_another_applier() {
        let srv = bfs_server(16);
        srv.load_edges(&[(0, 1, 0), (1, 2, 0)]);
        let e = Edge::new(1, 2, 0);
        let (paused_tx, paused_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let go_rx = Mutex::new(go_rx);
        *srv.shared.txn_gap.lock() = Some(Arc::new(move || {
            let _ = paused_tx.send(());
            let _ = go_rx.lock().recv();
        }));
        let txn = srv.session();
        let missing = Edge::new(5, 6, 0);
        let op = Op::Txn(vec![Update::InsEdge(e), Update::DelEdge(missing)]);
        txn.submit_op_tagged(op, 1).unwrap();
        paused_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the transaction reached its gap");

        let other = srv.session();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let deleter = std::thread::spawn(move || {
            let _ = done_tx.send(other.del_edge(e));
        });
        // Applied on its own thread, the delete is back within this.
        let early = done_rx.recv_timeout(Duration::from_millis(200)).ok();
        go_tx.send(()).unwrap();
        let (_, reply) = txn.recv_tagged().unwrap();
        assert!(
            matches!(reply.outcome, Err(Error::EdgeNotFound(_))),
            "{:?}",
            reply.outcome
        );
        let del = early.unwrap_or_else(|| done_rx.recv().unwrap());
        deleter.join().unwrap();
        *srv.shared.txn_gap.lock() = None;

        assert!(del.outcome.is_ok(), "{:?}", del.outcome);
        assert_eq!(srv.engine().with_store(|st| st.edge_count(e)), 0);
        assert_eq!(
            srv.engine().parent(0, 2),
            None,
            "2 hangs off a deleted edge"
        );
        assert_eq!(srv.engine().value(0, 2), u64::MAX);
        srv.shutdown();
    }

    /// A safe transaction's rollback undoes its prefix; an inverse that
    /// fails is counted and answered as `Corruption`, not dropped.
    #[test]
    fn failed_safe_rollback_is_counted_as_corruption() {
        let srv = bfs_server(16);
        srv.load_edges(&[(0, 1, 0), (1, 2, 0)]);
        let s = srv.session();
        let chord = Edge::new(2, 1, 0);
        let txn = || {
            let missing = Update::DelEdge(Edge::new(5, 6, 0));
            s.txn_updates(vec![Update::InsEdge(chord), missing])
        };
        let r = txn();
        assert!(matches!(r.outcome, Err(Error::EdgeNotFound(_))), "{r:?}");
        assert_eq!(srv.engine().with_store(|st| st.edge_count(chord)), 0);

        srv.shared.fail_rollback.store(true, Ordering::Release);
        match txn().outcome {
            Err(Error::Corruption(msg)) => assert!(msg.contains("rollback"), "{msg}"),
            other => panic!("expected Corruption, got {other:?}"),
        }
        srv.shared.fail_rollback.store(false, Ordering::Release);
        let failures = srv.metrics().counter("core.safe_rollback_failures");
        assert_eq!(failures.load(Ordering::Relaxed), 1);
        srv.shutdown();
    }

    /// The parallel unsafe phase on disjoint single-session traffic:
    /// every reply, version and value must match the serial semantics,
    /// and with truly disjoint regions the parallel-groups counter
    /// engages (single-session synchronous traffic has one op pending
    /// per epoch, so drive two sessions concurrently). Run once with a
    /// pool sized by the unsafe fork, and once with a pool larger than
    /// it (sized by the shards).
    #[test]
    fn parallel_unsafe_phase_executes_disjoint_groups() {
        for (shards, unsafe_workers) in [(1, 4), (4, 2)] {
            let mut config = ServerConfig::default();
            config.engine.threads = 1;
            config.shards = shards;
            config.unsafe_workers = unsafe_workers;
            let srv = StdArc::new(
                Server::start(vec![StdArc::new(Wcc::new()) as DynAlgorithm], 64, config).unwrap(),
            );
            // Two disjoint chains; del/ins of a chain edge is always
            // unsafe under WCC (splits/merges a component).
            srv.load_edges(&[(0, 1, 0), (1, 2, 0), (10, 11, 0), (11, 12, 0)]);
            std::thread::scope(|scope| {
                for base in [0u64, 10] {
                    let srv = StdArc::clone(&srv);
                    scope.spawn(move || {
                        let s = srv.session();
                        for _ in 0..40 {
                            let r = s.del_edge(Edge::new(base, base + 1, 0));
                            assert!(r.outcome.is_ok());
                            let r = s.ins_edge(Edge::new(base, base + 1, 0));
                            assert!(r.outcome.is_ok());
                        }
                    });
                }
            });
            let s = srv.session();
            let v = s.get_current_version();
            assert_eq!(v, 160, "every op bumped the version exactly once");
            // Final state: both chains intact (WCC labels are the chain
            // minima).
            assert_eq!(srv.engine().value(0, 2), 0);
            assert_eq!(srv.engine().value(0, 12), 10);
            let stats = srv.stats();
            assert_eq!(
                stats.unsafe_executed.load(Ordering::Relaxed),
                160,
                "all ops were unsafe"
            );
            // Concurrent sessions mean at least some epochs held two
            // pending disjoint ops; those must have run in parallel
            // groups. (Timing-dependent epochs with one op run serially
            // without counting as fallbacks.)
            let groups = stats.unsafe_parallel_groups.load(Ordering::Relaxed);
            let fallbacks = stats.unsafe_serial_fallbacks.load(Ordering::Relaxed);
            assert_eq!(
                fallbacks, 0,
                "disjoint regions never overlap, so no epoch may fall back"
            );
            assert!(
                groups.is_multiple_of(2),
                "disjoint two-session groups come in pairs"
            );
            assert!(
                stats.unsafe_phase.count() > 0,
                "unsafe-phase histogram records each epoch with unsafe work"
            );
            StdArc::try_unwrap(srv).ok().unwrap().shutdown();
        }
    }

    /// A failed WAL write stops the write path. The failing epoch's own
    /// reply went out before its append; after it, nothing is acked, the
    /// version holds still, reads keep answering and `wal.errors` reads
    /// 1.
    #[test]
    fn failed_wal_append_stops_the_write_path() {
        let dir = std::env::temp_dir().join("risgraph-server-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("failed-append-{}.wal", std::process::id()));
        let remove_log = |p: &std::path::Path| {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(crate::wal::snapshot_path(p));
            for seg in 0..8 {
                let _ = std::fs::remove_file(crate::wal::segment_path(p, seg));
            }
        };
        remove_log(&path);
        let mut config = ServerConfig::default();
        config.engine.threads = 2;
        config.wal_path = Some(path.clone());
        let srv = Server::start(vec![StdArc::new(Bfs::new(0))], 16, config).unwrap();
        let s = srv.session();
        s.ins_edge(Edge::new(0, 1, 0)).outcome.unwrap();
        // That reply preceded its epoch's append: let the append land
        // (the epoch is counted after it) before failing the next one.
        while srv.stats().epochs.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        srv.shared.fail_wal_append.store(true, Ordering::Release);
        let last = s.ins_edge(Edge::new(1, 2, 0));
        assert!(last.outcome.is_ok(), "replied before its append");

        let other = srv.session();
        for tag in 0..4 {
            let u = Update::InsEdge(Edge::new(2 + tag, 3 + tag, 0));
            other.submit_update_tagged(&u, tag).unwrap();
        }
        let mut replies = vec![
            s.ins_edge(Edge::new(2, 0, 0)),
            s.del_edge(Edge::new(0, 1, 0)),
            s.txn_updates(vec![
                Update::InsVertex(9),
                Update::DelEdge(Edge::new(1, 2, 0)),
            ]),
        ];
        replies.extend((0..4).map(|_| other.recv_tagged().unwrap().1));
        for r in replies {
            assert!(matches!(r.outcome, Err(Error::Wal(_))), "{:?}", r.outcome);
            assert_eq!(r.version, last.version);
        }
        assert_eq!(srv.current_version(), last.version);
        assert_eq!(s.get_value(0, last.version, 2).unwrap(), 2);
        assert_eq!(srv.engine().value(0, 2), 2);
        let errors = srv.metrics().counter("wal.errors");
        assert_eq!(errors.load(Ordering::Relaxed), 1);
        srv.shutdown();
        remove_log(&path);
    }

    /// One flat part holding two interleaved sessions. With two copies
    /// of tree edge `e`, A's first delete is safe and its second — safe
    /// when it was classified — fails revalidation: A's demoted update
    /// and everything A has behind it come back in submission order,
    /// and nothing of B's is held up.
    #[test]
    fn drain_shard_hands_back_only_the_demoted_sessions_suffix() {
        const A: u64 = 100;
        const B: u64 = 101;
        let srv = bfs_server(16);
        let setup = srv.session();
        let e = Edge::new(1, 2, 0);
        for edge in [Edge::new(0, 1, 0), e, e] {
            setup.ins_edge(edge).outcome.unwrap();
        }
        let (reply, replies) = unbounded();
        let env = |session, tag, u| Envelope {
            session,
            tag,
            op: Op::Single(u),
            enqueued: Instant::now(),
            reply: reply.clone(),
            waker: None,
        };
        let (del, chord) = (Update::DelEdge(e), Update::InsEdge(Edge::new(2, 0, 0)));
        let mut part = vec![
            env(A, 1, del),
            env(B, 2, chord),
            env(A, 3, del),
            env(B, 4, chord),
            env(A, 5, chord),
            env(B, 6, chord),
        ];
        let stats = srv.stats();
        let queue_ns = stats.queue_ns.load(Ordering::Relaxed);
        let mut out = SafeOutcome::default();
        drain_shard(
            &srv.shared,
            &mut part,
            Duration::from_secs(60),
            &mut out,
            false,
        );

        assert!(part.is_empty());
        assert_eq!(out.stopped, [A]);
        let tags = |envs: &[Envelope]| envs.iter().map(|e| e.tag).collect::<Vec<_>>();
        assert_eq!(tags(&out.leftovers), [3, 5]);
        assert_eq!((out.applied_ops, out.qualified, out.total), (4, 4, 4));
        let applied: Vec<Update> = out.applied.iter().map(|&(_, u)| u).collect();
        assert_eq!(applied, [del, chord, chord, chord]);
        let answered: Vec<u64> = std::iter::from_fn(|| replies.try_recv().ok())
            .map(|(tag, reply)| {
                assert_eq!(reply.outcome.unwrap().safety, Safety::Safe);
                tag
            })
            .collect();
        assert_eq!(answered, [1, 2, 4, 6]);
        assert_eq!(stats.demotions.load(Ordering::Relaxed), 1);
        // The queueing time of the four is published once, at the end.
        assert!(stats.queue_ns.load(Ordering::Relaxed) > queue_ns);
    }
}
