//! Unified observability: a named-metric registry and an epoch tracer.
//!
//! Every subsystem (core epoch loop, WAL, replication feed, reactor
//! workers, replicas) registers its counters, gauges and histograms
//! here by *name* instead of threading fields through `ServerStats` by
//! hand. The registry is lock-free on both sides: registration CAS-
//! pushes onto an append-only linked list, updates are plain relaxed
//! atomics on the returned handle, and [`Registry::snapshot`] walks
//! the list without blocking writers. Counters and histograms are
//! per-thread stripes ([`crate::stripe`]): an update writes only the
//! calling thread's cache-padded cell, so two threads bumping one
//! metric share no line, and a read sums (counters) or merges
//! (histograms) the cells at snapshot time. Gauges are levels that
//! move both ways and stay one cell. The snapshot is schema-less —
//! `(name, typed value)` pairs — so the `METRICS` wire opcode and the
//! Prometheus text exposition never break when a metric is added.
//!
//! The second half is the epoch-pipeline tracer ([`EpochTracer`]): a
//! fixed-size lock-free ring of per-epoch span records. Each slot
//! carries the epoch's per-[`Phase`] nanosecond breakdown (safe shard
//! execute, barrier wait, unsafe probe/execute, finalize, WAL
//! append/rotate/checkpoint, feed publish, reactor inbox drain) behind
//! a seqlock, so the coordinator publishes one record per epoch with
//! two atomic bumps and readers never block it. Epochs whose total
//! exceeds the slow-epoch threshold (`RISGRAPH_TRACE_SLOW_EPOCH_MS`,
//! default 1000; `0` flags everything) are additionally copied into a
//! smaller *flagged* ring that survives main-ring wraparound, so the
//! full phase breakdown of a P999 outlier is retrievable after the
//! fact. Per-phase histograms are registered in the same registry, so
//! the wire surface sees `epoch.phase.*_ns` quantiles for free.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::stats::{AtomicHistogram, LatencyHistogram};
use crate::stripe::Striped;

/// A monotonically increasing named metric, striped per thread.
///
/// The API mirrors [`AtomicU64`] (`fetch_add`, `load`, … with explicit
/// orderings) so a struct field can change type from `AtomicU64` to
/// `Arc<Counter>` with few call-site changes. The one difference:
/// [`fetch_add`](Counter::fetch_add) adds to the calling thread's
/// stripe, which cannot know the global previous value, so it returns
/// nothing — a caller that needs a running number keeps its own.
#[derive(Default)]
pub struct Counter(Striped<AtomicU64>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter")
            .field(&self.load(Ordering::Relaxed))
            .finish()
    }
}

impl Counter {
    /// A counter starting at `v`.
    pub fn new(v: u64) -> Self {
        let c = Counter::default();
        c.store(v, Ordering::Relaxed);
        c
    }

    /// Add `v` to the calling thread's stripe.
    #[inline]
    pub fn fetch_add(&self, v: u64, order: Ordering) {
        self.0.local().fetch_add(v, order);
    }

    /// Current value: the sum of the stripes.
    #[inline]
    pub fn load(&self, order: Ordering) -> u64 {
        self.0
            .cells()
            .fold(0, |sum, c| sum.wrapping_add(c.load(order)))
    }

    /// Overwrite the value (used when re-seeding after recovery): one
    /// stripe takes `v`, every other stripe restarts from zero.
    #[inline]
    pub fn store(&self, v: u64, order: Ordering) {
        for (i, c) in self.0.cells().enumerate() {
            c.store(if i == 0 { v } else { 0 }, order);
        }
    }
}

/// A named metric that can move in both directions (a level, not a
/// rate): queue depths, thresholds, watermarks. Same [`AtomicU64`]
/// surface as [`Counter`]; the split exists so consumers (Prometheus,
/// the controller) know which deltas are meaningful.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at `v`.
    pub fn new(v: u64) -> Self {
        Gauge(AtomicU64::new(v))
    }

    /// Set the level.
    #[inline]
    pub fn store(&self, v: u64, order: Ordering) {
        self.0.store(v, order)
    }

    /// Current level.
    #[inline]
    pub fn load(&self, order: Ordering) -> u64 {
        self.0.load(order)
    }

    /// Add `v`, returning the previous level.
    #[inline]
    pub fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        self.0.fetch_add(v, order)
    }

    /// Subtract `v`, returning the previous level.
    #[inline]
    pub fn fetch_sub(&self, v: u64, order: Ordering) -> u64 {
        self.0.fetch_sub(v, order)
    }

    /// Raise the level to at least `v`, returning the previous level.
    #[inline]
    pub fn fetch_max(&self, v: u64, order: Ordering) -> u64 {
        self.0.fetch_max(v, order)
    }

    /// Lower the level to at most `v`, returning the previous level.
    #[inline]
    pub fn fetch_min(&self, v: u64, order: Ordering) -> u64 {
        self.0.fetch_min(v, order)
    }
}

/// A live handle stored in the registry.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<AtomicHistogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Fixed-quantile digest of a histogram, cheap enough to put on the
/// wire (six u64 words). `min_ns` is normalized to 0 when empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Smallest sample in nanoseconds (0 when empty).
    pub min_ns: u64,
    /// Largest sample in nanoseconds.
    pub max_ns: u64,
    /// Median in nanoseconds.
    pub p50_ns: u64,
    /// P99 in nanoseconds.
    pub p99_ns: u64,
    /// P999 in nanoseconds — the paper's headline tail metric.
    pub p999_ns: u64,
}

impl HistogramSummary {
    /// Digest a snapshot down to the wire quantiles.
    pub fn of(h: &LatencyHistogram) -> Self {
        HistogramSummary {
            count: h.count(),
            min_ns: if h.count() == 0 { 0 } else { h.min_ns() },
            max_ns: h.max_ns(),
            p50_ns: h.quantile_ns(0.5),
            p99_ns: h.quantile_ns(0.99),
            p999_ns: h.quantile_ns(0.999),
        }
    }
}

/// One observed metric value, as shipped over `METRICS` and rendered
/// for Prometheus. The enum is open-ended by design: decoders skip
/// kinds they do not understand instead of failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Instantaneous level.
    Gauge(u64),
    /// Quantile digest of a nanosecond histogram.
    Histogram(HistogramSummary),
}

/// One registry entry: a name and its live handle, linked LIFO.
struct Node {
    name: String,
    metric: Metric,
    next: AtomicPtr<Node>,
}

/// A process-wide (per-[`Server`]) lock-free registry of named metrics.
///
/// Registration is get-or-create: two subsystems asking for the same
/// name share one handle (and asking with a different kind is a
/// programming error — it panics). The backing store is an append-only
/// singly linked list pushed with CAS, so registration never blocks
/// updates and [`snapshot`](Registry::snapshot) never blocks either.
///
/// [`Server`]: ../../risgraph_core/server/struct.Server.html
#[derive(Default)]
pub struct Registry {
    head: AtomicPtr<Node>,
}

// The raw `Node` pointers are only ever published via CAS and freed in
// `Drop`, and every payload behind them is `Send + Sync` (String is
// never mutated after publication, metrics are atomics).
unsafe impl Send for Registry {}
unsafe impl Sync for Registry {}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.snapshot().len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Search the nodes from `from` up to (not including) `until` for
    /// `name`; the list is append-only so a node seen once stays valid
    /// for the registry's lifetime.
    fn find_between(from: *mut Node, until: *mut Node, name: &str) -> Option<Metric> {
        let mut cur = from;
        while cur != until {
            // SAFETY: `cur` came from `head` or a published `next`, is
            // not `until` (the tail is null), and nodes are freed only
            // in `Drop`.
            let node = unsafe { &*cur };
            if node.name == name {
                return Some(node.metric.clone());
            }
            cur = node.next.load(Ordering::Acquire);
        }
        None
    }

    /// Get `name`, or publish the metric `fresh` builds under it. The
    /// search comes first, so a hit allocates nothing; `fresh` runs (and
    /// the node and its name are allocated) at most once, on the first
    /// miss, and a lost CAS reuses them.
    fn register(&self, name: &str, kind: &'static str, fresh: impl FnOnce() -> Metric) -> Metric {
        let mut fresh = Some(fresh);
        let mut node: Option<Box<Node>> = None;
        // One snapshot of `head` serves both the search and the CAS: a
        // same-name node pushed after the search fails the CAS, so a
        // racing registration of one name wins exactly once. Nodes from
        // `searched` to the tail are known not to carry `name`; a retry
        // walks only the prefix pushed since.
        let mut head = self.head.load(Ordering::Acquire);
        let mut searched: *mut Node = std::ptr::null_mut();
        loop {
            if let Some(existing) = Self::find_between(head, searched, name) {
                if existing.kind() != kind {
                    panic!(
                        "metric {name:?} already registered as a {}, requested as a {kind}",
                        existing.kind(),
                    );
                }
                return existing;
            }
            searched = head;
            #[cfg(test)]
            tests::before_cas();
            let new = node.take().unwrap_or_else(|| {
                let fresh = fresh.take().expect("built once, then reused");
                Box::new(Node {
                    name: name.to_string(),
                    metric: fresh(),
                    next: AtomicPtr::new(std::ptr::null_mut()),
                })
            });
            new.next.store(head, Ordering::Relaxed);
            let raw = Box::into_raw(new);
            match self
                .head
                .compare_exchange(head, raw, Ordering::AcqRel, Ordering::Acquire)
            {
                // SAFETY: `raw` is the node just published; it lives
                // until `Drop`.
                Ok(_) => return unsafe { (*raw).metric.clone() },
                // Someone else pushed first — keep our allocation for a
                // retry and search what they pushed (it may be our name).
                Err(now) => {
                    // SAFETY: the CAS failed, so `raw` was never
                    // published and is still uniquely ours.
                    node = Some(unsafe { Box::from_raw(raw) });
                    head = now;
                }
            }
        }
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.register(name, "counter", || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            _ => unreachable!("register() panics on kind mismatch"),
        }
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.register(name, "gauge", || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            _ => unreachable!("register() panics on kind mismatch"),
        }
    }

    /// Get or create the nanosecond histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        match self.register(name, "histogram", || Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h,
            _ => unreachable!("register() panics on kind mismatch"),
        }
    }

    /// Adopt an *existing* counter under `name` (used when a subsystem
    /// keeps its own struct of handles — e.g. `FollowerStats` — and
    /// wants the registry snapshot to see them). Returns the handle
    /// actually registered, which is `c` unless the name already
    /// existed.
    pub fn adopt_counter(&self, name: &str, c: Arc<Counter>) -> Arc<Counter> {
        match self.register(name, "counter", || Metric::Counter(c)) {
            Metric::Counter(c) => c,
            _ => unreachable!("register() panics on kind mismatch"),
        }
    }

    /// Adopt an existing gauge under `name` (see [`adopt_counter`]).
    ///
    /// [`adopt_counter`]: Registry::adopt_counter
    pub fn adopt_gauge(&self, name: &str, g: Arc<Gauge>) -> Arc<Gauge> {
        match self.register(name, "gauge", || Metric::Gauge(g)) {
            Metric::Gauge(g) => g,
            _ => unreachable!("register() panics on kind mismatch"),
        }
    }

    /// Adopt an existing histogram under `name` (see [`adopt_counter`]).
    ///
    /// [`adopt_counter`]: Registry::adopt_counter
    pub fn adopt_histogram(&self, name: &str, h: Arc<AtomicHistogram>) -> Arc<AtomicHistogram> {
        match self.register(name, "histogram", || Metric::Histogram(h)) {
            Metric::Histogram(h) => h,
            _ => unreachable!("register() panics on kind mismatch"),
        }
    }

    /// A relaxed point-in-time view of every registered metric, sorted
    /// by name (the list itself is LIFO registration order).
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let mut out = Vec::new();
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            let node = unsafe { &*cur };
            let value = match &node.metric {
                Metric::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                Metric::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                Metric::Histogram(h) => MetricValue::Histogram(HistogramSummary::of(&h.snapshot())),
            };
            out.push((node.name.clone(), value));
            cur = node.next.load(Ordering::Acquire);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Render the registry in the Prometheus text exposition format
    /// (`risgraph_` prefix, `.`/`-` mapped to `_`, histograms as
    /// summary-style quantile series plus `_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            let prom = prometheus_name(&name);
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "# TYPE {prom} counter\n{prom} {v}\n",
                        prom = prom,
                        v = v
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "# TYPE {prom} gauge\n{prom} {v}\n",
                        prom = prom,
                        v = v
                    ));
                }
                MetricValue::Histogram(s) => {
                    out.push_str(&format!("# TYPE {prom} summary\n"));
                    out.push_str(&format!("{prom}{{quantile=\"0.5\"}} {}\n", s.p50_ns));
                    out.push_str(&format!("{prom}{{quantile=\"0.99\"}} {}\n", s.p99_ns));
                    out.push_str(&format!("{prom}{{quantile=\"0.999\"}} {}\n", s.p999_ns));
                    out.push_str(&format!("{prom}_min {}\n", s.min_ns));
                    out.push_str(&format!("{prom}_max {}\n", s.max_ns));
                    out.push_str(&format!("{prom}_count {}\n", s.count));
                }
            }
        }
        out
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next.load(Ordering::Relaxed);
        }
    }
}

/// Map a dotted metric name onto a legal Prometheus series name.
fn prometheus_name(name: &str) -> String {
    let body: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("risgraph_{body}")
}

/// One stage of the epoch pipeline, in execution order. The tracer
/// records a nanosecond figure per phase per epoch; the registry gets
/// one `epoch.phase.<name>_ns` histogram per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Sharded parallel safe execution (dispatch + the coordinator's
    /// own inline shard drain).
    SafeExecute = 0,
    /// Coordinator blocked collecting the other shards' results.
    BarrierWait = 1,
    /// Affected-area footprint probing before parallel unsafe execute.
    UnsafeProbe = 2,
    /// Unsafe group execution (parallel groups or the serial loop).
    UnsafeExecute = 3,
    /// Arrival-order finalize: replies, history, scheduler accounting.
    Finalize = 4,
    /// WAL record append + group-commit sync.
    WalAppend = 5,
    /// WAL segment rotation (delta of the writer's cumulative clock).
    WalRotate = 6,
    /// Snapshot checkpoint (structure + results + truncation).
    WalCheckpoint = 7,
    /// Replication feed publish of the epoch's stamp-sorted record.
    FeedPublish = 8,
    /// Reactor worker ready-queue drain (recorded net-side via
    /// [`EpochTracer::note_phase`], not by the coordinator).
    ReactorDrain = 9,
}

/// Number of [`Phase`] variants (the span array width).
pub const PHASE_COUNT: usize = 10;

impl Phase {
    /// Every phase, in execution order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::SafeExecute,
        Phase::BarrierWait,
        Phase::UnsafeProbe,
        Phase::UnsafeExecute,
        Phase::Finalize,
        Phase::WalAppend,
        Phase::WalRotate,
        Phase::WalCheckpoint,
        Phase::FeedPublish,
        Phase::ReactorDrain,
    ];

    /// Stable snake_case name used in metric names and trace dumps.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SafeExecute => "safe_execute",
            Phase::BarrierWait => "barrier_wait",
            Phase::UnsafeProbe => "unsafe_probe",
            Phase::UnsafeExecute => "unsafe_execute",
            Phase::Finalize => "finalize",
            Phase::WalAppend => "wal_append",
            Phase::WalRotate => "wal_rotate",
            Phase::WalCheckpoint => "wal_checkpoint",
            Phase::FeedPublish => "feed_publish",
            Phase::ReactorDrain => "reactor_drain",
        }
    }
}

/// One traced epoch: its full phase breakdown, retrievable after the
/// fact from [`EpochTracer::recent`] / [`EpochTracer::flagged`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochTrace {
    /// Epoch ordinal (the server's epoch counter when recorded).
    pub epoch: u64,
    /// Sum of the phase spans in nanoseconds.
    pub total_ns: u64,
    /// `total_ns` met the slow-epoch threshold when recorded.
    pub flagged: bool,
    /// Nanoseconds spent per [`Phase`] (indexed by `Phase as usize`).
    pub phase_ns: [u64; PHASE_COUNT],
}

/// Words per ring slot: epoch ordinal, total, then the phase array.
const SLOT_WORDS: usize = 2 + PHASE_COUNT;

/// One seqlock-guarded trace slot. The writer bumps `seq` to odd,
/// stores the words, bumps back to even; a reader that observes an odd
/// or changed `seq` discards the slot instead of blocking.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-size lock-free ring of [`EpochTrace`] records.
struct TraceRing {
    slots: Box<[Slot]>,
    /// Next logical write position (monotonic; slot = pos % len).
    pos: AtomicU64,
}

impl TraceRing {
    fn new(capacity: usize) -> Self {
        TraceRing {
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
            pos: AtomicU64::new(0),
        }
    }

    fn push(&self, epoch: u64, total_ns: u64, phase_ns: &[u64; PHASE_COUNT]) {
        let pos = self.pos.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(pos % self.slots.len() as u64) as usize];
        slot.seq.fetch_add(1, Ordering::Release); // odd: write in progress
        slot.words[0].store(epoch, Ordering::Relaxed);
        slot.words[1].store(total_ns, Ordering::Relaxed);
        for (i, &ns) in phase_ns.iter().enumerate() {
            slot.words[2 + i].store(ns, Ordering::Relaxed);
        }
        slot.seq.fetch_add(1, Ordering::Release); // even: published
    }

    fn read_slot(&self, idx: usize) -> Option<(u64, u64, [u64; PHASE_COUNT])> {
        let slot = &self.slots[idx];
        for _ in 0..4 {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                return None; // never written, or mid-write
            }
            let epoch = slot.words[0].load(Ordering::Relaxed);
            let total = slot.words[1].load(Ordering::Relaxed);
            let phases = std::array::from_fn(|i| slot.words[2 + i].load(Ordering::Relaxed));
            std::sync::atomic::fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == s1 {
                return Some((epoch, total, phases));
            }
        }
        None // torn under sustained writes; drop the slot
    }

    /// Newest-first snapshot of up to `max` records.
    fn newest(&self, max: usize) -> Vec<(u64, u64, [u64; PHASE_COUNT])> {
        let len = self.slots.len() as u64;
        let end = self.pos.load(Ordering::Acquire);
        let start = end.saturating_sub(len);
        let mut out = Vec::new();
        let mut logical = end;
        while logical > start && out.len() < max {
            logical -= 1;
            if let Some(rec) = self.read_slot((logical % len) as usize) {
                out.push(rec);
            }
        }
        out
    }
}

/// Slots in the main per-epoch ring.
const TRACE_RING_SLOTS: usize = 1024;
/// Slots in the flagged-outlier ring (survives main-ring wraparound).
const FLAGGED_RING_SLOTS: usize = 256;

/// The epoch-pipeline tracer: per-epoch phase spans in a lock-free
/// ring, slow epochs flagged and retained separately, per-phase
/// histograms registered in the metrics [`Registry`].
pub struct EpochTracer {
    threshold_ns: u64,
    ring: TraceRing,
    flagged: TraceRing,
    /// Per-phase nanosecond histograms (`epoch.phase.<name>_ns`).
    phase_hist: [Arc<AtomicHistogram>; PHASE_COUNT],
    /// Whole-epoch span histogram (`epoch.total_ns`).
    total_hist: Arc<AtomicHistogram>,
    traced: Arc<Counter>,
    flagged_count: Arc<Counter>,
}

impl std::fmt::Debug for EpochTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochTracer")
            .field("threshold_ns", &self.threshold_ns)
            .field("traced", &self.traced.load(Ordering::Relaxed))
            .field("flagged", &self.flagged_count.load(Ordering::Relaxed))
            .finish()
    }
}

impl EpochTracer {
    /// A tracer with the default ring sizes, its histograms and
    /// counters registered in `registry`.
    pub fn new(threshold: Duration, registry: &Registry) -> Self {
        Self::with_capacity(threshold, registry, TRACE_RING_SLOTS, FLAGGED_RING_SLOTS)
    }

    /// A tracer with explicit ring sizes (tests exercise wraparound
    /// with tiny rings).
    pub fn with_capacity(
        threshold: Duration,
        registry: &Registry,
        ring_slots: usize,
        flagged_slots: usize,
    ) -> Self {
        let phase_hist = std::array::from_fn(|i| {
            registry.histogram(&format!("epoch.phase.{}_ns", Phase::ALL[i].name()))
        });
        EpochTracer {
            threshold_ns: threshold.as_nanos().min(u64::MAX as u128) as u64,
            ring: TraceRing::new(ring_slots),
            flagged: TraceRing::new(flagged_slots),
            phase_hist,
            total_hist: registry.histogram("epoch.total_ns"),
            traced: registry.counter("epoch.traced"),
            flagged_count: registry.counter("epoch.flagged"),
        }
    }

    /// The slow-epoch threshold in nanoseconds (0 flags every epoch).
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Publish one epoch's phase breakdown. Single-writer by design —
    /// only the epoch coordinator calls this; concurrent off-
    /// coordinator spans go through [`note_phase`](Self::note_phase).
    pub fn record(&self, epoch: u64, phase_ns: &[u64; PHASE_COUNT]) {
        let total_ns: u64 = phase_ns.iter().fold(0u64, |a, &b| a.saturating_add(b));
        for (hist, &ns) in self.phase_hist.iter().zip(phase_ns.iter()) {
            // Zero means the phase did not run this epoch (no WAL
            // rotation, no checkpoint) — recording it would drown the
            // quantiles in structural zeros.
            if ns > 0 {
                hist.record_ns(ns);
            }
        }
        self.total_hist.record_ns(total_ns);
        self.traced.fetch_add(1, Ordering::Relaxed);
        self.ring.push(epoch, total_ns, phase_ns);
        if total_ns >= self.threshold_ns {
            self.flagged_count.fetch_add(1, Ordering::Relaxed);
            self.flagged.push(epoch, total_ns, phase_ns);
        }
    }

    /// Record a single out-of-epoch span (e.g. a reactor worker's
    /// ready-queue drain) into that phase's histogram. Safe from any
    /// thread.
    pub fn note_phase(&self, phase: Phase, ns: u64) {
        self.phase_hist[phase as usize].record_ns(ns);
    }

    /// Newest-first traces, up to `max`.
    pub fn recent(&self, max: usize) -> Vec<EpochTrace> {
        self.collect(&self.ring, max)
    }

    /// Newest-first *flagged* (slow) traces, up to `max`. Flagged
    /// epochs live in their own smaller ring so an outlier is still
    /// retrievable long after the main ring wrapped past it.
    pub fn flagged(&self, max: usize) -> Vec<EpochTrace> {
        self.collect(&self.flagged, max)
    }

    fn collect(&self, ring: &TraceRing, max: usize) -> Vec<EpochTrace> {
        ring.newest(max)
            .into_iter()
            .map(|(epoch, total_ns, phase_ns)| EpochTrace {
                epoch,
                total_ns,
                flagged: total_ns >= self.threshold_ns,
                phase_ns,
            })
            .collect()
    }
}

/// The slow-epoch threshold from `RISGRAPH_TRACE_SLOW_EPOCH_MS`
/// (default 1000 ms; `0` flags every epoch).
pub fn slow_epoch_threshold_from_env() -> Duration {
    std::env::var("RISGRAPH_TRACE_SLOW_EPOCH_MS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_millis(1000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_snapshot() {
        let r = Registry::new();
        let c = r.counter("core.epochs");
        let g = r.gauge("core.threshold");
        c.fetch_add(3, Ordering::Relaxed);
        g.store(42, Ordering::Relaxed);
        let snap = r.snapshot();
        assert_eq!(
            snap,
            vec![
                ("core.epochs".into(), MetricValue::Counter(3)),
                ("core.threshold".into(), MetricValue::Gauge(42)),
            ]
        );
    }

    #[test]
    fn counter_store_reseeds_every_stripe() {
        let c = Counter::new(4);
        for cell in c.0.cells() {
            cell.fetch_add(3, Ordering::Relaxed);
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| c.fetch_add(5, Ordering::Relaxed));
            }
        });
        assert_eq!(c.load(Ordering::Relaxed), 4 + 3 * 8 + 4 * 5);
        c.store(7, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 7);
        assert_eq!(
            c.0.cells()
                .filter(|cell| cell.load(Ordering::Relaxed) != 0)
                .count(),
            1,
            "a stripe kept its pre-store count"
        );
        c.fetch_add(1, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 8);
    }

    /// A lookup of a registered name finds it before building anything.
    #[test]
    fn a_registry_hit_builds_nothing() {
        let r = Registry::new();
        let c = r.counter("hit");
        let again = r.register("hit", "counter", || panic!("built a metric on a hit"));
        match again {
            Metric::Counter(again) => assert!(Arc::ptr_eq(&c, &again)),
            _ => panic!("kind changed"),
        }
    }

    thread_local! {
        /// Runs once on this thread between `register`'s search and its
        /// CAS, so a test can place another thread's push in that gap.
        static BEFORE_CAS: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn before_cas() {
        if let Some(hook) = BEFORE_CAS.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    /// The tier-1 flake, forced: thread A has searched for the name and
    /// found nothing; thread B registers it; A then pushes. A must see
    /// B's node instead of publishing a second one under the same name.
    #[test]
    fn same_name_pushed_between_search_and_cas_is_found() {
        use std::sync::mpsc::channel;
        let r = Arc::new(Registry::new());
        r.counter("older"); // a non-empty suffix A has already searched
        let (searched_tx, searched_rx) = channel();
        let (pushed_tx, pushed_rx) = channel::<()>();
        let a = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                BEFORE_CAS.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        searched_tx.send(()).unwrap();
                        pushed_rx.recv().unwrap();
                    }));
                });
                r.counter("raced")
            })
        };
        searched_rx.recv().unwrap();
        let b = r.counter("raced");
        pushed_tx.send(()).unwrap();
        let a = a.join().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "two nodes carry one name");
        a.fetch_add(1, Ordering::Relaxed);
        b.fetch_add(1, Ordering::Relaxed);
        assert_eq!(
            r.snapshot(),
            vec![
                ("older".into(), MetricValue::Counter(0)),
                ("raced".into(), MetricValue::Counter(2)),
            ]
        );
    }

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.fetch_add(1, Ordering::Relaxed);
        assert_eq!(b.load(Ordering::Relaxed), 1);
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn adopted_handles_are_visible() {
        let r = Registry::new();
        let mine = Arc::new(Counter::new(7));
        let shared = r.adopt_counter("follower.connects", Arc::clone(&mine));
        mine.fetch_add(1, Ordering::Relaxed);
        assert_eq!(shared.load(Ordering::Relaxed), 8);
        assert_eq!(
            r.snapshot(),
            vec![("follower.connects".into(), MetricValue::Counter(8))]
        );
    }

    #[test]
    fn histogram_summary_on_the_snapshot() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for i in 1..=1000u64 {
            h.record_ns(i * 1_000);
        }
        match r.snapshot()[0].1 {
            MetricValue::Histogram(s) => {
                assert_eq!(s.count, 1000);
                assert!(s.p50_ns > 0 && s.p50_ns <= s.p99_ns && s.p99_ns <= s.p999_ns);
                assert_eq!(s.max_ns, 1_000_000);
            }
            ref v => panic!("expected histogram, got {v:?}"),
        }
    }

    #[test]
    fn empty_histogram_min_is_normalized() {
        let r = Registry::new();
        let _ = r.histogram("empty");
        match r.snapshot()[0].1 {
            MetricValue::Histogram(s) => assert_eq!(s, HistogramSummary::default()),
            ref v => panic!("expected histogram, got {v:?}"),
        }
    }

    #[test]
    fn concurrent_registration_update_snapshot() {
        let r = Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        // Half the names collide across threads on
                        // purpose: get-or-create must hand every
                        // thread the same underlying cell.
                        let c = r.counter(&format!("shared.{}", i % 10));
                        c.fetch_add(1, Ordering::Relaxed);
                        let own = r.counter(&format!("own.{t}.{}", i % 5));
                        own.fetch_add(1, Ordering::Relaxed);
                        if i % 50 == 0 {
                            let _ = r.snapshot();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 10 + 8 * 5);
        let shared_total: u64 = snap
            .iter()
            .filter(|(n, _)| n.starts_with("shared."))
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum();
        assert_eq!(shared_total, 8 * 200);
    }

    #[test]
    fn prometheus_rendering_sanitizes_names() {
        let r = Registry::new();
        r.counter("net.worker-0.connections")
            .fetch_add(2, Ordering::Relaxed);
        let h = r.histogram("epoch.total_ns");
        h.record_ns(5_000);
        let text = r.render_prometheus();
        assert!(text.contains("risgraph_net_worker_0_connections 2"));
        assert!(text.contains("# TYPE risgraph_net_worker_0_connections counter"));
        assert!(text.contains("risgraph_epoch_total_ns{quantile=\"0.999\"}"));
        assert!(text.contains("risgraph_epoch_total_ns_count 1"));
    }

    #[test]
    fn tracer_records_phases_into_histograms() {
        let r = Registry::new();
        let t = EpochTracer::new(Duration::from_millis(1000), &r);
        let mut phases = [0u64; PHASE_COUNT];
        phases[Phase::SafeExecute as usize] = 10_000;
        phases[Phase::WalAppend as usize] = 4_000;
        t.record(1, &phases);
        let recent = t.recent(16);
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].epoch, 1);
        assert_eq!(recent[0].total_ns, 14_000);
        assert!(!recent[0].flagged);
        assert_eq!(recent[0].phase_ns[Phase::WalAppend as usize], 4_000);
        let snap = r.snapshot();
        let safe = snap
            .iter()
            .find(|(n, _)| n == "epoch.phase.safe_execute_ns")
            .unwrap();
        match safe.1 {
            MetricValue::Histogram(s) => assert_eq!(s.count, 1),
            ref v => panic!("expected histogram, got {v:?}"),
        }
        // Phases that did not run must not pollute their histograms.
        let probe = snap
            .iter()
            .find(|(n, _)| n == "epoch.phase.unsafe_probe_ns")
            .unwrap();
        match probe.1 {
            MetricValue::Histogram(s) => assert_eq!(s.count, 0),
            ref v => panic!("expected histogram, got {v:?}"),
        }
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let r = Registry::new();
        let t = EpochTracer::with_capacity(Duration::from_millis(1000), &r, 8, 4);
        for epoch in 0..20u64 {
            let mut phases = [0u64; PHASE_COUNT];
            phases[0] = epoch + 1;
            t.record(epoch, &phases);
        }
        let recent = t.recent(100);
        assert_eq!(recent.len(), 8);
        let epochs: Vec<u64> = recent.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![19, 18, 17, 16, 15, 14, 13, 12]);
    }

    #[test]
    fn slow_epochs_are_flagged_at_threshold() {
        let r = Registry::new();
        let t = EpochTracer::with_capacity(Duration::from_micros(10), &r, 8, 8);
        let mut fast = [0u64; PHASE_COUNT];
        fast[0] = 9_999; // just under 10us
        let mut slow = [0u64; PHASE_COUNT];
        slow[0] = 10_000; // exactly at the threshold: flagged
        t.record(1, &fast);
        t.record(2, &slow);
        let flagged = t.flagged(16);
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].epoch, 2);
        assert!(flagged[0].flagged);
        assert_eq!(r.counter("epoch.flagged").load(Ordering::Relaxed), 1);
    }

    #[test]
    fn flagged_ring_survives_main_wraparound() {
        let r = Registry::new();
        let t = EpochTracer::with_capacity(Duration::from_micros(1), &r, 4, 8);
        let mut slow = [0u64; PHASE_COUNT];
        slow[0] = 1_000_000;
        t.record(0, &slow); // flagged
        let quiet = [0u64; PHASE_COUNT];
        for epoch in 1..20u64 {
            let mut p = quiet;
            p[0] = 1; // under the 1us threshold? no — 1ns < 1000ns
            t.record(epoch, &p);
        }
        // The outlier is long gone from the 4-slot main ring…
        assert!(t.recent(100).iter().all(|e| e.epoch != 0));
        // …but still fully retrievable from the flagged ring.
        let flagged = t.flagged(100);
        assert!(flagged
            .iter()
            .any(|e| e.epoch == 0 && e.total_ns == 1_000_000));
    }

    #[test]
    fn zero_threshold_flags_everything() {
        let r = Registry::new();
        let t = EpochTracer::with_capacity(Duration::ZERO, &r, 8, 8);
        t.record(7, &[0u64; PHASE_COUNT]);
        let flagged = t.flagged(16);
        assert_eq!(flagged.len(), 1);
        assert!(flagged[0].flagged);
    }

    #[test]
    fn note_phase_feeds_the_histogram_only() {
        let r = Registry::new();
        let t = EpochTracer::new(Duration::from_millis(1000), &r);
        t.note_phase(Phase::ReactorDrain, 2_500);
        assert!(t.recent(16).is_empty());
        let snap = r.snapshot();
        let drain = snap
            .iter()
            .find(|(n, _)| n == "epoch.phase.reactor_drain_ns")
            .unwrap();
        match drain.1 {
            MetricValue::Histogram(s) => {
                assert_eq!(s.count, 1);
                assert_eq!(s.max_ns, 2_500);
            }
            ref v => panic!("expected histogram, got {v:?}"),
        }
    }

    #[test]
    fn concurrent_trace_reads_never_tear() {
        let r = Registry::new();
        let t = Arc::new(EpochTracer::with_capacity(
            Duration::from_millis(1000),
            &r,
            8,
            4,
        ));
        let writer = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for epoch in 0..50_000u64 {
                    // Every phase carries the epoch number, so a torn
                    // read would show mixed values across the array.
                    let phases = [epoch; PHASE_COUNT];
                    t.record(epoch, &phases);
                }
            })
        };
        let mut seen = 0usize;
        while !writer.is_finished() {
            for trace in t.recent(8) {
                seen += 1;
                assert!(
                    trace.phase_ns.iter().all(|&p| p == trace.epoch),
                    "torn trace: {trace:?}"
                );
                assert_eq!(trace.total_ns, trace.epoch * PHASE_COUNT as u64);
            }
        }
        writer.join().unwrap();
        assert!(seen > 0, "reader never observed a published trace");
    }
}
