//! Latency and throughput measurement used by the evaluation harness.
//!
//! The paper reports *processing-time latency* (§6.1, citing \[39\]):
//! the elapsed time between request and response measured at the client,
//! summarized as mean and P999, with a 20 ms P999 target. We record
//! latencies in a log-bucketed histogram so millions of samples cost a
//! fixed ≈ 10 KB of buckets (per recording thread stripe, for the
//! shared [`AtomicHistogram`]), plus exact min/max/sum for the mean.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use crate::stripe::Striped;

/// Number of sub-buckets per power of two (higher = finer resolution).
const SUBBUCKETS_BITS: u32 = 5;
const SUBBUCKETS: usize = 1 << SUBBUCKETS_BITS;
/// Covers values up to 2^40 ns ≈ 18 minutes.
const MAX_EXP: usize = 40;
const NUM_BUCKETS: usize = (MAX_EXP + 1) * SUBBUCKETS;

#[inline]
fn bucket_index(ns: u64) -> usize {
    if ns < SUBBUCKETS as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let exp = exp.min(MAX_EXP as u32);
    let shift = exp - SUBBUCKETS_BITS;
    let sub = ((ns >> shift) as usize) & (SUBBUCKETS - 1);
    (exp as usize - SUBBUCKETS_BITS as usize) * SUBBUCKETS + SUBBUCKETS + sub
}

#[inline]
fn bucket_value(idx: usize) -> u64 {
    if idx < SUBBUCKETS {
        return idx as u64;
    }
    let rel = idx - SUBBUCKETS;
    let exp = (rel / SUBBUCKETS) as u32 + SUBBUCKETS_BITS;
    let sub = (rel % SUBBUCKETS) as u64;
    (1u64 << exp) + (sub << (exp - SUBBUCKETS_BITS))
}

/// A log-linear latency histogram over nanosecond samples.
///
/// Relative error per sample is bounded by `1 / SUBBUCKETS` ≈ 3%, more
/// than enough to reproduce the paper's mean / P999 tables.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Record one latency sample.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record a raw nanosecond sample.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        let idx = bucket_index(ns).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the recorded samples in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Mean latency in microseconds, as the paper's Figure 10b reports.
    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1_000.0
    }

    /// The value at quantile `q ∈ [0, 1]` in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_value(idx)
                    .min(self.max_ns)
                    .max(self.min_ns.min(self.max_ns));
            }
        }
        self.max_ns
    }

    /// P999 in milliseconds — the paper's headline tail-latency metric.
    pub fn p999_ms(&self) -> f64 {
        self.quantile_ns(0.999) as f64 / 1_000_000.0
    }

    /// Fraction of samples at or below `limit` (for timeout accounting in
    /// Figure 12).
    pub fn fraction_within(&self, limit: Duration) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        let limit_ns = limit.as_nanos().min(u64::MAX as u128) as u64;
        let mut within = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if bucket_value(idx) <= limit_ns {
                within += c;
            } else {
                break;
            }
        }
        (within as f64 / self.count as f64).min(1.0)
    }

    /// Merge another histogram into this one (used to combine per-session
    /// client measurements).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Smallest recorded sample in nanoseconds (`u64::MAX` when empty).
    pub fn min_ns(&self) -> u64 {
        self.min_ns
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }
}

/// A lock-free, shareable variant of [`LatencyHistogram`]: identical
/// log-linear bucket layout, but every counter is an [`AtomicU64`] so
/// concurrent recorders (shard executors, the coordinator's unsafe
/// phase, callers applying on their own threads) can feed one
/// histogram through `&self` without a mutex on the hot path. The
/// counters are per-thread stripes ([`Striped`]): a recorder writes
/// only its own stripe's lines, and a reader merges the stripes into
/// one relaxed snapshot — quantiles are monitoring data, not a
/// linearizable view.
#[derive(Debug)]
pub struct AtomicHistogram {
    stripes: Striped<HistogramStripe>,
}

/// One thread slot's share of an [`AtomicHistogram`]. Its buckets are
/// allocated on the stripe's first sample: most histograms are fed by
/// one or two threads, and eight eager bucket arrays per histogram
/// would cost every server start their allocation and zeroing.
#[derive(Debug)]
struct HistogramStripe {
    buckets: OnceLock<Box<[AtomicU64]>>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            stripes: Striped::new(|| HistogramStripe {
                buckets: OnceLock::new(),
                count: AtomicU64::new(0),
                sum_ns: AtomicU64::new(0),
                min_ns: AtomicU64::new(u64::MAX),
                max_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Record one latency sample.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record a raw nanosecond sample into the calling thread's stripe.
    /// The extremes are read first and written only when the sample
    /// beats them, which after warm-up is almost never.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let s = self.stripes.local();
        let buckets = s
            .buckets
            .get_or_init(|| (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect());
        buckets[bucket_index(ns).min(NUM_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if ns < s.min_ns.load(Ordering::Relaxed) {
            s.min_ns.fetch_min(ns, Ordering::Relaxed);
        }
        if ns > s.max_ns.load(Ordering::Relaxed) {
            s.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// A point-in-time (relaxed) copy as a [`LatencyHistogram`], the
    /// stripes merged — the single implementation of quantiles/means/
    /// etc. serves both types, so the two histograms cannot drift
    /// apart.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for s in self.stripes.cells() {
            if let Some(buckets) = s.buckets.get() {
                for (total, b) in out.buckets.iter_mut().zip(buckets.iter()) {
                    *total += b.load(Ordering::Relaxed);
                }
            }
            out.count += s.count.load(Ordering::Relaxed);
            out.sum_ns += s.sum_ns.load(Ordering::Relaxed) as u128;
            out.min_ns = out.min_ns.min(s.min_ns.load(Ordering::Relaxed));
            out.max_ns = out.max_ns.max(s.max_ns.load(Ordering::Relaxed));
        }
        out
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.stripes
            .cells()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        self.snapshot().mean_ns()
    }

    /// The value at quantile `q ∈ [0, 1]` in nanoseconds, over a relaxed
    /// snapshot of the buckets.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.snapshot().quantile_ns(q)
    }

    /// Median (P50) in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.5)
    }

    /// P99 in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// P999 in nanoseconds — the paper's headline tail-latency metric.
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }

    /// Smallest recorded sample in nanoseconds (`u64::MAX` when empty).
    pub fn min_ns(&self) -> u64 {
        self.stripes
            .cells()
            .map(|s| s.min_ns.load(Ordering::Relaxed))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.stripes
            .cells()
            .map(|s| s.max_ns.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }
}

/// Throughput computed from an operation count and a wall-clock duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Operations per second.
    pub ops_per_sec: f64,
}

impl Throughput {
    /// Compute ops/s; zero-duration yields 0 to avoid infinities in
    /// harness output.
    pub fn new(ops: u64, elapsed: Duration) -> Self {
        let secs = elapsed.as_secs_f64();
        Throughput {
            ops_per_sec: if secs > 0.0 { ops as f64 / secs } else { 0.0 },
        }
    }

    /// Render like the paper's tables: `3.42M`, `989K`, `417`.
    pub fn display(&self) -> String {
        format_ops(self.ops_per_sec)
    }
}

/// Render a nanosecond figure for humans: `3.20ms`, `41.7us`, `180ns`.
///
/// The single display helper behind the CLI `stats` command, the serve
/// exit summary, and the replica lag summary (each used to hand-roll
/// this).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Format an operations-per-second figure the way the paper prints it.
pub fn format_ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.0}K", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Geometric mean of a slice of positive ratios (the paper aggregates
/// relative throughputs geometrically, §6.2/§6.3).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.quantile_ns(0.999), 0);
        assert_eq!(h.fraction_within(Duration::from_millis(20)), 1.0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record_ns(100);
        h.record_ns(300);
        assert_eq!(h.mean_ns(), 200.0);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn quantiles_are_approximately_right() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record_ns(i * 1_000); // 1us .. 10ms
        }
        let p50 = h.quantile_ns(0.5) as f64;
        let p999 = h.quantile_ns(0.999) as f64;
        assert!((p50 - 5_000_000.0).abs() / 5_000_000.0 < 0.05, "p50={p50}");
        assert!(
            (p999 - 9_990_000.0).abs() / 9_990_000.0 < 0.05,
            "p999={p999}"
        );
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUBBUCKETS as u64 {
            h.record_ns(v);
        }
        assert_eq!(h.quantile_ns(0.0), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), SUBBUCKETS as u64 - 1);
    }

    #[test]
    fn fraction_within_counts_correctly() {
        let mut h = LatencyHistogram::new();
        for _ in 0..999 {
            h.record(Duration::from_micros(10));
        }
        h.record(Duration::from_millis(100));
        let f = h.fraction_within(Duration::from_millis(20));
        assert!((f - 0.999).abs() < 1e-6, "f={f}");
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_ns(1_000);
        b.record_ns(2_000);
        b.record_ns(3_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean_ns(), 2_000.0);
        assert_eq!(a.max_ns(), 3_000);
        assert_eq!(a.min_ns(), 1_000);
    }

    #[test]
    fn atomic_histogram_matches_locked_quantiles() {
        let atomic = AtomicHistogram::new();
        let mut locked = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            atomic.record_ns(i * 1_000);
            locked.record_ns(i * 1_000);
        }
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(atomic.quantile_ns(q), locked.quantile_ns(q), "q={q}");
        }
        assert_eq!(atomic.count(), locked.count());
        assert_eq!(atomic.max_ns(), locked.max_ns());
        assert_eq!(atomic.min_ns(), locked.min_ns());
        assert_eq!(atomic.mean_ns(), locked.mean_ns());
    }

    #[test]
    fn atomic_histogram_concurrent_recording() {
        use std::sync::Arc;
        let h = Arc::new(AtomicHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record_ns(1_000 + t * 250 + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.count(), 4_000);
        assert!(h.p50_ns() >= 1_000 && h.p999_ns() <= 3_000, "bad quantiles");
    }

    /// Four threads feed one striped histogram; its merged snapshot is
    /// the histogram that one recorder fed the same samples would hold.
    #[test]
    fn striped_snapshot_equals_one_histogram_fed_the_same_samples() {
        let samples =
            |t: u64| (0..2_000u64).map(move |i| (t * 7_919 + i * 104_729) % 50_000_000 + t);
        let striped = AtomicHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let striped = &striped;
                scope.spawn(move || samples(t).for_each(|ns| striped.record_ns(ns)));
            }
        });
        let mut one = LatencyHistogram::new();
        (0..4).flat_map(samples).for_each(|ns| one.record_ns(ns));
        let merged = striped.snapshot();
        assert_eq!(merged.buckets, one.buckets, "bucket for bucket");
        assert_eq!(merged.count, one.count);
        assert_eq!(merged.sum_ns, one.sum_ns);
        assert_eq!(merged.min_ns, one.min_ns);
        assert_eq!(merged.max_ns, one.max_ns);
        assert_eq!(striped.count(), one.count());
        assert_eq!(striped.min_ns(), one.min_ns());
        assert_eq!(striped.max_ns(), one.max_ns());
    }

    #[test]
    fn atomic_histogram_empty() {
        let h = AtomicHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.p999_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn throughput_formats_like_paper() {
        assert_eq!(
            Throughput::new(3_420_000, Duration::from_secs(1)).display(),
            "3.42M"
        );
        assert_eq!(
            Throughput::new(989_000, Duration::from_secs(1)).display(),
            "989K"
        );
        assert_eq!(
            Throughput::new(417, Duration::from_secs(1)).display(),
            "417"
        );
        assert_eq!(Throughput::new(100, Duration::ZERO).ops_per_sec, 0.0);
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        let g = geometric_mean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn bucket_roundtrip_error_bounded() {
        for ns in [1u64, 63, 64, 1_000, 123_456, 19_999_999, 1_000_000_000] {
            let idx = bucket_index(ns);
            let back = bucket_value(idx);
            let err = (back as f64 - ns as f64).abs() / ns as f64;
            assert!(err <= 1.0 / 32.0 + 1e-9, "ns={ns} back={back} err={err}");
        }
    }
}
