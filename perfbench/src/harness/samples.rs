//! The benchmark's own sample buffers and statistics.
//!
//! Exact per-slice latency vectors, not `common::stats::LatencyHistogram`:
//! the ruler must not live in the code under test. A run is a warm-up
//! followed by a measured interval cut into equal slices; every timing
//! metric is the **median over the slices of the per-slice percentile**,
//! so one scheduler hiccup moves one slice, not the result.

use std::time::{Duration, Instant};

/// The paper's per-update latency limit (§6.1): 20 ms.
pub const LIMIT_NS: u64 = 20_000_000;

/// Samples that must lie beyond a percentile, in every slice, for it
/// to be reported (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Warm-up plus `slices` measured slices of equal length.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub slice: Duration,
    pub slices: usize,
}

impl Plan {
    /// The plan of one of `instances` server instances that share a
    /// run's `seconds` of measurement. One instance: 1.5 s warm-up and
    /// four slices. Several: 1 s warm-up and two slices each, pooled by
    /// the caller ([`Recorder::append_slices`]). `quick` is the
    /// contract test's shape: 2 s in all, whatever `seconds` says.
    pub fn new(seconds: f64, instances: usize, quick: bool) -> Plan {
        let (seconds, warmup_ms) = match (quick, instances) {
            (true, _) => (2.0, 200),
            (false, 1) => (seconds, 1500),
            (false, _) => (seconds, 1000),
        };
        let slices = if instances == 1 { 4 } else { 2 };
        Plan {
            warmup: Duration::from_millis(warmup_ms),
            slice: Duration::from_secs_f64(seconds / (instances * slices) as f64),
            slices,
        }
    }

    pub fn measured(&self) -> Duration {
        self.slice * self.slices as u32
    }
}

/// Maps instants to slices. Shared (by reference) by every load
/// generating thread of a run; created when they are all ready.
#[derive(Debug, Clone, Copy)]
pub struct SliceClock {
    start: Instant,
    plan: Plan,
}

impl SliceClock {
    pub fn start(plan: Plan) -> SliceClock {
        SliceClock {
            start: Instant::now(),
            plan,
        }
    }

    /// First instant of the measured interval.
    pub fn measure_start(&self) -> Instant {
        self.start + self.plan.warmup
    }

    /// End of the measured interval.
    pub fn end(&self) -> Instant {
        self.measure_start() + self.plan.measured()
    }

    pub fn done(&self, now: Instant) -> bool {
        now >= self.end()
    }

    pub fn plan(&self) -> Plan {
        self.plan
    }

    /// The slice `t` falls in; `None` during warm-up and after the end.
    pub fn slice_of(&self, t: Instant) -> Option<usize> {
        let since = t.checked_duration_since(self.measure_start())?;
        let idx = (since.as_nanos() / self.plan.slice.as_nanos()) as usize;
        (idx < self.plan.slices).then_some(idx)
    }
}

/// How one request ended, as the load generator saw it. The generator
/// counts these; it never `expect()`s on a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Shed by admission control (`BUSY`).
    Busy,
    /// Any other error reply, or a transport failure.
    Error,
}

/// One thread's record of one kind of operation. A request belongs to
/// the slice its reply arrived in; replies outside the measured
/// interval (warm-up, drain tail) are dropped.
#[derive(Debug, Clone)]
pub struct Recorder {
    /// OK latencies per slice, nanoseconds.
    ok_ns: Vec<Vec<u64>>,
    busy: u64,
    errors: u64,
    within_limit: u64,
}

impl Recorder {
    pub fn new(plan: Plan) -> Recorder {
        Recorder {
            ok_ns: vec![Vec::new(); plan.slices],
            busy: 0,
            errors: 0,
            within_limit: 0,
        }
    }

    /// Record a reply that arrived at `done` after `latency_ns`.
    #[inline]
    pub fn record(&mut self, clock: &SliceClock, done: Instant, latency_ns: u64, outcome: Outcome) {
        let Some(slice) = clock.slice_of(done) else {
            return;
        };
        match outcome {
            Outcome::Ok => {
                self.ok_ns[slice].push(latency_ns);
                if latency_ns <= LIMIT_NS {
                    self.within_limit += 1;
                }
            }
            Outcome::Busy => self.busy += 1,
            Outcome::Error => self.errors += 1,
        }
    }

    pub fn merge(&mut self, other: Recorder) {
        for (mine, theirs) in self.ok_ns.iter_mut().zip(other.ok_ns) {
            mine.extend(theirs);
        }
        self.busy += other.busy;
        self.errors += other.errors;
        self.within_limit += other.within_limit;
    }

    /// Add `other`'s slices after this recorder's own: the slices of
    /// several server instances, pooled into one set to take medians
    /// over.
    pub fn append_slices(&mut self, other: Recorder) {
        self.ok_ns.extend(other.ok_ns);
        self.busy += other.busy;
        self.errors += other.errors;
        self.within_limit += other.within_limit;
    }

    /// Requests that ended (any outcome) inside the measured interval.
    pub fn attempted(&self) -> u64 {
        self.ok() + self.failed()
    }

    pub fn ok(&self) -> u64 {
        self.ok_ns.iter().map(|s| s.len() as u64).sum()
    }

    /// Every OK sample of the measured interval, ns, in no particular
    /// order (the contract test looks at individual latencies).
    pub fn ok_samples(&self) -> impl Iterator<Item = u64> + '_ {
        self.ok_ns.iter().flatten().copied()
    }

    /// Errors + `BUSY` sheds.
    pub fn failed(&self) -> u64 {
        self.busy + self.errors
    }

    /// Digest the buffers. `slice` is the plan's slice length.
    pub fn summarize(mut self, slice: Duration) -> Summary {
        for s in &mut self.ok_ns {
            s.sort_unstable();
        }
        let min_n = self.ok_ns.iter().map(Vec::len).min().unwrap_or(0);
        // The highest of P999/P99/P90/P50 that has MIN_BEYOND samples
        // beyond it in *every* slice stands in for the tail.
        let (tail_q, tail_name) = [(0.999, "p999"), (0.99, "p99"), (0.9, "p90")]
            .into_iter()
            .find(|&(q, _)| beyond(min_n, q) >= MIN_BEYOND)
            .unwrap_or((0.5, "p50"));
        let p99_q = if beyond(min_n, 0.99) >= MIN_BEYOND {
            0.99
        } else {
            tail_q.min(0.99)
        };
        let per_slice =
            |q: f64| -> f64 { median(self.ok_ns.iter().map(|s| percentile(s, q)).collect()) / 1e3 };
        let rates: Vec<f64> = self
            .ok_ns
            .iter()
            .map(|s| s.len() as f64 / slice.as_secs_f64())
            .collect();
        let attempted = self.attempted();
        Summary {
            slice_ops_s: rates.clone(),
            ops_s: median(rates),
            p50_us: per_slice(0.5),
            p99_us: per_slice(p99_q),
            tail_us: per_slice(tail_q),
            tail_name,
            within_limit_frac: if attempted == 0 {
                0.0
            } else {
                self.within_limit as f64 / attempted as f64
            },
            samples_per_slice: min_n as u64,
            supports_p99: p99_q == 0.99,
            attempted,
            failed: self.failed(),
        }
    }
}

/// Samples strictly beyond quantile `q` of `n` sorted samples.
fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q) - 1
    }
}

/// Nearest-rank index of quantile `q` among `n ≥ 1` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of a sorted slice (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[rank(sorted.len(), q)] as f64
    }
}

/// Median of unsorted values (mean of the middle two when even; 0 when
/// empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the same method as Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance procedure computes spreads with. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| -> f64 {
        // position k·(n+1)/4, 1-based, clamped into the data
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// What a [`Recorder`] boils down to.
#[derive(Debug, Clone)]
pub struct Summary {
    /// OK replies per second of slice, per slice.
    pub slice_ops_s: Vec<f64>,
    /// Median of `slice_ops_s`.
    pub ops_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// The tail percentile named by `tail_name`.
    pub tail_us: f64,
    /// `"p999"` unless too few samples supported it.
    pub tail_name: &'static str,
    /// OK within [`LIMIT_NS`] ÷ attempted (failures count as misses).
    pub within_limit_frac: f64,
    /// Smallest per-slice OK sample count.
    pub samples_per_slice: u64,
    /// Whether `p99_us` is really P99 (else it is the tail's fallback).
    pub supports_p99: bool,
    pub attempted: u64,
    pub failed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 0.999), 999.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(1000, 0.999), 1);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
    }

    #[test]
    fn tail_falls_back_when_samples_are_few() {
        let plan = Plan {
            warmup: Duration::ZERO,
            slice: Duration::from_millis(10),
            slices: 2,
        };
        let clock = SliceClock::start(plan);
        let mut r = Recorder::new(plan);
        for slice in 0..2u32 {
            let at = clock.measure_start() + plan.slice * slice + Duration::from_millis(1);
            for i in 0..2000u64 {
                r.record(&clock, at, i, Outcome::Ok);
            }
        }
        r.record(&clock, clock.measure_start(), 0, Outcome::Busy);
        let s = r.summarize(plan.slice);
        assert_eq!(s.tail_name, "p99"); // 2000 samples leave 1 beyond P999
        assert_eq!(s.samples_per_slice, 2000);
        assert_eq!((s.attempted, s.failed), (4001, 1));
        assert!(s.within_limit_frac < 1.0);
    }
}
