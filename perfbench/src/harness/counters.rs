//! Per-layer numbers from the counters the program already exports
//! (`Server::metrics()`), read over the measured interval of the traced
//! re-run: counters and histogram sums as the delta between a snapshot
//! at interval start and one at interval end, gauges sampled at 10 Hz.
//!
//! The server runs in this process, so the live registry handles are
//! read directly: the wire's `METRICS` digest carries quantiles but not
//! the histogram sum that a busy share needs. Quantiles
//! (`core.epoch.total_p99_us`) cannot be subtracted and are cumulative
//! since server start.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use risgraph_common::metrics::{Phase, Registry};

use super::layers::Row;

const COUNTERS: [&str; 10] = [
    "epoch.traced",
    "core.safe_executed",
    "core.unsafe_executed",
    "core.demotions",
    "core.unsafe_serial_fallbacks",
    "net.admission.admitted",
    "net.admission.shed_budget",
    "net.admission.shed_quota",
    "net.admission.shed_overload",
    "wal.checkpoints",
];

/// Names the benchmark reads that the program has not registered. The
/// lookups below get-or-create, so a metric a later change renames
/// would read 0 for ever; checked against the registry's own listing
/// right after set-up, before any of those lookups. The net tier
/// registers its counters only when there is one, the WAL its gauge
/// only when it is on.
pub fn missing(registry: &Registry, over_tcp: bool, wal: bool) -> Vec<String> {
    let registered: Vec<String> = registry.snapshot().into_iter().map(|(n, _)| n).collect();
    let phases = Phase::ALL
        .iter()
        .map(|p| format!("epoch.phase.{}_ns", p.name()));
    COUNTERS
        .iter()
        .map(|c| c.to_string())
        .chain(phases)
        .chain(["epoch.total_ns", "net.admission.inflight"].map(String::from))
        .filter(|n| over_tcp || !n.starts_with("net."))
        .chain(wal.then(|| "wal.segment_lag".to_string()))
        .filter(|n| !registered.contains(n))
        .collect()
}

/// Counter values and per-phase histogram sums at one instant.
#[derive(Debug, Clone)]
pub struct Snapshot {
    at: Instant,
    counters: [u64; COUNTERS.len()],
    phase_sum_ns: [f64; Phase::ALL.len()],
    phase_count: [u64; Phase::ALL.len()],
    /// Sum and count of `epoch.total_ns`.
    total_sum_ns: f64,
    total_count: u64,
}

/// Read the registry now. Get-or-create lookups: a cell the server
/// never registered (the net tier's, on an in-process run) reads 0.
pub fn snapshot(registry: &Registry) -> Snapshot {
    let mut counters = [0u64; COUNTERS.len()];
    for (slot, name) in counters.iter_mut().zip(COUNTERS) {
        *slot = registry.counter(name).load(Ordering::Relaxed);
    }
    let mut phase_sum_ns = [0f64; Phase::ALL.len()];
    let mut phase_count = [0u64; Phase::ALL.len()];
    for (i, phase) in Phase::ALL.iter().enumerate() {
        let h = registry
            .histogram(&format!("epoch.phase.{}_ns", phase.name()))
            .snapshot();
        phase_sum_ns[i] = h.mean_ns() * h.count() as f64;
        phase_count[i] = h.count();
    }
    let total = registry.histogram("epoch.total_ns").snapshot();
    Snapshot {
        at: Instant::now(),
        counters,
        phase_sum_ns,
        phase_count,
        total_sum_ns: total.mean_ns() * total.count() as f64,
        total_count: total.count(),
    }
}

/// Maxima of the sampled gauges.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaugeMaxima {
    pub inflight_max: u64,
    pub segment_lag_max: u64,
}

/// Sample the gauges every 100 ms until `stop` is set.
pub fn sample_gauges(registry: &Registry, stop: &AtomicBool) -> GaugeMaxima {
    let inflight = registry.gauge("net.admission.inflight");
    let lag = registry.gauge("wal.segment_lag");
    let mut max = GaugeMaxima::default();
    while !stop.load(Ordering::Acquire) {
        max.inflight_max = max.inflight_max.max(inflight.load(Ordering::Relaxed));
        max.segment_lag_max = max.segment_lag_max.max(lag.load(Ordering::Relaxed));
        std::thread::sleep(Duration::from_millis(100));
    }
    max
}

/// The per-layer metrics of source (b), as `(name, value, unit)`.
/// `client_p50_us` is the traced run's client-observed update P50, the
/// denominator of `reconcile.accounted_frac`.
pub fn derive(
    start: &Snapshot,
    end: &Snapshot,
    gauges: GaugeMaxima,
    client_p50_us: f64,
) -> Vec<Row> {
    let wall_ns = (end.at - start.at).as_nanos() as f64;
    let delta = |name: &str| -> f64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("known counter");
        (end.counters[i] - start.counters[i]) as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let epochs = delta("epoch.traced");
    let executed = delta("core.safe_executed") + delta("core.unsafe_executed");
    let shed = delta("net.admission.shed_budget")
        + delta("net.admission.shed_quota")
        + delta("net.admission.shed_overload");

    let n = executed as u64;
    let mut out = vec![
        Row::new(
            "core.server.updates_per_epoch",
            ratio(executed, epochs),
            "count",
            n,
        ),
        Row::new(
            "core.server.epochs_per_s",
            epochs / (wall_ns / 1e9),
            "1/s",
            n,
        ),
        Row::new(
            "core.server.unsafe_frac",
            ratio(delta("core.unsafe_executed"), executed),
            "ratio",
            n,
        ),
        Row::new(
            "core.server.demotion_frac",
            ratio(delta("core.demotions"), executed),
            "ratio",
            n,
        ),
        Row::new(
            "core.server.unsafe_serial_fallback_frac",
            ratio(delta("core.unsafe_serial_fallbacks"), epochs),
            "ratio",
            n,
        ),
    ];
    // Busy share of wall time per tracer phase; and, for the
    // reconciliation, what the spans say one request waits for: the
    // mean of every coordinator phase per traced epoch (a request rides
    // a whole epoch) plus one mean reactor drain.
    let mut accounted_ns = 0.0;
    for (i, phase) in Phase::ALL.iter().enumerate() {
        let busy_ns = end.phase_sum_ns[i] - start.phase_sum_ns[i];
        let name = match phase {
            Phase::ReactorDrain => "net.reactor_drain_busy_frac".to_string(),
            p => format!("core.epoch.{}_busy_frac", p.name()),
        };
        out.push(Row::new(name, busy_ns / wall_ns, "ratio", n));
        accounted_ns += match phase {
            Phase::ReactorDrain => {
                ratio(busy_ns, (end.phase_count[i] - start.phase_count[i]) as f64)
            }
            _ => ratio(busy_ns, epochs),
        };
    }
    let traced_epochs = end.total_count - start.total_count;
    out.push(Row::new(
        "core.epoch.total_mean_us",
        ratio(end.total_sum_ns - start.total_sum_ns, traced_epochs as f64) / 1e3,
        "us",
        traced_epochs,
    ));
    out.push(Row::new(
        "net.admission.shed_frac",
        ratio(shed, shed + delta("net.admission.admitted")),
        "ratio",
        n,
    ));
    out.push(Row::new(
        "net.admission.inflight_max",
        gauges.inflight_max as f64,
        "count",
        1,
    ));
    out.push(Row::new(
        "wal.checkpoints",
        delta("wal.checkpoints"),
        "count",
        1,
    ));
    out.push(Row::new(
        "wal.segment_lag_max",
        gauges.segment_lag_max as f64,
        "count",
        1,
    ));
    // Reported, not asserted: gather/classify, queue wait and reply
    // delivery have no span yet, so this sits below 0.9 until spans
    // inside the program exist.
    out.push(Row::new(
        "reconcile.accounted_frac",
        ratio(accounted_ns / 1e3, client_p50_us),
        "ratio",
        n,
    ));
    out
}

/// P99 of a traced epoch since server start — printed beside the list
/// above: the program's histogram is log-bucketed, so the figure is a
/// bucket boundary and reads exactly the same on most runs, which a
/// timing metric of the contract must not. Quantiles cannot be
/// subtracted, so it is cumulative, warm-up included.
pub fn epoch_total_p99_us(registry: &Registry) -> Row {
    let total = registry.histogram("epoch.total_ns").snapshot();
    Row::new(
        "core.epoch.total_p99_us",
        total.quantile_ns(0.99) as f64 / 1e3,
        "us",
        total.count(),
    )
}

/// The worst checkpoint pause seen since server start, ms — printed
/// beside the list above by the one workload with a WAL.
pub fn wal_checkpoint_max_ms(registry: &Registry) -> f64 {
    let h = registry
        .histogram(&format!("epoch.phase.{}_ns", Phase::WalCheckpoint.name()))
        .snapshot();
    if h.count() == 0 {
        0.0
    } else {
        h.max_ns() as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_the_program_does_not_register_is_reported_not_created() {
        let registry = Registry::new();
        let all = missing(&registry, true, true);
        assert!(all.contains(&"core.safe_executed".to_string()));
        assert!(all.contains(&"wal.segment_lag".to_string()));
        assert_eq!(
            missing(&registry, true, true),
            all,
            "the check registered something"
        );
        assert!(missing(&registry, false, false)
            .iter()
            .all(|n| !n.starts_with("net.") && n != "wal.segment_lag"));
        registry.counter("core.safe_executed");
        assert!(!missing(&registry, true, true).contains(&"core.safe_executed".to_string()));
    }
}
