//! Property tests for the metrics registry and the epoch tracer.
//!
//! The registry's whole contract is that registration, updates, and
//! snapshots may race freely: any thread may `counter(name)` a name any
//! other thread is registering, updating, or snapshotting at that
//! instant. These properties drive randomized thread/op/name-collision
//! mixes through that surface and check conservation — every increment
//! lands exactly once, every registered name appears exactly once —
//! rather than any particular interleaving. Counters and histograms are
//! per-thread stripes, so conservation also checks that the stripes
//! fold back together: counts and sums add up, extremes survive.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use risgraph_common::metrics::{EpochTracer, MetricValue, Registry, PHASE_COUNT};

proptest! {
    // Each case spins up real threads, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent registration/update/snapshot: with `threads` writers
    /// hammering a shared name space (collisions guaranteed) plus
    /// thread-private names, interleaved with snapshots, the final
    /// snapshot conserves every increment and lists every name once,
    /// and the shared histogram's merged stripes hold every sample:
    /// its count, sum, min and max.
    #[test]
    fn concurrent_registration_conserves_all_updates(
        threads in 1..6usize,
        ops in 1..200u64,
        shared_names in 1..8usize,
        own_names in 1..5usize,
        snapshot_every in 1..64u64,
    ) {
        let r = Arc::new(Registry::new());
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..ops {
                        r.counter(&format!("shared.{}", i % shared_names as u64))
                            .fetch_add(1, Ordering::Relaxed);
                        r.counter(&format!("own.{t}.{}", i % own_names as u64))
                            .fetch_add(1, Ordering::Relaxed);
                        // Gauges and histograms race through the same
                        // get-or-create path as counters.
                        r.gauge(&format!("gauge.{}", i % shared_names as u64))
                            .store(i, Ordering::Relaxed);
                        r.histogram("hist.shared").record_ns(i + 1);
                        if i % snapshot_every == 0 {
                            // Mid-run snapshots must see a prefix-
                            // consistent list, never tear or panic.
                            let snap = r.snapshot();
                            prop_assert!(snap.len() <= shared_names * 2 + threads * own_names + 1);
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap()?;
        }

        let snap = r.snapshot();
        // Every name exactly once (snapshot is sorted, so adjacent
        // duplicates would sit next to each other).
        for pair in snap.windows(2) {
            prop_assert!(pair[0].0 != pair[1].0, "duplicate name {}", pair[0].0);
        }
        let count_of = |prefix: &str| -> u64 {
            snap.iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .map(|(_, v)| match v {
                    MetricValue::Counter(c) => *c,
                    _ => 0,
                })
                .sum()
        };
        let total = threads as u64 * ops;
        prop_assert_eq!(count_of("shared."), total);
        prop_assert_eq!(count_of("own."), total);
        let hist_count = snap.iter().find_map(|(n, v)| match v {
            MetricValue::Histogram(h) if n == "hist.shared" => Some(h.count),
            _ => None,
        });
        prop_assert_eq!(hist_count, Some(total));
        // Every thread recorded 1..=ops once.
        let hist = r.histogram("hist.shared").snapshot();
        prop_assert_eq!(hist.sum_ns(), threads as u128 * (ops as u128 * (ops as u128 + 1) / 2));
        prop_assert_eq!(hist.min_ns(), 1);
        prop_assert_eq!(hist.max_ns(), ops);
    }

    /// Ring wraparound keeps exactly the newest spans for any ring
    /// size and any number of recorded epochs, newest first.
    #[test]
    fn wraparound_keeps_the_newest_spans(
        slots_pow in 0..6u32,
        epochs in 1..200u64,
    ) {
        let slots = 1usize << slots_pow;
        let r = Registry::new();
        let tracer = EpochTracer::with_capacity(Duration::from_secs(3600), &r, slots, slots);
        for e in 1..=epochs {
            let mut phase_ns = [0u64; PHASE_COUNT];
            phase_ns[(e % PHASE_COUNT as u64) as usize] = e;
            tracer.record(e, &phase_ns);
        }
        let recent = tracer.recent(usize::MAX);
        prop_assert_eq!(recent.len(), slots.min(epochs as usize));
        for (i, trace) in recent.iter().enumerate() {
            prop_assert_eq!(trace.epoch, epochs - i as u64);
            prop_assert_eq!(trace.total_ns, trace.epoch);
            prop_assert!(!trace.flagged);
        }
    }

    /// Flagging triggers exactly at the configured threshold: an epoch
    /// is flagged iff its total meets it, for arbitrary phase splits.
    #[test]
    fn flagging_is_exact_at_the_threshold(
        threshold_ns in 1..5_000_000u64,
        spans in proptest::collection::vec((0..PHASE_COUNT, 0..4_000_000u64), 1..40),
    ) {
        let r = Registry::new();
        let tracer =
            EpochTracer::with_capacity(Duration::from_nanos(threshold_ns), &r, 64, 64);
        let mut expect_flagged = Vec::new();
        for (e, &(phase, ns)) in spans.iter().enumerate() {
            let mut phase_ns = [0u64; PHASE_COUNT];
            phase_ns[phase] = ns;
            tracer.record(e as u64 + 1, &phase_ns);
            if ns >= threshold_ns {
                expect_flagged.push(e as u64 + 1);
            }
        }
        let flagged = tracer.flagged(usize::MAX);
        let mut got: Vec<u64> = flagged.iter().map(|t| t.epoch).collect();
        got.reverse(); // newest-first → recording order
        prop_assert_eq!(got, expect_flagged);
        prop_assert!(flagged.iter().all(|t| t.flagged && t.total_ns >= threshold_ns));
    }
}
