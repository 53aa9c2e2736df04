//! Criterion micro-benchmarks for the history store (versioned reads,
//! record, GC) and the write-ahead log (append + group commit).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use risgraph_common::ids::{Edge, Update};
use risgraph_core::engine::ChangeRecord;
use risgraph_core::history::HistoryStore;
use risgraph_core::wal::{replay, WalWriter};

fn change(v: u64, version: u64) -> ChangeRecord {
    ChangeRecord {
        vertex: v,
        old: version,
        new: version + 1,
        old_parent: None,
        new_parent: Some(Edge::new(0, v, 0)),
    }
}

fn bench_history(c: &mut Criterion) {
    let mut group = c.benchmark_group("history");
    group.bench_function("record_4_changes", |b| {
        b.iter_batched(
            || HistoryStore::new(4096),
            |mut h| {
                for version in 1..=256u64 {
                    let recs: Vec<ChangeRecord> = (0..4)
                        .map(|i| change(version % 1024 + i * 1024, version))
                        .collect();
                    h.record(version, &recs);
                }
                h
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("value_at_deep_chain", |b| {
        let mut h = HistoryStore::new(16);
        for version in 1..=10_000u64 {
            h.record(version, &[change(7, version)]);
        }
        b.iter(|| {
            let mut acc = 0u64;
            for q in (1..10_000u64).step_by(37) {
                acc = acc.wrapping_add(h.value_at(q, 7, 0).unwrap());
            }
            acc
        })
    });
    group.bench_function("gc_then_record", |b| {
        b.iter_batched(
            || {
                let mut h = HistoryStore::new(64);
                for version in 1..=4096u64 {
                    h.record(version, &[change(version % 64, version)]);
                }
                h
            },
            |mut h| {
                h.collect(4000);
                for version in 4097..=4160u64 {
                    h.record(version, &[change(version % 64, version)]);
                }
                h
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_wal(c: &mut Criterion) {
    let dir = std::env::temp_dir().join("risgraph-bench-wal-crit");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("bench-{}.wal", std::process::id()));

    let mut group = c.benchmark_group("wal");
    group.sample_size(20);
    group.bench_function("append_256_then_group_commit", |b| {
        b.iter_batched(
            || {
                let _ = std::fs::remove_file(&path);
                WalWriter::open(&path).unwrap()
            },
            |mut w| {
                for i in 0..256u64 {
                    w.append(&[Update::InsEdge(Edge::new(i, i + 1, 0))])
                        .unwrap();
                }
                w.sync().unwrap();
                w
            },
            BatchSize::PerIteration,
        )
    });
    group.bench_function("replay_4k_records", |b| {
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path).unwrap();
        for i in 0..4096u64 {
            w.append(&[Update::InsEdge(Edge::new(i, i + 1, 0))])
                .unwrap();
        }
        w.sync().unwrap();
        b.iter(|| replay(&path).unwrap().len())
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_history, bench_wal
}
criterion_main!(benches);
