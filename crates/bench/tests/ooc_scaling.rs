//! OOC shard-scaling smoke test: the mmap-backed store's safe phase
//! must scale with shard executors. Ignored by default (wall-clock
//! measurement); the slow CI job runs it with
//! `cargo test --release -- --ignored`.

use std::sync::Arc;

use risgraph_algorithms::Bfs;
use risgraph_bench::drivers::measure_shard_scaling;
use risgraph_core::engine::DynAlgorithm;
use risgraph_core::server::ServerConfig;
use risgraph_storage::BackendKind;
use risgraph_testkit::{ooc_mmap_backend, remove_ooc_files, safe_churn};
use risgraph_workloads::rmat::RmatConfig;

fn throughput_at(
    backend: BackendKind,
    shards: usize,
    preload: &[(u64, u64, u64)],
    streams: &[Vec<risgraph_common::ids::Update>],
    capacity: usize,
) -> f64 {
    let mut base = ServerConfig {
        backend,
        enable_history: false,
        ..ServerConfig::default()
    };
    base.engine.threads = 1;
    measure_shard_scaling(
        || vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
        preload,
        streams,
        capacity,
        &base,
        &[shards],
    )
    .remove(0)
    .1
    .throughput
}

/// `ooc-mmap` at 4 shards must beat its own serial coordinator on a
/// multi-core box (the striped locks actually admit concurrency). On
/// starved boxes the assertion degrades to a collapse guard, like
/// `shard_scaling`'s smoke test.
#[test]
#[ignore = "wall-clock measurement; run via `cargo test --release -- --ignored`"]
fn mmap_ooc_safe_phase_scales_with_shards() {
    let cfg = RmatConfig {
        scale: 11,
        edge_factor: 8.0,
        ..RmatConfig::default()
    };
    let preload = cfg.generate();
    let session_streams: Vec<Vec<_>> = (0..16)
        .map(|s| safe_churn(&preload, 800, 7 + s as u64))
        .collect();

    let (mmap1, p1) = ooc_mmap_backend("ooc-scaling-test-m1");
    let (mmap4, p2) = ooc_mmap_backend("ooc-scaling-test-m4");
    let serial = throughput_at(mmap1, 1, &preload, &session_streams, cfg.num_vertices());
    let sharded = throughput_at(mmap4, 4, &preload, &session_streams, cfg.num_vertices());
    for p in [p1, p2] {
        remove_ooc_files(&p);
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("ooc-mmap: 1 shard {serial:.0}/s, 4 shards {sharded:.0}/s ({cores} cores)");
    if cores >= 8 {
        assert!(
            sharded > serial * 1.2,
            "ooc-mmap 4 shards ({sharded:.0}/s) should beat its serial \
             coordinator ({serial:.0}/s) by ≥1.2x on {cores} cores"
        );
    } else {
        assert!(
            sharded > serial * 0.4,
            "sharding collapsed ooc-mmap throughput on a {cores}-core box"
        );
    }
}
