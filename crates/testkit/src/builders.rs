//! Engine/server construction helpers over any storage backend.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use risgraph_core::engine::{DynAlgorithm, Engine, EngineConfig};
use risgraph_core::server::ServerConfig;
use risgraph_storage::{AnyStore, BackendKind, StoreConfig};

/// A unique scratch path under the system temp dir. Unique per process
/// *and* per call, so parallel tests never collide.
pub fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("risgraph-testkit");
    std::fs::create_dir_all(&dir).expect("create testkit temp dir");
    dir.join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// An mmap-backed OOC backend over a fresh scratch file; returns the
/// path so the test can remove it (and its `.dir` sidecar) when done.
pub fn ooc_mmap_backend(tag: &str) -> (BackendKind, PathBuf) {
    let path = temp_path(&format!("{tag}.blocks"));
    (
        BackendKind::OocMmap {
            path: Some(path.clone()),
        },
        path,
    )
}

/// Remove an OOC scratch file and any chain-directory sidecar next to
/// it (best-effort; missing files are fine).
pub fn remove_ooc_files(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut sidecar = path.as_os_str().to_owned();
    sidecar.push(".dir");
    let _ = std::fs::remove_file(PathBuf::from(sidecar));
}

/// Remove a WAL and all its on-disk companions: the manifest at
/// `base`, the checkpoint snapshot, and every `<base>.seg-*` segment
/// (best-effort; missing files are fine). Tests must use this rather
/// than `remove_file(base)` — deleting only the manifest would leave
/// stale segments for a path-colliding later run to replay.
pub fn remove_wal(base: &std::path::Path) {
    let _ = std::fs::remove_file(base);
    let (Some(dir), Some(name)) = (base.parent(), base.file_name().and_then(|n| n.to_str())) else {
        return;
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let file = entry.file_name();
        let Some(file) = file.to_str() else { continue };
        let Some(suffix) = file.strip_prefix(name) else {
            continue;
        };
        if suffix.starts_with(".seg-") || suffix == ".snapshot" {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// A [`ServerConfig`] pinned for differential testing: the requested
/// backend and shard count, and **one** engine worker thread so
/// intra-update propagation is deterministic (parallel propagation can
/// pick different — equally valid — dependency-tree parents between
/// runs, which would make change records incomparable across servers).
pub fn server_config(backend: BackendKind, shards: usize) -> ServerConfig {
    ServerConfig {
        backend,
        shards,
        engine: EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// Stand up a loopback [`risgraph_net::NetServer`] (ephemeral port) over
/// the given algorithms/capacity/config — the network-side twin of
/// starting a [`risgraph_core::server::Server`] directly. Read the
/// actual address back via `local_addr()`.
pub fn loopback_net_server(
    algorithms: Vec<DynAlgorithm>,
    capacity: usize,
    config: ServerConfig,
) -> risgraph_net::NetServer {
    loopback_net_server_with(
        algorithms,
        capacity,
        config,
        risgraph_net::NetConfig::default(),
    )
}

/// [`loopback_net_server`] with explicit network-tier tuning (worker
/// count, timeouts, window, session cap) for tests that exercise those
/// knobs.
pub fn loopback_net_server_with(
    algorithms: Vec<DynAlgorithm>,
    capacity: usize,
    config: ServerConfig,
    net: risgraph_net::NetConfig,
) -> risgraph_net::NetServer {
    risgraph_net::NetServer::start(algorithms, capacity, config, net).expect("loopback net server")
}

/// Build an engine over a runtime-selected storage backend (shared with
/// the bench drivers).
pub fn engine_on(
    kind: &BackendKind,
    algorithms: Vec<DynAlgorithm>,
    capacity: usize,
    config: EngineConfig,
) -> Engine<AnyStore> {
    let store = AnyStore::open(
        kind,
        capacity,
        StoreConfig {
            index_threshold: config.index_threshold,
            auto_create_vertices: true,
        },
    )
    .expect("backend open");
    Engine::from_store(store, algorithms, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_paths_are_unique() {
        assert_ne!(temp_path("a"), temp_path("a"));
    }
}
