//! The versioned result store both serving sides answer from: the
//! engine, one undo [`HistoryStore`] per algorithm, the version counter
//! and the read gate, plus the operations the leader's
//! [`Server`](crate::server::Server) and the follower's
//! [`Replica`](crate::replication::Replica) both perform on them — the
//! point-in-time reads of Table 1 (§5's versioned history), the commit
//! of one version group, the growth ceiling and the structure-only batch
//! load. Each side holds one [`Versioned`]; a `get_value` /
//! `get_parent` / `get_modified_vertices` answer is the same function
//! whoever serves it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use risgraph_common::ids::{Edge, Update, VersionId, VertexId};
use risgraph_common::{Error, Result};
use risgraph_storage::{AnyStore, BackendKind, StoreConfig};

use crate::engine::{ChangeSet, DynAlgorithm, Engine, EngineConfig};
use crate::history::HistoryStore;
use crate::tree::Value;

/// One past the highest vertex id `updates` touch (0 when there are
/// none) — the capacity the engine must have before applying them.
pub(crate) fn vertex_bound<'a>(updates: impl IntoIterator<Item = &'a Update>) -> u64 {
    updates
        .into_iter()
        .map(|u| match u {
            Update::InsEdge(e) | Update::DelEdge(e) => e.src.max(e.dst),
            Update::InsVertex(v) | Update::DelVertex(v) => *v,
        })
        .max()
        .map_or(0, |v| v.saturating_add(1))
}

/// One empty history per algorithm over `capacity` vertices.
fn empty_histories(algorithms: usize, capacity: usize) -> Vec<Mutex<HistoryStore>> {
    (0..algorithms)
        .map(|_| Mutex::new(HistoryStore::new(capacity)))
        .collect()
}

/// The engine plus everything that turns its current results into
/// results at any version (see the module docs).
pub struct Versioned {
    engine: Engine<AnyStore>,
    history: Vec<Mutex<HistoryStore>>,
    version: AtomicU64,
    /// Held exclusively while results change — the leader's cut, a feed
    /// record on a follower — so a point-in-time read never observes
    /// half of a version group. On the leader a caller applying a safe
    /// update on its own thread holds the shared side (see
    /// [`Versioned::try_shared`]).
    gate: RwLock<()>,
    /// Ceiling on on-demand growth (`ServerConfig::max_capacity`): an
    /// update naming a vertex id at or beyond it, and beyond the current
    /// capacity, is refused instead of growing the engine — one id near
    /// `2^60`, trivially sent over the wire, would otherwise be an
    /// allocation the process cannot survive.
    max_capacity: usize,
    /// Record versions and answer reads from them; `false` answers every
    /// read from the current results (`ServerConfig::enable_history`).
    keep_history: bool,
    /// Results are stale after a structure-only load and are recomputed
    /// once, before the next read or the next result-changing record.
    /// Only a follower sets it.
    needs_recompute: AtomicBool,
}

impl Versioned {
    /// An empty store maintaining `algorithms` over `backend`, at
    /// version 0.
    pub(crate) fn open(
        algorithms: Vec<DynAlgorithm>,
        capacity: usize,
        backend: &BackendKind,
        engine_config: EngineConfig,
        max_capacity: usize,
        keep_history: bool,
    ) -> Result<Self> {
        let num_algos = algorithms.len();
        let store = AnyStore::open(
            backend,
            capacity,
            StoreConfig {
                index_threshold: engine_config.index_threshold,
                auto_create_vertices: true,
            },
        )?;
        Ok(Versioned {
            engine: Engine::from_store(store, algorithms, engine_config),
            history: empty_histories(num_algos, capacity),
            version: AtomicU64::new(0),
            gate: RwLock::new(()),
            max_capacity,
            keep_history,
            needs_recompute: AtomicBool::new(false),
        })
    }

    /// The engine holding the current structure and results.
    pub fn engine(&self) -> &Engine<AnyStore> {
        &self.engine
    }

    /// `get_current_version() → version_id`: the newest committed
    /// version.
    pub fn current_version(&self) -> VersionId {
        self.version.load(Ordering::Acquire)
    }

    /// `get_value(version_id, vertex_id) → value` for algorithm `algo`.
    pub fn get_value(&self, algo: usize, version: VersionId, v: VertexId) -> Result<Value> {
        self.recompute_if_deferred();
        let _gate = self.gate.read();
        self.check_vertex(v)?;
        self.check_version(version)?;
        let current = self.engine.value(algo, v);
        if !self.keep_history {
            return Ok(current);
        }
        self.history[algo].lock().value_at(version, v, current)
    }

    /// `get_parent(version_id, vertex_id) → edge` for algorithm `algo`.
    pub fn get_parent(&self, algo: usize, version: VersionId, v: VertexId) -> Result<Option<Edge>> {
        self.recompute_if_deferred();
        let _gate = self.gate.read();
        self.check_vertex(v)?;
        self.check_version(version)?;
        let current = self.engine.parent(algo, v);
        if !self.keep_history {
            return Ok(current);
        }
        self.history[algo].lock().parent_at(version, v, current)
    }

    /// `get_modified_vertices(version_id) → vertex_ids` for algorithm
    /// `algo`.
    pub fn get_modified_vertices(&self, algo: usize, version: VersionId) -> Result<Vec<VertexId>> {
        self.recompute_if_deferred();
        let _gate = self.gate.read();
        self.check_version(version)?;
        self.history[algo].lock().modified_vertices(version)
    }

    /// Reads address existing state and never grow it: a vertex id
    /// beyond the engine's range (e.g. probed over the wire) is simply
    /// not found — unchecked engine indexing would panic.
    fn check_vertex(&self, v: VertexId) -> Result<()> {
        if v as usize >= self.engine.capacity() {
            return Err(Error::VertexNotFound(v));
        }
        Ok(())
    }

    fn check_version(&self, version: VersionId) -> Result<()> {
        if version > self.current_version() {
            return Err(Error::VersionNotFound(version));
        }
        Ok(())
    }

    /// Exclude readers while results change. Hold it from the first
    /// result write of a version group to its [`Versioned::commit`].
    pub(crate) fn exclusive(&self) -> RwLockWriteGuard<'_, ()> {
        self.gate.write()
    }

    /// The gate's shared side, unless a writer holds it or waits for
    /// it. A caller applying a safe update on its own thread holds this
    /// across the apply, its version and its log entry, so an exclusive
    /// holder never sees one without the others; `None` sends the
    /// update to the coordinator instead of waiting.
    pub(crate) fn try_shared(&self) -> Option<RwLockReadGuard<'_, ()>> {
        self.gate.try_read()
    }

    /// Hand out `n` versions that changed no result (safe updates, §4);
    /// returns the newest.
    pub(crate) fn advance(&self, n: u64) -> VersionId {
        self.version.fetch_add(n, Ordering::AcqRel) + n
    }

    /// Commit one version group: the next version, recording `merged` —
    /// the group's merged change set — as what it changed. The caller
    /// holds [`Versioned::exclusive`].
    pub(crate) fn commit(&self, merged: &ChangeSet) -> VersionId {
        let version = self.advance(1);
        if self.keep_history {
            for (algo, changes) in merged.per_algo.iter().enumerate() {
                if !changes.is_empty() {
                    self.history[algo].lock().record(version, changes);
                }
            }
        }
        version
    }

    /// Grow the engine to cover every vertex `updates` name. Growth past
    /// the ceiling is refused with `VertexNotFound` of the highest id
    /// named; ids the engine already covers (a larger start
    /// capacity, a bulk load) pass whatever the ceiling says. Costs one
    /// capacity read when nothing needs to grow.
    pub(crate) fn grow_for<'a>(&self, updates: impl IntoIterator<Item = &'a Update>) -> Result<()> {
        let need = vertex_bound(updates) as usize;
        if need <= self.engine.capacity() {
            return Ok(());
        }
        if need > self.max_capacity {
            return Err(Error::VertexNotFound(need as u64 - 1));
        }
        self.engine.ensure_capacity(need);
        Ok(())
    }

    /// Apply `batch` to the structure alone — a recovered log record, a
    /// snapshot's structure, a bootstrap feed record — growing as needed
    /// (past the ceiling too: these batches were admitted once already)
    /// and skipping updates that fail, as they failed when first
    /// submitted. Results are left as they were; the caller recomputes.
    pub(crate) fn load_structure(&self, batch: &[Update]) {
        let need = vertex_bound(batch) as usize;
        if need > self.engine.capacity() {
            self.engine.ensure_capacity(need);
        }
        for u in batch {
            let _ = self.engine.apply_structure(u);
        }
    }

    /// Mark the results stale after [`Versioned::load_structure`]: they
    /// are recomputed once, before the next read or
    /// [`Versioned::recompute_deferred`], instead of once per batch.
    pub(crate) fn defer_recompute(&self) {
        self.needs_recompute.store(true, Ordering::Release);
    }

    /// Run a deferred recomputation, if one is pending. The caller holds
    /// [`Versioned::exclusive`].
    pub(crate) fn recompute_deferred(&self) {
        if self.needs_recompute.swap(false, Ordering::AcqRel) {
            self.engine.recompute_all();
        }
    }

    fn recompute_if_deferred(&self) {
        if self.needs_recompute.load(Ordering::Acquire) {
            let _gate = self.gate.write();
            self.recompute_deferred();
        }
    }

    /// Start the version sequence over at `version` with no history: a
    /// follower installing a snapshot, or resetting to fresh.
    pub(crate) fn restart_at(&self, version: VersionId) {
        let fresh = empty_histories(self.history.len(), self.engine.capacity());
        for (history, empty) in self.history.iter().zip(fresh) {
            *history.lock() = empty.into_inner();
        }
        self.version.store(version, Ordering::Release);
    }

    /// Make versions below `watermark` unreadable and drop what only
    /// they needed (§5's release-based GC). Returns the undo entries and
    /// heap bytes still resident, summed over algorithms.
    pub(crate) fn collect(&self, watermark: VersionId) -> (usize, usize) {
        let (mut entries, mut bytes) = (0, 0);
        for h in &self.history {
            let mut h = h.lock();
            h.collect(watermark);
            entries += h.chain_entries();
            bytes += h.memory_bytes();
        }
        (entries, bytes)
    }

    /// Undo entries a readable version can still need, summed over
    /// algorithms.
    pub(crate) fn resident_entries(&self) -> usize {
        self.history.iter().map(|h| h.lock().chain_entries()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risgraph_algorithms::Bfs;
    use std::sync::Arc;

    fn bfs(max_capacity: usize) -> Versioned {
        Versioned::open(
            vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
            16,
            &BackendKind::IaHash,
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
            max_capacity,
            true,
        )
        .unwrap()
    }

    #[test]
    fn vertex_bound_is_one_past_the_highest_id() {
        assert_eq!(vertex_bound(&[]), 0);
        let batch = [
            Update::InsVertex(3),
            Update::DelEdge(Edge::new(9, 4, 0)),
            Update::InsEdge(Edge::new(1, 2, 0)),
        ];
        assert_eq!(vertex_bound(&batch), 10);
        assert_eq!(vertex_bound(&[Update::InsVertex(u64::MAX)]), u64::MAX);
    }

    /// The ceiling gates growth, not addressing: ids inside the current
    /// capacity pass even above the ceiling, growth up to it happens,
    /// growth past it is refused without touching the engine.
    #[test]
    fn grow_for_refuses_growth_past_the_ceiling_only() {
        let store = bfs(8);
        let capacity = store.engine().capacity();
        assert!(capacity >= 16);
        assert!(store.grow_for(&[Update::InsVertex(12)]).is_ok());
        assert!(matches!(
            store.grow_for(&[Update::InsEdge(Edge::new(0, 1 << 40, 0))]),
            Err(Error::VertexNotFound(v)) if v == 1 << 40
        ));
        assert_eq!(store.engine().capacity(), capacity, "no growth attempted");

        let store = bfs(1 << 10);
        store.grow_for(&[Update::InsVertex(500)]).unwrap();
        assert!(store.engine().capacity() > 500);
    }

    /// A committed group is readable at its version and undone below it;
    /// a version nobody committed yet is not found.
    #[test]
    fn commit_records_the_group_at_the_next_version() {
        let store = bfs(1 << 10);
        let engine = store.engine();
        engine.load_edges(&[(0, 1, 0)]);
        assert_eq!(store.advance(2), 2, "two safe versions");
        let set = engine
            .apply_unsafe(&Update::InsEdge(Edge::new(1, 2, 0)))
            .unwrap();
        assert_eq!(store.commit(&set), 3);
        assert_eq!(store.get_value(0, 3, 2).unwrap(), 2);
        assert_eq!(store.get_value(0, 2, 2).unwrap(), u64::MAX);
        assert_eq!(store.get_parent(0, 3, 2).unwrap(), Some(Edge::new(1, 2, 0)));
        assert_eq!(store.get_modified_vertices(0, 3).unwrap(), vec![2]);
        assert!(matches!(
            store.get_value(0, 4, 2),
            Err(Error::VersionNotFound(4))
        ));
        store.restart_at(0);
        assert_eq!(store.current_version(), 0);
        assert!(store.get_modified_vertices(0, 0).unwrap().is_empty());
    }
}
