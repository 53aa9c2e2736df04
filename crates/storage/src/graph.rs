//! The [`DynamicGraph`] storage abstraction.
//!
//! The paper's core claim is that *localized data access* makes
//! per-update incremental analysis fast across storage layouts: §6.3 and
//! Tables 8/9 compare Indexed-Adjacency (IA_*) stores, index-only (IO_*)
//! stores and an out-of-core prototype under the same engine workloads.
//! This trait is the contract that lets one engine drive all of them:
//!
//! * **mutation** — multiset edge insert/delete with duplicate counting
//!   ([`InsertOutcome`]/[`DeleteOutcome`]) and the atomic conditional
//!   delete ([`DynamicGraph::delete_edge_if`]) that the epoch loop's
//!   parallel safe phase needs for revalidation (§4);
//! * **scans** — forward and transpose neighbour iteration
//!   ([`DynamicGraph::scan_out`]/[`DynamicGraph::scan_in`]), plus
//!   positional range scans used by edge-parallel push mode for load
//!   balancing (§3.2);
//! * **vertex lifecycle** — explicit ids, recycled-id allocation and
//!   isolation-checked deletion (Table 1's `ins_vertex`/`del_vertex`);
//! * **capacity & stats** — epoch-boundary growth and the Table 9
//!   memory accounting.
//!
//! Implementations in this crate: [`crate::GraphStore`] (IA_Hash/BTree/
//! ART), [`crate::index_only::IndexOnlyStore`] (IO_*), and
//! [`crate::ooc_mmap::MmapOocStore`] (the §6.3 out-of-core store). The
//! [`crate::backend::AnyStore`] enum dispatches over all of them for
//! runtime backend selection.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use parking_lot::Mutex;
use risgraph_common::ids::{Edge, VertexId, Weight};
use risgraph_common::{Error, Result};

use crate::adjacency::{DeleteOutcome, InsertOutcome};
use crate::store::StoreStats;

/// A mutable multigraph a RisGraph engine can maintain algorithms over.
///
/// Object-safe by design: the server tier erases the backend behind the
/// [`crate::backend::AnyStore`] enum, and scans take `&mut dyn FnMut`
/// visitors instead of generic closures.
///
/// Concurrency contract (mirrors [`crate::GraphStore`]): edge and vertex
/// operations taking `&self` may run concurrently; capacity growth takes
/// `&mut self` and happens at epoch boundaries where the engine holds
/// exclusive access.
pub trait DynamicGraph: Send + Sync {
    /// Short backend label ("IA_Hash", "IO_BTree", "OOC_MMAP", …).
    fn backend_name(&self) -> &'static str;

    // ---- capacity & vertex lifecycle --------------------------------

    /// Addressable vertex range `0..capacity()`.
    fn capacity(&self) -> usize;

    /// Grow the vertex table so ids `0..n` are addressable. Requires
    /// exclusive access (epoch boundaries only).
    fn ensure_capacity(&mut self, n: usize);

    /// Highest vertex id ever allocated plus one (ids below this may be
    /// dead; check with [`Self::vertex_exists`]).
    fn vertex_upper_bound(&self) -> u64;

    /// Count of live vertices.
    fn num_vertices(&self) -> u64;

    /// Count of live directed edges, duplicates included.
    fn num_edges(&self) -> u64;

    /// Whether `v` currently exists.
    fn vertex_exists(&self, v: VertexId) -> bool;

    /// Insert a vertex with a caller-chosen id (`ins_vertex`, Table 1).
    fn insert_vertex(&self, v: VertexId) -> Result<()>;

    /// Allocate a fresh vertex id, reusing the recycling pool first (§5).
    fn create_vertex(&self) -> Result<VertexId>;

    /// Delete an isolated vertex (`del_vertex`); fails with
    /// [`Error::VertexNotIsolated`] while live edges touch it (§4).
    ///
    /// The isolation check is atomic with respect to concurrent edge
    /// insertions on `v`: every backend routes edge insertion through a
    /// [`VertexTable`] *pin* and deletion through the matching
    /// reservation ([`VertexTable::remove_isolated`]), so an insert
    /// cannot slip between the degree check and the removal.
    fn delete_vertex(&self, v: VertexId) -> Result<()>;

    /// [`Self::insert_vertex`] drawing a WAL sequence stamp from `seq`
    /// under the vertex-lifecycle reservation where the backend can
    /// arrange it (see [`VertexTable::insert_seq`]) — the vertex-op
    /// counterpart of [`Self::insert_edge_seq`]'s in-lock stamping, so
    /// same-vertex lifecycle races replay in application order.
    fn insert_vertex_seq(&self, v: VertexId, seq: &AtomicU64) -> Result<u64> {
        self.insert_vertex(v)?;
        Ok(seq.fetch_add(1, Ordering::Relaxed))
    }

    /// [`Self::delete_vertex`] with the in-reservation stamp of
    /// [`Self::insert_vertex_seq`].
    fn delete_vertex_seq(&self, v: VertexId, seq: &AtomicU64) -> Result<u64> {
        self.delete_vertex(v)?;
        Ok(seq.fetch_add(1, Ordering::Relaxed))
    }

    // ---- edge mutation ----------------------------------------------

    /// Insert one copy of a directed edge.
    fn insert_edge(&self, e: Edge) -> Result<InsertOutcome>;

    /// Delete one copy of a directed edge.
    fn delete_edge(&self, e: Edge) -> Result<DeleteOutcome>;

    /// Delete one copy of `e` only if `pred(current_count)` holds,
    /// atomically with respect to other operations on `e.src`. This is
    /// the §4 revalidation primitive: a deletion classified *safe* must
    /// re-check under the store's synchronization that a duplicate
    /// remains (a concurrent safe deletion may have consumed it).
    /// Returns `Ok(None)` when the predicate rejects.
    fn delete_edge_if(
        &self,
        e: Edge,
        pred: &mut dyn FnMut(u32) -> bool,
    ) -> Result<Option<DeleteOutcome>>;

    /// [`Self::insert_edge`] that additionally draws a sequence stamp
    /// from `seq` — **inside the synchronization that serializes
    /// operations on `e.src`** wherever the backend can arrange it. The
    /// epoch loop stamps every applied safe update this way and orders
    /// the merged per-epoch WAL record by stamp, so replay reproduces
    /// the true per-edge application order even for same-edge
    /// count-races across sessions within one epoch (the PR 2 "WAL
    /// linearization caveat"). The default implementation stamps right
    /// after the insert, which leaves a harmless window only for
    /// backends without a per-vertex lock to stamp under.
    fn insert_edge_seq(&self, e: Edge, seq: &AtomicU64) -> Result<(InsertOutcome, u64)> {
        let outcome = self.insert_edge(e)?;
        Ok((outcome, seq.fetch_add(1, Ordering::Relaxed)))
    }

    /// [`Self::delete_edge_if`] with the same in-lock sequence stamp as
    /// [`Self::insert_edge_seq`]; the stamp is drawn only when the
    /// predicate accepts and the delete applies.
    fn delete_edge_if_seq(
        &self,
        e: Edge,
        pred: &mut dyn FnMut(u32) -> bool,
        seq: &AtomicU64,
    ) -> Result<Option<(DeleteOutcome, u64)>> {
        Ok(self
            .delete_edge_if(e, pred)?
            .map(|outcome| (outcome, seq.fetch_add(1, Ordering::Relaxed))))
    }

    /// Current multiplicity of `e` (0 when absent).
    fn edge_count(&self, e: Edge) -> u32;

    /// Whether at least one copy of `e` exists.
    fn contains_edge(&self, e: Edge) -> bool {
        self.edge_count(e) > 0
    }

    // ---- scans -------------------------------------------------------

    /// Visit every live out-edge `(dst, weight, count)` of `v`.
    fn scan_out(&self, v: VertexId, f: &mut dyn FnMut(VertexId, Weight, u32));

    /// Visit every live in-edge `(src, weight, count)` of `v` (the
    /// transpose scan the incremental model needs for deletion
    /// recovery, §5).
    fn scan_in(&self, v: VertexId, f: &mut dyn FnMut(VertexId, Weight, u32));

    /// Live out-degree (distinct edges).
    fn out_degree(&self, v: VertexId) -> usize;

    /// Live in-degree (distinct edges).
    fn in_degree(&self, v: VertexId) -> usize;

    /// Total degree (in + out), the `d_k` of the §7 AFF bounds.
    fn total_degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    // ---- positional scans (edge-parallel load balancing) ------------

    /// Whether this backend can scan a positional sub-range of a
    /// vertex's edges in O(range) — true for contiguous slot arrays
    /// (the IA stores). Backends that leave the default range scans in
    /// place pay O(degree) per sub-range call, so the hybrid push
    /// engine only *chooses* edge-parallel mode when this is true
    /// (forced modes are honoured regardless — the range scans are
    /// always correct, just slower).
    fn has_positional_scans(&self) -> bool {
        false
    }

    /// Number of out scan positions for `v`. Positions may include
    /// tombstones — they bound the scan work, which is what the push
    /// engine's load balancing partitions over.
    fn out_slots(&self, v: VertexId) -> usize {
        self.out_degree(v)
    }

    /// Number of in scan positions for `v`.
    fn in_slots(&self, v: VertexId) -> usize {
        self.in_degree(v)
    }

    /// Visit the live out-edges among scan positions `lo..hi` of `v`.
    /// Positions are stable while no mutation runs (the push phases
    /// never mutate structure).
    fn scan_out_range(
        &self,
        v: VertexId,
        lo: usize,
        hi: usize,
        f: &mut dyn FnMut(VertexId, Weight, u32),
    ) {
        let mut pos = 0usize;
        self.scan_out(v, &mut |d, w, c| {
            if (lo..hi).contains(&pos) {
                f(d, w, c);
            }
            pos += 1;
        });
    }

    /// Visit the live in-edges among scan positions `lo..hi` of `v`.
    fn scan_in_range(
        &self,
        v: VertexId,
        lo: usize,
        hi: usize,
        f: &mut dyn FnMut(VertexId, Weight, u32),
    ) {
        let mut pos = 0usize;
        self.scan_in(v, &mut |d, w, c| {
            if (lo..hi).contains(&pos) {
                f(d, w, c);
            }
            pos += 1;
        });
    }

    // ---- whole-graph access -----------------------------------------

    /// Visit every live vertex id.
    fn for_each_vertex(&self, f: &mut dyn FnMut(VertexId));

    /// Aggregate statistics (may walk the whole store; not hot-path).
    fn stats(&self) -> StoreStats;

    /// Persist buffered state (no-op for in-memory backends).
    fn flush(&self) -> Result<()> {
        Ok(())
    }
}

/// High bit of a vertex guard word: a deletion holds the vertex
/// reserved; edge operations must not pin it until the bit clears.
const DELETING: u32 = 1 << 31;

/// Shared vertex-lifecycle bookkeeping for every backend: existence
/// bits, the recycled-id pool of §5, live/high-water counters, and the
/// per-vertex *reservation* words that make `del_vertex`'s isolation
/// check atomic against concurrent edge insertions.
///
/// Reservation protocol: an edge insertion [`VertexTable::pin`]s both
/// endpoints for the duration of the structural mutation (a counter in
/// the low bits of the guard word); [`VertexTable::remove_isolated`]
/// sets the [`DELETING`] bit, waits for in-flight pins to drain, runs
/// the backend's isolation check, and only then removes the vertex.
/// Pins spin while the bit is set, so an insert can never revive or
/// re-edge a vertex between its isolation check and its removal.
pub struct VertexTable {
    exists: Vec<AtomicBool>,
    /// Per-vertex guard words: [`DELETING`] bit + pin count.
    guards: Vec<AtomicU32>,
    recycled: Mutex<Vec<VertexId>>,
    next_vertex: AtomicU64,
    live: AtomicU64,
}

/// RAII pin on one or two vertices (see [`VertexTable::pin`]).
pub struct VertexPin<'a> {
    table: &'a VertexTable,
    a: VertexId,
    b: Option<VertexId>,
}

impl Drop for VertexPin<'_> {
    fn drop(&mut self) {
        self.table.unpin(self.a);
        if let Some(b) = self.b {
            self.table.unpin(b);
        }
    }
}

impl VertexTable {
    /// A table addressing `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut t = VertexTable {
            exists: Vec::new(),
            guards: Vec::new(),
            recycled: Mutex::new(Vec::new()),
            next_vertex: AtomicU64::new(0),
            live: AtomicU64::new(0),
        };
        t.ensure_capacity(capacity);
        t
    }

    /// Addressable range.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.exists.len()
    }

    /// Grow to address `0..n` (requires exclusive access).
    pub fn ensure_capacity(&mut self, n: usize) {
        if n > self.exists.len() {
            self.exists.resize_with(n, || AtomicBool::new(false));
            self.guards.resize_with(n, || AtomicU32::new(0));
        }
    }

    /// Whether `v` is live.
    #[inline]
    pub fn exists(&self, v: VertexId) -> bool {
        (v as usize) < self.exists.len() && self.exists[v as usize].load(Ordering::Acquire)
    }

    /// Highest allocated id plus one.
    #[inline]
    pub fn upper_bound(&self) -> u64 {
        self.next_vertex.load(Ordering::Acquire)
    }

    /// Live vertex count.
    #[inline]
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Acquire)
    }

    /// Mark `v` live (idempotent); returns whether it was newly created.
    /// Caller must have checked capacity.
    pub fn mark(&self, v: VertexId) -> bool {
        let newly = !self.exists[v as usize].swap(true, Ordering::AcqRel);
        if newly {
            self.live.fetch_add(1, Ordering::AcqRel);
            self.next_vertex.fetch_max(v + 1, Ordering::AcqRel);
        }
        newly
    }

    /// Explicit-id insertion with the Table 1 error contract.
    pub fn insert(&self, v: VertexId) -> Result<()> {
        if (v as usize) >= self.capacity() {
            return Err(Error::VertexNotFound(v));
        }
        if !self.mark(v) {
            return Err(Error::VertexExists(v));
        }
        Ok(())
    }

    /// Fresh-id allocation, recycling pool first (§5).
    ///
    /// A pooled id may have been *revived* since it was recycled: an
    /// implicit auto-create edge insertion marks its endpoints live
    /// without consulting the pool. Handing such an id out would give
    /// the graph two owners of one vertex, so only ids whose dead→live
    /// transition `create` itself performs are returned; revived
    /// entries are discarded (the vertex re-enters the pool if it is
    /// ever deleted again).
    pub fn create(&self) -> Result<VertexId> {
        loop {
            let Some(v) = self.recycled.lock().pop() else {
                break;
            };
            if !self.exists[v as usize].swap(true, Ordering::AcqRel) {
                self.live.fetch_add(1, Ordering::AcqRel);
                return Ok(v);
            }
        }
        loop {
            let v = self.next_vertex.fetch_add(1, Ordering::AcqRel);
            if (v as usize) >= self.capacity() {
                self.next_vertex.fetch_sub(1, Ordering::AcqRel);
                return Err(Error::VertexNotFound(v));
            }
            // Same swap-claim as the pool path: a racing implicit mark
            // may have made this very id live between the fetch_add and
            // here — it belongs to that edge insert then, so allocate
            // the next id rather than returning a second owner.
            if !self.exists[v as usize].swap(true, Ordering::AcqRel) {
                self.live.fetch_add(1, Ordering::AcqRel);
                return Ok(v);
            }
        }
    }

    /// Remove `v` (isolation must have been checked by the caller) and
    /// recycle its id.
    pub fn remove(&self, v: VertexId) -> Result<()> {
        if !self.exists(v) {
            return Err(Error::VertexNotFound(v));
        }
        self.exists[v as usize].store(false, Ordering::Release);
        self.live.fetch_sub(1, Ordering::AcqRel);
        self.recycled.lock().push(v);
        Ok(())
    }

    fn pin_one(&self, v: VertexId) {
        let g = &self.guards[v as usize];
        loop {
            let cur = g.load(Ordering::Acquire);
            if cur & DELETING != 0 {
                // A deletion holds the reservation; it finishes without
                // waiting on pinners-to-be, so spinning is bounded.
                std::hint::spin_loop();
                std::thread::yield_now();
                continue;
            }
            if g.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    fn unpin(&self, v: VertexId) {
        self.guards[v as usize].fetch_sub(1, Ordering::AcqRel);
    }

    /// Pin `a` (and `b`, when distinct) against concurrent deletion for
    /// the lifetime of the returned guard. Edge mutations hold a pin on
    /// both endpoints across the structural change, which is what makes
    /// [`Self::remove_isolated`]'s check-then-remove atomic. Caller must
    /// have checked capacity for both ids.
    ///
    /// Pins are acquired in ascending id order: a pinner may hold one
    /// pin while waiting out another vertex's deletion reservation, so
    /// unordered acquisition would admit a cycle (pin(1)→wait(2) ‖
    /// del(2)→drain ‖ pin(2)→wait(1) ‖ del(1)→drain); ordering makes
    /// every wait chain strictly increasing, hence finite.
    pub fn pin(&self, a: VertexId, b: VertexId) -> VertexPin<'_> {
        let (lo, hi) = (a.min(b), a.max(b));
        self.pin_one(lo);
        let second = (lo != hi).then(|| {
            self.pin_one(hi);
            hi
        });
        VertexPin {
            table: self,
            a: lo,
            b: second,
        }
    }

    /// [`Self::insert`] that additionally draws a WAL sequence stamp —
    /// while `v` is pinned, so the stamp is ordered against any
    /// concurrent deletion of `v` (pins and the deletion reservation
    /// mutually exclude) exactly as edge stamps are ordered under their
    /// adjacency locks.
    pub fn insert_seq(&self, v: VertexId, seq: &AtomicU64) -> Result<u64> {
        if (v as usize) >= self.capacity() {
            return Err(Error::VertexNotFound(v));
        }
        self.pin_one(v);
        let result = self.insert(v).map(|()| seq.fetch_add(1, Ordering::Relaxed));
        self.unpin(v);
        result
    }

    /// Atomically delete `v` if `is_isolated()` holds: reserve the
    /// vertex (new pins wait), drain in-flight pins, check existence and
    /// isolation, then remove. `is_isolated` runs under the reservation
    /// and typically reads the backend's adjacency degrees; it must not
    /// pin vertices itself.
    pub fn remove_isolated(&self, v: VertexId, is_isolated: impl FnOnce() -> bool) -> Result<()> {
        let scratch = AtomicU64::new(0);
        self.remove_isolated_seq(v, is_isolated, &scratch)
            .map(|_| ())
    }

    /// [`Self::remove_isolated`] drawing a WAL sequence stamp from
    /// `seq` while the deletion reservation is still held, so the
    /// stamp is ordered against every pinned operation on `v`
    /// (edge inserts and [`Self::insert_seq`]).
    pub fn remove_isolated_seq(
        &self,
        v: VertexId,
        is_isolated: impl FnOnce() -> bool,
        seq: &AtomicU64,
    ) -> Result<u64> {
        if (v as usize) >= self.capacity() {
            return Err(Error::VertexNotFound(v));
        }
        let g = &self.guards[v as usize];
        // Acquire the reservation (one deleter at a time per vertex).
        loop {
            let cur = g.load(Ordering::Acquire);
            if cur & DELETING != 0 {
                std::hint::spin_loop();
                std::thread::yield_now();
                continue;
            }
            if g.compare_exchange_weak(cur, cur | DELETING, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        // Drain pins taken before the reservation was visible.
        while g.load(Ordering::Acquire) & !DELETING != 0 {
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        // Clear the reservation even if `is_isolated` panics (backend
        // closures may `expect` on I/O): a leaked DELETING bit would
        // wedge every future pin and deletion of this vertex forever.
        struct ClearOnDrop<'a>(&'a AtomicU32);
        impl Drop for ClearOnDrop<'_> {
            fn drop(&mut self) {
                self.0.fetch_and(!DELETING, Ordering::AcqRel);
            }
        }
        let _clear = ClearOnDrop(g);
        if !self.exists(v) {
            Err(Error::VertexNotFound(v))
        } else if !is_isolated() {
            Err(Error::VertexNotIsolated(v))
        } else {
            self.remove(v).map(|()| seq.fetch_add(1, Ordering::Relaxed))
        }
    }

    /// Visit every live id below the high-water mark.
    pub fn for_each_live(&self, f: &mut dyn FnMut(VertexId)) {
        let hi = self.upper_bound();
        for v in 0..hi {
            if self.exists[v as usize].load(Ordering::Acquire) {
                f(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_table_lifecycle() {
        let t = VertexTable::with_capacity(8);
        assert_eq!(t.live(), 0);
        let a = t.create().unwrap();
        let b = t.create().unwrap();
        assert_ne!(a, b);
        assert!(t.exists(a));
        t.remove(a).unwrap();
        assert!(!t.exists(a));
        assert_eq!(t.create().unwrap(), a, "recycled id reused");
        t.insert(5).unwrap();
        assert!(matches!(t.insert(5), Err(Error::VertexExists(5))));
        assert_eq!(t.create().unwrap(), 6, "high-water mark respected");
        assert!(matches!(t.insert(99), Err(Error::VertexNotFound(99))));
    }

    #[test]
    fn create_skips_recycled_ids_revived_by_mark() {
        // Deterministic core of the recycling race: an id sits in the
        // pool, an implicit auto-create (mark) revives it, then create()
        // must NOT hand it out a second time.
        let t = VertexTable::with_capacity(8);
        let v = t.create().unwrap();
        t.remove(v).unwrap();
        assert!(t.mark(v), "mark revives the pooled id");
        let w = t.create().unwrap();
        assert_ne!(w, v, "revived id handed out twice");
        assert!(t.exists(v) && t.exists(w));
    }

    #[test]
    fn racing_mark_and_create_never_share_an_id() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{Arc, Barrier};
        // Race mark(v) (an implicit edge-insert revival) against
        // create() over a pool containing exactly {v}: at most one side
        // may claim v as a fresh dead→live transition.
        for round in 0..200 {
            let t = Arc::new(VertexTable::with_capacity(16));
            let v = t.create().unwrap();
            t.remove(v).unwrap();
            let barrier = Arc::new(Barrier::new(2));
            let marked_new = Arc::new(AtomicBool::new(false));
            let m = {
                let (t, b, flag) = (
                    Arc::clone(&t),
                    Arc::clone(&barrier),
                    Arc::clone(&marked_new),
                );
                std::thread::spawn(move || {
                    b.wait();
                    flag.store(t.mark(v), Ordering::SeqCst);
                })
            };
            let c = {
                let (t, b) = (Arc::clone(&t), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    b.wait();
                    t.create().unwrap()
                })
            };
            m.join().unwrap();
            let created = c.join().unwrap();
            assert!(
                !(created == v && marked_new.load(Ordering::SeqCst)),
                "round {round}: id {v} claimed by both mark and create"
            );
            assert!(t.exists(v), "someone revived v either way");
        }
    }

    #[test]
    fn remove_isolated_respects_pins_and_reservation() {
        let t = VertexTable::with_capacity(8);
        t.insert(1).unwrap();
        // Isolation check runs under the reservation.
        assert!(matches!(
            t.remove_isolated(1, || false),
            Err(Error::VertexNotIsolated(1))
        ));
        assert!(t.exists(1));
        t.remove_isolated(1, || true).unwrap();
        assert!(!t.exists(1));
        assert!(matches!(
            t.remove_isolated(1, || true),
            Err(Error::VertexNotFound(1))
        ));
        // A held pin delays deletion; dropping it lets it through.
        t.insert(2).unwrap();
        let pin = t.pin(2, 2);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                t.remove_isolated(2, || true).unwrap();
                done.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!done.load(Ordering::SeqCst), "deleter ignored a live pin");
            drop(pin);
            h.join().unwrap();
        });
        assert!(!t.exists(2));
    }

    #[test]
    fn vertex_table_growth() {
        let mut t = VertexTable::with_capacity(2);
        assert!(t.insert(5).is_err());
        t.ensure_capacity(8);
        t.insert(5).unwrap();
        let mut seen = Vec::new();
        t.for_each_live(&mut |v| seen.push(v));
        assert_eq!(seen, vec![5]);
    }
}
