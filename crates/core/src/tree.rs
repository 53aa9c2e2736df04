//! The **tree and value store** (§2, §5): per-vertex computing state.
//!
//! Each vertex carries its current result value and a single *bottom-up*
//! parent pointer into the dependency tree — "each vertex maintains at
//! most one bottom-up pointer to its parent on the dependency tree. It
//! is efficient to classify updates by checking whether the updating
//! edge is a bottom-up pointer … parent pointer trees lock or atomically
//! update the modified vertex only once" (§5).
//!
//! # Slot protocol: a per-vertex seqlock of plain atomics
//!
//! A slot is five `AtomicU64`s (40 B): a sequence word, the value, the
//! parent's id, the parent edge's weight, and the epoch stamp of the
//! last update that modified the vertex. There is no lock object.
//!
//! * **Writers** (`try_update`, `reset`, `restore`) take the slot by a
//!   CAS of `seq` from even to odd (`Acquire`), issue a `Release` fence,
//!   store the fields, and publish with a `Release` store of `seq + 2`.
//!   A writer that finds the slot taken spins a few times and then
//!   yields: with more runnable threads than cores only the owner of a
//!   wait may burn its slice, and the holder is at most five stores
//!   from done.
//! * **Pair readers** (`get`, `parent`, `is_tree_edge`) load `seq`
//!   (`Acquire`), the fields (`Relaxed`), an `Acquire` fence, and `seq`
//!   again; an odd or changed `seq` means a writer was in between and
//!   the read is retried. The fences pair as in Boehm's seqlock: a
//!   reader that saw any field of a write sees the odd `seq` that
//!   preceded it, so a `(value, parent)` pair that no writer wrote is
//!   never returned.
//! * **`value`** is one `Acquire` load of the value word — a single
//!   word cannot tear, and every relaxation starts from it.
//!
//! The epoch stamp is compared and rewritten on the write side, so the
//! *first* modification of a vertex within an update returns
//! `first_change = true` exactly once even under concurrent relaxation;
//! that is how the engine captures exact pre-update values for the
//! history store.
//!
//! # Why `try_update` may test the value before taking the slot
//!
//! A relaxation that does not improve its target is the common case
//! (every edge looked at versus the few that win), so `try_update`
//! first asks `decide(value)` on an unlocked load and returns at once
//! when the answer is no. That is sound because of two things the
//! engine guarantees: during a push phase a vertex's value only ever
//! *improves*, and a candidate that does not improve a value does not
//! improve any better one (`need_upd` is monotone), so a "no" on a
//! stale value is still a "no" on the current one; and the only write
//! that makes a value worse, `reset`, is issued by the thread that owns
//! the update before it starts propagating, so it is ordered before
//! every pre-check of that update. A "yes" decides nothing: the slot is
//! then taken and `decide` asked again on the value read under it.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use risgraph_common::ids::{Edge, VertexId, Weight};

/// The engine's value type. Every monotonic algorithm the paper
/// evaluates (BFS/SSSP/SSWP/WCC, plus Reachability and label
/// propagation) is expressible over `u64`.
pub type Value = u64;

/// Sentinel for "no parent".
const NO_PARENT: u64 = u64::MAX;

/// Pause instructions a thread spends on a taken slot before it starts
/// yielding its core to the holder.
const SPINS_BEFORE_YIELD: u32 = 16;

/// One vertex's computing state: value + parent pointer (the parent's id
/// and the connecting edge's weight; the edge is `(parent → self)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexState {
    /// Current result value.
    pub value: Value,
    /// Parent vertex id in the dependency tree, `u64::MAX` when rootless.
    pub parent_src: VertexId,
    /// Weight of the parent edge.
    pub parent_data: Weight,
}

impl VertexState {
    /// The parent edge `(parent → v)` if a parent exists.
    #[inline]
    pub fn parent_edge(&self, v: VertexId) -> Option<Edge> {
        (self.parent_src != NO_PARENT).then(|| Edge::new(self.parent_src, v, self.parent_data))
    }

    /// The state holding `value` with parent edge `parent` (whose
    /// destination is the vertex itself) — the inverse of
    /// [`Self::parent_edge`].
    pub(crate) fn with_parent(value: Value, parent: Option<Edge>) -> Self {
        let (parent_src, parent_data) = parent.map_or((NO_PARENT, 0), |e| (e.src, e.data));
        VertexState {
            value,
            parent_src,
            parent_data,
        }
    }

    fn rootless(value: Value) -> Self {
        Self::with_parent(value, None)
    }
}

/// One vertex's seqlock (see the module doc for the protocol).
struct Slot {
    /// Even: free. Odd: a writer is between its first and last store.
    seq: AtomicU64,
    value: AtomicU64,
    parent_src: AtomicU64,
    parent_data: AtomicU64,
    /// Epoch of the update that last modified this vertex; read and
    /// written on the write side only.
    stamp: AtomicU64,
}

/// The write side of a slot; dropping it publishes the stores made
/// through it (also on unwind, so a panicking `decide` cannot leave
/// the slot taken).
struct SlotWriter<'a> {
    slot: &'a Slot,
    /// The even `seq` this writer replaced.
    seq: u64,
}

#[inline]
fn backoff(spins: &mut u32) {
    if *spins < SPINS_BEFORE_YIELD {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl Slot {
    fn new(value: Value) -> Self {
        Slot {
            seq: AtomicU64::new(0),
            value: AtomicU64::new(value),
            parent_src: AtomicU64::new(NO_PARENT),
            parent_data: AtomicU64::new(0),
            stamp: AtomicU64::new(0),
        }
    }

    /// The three state words, each loaded on its own: one state only
    /// under the write side or between two equal reads of `seq`.
    #[inline]
    fn load_state(&self) -> VertexState {
        VertexState {
            value: self.value.load(Ordering::Relaxed),
            parent_src: self.parent_src.load(Ordering::Relaxed),
            parent_data: self.parent_data.load(Ordering::Relaxed),
        }
    }

    /// The fields as one writer left them, or `None` when a writer was
    /// (or came) in between.
    #[inline]
    fn try_read(&self) -> Option<VertexState> {
        let seq = self.seq.load(Ordering::Acquire);
        if seq & 1 != 0 {
            return None;
        }
        let state = self.load_state();
        // Orders the field loads before the second `seq` load; pairs
        // with the writer's `Release` fence after it made `seq` odd.
        fence(Ordering::Acquire);
        (self.seq.load(Ordering::Relaxed) == seq).then_some(state)
    }

    #[inline]
    fn read(&self) -> VertexState {
        let mut spins = 0;
        loop {
            if let Some(state) = self.try_read() {
                return state;
            }
            backoff(&mut spins);
        }
    }

    /// Take the write side, waiting out any other writer.
    #[inline]
    fn write(&self) -> SlotWriter<'_> {
        let mut spins = 0;
        loop {
            let seq = self.seq.load(Ordering::Relaxed);
            if seq & 1 == 0
                && self
                    .seq
                    .compare_exchange_weak(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                // No field store below may become visible before the
                // odd `seq` (pairs with the reader's `Acquire` fence).
                fence(Ordering::Release);
                return SlotWriter { slot: self, seq };
            }
            backoff(&mut spins);
        }
    }
}

impl SlotWriter<'_> {
    #[inline]
    fn set_state(&self, state: VertexState) {
        self.slot.value.store(state.value, Ordering::Relaxed);
        #[cfg(test)]
        tests::mid_write();
        self.slot
            .parent_src
            .store(state.parent_src, Ordering::Relaxed);
        self.slot
            .parent_data
            .store(state.parent_data, Ordering::Relaxed);
    }

    /// Install `state` as a modification of update `epoch`; returns
    /// `(previous_state, first_change_in_this_epoch)`.
    #[inline]
    fn modify(&self, state: VertexState, epoch: u64) -> (VertexState, bool) {
        let old = self.slot.load_state();
        let first = self.slot.stamp.load(Ordering::Relaxed) != epoch;
        self.slot.stamp.store(epoch, Ordering::Relaxed);
        self.set_state(state);
        (old, first)
    }
}

impl Drop for SlotWriter<'_> {
    #[inline]
    fn drop(&mut self) {
        // Publishes every field store above to the next `Acquire` load
        // of `seq` (reader or writer).
        self.slot.seq.store(self.seq + 2, Ordering::Release);
    }
}

/// The tree & value store for one algorithm.
pub struct TreeStore {
    slots: Vec<Slot>,
    /// Initial values, cached so growth and resets don't re-query the
    /// algorithm object in hot paths.
    init: Box<dyn Fn(VertexId) -> Value + Send + Sync>,
}

impl TreeStore {
    /// Create a store over `0..capacity` with per-vertex initial values.
    pub fn new(capacity: usize, init: impl Fn(VertexId) -> Value + Send + Sync + 'static) -> Self {
        let mut s = TreeStore {
            slots: Vec::new(),
            init: Box::new(init),
        };
        s.ensure_capacity(capacity);
        s
    }

    /// Addressable range.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Grow to cover `0..n`; new vertices start at their initial value.
    pub fn ensure_capacity(&mut self, n: usize) {
        if n <= self.slots.len() {
            return;
        }
        let n = n.next_power_of_two().max(16);
        let start = self.slots.len() as u64;
        for v in start..n as u64 {
            self.slots.push(Slot::new((self.init)(v)));
        }
    }

    /// Snapshot the state of `v`.
    #[inline]
    pub fn get(&self, v: VertexId) -> VertexState {
        self.slots[v as usize].read()
    }

    /// Current value of `v`.
    #[inline]
    pub fn value(&self, v: VertexId) -> Value {
        self.slots[v as usize].value.load(Ordering::Acquire)
    }

    /// Parent edge of `v`, if any.
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<Edge> {
        self.get(v).parent_edge(v)
    }

    /// Whether `e` is a bottom-up pointer of the dependency tree, i.e.
    /// `parent(e.dst) == e`. This is the O(1) classification primitive
    /// for deletions (§4 rule 2).
    #[inline]
    pub fn is_tree_edge(&self, e: Edge) -> bool {
        let s = self.get(e.dst);
        s.parent_src == e.src && s.parent_data == e.data
    }

    /// Atomically: if `decide(current_value)` returns a replacement,
    /// install `(new_value, parent)` and return
    /// `(previous_state, first_change_in_this_epoch)`.
    ///
    /// This is the single-vertex relaxation step of parallel push.
    /// `decide` is asked once on an unlocked load of the value — a
    /// refusal there returns without touching the slot, which is sound
    /// under the conditions in the module doc — and, if that says yes,
    /// again on the value read under the write side; only the second
    /// answer is installed. The `first` flag is exact because the stamp
    /// is checked and written under the same write side.
    #[inline]
    pub fn try_update(
        &self,
        v: VertexId,
        parent: Option<(VertexId, Weight)>,
        epoch: u64,
        decide: impl Fn(Value) -> Option<Value>,
    ) -> Option<(VertexState, bool)> {
        let slot = &self.slots[v as usize];
        decide(slot.value.load(Ordering::Acquire))?;
        let w = slot.write();
        let value = decide(slot.value.load(Ordering::Relaxed))?;
        let (parent_src, parent_data) = parent.unwrap_or((NO_PARENT, 0));
        Some(w.modify(
            VertexState {
                value,
                parent_src,
                parent_data,
            },
            epoch,
        ))
    }

    /// Forcibly reset `v` to its initial value with no parent; returns
    /// `(previous_state, first_change_in_this_epoch)` (deletion
    /// invalidation — §2's trimmed approximation starts from here).
    /// The one write that can make a value worse: call it only from the
    /// thread that owns the update, before that update propagates.
    #[inline]
    pub fn reset(&self, v: VertexId, epoch: u64) -> (VertexState, bool) {
        self.slots[v as usize]
            .write()
            .modify(VertexState::rootless((self.init)(v)), epoch)
    }

    /// Restore a previously captured state (tests and rollbacks).
    #[inline]
    pub fn restore(&self, v: VertexId, state: VertexState) {
        self.slots[v as usize].write().set_state(state);
    }

    /// The initial value of `v`.
    #[inline]
    pub fn init_value(&self, v: VertexId) -> Value {
        (self.init)(v)
    }

    /// Approximate heap bytes (Table 9 accounting).
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bfs_like(root: VertexId) -> TreeStore {
        TreeStore::new(8, move |v| if v == root { 0 } else { u64::MAX })
    }

    #[test]
    fn initial_values() {
        let t = bfs_like(3);
        assert_eq!(t.value(3), 0);
        assert_eq!(t.value(0), u64::MAX);
        assert_eq!(t.parent(0), None);
    }

    #[test]
    fn try_update_improves_and_sets_parent() {
        let t = bfs_like(0);
        let got = t.try_update(1, Some((0, 7)), 1, |cur| (1 < cur).then_some(1));
        let (old, first) = got.unwrap();
        assert_eq!(old.value, u64::MAX);
        assert!(first);
        assert_eq!(t.value(1), 1);
        assert_eq!(t.parent(1), Some(Edge::new(0, 1, 7)));
        // Second identical update must refuse (no improvement).
        assert!(t
            .try_update(1, Some((0, 7)), 1, |cur| (1 < cur).then_some(1))
            .is_none());
    }

    #[test]
    fn first_change_flag_tracks_epochs() {
        let t = bfs_like(0);
        let (_, first) = t.try_update(1, Some((0, 0)), 5, |_| Some(10)).unwrap();
        assert!(first);
        let (old, first) = t.try_update(1, Some((0, 0)), 5, |_| Some(9)).unwrap();
        assert!(!first, "same epoch: not the first change");
        assert_eq!(old.value, 10);
        let (_, first) = t.try_update(1, Some((0, 0)), 6, |_| Some(8)).unwrap();
        assert!(first, "new epoch: first change again");
    }

    #[test]
    fn is_tree_edge_checks_src_and_weight() {
        let t = bfs_like(0);
        t.try_update(2, Some((0, 5)), 1, |_| Some(1));
        assert!(t.is_tree_edge(Edge::new(0, 2, 5)));
        assert!(!t.is_tree_edge(Edge::new(0, 2, 6))); // weight differs
        assert!(!t.is_tree_edge(Edge::new(1, 2, 5))); // src differs
        assert!(!t.is_tree_edge(Edge::new(2, 0, 5))); // direction matters
    }

    #[test]
    fn reset_and_restore() {
        let t = bfs_like(0);
        t.try_update(1, Some((0, 0)), 1, |_| Some(1));
        let (old, first) = t.reset(1, 2);
        assert!(first);
        assert_eq!(old.value, 1);
        assert_eq!(t.value(1), u64::MAX);
        assert_eq!(t.parent(1), None);
        t.restore(1, old);
        assert_eq!(t.value(1), 1);
        assert_eq!(t.parent(1), Some(Edge::new(0, 1, 0)));
    }

    #[test]
    fn growth_initializes_new_vertices() {
        let mut t = bfs_like(0);
        t.ensure_capacity(100);
        assert!(t.capacity() >= 100);
        assert_eq!(t.value(99), u64::MAX);
        assert_eq!(t.value(0), 0, "existing state preserved");
    }

    #[test]
    fn concurrent_relaxations_keep_best() {
        use std::sync::Arc;
        let t = Arc::new(bfs_like(0));
        let mut handles = Vec::new();
        for cand in 1..=8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                t.try_update(5, Some((cand, 0)), 1, |cur| (cand < cur).then_some(cand));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Monotone: final value must be the minimum candidate.
        assert_eq!(t.value(5), 1);
        assert_eq!(t.parent(5), Some(Edge::new(1, 5, 0)));
    }

    #[test]
    fn exactly_one_first_change_under_concurrency() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let t = Arc::new(bfs_like(0));
        let firsts = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for cand in 1..=8u64 {
            let t = Arc::clone(&t);
            let firsts = Arc::clone(&firsts);
            handles.push(std::thread::spawn(move || {
                if let Some((_, first)) =
                    t.try_update(5, Some((cand, 0)), 42, |cur| (cand < cur).then_some(cand))
                {
                    if first {
                        firsts.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(firsts.load(Ordering::SeqCst), 1);
    }

    thread_local! {
        /// Runs once on this thread between a writer's value store and
        /// its parent stores, so a test can look at the slot while it
        /// holds half of a write.
        static MID_WRITE: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn mid_write() {
        if let Some(hook) = MID_WRITE.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    /// Forced: a reader arrives while a writer has stored the new value
    /// but not yet the new parent. The read attempt must fail rather
    /// than pair the new value with the old parent, while the one-word
    /// `value()` already answers; after the write both halves are new.
    #[test]
    fn read_attempt_inside_a_write_is_refused() {
        use std::sync::Arc;
        let t = Arc::new(bfs_like(0));
        t.try_update(5, Some((1, 1)), 1, |_| Some(10)).unwrap();
        let seen = {
            let t = Arc::clone(&t);
            move || {
                assert_eq!(t.value(5), 4, "the value word is already the new one");
                assert_eq!(t.slots[5].try_read(), None, "half a write was readable");
            }
        };
        MID_WRITE.with(|h| *h.borrow_mut() = Some(Box::new(seen)));
        t.try_update(5, Some((2, 2)), 1, |cur| (4 < cur).then_some(4))
            .unwrap();
        assert!(
            MID_WRITE.with(|h| h.borrow().is_none()),
            "the hook did not run"
        );
        assert_eq!(
            t.get(5),
            VertexState {
                value: 4,
                parent_src: 2,
                parent_data: 2
            }
        );
    }

    /// A reader racing N writers only ever sees pairs some writer wrote.
    /// Writer `c` installs `(value c, parent c, weight c)`; all threads
    /// leave one barrier together and the reader keeps reading until
    /// the last writer is done.
    #[test]
    fn racing_reader_sees_only_written_pairs() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::{Arc, Barrier};
        const WRITERS: u64 = 4;
        const ROUNDS: u64 = 2_000;
        let t = Arc::new(bfs_like(0));
        let start = Arc::new(Barrier::new(WRITERS as usize + 1));
        let live = Arc::new(AtomicUsize::new(WRITERS as usize));
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (t, start, live) = (Arc::clone(&t), Arc::clone(&start), Arc::clone(&live));
                std::thread::spawn(move || {
                    start.wait();
                    // Descending candidates, interleaved across writers,
                    // so most attempts pass the pre-check and contend.
                    for round in (0..ROUNDS).rev() {
                        let c = 1 + round * WRITERS + w;
                        t.try_update(5, Some((c, c)), 1, |cur| (c < cur).then_some(c));
                    }
                    live.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        start.wait();
        let mut last = u64::MAX;
        while live.load(Ordering::SeqCst) > 0 || last != 1 {
            let s = t.get(5);
            if s.value == u64::MAX {
                assert_eq!(s, VertexState::rootless(u64::MAX));
            } else {
                assert_eq!(
                    (s.parent_src, s.parent_data),
                    (s.value, s.value),
                    "torn pair"
                );
            }
            assert!(s.value <= last, "a value got worse during a push phase");
            last = s.value;
        }
        for h in writers {
            h.join().unwrap();
        }
        assert_eq!(t.parent(5), Some(Edge::new(1, 5, 1)));
    }

    /// Runs `first` inside A's pre-check (A has read the value, not yet
    /// taken the slot), then lets A finish; returns what A got.
    fn update_with_gap(
        t: &std::sync::Arc<TreeStore>,
        cand: u64,
        in_gap: impl FnOnce(&TreeStore) + Send + 'static,
    ) -> Option<(VertexState, bool)> {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc::channel;
        let (checked_tx, checked_rx) = channel();
        let (go_tx, go_rx) = channel::<()>();
        let a = {
            let t = std::sync::Arc::clone(t);
            std::thread::spawn(move || {
                let calls = AtomicUsize::new(0);
                t.try_update(5, Some((cand, 0)), 7, |cur| {
                    if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                        checked_tx.send(()).unwrap();
                        go_rx.recv().unwrap();
                    }
                    (cand < cur).then_some(cand)
                })
            })
        };
        checked_rx.recv().unwrap();
        in_gap(t);
        go_tx.send(()).unwrap();
        a.join().unwrap()
    }

    /// Forced: between A's pre-check and A taking the slot, B installs a
    /// value A's candidate still improves. A decides again on what it
    /// reads under the slot, so its candidate is installed over B's —
    /// and B, not A, made the epoch's first change.
    #[test]
    fn candidate_that_improves_the_locked_reread_is_not_lost() {
        let t = std::sync::Arc::new(bfs_like(0));
        let got = update_with_gap(&t, 3, |t| {
            let (_, first) = t
                .try_update(5, Some((9, 0)), 7, |cur| (9 < cur).then_some(9))
                .unwrap();
            assert!(first);
        });
        let (old, first) = got.expect("3 improves 9");
        assert_eq!(old.value, 9, "old state is the one read under the slot");
        assert_eq!(old.parent_src, 9);
        assert!(!first);
        assert_eq!(t.parent(5), Some(Edge::new(3, 5, 0)));
    }

    /// Forced, the other way: B installs a value better than A's
    /// candidate in the same gap. A's pre-check said yes on the stale
    /// value; the decision under the slot says no and B's pair stays.
    #[test]
    fn stale_precheck_does_not_clobber_a_better_value() {
        let t = std::sync::Arc::new(bfs_like(0));
        let got = update_with_gap(&t, 3, |t| {
            t.try_update(5, Some((2, 0)), 7, |cur| (2 < cur).then_some(2))
                .unwrap();
        });
        assert_eq!(got, None);
        assert_eq!(t.get(5).value, 2);
        assert_eq!(t.parent(5), Some(Edge::new(2, 5, 0)));
    }

    /// The pre-check's one precondition outside monotonicity: a `reset`
    /// by the owning thread is visible to that thread's next pre-check,
    /// so a candidate that lost to the pre-reset value wins afterwards.
    #[test]
    fn precheck_sees_the_owners_reset() {
        let t = bfs_like(0);
        t.try_update(5, Some((1, 0)), 1, |_| Some(2)).unwrap();
        let relax = |epoch| t.try_update(5, Some((4, 0)), epoch, |cur| (6 < cur).then_some(6));
        assert_eq!(relax(1), None);
        t.reset(5, 2);
        let (old, first) = relax(2).expect("6 improves the initial value");
        assert_eq!(old, VertexState::rootless(u64::MAX));
        assert!(!first, "the reset was the epoch's first change");
        assert_eq!(t.value(5), 6);
    }
}
