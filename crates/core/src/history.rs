//! The **history store** (§2, §5): versioned result snapshots.
//!
//! "The history store consists of a doubly-linked list from new versions
//! to old versions for each vertex, and sparse arrays for each version
//! to trace modifications of the results" (§5). Every mutating call of
//! the Interactive API returns a `version_id`; `get_value(version, v)`
//! and `get_parent(version, v)` answer point-in-time queries, and
//! `get_modified_vertices(version)` lists what a version changed.
//!
//! # Layout: one segmented undo log
//!
//! Both of the paper's structures live in one append-only log of
//! fixed-size segments ([`SEGMENT_ENTRIES`] entries each). Recording a
//! version appends one 36-byte `UndoEntry` per changed vertex —
//! `(vertex, old value, old parent src, old parent weight, distance
//! back to this vertex's previous entry)` — and stores the new entry's
//! index in the per-vertex *head* table (8 B per vertex). The
//! back-links are the paper's new-to-old list; a version's entries are
//! contiguous, so a `(version → first entry, count)` row per recording
//! version is its sparse array. An entry is never written again once
//! appended: no allocation per version, no search, no memmove.
//!
//! Every entry stands alone: it holds the whole state its change
//! overwrote, so a read needs the one entry it lands on and nothing
//! about that entry's neighbours or about how the live tree got where
//! it is (a rolled-back transaction may move a live parent pointer
//! between equal candidates without recording anything). **What an
//! entry does not store** is what its position already says.
//!
//! * Its *version*: versions ascend with log index, so the version rows
//!   already say which index range belongs to which version, and a read
//!   turns its version into a *cut index* once instead of comparing a
//!   stored version at every hop (below).
//! * Its previous entry's *absolute index*: the link is a `u32`
//!   distance back, `0` for "none". A distance that does not fit is
//!   stored saturated (`u32::MAX`) and also reads as "none" — the
//!   resident window is held below 2³² − 1 entries (asserted in
//!   `record`; that many entries are 144 GiB), so an entry that far
//!   back has been dropped and no readable version can need it.
//!
//! Vertex ids, values and weights stay 64-bit (ids.rs, §6.4): with
//! `packed(4)` an entry is 4 × 8 + 4 = 36 bytes.
//!
//! **Why undo (old) values.** The newest state of every vertex is
//! already in the engine's tree, so the log only has to say what a
//! change *overwrote*. One entry per change then suffices (a redo log
//! needs a baseline entry on a vertex's first change as well), and an
//! entry of version `x` serves exactly the reads at versions `< x`,
//! which makes death monotone in log order: once the watermark passes
//! `x`, that entry and everything before it is garbage.
//!
//! **The `current` contract.** [`HistoryStore::value_at`] and
//! [`HistoryStore::parent_at`] take the vertex's *live* value and
//! return it whenever no recorded change is newer than the queried
//! version. Callers read it from the engine under the read side of the
//! gate that the unsafe phase holds exclusively across apply + `record`
//! (`Session::get_value`, `Replica::get_value`), so the live value and
//! the log are always one consistent cut. The one thing the log never
//! sees is a rolled-back transaction: it re-derives the old values, but
//! may settle a parent pointer on another, equally good edge, and the
//! versions since that vertex's last recorded change then read the new
//! pointer (ROADMAP, G).
//!
//! **Reads walk down to a cut index.** A read at version `q` undoes
//! every change of `v` that belongs to a version `> q`. One binary
//! search over the version rows gives `cut`, the log index where the
//! first version newer than `q` starts (skipped when `v` has no
//! resident entry at all); the walk then follows `v`'s back-links from
//! its head while the index stays `>= cut`. The state at `q` is what
//! the last entry visited overwrote; with none, the live one. Every
//! index at or above `cut` is resident, because rows — and with them
//! segments — are only dropped below the watermark and `q` is at or
//! above it. The cost is the number of changes to `v` after `q`
//! (the paper's newest-to-oldest walk): one probe for a vertex
//! unchanged since then, short for the recent versions the API hands
//! out, and bounded by the resident window for any readable version.
//!
//! **GC** follows §5's released-version watermark. `collect(w)` drops
//! the index rows of versions `< w` and every whole segment whose
//! entries are all older than `w`; nothing is deferred to the next
//! write. Granularity is one segment: up to `SEGMENT_ENTRIES - 1` dead
//! entries stay resident at the front of the log until their segment's
//! last entry dies too.

use std::collections::VecDeque;

use risgraph_common::ids::{Edge, VersionId, VertexId, Weight};
use risgraph_common::{Error, Result};

use crate::engine::ChangeRecord;
use crate::tree::Value;

/// Entries per log segment — the allocation and GC granule.
pub const SEGMENT_ENTRIES: usize = 4096;

/// "No entry" in the head table / "no parent".
const NIL: u64 = u64::MAX;

/// [`UndoEntry::back`] of a vertex's first entry.
const NO_BACK: u32 = 0;

/// What one change overwrote: the state of `vertex` at every version
/// from its previous change up to the one before the entry's own.
/// Packed to 36 bytes; fields are only ever copied out, never borrowed.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct UndoEntry {
    vertex: VertexId,
    old: Value,
    /// Source of the old parent edge `(src → vertex)`, [`NIL`] if none.
    old_parent_src: VertexId,
    old_parent_data: Weight,
    /// How many log entries back this vertex's previous (older) entry
    /// is: [`NO_BACK`] if it has none, `u32::MAX` if it is at least
    /// that far back (see the module doc — then it is no longer
    /// resident, which reads the same).
    back: u32,
}

impl UndoEntry {
    /// The link from an entry at log index `at` to the entry `head`
    /// names.
    fn back_to(head: u64, at: u64) -> u32 {
        if head == NIL {
            NO_BACK
        } else {
            u32::try_from(at - head).unwrap_or(u32::MAX)
        }
    }

    /// Log index of the previous entry of this vertex, given this
    /// entry's own; `None` when there is none within reach.
    fn previous(&self, at: u64) -> Option<u64> {
        let back = self.back;
        (back != NO_BACK && back != u32::MAX).then(|| at - back as u64)
    }

    fn old_parent(&self) -> Option<Edge> {
        let src = self.old_parent_src;
        (src != NIL).then(|| Edge::new(src, self.vertex, self.old_parent_data))
    }
}

/// The entries of one recording version: `count` from log index `first`.
#[derive(Debug, Clone, Copy)]
struct VersionRow {
    version: VersionId,
    first: u64,
    count: u32,
}

/// Versioned history for one algorithm.
pub struct HistoryStore {
    /// The log; segment `i` holds indices `base + i * SEGMENT_ENTRIES ..`.
    /// Every segment but the last is full.
    segments: VecDeque<Vec<UndoEntry>>,
    /// Log index of `segments[0][0]`; indices below it were dropped.
    base: u64,
    /// Log index of the next entry to append.
    next: u64,
    /// Per vertex: log index of its newest entry, or [`NIL`].
    heads: Vec<u64>,
    /// Recording versions `>= low_watermark`, ascending.
    versions: VecDeque<VersionRow>,
    /// Versions `< low_watermark` are garbage (unreadable).
    low_watermark: VersionId,
}

impl HistoryStore {
    /// An empty history over `capacity` vertices.
    pub fn new(capacity: usize) -> Self {
        HistoryStore {
            segments: VecDeque::new(),
            base: 0,
            next: 0,
            heads: vec![NIL; capacity],
            versions: VecDeque::new(),
            low_watermark: 0,
        }
    }

    /// Grow the vertex range.
    pub fn ensure_capacity(&mut self, n: usize) {
        if n > self.heads.len() {
            self.heads.resize(n.next_power_of_two().max(16), NIL);
        }
    }

    /// The resident entry at log index `idx`, `None` if it was dropped
    /// (or `idx` is [`NIL`]).
    #[inline]
    fn entry(&self, idx: u64) -> Option<UndoEntry> {
        // One compare covers NIL, dropped and resident indices alike.
        let rel = idx.wrapping_sub(self.base);
        if rel >= self.next - self.base {
            return None;
        }
        let rel = rel as usize;
        Some(self.segments[rel / SEGMENT_ENTRIES][rel % SEGMENT_ENTRIES])
    }

    /// Record the changes of `version` (newer than every recorded one):
    /// one sequential append and one head store per change.
    pub fn record(&mut self, version: VersionId, changes: &[ChangeRecord]) {
        if changes.is_empty() {
            return;
        }
        debug_assert!(self.versions.back().is_none_or(|r| r.version < version));
        // What lets a saturated back-link read as "none".
        assert!(
            self.next - self.base + (changes.len() as u64) < u32::MAX as u64,
            "resident history window reached 2^32 entries"
        );
        let first = self.next;
        for c in changes {
            self.ensure_capacity(c.vertex as usize + 1);
            // `base` is a segment start and every segment but the last
            // is full, so the log ends on a boundary exactly when there
            // is no segment with room.
            if (self.next - self.base).is_multiple_of(SEGMENT_ENTRIES as u64) {
                self.segments.push_back(Vec::with_capacity(SEGMENT_ENTRIES));
            }
            let head = &mut self.heads[c.vertex as usize];
            let (old_parent_src, old_parent_data) =
                c.old_parent.map_or((NIL, 0), |e| (e.src, e.data));
            self.segments
                .back_mut()
                .expect("a segment with room was just ensured")
                .push(UndoEntry {
                    vertex: c.vertex,
                    old: c.old,
                    old_parent_src,
                    old_parent_data,
                    back: UndoEntry::back_to(*head, self.next),
                });
            *head = self.next;
            self.next += 1;
        }
        self.versions.push_back(VersionRow {
            version,
            first,
            count: u32::try_from(changes.len()).expect("one version changes < 2^32 vertices"),
        });
    }

    /// The oldest undo entry of `v` that belongs to a version newer than
    /// `version`, i.e. the state `v` had at `version` if it changed
    /// since.
    fn undo_at(&self, version: VersionId, v: VertexId) -> Result<Option<UndoEntry>> {
        if version < self.low_watermark {
            return Err(Error::VersionNotFound(version));
        }
        // No resident entry (never changed, or changed only below the
        // watermark): nothing to undo, and no need for the cut.
        let head = self.heads.get(v as usize).copied().unwrap_or(NIL);
        if self.entry(head).is_none() {
            return Ok(None);
        }
        // Entries of versions newer than `version` start here; all of
        // them are resident (module doc).
        let newer = self.versions.partition_point(|r| r.version <= version);
        let cut = self.versions.get(newer).map_or(self.next, |r| r.first);
        let mut found = None;
        let mut next = Some(head);
        while let Some(idx) = next.filter(|&idx| idx >= cut) {
            let entry = self.entry(idx).expect("entries above the cut are resident");
            next = entry.previous(idx);
            found = Some(entry);
        }
        Ok(found)
    }

    /// Value of `v` as of `version`. `current` must be `v`'s live value
    /// (see the module doc); it is the answer when `v` has not changed
    /// since `version`.
    pub fn value_at(&self, version: VersionId, v: VertexId, current: Value) -> Result<Value> {
        Ok(self.undo_at(version, v)?.map_or(current, |e| e.old))
    }

    /// Dependency-tree parent of `v` as of `version` (`current` as for
    /// [`Self::value_at`]).
    pub fn parent_at(
        &self,
        version: VersionId,
        v: VertexId,
        current: Option<Edge>,
    ) -> Result<Option<Edge>> {
        Ok(self
            .undo_at(version, v)?
            .map_or(current, |e| e.old_parent()))
    }

    /// Vertices modified by exactly `version` (empty for versions that
    /// changed nothing, e.g. safe updates), in recorded order.
    pub fn modified_vertices(&self, version: VersionId) -> Result<Vec<VertexId>> {
        if version < self.low_watermark {
            return Err(Error::VersionNotFound(version));
        }
        let at = self.versions.partition_point(|r| r.version < version);
        Ok(match self.versions.get(at) {
            Some(row) if row.version == version => (row.first..row.first + row.count as u64)
                .map(|idx| {
                    self.entry(idx)
                        .expect("indexed entries are resident")
                        .vertex
                })
                .collect(),
            _ => Vec::new(),
        })
    }

    /// Log index of the oldest entry a readable version can still need.
    /// Entries of the watermark version itself serve no value read any
    /// more but still list what that version modified.
    fn live_from(&self) -> u64 {
        self.versions.front().map_or(self.next, |r| r.first)
    }

    /// Advance the GC watermark: versions `< watermark` become
    /// unreadable, their index rows go, and so does every segment whose
    /// entries are all older than `watermark` (§5: "aggressively
    /// recycles them"). Cost is proportional to what is dropped.
    pub fn collect(&mut self, watermark: VersionId) {
        if watermark <= self.low_watermark {
            return;
        }
        self.low_watermark = watermark;
        let dead_rows = self.versions.partition_point(|r| r.version < watermark);
        self.versions.drain(..dead_rows);
        let live_from = self.live_from();
        while self.base + SEGMENT_ENTRIES as u64 <= live_from {
            self.segments.pop_front();
            self.base += SEGMENT_ENTRIES as u64;
        }
    }

    /// The current GC watermark.
    pub fn watermark(&self) -> VersionId {
        self.low_watermark
    }

    /// Undo entries a readable version can still need (diagnostics).
    pub fn chain_entries(&self) -> usize {
        (self.next - self.live_from()) as usize
    }

    /// Number of versions still holding an index row (shrinks when GC
    /// advances the watermark).
    pub fn modified_versions(&self) -> usize {
        self.versions.len()
    }

    /// Approximate heap bytes: whole segments, the head table and the
    /// version index.
    pub fn memory_bytes(&self) -> usize {
        self.segments.len() * SEGMENT_ENTRIES * std::mem::size_of::<UndoEntry>()
            + self.heads.capacity() * std::mem::size_of::<u64>()
            + self.versions.capacity() * std::mem::size_of::<VersionRow>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vertex: VertexId, old: Value, new: Value) -> ChangeRecord {
        ChangeRecord {
            vertex,
            old,
            new,
            old_parent: None,
            new_parent: Some(Edge::new(0, vertex, 7)),
        }
    }

    #[test]
    fn value_at_walks_versions() {
        let mut h = HistoryStore::new(8);
        h.record(5, &[rec(1, 100, 50)]);
        h.record(9, &[rec(1, 50, 25)]);
        let live = 25;
        // Before first change: what the first change overwrote.
        assert_eq!(h.value_at(1, 1, live).unwrap(), 100);
        assert_eq!(h.value_at(4, 1, live).unwrap(), 100);
        // At and after each change.
        assert_eq!(h.value_at(5, 1, live).unwrap(), 50);
        assert_eq!(h.value_at(8, 1, live).unwrap(), 50);
        assert_eq!(h.value_at(9, 1, live).unwrap(), 25);
        assert_eq!(h.value_at(100, 1, live).unwrap(), 25);
    }

    #[test]
    fn untouched_vertices_return_current() {
        let h = HistoryStore::new(8);
        assert_eq!(h.value_at(3, 7, 42).unwrap(), 42);
        assert_eq!(h.parent_at(3, 7, None).unwrap(), None);
    }

    #[test]
    fn parent_history_tracked() {
        let mut h = HistoryStore::new(8);
        h.record(5, &[rec(1, 100, 50)]);
        let live = Some(Edge::new(0, 1, 7));
        assert_eq!(h.parent_at(2, 1, live).unwrap(), None);
        assert_eq!(h.parent_at(5, 1, live).unwrap(), live);
        // An overwritten parent comes back as the edge into the vertex.
        h.record(
            6,
            &[ChangeRecord {
                vertex: 1,
                old: 50,
                new: 40,
                old_parent: live,
                new_parent: Some(Edge::new(3, 1, 2)),
            }],
        );
        assert_eq!(h.parent_at(5, 1, Some(Edge::new(3, 1, 2))).unwrap(), live);
    }

    /// A change that kept its parent still stores it: the live parent
    /// may since have moved between equal candidates with no record (a
    /// rolled-back transaction), and a read through the entry must not
    /// depend on it.
    #[test]
    fn an_entry_answers_without_its_neighbours() {
        let (a, b) = (Edge::new(3, 1, 2), Edge::new(4, 1, 9));
        let change = |old, new, old_parent, new_parent| ChangeRecord {
            vertex: 1,
            old,
            new,
            old_parent,
            new_parent,
        };
        let mut h = HistoryStore::new(8);
        h.record(2, &[change(100, 90, None, Some(a))]);
        h.record(4, &[change(90, 80, Some(a), Some(a))]);
        h.record(6, &[change(80, 70, Some(a), Some(a))]);
        // The live parent is `b` although no recorded change moved it.
        let want = [
            (1, 100, None),
            (2, 90, Some(a)),
            (3, 90, Some(a)),
            (5, 80, Some(a)),
            (6, 70, Some(b)),
        ];
        for (q, value, parent) in want {
            assert_eq!(h.value_at(q, 1, 70).unwrap(), value, "value at {q}");
            assert_eq!(h.parent_at(q, 1, Some(b)).unwrap(), parent, "parent at {q}");
        }
    }

    #[test]
    fn modified_vertices_per_version() {
        let mut h = HistoryStore::new(8);
        h.record(5, &[rec(1, 9, 8), rec(2, 9, 7)]);
        h.record(6, &[rec(3, 9, 6)]);
        assert_eq!(h.modified_vertices(5).unwrap(), vec![1, 2]);
        assert_eq!(h.modified_vertices(6).unwrap(), vec![3]);
        assert!(h.modified_vertices(7).unwrap().is_empty());
    }

    #[test]
    fn gc_makes_old_versions_unreadable() {
        let mut h = HistoryStore::new(8);
        h.record(5, &[rec(1, 100, 50)]);
        h.record(9, &[rec(1, 50, 25)]);
        h.collect(9);
        assert!(matches!(
            h.value_at(5, 1, 25),
            Err(Error::VersionNotFound(5))
        ));
        assert!(matches!(
            h.modified_vertices(5),
            Err(Error::VersionNotFound(5))
        ));
        assert_eq!(h.value_at(9, 1, 25).unwrap(), 25);
        assert_eq!(h.value_at(20, 1, 25).unwrap(), 25);
        // The watermark version itself keeps its modification list.
        assert_eq!(h.modified_vertices(9).unwrap(), vec![1]);
    }

    #[test]
    fn collect_trims_without_waiting_for_a_write() {
        let mut h = HistoryStore::new(8);
        for i in 1..=10u64 {
            h.record(i, &[rec(1, 100 - i + 1, 100 - i)]);
        }
        assert_eq!(h.chain_entries(), 10);
        h.collect(8);
        // Versions 8, 9 and 10 are all a reader can still need.
        assert_eq!(h.chain_entries(), 3);
        assert_eq!(h.modified_versions(), 3);
        h.record(11, &[rec(1, 90, 89)]);
        // Queries at/after the watermark still correct.
        assert_eq!(h.value_at(8, 1, 89).unwrap(), 92);
        assert_eq!(h.value_at(11, 1, 89).unwrap(), 89);
    }

    #[test]
    fn gc_watermark_monotone() {
        let mut h = HistoryStore::new(4);
        h.collect(5);
        h.collect(3); // ignored: watermark never regresses
        assert_eq!(h.watermark(), 5);
    }

    #[test]
    fn empty_changes_record_nothing() {
        let mut h = HistoryStore::new(4);
        h.record(5, &[]);
        assert!(h.modified_vertices(5).unwrap().is_empty());
        assert_eq!(h.chain_entries(), 0);
    }

    #[test]
    fn capacity_grows_on_demand() {
        let mut h = HistoryStore::new(1);
        h.record(2, &[rec(1000, 5, 4)]);
        assert_eq!(h.value_at(2, 1000, 4).unwrap(), 4);
        assert_eq!(h.value_at(1, 1000, 4).unwrap(), 5);
    }

    #[test]
    fn whole_dead_segments_are_dropped() {
        let mut h = HistoryStore::new(4);
        let one_segment = (SEGMENT_ENTRIES * std::mem::size_of::<UndoEntry>()) as i64;
        for i in 1..=2 * SEGMENT_ENTRIES as u64 + 1 {
            h.record(i, &[rec(1, i - 1, i)]);
        }
        let before = h.memory_bytes() as i64;
        // One entry short of the first boundary: nothing can go yet.
        h.collect(SEGMENT_ENTRIES as u64);
        assert_eq!(before - h.memory_bytes() as i64, 0);
        h.collect(SEGMENT_ENTRIES as u64 + 1);
        assert_eq!(before - h.memory_bytes() as i64, one_segment);
        assert_eq!(h.chain_entries(), SEGMENT_ENTRIES + 1);
    }

    #[test]
    fn back_links_saturate_to_none() {
        assert_eq!(std::mem::size_of::<UndoEntry>(), 36);
        let entry = |back| UndoEntry {
            vertex: 1,
            old: 0,
            old_parent_src: NIL,
            old_parent_data: 0,
            back,
        };
        // A first entry, a near one, the farthest one that still fits.
        assert_eq!(UndoEntry::back_to(NIL, 10), NO_BACK);
        assert_eq!(entry(NO_BACK).previous(10), None);
        assert_eq!(UndoEntry::back_to(7, 10), 3);
        assert_eq!(entry(3).previous(10), Some(7));
        let far = u32::MAX as u64 - 1;
        assert_eq!(UndoEntry::back_to(5, 5 + far), u32::MAX - 1);
        assert_eq!(entry(u32::MAX - 1).previous(5 + far), Some(5));
        // One farther, and anything beyond, saturates and reads as none.
        assert_eq!(UndoEntry::back_to(5, 6 + far), u32::MAX);
        assert_eq!(UndoEntry::back_to(5, 1 << 40), u32::MAX);
        assert_eq!(entry(u32::MAX).previous(1 << 40), None);
    }

    /// A log that has already dropped 2³³ entries: vertex 1's previous
    /// entry is too far back to name, vertex 2's is nameable but below
    /// `base`. Both walks end at the one resident entry.
    #[test]
    fn saturated_link_reads_like_a_dropped_one() {
        let base = (1u64 << 33) + SEGMENT_ENTRIES as u64;
        let mut h = HistoryStore::new(4);
        (h.base, h.next) = (base, base);
        h.heads[1] = 5;
        h.heads[2] = base - 10;
        h.collect(40);
        h.record(50, &[rec(1, 11, 12), rec(2, 21, 22)]);
        let back = |i: usize| h.segments[0][i].back;
        assert_eq!((back(0), back(1)), (u32::MAX, 11));
        for q in 40..50 {
            assert_eq!(h.value_at(q, 1, 12).unwrap(), 11);
            assert_eq!(h.value_at(q, 2, 22).unwrap(), 21);
        }
        assert_eq!(h.value_at(50, 1, 12).unwrap(), 12);
        assert_eq!(h.value_at(50, 2, 22).unwrap(), 22);
    }
}
