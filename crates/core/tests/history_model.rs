//! Model-based test of the history store: random `record` / `collect`
//! schedules against a naive oracle that keeps a full value + parent
//! snapshot per version. `value_at`, `parent_at` and
//! `modified_vertices` must agree with the oracle at **every** readable
//! version — the watermark itself included — and answer
//! `VersionNotFound` below it. The deterministic cases force the edges
//! of the segmented log: a version straddling two segments, a
//! collection landing exactly on a segment boundary, a vertex whose
//! only entries were dropped, capacity growth mid-stream, and every
//! resident version of every vertex read across two segment drops whose
//! watermarks fall on versions that recorded nothing. Live parents also
//! move with no record (a rolled-back transaction does that), which no
//! read of an older version may notice.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use risgraph_common::ids::{Edge, VersionId, VertexId};
use risgraph_common::Error;
use risgraph_core::history::{HistoryStore, SEGMENT_ENTRIES};
use risgraph_core::{ChangeRecord, Value};

type State = (Value, Option<Edge>);

/// The store under test beside the oracle.
struct Model {
    store: HistoryStore,
    /// The live state the engine would hold.
    live: Vec<State>,
    /// `snapshots[v]` is every vertex's state as of version `v`.
    snapshots: Vec<Vec<State>>,
    /// `modified[v]` is what version `v` changed, in recorded order.
    modified: Vec<Vec<VertexId>>,
    watermark: VersionId,
}

impl Model {
    fn new(store_capacity: usize, vertices: usize) -> Self {
        let live: Vec<State> = (0..vertices as u64).map(|v| (v, None)).collect();
        Model {
            store: HistoryStore::new(store_capacity),
            snapshots: vec![live.clone()],
            modified: vec![Vec::new()],
            live,
            watermark: 0,
        }
    }

    fn latest(&self) -> VersionId {
        self.snapshots.len() as u64 - 1
    }

    /// A version that changes no result (a safe update).
    fn bump(&mut self) {
        self.snapshots.push(self.live.clone());
        self.modified.push(Vec::new());
    }

    /// The next version changes `vertices` (distinct) to fresh states.
    fn record(&mut self, vertices: &[VertexId], rng: &mut StdRng) {
        let version = self.latest() + 1;
        let changes: Vec<ChangeRecord> = vertices
            .iter()
            .map(|&v| {
                let (old, old_parent) = self.live[v as usize];
                // Four changes in ten keep their parent (a value
                // re-derived through the same tree edge), the rest move
                // it to a random edge or to nothing.
                let new_parent = if rng.gen_bool(0.4) {
                    old_parent
                } else {
                    rng.gen_bool(0.8)
                        .then(|| Edge::new(rng.gen_range(0..64), v, rng.gen_range(0..9)))
                };
                // Unlike every earlier value of `v`, the initial one included.
                let new = version * 1_000 + v;
                self.live[v as usize] = (new, new_parent);
                ChangeRecord {
                    vertex: v,
                    old,
                    new,
                    old_parent,
                    new_parent,
                }
            })
            .collect();
        self.store.record(version, &changes);
        self.snapshots.push(self.live.clone());
        self.modified.push(vertices.to_vec());
    }

    /// The live parent of `v` moves with no record, as when a rolled-back
    /// transaction settles on an equal candidate: versions since `v`'s
    /// last change read the live state, older ones must not notice.
    fn drift(&mut self, v: VertexId, rng: &mut StdRng) {
        let v = v as usize;
        let value = self.live[v].0;
        let parent = Some(Edge::new(rng.gen_range(64..128), v as u64, 0));
        self.live[v].1 = parent;
        for snapshot in self.snapshots.iter_mut().rev() {
            if snapshot[v].0 != value {
                break;
            }
            snapshot[v].1 = parent;
        }
    }

    fn collect(&mut self, watermark: VersionId) {
        self.store.collect(watermark);
        self.watermark = self.watermark.max(watermark);
        assert_eq!(self.store.watermark(), self.watermark);
    }

    /// Every version from 0 to past the latest, every vertex.
    fn check(&self) {
        for q in 0..=self.latest() + 2 {
            if q < self.watermark {
                let v = q % self.live.len() as u64;
                let (value, parent) = self.live[v as usize];
                assert!(matches!(
                    self.store.value_at(q, v, value),
                    Err(Error::VersionNotFound(x)) if x == q
                ));
                assert!(matches!(
                    self.store.parent_at(q, v, parent),
                    Err(Error::VersionNotFound(x)) if x == q
                ));
                assert!(matches!(
                    self.store.modified_vertices(q),
                    Err(Error::VersionNotFound(x)) if x == q
                ));
                continue;
            }
            let at = q.min(self.latest()) as usize;
            for (v, &(value, parent)) in self.live.iter().enumerate() {
                let expect = self.snapshots[at][v];
                let got = (
                    self.store.value_at(q, v as u64, value).unwrap(),
                    self.store.parent_at(q, v as u64, parent).unwrap(),
                );
                assert_eq!(
                    got, expect,
                    "vertex {v} at version {q} (watermark {})",
                    self.watermark
                );
            }
            let expect: &[VertexId] = self.modified.get(q as usize).map_or(&[], |m| m);
            assert_eq!(
                self.store.modified_vertices(q).unwrap(),
                expect,
                "modified_vertices({q}) (watermark {})",
                self.watermark
            );
        }
    }
}

/// `count` distinct vertices out of the first `universe`.
fn pick(universe: usize, count: usize, rng: &mut StdRng) -> Vec<VertexId> {
    let mut all: Vec<VertexId> = (0..universe as u64).collect();
    all.shuffle(rng);
    all.truncate(count);
    all
}

#[test]
fn random_schedules_agree_with_snapshot_oracle() {
    const VERTICES: usize = 48;
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5e9_0000 + seed);
        // The store starts smaller than the vertex range and the range
        // itself widens as the schedule runs: growth happens mid-stream.
        let mut m = Model::new(4, VERTICES);
        for step in 0..400usize {
            let universe = (4 + step / 4).min(VERTICES);
            match rng.gen_range(0..100) {
                0..=11 => m.bump(),
                20..=23 => m.drift(rng.gen_range(0..universe as u64), &mut rng),
                12..=19 => {
                    // Anywhere from a no-op (≤ current watermark) to
                    // past the newest version (everything dead).
                    let w = rng.gen_range(0..=m.latest() + 1);
                    m.collect(w);
                    m.check();
                }
                _ => {
                    let count = rng.gen_range(1..=universe);
                    let vs = pick(universe, count, &mut rng);
                    m.record(&vs, &mut rng);
                }
            }
        }
        m.check();
        // Releasing everything leaves only live answers.
        m.collect(m.latest());
        m.check();
    }
}

#[test]
fn version_straddling_two_segments_reads_whole() {
    let mut rng = StdRng::seed_from_u64(1);
    let per_version = 1_000;
    let mut m = Model::new(16, 1_024);
    // Version 5 occupies log entries 4000..5000, across the boundary.
    for _ in 0..6 {
        let vs = pick(1_024, per_version, &mut rng);
        m.record(&vs, &mut rng);
    }
    assert!(4 * per_version < SEGMENT_ENTRIES && SEGMENT_ENTRIES < 5 * per_version);
    assert_eq!(m.store.modified_vertices(5).unwrap().len(), per_version);
    m.check();
    // While the straddler is readable its older half keeps the whole
    // first segment; one version later that segment goes and the
    // second one starts with the straddler's dead younger half.
    let full = m.store.memory_bytes();
    m.collect(5);
    assert_eq!(m.store.memory_bytes(), full);
    m.check();
    m.collect(6);
    assert!(m.store.memory_bytes() < full);
    m.check();
}

#[test]
fn collect_landing_on_a_segment_boundary_drops_exactly_that_segment() {
    let mut rng = StdRng::seed_from_u64(2);
    let per_version = 64;
    let versions_per_segment = (SEGMENT_ENTRIES / per_version) as u64;
    let mut m = Model::new(64, 64);
    for _ in 0..2 * versions_per_segment + 3 {
        let vs = pick(64, per_version, &mut rng);
        m.record(&vs, &mut rng);
    }
    let full = m.store.memory_bytes();
    // The last version of the first segment is still readable: its
    // entries keep the whole segment.
    m.collect(versions_per_segment);
    assert_eq!(m.store.memory_bytes(), full);
    m.check();
    // One version later the first live entry is the first of segment 1.
    m.collect(versions_per_segment + 1);
    let after_one = m.store.memory_bytes();
    assert!(after_one < full, "the dead segment was not dropped");
    assert_eq!(
        m.store.chain_entries(),
        SEGMENT_ENTRIES + 3 * per_version,
        "entries from the boundary on stay reachable"
    );
    m.check();
    m.collect(2 * versions_per_segment + 1);
    assert_eq!(full - after_one, after_one - m.store.memory_bytes());
    m.check();
}

#[test]
fn vertex_whose_only_entries_were_dropped_answers_live() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut m = Model::new(1, 40);
    // Vertex 39 changes once, at version 1, on a store that has to grow
    // for it; after that only vertices 0..32 change.
    m.record(&[39], &mut rng);
    let versions = (SEGMENT_ENTRIES / 32) as u64 + 2;
    for _ in 0..versions {
        let vs = pick(32, 32, &mut rng);
        m.record(&vs, &mut rng);
    }
    m.check();
    m.collect(versions);
    assert!(
        m.store.chain_entries() < SEGMENT_ENTRIES,
        "the segment holding vertex 39's entry should be gone"
    );
    let (value, parent) = m.live[39];
    for q in versions..=m.latest() {
        assert_eq!(m.store.value_at(q, 39, value).unwrap(), value);
        assert_eq!(m.store.parent_at(q, 39, parent).unwrap(), parent);
    }
    m.check();
    // It changes again: the new entry's link to the dropped one must
    // read as "nothing older".
    m.record(&[39], &mut rng);
    m.check();
}

/// A read turns its version into a cut index through the version rows.
/// Here only every other version records (the others are safe updates),
/// each recording version is 700 entries — so the segment boundaries
/// fall *inside* versions 11 and 23 — and both collections land on a
/// version without a row, behind a version that straddles a boundary.
/// After each step every resident version of every vertex is read: a
/// cut that is off by one row answers a whole version's worth of
/// vertices from the wrong side of a change.
#[test]
fn every_resident_version_reads_right_across_two_segment_drops() {
    let mut rng = StdRng::seed_from_u64(4);
    let per_version = 700;
    let mut m = Model::new(16, 1_024);
    let mut record_pairs = |m: &mut Model, pairs: usize| {
        for _ in 0..pairs {
            let vs = pick(1_024, per_version, &mut rng);
            m.record(&vs, &mut rng);
            m.bump();
        }
    };
    // Versions 1, 3, …, 27 record; entries 0..9800, 2.4 segments.
    record_pairs(&mut m, 14);
    assert!(5 * per_version < SEGMENT_ENTRIES && SEGMENT_ENTRIES < 6 * per_version);
    m.check();
    let three_segments = m.store.memory_bytes();

    // Watermark 12 recorded nothing; version 11, just below it, owns
    // entries 3500..4200. Its row goes, segment 0 goes with it, and
    // the log now starts with version 11's dead younger half.
    m.collect(12);
    let two_segments = m.store.memory_bytes();
    assert!(two_segments < three_segments, "segment 0 was not dropped");
    assert_eq!(m.store.chain_entries(), 14 * per_version - 6 * per_version);
    m.check();

    // More history on top of the shortened log, then the same again one
    // segment later: version 23 owns 7700..8400.
    record_pairs(&mut m, 6);
    m.check();
    let before = m.store.memory_bytes();
    m.collect(24);
    assert_eq!(
        before - m.store.memory_bytes(),
        three_segments - two_segments,
        "exactly segment 1 goes"
    );
    m.check();

    // Every vertex changes once more: each new entry links back over
    // whatever the drops left of its chain.
    let all: Vec<VertexId> = (0..1_024).collect();
    m.record(&all, &mut rng);
    m.check();
}

/// The log's footprint per entry, in the layer harness's shape (2 000
/// versions of 64 changes): 36-byte entries plus the head table, the
/// version rows and the unfilled tail of the last segment.
#[test]
fn resident_bytes_per_entry_stay_within_38() {
    const VERTICES: u64 = 8_192;
    let mut store = HistoryStore::new(VERTICES as usize);
    for version in 1..=2_000u64 {
        let changes: Vec<ChangeRecord> = (0..64)
            .map(|k| ChangeRecord {
                vertex: (version * 131 + k * 7) % VERTICES,
                old: version,
                new: version + 1,
                old_parent: None,
                new_parent: Some(Edge::new(0, 1, version)),
            })
            .collect();
        store.record(version, &changes);
    }
    let entries = store.chain_entries();
    assert_eq!(entries, 2_000 * 64);
    let per_entry = store.memory_bytes() as f64 / entries as f64;
    assert!(per_entry <= 38.0, "{per_entry:.1} bytes per entry");
}
