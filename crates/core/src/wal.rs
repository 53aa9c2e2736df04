//! Write-ahead logging (§2: "Optionally, RisGraph provides durability
//! with write-ahead logs (WAL)") — segmented, checkpointed, and
//! truncated so restart cost is proportional to the delta since the
//! last checkpoint, not since genesis.
//!
//! # On-disk layout
//!
//! The WAL path given to the server (`<wal>`) holds a tiny CRC'd
//! **manifest** (magic `RISWALM1`) naming the first and active
//! **segments**; the records themselves live in `<wal>.seg-NNNNNNNN`
//! files. A pre-segmentation single-file log is migrated on open by
//! renaming it to segment 0. Checkpoints write a **snapshot**
//! (`<wal>.snapshot`, magic `RISSNAP1`) carrying the full store
//! structure as a synthetic update batch plus every algorithm's
//! dependency-tree result state; segments older than the snapshot are
//! deleted and the manifest's first segment advances.
//!
//! Record layout within a segment: `[len: u32 LE][crc32: u32 LE]
//! [payload]`, where the payload encodes one update batch as
//! `[count: u32 LE]` plus the updates in the wire protocol's encoding
//! ([`risgraph_common::protocol::put_update`]: an opcode byte `1`–`4`,
//! then little-endian `u64` fields) — the body of a transaction
//! request, byte for byte. Snapshot structure sections use the same
//! form. The server
//! writes **one merged record per epoch** — every shard's safe-phase
//! log plus the serial unsafe updates, sorted by a global
//! application-order stamp drawn inside the store's per-edge
//! serialization, so the record is the *actual* execution order (not
//! merely a valid linearization). Epochs larger than
//! [`MAX_WAL_RECORD_UPDATES`] are split across records (never silently
//! truncating the `u32` header fields), so recovery granularity is the
//! record, which is the epoch whenever the epoch fits.
//!
//! # Recovery contract
//!
//! [`WalWriter::recover`] replays the snapshot (if any) plus every
//! retained segment, stops at the first torn or corrupt record, and —
//! crucially — **physically truncates** the damaged segment to the end
//! of the last valid record (and deletes any later segments) before
//! reopening for append. Without the truncation, records appended
//! after a crash-recovery would land *behind* the garbage tail and be
//! silently lost on the next restart. Directory entries are fsynced on
//! create/rotate so a freshly created segment cannot vanish with a
//! power cut.
//!
//! Flushing follows the epoch loop's group-commit: `append` buffers,
//! [`WalWriter::sync`] flushes and fsyncs on the group-commit cadence
//! (Figure 11b charges 14.0% of wall time to WAL, which the breakdown
//! bench reproduces).

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use risgraph_common::crc::crc32;
use risgraph_common::ids::Update;
use risgraph_common::protocol::{decode_updates, put_update as encode_update};
use risgraph_common::{Error, Result};

use crate::tree::VertexState;

/// Per-record update cap: epochs larger than this are split across
/// records so the `u32` header fields can never wrap (25 bytes/update
/// keeps a full record far below `u32::MAX` payload bytes).
pub const MAX_WAL_RECORD_UPDATES: usize = 1 << 20;

const MANIFEST_MAGIC: &[u8; 8] = b"RISWALM1";
const SNAPSHOT_MAGIC: &[u8; 8] = b"RISSNAP1";
const MANIFEST_VERSION: u32 = 1;
const SNAPSHOT_VERSION: u32 = 1;

/// Snapshot section tags (one per CRC'd record in the snapshot file).
const SNAP_META: u8 = 1;
const SNAP_STRUCT: u8 = 2;
const SNAP_RESULTS: u8 = 3;
const SNAP_END: u8 = 4;

/// Updates per structure chunk / states per result chunk in a
/// snapshot file.
const SNAP_CHUNK: usize = 1 << 16;

/// Decode one CRC-validated record payload (`[count u32][updates…]`)
/// into an update batch; a forged count field fails before anything is
/// allocated.
fn decode_batch(payload: &[u8]) -> Result<Vec<Update>> {
    decode_updates(payload).map_err(|e| Error::Wal(format!("bad record: {e}")))
}

/// `<base><suffix>` as a sibling path (keeps the base's extension).
fn sibling(base: &Path, suffix: &str) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// Path of segment `seg` of the log at `base`.
pub fn segment_path(base: impl AsRef<Path>, seg: u64) -> PathBuf {
    sibling(base.as_ref(), &format!(".seg-{seg:08}"))
}

/// Path of the snapshot of the log at `base`.
pub fn snapshot_path(base: impl AsRef<Path>) -> PathBuf {
    sibling(base.as_ref(), ".snapshot")
}

/// fsync the directory containing `path`, making renames and freshly
/// created entries durable.
fn sync_dir(path: &Path) -> Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Durably write `bytes` to `path` via a temp file + rename + parent
/// directory fsync (the snapshot/manifest atomicity primitive).
fn atomic_write(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = sibling(path, ".tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_dir(path)?;
    Ok(())
}

/// The CRC'd manifest at the WAL base path: which segments exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Oldest retained segment (replay starts here absent a snapshot).
    pub first_seg: u64,
    /// Segment currently open for append.
    pub active_seg: u64,
}

fn write_manifest(base: &Path, m: &Manifest) -> Result<()> {
    let mut payload = BytesMut::new();
    payload.put_u32_le(MANIFEST_VERSION);
    payload.put_u64_le(m.first_seg);
    payload.put_u64_le(m.active_seg);
    let mut buf = Vec::with_capacity(16 + payload.len());
    buf.extend_from_slice(MANIFEST_MAGIC);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(&payload).to_le_bytes());
    buf.extend_from_slice(&payload);
    atomic_write(base, &buf)
}

/// Read the manifest at `base`. `Ok(None)` means the path holds a
/// pre-segmentation raw log (or nothing); a present-but-corrupt
/// manifest is an error.
pub fn read_manifest(base: impl AsRef<Path>) -> Result<Option<Manifest>> {
    let mut data = Vec::new();
    match File::open(base.as_ref()) {
        Ok(mut f) => {
            f.read_to_end(&mut data)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    if data.len() < 8 || &data[..8] != MANIFEST_MAGIC {
        return Ok(None); // legacy single-file log
    }
    if data.len() < 16 {
        return Err(Error::Wal("truncated wal manifest".into()));
    }
    let len = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(data[12..16].try_into().unwrap());
    if data.len() < 16 + len {
        return Err(Error::Wal("truncated wal manifest".into()));
    }
    let payload = &data[16..16 + len];
    if crc32(payload) != crc {
        return Err(Error::Wal("wal manifest checksum mismatch".into()));
    }
    let mut buf = Bytes::copy_from_slice(payload);
    if buf.remaining() < 20 {
        return Err(Error::Wal("wal manifest too short".into()));
    }
    let version = buf.get_u32_le();
    if version != MANIFEST_VERSION {
        return Err(Error::Wal(format!(
            "unknown wal manifest version {version}"
        )));
    }
    let first_seg = buf.get_u64_le();
    let active_seg = buf.get_u64_le();
    if first_seg > active_seg {
        return Err(Error::Wal(
            "wal manifest first segment beyond active".into(),
        ));
    }
    Ok(Some(Manifest {
        first_seg,
        active_seg,
    }))
}

/// One algorithm's dependency-tree state for one vertex, as persisted
/// in a checkpoint snapshot: the tree's own state, 24 bytes on disk.
pub type ResultState = VertexState;

/// A checkpoint snapshot: the full store structure as a synthetic
/// update batch plus per-algorithm result state, with the replay
/// resume coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Replay continues from this segment (everything older is
    /// covered by the snapshot).
    pub start_seg: u64,
    /// Replication-feed index the snapshot state corresponds to —
    /// a fresh follower bootstrapping from it resumes here.
    pub cut_index: u64,
    /// Leader version at the cut.
    pub cut_version: u64,
    /// Vertex-id upper bound at capture (`ensure_capacity` target).
    pub upper_bound: u64,
    /// Live structure: one `InsVertex` per live vertex (isolated
    /// vertices survive), then every edge repeated by multiplicity.
    pub updates: Vec<Update>,
    /// Per-algorithm result state for vertices `0..upper_bound`
    /// (empty ⇒ structure-only; the restorer recomputes instead).
    pub results: Vec<Vec<ResultState>>,
}

/// Write `snap` durably to the snapshot path of the log at `base`
/// (temp file + rename + directory fsync, so readers only ever see a
/// complete snapshot).
pub fn write_snapshot(base: impl AsRef<Path>, snap: &Snapshot) -> Result<()> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    let mut scratch = BytesMut::new();

    let put_record = |out: &mut Vec<u8>, payload: &[u8]| {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    };

    scratch.clear();
    scratch.put_u8(SNAP_META);
    scratch.put_u32_le(SNAPSHOT_VERSION);
    scratch.put_u64_le(snap.start_seg);
    scratch.put_u64_le(snap.cut_index);
    scratch.put_u64_le(snap.cut_version);
    scratch.put_u64_le(snap.upper_bound);
    scratch.put_u32_le(snap.results.len() as u32);
    put_record(&mut out, &scratch);

    for chunk in snap.updates.chunks(SNAP_CHUNK) {
        scratch.clear();
        scratch.put_u8(SNAP_STRUCT);
        scratch.put_u32_le(chunk.len() as u32);
        for u in chunk {
            encode_update(&mut scratch, u);
        }
        put_record(&mut out, &scratch);
    }

    for (algo, states) in snap.results.iter().enumerate() {
        let mut start = 0u64;
        // Emit at least one chunk per algorithm so the reader can
        // validate the per-algo state length even when it is zero.
        loop {
            let chunk = &states[start as usize..states.len().min(start as usize + SNAP_CHUNK)];
            scratch.clear();
            scratch.put_u8(SNAP_RESULTS);
            scratch.put_u32_le(algo as u32);
            scratch.put_u64_le(start);
            scratch.put_u32_le(chunk.len() as u32);
            for s in chunk {
                scratch.put_u64_le(s.value);
                scratch.put_u64_le(s.parent_src);
                scratch.put_u64_le(s.parent_data);
            }
            put_record(&mut out, &scratch);
            start += chunk.len() as u64;
            if start as usize >= states.len() {
                break;
            }
        }
    }

    scratch.clear();
    scratch.put_u8(SNAP_END);
    put_record(&mut out, &scratch);

    atomic_write(&snapshot_path(base), &out)
}

/// Read the snapshot of the log at `base`. `Ok(None)` when none has
/// been written; a present-but-damaged snapshot is an error (the file
/// is written atomically, so damage means real corruption — replay
/// cannot silently fall back, the pre-snapshot segments are gone).
pub fn read_snapshot(base: impl AsRef<Path>) -> Result<Option<Snapshot>> {
    let path = snapshot_path(base);
    let mut data = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut data)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    if data.len() < 8 || &data[..8] != SNAPSHOT_MAGIC {
        return Err(Error::Wal("bad snapshot magic".into()));
    }
    let corrupt = |what: &str| Error::Wal(format!("corrupt snapshot: {what}"));
    let mut snap = Snapshot::default();
    let mut seen_meta = false;
    let mut seen_end = false;
    let mut pos = 8usize;
    while pos + 8 <= data.len() {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if pos + 8 + len > data.len() {
            return Err(corrupt("torn record"));
        }
        let payload = &data[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            return Err(corrupt("record checksum mismatch"));
        }
        pos += 8 + len;
        let mut buf = Bytes::copy_from_slice(payload);
        if buf.remaining() < 1 {
            return Err(corrupt("empty record"));
        }
        match buf.get_u8() {
            SNAP_META => {
                if seen_meta || buf.remaining() < 4 + 8 * 4 + 4 {
                    return Err(corrupt("bad meta record"));
                }
                let version = buf.get_u32_le();
                if version != SNAPSHOT_VERSION {
                    return Err(corrupt(&format!("unknown version {version}")));
                }
                snap.start_seg = buf.get_u64_le();
                snap.cut_index = buf.get_u64_le();
                snap.cut_version = buf.get_u64_le();
                snap.upper_bound = buf.get_u64_le();
                let num_algos = buf.get_u32_le() as usize;
                if num_algos > 1024 {
                    return Err(corrupt("absurd algorithm count"));
                }
                snap.results = vec![Vec::new(); num_algos];
                seen_meta = true;
            }
            SNAP_STRUCT => {
                if !seen_meta {
                    return Err(corrupt("structure before meta"));
                }
                snap.updates
                    .extend(decode_batch(&payload[1..]).map_err(|e| corrupt(&e.to_string()))?);
            }
            SNAP_RESULTS => {
                if !seen_meta || buf.remaining() < 16 {
                    return Err(corrupt("bad results record"));
                }
                let algo = buf.get_u32_le() as usize;
                let start = buf.get_u64_le() as usize;
                let count = buf.get_u32_le() as usize;
                if algo >= snap.results.len()
                    || count > buf.remaining() / 24
                    || start != snap.results[algo].len()
                    || start + count > snap.upper_bound as usize
                {
                    return Err(corrupt("results record out of bounds"));
                }
                let states = &mut snap.results[algo];
                states.reserve(count);
                for _ in 0..count {
                    states.push(ResultState {
                        value: buf.get_u64_le(),
                        parent_src: buf.get_u64_le(),
                        parent_data: buf.get_u64_le(),
                    });
                }
            }
            SNAP_END => {
                if !seen_meta {
                    return Err(corrupt("end before meta"));
                }
                seen_end = true;
                break;
            }
            other => return Err(corrupt(&format!("unknown section tag {other}"))),
        }
    }
    if !seen_end {
        return Err(corrupt("missing end record"));
    }
    Ok(Some(snap))
}

/// What [`WalWriter::recover`] found on disk.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// The latest checkpoint snapshot, if one exists.
    pub snapshot: Option<Snapshot>,
    /// Update batches replayed from the retained segments, in record
    /// order (post-snapshot only when a snapshot exists).
    pub batches: Vec<Vec<Update>>,
    /// How many records the segments yielded (the restart-cost
    /// counter surfaced as `ServerStats::wal_replayed_records`).
    pub replayed_records: u64,
    /// First segment replayed.
    pub start_seg: u64,
}

/// Appending side of the log.
pub struct WalWriter {
    base: PathBuf,
    writer: BufWriter<File>,
    scratch: BytesMut,
    records: u64,
    first_seg: u64,
    active_seg: u64,
    active_bytes: u64,
    max_segment_bytes: u64,
    rotate_ns: u64,
}

impl WalWriter {
    /// Open (or create) a log for appending, discarding whatever a
    /// recovery would have replayed. Prefer [`WalWriter::recover`] —
    /// this exists for write-only uses (benches, fresh logs).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::recover(path, 0).map(|(_, w)| w)
    }

    /// Recover the log at `path`: migrate a legacy single-file log,
    /// read the snapshot and replay the retained segments, physically
    /// truncate the torn tail (and drop unreachable later segments),
    /// then reopen the active segment for append. `max_segment_bytes`
    /// of zero disables rotation.
    pub fn recover(
        path: impl AsRef<Path>,
        max_segment_bytes: u64,
    ) -> Result<(WalRecovery, WalWriter)> {
        let base = path.as_ref().to_path_buf();
        let mut manifest = match read_manifest(&base)? {
            Some(m) => m,
            None => {
                // Legacy raw log (pre-segmentation) → segment 0.
                if base.exists() {
                    std::fs::rename(&base, segment_path(&base, 0))?;
                }
                let m = Manifest {
                    first_seg: 0,
                    active_seg: 0,
                };
                write_manifest(&base, &m)?;
                m
            }
        };

        let snapshot = read_snapshot(&base)?;
        let start_seg = snapshot
            .as_ref()
            .map(|s| s.start_seg)
            .unwrap_or(manifest.first_seg)
            .max(manifest.first_seg);

        let mut recovery = WalRecovery {
            snapshot,
            start_seg,
            ..Default::default()
        };
        let mut active = manifest.active_seg.max(start_seg);
        'segments: for seg in start_seg..=manifest.active_seg.max(start_seg) {
            let seg_file = segment_path(&base, seg);
            let mut data = Vec::new();
            match File::open(&seg_file) {
                Ok(mut f) => {
                    f.read_to_end(&mut data)?;
                }
                // Only the active segment may be missing (created
                // lazily below); a hole in the middle is corruption.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    if seg == manifest.active_seg.max(start_seg) {
                        break;
                    }
                    return Err(Error::Wal(format!(
                        "missing wal segment {seg} ({})",
                        seg_file.display()
                    )));
                }
                Err(e) => return Err(e.into()),
            }
            let mut pos = 0usize;
            loop {
                if pos + 8 > data.len() {
                    break;
                }
                let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
                let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
                let torn =
                    pos + 8 + len > data.len() || crc32(&data[pos + 8..pos + 8 + len]) != crc;
                if torn {
                    // The torn-tail fix: cut the segment back to the
                    // last valid record *on disk* so post-recovery
                    // appends land right here, not behind garbage —
                    // and drop any (unreachable) later segments.
                    let f = OpenOptions::new().write(true).open(&seg_file)?;
                    f.set_len(pos as u64)?;
                    f.sync_all()?;
                    for later in seg + 1..=manifest.active_seg {
                        let _ = std::fs::remove_file(segment_path(&base, later));
                    }
                    active = seg;
                    break 'segments;
                }
                recovery
                    .batches
                    .push(decode_batch(&data[pos + 8..pos + 8 + len])?);
                recovery.replayed_records += 1;
                pos += 8 + len;
            }
            if pos != data.len() {
                // Trailing garbage shorter than a header.
                let f = OpenOptions::new().write(true).open(&seg_file)?;
                f.set_len(pos as u64)?;
                f.sync_all()?;
                for later in seg + 1..=manifest.active_seg {
                    let _ = std::fs::remove_file(segment_path(&base, later));
                }
                active = seg;
                break;
            }
            active = seg;
        }

        if manifest.active_seg != active || manifest.first_seg > active {
            manifest.active_seg = active;
            manifest.first_seg = manifest.first_seg.min(active);
            write_manifest(&base, &manifest)?;
        }

        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&base, active))?;
        let active_bytes = file.metadata()?.len();
        // Make a freshly created segment's directory entry durable.
        sync_dir(&base)?;

        let writer = WalWriter {
            base,
            writer: BufWriter::new(file),
            scratch: BytesMut::new(),
            records: 0,
            first_seg: manifest.first_seg,
            active_seg: active,
            active_bytes,
            max_segment_bytes,
            rotate_ns: 0,
        };
        Ok((recovery, writer))
    }

    /// Buffer one batch (one epoch's merged record) into the active
    /// segment, splitting batches larger than
    /// [`MAX_WAL_RECORD_UPDATES`] across records, then rotate if the
    /// segment is over its size budget.
    pub fn append(&mut self, updates: &[Update]) -> Result<()> {
        if updates.is_empty() {
            self.append_record(updates)?;
        } else {
            for chunk in updates.chunks(MAX_WAL_RECORD_UPDATES) {
                self.append_record(chunk)?;
            }
        }
        if self.max_segment_bytes > 0 && self.active_bytes >= self.max_segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    fn append_record(&mut self, updates: &[Update]) -> Result<()> {
        debug_assert!(updates.len() <= MAX_WAL_RECORD_UPDATES);
        self.scratch.clear();
        self.scratch.put_u32_le(updates.len() as u32);
        for u in updates {
            encode_update(&mut self.scratch, u);
        }
        let crc = crc32(&self.scratch);
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&(self.scratch.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc.to_le_bytes());
        self.writer.write_all(&header)?;
        self.writer.write_all(&self.scratch)?;
        self.active_bytes += 8 + self.scratch.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Group commit: flush buffers and fsync the active segment.
    pub fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    /// Seal the active segment (flush + fsync) and open the next one,
    /// fsyncing the directory entry and updating the manifest.
    /// Returns the new active segment number.
    pub fn rotate(&mut self) -> Result<u64> {
        let t = std::time::Instant::now();
        self.sync()?;
        let next = self.active_seg + 1;
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(&self.base, next))?;
        sync_dir(&self.base)?;
        self.writer = BufWriter::new(file);
        self.active_seg = next;
        self.active_bytes = 0;
        write_manifest(
            &self.base,
            &Manifest {
                first_seg: self.first_seg,
                active_seg: next,
            },
        )?;
        self.rotate_ns += t.elapsed().as_nanos() as u64;
        Ok(next)
    }

    /// Advance the retention floor to `seg` (after a snapshot covering
    /// everything older has become durable): update the manifest, then
    /// delete the older segment files.
    pub fn truncate_to(&mut self, seg: u64) -> Result<()> {
        assert!(
            seg <= self.active_seg,
            "cannot truncate past the active segment"
        );
        if seg <= self.first_seg {
            return Ok(());
        }
        write_manifest(
            &self.base,
            &Manifest {
                first_seg: seg,
                active_seg: self.active_seg,
            },
        )?;
        for old in self.first_seg..seg {
            let _ = std::fs::remove_file(segment_path(&self.base, old));
        }
        self.first_seg = seg;
        sync_dir(&self.base)?;
        Ok(())
    }

    /// Records appended since open.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The configured log base path (manifest location; segments and
    /// the snapshot are its siblings).
    pub fn base(&self) -> &Path {
        &self.base
    }

    /// Segment currently open for append.
    pub fn active_segment(&self) -> u64 {
        self.active_seg
    }

    /// Oldest retained segment.
    pub fn first_segment(&self) -> u64 {
        self.first_seg
    }

    /// Sealed segments retained behind the active one — the
    /// checkpoint-pressure signal (grows with every rotation, resets
    /// to zero when a checkpoint truncates).
    pub fn segment_lag(&self) -> u64 {
        self.active_seg - self.first_seg
    }

    /// Bytes buffered or written into the active segment.
    pub fn active_bytes(&self) -> u64 {
        self.active_bytes
    }

    /// Cumulative wall-clock time spent in [`rotate`](Self::rotate)
    /// since open. Rotation fires *inside* [`append`](Self::append)
    /// when the segment crosses its budget, so the epoch tracer
    /// recovers per-epoch rotation spans from deltas of this clock.
    pub fn rotate_ns(&self) -> u64 {
        self.rotate_ns
    }
}

/// Read-only replay of the log at `path`: the snapshot's structure
/// batch (if a snapshot exists) followed by each retained record's
/// update batch, stopping silently at a torn tail (without modifying
/// the files — [`WalWriter::recover`] is the mutating path). Applying
/// the batches in order to an empty store reproduces the recovered
/// structure; result state from the snapshot is not included.
pub fn replay(path: impl AsRef<Path>) -> Result<Vec<Vec<Update>>> {
    let base = path.as_ref();
    let manifest = match read_manifest(base)? {
        Some(m) => m,
        None => {
            // Legacy raw log (or nothing at all).
            return match std::fs::metadata(base) {
                Ok(_) => replay_segment_file(base),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
                Err(e) => Err(e.into()),
            };
        }
    };
    let snapshot = read_snapshot(base)?;
    let mut out = Vec::new();
    let start = snapshot
        .as_ref()
        .map(|s| s.start_seg)
        .unwrap_or(manifest.first_seg)
        .max(manifest.first_seg);
    if let Some(snap) = snapshot {
        if !snap.updates.is_empty() {
            out.push(snap.updates);
        }
    }
    for seg in start..=manifest.active_seg.max(start) {
        let seg_file = segment_path(base, seg);
        if !seg_file.exists() {
            break; // lazily created active segment
        }
        out.append(&mut replay_segment_file(&seg_file)?);
    }
    Ok(out)
}

/// Replay one record-stream file, stopping silently at a torn tail.
fn replay_segment_file(path: &Path) -> Result<Vec<Vec<Update>>> {
    let mut data = Vec::new();
    let mut f = File::open(path)?;
    f.read_to_end(&mut data)?;
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= data.len() {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if pos + 8 + len > data.len() {
            break; // torn tail
        }
        let payload = &data[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break; // torn/corrupt tail: stop replay here
        }
        out.push(decode_batch(payload)?);
        pos += 8 + len;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use risgraph_common::ids::Edge;
    use risgraph_common::protocol::Request;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("risgraph-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.wal", std::process::id()));
        cleanup(&p);
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(snapshot_path(p));
        for seg in 0..64 {
            let _ = std::fs::remove_file(segment_path(p, seg));
        }
    }

    #[test]
    fn roundtrip_all_update_kinds() {
        let path = tmp("roundtrip");
        let batches = vec![
            vec![Update::InsEdge(Edge::new(1, 2, 3))],
            vec![Update::DelEdge(Edge::new(4, 5, 6)), Update::InsVertex(7)],
            vec![Update::DelVertex(8)],
        ];
        {
            let mut w = WalWriter::open(&path).unwrap();
            for b in &batches {
                w.append(b).unwrap();
            }
            w.sync().unwrap();
            assert_eq!(w.records(), 3);
        }
        assert_eq!(replay(&path).unwrap(), batches);
        cleanup(&path);
    }

    /// The log shares the wire protocol's update codec without changing
    /// a byte on disk: a record's payload is the same hand-laid bytes
    /// the pre-sharing encoder wrote, and it is the update list of a
    /// transaction request carrying the same updates.
    #[test]
    fn record_payload_is_the_protocol_encoding() {
        let path = tmp("codec");
        let updates = vec![
            Update::InsEdge(Edge::new(1, 2, 3)),
            Update::DelEdge(Edge::new(4, 5, u64::MAX)),
            Update::InsVertex(7),
            Update::DelVertex(1 << 40),
        ];
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&updates).unwrap();
            w.sync().unwrap();
        }
        let segment = std::fs::read(segment_path(&path, 0)).unwrap();
        let payload = &segment[8..];
        assert_eq!(segment[..4], (payload.len() as u32).to_le_bytes());
        assert_eq!(segment[4..8], crc32(payload).to_le_bytes());

        let mut laid = 4u32.to_le_bytes().to_vec();
        for (tag, words) in [
            (1u8, vec![1u64, 2, 3]),
            (2, vec![4, 5, u64::MAX]),
            (3, vec![7]),
            (4, vec![1 << 40]),
        ] {
            laid.push(tag);
            for w in words {
                laid.extend_from_slice(&w.to_le_bytes());
            }
        }
        assert_eq!(payload, &laid[..]);
        // A request payload is `[req id: u64][opcode: u8][body]`.
        assert_eq!(payload, &Request::Txn(updates.clone()).encode(0)[9..]);
        assert_eq!(replay(&path).unwrap(), vec![updates]);
        cleanup(&path);
    }

    #[test]
    fn missing_file_replays_empty() {
        assert!(replay("/nonexistent/risgraph.wal").unwrap().is_empty());
    }

    #[test]
    fn legacy_raw_log_is_migrated_to_segment_zero() {
        let path = tmp("legacy");
        // Hand-craft a pre-segmentation single-file log at the base
        // path: [len][crc][count=1, InsVertex(9)].
        let mut payload = BytesMut::new();
        payload.put_u32_le(1);
        encode_update(&mut payload, &Update::InsVertex(9));
        let mut raw = Vec::new();
        raw.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        raw.extend_from_slice(&crc32(&payload).to_le_bytes());
        raw.extend_from_slice(&payload);
        std::fs::write(&path, &raw).unwrap();
        // Read-only replay understands the legacy file in place…
        assert_eq!(replay(&path).unwrap(), vec![vec![Update::InsVertex(9)]]);
        // …and recovery migrates it: base becomes the manifest, the
        // records move to segment 0, and appends continue behind them.
        let (rec, mut w) = WalWriter::recover(&path, 0).unwrap();
        assert_eq!(rec.batches, vec![vec![Update::InsVertex(9)]]);
        w.append(&[Update::InsVertex(10)]).unwrap();
        w.sync().unwrap();
        drop(w);
        assert!(read_manifest(&path).unwrap().is_some());
        assert_eq!(
            replay(&path).unwrap(),
            vec![vec![Update::InsVertex(9)], vec![Update::InsVertex(10)]]
        );
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&[Update::InsVertex(1)]).unwrap();
            w.append(&[Update::InsVertex(2)]).unwrap();
            w.sync().unwrap();
        }
        // Chop bytes off the end: the second record is torn.
        let seg = segment_path(&path, 0);
        let data = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &data[..data.len() - 3]).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed, vec![vec![Update::InsVertex(1)]]);
        cleanup(&path);
    }

    /// The headline regression: a torn tail must be *physically*
    /// truncated by recovery, so records appended afterwards survive
    /// the next recovery instead of hiding behind garbage.
    #[test]
    fn append_after_torn_tail_recovery_survives_second_recovery() {
        let path = tmp("torn-append");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&[Update::InsVertex(1)]).unwrap();
            w.append(&[Update::InsVertex(2)]).unwrap();
            w.sync().unwrap();
        }
        let seg = segment_path(&path, 0);
        let data = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &data[..data.len() - 3]).unwrap();
        // First recovery: sees the valid prefix, truncates the tail,
        // and appends a new record.
        {
            let (rec, mut w) = WalWriter::recover(&path, 0).unwrap();
            assert_eq!(rec.batches, vec![vec![Update::InsVertex(1)]]);
            // Physically cut to the first record (8-byte header +
            // 4-byte count + 9-byte vertex update = 21 bytes).
            assert_eq!(std::fs::metadata(&seg).unwrap().len(), 21);
            w.append(&[Update::InsVertex(3)]).unwrap();
            w.sync().unwrap();
        }
        // Second recovery: the post-recovery record must be there.
        let (rec, _w) = WalWriter::recover(&path, 0).unwrap();
        assert_eq!(
            rec.batches,
            vec![vec![Update::InsVertex(1)], vec![Update::InsVertex(3)]]
        );
        cleanup(&path);
    }

    #[test]
    fn corrupt_payload_stops_replay() {
        let path = tmp("corrupt");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&[Update::InsVertex(1)]).unwrap();
            w.append(&[Update::InsVertex(2)]).unwrap();
            w.sync().unwrap();
        }
        let seg = segment_path(&path, 0);
        let mut data = std::fs::read(&seg).unwrap();
        // Flip a payload byte inside the second record.
        let n = data.len();
        data[n - 2] ^= 0xFF;
        std::fs::write(&seg, &data).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed, vec![vec![Update::InsVertex(1)]]);
        cleanup(&path);
    }

    #[test]
    fn append_after_reopen_preserves_prefix() {
        let path = tmp("reopen");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&[Update::InsVertex(1)]).unwrap();
            w.sync().unwrap();
        }
        {
            let (rec, mut w) = WalWriter::recover(&path, 0).unwrap();
            assert_eq!(rec.replayed_records, 1);
            w.append(&[Update::InsVertex(2)]).unwrap();
            w.sync().unwrap();
        }
        assert_eq!(
            replay(&path).unwrap(),
            vec![vec![Update::InsVertex(1)], vec![Update::InsVertex(2)]]
        );
        cleanup(&path);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let path = tmp("empty");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&[]).unwrap();
            w.sync().unwrap();
        }
        assert_eq!(replay(&path).unwrap(), vec![Vec::<Update>::new()]);
        cleanup(&path);
    }

    #[test]
    fn tiny_segments_rotate_and_replay_across_files() {
        let path = tmp("rotate");
        let mut want = Vec::new();
        {
            // 64-byte budget: every ~2 records rotates.
            let (_, mut w) = WalWriter::recover(&path, 64).unwrap();
            for i in 0..20u64 {
                let batch = vec![Update::InsEdge(Edge::new(i, i + 1, 1))];
                w.append(&batch).unwrap();
                want.push(batch);
            }
            w.sync().unwrap();
            assert!(w.active_segment() >= 5, "rotation never triggered");
            assert_eq!(w.first_segment(), 0);
        }
        assert_eq!(replay(&path).unwrap(), want);
        // Recovery walks the same segments and lands on the last one.
        let (rec, w) = WalWriter::recover(&path, 64).unwrap();
        assert_eq!(rec.batches, want);
        assert_eq!(rec.replayed_records, 20);
        assert!(w.active_segment() >= 5);
        cleanup(&path);
    }

    #[test]
    fn truncate_to_deletes_old_segments() {
        let path = tmp("truncate");
        let (_, mut w) = WalWriter::recover(&path, 64).unwrap();
        for i in 0..20u64 {
            w.append(&[Update::InsVertex(i)]).unwrap();
        }
        w.sync().unwrap();
        let active = w.active_segment();
        assert!(active >= 3);
        w.truncate_to(active).unwrap();
        assert_eq!(w.first_segment(), active);
        assert_eq!(w.segment_lag(), 0);
        for seg in 0..active {
            assert!(
                !segment_path(&path, seg).exists(),
                "segment {seg} survived truncation"
            );
        }
        // Replay now starts at the retention floor.
        let m = read_manifest(&path).unwrap().unwrap();
        assert_eq!(m.first_seg, active);
        cleanup(&path);
    }

    #[test]
    fn oversized_epochs_split_across_records() {
        let path = tmp("split");
        let updates: Vec<Update> = (0..(MAX_WAL_RECORD_UPDATES + 3) as u64)
            .map(Update::InsVertex)
            .collect();
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&updates).unwrap();
            w.sync().unwrap();
            // One full record plus the 3-update remainder — the u32
            // header fields never see the oversized total.
            assert_eq!(w.records(), 2);
        }
        let batches = replay(&path).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].len(), MAX_WAL_RECORD_UPDATES);
        assert_eq!(batches[1].len(), 3);
        let flat: Vec<Update> = batches.into_iter().flatten().collect();
        assert_eq!(flat, updates);
        cleanup(&path);
    }

    /// A CRC-valid record whose count field claims more updates than
    /// the payload can hold must fail cleanly — not preallocate or
    /// misdecode.
    #[test]
    fn forged_update_count_is_rejected() {
        let path = tmp("forged");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&[Update::InsVertex(1)]).unwrap();
            w.sync().unwrap();
        }
        let seg = segment_path(&path, 0);
        // Rewrite the record with count = u32::MAX and a fresh CRC so
        // the checksum passes and only the count guard can object.
        let mut payload = BytesMut::new();
        payload.put_u32_le(u32::MAX);
        encode_update(&mut payload, &Update::InsVertex(1));
        let mut forged = Vec::new();
        forged.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        forged.extend_from_slice(&crc32(&payload).to_le_bytes());
        forged.extend_from_slice(&payload);
        std::fs::write(&seg, &forged).unwrap();
        assert!(matches!(replay(&path), Err(Error::Wal(_))));
        assert!(matches!(WalWriter::recover(&path, 0), Err(Error::Wal(_))));
        cleanup(&path);
    }

    #[test]
    fn snapshot_roundtrips_and_shortens_replay() {
        let path = tmp("snapshot");
        let (_, mut w) = WalWriter::recover(&path, 0).unwrap();
        w.append(&[Update::InsEdge(Edge::new(0, 1, 5))]).unwrap();
        w.sync().unwrap();
        // Checkpoint: rotate, snapshot covering everything before the
        // new segment, truncate.
        let start = w.rotate().unwrap();
        let snap = Snapshot {
            start_seg: start,
            cut_index: 7,
            cut_version: 3,
            upper_bound: 2,
            updates: vec![
                Update::InsVertex(0),
                Update::InsVertex(1),
                Update::InsEdge(Edge::new(0, 1, 5)),
            ],
            results: vec![vec![
                ResultState {
                    value: 0,
                    parent_src: u64::MAX,
                    parent_data: 0,
                },
                ResultState {
                    value: 5,
                    parent_src: 0,
                    parent_data: 5,
                },
            ]],
        };
        write_snapshot(&path, &snap).unwrap();
        w.truncate_to(start).unwrap();
        w.append(&[Update::InsEdge(Edge::new(1, 2, 1))]).unwrap();
        w.sync().unwrap();
        drop(w);

        let read = read_snapshot(&path).unwrap().unwrap();
        assert_eq!(read, snap);

        // Recovery sees the snapshot plus only the post-checkpoint
        // record.
        let (rec, _w) = WalWriter::recover(&path, 0).unwrap();
        assert_eq!(rec.snapshot.as_ref(), Some(&snap));
        assert_eq!(rec.batches, vec![vec![Update::InsEdge(Edge::new(1, 2, 1))]]);
        assert_eq!(rec.replayed_records, 1);

        // Read-only replay prepends the snapshot structure so the
        // full state is reconstructible from its output alone.
        assert_eq!(
            replay(&path).unwrap(),
            vec![
                snap.updates.clone(),
                vec![Update::InsEdge(Edge::new(1, 2, 1))]
            ]
        );
        cleanup(&path);
    }

    #[test]
    fn damaged_snapshot_is_an_error_not_silent_fallback() {
        let path = tmp("snapdamage");
        let (_, mut w) = WalWriter::recover(&path, 0).unwrap();
        let start = w.rotate().unwrap();
        write_snapshot(
            &path,
            &Snapshot {
                start_seg: start,
                upper_bound: 1,
                updates: vec![Update::InsVertex(0)],
                ..Default::default()
            },
        )
        .unwrap();
        drop(w);
        // Chop the end marker off.
        let sp = snapshot_path(&path);
        let data = std::fs::read(&sp).unwrap();
        std::fs::write(&sp, &data[..data.len() - 5]).unwrap();
        assert!(matches!(read_snapshot(&path), Err(Error::Wal(_))));
        assert!(matches!(WalWriter::recover(&path, 0), Err(Error::Wal(_))));
        cleanup(&path);
    }
}
