//! The out-of-core graph store (§6.3: "We use mmap to build a prototype
//! that swaps to an SSD").
//!
//! [`MmapOocStore`] keeps adjacency lists in 4 KiB file blocks chained
//! per vertex — forward *and* transpose, since the incremental model
//! needs reverse traversal during deletion recovery (§5) — as 20-byte
//! `(neighbour, weight, count)` records, so update semantics (duplicate
//! counting, tombstoning) match the in-memory stores exactly.
//!
//! * **Per-vertex lock striping.** Each direction has [`STRIPES`]
//!   `RwLock` stripes over the per-vertex chain directories; a block
//!   belongs to exactly one `(vertex, direction)` chain, so holding the
//!   owning stripe lock grants exclusive access to its bytes and
//!   commuting safe updates on distinct vertices proceed concurrently
//!   from the shard executors. Lock order is the same as
//!   [`crate::GraphStore`]: out-stripe before in-stripe, never the
//!   reverse, which keeps the two-lock acquisition deadlock-free.
//! * **Per-vertex chain index.** Each chain directory carries a
//!   `(neighbour, weight) → (block, slot)` hash index (tombstones
//!   included, so revival hits the same slot), making
//!   `find`/`delete_edge_if`/`edge_count` O(1) regardless of degree,
//!   plus an O(1) live-degree counter.
//!
//! **A large-degree store.** Every `(vertex, direction)` chain that holds
//! an edge owns at least one whole block, so a graph of low-degree
//! vertices pays up to two 4 KiB blocks per vertex: the layer harness
//! measures ≈ 1 073 B/edge (`storage.ooc_mmap.bytes_per_edge`) against
//! ≈ 76–80 for the in-memory IA stores. The layout pays off for hubs,
//! whose chains fill their blocks, and when the graph does not fit in
//! memory at all.
//!
//! The block file is `mmap`ed `MAP_SHARED` (raw `mmap`/`munmap`/`msync`
//! FFI — the registry-less build environment has no `memmap2`), so block
//! access is a pointer dereference and the kernel pages cold blocks in
//! and out; there is no user-space cache to miss. The mapping grows by
//! doubling: allocation past the mapped region takes the map's write
//! lock, extends the file, and remaps. All block access holds a stripe
//! lock *then* the map's read lock, so growth cannot invalidate a
//! pointer mid-use.
//!
//! [`MmapOocStore::flush`] is `msync(MS_SYNC)` plus a chain-directory
//! sidecar (`<path>.dir`) capturing the live vertex set and every
//! vertex's block chains — the record payloads (counts included) are
//! durable in the block file itself, so `<path>` + `<path>.dir` are
//! self-describing. [`MmapOocStore::open`] is the cold-restart path
//! built on that: it reopens a flushed store *without WAL replay*,
//! rebuilding the in-heap chain directories (indexes, live-degree
//! counters, edge totals, vertex liveness) from the sidecar plus one
//! scan of the referenced blocks. Engine *results* still need a
//! recompute (or WAL replay) on top — the store only persists
//! structure.
//!
//! Out/in chain desyncs are surfaced as [`Error::Corruption`], not as a
//! release-silent `debug_assert!`.

use std::fs::{File, OpenOptions};
use std::os::raw::{c_int, c_void};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use risgraph_common::hash::FxHashMap;
use risgraph_common::ids::{Edge, VertexId, Weight};
use risgraph_common::{Error, Result};

use crate::adjacency::{DeleteOutcome, InsertOutcome};
use crate::graph::{DynamicGraph, VertexTable};
use crate::store::StoreStats;

const BLOCK_SIZE: usize = 4096;
/// 20-byte records: neighbour(8) weight(8) count(4).
const RECORD_SIZE: usize = 20;
const RECORDS_PER_BLOCK: usize = (BLOCK_SIZE - 4) / RECORD_SIZE; // 4B header: record count

fn read_record(block: &[u8; BLOCK_SIZE], i: usize) -> (VertexId, Weight, u32) {
    let off = 4 + i * RECORD_SIZE;
    (
        u64::from_le_bytes(block[off..off + 8].try_into().unwrap()),
        u64::from_le_bytes(block[off + 8..off + 16].try_into().unwrap()),
        u32::from_le_bytes(block[off + 16..off + 20].try_into().unwrap()),
    )
}

fn write_record(block: &mut [u8; BLOCK_SIZE], i: usize, nbr: VertexId, w: Weight, count: u32) {
    let off = 4 + i * RECORD_SIZE;
    block[off..off + 8].copy_from_slice(&nbr.to_le_bytes());
    block[off + 8..off + 16].copy_from_slice(&w.to_le_bytes());
    block[off + 16..off + 20].copy_from_slice(&count.to_le_bytes());
}

fn record_count(block: &[u8; BLOCK_SIZE]) -> usize {
    u32::from_le_bytes(block[..4].try_into().unwrap()) as usize
}

fn set_record_count(block: &mut [u8; BLOCK_SIZE], n: usize) {
    block[..4].copy_from_slice(&(n as u32).to_le_bytes());
}

/// Raw mmap bindings: the environment vendors offline shims instead of
/// crates.io, and `memmap2` is not among them, so the store declares the
/// three libc entry points it needs directly (libc is always linked).
mod sys {
    use super::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const PROT_WRITE: c_int = 0x2;
    pub const MAP_SHARED: c_int = 0x01;
    #[cfg(target_os = "macos")]
    pub const MS_SYNC: c_int = 0x0010;
    #[cfg(not(target_os = "macos"))]
    pub const MS_SYNC: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
        pub fn msync(addr: *mut c_void, length: usize, flags: c_int) -> c_int;
    }
}

/// Stripe count per direction (power of two). 512 write locks per
/// direction is far beyond the shard counts the epoch loop runs, so
/// cross-vertex contention is negligible while the lock footprint stays
/// fixed as capacity grows.
const STRIPES: usize = 512;

#[inline]
fn stripe_of(v: VertexId) -> usize {
    (v as usize) & (STRIPES - 1)
}

#[inline]
fn slot_of(v: VertexId) -> usize {
    (v as usize) / STRIPES
}

/// The live mapping of the block file.
struct MapRegion {
    ptr: *mut u8,
    /// Mapped length in blocks.
    blocks: usize,
}

// The raw pointer is only dereferenced under the owning stripe lock
// (see `block_ref`/`block_mut` safety contracts), so the region itself
// is freely shareable.
unsafe impl Send for MapRegion {}
unsafe impl Sync for MapRegion {}

impl MapRegion {
    /// # Safety
    /// `id` must be inside the mapping and the caller must hold the
    /// stripe lock (read or write) of the chain owning block `id`.
    #[allow(clippy::mut_from_ref)] // aliasing is governed by the stripe locks
    unsafe fn block_mut(&self, id: u32) -> &mut [u8; BLOCK_SIZE] {
        debug_assert!((id as usize) < self.blocks);
        &mut *(self.ptr.add(id as usize * BLOCK_SIZE) as *mut [u8; BLOCK_SIZE])
    }

    /// # Safety
    /// Like [`Self::block_mut`] but shared: caller holds at least the
    /// owning stripe's read lock (no concurrent writer can exist).
    unsafe fn block_ref(&self, id: u32) -> &[u8; BLOCK_SIZE] {
        debug_assert!((id as usize) < self.blocks);
        &*(self.ptr.add(id as usize * BLOCK_SIZE) as *const [u8; BLOCK_SIZE])
    }
}

/// One vertex's chain directory in one direction: the block chain, the
/// O(1) record locator, and the live-degree counter.
#[derive(Default)]
struct VertexDir {
    /// Block ids of the chain, in append order.
    chain: Vec<u32>,
    /// `(neighbour, weight) → (block, slot)`, tombstones included so a
    /// re-insert revives the original slot.
    index: FxHashMap<(VertexId, Weight), (u32, u32)>,
    /// Records with `count > 0`.
    live: u32,
}

impl VertexDir {
    fn heap_bytes(&self) -> usize {
        self.chain.len() * std::mem::size_of::<u32>()
            + self.index.len()
                * (std::mem::size_of::<(VertexId, Weight)>() + std::mem::size_of::<(u32, u32)>())
    }
}

/// Which chain family an operation targets.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    Out,
    In,
}

/// The concurrent mmap-backed out-of-core store. See the module docs.
pub struct MmapOocStore {
    file: File,
    path: PathBuf,
    map: RwLock<MapRegion>,
    /// Next block id to allocate (blocks are never reused).
    next_block: AtomicU64,
    /// Per-direction stripe locks over the chain directories: vertex
    /// `v`'s directory is `stripes[v % STRIPES][v / STRIPES]`.
    out: Box<[RwLock<Vec<VertexDir>>]>,
    inn: Box<[RwLock<Vec<VertexDir>>]>,
    vertices: VertexTable,
    live_edges: AtomicU64,
    /// Set by [`MmapOocStore::create_temp`]: unlink backing files on drop.
    temp: bool,
}

impl Drop for MmapOocStore {
    fn drop(&mut self) {
        let m = self.map.get_mut();
        if m.blocks > 0 {
            unsafe { sys::munmap(m.ptr as *mut c_void, m.blocks * BLOCK_SIZE) };
        }
        if self.temp {
            let _ = std::fs::remove_file(&self.path);
            let _ = std::fs::remove_file(sidecar_path(&self.path));
        }
    }
}

fn sidecar_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".dir");
    PathBuf::from(p)
}

impl MmapOocStore {
    /// Create (truncating) a store at `path` addressing `0..capacity`
    /// vertices.
    pub fn create(path: impl AsRef<Path>, capacity: usize) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        let mut store = MmapOocStore {
            file,
            path,
            map: RwLock::new(MapRegion {
                ptr: std::ptr::null_mut(),
                blocks: 0,
            }),
            next_block: AtomicU64::new(0),
            out: (0..STRIPES)
                .map(|_| RwLock::new(Vec::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            inn: (0..STRIPES)
                .map(|_| RwLock::new(Vec::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            vertices: VertexTable::with_capacity(0),
            live_edges: AtomicU64::new(0),
            temp: false,
        };
        DynamicGraph::ensure_capacity(&mut store, capacity);
        store.ensure_blocks(64)?; // 256 KiB initial mapping
        Ok(store)
    }

    /// Create a store on a fresh file in the system temp directory
    /// (used by the `ooc-mmap` CLI/server backend when no path given).
    pub fn create_temp(capacity: usize) -> Result<Self> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "risgraph-ooc-mmap-{}-{n}.blocks",
            std::process::id()
        ));
        let mut store = Self::create(&path, capacity)?;
        store.temp = true;
        Ok(store)
    }

    /// Reopen a flushed store from `<path>` + `<path>.dir` **without
    /// WAL replay** — the chain-directory cold-restart path. The
    /// sidecar supplies the live vertex set and every vertex's block
    /// chains; one scan of the referenced blocks rebuilds the in-heap
    /// `(nbr, weight) → (block, slot)` indexes, live-degree counters
    /// and the edge total. The reopened store serves the identical
    /// adjacency state (fingerprint-equal, tombstones included) the
    /// flush captured; algorithm results must be recomputed on top.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let raw = std::fs::read(sidecar_path(&path)).map_err(|e| {
            Error::Corruption(format!(
                "cannot read chain-directory sidecar {}: {e}",
                sidecar_path(&path).display()
            ))
        })?;
        // Checksum-first: no field of the sidecar is trusted (in
        // particular none drives an allocation) until the whole body
        // validates.
        if raw.len() < 4 {
            return Err(Error::Corruption(
                "chain-directory sidecar too short".into(),
            ));
        }
        let want_crc = u32::from_le_bytes(raw[..4].try_into().unwrap());
        let dir = &raw[4..];
        if risgraph_common::crc::crc32(dir) != want_crc {
            return Err(Error::Corruption(
                "chain-directory sidecar checksum mismatch".into(),
            ));
        }
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let file_blocks = file.metadata()?.len() as usize / BLOCK_SIZE;

        // A bounds-checked little-endian reader over the sidecar.
        struct Side<'a> {
            buf: &'a [u8],
            pos: usize,
        }
        impl<'a> Side<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8]> {
                if self.pos + n > self.buf.len() {
                    return Err(Error::Corruption(format!(
                        "truncated chain-directory sidecar at offset {}",
                        self.pos
                    )));
                }
                let s = &self.buf[self.pos..self.pos + n];
                self.pos += n;
                Ok(s)
            }
            fn u64(&mut self) -> Result<u64> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
            }
            fn u32(&mut self) -> Result<u32> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
            }
            fn done(&self) -> bool {
                self.pos == self.buf.len()
            }
        }
        let mut c = Side { buf: dir, pos: 0 };
        let capacity = c.u64()? as usize;
        let n_live = c.u64()? as usize;
        if capacity > (1 << 40) || n_live > capacity {
            return Err(Error::Corruption(format!(
                "implausible sidecar header: capacity {capacity}, {n_live} live vertices"
            )));
        }

        let mut store = MmapOocStore {
            file,
            path,
            map: RwLock::new(MapRegion {
                ptr: std::ptr::null_mut(),
                blocks: 0,
            }),
            next_block: AtomicU64::new(0),
            out: (0..STRIPES)
                .map(|_| RwLock::new(Vec::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            inn: (0..STRIPES)
                .map(|_| RwLock::new(Vec::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            vertices: VertexTable::with_capacity(0),
            live_edges: AtomicU64::new(0),
            temp: false,
        };
        DynamicGraph::ensure_capacity(&mut store, capacity);
        store.ensure_blocks(file_blocks.max(64))?;

        for _ in 0..n_live {
            let v = c.u64()?;
            if v as usize >= store.vertices.capacity() {
                return Err(Error::Corruption(format!(
                    "sidecar live vertex {v} beyond capacity {capacity}"
                )));
            }
            store.vertices.mark(v);
        }

        let mut next_block = 0u64;
        let mut live_edges = 0u64;
        while !c.done() {
            let v = c.u64()?;
            if v as usize >= store.vertices.capacity() {
                return Err(Error::Corruption(format!(
                    "sidecar chain vertex {v} beyond capacity {capacity}"
                )));
            }
            let out_len = c.u32()? as usize;
            let in_len = c.u32()? as usize;
            let mut read_chain = |len: usize| -> Result<Vec<u32>> {
                let mut chain = Vec::with_capacity(len.min(file_blocks));
                for _ in 0..len {
                    let b = c.u32()?;
                    if b as usize >= file_blocks {
                        return Err(Error::Corruption(format!(
                            "sidecar references block {b} beyond the {file_blocks}-block file"
                        )));
                    }
                    next_block = next_block.max(b as u64 + 1);
                    chain.push(b);
                }
                Ok(chain)
            };
            let out_chain = read_chain(out_len)?;
            let in_chain = read_chain(in_len)?;
            live_edges += store.rebuild_dir(Dir::Out, v, out_chain)?;
            store.rebuild_dir(Dir::In, v, in_chain)?;
        }
        store.next_block.store(next_block, Ordering::Release);
        store.live_edges.store(live_edges, Ordering::Release);
        Ok(store)
    }

    /// Rebuild one vertex's chain directory from its persisted block
    /// chain: re-index every record (tombstones included, so revival
    /// still hits the original slot) and recount live degree. Returns
    /// the total live multiplicity (the vertex's contribution to the
    /// edge total when `dir` is `Out`).
    fn rebuild_dir(&self, dir: Dir, v: VertexId, chain: Vec<u32>) -> Result<u64> {
        let mut d = VertexDir {
            chain: Vec::new(),
            index: FxHashMap::default(),
            live: 0,
        };
        let mut total = 0u64;
        {
            let m = self.map.read();
            for &block in &chain {
                let b = unsafe { m.block_ref(block) };
                let n = record_count(b);
                if n > RECORDS_PER_BLOCK {
                    return Err(Error::Corruption(format!(
                        "block {block} claims {n} records (max {RECORDS_PER_BLOCK})"
                    )));
                }
                for slot in 0..n {
                    let (nbr, w, count) = read_record(b, slot);
                    d.index.insert((nbr, w), (block, slot as u32));
                    if count > 0 {
                        d.live += 1;
                        total += count as u64;
                    }
                }
            }
        }
        d.chain = chain;
        self.stripes(dir)[stripe_of(v)].write()[slot_of(v)] = d;
        Ok(total)
    }

    /// Grow the file and remap so at least `need` blocks are addressable.
    /// Lock order: callers may hold stripe locks; nobody holds the map
    /// lock when calling (stripe → map, acquired fresh here).
    fn ensure_blocks(&self, need: usize) -> Result<()> {
        if need <= self.map.read().blocks {
            return Ok(());
        }
        let mut m = self.map.write();
        if need <= m.blocks {
            return Ok(());
        }
        let new_blocks = need.next_power_of_two().max(64);
        self.file.set_len((new_blocks * BLOCK_SIZE) as u64)?;
        // Map the new region before unmapping the old one: if mmap
        // fails (address-space pressure), the old mapping stays valid
        // and the store keeps serving its existing blocks — the caller
        // just sees the grow error.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                new_blocks * BLOCK_SIZE,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                self.file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error().into());
        }
        if m.blocks > 0 {
            unsafe { sys::munmap(m.ptr as *mut c_void, m.blocks * BLOCK_SIZE) };
        }
        m.ptr = ptr as *mut u8;
        m.blocks = new_blocks;
        Ok(())
    }

    /// Allocate a fresh (zeroed) block, growing the mapping as needed.
    fn alloc_block(&self) -> Result<u32> {
        let id = self.next_block.fetch_add(1, Ordering::AcqRel);
        self.ensure_blocks(id as usize + 1)?;
        Ok(id as u32)
    }

    fn stripes(&self, dir: Dir) -> &[RwLock<Vec<VertexDir>>] {
        match dir {
            Dir::Out => &self.out,
            Dir::In => &self.inn,
        }
    }

    fn check_capacity_edge(&self, e: Edge) -> Result<()> {
        let cap = self.vertices.capacity() as u64;
        if e.src >= cap {
            return Err(Error::VertexNotFound(e.src));
        }
        if e.dst >= cap {
            return Err(Error::VertexNotFound(e.dst));
        }
        Ok(())
    }

    /// Add one copy of the `(nbr, w)` record to an already-locked
    /// chain directory (caller holds the owning stripe's write lock;
    /// commuting updates on other stripes run concurrently). When
    /// `seq` is given, a WAL sequence stamp is drawn while that lock
    /// is still held (same-edge operations serialize on `src`'s out
    /// stripe, so stamp order equals application order).
    fn bump(
        &self,
        d: &mut VertexDir,
        nbr: VertexId,
        w: Weight,
        seq: Option<&AtomicU64>,
    ) -> Result<(InsertOutcome, u64)> {
        let stamp = |seq: Option<&AtomicU64>| seq.map_or(0, |s| s.fetch_add(1, Ordering::Relaxed));
        if let Some(&(block, slot)) = d.index.get(&(nbr, w)) {
            let m = self.map.read();
            let b = unsafe { m.block_mut(block) };
            let (_, _, count) = read_record(b, slot as usize);
            write_record(b, slot as usize, nbr, w, count + 1);
            let outcome = if count == 0 {
                d.live += 1;
                InsertOutcome::New // revived tombstone
            } else {
                InsertOutcome::Duplicate {
                    new_count: count + 1,
                }
            };
            return Ok((outcome, stamp(seq)));
        }
        // Append: last block with room, else a fresh block on the chain.
        if let Some(&last) = d.chain.last() {
            let m = self.map.read();
            let b = unsafe { m.block_mut(last) };
            let n = record_count(b);
            if n < RECORDS_PER_BLOCK {
                write_record(b, n, nbr, w, 1);
                set_record_count(b, n + 1);
                d.index.insert((nbr, w), (last, n as u32));
                d.live += 1;
                return Ok((InsertOutcome::New, stamp(seq)));
            }
        }
        let block = self.alloc_block()?;
        {
            let m = self.map.read();
            let b = unsafe { m.block_mut(block) };
            write_record(b, 0, nbr, w, 1);
            set_record_count(b, 1);
        }
        d.chain.push(block);
        d.index.insert((nbr, w), (block, 0));
        d.live += 1;
        Ok((InsertOutcome::New, stamp(seq)))
    }

    /// Remove one copy of the `(nbr, w)` record under `v` in `dir` from
    /// an already-locked directory.
    fn decrement_locked(
        &self,
        d: &mut VertexDir,
        nbr: VertexId,
        w: Weight,
    ) -> Option<DeleteOutcome> {
        let &(block, slot) = d.index.get(&(nbr, w))?;
        let m = self.map.read();
        let b = unsafe { m.block_mut(block) };
        let (_, _, count) = read_record(b, slot as usize);
        if count == 0 {
            return None; // tombstone
        }
        write_record(b, slot as usize, nbr, w, count - 1);
        Some(if count == 1 {
            d.live -= 1;
            DeleteOutcome::Removed
        } else {
            DeleteOutcome::Decremented {
                new_count: count - 1,
            }
        })
    }

    fn decrement(&self, dir: Dir, v: VertexId, nbr: VertexId, w: Weight) -> Option<DeleteOutcome> {
        let mut stripe = self.stripes(dir)[stripe_of(v)].write();
        self.decrement_locked(&mut stripe[slot_of(v)], nbr, w)
    }

    /// Insert one copy of `e` (duplicate counting like the in-memory
    /// stores; endpoints are created implicitly).
    pub fn insert_edge(&self, e: Edge) -> Result<InsertOutcome> {
        self.insert_edge_stamped(e, None).map(|(o, _)| o)
    }

    /// [`Self::insert_edge`] with an in-stripe-lock WAL sequence stamp
    /// (see [`Self::bump`]).
    fn insert_edge_stamped(
        &self,
        e: Edge,
        seq: Option<&AtomicU64>,
    ) -> Result<(InsertOutcome, u64)> {
        self.check_capacity_edge(e)?;
        // Lifecycle pin: keeps delete_vertex's isolation check atomic
        // with this insert (see VertexTable::remove_isolated).
        let _pin = self.vertices.pin(e.src, e.dst);
        self.vertices.mark(e.src);
        self.vertices.mark(e.dst);
        // Mirror into the transpose while still holding the out stripe
        // (out → in order, deadlock-free): releasing it first would let
        // a concurrent delete on this edge observe the out record
        // without its transpose and report a spurious desync — while
        // creating a real one.
        let mut out_stripe = self.out[stripe_of(e.src)].write();
        let (outcome, stamp) = self.bump(&mut out_stripe[slot_of(e.src)], e.dst, e.data, seq)?;
        let mirrored = {
            let mut in_stripe = self.inn[stripe_of(e.dst)].write();
            self.bump(&mut in_stripe[slot_of(e.dst)], e.src, e.data, None)
        };
        if let Err(err) = mirrored {
            // A failed mapping grow mid-mirror must not leave the out
            // record without its transpose: undo it so a failed insert
            // is a no-op and the store keeps serving in-sync chains.
            self.decrement_locked(&mut out_stripe[slot_of(e.src)], e.dst, e.data);
            return Err(err);
        }
        drop(out_stripe);
        self.live_edges.fetch_add(1, Ordering::AcqRel);
        Ok((outcome, stamp))
    }

    /// Live multiplicity of the record located by an already-locked
    /// directory's index (0 when absent or tombstoned).
    fn count_locked(&self, d: &VertexDir, nbr: VertexId, w: Weight) -> u32 {
        match d.index.get(&(nbr, w)) {
            Some(&(block, slot)) => {
                let m = self.map.read();
                let b = unsafe { m.block_ref(block) };
                read_record(b, slot as usize).2
            }
            None => 0,
        }
    }

    /// Delete one copy of `e` — [`Self::delete_edge_if`] with an
    /// always-true predicate, so there is exactly one implementation of
    /// the delete protocol (lock order, transpose-first desync
    /// detection, edge accounting).
    pub fn delete_edge(&self, e: Edge) -> Result<DeleteOutcome> {
        Ok(self
            .delete_edge_if_stamped(e, |_| true, None)?
            .map(|(outcome, _)| outcome)
            .expect("always-true predicate cannot reject"))
    }

    /// Conditional delete (the §4 revalidation primitive): the check and
    /// the delete happen under `e.src`'s out-stripe write lock, and the
    /// transpose mirror is taken while still holding it (out → in order,
    /// deadlock-free as in [`crate::GraphStore`]).
    pub fn delete_edge_if(
        &self,
        e: Edge,
        pred: impl FnOnce(u32) -> bool,
    ) -> Result<Option<DeleteOutcome>> {
        self.delete_edge_if_stamped(e, pred, None)
            .map(|r| r.map(|(o, _)| o))
    }

    /// [`Self::delete_edge_if`] with an in-stripe-lock WAL sequence
    /// stamp (see [`Self::bump`]).
    fn delete_edge_if_stamped(
        &self,
        e: Edge,
        pred: impl FnOnce(u32) -> bool,
        seq: Option<&AtomicU64>,
    ) -> Result<Option<(DeleteOutcome, u64)>> {
        if self.check_capacity_edge(e).is_err() {
            return Err(Error::EdgeNotFound(e));
        }
        let mut stripe = self.out[stripe_of(e.src)].write();
        let count = self.count_locked(&stripe[slot_of(e.src)], e.dst, e.data);
        if count == 0 {
            return Err(Error::EdgeNotFound(e));
        }
        if !pred(count) {
            return Ok(None);
        }
        // Transpose first: a desync is reported without mutating.
        if self.decrement(Dir::In, e.dst, e.src, e.data).is_none() {
            return Err(Error::Corruption(format!(
                "out/in chains out of sync for {e:?}"
            )));
        }
        let outcome = self
            .decrement_locked(&mut stripe[slot_of(e.src)], e.dst, e.data)
            .expect("count checked under the held out stripe");
        let stamp = seq.map_or(0, |s| s.fetch_add(1, Ordering::Relaxed));
        drop(stripe);
        self.live_edges.fetch_sub(1, Ordering::AcqRel);
        Ok(Some((outcome, stamp)))
    }

    /// Multiplicity of `e` (0 when absent). O(1) via the chain index.
    pub fn edge_count(&self, e: Edge) -> u32 {
        if self.check_capacity_edge(e).is_err() {
            return 0;
        }
        let stripe = self.out[stripe_of(e.src)].read();
        match stripe[slot_of(e.src)].index.get(&(e.dst, e.data)) {
            Some(&(block, slot)) => {
                let m = self.map.read();
                let b = unsafe { m.block_ref(block) };
                read_record(b, slot as usize).2
            }
            None => 0,
        }
    }

    fn scan(&self, dir: Dir, v: VertexId, f: &mut dyn FnMut(VertexId, Weight, u32)) {
        if (v as usize) >= self.vertices.capacity() {
            return;
        }
        let stripe = self.stripes(dir)[stripe_of(v)].read();
        let d = &stripe[slot_of(v)];
        let m = self.map.read();
        for &block in &d.chain {
            let b = unsafe { m.block_ref(block) };
            let n = record_count(b);
            for i in 0..n {
                let (nbr, w, c) = read_record(b, i);
                if c > 0 {
                    f(nbr, w, c);
                }
            }
        }
    }

    fn degree(&self, dir: Dir, v: VertexId) -> usize {
        if (v as usize) >= self.vertices.capacity() {
            return 0;
        }
        self.stripes(dir)[stripe_of(v)].read()[slot_of(v)].live as usize
    }

    /// Live edges (duplicates included).
    pub fn num_edges(&self) -> u64 {
        self.live_edges.load(Ordering::Acquire)
    }

    /// `msync` the mapping and persist the chain directory sidecar.
    pub fn flush(&self) -> Result<()> {
        {
            let m = self.map.read();
            if m.blocks > 0 {
                let rc = unsafe {
                    sys::msync(m.ptr as *mut c_void, m.blocks * BLOCK_SIZE, sys::MS_SYNC)
                };
                if rc != 0 {
                    return Err(std::io::Error::last_os_error().into());
                }
            }
        }
        self.file.sync_data()?;
        self.write_chain_directory()
    }

    /// Persist the per-vertex chain directory: a CRC32 of everything
    /// that follows, then `[capacity: u64]`, the live vertex set
    /// `[n_live: u64][vertex ids…]`, then for each
    /// vertex with any chain `[v: u64][out_len: u32][in_len:
    /// u32][out block ids…][in block ids…]`, all little-endian,
    /// stripe-major (one lock acquisition per stripe; vertex entries
    /// are therefore not id-sorted). The leading checksum means a
    /// corrupted header (e.g. a flipped capacity byte) is detected
    /// *before* any field is trusted — the open path never allocates
    /// from unverified sizes. Record payloads (counts included)
    /// live in the block file itself, so the sidecar plus the blocks
    /// fully describe the adjacency state — [`MmapOocStore::open`]
    /// rebuilds a serving store from exactly these two files.
    fn write_chain_directory(&self) -> Result<()> {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&(self.vertices.capacity() as u64).to_le_bytes());
        let mut live: Vec<u64> = Vec::new();
        self.vertices.for_each_live(&mut |v| live.push(v));
        buf.extend_from_slice(&(live.len() as u64).to_le_bytes());
        for v in live {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for (s, (out, inn)) in self.out.iter().zip(self.inn.iter()).enumerate() {
            let out = out.read();
            let inn = inn.read();
            for (i, (od, id)) in out.iter().zip(inn.iter()).enumerate() {
                let (oc, ic) = (&od.chain, &id.chain);
                if oc.is_empty() && ic.is_empty() {
                    continue;
                }
                let v = (i * STRIPES + s) as u64;
                buf.extend_from_slice(&v.to_le_bytes());
                buf.extend_from_slice(&(oc.len() as u32).to_le_bytes());
                buf.extend_from_slice(&(ic.len() as u32).to_le_bytes());
                for &b in oc.iter().chain(ic.iter()) {
                    buf.extend_from_slice(&b.to_le_bytes());
                }
            }
        }
        let mut out = Vec::with_capacity(buf.len() + 4);
        out.extend_from_slice(&risgraph_common::crc::crc32(&buf).to_le_bytes());
        out.extend_from_slice(&buf);
        let tmp = sidecar_path(&self.path).with_extension("dir.tmp");
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, sidecar_path(&self.path))?;
        Ok(())
    }
}

impl DynamicGraph for MmapOocStore {
    fn backend_name(&self) -> &'static str {
        "OOC_MMAP"
    }

    fn capacity(&self) -> usize {
        self.vertices.capacity()
    }

    fn ensure_capacity(&mut self, n: usize) {
        if n <= self.vertices.capacity() {
            return;
        }
        let n = n.next_power_of_two().max(16);
        let per_stripe = n.div_ceil(STRIPES);
        for stripe in self.out.iter_mut().chain(self.inn.iter_mut()) {
            stripe.get_mut().resize_with(per_stripe, VertexDir::default);
        }
        self.vertices.ensure_capacity(n);
    }

    fn vertex_upper_bound(&self) -> u64 {
        self.vertices.upper_bound()
    }

    fn num_vertices(&self) -> u64 {
        self.vertices.live()
    }

    fn num_edges(&self) -> u64 {
        MmapOocStore::num_edges(self)
    }

    fn vertex_exists(&self, v: VertexId) -> bool {
        self.vertices.exists(v)
    }

    fn insert_vertex(&self, v: VertexId) -> Result<()> {
        if (v as usize) >= self.vertices.capacity() {
            return Err(Error::VertexNotFound(v));
        }
        self.vertices.insert(v)
    }

    fn create_vertex(&self) -> Result<VertexId> {
        self.vertices.create()
    }

    fn delete_vertex(&self, v: VertexId) -> Result<()> {
        let scratch = AtomicU64::new(0);
        DynamicGraph::delete_vertex_seq(self, v, &scratch).map(|_| ())
    }

    fn insert_vertex_seq(&self, v: VertexId, seq: &AtomicU64) -> Result<u64> {
        self.vertices.insert_seq(v, seq)
    }

    fn delete_vertex_seq(&self, v: VertexId, seq: &AtomicU64) -> Result<u64> {
        if (v as usize) >= self.vertices.capacity() {
            return Err(Error::VertexNotFound(v));
        }
        self.vertices.remove_isolated_seq(
            v,
            || self.degree(Dir::Out, v) == 0 && self.degree(Dir::In, v) == 0,
            seq,
        )
    }

    fn insert_edge(&self, e: Edge) -> Result<InsertOutcome> {
        MmapOocStore::insert_edge(self, e)
    }

    fn delete_edge(&self, e: Edge) -> Result<DeleteOutcome> {
        MmapOocStore::delete_edge(self, e)
    }

    fn delete_edge_if(
        &self,
        e: Edge,
        pred: &mut dyn FnMut(u32) -> bool,
    ) -> Result<Option<DeleteOutcome>> {
        MmapOocStore::delete_edge_if(self, e, pred)
    }

    fn insert_edge_seq(&self, e: Edge, seq: &AtomicU64) -> Result<(InsertOutcome, u64)> {
        MmapOocStore::insert_edge_stamped(self, e, Some(seq))
    }

    fn delete_edge_if_seq(
        &self,
        e: Edge,
        pred: &mut dyn FnMut(u32) -> bool,
        seq: &AtomicU64,
    ) -> Result<Option<(DeleteOutcome, u64)>> {
        MmapOocStore::delete_edge_if_stamped(self, e, pred, Some(seq))
    }

    fn edge_count(&self, e: Edge) -> u32 {
        MmapOocStore::edge_count(self, e)
    }

    fn scan_out(&self, v: VertexId, f: &mut dyn FnMut(VertexId, Weight, u32)) {
        self.scan(Dir::Out, v, f)
    }

    fn scan_in(&self, v: VertexId, f: &mut dyn FnMut(VertexId, Weight, u32)) {
        self.scan(Dir::In, v, f)
    }

    fn out_degree(&self, v: VertexId) -> usize {
        self.degree(Dir::Out, v)
    }

    fn in_degree(&self, v: VertexId) -> usize {
        self.degree(Dir::In, v)
    }

    fn for_each_vertex(&self, f: &mut dyn FnMut(VertexId)) {
        self.vertices.for_each_live(f);
    }

    fn stats(&self) -> StoreStats {
        let mut distinct = 0u64;
        let mut tombstones = 0u64;
        let mut dir_bytes = 0usize;
        // One lock acquisition per stripe, not two per vertex:
        // directories beyond the populated range are empty and
        // contribute nothing.
        for stripe in self.out.iter() {
            let stripe = stripe.read();
            for d in stripe.iter() {
                distinct += d.live as u64;
                tombstones += d.index.len() as u64 - d.live as u64;
                dir_bytes += d.heap_bytes();
            }
        }
        for stripe in self.inn.iter() {
            let stripe = stripe.read();
            for d in stripe.iter() {
                dir_bytes += d.heap_bytes();
            }
        }
        StoreStats {
            vertices: self.vertices.live(),
            edges: MmapOocStore::num_edges(self),
            distinct_edges: distinct,
            tombstones,
            indexed_vertices: self.vertices.live(), // every chain is indexed
            // The mapping is file-backed and pageable; charge the
            // in-heap directories plus the whole mapped window, an
            // upper bound on what the kernel can keep resident.
            memory_bytes: dir_bytes + self.map.read().blocks * BLOCK_SIZE,
        }
    }

    fn flush(&self) -> Result<()> {
        MmapOocStore::flush(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::GraphStore;
    use crate::HashIndex;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("risgraph-ooc-mmap-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.blocks", std::process::id()))
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(sidecar_path(path));
    }

    #[test]
    fn basic_roundtrip() {
        let path = tmp("basic");
        let s = MmapOocStore::create(&path, 16).unwrap();
        assert_eq!(
            s.insert_edge(Edge::new(1, 2, 5)).unwrap(),
            InsertOutcome::New
        );
        assert!(matches!(
            s.insert_edge(Edge::new(1, 2, 5)).unwrap(),
            InsertOutcome::Duplicate { new_count: 2 }
        ));
        s.insert_edge(Edge::new(1, 3, 7)).unwrap();
        assert_eq!(s.edge_count(Edge::new(1, 2, 5)), 2);
        assert_eq!(s.num_edges(), 3);
        assert!(matches!(
            s.delete_edge(Edge::new(1, 2, 5)).unwrap(),
            DeleteOutcome::Decremented { new_count: 1 }
        ));
        assert!(s.delete_edge(Edge::new(9, 9, 9)).is_err());
        let mut seen = Vec::new();
        s.scan(Dir::Out, 1, &mut |d, w, c| seen.push((d, w, c)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(2, 5, 1), (3, 7, 1)]);
        let mut inn = Vec::new();
        s.scan(Dir::In, 2, &mut |d, w, c| inn.push((d, w, c)));
        assert_eq!(inn, vec![(1, 5, 1)]);
        assert_eq!(DynamicGraph::out_degree(&s, 1), 2);
        assert_eq!(DynamicGraph::in_degree(&s, 2), 1);
        drop(s);
        cleanup(&path);
    }

    #[test]
    fn grows_past_the_initial_mapping() {
        // 64 initial blocks; a 30k-record hub needs ~150 blocks per
        // direction, forcing several remaps mid-stream.
        let path = tmp("grow");
        let s = MmapOocStore::create(&path, 64).unwrap();
        let n = 30_000u64;
        for i in 0..n {
            s.insert_edge(Edge::new(0, i % 64, i)).unwrap();
        }
        assert!(s.map.read().blocks > 64, "mapping never grew");
        let mut count = 0u64;
        s.scan(Dir::Out, 0, &mut |_, _, _| count += 1);
        assert_eq!(count, n, "records lost across remaps");
        for i in (0..n).step_by(997) {
            assert_eq!(s.edge_count(Edge::new(0, i % 64, i)), 1);
        }
        drop(s);
        cleanup(&path);
    }

    #[test]
    fn differential_vs_in_memory_store() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x33A9);
        let path = tmp("diff");
        let ooc = MmapOocStore::create(&path, 32).unwrap();
        let mem: GraphStore<HashIndex> = GraphStore::with_capacity(32);
        let mut live: Vec<Edge> = Vec::new();
        for _ in 0..2000 {
            if !live.is_empty() && rng.gen_bool(0.4) {
                let e = live.swap_remove(rng.gen_range(0..live.len()));
                ooc.delete_edge(e).unwrap();
                mem.delete_edge(e).unwrap();
            } else {
                let e = Edge::new(
                    rng.gen_range(0..32),
                    rng.gen_range(0..32),
                    rng.gen_range(0..4),
                );
                live.push(e);
                ooc.insert_edge(e).unwrap();
                mem.insert_edge(e).unwrap();
            }
        }
        assert_eq!(ooc.num_edges(), mem.num_edges());
        for v in 0..32u64 {
            let mut a = Vec::new();
            ooc.scan(Dir::Out, v, &mut |d, w, c| a.push((d, w, c)));
            a.sort_unstable();
            let mut b: Vec<(u64, u64, u32)> = mem
                .out(v)
                .iter_live()
                .map(|s| (s.dst, s.data, s.count))
                .collect();
            b.sort_unstable();
            assert_eq!(a, b, "vertex {v} out");
            let mut ai = Vec::new();
            ooc.scan(Dir::In, v, &mut |d, w, c| ai.push((d, w, c)));
            ai.sort_unstable();
            let mut bi: Vec<(u64, u64, u32)> = mem
                .inn(v)
                .iter_live()
                .map(|s| (s.dst, s.data, s.count))
                .collect();
            bi.sort_unstable();
            assert_eq!(ai, bi, "vertex {v} in");
            assert_eq!(DynamicGraph::out_degree(&ooc, v), b.len(), "degree {v}");
        }
        drop(ooc);
        cleanup(&path);
    }

    #[test]
    fn concurrent_disjoint_inserts_and_hub_hammering() {
        use std::sync::Arc;
        let path = tmp("conc");
        let s = Arc::new(MmapOocStore::create(&path, 1 << 12).unwrap());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    // Disjoint sources + everyone hammering hub 0's
                    // in-chains through distinct dsts.
                    s.insert_edge(Edge::new(t * 500 + i + 1, 0, i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.num_edges(), 4000);
        assert_eq!(DynamicGraph::in_degree(&*s, 0), 4000);
        drop(s);
        cleanup(&path);
    }

    #[test]
    fn concurrent_conditional_deletes_never_oversell() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let path = tmp("condel");
        let s = Arc::new(MmapOocStore::create(&path, 8).unwrap());
        let e = Edge::new(1, 2, 0);
        for _ in 0..4 {
            s.insert_edge(e).unwrap();
        }
        let wins = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            let wins = Arc::clone(&wins);
            handles.push(std::thread::spawn(move || {
                if let Ok(Some(_)) = s.delete_edge_if(e, |c| c > 1) {
                    wins.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::SeqCst), 3);
        assert_eq!(s.edge_count(e), 1);
        drop(s);
        cleanup(&path);
    }

    #[test]
    fn flush_persists_blocks_and_sidecar() {
        let path = tmp("flush");
        {
            let s = MmapOocStore::create(&path, 8).unwrap();
            for i in 0..300u64 {
                s.insert_edge(Edge::new(1, i % 8, i)).unwrap();
            }
            DynamicGraph::flush(&s).unwrap();
            let len = std::fs::metadata(&path).unwrap().len();
            assert!(len >= 2 * BLOCK_SIZE as u64, "file only {len} bytes");
            let dir = std::fs::read(sidecar_path(&path)).unwrap();
            assert!(
                dir.len() > 12,
                "sidecar must describe at least one vertex chain"
            );
            // Leading CRC over the body, then the capacity header.
            assert_eq!(
                u32::from_le_bytes(dir[..4].try_into().unwrap()),
                risgraph_common::crc::crc32(&dir[4..])
            );
            assert_eq!(
                u64::from_le_bytes(dir[4..12].try_into().unwrap()),
                s.capacity() as u64
            );
        }
        cleanup(&path);
    }

    #[test]
    fn forged_chain_desync_surfaces_as_corruption() {
        let path = tmp("desync");
        let s = MmapOocStore::create(&path, 8).unwrap();
        s.insert_edge(Edge::new(1, 2, 0)).unwrap();
        // Forge the desync: consume the transpose record only.
        s.decrement(Dir::In, 2, 1, 0).expect("transpose present");
        assert!(matches!(
            s.delete_edge(Edge::new(1, 2, 0)),
            Err(Error::Corruption(_))
        ));
        let s2_path = tmp("desync-if");
        let s2 = MmapOocStore::create(&s2_path, 8).unwrap();
        s2.insert_edge(Edge::new(3, 4, 1)).unwrap();
        s2.decrement(Dir::In, 4, 3, 1).expect("transpose present");
        assert!(matches!(
            s2.delete_edge_if(Edge::new(3, 4, 1), |_| true),
            Err(Error::Corruption(_))
        ));
        drop((s, s2));
        cleanup(&path);
        cleanup(&s2_path);
    }

    #[test]
    fn vertex_lifecycle_and_dynamic_graph() {
        let path = tmp("dyn");
        let mut s = MmapOocStore::create(&path, 8).unwrap();
        s.insert_edge(Edge::new(1, 2, 0)).unwrap();
        assert_eq!(DynamicGraph::num_vertices(&s), 2);
        assert!(matches!(
            DynamicGraph::delete_vertex(&s, 1),
            Err(Error::VertexNotIsolated(1))
        ));
        assert_eq!(
            MmapOocStore::delete_edge_if(&s, Edge::new(1, 2, 0), |c| c > 1).unwrap(),
            None
        );
        MmapOocStore::delete_edge(&s, Edge::new(1, 2, 0)).unwrap();
        DynamicGraph::delete_vertex(&s, 1).unwrap();
        DynamicGraph::ensure_capacity(&mut s, 3000);
        s.insert_edge(Edge::new(2900, 2901, 1)).unwrap();
        assert_eq!(DynamicGraph::edge_count(&s, Edge::new(2900, 2901, 1)), 1);
        let st = DynamicGraph::stats(&s);
        assert_eq!(st.edges, 1);
        assert_eq!(st.distinct_edges, 1);
        assert_eq!(st.tombstones, 1, "the deleted 1→2 record remains");
        assert!(st.memory_bytes > 0);
        drop(s);
        cleanup(&path);
    }

    /// Canonical adjacency + liveness fingerprint of a store:
    /// `(edges, vertices, per-vertex sorted adjacency, liveness)`.
    type Fingerprint = (u64, u64, Vec<Vec<(u64, u64, u32)>>, Vec<bool>);

    fn fingerprint(s: &MmapOocStore, n: u64) -> Fingerprint {
        let mut adj = Vec::new();
        let mut live = Vec::new();
        for v in 0..n {
            let mut a = Vec::new();
            s.scan(Dir::Out, v, &mut |d, w, c| a.push((d, w, c)));
            a.sort_unstable();
            adj.push(a);
            live.push(s.vertices.exists(v));
        }
        (s.num_edges(), DynamicGraph::num_vertices(s), adj, live)
    }

    #[test]
    fn cold_restart_reopens_the_flushed_store_without_wal_replay() {
        let path = tmp("cold-restart");
        let want = {
            let s = MmapOocStore::create(&path, 64).unwrap();
            // Duplicates, tombstones, an explicitly-inserted isolated
            // vertex, and a fully-emptied-but-live vertex — everything
            // the sidecar must round-trip.
            for i in 0..40u64 {
                s.insert_edge(Edge::new(i % 8, (i * 3) % 8, i % 4)).unwrap();
            }
            s.insert_edge(Edge::new(1, 2, 99)).unwrap();
            s.delete_edge(Edge::new(1, 2, 99)).unwrap(); // tombstone
            DynamicGraph::insert_vertex(&s, 50).unwrap(); // isolated
            s.insert_edge(Edge::new(40, 41, 7)).unwrap();
            s.delete_edge(Edge::new(40, 41, 7)).unwrap(); // 40/41 stay live
            DynamicGraph::flush(&s).unwrap();
            fingerprint(&s, 64)
        };
        let s = MmapOocStore::open(&path).unwrap();
        assert_eq!(fingerprint(&s, 64), want, "reopened state differs");
        // In-chains, degrees and O(1) lookups were rebuilt too.
        assert_eq!(s.edge_count(Edge::new(1, 2, 99)), 0, "tombstone stays dead");
        assert!(DynamicGraph::vertex_exists(&s, 50));
        let mut inn = Vec::new();
        s.scan(Dir::In, 0, &mut |d, w, c| inn.push((d, w, c)));
        assert!(!inn.is_empty(), "transpose chains rebuilt");
        // The reopened store keeps serving: revival reuses the original
        // slot and fresh blocks allocate past the recovered maximum.
        assert_eq!(
            s.insert_edge(Edge::new(1, 2, 99)).unwrap(),
            InsertOutcome::New
        );
        assert_eq!(s.edge_count(Edge::new(1, 2, 99)), 1);
        let st = DynamicGraph::stats(&s);
        assert_eq!(st.tombstones, 1, "the 40→41 tombstone survives reopen");
        for i in 0..300u64 {
            s.insert_edge(Edge::new(42, i % 64, i)).unwrap();
        }
        assert_eq!(DynamicGraph::out_degree(&s, 42), 300);
        drop(s);
        cleanup(&path);
    }

    #[test]
    fn open_rejects_missing_or_corrupt_sidecars() {
        let path = tmp("cold-missing");
        assert!(matches!(
            MmapOocStore::open(&path),
            Err(Error::Corruption(_))
        ));
        {
            let s = MmapOocStore::create(&path, 8).unwrap();
            s.insert_edge(Edge::new(1, 2, 0)).unwrap();
            DynamicGraph::flush(&s).unwrap();
        }
        // Truncate the sidecar mid-entry: the checksum catches it.
        let sidecar = sidecar_path(&path);
        let bytes = std::fs::read(&sidecar).unwrap();
        std::fs::write(&sidecar, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            MmapOocStore::open(&path),
            Err(Error::Corruption(_))
        ));
        // Re-checksum a forged body so the *parser's* bounds checks are
        // exercised, not just the CRC. Forge a chain block id pointing
        // beyond the block file: corruption, not UB.
        let reseal = |body: &[u8]| {
            let mut out = risgraph_common::crc::crc32(body).to_le_bytes().to_vec();
            out.extend_from_slice(body);
            out
        };
        let mut forged = bytes[4..].to_vec();
        let n = forged.len();
        forged[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&sidecar, reseal(&forged)).unwrap();
        assert!(matches!(
            MmapOocStore::open(&path),
            Err(Error::Corruption(_))
        ));
        // A validly-checksummed header with an absurd capacity is
        // refused before it drives any allocation.
        let mut forged = bytes[4..].to_vec();
        forged[..8].copy_from_slice(&(1u64 << 50).to_le_bytes());
        std::fs::write(&sidecar, reseal(&forged)).unwrap();
        assert!(matches!(
            MmapOocStore::open(&path),
            Err(Error::Corruption(_))
        ));
        // A flipped header byte without resealing fails the checksum.
        let mut flipped = bytes.clone();
        flipped[5] ^= 0xFF;
        std::fs::write(&sidecar, &flipped).unwrap();
        assert!(matches!(
            MmapOocStore::open(&path),
            Err(Error::Corruption(_))
        ));
        cleanup(&path);
    }

    #[test]
    fn tombstone_revival_reuses_the_slot() {
        let path = tmp("revive");
        let s = MmapOocStore::create(&path, 8).unwrap();
        let e = Edge::new(1, 2, 9);
        s.insert_edge(e).unwrap();
        assert!(matches!(s.delete_edge(e).unwrap(), DeleteOutcome::Removed));
        assert_eq!(s.edge_count(e), 0);
        assert_eq!(s.insert_edge(e).unwrap(), InsertOutcome::New);
        assert_eq!(s.edge_count(e), 1);
        // Still exactly one indexed record (no duplicate slots).
        let st = DynamicGraph::stats(&s);
        assert_eq!((st.distinct_edges, st.tombstones), (1, 0));
        drop(s);
        cleanup(&path);
    }
}
