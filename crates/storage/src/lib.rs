//! Graph stores for the RisGraph reproduction.
//!
//! The centerpiece is [`GraphStore`], the paper's **Indexed Adjacency
//! Lists** (§3.1, §5): one dynamic array of edges per vertex — kept
//! contiguous for analytical scans — plus a per-vertex edge index
//! (`(dst, weight) → offset`) created once the vertex's degree exceeds a
//! threshold (512 by default). Insertions and deletions are O(1) average
//! with the hash index; duplicate edges are stored once with a
//! multiplicity count; deleted edges become tombstones that are recycled
//! when the array doubles.
//!
//! ## The backend matrix
//!
//! Every store implements [`DynamicGraph`], the storage contract the
//! engine/server tier is generic over, so one engine drives the full
//! §6.3 / Table 8/9 comparison — selected at runtime with
//! `--store <backend>` on the CLI or [`BackendKind`] in [`backend`]:
//!
//! | backend | CLI spelling | layout |
//! |---------|--------------|--------|
//! | [`GraphStore<HashIndex>`] | `ia-hash` | Indexed Adjacency Lists, hash indexes (paper default) |
//! | [`GraphStore<BTreeIndex>`] | `ia-btree` | Indexed Adjacency Lists, B-tree indexes |
//! | [`GraphStore<ArtIndex>`] | `ia-art` | Indexed Adjacency Lists, ART indexes |
//! | [`index_only::IndexOnlyStore<HashIndex>`] | `io-hash` | edges only in per-vertex indexes |
//! | [`index_only::IndexOnlyStore<BTreeIndex>`] | `io-btree` | ditto, B-tree |
//! | [`index_only::IndexOnlyStore<ArtIndex>`] | `io-art` | ditto, ART |
//! | [`ooc_mmap::MmapOocStore`] | `ooc-mmap` | mmap-backed 4 KiB block chains, per-vertex lock striping + chain indexes (§6.3 out-of-core; large-degree) |
//!
//! [`backend::AnyStore`] enum-dispatches the trait over all of them so
//! the server stays a single concrete type.
//!
//! The [`index`] module provides the three index families evaluated in
//! Table 8/9 (Hash, BTree, ART), and [`baseline`] the scan-based and
//! bloom-filter ingest baselines used to reproduce Figure 4. [`csr`]
//! builds immutable CSR snapshots for the recompute baselines and for
//! differential-testing the mutable stores.

pub mod adjacency;
pub mod backend;
pub mod baseline;
pub mod csr;
pub mod graph;
pub mod index;
pub mod index_only;
pub mod ooc_mmap;
pub mod store;

pub use adjacency::{AdjacencyList, DeleteOutcome, EdgeSlot, InsertOutcome};
pub use backend::{AnyStore, BackendKind};
pub use graph::{DynamicGraph, VertexPin, VertexTable};
pub use index::{art::ArtIndex, btree::BTreeIndex, hash::HashIndex, EdgeIndex};
pub use index_only::IndexOnlyStore;
pub use ooc_mmap::MmapOocStore;
pub use store::{GraphStore, StoreConfig, StoreStats};

/// Default degree threshold above which a per-vertex index is built
/// (§5: "In our implementations, the threshold is 512").
pub const DEFAULT_INDEX_THRESHOLD: usize = 512;

/// A [`GraphStore`] with the paper's default hash index (IA_Hash).
pub type DefaultStore = GraphStore<HashIndex>;
