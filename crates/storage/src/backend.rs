//! Runtime backend selection: [`BackendKind`] names a storage layout,
//! [`AnyStore`] enum-dispatches [`DynamicGraph`] over all of them.
//!
//! The engine is generic over `G: DynamicGraph` for zero-cost static
//! dispatch, but the server/CLI tier needs *one* concrete type so
//! sessions, the WAL and the history store stay non-generic. `AnyStore`
//! is that type: a closed enum over the six in-memory layouts of
//! Table 8/9 plus the §6.3 out-of-core store, selected at runtime
//! (`--store ia-hash|ia-btree|ia-art|io-hash|io-btree|io-art|ooc-mmap`).

use std::path::PathBuf;

use risgraph_common::ids::{Edge, VertexId, Weight};
use risgraph_common::Result;

use crate::adjacency::{DeleteOutcome, InsertOutcome};
use crate::graph::DynamicGraph;
use crate::index::{art::ArtIndex, btree::BTreeIndex, hash::HashIndex};
use crate::index_only::IndexOnlyStore;
use crate::ooc_mmap::MmapOocStore;
use crate::store::{GraphStore, StoreConfig, StoreStats};

/// Which storage layout to open.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Indexed Adjacency Lists + hash indexes (the paper's default).
    #[default]
    IaHash,
    /// Indexed Adjacency Lists + B-tree indexes.
    IaBtree,
    /// Indexed Adjacency Lists + ART indexes.
    IaArt,
    /// Index-only store, hash indexes.
    IoHash,
    /// Index-only store, B-tree indexes.
    IoBtree,
    /// Index-only store, ART indexes.
    IoArt,
    /// The mmap-backed out-of-core store (§6.3): per-vertex lock
    /// striping + chain indexes.
    OocMmap {
        /// Backing file; `None` creates a fresh temp file.
        path: Option<PathBuf>,
    },
}

impl BackendKind {
    /// Parse a CLI spelling (`ia-hash`, `io-btree`, `ooc-mmap`, …).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s.to_ascii_lowercase().as_str() {
            "ia-hash" | "ia_hash" => BackendKind::IaHash,
            "ia-btree" | "ia_btree" => BackendKind::IaBtree,
            "ia-art" | "ia_art" => BackendKind::IaArt,
            "io-hash" | "io_hash" => BackendKind::IoHash,
            "io-btree" | "io_btree" => BackendKind::IoBtree,
            "io-art" | "io_art" => BackendKind::IoArt,
            "ooc-mmap" | "ooc_mmap" => BackendKind::OocMmap { path: None },
            _ => return None,
        })
    }

    /// The CLI spellings accepted by [`Self::parse`].
    pub const CLI_CHOICES: &'static str =
        "ia-hash|ia-btree|ia-art|io-hash|io-btree|io-art|ooc-mmap";

    /// The backend named by the `RISGRAPH_STORE` environment variable
    /// (any [`Self::parse`] spelling), or the default (IA_Hash) when
    /// unset/empty. The one place the server default and the CLI
    /// default agree on.
    ///
    /// An unrecognized non-empty value **panics**: the variable exists
    /// to redirect whole test runs onto another backend (the `ooc-mmap`
    /// legs of the CI config matrix), and a silent fallback would let a
    /// typo turn that coverage into a green no-op.
    pub fn from_env() -> Self {
        match std::env::var("RISGRAPH_STORE") {
            Ok(s) if !s.is_empty() => Self::parse(&s).unwrap_or_else(|| {
                panic!(
                    "RISGRAPH_STORE={s} is not a known backend; choose one of {}",
                    Self::CLI_CHOICES
                )
            }),
            _ => Self::default(),
        }
    }

    /// Table 8/9 label.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::IaHash => "IA_Hash",
            BackendKind::IaBtree => "IA_BTree",
            BackendKind::IaArt => "IA_ART",
            BackendKind::IoHash => "IO_Hash",
            BackendKind::IoBtree => "IO_BTree",
            BackendKind::IoArt => "IO_ART",
            BackendKind::OocMmap { .. } => "OOC_MMAP",
        }
    }

    /// The six in-memory layouts of Table 8/9, in the paper's order.
    pub fn table8_matrix() -> Vec<BackendKind> {
        vec![
            BackendKind::IaHash,
            BackendKind::IaBtree,
            BackendKind::IaArt,
            BackendKind::IoHash,
            BackendKind::IoBtree,
            BackendKind::IoArt,
        ]
    }
}

/// A runtime-selected [`DynamicGraph`] backend (closed enum dispatch).
pub enum AnyStore {
    /// IA + hash.
    IaHash(GraphStore<HashIndex>),
    /// IA + B-tree.
    IaBtree(GraphStore<BTreeIndex>),
    /// IA + ART.
    IaArt(GraphStore<ArtIndex>),
    /// IO + hash.
    IoHash(IndexOnlyStore<HashIndex>),
    /// IO + B-tree.
    IoBtree(IndexOnlyStore<BTreeIndex>),
    /// IO + ART.
    IoArt(IndexOnlyStore<ArtIndex>),
    /// The mmap-backed out-of-core store.
    OocMmap(MmapOocStore),
}

impl AnyStore {
    /// Open a backend with vertex capacity `capacity`. `config` applies
    /// to the IA stores (index threshold, implicit vertex creation);
    /// IO and OOC stores always create endpoints implicitly.
    pub fn open(kind: &BackendKind, capacity: usize, config: StoreConfig) -> Result<AnyStore> {
        Ok(match kind {
            BackendKind::IaHash => AnyStore::IaHash(GraphStore::with_config(capacity, config)),
            BackendKind::IaBtree => AnyStore::IaBtree(GraphStore::with_config(capacity, config)),
            BackendKind::IaArt => AnyStore::IaArt(GraphStore::with_config(capacity, config)),
            BackendKind::IoHash => AnyStore::IoHash(IndexOnlyStore::with_capacity(capacity)),
            BackendKind::IoBtree => AnyStore::IoBtree(IndexOnlyStore::with_capacity(capacity)),
            BackendKind::IoArt => AnyStore::IoArt(IndexOnlyStore::with_capacity(capacity)),
            BackendKind::OocMmap { path } => AnyStore::OocMmap(match path {
                Some(p) => MmapOocStore::create(p, capacity)?,
                None => MmapOocStore::create_temp(capacity)?,
            }),
        })
    }
}

macro_rules! dispatch {
    ($self:expr, $s:pat => $body:expr) => {
        match $self {
            AnyStore::IaHash($s) => $body,
            AnyStore::IaBtree($s) => $body,
            AnyStore::IaArt($s) => $body,
            AnyStore::IoHash($s) => $body,
            AnyStore::IoBtree($s) => $body,
            AnyStore::IoArt($s) => $body,
            AnyStore::OocMmap($s) => $body,
        }
    };
}

impl DynamicGraph for AnyStore {
    fn backend_name(&self) -> &'static str {
        dispatch!(self, s => s.backend_name())
    }

    fn capacity(&self) -> usize {
        dispatch!(self, s => DynamicGraph::capacity(s))
    }

    fn ensure_capacity(&mut self, n: usize) {
        dispatch!(self, s => DynamicGraph::ensure_capacity(s, n))
    }

    fn vertex_upper_bound(&self) -> u64 {
        dispatch!(self, s => s.vertex_upper_bound())
    }

    fn num_vertices(&self) -> u64 {
        dispatch!(self, s => DynamicGraph::num_vertices(s))
    }

    fn num_edges(&self) -> u64 {
        dispatch!(self, s => DynamicGraph::num_edges(s))
    }

    fn vertex_exists(&self, v: VertexId) -> bool {
        dispatch!(self, s => DynamicGraph::vertex_exists(s, v))
    }

    fn insert_vertex(&self, v: VertexId) -> Result<()> {
        dispatch!(self, s => DynamicGraph::insert_vertex(s, v))
    }

    fn create_vertex(&self) -> Result<VertexId> {
        dispatch!(self, s => DynamicGraph::create_vertex(s))
    }

    fn delete_vertex(&self, v: VertexId) -> Result<()> {
        dispatch!(self, s => DynamicGraph::delete_vertex(s, v))
    }

    fn insert_edge(&self, e: Edge) -> Result<InsertOutcome> {
        dispatch!(self, s => DynamicGraph::insert_edge(s, e))
    }

    fn delete_edge(&self, e: Edge) -> Result<DeleteOutcome> {
        dispatch!(self, s => DynamicGraph::delete_edge(s, e))
    }

    fn delete_edge_if(
        &self,
        e: Edge,
        pred: &mut dyn FnMut(u32) -> bool,
    ) -> Result<Option<DeleteOutcome>> {
        dispatch!(self, s => DynamicGraph::delete_edge_if(s, e, pred))
    }

    fn insert_vertex_seq(&self, v: VertexId, seq: &std::sync::atomic::AtomicU64) -> Result<u64> {
        dispatch!(self, s => DynamicGraph::insert_vertex_seq(s, v, seq))
    }

    fn delete_vertex_seq(&self, v: VertexId, seq: &std::sync::atomic::AtomicU64) -> Result<u64> {
        dispatch!(self, s => DynamicGraph::delete_vertex_seq(s, v, seq))
    }

    fn insert_edge_seq(
        &self,
        e: Edge,
        seq: &std::sync::atomic::AtomicU64,
    ) -> Result<(InsertOutcome, u64)> {
        dispatch!(self, s => DynamicGraph::insert_edge_seq(s, e, seq))
    }

    fn delete_edge_if_seq(
        &self,
        e: Edge,
        pred: &mut dyn FnMut(u32) -> bool,
        seq: &std::sync::atomic::AtomicU64,
    ) -> Result<Option<(DeleteOutcome, u64)>> {
        dispatch!(self, s => DynamicGraph::delete_edge_if_seq(s, e, pred, seq))
    }

    fn edge_count(&self, e: Edge) -> u32 {
        dispatch!(self, s => DynamicGraph::edge_count(s, e))
    }

    fn scan_out(&self, v: VertexId, f: &mut dyn FnMut(VertexId, Weight, u32)) {
        dispatch!(self, s => DynamicGraph::scan_out(s, v, f))
    }

    fn scan_in(&self, v: VertexId, f: &mut dyn FnMut(VertexId, Weight, u32)) {
        dispatch!(self, s => DynamicGraph::scan_in(s, v, f))
    }

    fn out_degree(&self, v: VertexId) -> usize {
        dispatch!(self, s => DynamicGraph::out_degree(s, v))
    }

    fn in_degree(&self, v: VertexId) -> usize {
        dispatch!(self, s => DynamicGraph::in_degree(s, v))
    }

    fn has_positional_scans(&self) -> bool {
        dispatch!(self, s => DynamicGraph::has_positional_scans(s))
    }

    fn out_slots(&self, v: VertexId) -> usize {
        dispatch!(self, s => DynamicGraph::out_slots(s, v))
    }

    fn in_slots(&self, v: VertexId) -> usize {
        dispatch!(self, s => DynamicGraph::in_slots(s, v))
    }

    fn scan_out_range(
        &self,
        v: VertexId,
        lo: usize,
        hi: usize,
        f: &mut dyn FnMut(VertexId, Weight, u32),
    ) {
        dispatch!(self, s => DynamicGraph::scan_out_range(s, v, lo, hi, f))
    }

    fn scan_in_range(
        &self,
        v: VertexId,
        lo: usize,
        hi: usize,
        f: &mut dyn FnMut(VertexId, Weight, u32),
    ) {
        dispatch!(self, s => DynamicGraph::scan_in_range(s, v, lo, hi, f))
    }

    fn for_each_vertex(&self, f: &mut dyn FnMut(VertexId)) {
        dispatch!(self, s => DynamicGraph::for_each_vertex(s, f))
    }

    fn stats(&self) -> StoreStats {
        dispatch!(self, s => DynamicGraph::stats(s))
    }

    fn flush(&self) -> Result<()> {
        dispatch!(self, s => DynamicGraph::flush(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_all_labels() {
        for spelling in [
            "ia-hash", "ia-btree", "ia-art", "io-hash", "io-btree", "io-art", "ooc-mmap",
        ] {
            let kind = BackendKind::parse(spelling).expect(spelling);
            let store = AnyStore::open(&kind, 16, StoreConfig::default()).unwrap();
            assert_eq!(store.backend_name(), kind.label());
        }
        assert!(BackendKind::parse("lsm").is_none());
        // The one out-of-core store answers to `ooc-mmap` only.
        assert!(BackendKind::parse("ooc").is_none());
    }

    #[test]
    fn every_backend_speaks_dynamic_graph() {
        let kinds: Vec<BackendKind> = BackendKind::table8_matrix()
            .into_iter()
            .chain([BackendKind::OocMmap { path: None }])
            .collect();
        for kind in kinds {
            let mut store = AnyStore::open(&kind, 16, StoreConfig::default()).unwrap();
            let e = Edge::new(1, 2, 3);
            assert!(matches!(store.insert_edge(e).unwrap(), InsertOutcome::New));
            assert!(matches!(
                store.insert_edge(e).unwrap(),
                InsertOutcome::Duplicate { new_count: 2 }
            ));
            assert_eq!(store.edge_count(e), 2, "{}", kind.label());
            assert_eq!(store.num_edges(), 2);
            assert_eq!(store.out_degree(1), 1);
            assert_eq!(store.in_degree(2), 1);
            let mut seen = Vec::new();
            store.scan_in(2, &mut |s, w, c| seen.push((s, w, c)));
            assert_eq!(seen, vec![(1, 3, 2)], "{}", kind.label());
            // Conditional delete keeps the last copy.
            assert!(store.delete_edge_if(e, &mut |c| c > 1).unwrap().is_some());
            assert_eq!(store.delete_edge_if(e, &mut |c| c > 1).unwrap(), None);
            assert!(matches!(
                store.delete_edge(e).unwrap(),
                DeleteOutcome::Removed
            ));
            assert_eq!(store.num_edges(), 0);
            // Capacity growth through the trait.
            store.ensure_capacity(1000);
            store.insert_edge(Edge::new(900, 901, 0)).unwrap();
            assert!(store.contains_edge(Edge::new(900, 901, 0)));
            assert!(store.stats().memory_bytes > 0);
            store.flush().unwrap();
        }
    }
}
