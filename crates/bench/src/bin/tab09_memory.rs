//! **Table 9** — memory usage of the six store layouts relative to the
//! raw data (16 B/edge unweighted, 24 B/edge weighted).
//!
//! Every layout loads through the shared `DynamicGraph` trait and
//! reports [`risgraph_storage::StoreStats::memory_bytes`] — no
//! per-backend measurement kernels. The out-of-core store is reported
//! as an extra column (its in-heap chain directories plus the mapped
//! block window).
//!
//! Paper: IA_Hash 3.25× (unweighted) / 3.38× (weighted); BTree the most
//! compact (≈2.36×/2.50×); the transpose doubles everything and the
//! indexes bring most of the overhead.

use risgraph_bench::{dataset_selection, print_table, scale};
use risgraph_common::ids::Edge;
use risgraph_storage::{AnyStore, BackendKind, DynamicGraph, StoreConfig};

fn measure(kind: &BackendKind, edges: &[(u64, u64, u64)], n: usize) -> usize {
    let store = AnyStore::open(kind, n, StoreConfig::default()).expect("backend open");
    for &(s, d, w) in edges {
        store.insert_edge(Edge::new(s, d, w)).unwrap();
    }
    store.stats().memory_bytes
}

fn main() {
    println!("Table 9: memory usage relative to raw data\n");
    let spec = dataset_selection()
        .into_iter()
        .find(|d| d.abbr == "TT")
        .copied()
        .unwrap_or(*risgraph_workloads::datasets::by_abbr("TT").unwrap());

    let layouts: Vec<BackendKind> = BackendKind::table8_matrix()
        .into_iter()
        .chain([BackendKind::OocMmap { path: None }])
        .collect();
    let mut header: Vec<String> = vec![String::new()];
    header.extend(layouts.iter().map(|k| k.label().to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();

    let mut rows = Vec::new();
    for (label, max_w, bytes_per_edge) in [("Unweighted", 0u64, 16usize), ("8B_Weight", 1000, 24)] {
        let data = spec.generate(scale(), max_w);
        let raw = data.edges.len() * bytes_per_edge;
        let n = data.num_vertices;
        let mut row = vec![label.to_string()];
        for kind in &layouts {
            let bytes = measure(kind, &data.edges, n);
            row.push(format!("{:.2}", bytes as f64 / raw as f64));
        }
        rows.push(row);
    }
    print_table(&header_refs, &rows);
    println!(
        "\nPaper: IA row 3.63 / 2.36 / 3.25 and IO row 3.45 / 2.10 / 2.97\n\
         (unweighted); BTree most compact, Hash in between, ART largest.\n\
         Note: the paper's 512-degree index threshold means *indexes only\n\
         exist on hubs*; at reduced scale fewer vertices cross it, so the\n\
         absolute ratios shift while the ordering is preserved. OOC_MMAP\n\
         charges one 4 KiB block per (vertex, direction) chain: it is a\n\
         large-degree layout, not a compact one."
    );
}
