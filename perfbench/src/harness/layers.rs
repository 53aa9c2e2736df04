//! The layer harness: single-threaded, benchmark-side spans around
//! calls into each crate's public functions. Inputs come from the same
//! generators as the workloads (at [`harness_scale`], stated in the
//! output); every figure is the median over [`REPS`] repetitions of
//! time ÷ operations, and every repetition is one span. Layer names are
//! the crate/module names.

use std::hint::black_box;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use risgraph_baselines::recompute::recompute;
use risgraph_common::ids::{Edge, Update};
use risgraph_common::protocol::{
    read_frame, write_frame, Request, Response, FRAME_HEADER, MAX_FRAME,
};
use risgraph_core::classifier::PushMode;
use risgraph_core::engine::{ChangeRecord, Engine, EngineConfig, Safety};
use risgraph_core::history::HistoryStore;
use risgraph_core::replication::{Replica, ReplicationFeed};
use risgraph_core::server::{Server, ServerConfig};
use risgraph_core::wal::{self, read_snapshot, write_snapshot, ResultState, Snapshot, WalWriter};
use risgraph_net::{NetClient, NetConfig, NetServer};
use risgraph_storage::csr::Csr;
use risgraph_storage::{AnyStore, BackendKind, DynamicGraph, StoreConfig};
use risgraph_testkit::{engine_on, safe_churn, LiveEdge};

use super::inputs::{self, Algo, SplitMix};
use super::samples::median;
use super::spans::SpanLog;

/// Repetitions per figure.
pub const REPS: usize = 5;

/// RMAT scale of the harness's graph: small enough that every kernel
/// repeats [`REPS`] times inside a traced run's time budget.
pub fn harness_scale(quick: bool) -> u32 {
    if quick {
        10
    } else {
        13
    }
}

/// What the output says about the harness's shape.
pub fn note(quick: bool) -> String {
    format!(
        "layer harness: RMAT scale {}, median of {REPS} repetitions",
        harness_scale(quick)
    )
}

/// One printed figure.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure (per slice for percentiles).
    pub n: u64,
}

impl Row {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: u64) -> Row {
        Row {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

struct Harness<'a> {
    log: &'a mut SpanLog,
    parent: u64,
    rows: Vec<Row>,
}

impl Harness<'_> {
    /// Median over [`REPS`] of `run`'s time ÷ `ops`, in `unit` (`ns`,
    /// `us`, `ms` per operation, or `1/s`). `setup` is untimed.
    fn measure<S>(
        &mut self,
        name: &str,
        unit: &'static str,
        ops: u64,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(&mut S),
    ) {
        let mut per_op_ns = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let mut state = setup();
            let start = Instant::now();
            run(&mut state);
            let end = Instant::now();
            self.log.add(name, self.parent, start, end);
            per_op_ns.push((end - start).as_nanos() as f64 / ops as f64);
        }
        let ns = median(per_op_ns);
        let value = match unit {
            "ns" => ns,
            "us" => ns / 1e3,
            "ms" => ns / 1e6,
            "1/s" => 1e9 / ns,
            other => unreachable!("no conversion to {other}"),
        };
        self.rows.push(Row::new(name, value, unit, REPS as u64));
    }

    fn count(&mut self, name: &str, value: f64, unit: &'static str) {
        self.rows.push(Row::new(name, value, unit, 1));
    }
}

fn to_edge(&(s, d, w): &LiveEdge) -> Edge {
    Edge::new(s, d, w)
}

/// Run the whole harness. `tmp` is a scratch directory inside the
/// checkout (WAL files, the mmap store's block file).
pub fn run(seed: u64, quick: bool, tmp: &Path, log: &mut SpanLog, parent: u64) -> Vec<Row> {
    std::fs::create_dir_all(tmp).expect("create harness scratch dir");
    let scale = harness_scale(quick);
    let graph = inputs::rmat(scale, Algo::Sssp);
    let capacity = 1usize << scale;
    let churn = safe_churn(&graph, 4096, inputs::sub_seed(seed, 50));
    let mut h = Harness {
        log,
        parent,
        rows: Vec::new(),
    };
    protocol(&mut h, &churn);
    for (label, kind) in [
        ("ia_hash", BackendKind::IaHash),
        ("ia_art", BackendKind::IaArt),
        (
            "ooc_mmap",
            BackendKind::OocMmap {
                path: Some(tmp.join("layer-ooc-mmap.blocks")),
            },
        ),
    ] {
        storage(&mut h, label, &kind, &graph, capacity);
    }
    risgraph_testkit::remove_ooc_files(&tmp.join("layer-ooc-mmap.blocks"));
    engine(&mut h, seed, scale, &graph, capacity, &churn);
    push(&mut h, &graph, capacity);
    history(&mut h, seed, capacity);
    wal_layer(&mut h, &graph, capacity, &churn, tmp);
    server(&mut h, &graph, capacity, &churn);
    replication(&mut h, &graph, capacity, &churn);
    net(&mut h, &graph, capacity, &churn);
    let alg = Algo::Sssp.make();
    let csr = Csr::from_edges(capacity, graph.iter().copied());
    h.measure(
        "baselines.recompute.full_ms",
        "ms",
        1,
        || (),
        |_| {
            black_box(recompute(&alg, &csr));
        },
    );
    h.rows
}

fn protocol(h: &mut Harness<'_>, updates: &[Update]) {
    let n = updates.len() as u64;
    let requests: Vec<Vec<u8>> = updates
        .iter()
        .enumerate()
        .map(|(i, u)| Request::Update(*u).encode(i as u64 + 1))
        .collect();
    let reply = |i: usize| Response::Applied {
        version: i as u64,
        safe: true,
        result_changes: 0,
    };
    let replies: Vec<Vec<u8>> = (0..updates.len())
        .map(|i| reply(i).encode(i as u64 + 1))
        .collect();
    h.measure(
        "common.protocol.encode_update_ns",
        "ns",
        n,
        || (),
        |_| {
            for (i, u) in updates.iter().enumerate() {
                black_box(Request::Update(*u).encode(i as u64 + 1));
            }
        },
    );
    h.measure(
        "common.protocol.decode_update_ns",
        "ns",
        n,
        || (),
        |_| {
            for p in &requests {
                black_box(Request::decode(p).expect("own encoding decodes"));
            }
        },
    );
    h.measure(
        "common.protocol.encode_reply_ns",
        "ns",
        n,
        || (),
        |_| {
            for i in 0..updates.len() {
                black_box(reply(i).encode(i as u64 + 1));
            }
        },
    );
    h.measure(
        "common.protocol.decode_reply_ns",
        "ns",
        n,
        || (),
        |_| {
            for p in &replies {
                black_box(Response::decode(p).expect("own encoding decodes"));
            }
        },
    );
    h.measure(
        "common.protocol.frame_io_ns",
        "ns",
        n,
        || Vec::with_capacity(requests.len() * 64),
        |wire: &mut Vec<u8>| {
            for p in &requests {
                write_frame(wire, p).expect("write to memory");
            }
            let mut r = Cursor::new(&wire[..]);
            while let Some(p) = read_frame(&mut r, MAX_FRAME).expect("own frames read back") {
                black_box(p);
            }
        },
    );
    h.count(
        "common.protocol.update_frame_bytes",
        (requests[0].len() + FRAME_HEADER) as f64,
        "count",
    );
}

fn storage(
    h: &mut Harness<'_>,
    label: &str,
    kind: &BackendKind,
    graph: &[LiveEdge],
    capacity: usize,
) {
    let edges: Vec<Edge> = graph.iter().take(1 << 15).map(to_edge).collect();
    let n = edges.len() as u64;
    let open = || AnyStore::open(kind, capacity, StoreConfig::default()).expect("open backend");
    let loaded = || {
        let s = open();
        for e in &edges {
            s.insert_edge(*e).expect("insert");
        }
        s
    };
    h.measure(
        &format!("storage.{label}.insert_edge_ns"),
        "ns",
        n,
        open,
        |s| {
            for e in &edges {
                black_box(s.insert_edge(*e).expect("insert"));
            }
        },
    );
    h.measure(
        &format!("storage.{label}.delete_edge_ns"),
        "ns",
        n,
        loaded,
        |s| {
            for e in &edges {
                black_box(s.delete_edge(*e).expect("delete a loaded edge"));
            }
        },
    );
    let store = loaded();
    h.measure(
        &format!("storage.{label}.edge_count_ns"),
        "ns",
        n,
        || (),
        |_| {
            for e in &edges {
                black_box(store.edge_count(*e));
            }
        },
    );
    let stats = store.stats();
    h.measure(
        &format!("storage.{label}.scan_out_ns_per_edge"),
        "ns",
        stats.distinct_edges.max(1),
        || (),
        |_| {
            let mut seen = 0u64;
            for v in 0..capacity as u64 {
                store.scan_out(v, &mut |d, w, c| seen += d ^ w ^ c as u64);
            }
            black_box(seen);
        },
    );
    h.count(
        &format!("storage.{label}.bytes_per_edge"),
        stats.memory_bytes as f64 / stats.edges.max(1) as f64,
        "count",
    );
}

fn loaded_engine(
    algo: Algo,
    graph: &[LiveEdge],
    capacity: usize,
    config: EngineConfig,
) -> Engine<AnyStore> {
    let e = engine_on(&BackendKind::IaHash, vec![algo.make()], capacity, config);
    e.load_edges(graph);
    e
}

fn engine(
    h: &mut Harness<'_>,
    seed: u64,
    scale: u32,
    graph: &[LiveEdge],
    capacity: usize,
    churn: &[Update],
) {
    h.measure(
        "core.engine.load_edges_ms",
        "ms",
        1,
        || {
            engine_on(
                &BackendKind::IaHash,
                vec![Algo::Sssp.make()],
                capacity,
                EngineConfig::default(),
            )
        },
        |e| e.load_edges(graph),
    );
    let e = loaded_engine(Algo::Sssp, graph, capacity, EngineConfig::default());
    h.measure(
        "core.engine.recompute_all_ms",
        "ms",
        1,
        || (),
        |_| e.recompute_all(),
    );
    h.measure(
        "core.engine.apply_safe_ns",
        "ns",
        churn.len() as u64,
        || (),
        |_| {
            for u in churn {
                black_box(e.try_apply_safe(u).expect("churn stays valid"));
            }
        },
    );

    // Classification over the §6.1 stream against its own preload.
    let paper = inputs::paper_stream_inputs(seed, scale, Algo::Sssp, 1);
    let pe = loaded_engine(
        Algo::Sssp,
        &paper.preload,
        capacity,
        EngineConfig::default(),
    );
    let stream: Vec<Update> = paper.streams[0].iter().take(1 << 14).copied().collect();
    h.measure(
        "core.engine.classify_ns",
        "ns",
        stream.len() as u64,
        || (),
        |_| {
            for u in &stream {
                black_box(pe.classify(u));
            }
        },
    );
    let safe = stream
        .iter()
        .filter(|u| pe.classify(u) == Safety::Safe)
        .count();
    h.count(
        "core.engine.classify_safe_frac",
        safe as f64 / stream.len() as f64,
        "ratio",
    );

    // The all-unsafe chain: cut and re-join one path's first edge.
    let chains = inputs::unsafe_chain_inputs(seed, 1);
    let ce = loaded_engine(
        Algo::Wcc,
        &chains.preload,
        chains.capacity,
        EngineConfig::default(),
    );
    let pairs = 200usize;
    let mut changes = 0usize;
    h.measure(
        "core.engine.apply_unsafe_us",
        "us",
        2 * pairs as u64,
        || (),
        |_| {
            changes = 0;
            for _ in 0..pairs {
                for u in &chains.streams[0] {
                    changes += ce.apply_unsafe(u).expect("chain stays valid").len();
                }
            }
        },
    );
    h.count(
        "core.engine.unsafe_changes_per_update",
        changes as f64 / (2 * pairs) as f64,
        "count",
    );
}

fn push(h: &mut Harness<'_>, graph: &[LiveEdge], capacity: usize) {
    for (name, mode) in [
        (
            "core.push.recompute_vertex_ms",
            Some(PushMode::VertexParallel),
        ),
        ("core.push.recompute_edge_ms", Some(PushMode::EdgeParallel)),
        ("core.push.recompute_hybrid_ms", None),
    ] {
        let mut config = EngineConfig::default();
        config.push.forced_mode = mode;
        let e = loaded_engine(Algo::Sssp, graph, capacity, config);
        h.measure(name, "ms", 1, || (), |_| e.recompute_all());
    }
}

fn history(h: &mut Harness<'_>, seed: u64, capacity: usize) {
    const VERSIONS: u64 = 2_000;
    const PER_VERSION: usize = 64;
    let mut rng = SplitMix(inputs::sub_seed(seed, 51));
    let batches: Vec<Vec<ChangeRecord>> = (0..VERSIONS)
        .map(|ver| {
            // Distinct vertices within a version, as an update produces.
            let start = rng.below(capacity as u64);
            (0..PER_VERSION as u64)
                .map(|k| ChangeRecord {
                    vertex: (start + k * 7) % capacity as u64,
                    old: ver,
                    new: ver + 1,
                    old_parent: None,
                    new_parent: Some(Edge::new(0, 1, ver)),
                })
                .collect()
        })
        .collect();
    let filled = || {
        let mut s = HistoryStore::new(capacity);
        for (i, b) in batches.iter().enumerate() {
            s.record(i as u64 + 1, b);
        }
        s
    };
    h.measure(
        "core.history.record_ns_per_change",
        "ns",
        VERSIONS * PER_VERSION as u64,
        || HistoryStore::new(capacity),
        |s| {
            for (i, b) in batches.iter().enumerate() {
                s.record(i as u64 + 1, b);
            }
        },
    );
    let store = filled();
    let lookups: Vec<(u64, u64)> = (0..1 << 16)
        .map(|_| (1 + rng.below(VERSIONS), rng.below(capacity as u64)))
        .collect();
    h.measure(
        "core.history.value_at_ns",
        "ns",
        lookups.len() as u64,
        || (),
        |_| {
            for &(ver, v) in &lookups {
                black_box(store.value_at(ver, v, 0).expect("readable version"));
            }
        },
    );
    h.measure(
        "core.history.modified_vertices_us",
        "us",
        VERSIONS,
        || (),
        |_| {
            for ver in 1..=VERSIONS {
                black_box(store.modified_vertices(ver).expect("readable version"));
            }
        },
    );
    h.count(
        "core.history.bytes_per_entry",
        store.memory_bytes() as f64 / store.chain_entries().max(1) as f64,
        "count",
    );
    h.measure("core.history.collect_ms", "ms", 1, filled, |s| {
        s.collect(VERSIONS / 2)
    });
}

fn wal_layer(
    h: &mut Harness<'_>,
    graph: &[LiveEdge],
    capacity: usize,
    churn: &[Update],
    tmp: &Path,
) {
    const BATCH: usize = 64;
    let base: PathBuf = tmp.join("layer-wal");
    let fresh = || {
        risgraph_testkit::remove_wal(&base);
        WalWriter::open(&base).expect("open wal")
    };
    let n = churn.len() as u64;
    h.measure("core.wal.append_ns_per_update", "ns", n, fresh, |w| {
        for batch in churn.chunks(BATCH) {
            w.append(batch).expect("append");
        }
    });
    let appended = || {
        let mut w = fresh();
        for batch in churn.chunks(BATCH) {
            w.append(batch).expect("append");
        }
        w
    };
    h.measure("core.wal.sync_us", "us", 1, appended, |w| {
        w.sync().expect("sync")
    });
    h.measure("core.wal.rotate_us", "us", 1, appended, |w| {
        w.rotate().expect("rotate");
    });
    let mut w = appended();
    w.sync().expect("sync");
    h.count(
        "core.wal.bytes_per_update",
        w.active_bytes() as f64 / n as f64,
        "count",
    );
    drop(w);
    h.measure(
        "core.wal.replay_ns_per_update",
        "ns",
        n,
        || (),
        |_| {
            black_box(wal::replay(&base).expect("replay"));
        },
    );

    let e = loaded_engine(Algo::Sssp, graph, capacity, EngineConfig::default());
    let snap = Snapshot {
        upper_bound: capacity as u64,
        updates: e.export_structure(),
        results: e
            .results_snapshot(capacity)
            .into_iter()
            .map(|per_vertex| {
                per_vertex
                    .into_iter()
                    .map(|s| ResultState {
                        value: s.value,
                        parent_src: s.parent_src,
                        parent_data: s.parent_data,
                    })
                    .collect()
            })
            .collect(),
        ..Snapshot::default()
    };
    h.measure(
        "core.wal.snapshot_write_ms",
        "ms",
        1,
        || (),
        |_| {
            write_snapshot(&base, &snap).expect("write snapshot");
        },
    );
    h.measure(
        "core.wal.snapshot_read_ms",
        "ms",
        1,
        || (),
        |_| {
            black_box(read_snapshot(&base).expect("read snapshot"));
        },
    );
    risgraph_testkit::remove_wal(&base);
}

fn server(h: &mut Harness<'_>, graph: &[LiveEdge], capacity: usize, churn: &[Update]) {
    const WINDOW: usize = 64;
    let server = Server::start(vec![Algo::Bfs.make()], capacity, ServerConfig::default())
        .expect("server start");
    server.load_edges(graph);
    let session = server.session();
    let sync_ops = &churn[..2048];
    h.measure(
        "core.server.sync_roundtrip_us",
        "us",
        sync_ops.len() as u64,
        || (),
        |_| {
            for u in sync_ops {
                black_box(session.submit_update(u));
            }
        },
    );
    h.measure(
        "core.server.tagged_pipeline_ops_s",
        "1/s",
        churn.len() as u64,
        || (),
        |_| {
            let mut inflight = 0usize;
            for (i, u) in churn.iter().enumerate() {
                if inflight == WINDOW {
                    black_box(session.recv_tagged().expect("reply"));
                    inflight -= 1;
                }
                session.submit_update_tagged(u, i as u64).expect("submit");
                inflight += 1;
            }
            for _ in 0..inflight {
                black_box(session.recv_tagged().expect("reply"));
            }
        },
    );
    drop(session);
    server.shutdown();
}

fn replication(h: &mut Harness<'_>, graph: &[LiveEdge], capacity: usize, churn: &[Update]) {
    const BATCH: usize = 64;
    let publish = |feed: &ReplicationFeed| {
        for batch in churn.chunks(BATCH) {
            feed.append_epoch(batch.to_vec(), batch.len() as u64, Vec::new());
        }
    };
    let epochs = churn.chunks(BATCH).len() as u64;
    h.measure(
        "core.replication.append_epoch_ns",
        "ns",
        epochs,
        || ReplicationFeed::new(1),
        |feed| publish(feed),
    );
    let feed = ReplicationFeed::new(1);
    publish(&feed);
    h.measure(
        "core.replication.apply_record_ns_per_update",
        "ns",
        churn.len() as u64,
        || {
            let r = Replica::new(
                vec![Algo::Bfs.make()],
                capacity,
                &BackendKind::IaHash,
                EngineConfig::default(),
                ServerConfig::default().max_capacity,
            )
            .expect("replica");
            r.load_edges(graph);
            r
        },
        |replica| {
            for i in 0..feed.len() {
                let rec = feed.get(i).expect("retained record");
                replica.apply_record(&rec).expect("apply in order");
            }
        },
    );
}

fn net(h: &mut Harness<'_>, graph: &[LiveEdge], capacity: usize, churn: &[Update]) {
    let net = NetServer::start(
        vec![Algo::Bfs.make()],
        capacity,
        ServerConfig::default(),
        NetConfig::default(),
    )
    .expect("net server");
    net.server().load_edges(graph);
    let addr = net.local_addr();
    h.measure(
        "net.connect_us",
        "us",
        16,
        || (),
        |_| {
            for _ in 0..16 {
                black_box(NetClient::connect(addr).expect("connect"));
            }
        },
    );
    let client = Arc::new(NetClient::connect(addr).expect("connect"));
    h.measure(
        "net.query_rtt_us",
        "us",
        512,
        || (),
        |_| {
            for _ in 0..512 {
                black_box(client.current_version().expect("version"));
            }
        },
    );
    let ops = &churn[..512];
    h.measure(
        "net.update_rtt_us",
        "us",
        ops.len() as u64,
        || (),
        |_| {
            for u in ops {
                black_box(client.submit_update(u).expect("round trip"));
            }
        },
    );
    // The server creates a logical session on its first request, so a
    // session's cost is paid on the first round trip inside it.
    let firsts = &churn[..128];
    h.measure(
        "net.open_session_us",
        "us",
        firsts.len() as u64 / 2,
        || (),
        |_| {
            for pair in firsts.chunks(2) {
                let s = client.open_session().expect("v2 server");
                black_box(s.submit_update(&pair[0]).expect("round trip"));
                black_box(s.submit_update(&pair[1]).expect("round trip"));
            }
        },
    );
    drop(client);
    net.shutdown();
}
