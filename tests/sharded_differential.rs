//! The cross-shard differential suite: the sharded safe phase
//! (`ServerConfig::shards = N`) must be observably identical to the
//! serial coordinator (`shards = 1`) on the same update streams — same
//! reply outcomes and safety classes, same point-in-time query answers
//! at every returned version, same per-version modification sets, same
//! final values and store contents. This is the §4 commutativity claim
//! ("safe updates change no results, so they may execute in any
//! interleaving") as an executable property, checked on three storage
//! backends (IA_Hash, the legacy out-of-core prototype, and the
//! concurrent mmap-backed OOC store — whose cross-backend triangle
//! `ooc-mmap ≡ ooc ≡ IA_Hash` is asserted at shards 1 and 4).
//!
//! Determinism protocol: each emulated session owns a disjoint vertex
//! region ([`risgraph_testkit::disjoint_session_streams`]), so its
//! classifications and effects cannot depend on how the server
//! interleaves sessions; servers run one engine worker thread so
//! intra-update propagation picks deterministic dependency-tree
//! parents. See `crates/testkit/src/differential.rs` for what exactly
//! is compared.
//!
//! Both safe-phase paths: a synchronous session has one update in
//! flight, so [`drive_sessions`] only ever produces epochs under the
//! inline bound ([`INLINE_SAFE_PER_SHARD`] per shard) — the coordinator
//! drains them itself and the cases above compare `inline ≡ serial`.
//! Every such case therefore has a `*_pipelined` twin ([`four_way`]):
//! the same kind of streams, each followed by a long safe tail, driven
//! synchronously *and* fully pipelined through serial and sharded
//! servers. The registry's `core.epochs_inline` counter proves which
//! path each server took, and all four must be observably equivalent.
//!
//! The `*_big` cases are `#[ignore]`d and run in the dedicated slow CI
//! job (`cargo test --release -- --ignored`).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use proptest::prelude::*;
use risgraph::algorithms::Wcc;
use risgraph::core::server::INLINE_SAFE_PER_SHARD;
use risgraph::prelude::*;
use risgraph::storage::BackendKind;
use risgraph_testkit::{
    assert_servers_equivalent, disjoint_session_streams, drive_sessions, drive_sessions_pipelined,
    random_stream, server_config, unsafe_chain_streams_with_build, RegionStreamConfig,
    SessionTrace, UnsafeChainConfig,
};

fn start(backend: BackendKind, shards: usize, capacity: usize) -> Arc<Server> {
    // Inherits `unsafe_workers` from the environment (the
    // RISGRAPH_UNSAFE_WORKERS CI legs re-run the whole suite with a
    // parallel unsafe phase); `start_workers` pins it explicitly.
    Arc::new(
        Server::start(
            vec![Arc::new(Wcc::new()) as DynAlgorithm],
            capacity,
            server_config(backend, shards),
        )
        .unwrap(),
    )
}

fn start_workers(
    backend: BackendKind,
    shards: usize,
    capacity: usize,
    unsafe_workers: usize,
) -> Arc<Server> {
    let mut config = server_config(backend, shards);
    config.unsafe_workers = unsafe_workers;
    Arc::new(Server::start(vec![Arc::new(Wcc::new()) as DynAlgorithm], capacity, config).unwrap())
}

/// Run the same per-session streams through `shards = 1` and
/// `shards = shards_b` servers on `backend` and assert equivalence.
fn differential(
    label: &str,
    backend_a: BackendKind,
    backend_b: BackendKind,
    shards_b: usize,
    streams: &[Vec<Update>],
    capacity: usize,
) {
    differential_pair(
        label,
        (backend_a, 1),
        (backend_b, shards_b),
        streams,
        capacity,
    )
}

/// Fully general pair: any backend and shard count on either side.
fn differential_pair(
    label: &str,
    (backend_a, shards_a): (BackendKind, usize),
    (backend_b, shards_b): (BackendKind, usize),
    streams: &[Vec<Update>],
    capacity: usize,
) {
    let serial = start(backend_a, shards_a, capacity);
    let sharded = start(backend_b, shards_b, capacity);
    let traces_serial = drive_sessions(&serial, streams);
    let traces_sharded = drive_sessions(&sharded, streams);
    assert_servers_equivalent(
        label,
        &serial,
        &traces_serial,
        &sharded,
        &traces_sharded,
        streams,
        Wcc::new(),
        capacity,
    );
    Arc::try_unwrap(serial).ok().unwrap().shutdown();
    Arc::try_unwrap(sharded).ok().unwrap().shutdown();
}

/// Weights drawn from a range this wide never repeat, so a stream has
/// no duplicate edges. That is what makes its replies independent of
/// the submission discipline: a pipelined delete is classified while
/// the inserts queued ahead of it are still unapplied, and with a
/// duplicate among them it would see a count of 1 where a synchronous
/// session sees 2 — the conservative (unsafe) class instead of the safe
/// one. Both are correct; the traces would differ.
const DISTINCT_WEIGHTS: u64 = 1 << 40;

/// Updates in each half (insertions, then deletions) of the safe tail.
const SAFE_TAIL: usize = 64 * INLINE_SAFE_PER_SHARD;

/// `streams`, each followed by [`SAFE_TAIL`] insertions of one
/// self-loop on the stream's first vertex and as many deletions of it.
/// A self-loop improves nothing and is never a dependency-tree edge, so
/// the whole tail classifies safe whatever is still pending ahead of
/// it: pipelined, a session's tail is one uninterrupted safe run many
/// times the inline bound.
fn with_safe_tail(streams: &[Vec<Update>]) -> Vec<Vec<Update>> {
    streams
        .iter()
        .map(|stream| {
            let v = match stream[0] {
                Update::InsEdge(e) | Update::DelEdge(e) => e.src,
                Update::InsVertex(v) | Update::DelVertex(v) => v,
            };
            let loop_edge = Edge::new(v, v, 0);
            let mut out = stream.clone();
            out.extend(std::iter::repeat_n(Update::InsEdge(loop_edge), SAFE_TAIL));
            out.extend(std::iter::repeat_n(Update::DelEdge(loop_edge), SAFE_TAIL));
            out
        })
        .collect()
}

/// Shut `server` down and return `(epochs, epochs that ran their safe
/// phase inline)`. Read after the coordinator has exited: it counts an
/// epoch when the epoch ends, which is after its last reply went out.
fn shutdown_counting_epochs(server: Arc<Server>) -> (u64, u64) {
    let epochs = Arc::clone(&server.stats().epochs);
    let inline = Arc::clone(&server.stats().epochs_inline);
    Arc::try_unwrap(server).ok().unwrap().shutdown();
    (
        epochs.load(Ordering::Relaxed),
        inline.load(Ordering::Relaxed),
    )
}

/// One server of a four-way comparison and what its sessions saw.
struct Run {
    shards: usize,
    pipelined: bool,
    server: Arc<Server>,
    traces: Vec<SessionTrace>,
}

impl Run {
    /// Start a server and drive `streams` through it, one synchronous
    /// thread per stream or fully pipelined.
    fn drive(
        backend: BackendKind,
        shards: usize,
        pipelined: bool,
        streams: &[Vec<Update>],
        capacity: usize,
    ) -> Run {
        let server = start(backend, shards, capacity);
        let traces = if pipelined {
            drive_sessions_pipelined(&server, streams)
        } else {
            drive_sessions(&server, streams)
        };
        Run {
            shards,
            pipelined,
            server,
            traces,
        }
    }

    fn name(&self) -> String {
        let how = if self.pipelined { "pipelined" } else { "sync" };
        format!("{how}, {} shard(s)", self.shards)
    }

    /// Shut the server down and check which safe-phase path it took: a
    /// pipelined server with more than one shard must have sent some
    /// epoch through dispatch and barrier, and every other server must
    /// have run every epoch inline (one update in flight per session
    /// is under any bound; one shard has nobody to dispatch to).
    fn finish(self, label: &str) {
        let name = self.name();
        let (epochs, inline) = shutdown_counting_epochs(self.server);
        assert_eq!(
            epochs > inline,
            self.pipelined && self.shards > 1,
            "{label} [{name}]: {inline} of {epochs} epochs ran inline"
        );
    }
}

/// The four-way differential behind every `*_pipelined` twin: drive
/// `streams` (plus the safe tail) synchronously and pipelined through
/// configuration `a` and through configuration `b` — four servers, so
/// two backends each — then assert that all four are observably
/// equivalent (version for version when there is a single stream) and
/// that each took the safe-phase path it is there to test
/// ([`Run::finish`]).
fn four_way(
    label: &str,
    (backends_a, shards_a): ([BackendKind; 2], usize),
    (backends_b, shards_b): ([BackendKind; 2], usize),
    streams: &[Vec<Update>],
    capacity: usize,
) {
    let streams = with_safe_tail(streams);
    let [sync_a, pipe_a] = backends_a;
    let [sync_b, pipe_b] = backends_b;
    let runs = [
        (sync_a, shards_a, false),
        (sync_b, shards_b, false),
        (pipe_a, shards_a, true),
        (pipe_b, shards_b, true),
    ]
    .map(|(backend, shards, pipelined)| Run::drive(backend, shards, pipelined, &streams, capacity));
    for other in &runs[1..] {
        if streams.len() == 1 {
            // A single session serializes everything however it
            // submits, so even the version numbers must agree.
            assert_eq!(
                runs[0].traces[0].steps, other.traces[0].steps,
                "{label}: version-exact trace equality"
            );
        }
        assert_servers_equivalent(
            &format!("{label} [{}] vs [{}]", runs[0].name(), other.name()),
            &runs[0].server,
            &runs[0].traces,
            &other.server,
            &other.traces,
            &streams,
            Wcc::new(),
            capacity,
        );
    }
    for run in runs {
        run.finish(label);
    }
}

/// [`four_way`] over IA_Hash: `shards = 1` against `shards = shards_b`.
fn four_way_ia_hash(label: &str, shards_b: usize, streams: &[Vec<Update>], capacity: usize) {
    four_way(
        label,
        ([BackendKind::IaHash, BackendKind::IaHash], 1),
        ([BackendKind::IaHash, BackendKind::IaHash], shards_b),
        streams,
        capacity,
    );
}

#[test]
fn sharded_equals_serial_on_ia_hash() {
    for seed in [1u64, 2, 3] {
        let cfg = RegionStreamConfig {
            sessions: 4,
            region: 20,
            steps: 120,
            seed,
            ..RegionStreamConfig::default()
        };
        differential(
            &format!("IA_Hash seed {seed}"),
            BackendKind::IaHash,
            BackendKind::IaHash,
            4,
            &disjoint_session_streams(&cfg),
            cfg.capacity(),
        );
    }
}

#[test]
fn sharded_equals_serial_on_ia_hash_pipelined() {
    for seed in [1u64, 2, 3] {
        let cfg = RegionStreamConfig {
            sessions: 4,
            region: 20,
            steps: 120,
            seed,
            max_weight: DISTINCT_WEIGHTS,
            ..RegionStreamConfig::default()
        };
        four_way_ia_hash(
            &format!("IA_Hash seed {seed}"),
            4,
            &disjoint_session_streams(&cfg),
            cfg.capacity(),
        );
    }
}

#[test]
fn sharded_equals_serial_on_ooc() {
    let cfg = RegionStreamConfig {
        sessions: 4,
        region: 16,
        steps: 80,
        seed: 9,
        ..RegionStreamConfig::default()
    };
    // Tiny caches force block evictions mid-stream on both servers.
    let (ooc_a, path_a) = risgraph_testkit::ooc_backend("shard-diff-serial", 4);
    let (ooc_b, path_b) = risgraph_testkit::ooc_backend("shard-diff-sharded", 4);
    differential(
        "OOC",
        ooc_a,
        ooc_b,
        4,
        &disjoint_session_streams(&cfg),
        cfg.capacity(),
    );
    let _ = std::fs::remove_file(path_a);
    let _ = std::fs::remove_file(path_b);
}

#[test]
fn sharded_equals_serial_on_ooc_pipelined() {
    let cfg = RegionStreamConfig {
        sessions: 4,
        region: 16,
        steps: 80,
        seed: 9,
        max_weight: DISTINCT_WEIGHTS,
        ..RegionStreamConfig::default()
    };
    let (backends, paths): (Vec<_>, Vec<_>) = (0..4)
        .map(|i| risgraph_testkit::ooc_backend(&format!("shard-diff-four-way-{i}"), 4))
        .unzip();
    let [sync_a, pipe_a, sync_b, pipe_b]: [BackendKind; 4] = backends.try_into().ok().unwrap();
    four_way(
        "OOC",
        ([sync_a, pipe_a], 1),
        ([sync_b, pipe_b], 4),
        &disjoint_session_streams(&cfg),
        cfg.capacity(),
    );
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

/// The acceptance triangle for the mmap OOC store: `ooc-mmap` must be
/// observably identical to IA_Hash and to the legacy global-mutex
/// `ooc` store, at `shards = 1` and `shards = 4` — same outcomes and
/// safety classes, same point-in-time values against the oracle, same
/// modification sets, same final values and count-annotated store
/// contents. With `sharded_equals_serial_on_ooc` above this chains
/// `ooc-mmap ≡ ooc ≡ IA_Hash` at both shard counts.
#[test]
fn ooc_mmap_equals_legacy_ooc_and_ia_hash() {
    let cfg = RegionStreamConfig {
        sessions: 4,
        region: 16,
        steps: 80,
        seed: 31,
        ..RegionStreamConfig::default()
    };
    let streams = disjoint_session_streams(&cfg);
    let mut scratch = Vec::new();

    // IA_Hash serial vs ooc-mmap serial.
    let (mmap_s1, p) = risgraph_testkit::ooc_mmap_backend("mmap-diff-serial");
    scratch.push(p);
    differential_pair(
        "IA_Hash s1 vs OOC_MMAP s1",
        (BackendKind::IaHash, 1),
        (mmap_s1, 1),
        &streams,
        cfg.capacity(),
    );

    // IA_Hash serial vs ooc-mmap sharded: the striped locks must admit
    // real concurrency without changing anything observable.
    let (mmap_s4, p) = risgraph_testkit::ooc_mmap_backend("mmap-diff-sharded");
    scratch.push(p);
    differential_pair(
        "IA_Hash s1 vs OOC_MMAP s4",
        (BackendKind::IaHash, 1),
        (mmap_s4, 4),
        &streams,
        cfg.capacity(),
    );

    // Legacy ooc sharded vs ooc-mmap sharded: same epochs, same
    // backend family, one serialized by a global mutex and one by
    // per-vertex stripes.
    let (ooc_s4, p) = risgraph_testkit::ooc_backend("mmap-diff-legacy", 4);
    scratch.push(p);
    let (mmap_s4b, p) = risgraph_testkit::ooc_mmap_backend("mmap-diff-sharded-b");
    scratch.push(p);
    differential_pair(
        "OOC s4 vs OOC_MMAP s4",
        (ooc_s4, 4),
        (mmap_s4b, 4),
        &streams,
        cfg.capacity(),
    );

    for p in scratch {
        risgraph_testkit::remove_ooc_files(&p);
    }
}

/// The same triangle with both safe-phase paths in play: IA_Hash serial
/// against `ooc-mmap` sharded, then legacy `ooc` sharded against
/// `ooc-mmap` sharded — each pair driven synchronously (inline epochs)
/// and pipelined (dispatched epochs: the striped locks under real
/// cross-shard concurrency).
#[test]
fn ooc_mmap_equals_legacy_ooc_and_ia_hash_pipelined() {
    let cfg = RegionStreamConfig {
        sessions: 4,
        region: 16,
        steps: 80,
        seed: 31,
        max_weight: DISTINCT_WEIGHTS,
        ..RegionStreamConfig::default()
    };
    let streams = disjoint_session_streams(&cfg);
    let mut scratch = Vec::new();
    let mut mmap = |tag: &str| {
        let (backend, p) = risgraph_testkit::ooc_mmap_backend(tag);
        scratch.push(p);
        backend
    };
    let mmap_a = [mmap("mmap-four-way-a-sync"), mmap("mmap-four-way-a-pipe")];
    let mmap_b = [mmap("mmap-four-way-b-sync"), mmap("mmap-four-way-b-pipe")];
    four_way(
        "IA_Hash s1 vs OOC_MMAP s4",
        ([BackendKind::IaHash, BackendKind::IaHash], 1),
        (mmap_a, 4),
        &streams,
        cfg.capacity(),
    );
    let (ooc_sync, p) = risgraph_testkit::ooc_backend("mmap-four-way-legacy-sync", 4);
    scratch.push(p);
    let (ooc_pipe, p) = risgraph_testkit::ooc_backend("mmap-four-way-legacy-pipe", 4);
    scratch.push(p);
    four_way(
        "OOC s4 vs OOC_MMAP s4",
        ([ooc_sync, ooc_pipe], 4),
        (mmap_b, 4),
        &streams,
        cfg.capacity(),
    );
    for p in scratch {
        risgraph_testkit::remove_ooc_files(&p);
    }
}

/// The parallel unsafe phase differential (§7): `unsafe_workers = 4`
/// must be observably identical to `unsafe_workers = 1` on an
/// all-unsafe workload — per-session chain churn under WCC, where
/// every update splits or merges its session's component. Sessions
/// pipeline their streams ([`drive_sessions_pipelined`]) so the unsafe
/// queue genuinely fills with concurrently pending updates, and the
/// `unsafe_parallel_groups` counter proves the parallel path (not its
/// serial fallback) did the work being compared. Checked at shards 1
/// and 4 on IA_Hash and on the mmap OOC store.
#[test]
fn parallel_unsafe_equals_serial() {
    let cfg = UnsafeChainConfig {
        sessions: 4,
        chain: 12,
        base: 1,
        pairs: 40,
    };
    let streams = unsafe_chain_streams_with_build(&cfg);
    let n = cfg.capacity();

    let unsafe_differential = |label: &str, serial: Arc<Server>, parallel: Arc<Server>| {
        let traces_serial = drive_sessions_pipelined(&serial, &streams);
        let traces_parallel = drive_sessions_pipelined(&parallel, &streams);
        assert_servers_equivalent(
            label,
            &serial,
            &traces_serial,
            &parallel,
            &traces_parallel,
            &streams,
            Wcc::new(),
            n,
        );
        let groups = parallel
            .stats()
            .unsafe_parallel_groups
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(groups > 0, "{label}: parallel unsafe phase never engaged");
        assert_eq!(
            serial
                .stats()
                .unsafe_parallel_groups
                .load(std::sync::atomic::Ordering::Relaxed),
            0,
            "{label}: unsafe_workers = 1 must never group"
        );
        Arc::try_unwrap(serial).ok().unwrap().shutdown();
        Arc::try_unwrap(parallel).ok().unwrap().shutdown();
    };

    for shards in [1usize, 4] {
        unsafe_differential(
            &format!("IA_Hash s{shards} w1 vs w4"),
            start_workers(BackendKind::IaHash, shards, n, 1),
            start_workers(BackendKind::IaHash, shards, n, 4),
        );

        let (mmap_a, pa) =
            risgraph_testkit::ooc_mmap_backend(&format!("unsafe-diff-s{shards}-serial"));
        let (mmap_b, pb) =
            risgraph_testkit::ooc_mmap_backend(&format!("unsafe-diff-s{shards}-parallel"));
        unsafe_differential(
            &format!("OOC_MMAP s{shards} w1 vs w4"),
            start_workers(mmap_a, shards, n, 1),
            start_workers(mmap_b, shards, n, 4),
        );
        risgraph_testkit::remove_ooc_files(&pa);
        risgraph_testkit::remove_ooc_files(&pb);
    }
}

/// A single synchronous session serializes everything, so the two
/// servers must agree *exactly* — version numbers included.
#[test]
fn single_session_versions_are_identical() {
    let n = 24usize;
    let stream = vec![random_stream(n as u64, 200, 5, 4)];
    let serial = start(BackendKind::IaHash, 1, n);
    let sharded = start(BackendKind::IaHash, 4, n);
    let ta = drive_sessions(&serial, &stream);
    let tb = drive_sessions(&sharded, &stream);
    assert_eq!(ta[0].steps, tb[0].steps, "version-exact trace equality");
    assert_servers_equivalent(
        "single session",
        &serial,
        &ta,
        &sharded,
        &tb,
        &stream,
        Wcc::new(),
        n,
    );
    Arc::try_unwrap(serial).ok().unwrap().shutdown();
    Arc::try_unwrap(sharded).ok().unwrap().shutdown();
}

/// The single-session case on both paths: synchronous or pipelined,
/// serial or sharded, the four servers must agree on every version
/// number ([`four_way`] checks that whenever there is one stream).
/// Pipelined, the session's safe runs are single epochs far beyond the
/// inline bound, each dispatched whole to the session's shard.
#[test]
fn single_session_versions_are_identical_pipelined() {
    let n = 24usize;
    let stream = [random_stream(n as u64, 200, 5, DISTINCT_WEIGHTS)];
    four_way_ia_hash("single session", 4, &stream, n);
}

/// What one session does in every round of
/// [`trickle_and_burst_share_one_server`].
struct Round {
    /// Submitted one at a time, each reply awaited: inline epochs.
    trickle: Vec<Update>,
    /// Submitted at once, replies collected afterwards: epochs beyond
    /// the inline bound.
    burst: Vec<Update>,
}

/// Inline and sharded epochs adjacent on one server. Each round, every
/// session first trickles — building two tree edges `e`, `f` and a
/// duplicate of each — then bursts: both copies of `e` deleted back to
/// back, a long safe run, both copies of `f`, another safe run. The
/// second delete of a pair is classified safe while two copies exist
/// and fails revalidation once the first has run, so it is demoted and
/// its session's suffix requeued: by a small epoch at the head of the
/// burst (picked up by the sharded epoch behind it) and by a sharded
/// epoch in its middle (picked up by whatever follows). The replies
/// must match a serial server that saw the same streams one update at
/// a time.
#[test]
fn trickle_and_burst_share_one_server() {
    const SESSIONS: u64 = 4;
    const REGION: u64 = 4;
    const ROUNDS: usize = 5;
    let capacity = (1 + SESSIONS * REGION) as usize;
    // One round per session; every round repeats it (a round leaves the
    // session's region as it found it).
    let plan: Vec<Round> = (0..SESSIONS)
        .map(|i| {
            let lo = 1 + i * REGION;
            let (e, f) = (Edge::new(lo, lo + 1, 7), Edge::new(lo, lo + 2, 7));
            let safe_run = |u: Update| std::iter::repeat_n(u, SAFE_TAIL);
            let loop_edge = Edge::new(lo + 3, lo + 3, 0);
            Round {
                trickle: [e, e, f, f].map(Update::InsEdge).to_vec(),
                burst: [Update::DelEdge(e), Update::DelEdge(e)]
                    .into_iter()
                    .chain(safe_run(Update::InsEdge(loop_edge)))
                    .chain([Update::DelEdge(f), Update::DelEdge(f)])
                    .chain(safe_run(Update::DelEdge(loop_edge)))
                    .collect(),
            }
        })
        .collect();
    let streams: Vec<Vec<Update>> = plan
        .iter()
        .map(|r| [&r.trickle[..], &r.burst[..]].concat().repeat(ROUNDS))
        .collect();

    let mixed = start(BackendKind::IaHash, 4, capacity);
    let sessions: Vec<Session> = plan.iter().map(|_| mixed.session()).collect();
    let mut traces: Vec<SessionTrace> = plan
        .iter()
        .map(|_| SessionTrace { steps: Vec::new() })
        .collect();
    // Every session's burst has the same shape: interleave them.
    let burst_len = plan[0].burst.len();
    for round in 0..ROUNDS {
        for (i, session) in sessions.iter().enumerate() {
            for u in &plan[i].trickle {
                traces[i].steps.push(session.submit_update(u).into());
            }
        }
        for t in 0..burst_len {
            for (session, r) in sessions.iter().zip(&plan) {
                session
                    .submit_update_tagged(&r.burst[t], t as u64)
                    .expect("submit");
            }
        }
        for (i, session) in sessions.iter().enumerate() {
            for t in 0..burst_len {
                // One session's replies arrive in submission order.
                let (tag, reply) = session.recv_tagged().expect("reply");
                assert_eq!(tag, t as u64, "session {i} round {round}: reply order");
                traces[i].steps.push(reply.into());
            }
        }
    }
    drop(sessions);

    assert!(
        mixed.stats().demotions.load(Ordering::Relaxed) > 0,
        "no delete pair shared an epoch: the requeue path went untested"
    );

    let serial = start(BackendKind::IaHash, 1, capacity);
    let traces_serial = drive_sessions(&serial, &streams);
    assert_servers_equivalent(
        "trickle + burst on 4 shards vs synchronous serial",
        &serial,
        &traces_serial,
        &mixed,
        &traces,
        &streams,
        Wcc::new(),
        capacity,
    );
    Arc::try_unwrap(serial).ok().unwrap().shutdown();
    let (epochs, inline) = shutdown_counting_epochs(mixed);
    assert!(inline > 0, "no inline epoch among {epochs}");
    assert!(epochs > inline, "no sharded epoch among {epochs}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized differential: arbitrary seeds, session counts and
    /// stream lengths, shards=1 vs shards=4 on IA_Hash.
    #[test]
    fn sharded_differential_prop(
        seed in 0u64..1000,
        sessions in 2usize..5,
        steps in 30usize..90,
    ) {
        let cfg = RegionStreamConfig {
            sessions,
            region: 16,
            steps,
            seed,
            ..RegionStreamConfig::default()
        };
        differential(
            &format!("prop seed {seed} sessions {sessions} steps {steps}"),
            BackendKind::IaHash,
            BackendKind::IaHash,
            4,
            &disjoint_session_streams(&cfg),
            cfg.capacity(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// [`sharded_differential_prop`] on both safe-phase paths.
    #[test]
    fn sharded_differential_prop_pipelined(
        seed in 0u64..1000,
        sessions in 2usize..5,
        steps in 30usize..90,
    ) {
        let cfg = RegionStreamConfig {
            sessions,
            region: 16,
            steps,
            seed,
            max_weight: DISTINCT_WEIGHTS,
            ..RegionStreamConfig::default()
        };
        four_way_ia_hash(
            &format!("prop seed {seed} sessions {sessions} steps {steps}"),
            4,
            &disjoint_session_streams(&cfg),
            cfg.capacity(),
        );
    }
}

#[test]
#[ignore = "slow: big differential, run via `cargo test --release -- --ignored`"]
fn sharded_equals_serial_big_pipelined() {
    for (label, shards) in [("2 shards", 2), ("4 shards", 4), ("8 shards", 8)] {
        let cfg = RegionStreamConfig {
            sessions: 8,
            region: 32,
            steps: 500,
            seed: 42,
            max_weight: DISTINCT_WEIGHTS,
            ..RegionStreamConfig::default()
        };
        four_way_ia_hash(
            &format!("big IA_Hash {label}"),
            shards,
            &disjoint_session_streams(&cfg),
            cfg.capacity(),
        );
    }
}

#[test]
#[ignore = "slow: big differential, run via `cargo test --release -- --ignored`"]
fn sharded_equals_serial_big() {
    for (label, shards) in [("2 shards", 2), ("4 shards", 4), ("8 shards", 8)] {
        let cfg = RegionStreamConfig {
            sessions: 8,
            region: 32,
            steps: 500,
            seed: 42,
            ..RegionStreamConfig::default()
        };
        differential(
            &format!("big IA_Hash {label}"),
            BackendKind::IaHash,
            BackendKind::IaHash,
            shards,
            &disjoint_session_streams(&cfg),
            cfg.capacity(),
        );
    }
    let cfg = RegionStreamConfig {
        sessions: 6,
        region: 24,
        steps: 300,
        seed: 43,
        ..RegionStreamConfig::default()
    };
    let (ooc_a, path_a) = risgraph_testkit::ooc_backend("shard-diff-big-serial", 8);
    let (ooc_b, path_b) = risgraph_testkit::ooc_backend("shard-diff-big-sharded", 8);
    differential(
        "big OOC",
        ooc_a,
        ooc_b,
        4,
        &disjoint_session_streams(&cfg),
        cfg.capacity(),
    );
    let _ = std::fs::remove_file(path_a);
    let _ = std::fs::remove_file(path_b);
    let (mmap_a, path_a) = risgraph_testkit::ooc_mmap_backend("shard-diff-big-mmap-serial");
    let (mmap_b, path_b) = risgraph_testkit::ooc_mmap_backend("shard-diff-big-mmap-sharded");
    let cfg = RegionStreamConfig {
        sessions: 8,
        region: 32,
        steps: 500,
        seed: 44,
        ..RegionStreamConfig::default()
    };
    differential_pair(
        "big OOC_MMAP",
        (mmap_a, 1),
        (mmap_b, 8),
        &disjoint_session_streams(&cfg),
        cfg.capacity(),
    );
    risgraph_testkit::remove_ooc_files(&path_a);
    risgraph_testkit::remove_ooc_files(&path_b);
}
