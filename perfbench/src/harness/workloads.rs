//! The seven workloads and the code that runs one of them.
//!
//! A run: generate inputs from the seed → set the server up (several
//! times; the median is `setup_s`) → warm up → measure for the run's
//! seconds in slices → check the final results against a full
//! recompute → with a WAL, restart from it and compare. The server is
//! started in-process with `ServerConfig::default()` /
//! `NetConfig::default()` — the caller has scrubbed every `RISGRAPH_*`
//! variable — overriding only what the workload states, so a later
//! change that improves a default shows up and a stray shell variable
//! cannot move a number.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use risgraph_common::ids::{Edge, Update};
use risgraph_core::server::{Server, ServerConfig};
use risgraph_net::{NetClient, NetConfig, NetServer};
use risgraph_testkit::{remove_wal, LiveEdge};

use super::counters;
use super::inputs::{self, Algo, Inputs, FULL_SCALE, QUICK_SCALE};
use super::json::Json;
use super::layers::{self, Row};
use super::loadgen::{
    closed_inproc, closed_tcp, mux_tcp, open_tcp, reader_tcp, OpenLoopHealth, ReadTarget,
    StartGate, ThreadOut, TraceCfg, WriterDuties,
};
use super::samples::{median, percentile, Plan, Recorder, Summary};
use super::spans::SpanLog;
use super::verify;

/// Load generating threads (and connections) of a two-sided workload:
/// the sandbox has two cores, and more generators than cores would
/// measure the scheduler.
pub fn clients() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Server instances per untraced run of most workloads (see [`run`]).
pub const INSTANCES: usize = 3;
/// Timed set-ups per untraced run; `setup_s` is their median. A set-up
/// that takes less than a millisecond (the 512-vertex graph's) is
/// mostly thread-spawn jitter, so it is repeated beyond [`SETUP_REPS`]
/// until the repetitions add up to [`MIN_TIMED`] (at most
/// [`MAX_REPS`] of them).
pub const SETUP_REPS: usize = 5;
pub const MIN_TIMED: f64 = 0.03;
pub const MAX_REPS: usize = 41;

/// Whether a figure timed `so_far` needs another repetition.
fn repeat_again(so_far: &[f64], reps: usize) -> bool {
    so_far.len() < reps
        || (reps > 1 && so_far.len() < MAX_REPS && so_far.iter().sum::<f64>() < MIN_TIMED)
}
/// The frozen open-loop rate, updates per second (see README: sustained
/// on the reference box at 25–60 % of `tcp_safe_peak`).
pub const OPEN_RATE: f64 = 100_000.0;
/// One request in this many becomes a span in a traced run.
pub const TRACE_EVERY: u64 = 256;

/// What the client side looks like.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Closed loop: `clients()` TCP connections × `window` in flight.
    ClosedTcp { window: usize },
    /// Open loop: one TCP connection, fixed arrival rate.
    OpenTcp { rate: f64 },
    /// Closed loop, no socket: `clients()` in-process sessions, one
    /// update in flight each.
    ClosedInProc,
    /// One writer connection and one reader connection, both closed.
    ReadWriteTcp {
        writer_window: usize,
        reader_window: usize,
    },
    /// `clients()` connections × `sessions` protocol-v2 sessions × one
    /// update in flight per session.
    MuxTcp { sessions: usize },
}

/// What the updates are (see [`inputs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    SafeChurn,
    PaperStream,
    UnsafeChains,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layer does most of the work, which does little.
    pub why: &'static str,
    pub algo: Algo,
    pub traffic: Traffic,
    pub shape: Shape,
    /// WAL on, 4 MiB segments, group commit every 100 ms, a checkpoint
    /// 1.25 s after the last: six or more cycles in a 10 s interval. An
    /// untraced run adds a second reading at the default group commit.
    pub durable: bool,
    /// Server instances an untraced run's seconds are shared by (see
    /// [`run`]): [`INSTANCES`], or 1 where the state a workload builds
    /// up needs longer than a short warm-up to level off.
    pub instances: usize,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "tcp_safe_peak",
        why: "saturation throughput of safe churn over 2 pipelined TCP conns: net, gather/classify and the safe phase work; push, history and WAL idle",
        algo: Algo::Bfs,
        traffic: Traffic::SafeChurn,
        shape: Shape::ClosedTcp { window: 64 },
        durable: false,
        instances: INSTANCES,
    },
    Workload {
        name: "tcp_safe_open",
        why: "same traffic on an open loop at a fixed 100k updates/s, latency from due time: the per-request path below saturation that window-64 queueing hides",
        algo: Algo::Bfs,
        traffic: Traffic::SafeChurn,
        shape: Shape::OpenTcp { rate: OPEN_RATE },
        durable: false,
        instances: INSTANCES,
    },
    Workload {
        name: "inproc_paper_sync",
        why: "the paper's synchronous sessions on the 6.1 stream with no socket: session channel, classify, apply and history work; net and protocol do nothing",
        algo: Algo::Sssp,
        traffic: Traffic::PaperStream,
        shape: Shape::ClosedInProc,
        durable: false,
        instances: INSTANCES,
    },
    Workload {
        name: "inproc_unsafe_chains",
        why: "100% unsafe on a cache-resident 512-vertex graph: unsafe phase, push, tree and history record work; the safe phase does none",
        algo: Algo::Wcc,
        traffic: Traffic::UnsafeChains,
        shape: Shape::ClosedInProc,
        durable: false,
        // Resident history (≈ 255 changes per update, collected on
        // 1 s cadences) takes ≈ 4 s to level off, and throughput falls
        // until it has.
        instances: 1,
    },
    Workload {
        name: "tcp_read_write",
        why: "versioned reads beside writes on one history store: a change that speeds one side at the other's cost moves loadgen.read_* and update_* apart",
        algo: Algo::Sssp,
        traffic: Traffic::PaperStream,
        shape: Shape::ReadWriteTcp {
            writer_window: 64,
            reader_window: 8,
        },
        durable: false,
        instances: INSTANCES,
    },
    Workload {
        name: "tcp_durable_checkpoint",
        why: "the only workload with the WAL on: append, group commit, rotation and inline checkpoints work, then the one restart that reads a log (loadgen.recovery_s)",
        algo: Algo::Sssp,
        traffic: Traffic::PaperStream,
        shape: Shape::ClosedTcp { window: 64 },
        durable: true,
        instances: INSTANCES,
    },
    Workload {
        name: "tcp_mux_sessions",
        why: "safe churn spread over 2048 multiplexed sessions: session lookup and per-epoch pending rescans dominate, per-connection costs amortise away",
        algo: Algo::Bfs,
        traffic: Traffic::SafeChurn,
        shape: Shape::MuxTcp { sessions: 1024 },
        durable: false,
        instances: INSTANCES,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Whether a traced run also runs the layer harness (`bench trace`
    /// takes that once, not once per workload).
    pub layers: bool,
    pub quick: bool,
    /// Scratch and span files go here (inside the checkout).
    pub out_dir: PathBuf,
}

impl Workload {
    pub fn scale(&self, quick: bool) -> u32 {
        if quick {
            QUICK_SCALE
        } else {
            FULL_SCALE
        }
    }

    /// Logical sessions the inputs are generated for.
    fn sessions(&self, quick: bool) -> usize {
        match self.shape {
            Shape::ClosedTcp { .. } | Shape::ClosedInProc => clients(),
            Shape::OpenTcp { .. } | Shape::ReadWriteTcp { .. } => 1,
            Shape::MuxTcp { sessions } => clients() * if quick { sessions / 8 } else { sessions },
        }
    }

    /// The seeded inputs of this workload.
    pub fn generate(&self, seed: u64, quick: bool) -> Inputs {
        let scale = self.scale(quick);
        let sessions = self.sessions(quick);
        match self.traffic {
            Traffic::SafeChurn => {
                // Enough pairs that a cycle outlasts the caches; the mux
                // workload has many short streams instead of few long.
                let pairs = match self.shape {
                    Shape::MuxTcp { .. } => 64,
                    _ if quick => 5_000,
                    _ => 50_000,
                };
                inputs::safe_churn_inputs(seed, scale, self.algo, sessions, pairs)
            }
            Traffic::PaperStream => inputs::paper_stream_inputs(seed, scale, self.algo, sessions),
            Traffic::UnsafeChains => inputs::unsafe_chain_inputs(seed, sessions),
        }
    }

    /// `ServerConfig::default()` plus what this workload states.
    pub fn server_config(&self, wal_base: &Path) -> ServerConfig {
        let mut config = ServerConfig::default();
        if self.durable {
            config.wal_path = Some(wal_base.to_path_buf());
            config.max_wal_segment_bytes = 4 << 20;
            config.checkpoint_interval = Some(Duration::from_millis(1250));
            // Group commit every 100 ms, not the default 2 ms: at 2 ms
            // the run meters the sandbox disk's fsync latency (over ten
            // seeds throughput spread 15 % and P50 21 %, against 6–10 %
            // and 10–13 %). The default has a second, unbounded reading.
            config.wal_sync_interval = Duration::from_millis(100);
        }
        config
    }

    /// Whether clients advance their release floor every second, so
    /// that history GC runs: wherever traffic has unsafe updates (safe
    /// ones leave no history to collect).
    fn release(&self) -> bool {
        self.traffic != Traffic::SafeChurn
    }

    fn over_tcp(&self) -> bool {
        !matches!(self.shape, Shape::ClosedInProc)
    }

    fn threads(&self, inputs: &Inputs) -> usize {
        match self.shape {
            Shape::ClosedTcp { .. } | Shape::ClosedInProc => inputs.streams.len(),
            Shape::OpenTcp { .. } => 1,
            Shape::ReadWriteTcp { .. } => 2,
            Shape::MuxTcp { .. } => clients(),
        }
    }
}

/// The resolved configuration of a workload, for the fingerprint.
pub fn config_json(w: &Workload) -> Json {
    let c = w.server_config(Path::new("<out>/wal"));
    let n = NetConfig::default();
    let ms = |d: Duration| Json::Num(d.as_secs_f64() * 1e3);
    Json::obj([
        ("algorithm", Json::str(w.algo.name())),
        ("backend", Json::str(c.backend.label())),
        ("shards", Json::Num(c.shards as f64)),
        ("engine_threads", Json::Num(c.engine.threads as f64)),
        (
            "index_threshold",
            Json::Num(c.engine.index_threshold as f64),
        ),
        ("unsafe_workers", Json::Num(c.unsafe_workers as f64)),
        (
            "unsafe_footprint_cap",
            Json::Num(c.unsafe_footprint_cap as f64),
        ),
        ("max_epoch_updates", Json::Num(c.max_epoch_updates as f64)),
        ("enable_history", Json::Bool(c.enable_history)),
        ("gc_interval_ms", ms(c.gc_interval)),
        ("idle_poll_ms", ms(c.idle_poll)),
        ("wal", Json::Bool(c.wal_path.is_some())),
        ("wal_sync_interval_ms", ms(c.wal_sync_interval)),
        (
            "max_wal_segment_bytes",
            Json::Num(c.max_wal_segment_bytes as f64),
        ),
        (
            "checkpoint_interval_ms",
            c.checkpoint_interval.map_or(Json::Null, ms),
        ),
        ("max_followers", Json::Num(c.max_followers as f64)),
        ("net_workers", Json::Num(n.net_workers as f64)),
        ("net_window", Json::Num(n.window as f64)),
        ("net_inflight_budget", Json::Num(n.inflight_budget as f64)),
        ("net_session_quota", Json::Num(n.session_quota as f64)),
        (
            "net_accept_high_water",
            Json::Num(n.accept_high_water as f64),
        ),
    ])
}

/// The server under test, with or without the TCP tier in front.
enum System {
    Net(NetServer),
    InProc(Server),
}

impl System {
    /// Construct → preload + initial computation.
    fn build(w: &Workload, inputs: &Inputs, config: ServerConfig) -> Result<System, String> {
        let algorithms = vec![w.algo.make()];
        let system = if w.over_tcp() {
            System::Net(
                NetServer::start(algorithms, inputs.capacity, config, NetConfig::default())
                    .map_err(|e| format!("net server start: {e}"))?,
            )
        } else {
            System::InProc(
                Server::start(algorithms, inputs.capacity, config)
                    .map_err(|e| format!("server start: {e}"))?,
            )
        };
        system.server().load_edges(&inputs.preload);
        Ok(system)
    }

    fn server(&self) -> &Server {
        match self {
            System::Net(n) => n.server(),
            System::InProc(s) => s,
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            System::Net(n) => n.local_addr(),
            System::InProc(_) => unreachable!("in-process workloads have no address"),
        }
    }

    /// The first request a client gets answered.
    fn first_request(&self) -> Result<(), String> {
        match self {
            System::Net(n) => NetClient::connect(n.local_addr())
                .and_then(|c| c.current_version())
                .map(drop)
                .map_err(|e| format!("first request: {e}")),
            System::InProc(s) => {
                s.session().get_current_version();
                Ok(())
            }
        }
    }

    fn shutdown(self) {
        match self {
            System::Net(n) => n.shutdown(),
            System::InProc(s) => s.shutdown(),
        }
    }
}

/// What one run produced.
pub struct RunReport {
    pub workload: &'static str,
    /// `result_mismatches == 0`.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The contract's metrics of this mode (end-to-end or per-layer).
    pub metrics: Vec<Row>,
    /// Printed beside them: sample counts, which percentile the tail
    /// is, generator health, and figures the contract's list cannot
    /// carry.
    pub extras: Vec<Row>,
    pub notes: Vec<String>,
}

/// What one server instance's measured interval produced.
struct Measured {
    updates: Recorder,
    reads: Option<Recorder>,
    open: Option<OpenLoopHealth>,
    /// Counter snapshots at interval start and end, and the gauges'
    /// maxima (traced runs).
    counters: Option<(
        counters::Snapshot,
        counters::Snapshot,
        counters::GaugeMaxima,
    )>,
}

/// Run `w` once. `Err` means the run itself broke (a transport failure,
/// a server that would not start, a counter the program stopped
/// exporting) — not a wrong result, which is `correct: false`.
pub fn run(w: &Workload, opts: &Opts) -> Result<RunReport, String> {
    let mut log = SpanLog::new(Instant::now(), 0);
    let mut notes = Vec::new();
    let tmp = opts.out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let wal_base = tmp.join("wal");

    let (inputs, _) = log.time("generate_inputs", 0, || w.generate(opts.seed, opts.quick));
    notes.push(format!(
        "inputs: {} vertices, {} preloaded edges, {} sessions, digest {:016x}",
        inputs.capacity,
        inputs.preload.len(),
        inputs.streams.len(),
        inputs.digest()
    ));
    let config = w.server_config(&wal_base);

    // A run's seconds are shared by several server instances, each set
    // up afresh and measured for its share, their slices pooled: how
    // fast one instance happens to run (thread placement, memory
    // layout) varies more than one instance does over time, and the
    // median over pooled slices is robust to one unlucky instance.
    // Each set-up — server construct → preload + initial computation →
    // first request accepted — is timed; `setup_s` is their median.
    // A traced run keeps one instance: its counters need one interval.
    let instances = if opts.trace { 1 } else { w.instances };
    let plan = Plan::new(opts.seconds, instances, opts.quick);
    let mut setups = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut updates: Option<Recorder> = None;
    let mut reads: Option<Recorder> = None;
    let mut open: Option<OpenLoopHealth> = None;
    let mut traced = None;
    let mut last: Option<System> = None;
    for i in 0..instances {
        if let Some(previous) = last.take() {
            previous.shutdown();
            remove_wal(&wal_base);
        }
        let system = timed_setup(w, &inputs, &config, &mut log, &mut setups)?;
        let unexported = counters::missing(system.server().metrics(), w.over_tcp(), w.durable);
        if !unexported.is_empty() {
            return Err(format!(
                "the program no longer exports {}: the benchmark reads them and needs updating",
                unexported.join(", ")
            ));
        }
        let m = measure(w, opts, &inputs, &system, plan, &mut log)?;
        if i == 0 {
            // One system's memory, before later instances add to it.
            peak_rss_mb = peak_rss_mb_now();
        }
        pool(&mut updates, m.updates);
        if let Some(r) = m.reads {
            pool(&mut reads, r);
        }
        match (open.as_mut(), m.open) {
            (Some(total), Some(part)) => total.absorb(part),
            (None, part) => open = part,
            (Some(_), None) => {}
        }
        traced = m.counters.map(|c| (c, system.server().metrics().clone()));
        last = Some(system);
    }
    let system = last.expect("at least one instance");
    let updates = updates
        .expect("at least one instance")
        .summarize(plan.slice);
    let reads = reads.map(|r| r.summarize(plan.slice));
    let counter_rows = traced.map(|((start, end, gauges), registry)| {
        (
            counters::derive(&start, &end, gauges, updates.p50_us),
            counters::epoch_total_p99_us(&registry),
        )
    });

    if w.durable && !fold_tail_into_checkpoint(system.server(), inputs.preload[0]) {
        notes.push("no checkpoint fired before shutdown: the restart replays a WAL tail".into());
    }

    // Output check, on the quiesced engine.
    let engine = system.server().engine();
    let (state, _) = log.time("capture_final_state", 0, || verify::capture(engine));
    let (expect, _) = log.time("oracle_recompute", 0, || verify::oracle(w.algo, &state));
    let mut mismatches = verify::result_mismatches(w.algo, engine, &state, &expect);
    let wal_checkpoint_max_ms = counters::wal_checkpoint_max_ms(system.server().metrics());
    system.shutdown();

    // With a WAL: restart from snapshot + segments, and compare. The
    // tail was folded into a checkpoint above, so every run recovers
    // from the same kind of log (and it has to be: the preload is
    // bulk-loaded, not logged, so only a snapshot holds it). Without a
    // WAL nothing persisted and there is nothing to recover.
    let mut recovery_s = None;
    if w.durable {
        let start = Instant::now();
        let recovered = Server::start(vec![w.algo.make()], inputs.capacity, config.clone())
            .map_err(|e| format!("restart: {e}"))?;
        recovered.session().get_current_version();
        let end = Instant::now();
        log.add("recovery", 0, start, end);
        recovery_s = Some((end - start).as_secs_f64());
        let after = recovered
            .engine()
            .values_snapshot(0, recovered.engine().capacity());
        mismatches += verify::value_mismatches(&state.values, &after);
        recovered.shutdown();
    }

    // The durable workload's second reading: one more instance, at the
    // program's default group commit, so that a change to that default
    // (or to what a commit costs the coordinator) shows somewhere.
    let mut default_commit = None;
    if w.durable && !opts.trace {
        remove_wal(&wal_base);
        let mut config = config.clone();
        config.wal_sync_interval = ServerConfig::default().wal_sync_interval;
        let system = System::build(w, &inputs, config)?;
        let m = measure(w, opts, &inputs, &system, plan, &mut log)?;
        system.shutdown();
        default_commit = Some(m.updates.summarize(plan.slice));
    }

    // Set-ups beyond those the measured instances provided.
    while repeat_again(&setups, if opts.trace { 1 } else { SETUP_REPS }) {
        remove_wal(&wal_base);
        timed_setup(w, &inputs, &config, &mut log, &mut setups)?.shutdown();
    }
    notes.push(format!(
        "set-ups, s ({}; the first {}): {}",
        setups.len(),
        setups.len().min(8),
        setups
            .iter()
            .take(8)
            .map(|s| format!("{s:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let u = &updates;
    let beside = [reads.as_ref(), default_commit.as_ref()];
    let failed = u.failed + beside.iter().flatten().map(|s| s.failed).sum::<u64>();
    let attempted = u.attempted + beside.iter().flatten().map(|s| s.attempted).sum::<u64>();
    let mut extras = vec![
        Row::new(
            "result_mismatches",
            mismatches as f64,
            "count",
            state.values.len() as u64,
        ),
        Row::new(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            attempted,
        ),
    ];
    notes.push(format!(
        "update ops/s per slice: {}",
        u.slice_ops_s
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // Figures only one workload has (README, "Scoped"): printed beside
    // the contract's metrics by the workload that has them, because the
    // contract's lists hold what every workload reports.
    if let Some(s) = recovery_s {
        extras.push(Row::new("loadgen.recovery_s", s, "s", 1));
        extras.push(Row::new(
            "core.epoch.wal_checkpoint_max_ms",
            wal_checkpoint_max_ms,
            "ms",
            1,
        ));
    }
    if let Some(d) = &default_commit {
        let dn = d.samples_per_slice;
        extras.push(Row::new(
            "loadgen.default_commit_update_ops_s",
            d.ops_s,
            "1/s",
            dn,
        ));
        extras.push(Row::new(
            "loadgen.default_commit_update_p50_us",
            d.p50_us,
            "us",
            dn,
        ));
    }
    if let Some(r) = &reads {
        let rn = r.samples_per_slice;
        extras.push(Row::new("loadgen.read_ops_s", r.ops_s, "1/s", rn));
        extras.push(Row::new("loadgen.read_p50_us", r.p50_us, "us", rn));
        extras.push(Row::new("loadgen.read_p99_us", r.p99_us, "us", rn));
        if !r.supports_p99 {
            notes.push(format!("loadgen.read_p99_us is {}", r.tail_name));
        }
    }
    // The update tail would not repeat within an end-to-end bound
    // (README, "Demoted"): per-layer metrics of a traced run, printed
    // beside the end-to-end metrics of an untraced one.
    let un = u.samples_per_slice;
    let tail = vec![
        Row::new("loadgen.update_p99_us", u.p99_us, "us", un),
        Row::new("loadgen.update_p999_us", u.tail_us, "us", un),
    ];
    notes.push(format!(
        "loadgen.update_p999_us is {} (the highest percentile with ≥ 10 samples beyond it in every slice)",
        u.tail_name
    ));
    let health = open_loop_rows(open.as_ref(), u, &mut extras);

    let metrics = if opts.trace {
        let mut rows = Vec::new();
        if opts.layers {
            let parent = log.add("layer_harness", 0, Instant::now(), Instant::now());
            rows = layers::run(opts.seed, opts.quick, &tmp, &mut log, parent);
            log.close(parent, Instant::now());
            notes.push(layers::note(opts.quick));
        }
        let (rows_b, epoch_p99) = counter_rows.expect("traced run reads counters");
        rows.extend(rows_b);
        extras.push(epoch_p99);
        rows.extend(health);
        rows.push(Row::new("loadgen.samples_per_slice", un as f64, "count", 1));
        rows.push(Row::new("loadgen.update_ops_s", u.ops_s, "1/s", un));
        rows.push(Row::new("loadgen.update_p50_us", u.p50_us, "us", un));
        rows.extend(tail);
        rows
    } else {
        extras.extend(health);
        extras.extend(tail);
        vec![
            Row::new("setup_s", median(setups.clone()), "s", setups.len() as u64),
            Row::new("update_ops_s", u.ops_s, "1/s", un),
            Row::new("update_p50_us", u.p50_us, "us", un),
            Row::new(
                "within_limit_frac",
                u.within_limit_frac,
                "ratio",
                u.attempted,
            ),
            Row::new("peak_rss_mb", peak_rss_mb, "MiB", 1),
        ]
    };

    if opts.trace {
        let path = opts.out_dir.join(format!("trace-{}.jsonl", w.name));
        write_spans(&log, &path, w.name, opts, &mut notes)?;
    }
    remove_wal(&wal_base);
    let _ = std::fs::remove_dir_all(&tmp);

    Ok(RunReport {
        workload: w.name,
        correct: mismatches == 0,
        attempted,
        failed,
        metrics,
        extras,
        notes,
    })
}

/// The layer harness alone (`bench layers`): the same rows a traced
/// run prints first, under the name `layers`. They do not depend on
/// the workload, so `bench trace` takes them once.
pub fn run_layers(opts: &Opts) -> Result<RunReport, String> {
    let mut log = SpanLog::new(Instant::now(), 0);
    let tmp = opts.out_dir.join(format!("tmp-{}", std::process::id()));
    let parent = log.add("layer_harness", 0, Instant::now(), Instant::now());
    let metrics = layers::run(opts.seed, opts.quick, &tmp, &mut log, parent);
    log.close(parent, Instant::now());
    let _ = std::fs::remove_dir_all(&tmp);
    let mut notes = vec![layers::note(opts.quick)];
    let path = opts.out_dir.join("trace-layers.jsonl");
    write_spans(&log, &path, "layers", opts, &mut notes)?;
    Ok(RunReport {
        workload: "layers",
        correct: true,
        attempted: metrics.len() as u64,
        failed: 0,
        metrics,
        extras: Vec::new(),
        notes,
    })
}

/// Write a traced run's spans out, at its end.
fn write_spans(
    log: &SpanLog,
    path: &Path,
    workload: &str,
    opts: &Opts,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let header = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("request_span_every", Json::Num(TRACE_EVERY as f64)),
        ("spans", Json::Num(log.len() as f64)),
    ]);
    log.write_jsonl(path, &header)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    notes.push(format!("{} spans written to {}", log.len(), path.display()));
    Ok(())
}

/// One timed set-up: server construct → preload + initial computation →
/// first request accepted. Pushes the seconds it took onto `setups`.
fn timed_setup(
    w: &Workload,
    inputs: &Inputs,
    config: &ServerConfig,
    log: &mut SpanLog,
    setups: &mut Vec<f64>,
) -> Result<System, String> {
    let start = Instant::now();
    let system = System::build(w, inputs, config.clone())?;
    system.first_request()?;
    let end = Instant::now();
    log.add("setup", 0, start, end);
    setups.push((end - start).as_secs_f64());
    Ok(system)
}

/// Generator health. The contract's list takes the ratios and counts;
/// the open loop's lateness in µs is printed beside them (a closed loop
/// has no schedule to fall behind, and the contract's lists hold what
/// every workload reports).
fn open_loop_rows(
    open: Option<&OpenLoopHealth>,
    updates: &Summary,
    extras: &mut Vec<Row>,
) -> Vec<Row> {
    let (late_frac, achieved, backlog, offered) = match open {
        Some(h) => {
            extras.push(Row::new(
                "loadgen.sched_late_p99_us",
                percentile(&h.late_ns, 0.99) / 1e3,
                "us",
                h.offered,
            ));
            let late = h.late_ns.iter().filter(|&&ns| ns > 1_000_000).count();
            let ok = updates.attempted - updates.failed;
            (
                late as f64 / h.offered.max(1) as f64,
                ok as f64 / h.offered.max(1) as f64,
                h.backlog_end as f64,
                h.offered,
            )
        }
        None => (0.0, 1.0, 0.0, updates.attempted),
    };
    vec![
        Row::new(
            "loadgen.sched_late_over_1ms_frac",
            late_frac,
            "ratio",
            offered,
        ),
        Row::new("loadgen.achieved_over_offered", achieved, "ratio", offered),
        Row::new("loadgen.backlog_end", backlog, "count", 1),
    ]
}

/// Warm up, then measure for the plan's interval.
fn measure(
    w: &Workload,
    opts: &Opts,
    inputs: &Inputs,
    system: &System,
    plan: Plan,
    log: &mut SpanLog,
) -> Result<Measured, String> {
    let registry = system.server().metrics().clone();
    let newest = AtomicU64::new(system.server().current_version());
    let gate = StartGate::new(w.threads(inputs));
    let stop = AtomicBool::new(false);
    let interval = log.add("measured_interval", 0, Instant::now(), Instant::now());
    let trace = |lane: u64| TraceCfg {
        every: if opts.trace { TRACE_EVERY } else { 0 },
        origin: log.origin(),
        // Two lanes per thread: the open loop's receiver takes the odd one.
        lane: 2 * lane + 2,
        parent: interval,
    };
    let duties = WriterDuties {
        publish: None,
        release: w.release(),
    };

    let (outs, snapshots, gauges, clock) = std::thread::scope(|scope| {
        let (gate, newest, registry, stop) = (&gate, &newest, &registry, &stop);
        let mut handles = Vec::new();
        match w.shape {
            Shape::ClosedTcp { window } => {
                for (i, stream) in inputs.streams.iter().enumerate() {
                    let (addr, t) = (system.addr(), trace(i as u64));
                    handles.push(
                        scope.spawn(move || closed_tcp(addr, stream, window, gate, duties, t)),
                    );
                }
            }
            Shape::OpenTcp { rate } => {
                let (addr, t) = (system.addr(), trace(0));
                let stream = &inputs.streams[0];
                handles.push(scope.spawn(move || open_tcp(addr, stream, rate, gate, t)));
            }
            Shape::ClosedInProc => {
                for (i, stream) in inputs.streams.iter().enumerate() {
                    let (server, t) = (system.server(), trace(i as u64));
                    handles.push(
                        scope.spawn(move || closed_inproc(server, stream, gate, w.release(), t)),
                    );
                }
            }
            Shape::ReadWriteTcp {
                writer_window,
                reader_window,
            } => {
                let addr = system.addr();
                let stream = &inputs.streams[0];
                let writer_duties = WriterDuties {
                    publish: Some(newest),
                    release: w.release(),
                };
                let (tw, tr) = (trace(0), trace(1));
                handles.push(scope.spawn(move || {
                    closed_tcp(addr, stream, writer_window, gate, writer_duties, tw)
                }));
                let target = ReadTarget {
                    newest,
                    vertices: inputs.capacity as u64,
                    seed: inputs::sub_seed(opts.seed, 4),
                    release: w.release(),
                };
                handles
                    .push(scope.spawn(move || reader_tcp(addr, reader_window, target, gate, tr)));
            }
            Shape::MuxTcp { .. } => {
                let per_conn = inputs.streams.len() / clients();
                for (i, streams) in inputs.streams.chunks(per_conn).enumerate() {
                    let (addr, t) = (system.addr(), trace(i as u64));
                    handles.push(scope.spawn(move || mux_tcp(addr, streams, gate, t)));
                }
            }
        }
        let sampler = opts
            .trace
            .then(|| scope.spawn(move || counters::sample_gauges(registry, stop)));
        let clock = gate.open(plan);
        let snapshots = opts.trace.then(|| {
            sleep_until(clock.measure_start());
            let start = counters::snapshot(registry);
            sleep_until(clock.end());
            (start, counters::snapshot(registry))
        });
        let outs: Vec<ThreadOut> = handles
            .into_iter()
            .map(|h| h.join().expect("load generating thread"))
            .collect();
        stop.store(true, Ordering::Release);
        let gauges = sampler.map(|s| s.join().expect("gauge sampler"));
        (outs, snapshots, gauges, clock)
    });
    log.add(
        "warmup",
        0,
        clock.measure_start() - plan.warmup,
        clock.measure_start(),
    );
    log.close(interval, clock.end());

    let mut updates: Option<Recorder> = None;
    let mut reads: Option<Recorder> = None;
    let mut open = None;
    for out in outs {
        if let Some(why) = out.fatal {
            return Err(format!("{}: load generator failed: {why}", w.name));
        }
        merge_into(&mut updates, out.updates);
        merge_into(&mut reads, out.reads);
        open = open.or(out.open);
        log.absorb(out.spans);
    }
    Ok(Measured {
        updates: updates.ok_or("no load generating thread recorded updates")?,
        reads,
        open,
        counters: snapshots.map(|(start, end)| (start, end, gauges.unwrap_or_default())),
    })
}

/// Pool another instance's slices into the run's recorder.
fn pool(total: &mut Option<Recorder>, part: Recorder) {
    match total.as_mut() {
        Some(t) => t.append_slices(part),
        None => *total = Some(part),
    }
}

fn merge_into(total: &mut Option<Recorder>, part: Option<Recorder>) {
    match (total.as_mut(), part) {
        (Some(t), Some(p)) => t.merge(p),
        (None, Some(p)) => *total = Some(p),
        (_, None) => {}
    }
}

/// Have the server fold its WAL tail into a checkpoint. An idle
/// coordinator never checkpoints (the trigger sits behind an epoch), so
/// nudge it with an operation of no net effect — one transaction that
/// inserts and deletes the same edge — until a checkpoint is due and
/// fires in the nudge's epoch, leaving the tail empty. `false` if none
/// fired in time (the restart then replays a tail; still correct).
fn fold_tail_into_checkpoint(server: &Server, (src, dst, data): LiveEdge) -> bool {
    let checkpoints = server.metrics().counter("wal.checkpoints");
    let session = server.session();
    let edge = Edge::new(src, dst, data);
    let deadline = Instant::now() + Duration::from_secs(4);
    while Instant::now() < deadline {
        let before = checkpoints.load(Ordering::Relaxed);
        let _ = session.txn_updates(vec![Update::InsEdge(edge), Update::DelEdge(edge)]);
        // The reply precedes the epoch's WAL append and checkpoint.
        for _ in 0..25 {
            if checkpoints.load(Ordering::Relaxed) > before {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    false
}

fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb_now() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
