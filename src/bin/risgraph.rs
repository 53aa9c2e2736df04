//! `risgraph` — a command-line shell around the engine, and a TCP
//! server (`serve` mode) around the full interactive tier.
//!
//! ```sh
//! cargo run --release --bin risgraph -- --algorithm sssp --root 0 --store ia-hash
//! cargo run --release --bin risgraph -- serve --listen 127.0.0.1:4817 --shards 4
//! ```
//!
//! `--store` selects the storage backend (the §6.3 matrix): Indexed
//! Adjacency Lists (`ia-hash`, `ia-btree`, `ia-art`), index-only
//! layouts (`io-hash`, `io-btree`, `io-art`), or an out-of-core store —
//! `ooc` (block I/O behind a global mutex, the durability-conservative
//! prototype) or `ooc-mmap` (mmap-backed with per-vertex lock striping,
//! the concurrent variant). `RISGRAPH_STORE` sets the default. Every
//! command below runs identically on each.
//!
//! `--shards N` runs the shell through the full interactive tier
//! instead of the bare engine: a [`Server`] with `N` safe-phase shard
//! executors (§4's epoch loop, sharded), one session submitting your
//! commands, replies carrying result-view version ids. `N = 1` is the
//! serial coordinator; higher values parallelize the commuting safe
//! prefix of each epoch. `--wal PATH` adds durability (replayed on
//! startup, flushed on quit).
//!
//! **`serve` mode** binds the wire-protocol TCP front end
//! (`crates/net`) instead of the stdin shell: every connection gets its
//! own session with pipelined request handling, and Ctrl-C (SIGINT) or
//! SIGTERM triggers a graceful drain — stop accepting, finish in-flight
//! updates, flush WAL and store, then exit with a stats summary
//! including the client-observed P50/P99/P999 completion latency.
//!
//! Shell mode reads commands from stdin (one per line), suitable both
//! for interactive exploration and for piping edge streams:
//!
//! ```text
//! load edges.txt          # whitespace-separated "src dst [weight]" lines
//! gen rmat 12 16          # or generate: 2^12 vertices, 16 edges/vertex
//! ins 3 7 2               # insert edge 3→7 weight 2 (analyzed per update)
//! del 3 7 2               # delete it again
//! get 7                   # value + dependency-tree parent of vertex 7
//! path 7                  # walk parent pointers back to the root
//! top 10                  # the 10 best-valued vertices
//! stats                   # engine + server counters (latency percentiles)
//! aff                     # §7 affected-area report
//! quit
//! ```

use std::io::{BufRead, Write};
use std::path::PathBuf;

use risgraph::common::metrics::{HistogramSummary, MetricValue, Phase, Registry};
use risgraph::common::stats::fmt_ns;
use risgraph::core::affected::analyze;
use risgraph::core::server::{Server, ServerConfig, Session};
use risgraph::net::{NetConfig, NetServer};
use risgraph::prelude::*;
use risgraph::storage::{AnyStore, BackendKind, StoreConfig};
use risgraph::workloads::rmat::RmatConfig;

struct Args {
    algorithm: String,
    root: u64,
    backend: BackendKind,
    shards: Option<usize>,
    wal: Option<PathBuf>,
    /// `risgraph serve …`: run the TCP front end instead of the shell.
    serve: bool,
    listen: String,
    /// `serve --follow ADDR`: run as a read replica of the leader at
    /// ADDR instead of serving writes.
    follow: Option<String>,
    /// Leader-side replication follower slots (serve mode; default 4).
    max_followers: Option<usize>,
    /// Reactor worker threads for the serving tier (serve mode;
    /// default RISGRAPH_NET_WORKERS or the core count, capped at 4).
    net_workers: Option<usize>,
    /// Global admission budget: total in-flight updates across all
    /// connections before v2 requests are shed with Busy (serve mode;
    /// default RISGRAPH_NET_INFLIGHT_BUDGET or 0 = unlimited).
    inflight_budget: Option<usize>,
    /// Per-session in-flight quota before a v2 session's requests are
    /// shed with Busy (serve mode; default RISGRAPH_NET_SESSION_QUOTA
    /// or 0 = unlimited).
    session_quota: Option<usize>,
    /// New connections/sessions are refused while a worker's inbox +
    /// ready backlog exceeds this depth (serve mode; default
    /// RISGRAPH_NET_ACCEPT_HIGH_WATER or 4096, 0 disables the gate).
    accept_high_water: Option<usize>,
    /// WAL segment rotation threshold in bytes (0 disables rotation).
    max_wal_size: Option<u64>,
    /// Periodic checkpoint cadence in milliseconds.
    checkpoint_interval: Option<u64>,
    /// Serve Prometheus-style text exposition of the metrics registry
    /// on this address (serve and follow modes).
    metrics_listen: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        algorithm: "bfs".to_string(),
        root: 0,
        // RISGRAPH_STORE picks the default backend; --store overrides.
        backend: BackendKind::from_env(),
        shards: None,
        wal: None,
        serve: false,
        listen: "127.0.0.1:0".to_string(),
        follow: None,
        max_followers: None,
        net_workers: None,
        inflight_budget: None,
        session_quota: None,
        accept_high_water: None,
        max_wal_size: None,
        checkpoint_interval: None,
        metrics_listen: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    if args.get(1).map(String::as_str) == Some("serve") {
        parsed.serve = true;
        i = 2;
    }
    while i < args.len() {
        match args[i].as_str() {
            "--algorithm" | "-a" if i + 1 < args.len() => {
                parsed.algorithm = args[i + 1].to_lowercase();
                i += 2;
            }
            "--root" | "-r" if i + 1 < args.len() => {
                parsed.root = args[i + 1].parse().unwrap_or(0);
                i += 2;
            }
            "--store" | "-s" if i + 1 < args.len() => {
                parsed.backend = match BackendKind::parse(&args[i + 1]) {
                    Some(b) => b,
                    None => {
                        eprintln!(
                            "unknown store {}; choose one of {}",
                            args[i + 1],
                            BackendKind::CLI_CHOICES
                        );
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--shards" if i + 1 < args.len() => {
                parsed.shards = match args[i + 1].parse::<usize>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => {
                        eprintln!("--shards takes a positive executor count");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--wal" if i + 1 < args.len() => {
                parsed.wal = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--listen" if i + 1 < args.len() => {
                parsed.listen = args[i + 1].clone();
                i += 2;
            }
            "--follow" if i + 1 < args.len() => {
                parsed.follow = Some(args[i + 1].clone());
                i += 2;
            }
            "--max-followers" if i + 1 < args.len() => {
                parsed.max_followers = match args[i + 1].parse::<usize>() {
                    Ok(n) => Some(n),
                    Err(_) => {
                        eprintln!("--max-followers takes a follower count (0 disables)");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--net-workers" if i + 1 < args.len() => {
                parsed.net_workers = match args[i + 1].parse::<usize>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => {
                        eprintln!("--net-workers takes a positive reactor thread count");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--inflight-budget" if i + 1 < args.len() => {
                parsed.inflight_budget = match args[i + 1].parse::<usize>() {
                    Ok(n) => Some(n),
                    Err(_) => {
                        eprintln!("--inflight-budget takes an update count (0 = unlimited)");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--session-quota" if i + 1 < args.len() => {
                parsed.session_quota = match args[i + 1].parse::<usize>() {
                    Ok(n) => Some(n),
                    Err(_) => {
                        eprintln!("--session-quota takes an update count (0 = unlimited)");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--accept-high-water" if i + 1 < args.len() => {
                parsed.accept_high_water = match args[i + 1].parse::<usize>() {
                    Ok(n) => Some(n),
                    Err(_) => {
                        eprintln!("--accept-high-water takes a backlog depth (0 disables)");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--max-wal-size" if i + 1 < args.len() => {
                parsed.max_wal_size = match args[i + 1].parse::<u64>() {
                    Ok(n) => Some(n),
                    Err(_) => {
                        eprintln!("--max-wal-size takes a segment size in bytes (0 disables)");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--metrics-listen" if i + 1 < args.len() => {
                parsed.metrics_listen = Some(args[i + 1].clone());
                i += 2;
            }
            "--checkpoint-interval" if i + 1 < args.len() => {
                parsed.checkpoint_interval = match args[i + 1].parse::<u64>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => {
                        eprintln!("--checkpoint-interval takes a positive cadence in ms");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--help" | "-h" => {
                println!(
                    "usage: risgraph [serve] [--algorithm bfs|sssp|sswp|wcc|reach] [--root VID] \
                     [--store {}] [--shards N] [--wal PATH] [--max-wal-size BYTES] \
                     [--checkpoint-interval MS] [--listen ADDR] [--follow ADDR] \
                     [--max-followers N] [--metrics-listen ADDR] [--inflight-budget N] \
                     [--session-quota N] [--accept-high-water N]\n\n\
                     serve       run the TCP wire-protocol server (crates/net) instead of\n\
                     \u{20}           the stdin shell; Ctrl-C drains gracefully\n\
                     --listen    address to bind in serve mode (default 127.0.0.1:0)\n\
                     --follow    serve as a read replica of the leader at ADDR: stream its\n\
                     \u{20}           epoch WAL records, apply them locally, and answer the\n\
                     \u{20}           read-only Table 1 surface on --listen at the applied\n\
                     \u{20}           watermark (lag reported in STATS)\n\
                     --max-followers N  leader-side replication slots (serve mode;\n\
                     \u{20}           default 4, 0 disables the feed)\n\
                     --net-workers N  reactor worker threads for the serving tier\n\
                     \u{20}           (serve mode; default RISGRAPH_NET_WORKERS or the\n\
                     \u{20}           core count, capped at 4)\n\
                     --inflight-budget N  admission control: total in-flight updates\n\
                     \u{20}           across all connections before protocol-v2 requests\n\
                     \u{20}           are shed with a Busy reply (serve mode; default\n\
                     \u{20}           RISGRAPH_NET_INFLIGHT_BUDGET or 0 = unlimited)\n\
                     --session-quota N  per-session in-flight cap before a v2 session's\n\
                     \u{20}           requests are shed with Busy (serve mode; default\n\
                     \u{20}           RISGRAPH_NET_SESSION_QUOTA or 0 = unlimited)\n\
                     --accept-high-water N  refuse new connections/sessions while a\n\
                     \u{20}           worker's inbox + ready backlog exceeds N (serve\n\
                     \u{20}           mode; default RISGRAPH_NET_ACCEPT_HIGH_WATER or\n\
                     \u{20}           4096, 0 disables the gate)\n\
                     --metrics-listen ADDR  serve Prometheus-style text exposition of\n\
                     \u{20}           the metrics registry over HTTP on ADDR (serve and\n\
                     \u{20}           follow modes; every counter/gauge/histogram,\n\
                     \u{20}           including per-phase epoch-pipeline spans)\n\
                     --shards N  serve through the interactive tier (sessions + epoch\n\
                     \u{20}           loop) with N parallel safe-phase shard executors;\n\
                     \u{20}           in shell mode, omit it to drive the engine directly\n\
                     --wal PATH  write-ahead log (replayed on startup, flushed on exit)\n\
                     --max-wal-size BYTES  rotate the WAL onto a new segment at this size\n\
                     \u{20}           and checkpoint under segment pressure (0 disables;\n\
                     \u{20}           default RISGRAPH_MAX_WAL_SEGMENT or 0)\n\
                     --checkpoint-interval MS  periodic snapshot checkpoint cadence:\n\
                     \u{20}           persists structure + results, truncates old segments\n\
                     \u{20}           and bounds feed retention (default\n\
                     \u{20}           RISGRAPH_CHECKPOINT_INTERVAL_MS or off)",
                    BackendKind::CLI_CHOICES
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    parsed
}

/// Raised by the SIGINT/SIGTERM handler in serve mode.
static STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// `risgraph serve --follow ADDR`: run as a read replica — stream the
/// leader's epoch WAL records, apply them locally, serve the read-only
/// Table 1 surface on `--listen`, and report lag on exit.
fn run_follow(args: Args, leader: String) -> ! {
    use risgraph::net::{FollowerConfig, ReplicaServer};
    let alg = make_algorithm(&args.algorithm, args.root);
    let config = ServerConfig {
        backend: args.backend.clone(),
        ..ServerConfig::default()
    };
    let replica = ReplicaServer::start(
        vec![alg],
        1 << 16,
        config,
        FollowerConfig {
            listen: Some(args.listen.clone()),
            ..FollowerConfig::to_leader(leader.clone())
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot follow {leader}: {e}");
        std::process::exit(2);
    });
    install_signal_handlers();
    if let Some(listen) = &args.metrics_listen {
        serve_metrics_http(listen, replica.metrics().clone());
    }
    println!(
        "risgraph replica following {leader} — algorithm {} (root {}), store {}, \
         read-only queries on {}; Ctrl-C to exit",
        args.algorithm.to_uppercase(),
        args.root,
        args.backend.label(),
        replica
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|| "<none>".into()),
    );
    while !STOP.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    use std::sync::atomic::Ordering;
    let s = replica.stats();
    println!(
        "\nreplica: version={} lag={} records={} heartbeats={} reconnects={} stream_errors={}",
        replica.replica().current_version(),
        replica.lag(),
        s.records_applied.load(Ordering::Relaxed),
        s.heartbeats.load(Ordering::Relaxed),
        s.reconnects.load(Ordering::Relaxed),
        s.stream_errors.load(Ordering::Relaxed),
    );
    replica.shutdown();
    std::process::exit(0);
}

/// `risgraph serve`: the TCP front end, draining gracefully on SIGINT.
fn run_serve(args: Args) -> ! {
    if let Some(leader) = args.follow.clone() {
        run_follow(args, leader);
    }
    let alg = make_algorithm(&args.algorithm, args.root);
    let mut config = ServerConfig {
        backend: args.backend.clone(),
        wal_path: args.wal.clone(),
        // Serve mode publishes the replication feed by default (4
        // follower slots); --max-followers 0 disables it.
        max_followers: args.max_followers.unwrap_or(4),
        ..ServerConfig::default()
    };
    if let Some(n) = args.shards {
        config.shards = n;
    }
    if let Some(n) = args.max_wal_size {
        config.max_wal_segment_bytes = n;
    }
    if let Some(ms) = args.checkpoint_interval {
        config.checkpoint_interval = Some(std::time::Duration::from_millis(ms));
    }
    let shards = config.shards;
    let unsafe_workers = config.unsafe_workers;
    let mut net_config = NetConfig {
        listen: args.listen.clone(),
        ..NetConfig::default()
    };
    if let Some(n) = args.net_workers {
        net_config.net_workers = n;
    }
    if let Some(n) = args.inflight_budget {
        net_config.inflight_budget = n;
    }
    if let Some(n) = args.session_quota {
        net_config.session_quota = n;
    }
    if let Some(n) = args.accept_high_water {
        net_config.accept_high_water = n;
    }
    let net_workers = net_config.net_workers;
    let net = NetServer::start(vec![alg], 1 << 16, config, net_config).unwrap_or_else(|e| {
        eprintln!("cannot serve on {}: {e}", args.listen);
        std::process::exit(2);
    });
    install_signal_handlers();
    if let Some(listen) = &args.metrics_listen {
        serve_metrics_http(listen, net.server().metrics().clone());
    }
    println!(
        "risgraph serving on {} — algorithm {} (root {}), store {}, {} shard(s), \
         {} unsafe worker(s), {} net worker(s), {} follower slot(s){}; Ctrl-C to drain and exit",
        net.local_addr(),
        args.algorithm.to_uppercase(),
        args.root,
        args.backend.label(),
        shards,
        unsafe_workers,
        net_workers,
        args.max_followers.unwrap_or(4),
        args.wal
            .as_deref()
            .map(|p| format!(", wal {}", p.display()))
            .unwrap_or_default(),
    );
    while !STOP.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("\ndraining connections and flushing…");
    {
        let s = net.server().stats();
        let (p50, p99, p999) = s.latency_percentiles_ns();
        use std::sync::atomic::Ordering;
        println!(
            "served: version={} epochs={} safe={} unsafe={} latency p50={} p99={} p999={}",
            net.server().current_version(),
            s.epochs.load(Ordering::Relaxed),
            s.safe_executed.load(Ordering::Relaxed),
            s.unsafe_executed.load(Ordering::Relaxed),
            fmt_ns(p50),
            fmt_ns(p99),
            fmt_ns(p999),
        );
        let (up50, up99, up999) = s.unsafe_phase_percentiles_ns();
        println!(
            "unsafe phase: epochs={} p50={} p99={} p999={} parallel_groups={} serial_fallbacks={}",
            s.unsafe_phase.count(),
            fmt_ns(up50),
            fmt_ns(up99),
            fmt_ns(up999),
            s.unsafe_parallel_groups.load(Ordering::Relaxed),
            s.unsafe_serial_fallbacks.load(Ordering::Relaxed),
        );
        println!(
            "hand-offs: epochs_inline={} sync_reply_parks={}",
            s.epochs_inline.load(Ordering::Relaxed),
            s.sync_reply_parks.load(Ordering::Relaxed),
        );
        let registry = net.server().metrics();
        println!(
            "fan-in: sessions_examined={} reactor_wakes={} reactor_wakes_elided={}",
            s.sessions_examined.load(Ordering::Relaxed),
            registry
                .counter("net.reactor.wakes")
                .load(Ordering::Relaxed),
            registry
                .counter("net.reactor.wakes_elided")
                .load(Ordering::Relaxed),
        );
        let traced = registry.counter("epoch.traced").load(Ordering::Relaxed);
        let flagged = registry.counter("epoch.flagged").load(Ordering::Relaxed);
        if traced > 0 {
            println!("epoch pipeline: traced={traced} slow(flagged)={flagged}");
            for phase in Phase::ALL {
                let h = HistogramSummary::of(
                    &registry
                        .histogram(&format!("epoch.phase.{}_ns", phase.name()))
                        .snapshot(),
                );
                if h.count == 0 {
                    continue;
                }
                println!(
                    "  {:<16} epochs={} p50={} p99={} max={}",
                    phase.name(),
                    h.count,
                    fmt_ns(h.p50_ns),
                    fmt_ns(h.p99_ns),
                    fmt_ns(h.max_ns),
                );
            }
        }
    }
    // Graceful drain: finish in-flight updates, flush WAL and store.
    net.shutdown();
    std::process::exit(0);
}

/// Minimal HTTP/1.0 exporter: every connection gets one Prometheus-style
/// text rendering of the registry and is closed. Stateless by design —
/// scrapers reconnect per poll, so there is nothing to drain on exit.
fn serve_metrics_http(listen: &str, registry: std::sync::Arc<Registry>) {
    let listener = std::net::TcpListener::bind(listen).unwrap_or_else(|e| {
        eprintln!("cannot bind metrics listener on {listen}: {e}");
        std::process::exit(2);
    });
    let addr = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| listen.to_string());
    println!("metrics exposition on http://{addr}/metrics");
    std::thread::Builder::new()
        .name("metrics-http".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                // Drain whatever request line arrived; the reply is the
                // same regardless of path or method.
                let mut buf = [0u8; 1024];
                use std::io::Read;
                let _ = stream.read(&mut buf);
                let body = registry.render_prometheus();
                let _ = stream.write_all(
                    format!(
                        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                );
            }
        })
        .expect("spawn metrics exporter thread");
}

fn make_algorithm(algorithm: &str, root: u64) -> DynAlgorithm {
    use std::sync::Arc;
    match algorithm {
        "bfs" => Arc::new(risgraph::algorithms::Bfs::new(root)),
        "sssp" => Arc::new(risgraph::algorithms::Sssp::new(root)),
        "sswp" => Arc::new(risgraph::algorithms::Sswp::new(root)),
        "wcc" => Arc::new(risgraph::algorithms::Wcc::new()),
        "reach" => Arc::new(risgraph::algorithms::Reachability::new(root)),
        other => {
            eprintln!("unknown algorithm {other}");
            std::process::exit(2);
        }
    }
}

/// What the shell drives: the bare engine, or a full server with one
/// interactive session (`--shards`).
enum Shell {
    Engine(Box<Engine<AnyStore>>),
    Server { server: Server, session: Session },
}

impl Shell {
    fn new(args: &Args) -> Shell {
        let alg = make_algorithm(&args.algorithm, args.root);
        let backend = &args.backend;
        match args.shards {
            None if args.wal.is_none() => {
                let store = AnyStore::open(backend, 1 << 16, StoreConfig::default())
                    .unwrap_or_else(|e| {
                        eprintln!("cannot open {} store: {e}", backend.label());
                        std::process::exit(2);
                    });
                Shell::Engine(Box::new(Engine::from_store(
                    store,
                    vec![alg],
                    Default::default(),
                )))
            }
            // A WAL needs the server tier (the engine alone has no
            // durability hook), so `--wal` implies it even without
            // `--shards`.
            shards => {
                let mut config = ServerConfig {
                    backend: backend.clone(),
                    wal_path: args.wal.clone(),
                    ..ServerConfig::default()
                };
                if let Some(n) = shards {
                    config.shards = n;
                }
                if let Some(n) = args.max_wal_size {
                    config.max_wal_segment_bytes = n;
                }
                if let Some(ms) = args.checkpoint_interval {
                    config.checkpoint_interval = Some(std::time::Duration::from_millis(ms));
                }
                let server = Server::start(vec![alg], 1 << 16, config).unwrap_or_else(|e| {
                    eprintln!("cannot start server on {} store: {e}", backend.label());
                    std::process::exit(2);
                });
                let session = server.session();
                Shell::Server { server, session }
            }
        }
    }

    /// The quit path: a server shell must *explicitly* drain and shut
    /// down, or a `--wal` tail buffered since the last group commit
    /// dies with the process exactly as in `Server::crash()`.
    fn finish(self) {
        if let Shell::Server { server, session } = self {
            drop(session);
            server.shutdown();
        }
    }

    fn engine(&self) -> &Engine<AnyStore> {
        match self {
            Shell::Engine(e) => e,
            Shell::Server { server, .. } => server.engine(),
        }
    }

    fn load(&self, edges: &[(u64, u64, u64)]) {
        match self {
            Shell::Engine(e) => e.load_edges(edges),
            Shell::Server { server, .. } => server.load_edges(edges),
        }
    }

    /// Apply one update, printing the outcome in the mode's idiom:
    /// engine mode lists per-vertex changes, server mode reports the
    /// reply's version id.
    fn apply(&self, u: &Update) {
        let t = std::time::Instant::now();
        match self {
            Shell::Engine(engine) => match engine.apply(u) {
                Ok((safety, changes)) => {
                    let n: usize = changes.per_algo.iter().map(|c| c.len()).sum();
                    println!("{safety:?}, {n} result change(s), {:?}", t.elapsed());
                    for c in changes.per_algo[0].iter().take(8) {
                        println!(
                            "  v{}: {} -> {}",
                            c.vertex,
                            fmt_value(c.old),
                            fmt_value(c.new)
                        );
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            Shell::Server { session, .. } => {
                let reply = session.submit_update(u);
                match reply.outcome {
                    Ok(applied) => println!(
                        "version {} ({:?}, {} result change(s)), {:?}",
                        reply.version,
                        applied.safety,
                        applied.result_changes,
                        t.elapsed()
                    ),
                    Err(e) => println!("error: {e}"),
                }
            }
        }
    }
}

fn fmt_value(v: u64) -> String {
    if v == u64::MAX {
        "inf".into()
    } else {
        v.to_string()
    }
}

fn main() {
    let args = parse_args();
    if args.serve {
        run_serve(args);
    }
    let shell = Shell::new(&args);
    let engine = shell.engine();
    let (algorithm, root, backend) = (&args.algorithm, args.root, &args.backend);
    match &shell {
        Shell::Server { .. } => println!(
            "risgraph shell — algorithm {} (root {root}), store {}, serving through \
             the interactive tier; type 'help' for commands",
            algorithm.to_uppercase(),
            backend.label()
        ),
        Shell::Engine(_) => println!(
            "risgraph shell — algorithm {} (root {root}), store {}; type 'help' for commands",
            algorithm.to_uppercase(),
            backend.label()
        ),
    }
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("> ");
        let _ = out.flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [] => {}
            ["quit" | "exit" | "q"] => break,
            ["help"] => println!(
                "commands: load FILE | gen rmat SCALE FACTOR | ins S D [W] | \
                 del S D [W] | get V | path V | top N | stats | metrics | aff | quit"
            ),
            ["load", file] => match std::fs::read_to_string(file) {
                Ok(content) => {
                    let mut edges = Vec::new();
                    for l in content.lines() {
                        let f: Vec<&str> = l.split_whitespace().collect();
                        if f.len() >= 2 {
                            if let (Ok(s), Ok(d)) = (f[0].parse(), f[1].parse()) {
                                let w = f.get(2).and_then(|x| x.parse().ok()).unwrap_or(0);
                                edges.push((s, d, w));
                            }
                        }
                    }
                    let t = std::time::Instant::now();
                    shell.load(&edges);
                    println!("loaded {} edges in {:?}", edges.len(), t.elapsed());
                }
                Err(e) => println!("cannot read {file}: {e}"),
            },
            ["gen", "rmat", scale, factor] => match (scale.parse::<u32>(), factor.parse::<f64>()) {
                (Ok(scale), Ok(edge_factor)) if scale <= 24 => {
                    let cfg = RmatConfig {
                        scale,
                        edge_factor,
                        max_weight: if algorithm == "sssp" || algorithm == "sswp" {
                            100
                        } else {
                            0
                        },
                        ..RmatConfig::default()
                    };
                    let edges = cfg.generate();
                    let t = std::time::Instant::now();
                    shell.load(&edges);
                    println!(
                        "generated |V|={} |E|={} and computed in {:?}",
                        cfg.num_vertices(),
                        edges.len(),
                        t.elapsed()
                    );
                }
                _ => println!("usage: gen rmat SCALE(≤24) EDGE_FACTOR"),
            },
            ["ins", s, d, rest @ ..] | ["del", s, d, rest @ ..] => {
                let is_insert = parts[0] == "ins";
                match (s.parse(), d.parse()) {
                    (Ok(s), Ok(d)) => {
                        let w = rest.first().and_then(|x| x.parse().ok()).unwrap_or(0);
                        let e = Edge::new(s, d, w);
                        let u = if is_insert {
                            Update::InsEdge(e)
                        } else {
                            Update::DelEdge(e)
                        };
                        shell.apply(&u);
                    }
                    _ => println!("usage: ins|del SRC DST [WEIGHT]"),
                }
            }
            ["get", v] => match v.parse::<u64>() {
                Ok(v) if (v as usize) < engine.capacity() => {
                    println!(
                        "value({v}) = {}, parent = {}",
                        fmt_value(engine.value(0, v)),
                        engine
                            .parent(0, v)
                            .map(|e| format!("{} --{}--> {v}", e.src, e.data))
                            .unwrap_or_else(|| "none".into())
                    );
                }
                _ => println!("vertex out of range"),
            },
            ["path", v] => match v.parse::<u64>() {
                Ok(mut v) if (v as usize) < engine.capacity() => {
                    let mut hops = vec![v];
                    while let Some(e) = engine.parent(0, v) {
                        v = e.src;
                        hops.push(v);
                        if hops.len() > 64 {
                            break;
                        }
                    }
                    hops.reverse();
                    println!(
                        "{}",
                        hops.iter()
                            .map(|h| h.to_string())
                            .collect::<Vec<_>>()
                            .join(" -> ")
                    );
                }
                _ => println!("vertex out of range"),
            },
            ["top", n] => {
                let n: usize = n.parse().unwrap_or(10);
                let cap = engine.capacity();
                let mut vals: Vec<(u64, u64)> = (0..cap as u64)
                    .map(|v| (engine.value(0, v), v))
                    .filter(|&(val, _)| val != u64::MAX && val != 0)
                    .collect();
                vals.sort_unstable();
                for (val, v) in vals.iter().take(n) {
                    println!("  v{v}: {}", fmt_value(*val));
                }
            }
            ["stats"] => {
                use std::sync::atomic::Ordering;
                let s = engine.stats();
                println!(
                    "vertices={} edges={} safe={} unsafe={} demoted={} edges_relaxed={}",
                    engine.num_vertices(),
                    engine.num_edges(),
                    s.safe_applied.load(Ordering::Relaxed),
                    s.unsafe_applied.load(Ordering::Relaxed),
                    s.demoted.load(Ordering::Relaxed),
                    s.edges_relaxed.load(Ordering::Relaxed),
                );
                if let Shell::Server { server, .. } = &shell {
                    let ss = server.stats();
                    println!(
                        "server: version={} epochs={} safe_exec={} unsafe_exec={} threshold={}",
                        server.current_version(),
                        ss.epochs.load(Ordering::Relaxed),
                        ss.safe_executed.load(Ordering::Relaxed),
                        ss.unsafe_executed.load(Ordering::Relaxed),
                        ss.threshold.load(Ordering::Relaxed),
                    );
                    let (p50, p99, p999) = ss.latency_percentiles_ns();
                    println!(
                        "latency: p50={} p99={} p999={} max={} over {} update(s)",
                        fmt_ns(p50),
                        fmt_ns(p99),
                        fmt_ns(p999),
                        fmt_ns(ss.update_latency.max_ns()),
                        ss.update_latency.count(),
                    );
                    let (up50, up99, up999) = ss.unsafe_phase_percentiles_ns();
                    println!(
                        "unsafe phase: epochs={} p50={} p99={} p999={} parallel_groups={} serial_fallbacks={}",
                        ss.unsafe_phase.count(),
                        fmt_ns(up50),
                        fmt_ns(up99),
                        fmt_ns(up999),
                        ss.unsafe_parallel_groups.load(Ordering::Relaxed),
                        ss.unsafe_serial_fallbacks.load(Ordering::Relaxed),
                    );
                }
            }
            ["metrics"] => match &shell {
                Shell::Server { server, .. } => {
                    for (name, value) in server.metrics().snapshot() {
                        match value {
                            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                                println!("  {name} = {v}")
                            }
                            MetricValue::Histogram(h) => println!(
                                "  {name}: count={} p50={} p99={} p999={} max={}",
                                h.count,
                                fmt_ns(h.p50_ns),
                                fmt_ns(h.p99_ns),
                                fmt_ns(h.p999_ns),
                                fmt_ns(h.max_ns),
                            ),
                        }
                    }
                }
                Shell::Engine(_) => {
                    println!("metrics requires the server tier (run with --shards or --wal)")
                }
            },
            ["aff"] => {
                let r = analyze(engine, 0);
                println!(
                    "tree depth D_T={} |V_T|={} mean degree={:.2}",
                    r.tree_depth, r.tree_vertices, r.mean_degree
                );
                println!(
                    "mean AFFV={:.4} (bound {:.4}); mean AFFE={:.2} (bound {:.2})",
                    r.mean_affv, r.affv_bound, r.mean_affe, r.affe_bound
                );
            }
            _ => println!("unknown command; try 'help'"),
        }
    }
    // Reached on `quit` or stdin EOF: drain the server tier and flush
    // WAL/store (the graceful-shutdown satellite — previously a server
    // shell leaked its buffered WAL tail exactly like `crash()`).
    shell.finish();
}
