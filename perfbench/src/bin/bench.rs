//! `bench` — the one runner of the repository's benchmark.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one run, in this process
//!                          (--skip-layers: a traced run without the layer harness)
//! bench run     [--workload W] [--seed N] [--seconds S] [--runs K] [--out F]
//! bench trace   [--workload W] [--seed N] [--seconds S] [--out F]
//! bench compare BASE.json NEW.json [--benchmark BENCHMARK.json]
//! bench layers  [--seed N]                               the layer harness alone
//! bench list
//! ```
//!
//! The first form is the contract of `BENCHMARK.json`: it prints one
//! line per metric and, last, one JSON object. `run` and `trace` start
//! every workload in a fresh child process of that form (clean
//! allocator, clean registry, its own `peak_rss_mb`) and write the
//! collected results, with a fingerprint, to a file; `trace` runs the
//! layer harness once, in a child of its own (`layers`), because its
//! figures do not depend on the workload. `--quick` shrinks everything
//! for the contract test.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use perfbench::harness::json::Json;
use perfbench::harness::report::{self, ResultFile, Verdict};
use perfbench::harness::workloads::{self, Opts, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// A run that has not finished by now never will: fail loudly inside
/// the contract's 180 s instead of hanging.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    layers: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
    benchmark: PathBuf,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        layers: true,
        quick: false,
        runs: 1,
        out: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                a.workloads.push(
                    workloads::by_name(&name)
                        .ok_or(format!("unknown workload {name} (try `bench list`)"))?,
                );
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                a.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--benchmark" => a.benchmark = PathBuf::from(value("--benchmark")?),
            "--quick" => a.quick = true,
            // `bench trace` runs the layer harness once, not per workload.
            "--skip-layers" => a.layers = false,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => a.positional.push(other.to_string()),
        }
    }
    Ok(a)
}

/// Scratch files, spans and default result files go here: inside the
/// checkout, in the benchmark's own directory.
fn out_dir() -> PathBuf {
    if Path::new("perfbench").is_dir() {
        PathBuf::from("perfbench/out")
    } else {
        PathBuf::from("out")
    }
}

fn main() -> ExitCode {
    // Environment hygiene: no RISGRAPH_* variable of the calling shell
    // may reach a `Default` impl. Before any thread exists.
    let stray: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RISGRAPH_"))
        .collect();
    for key in &stray {
        std::env::remove_var(key);
    }

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "layers" | "list")) => (c, &argv[1..]),
        _ => ("one", &argv[..]),
    };
    let outcome = parse(rest).and_then(|args| match command {
        "one" => one(&args, &stray),
        "run" => many(&args, false),
        "trace" => many(&args, true),
        "compare" => compare(&args),
        "layers" => {
            watchdog();
            report::print_run(&workloads::run_layers(&opts(&args))?);
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            for w in &WORKLOADS {
                println!("{:<24} {}", w.name, w.why);
            }
            Ok(ExitCode::SUCCESS)
        }
    });
    outcome.unwrap_or_else(|why| {
        eprintln!("bench: {why}");
        ExitCode::from(2)
    })
}

/// The contract's form: one workload, in this process.
fn one(args: &Args, scrubbed: &[String]) -> Result<ExitCode, String> {
    let [w] = args.workloads[..] else {
        return Err("give exactly one --workload (or use `bench run`)".into());
    };
    watchdog();
    println!(
        "# {} seed={} seconds={} trace={} quick={} nproc={} clients={}",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.quick,
        workloads::nproc(),
        workloads::clients(),
    );
    if !scrubbed.is_empty() {
        println!("# scrubbed from the environment: {}", scrubbed.join(" "));
    }
    println!("# config: {}", workloads::config_json(w).render());
    report::print_run(&workloads::run(w, &opts(args))?);
    Ok(ExitCode::SUCCESS)
}

fn opts(args: &Args) -> Opts {
    Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        layers: args.layers,
        quick: args.quick,
        out_dir: out_dir(),
    }
}

fn watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("bench: run exceeded {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
}

/// What one child process printed: its lines, and the result object
/// that was the last of them.
struct ChildOut {
    lines: Vec<String>,
    result: Json,
}

/// Run one child — a workload in the contract's form, or the layer
/// harness — in a fresh process and echo its output. The child's stderr
/// is this process's: why a run failed, or that the watchdog ended it,
/// must not be lost.
fn child(child_args: &[&str], args: &Args) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(child_args)
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let last = lines.pop().unwrap_or_default();
    for l in &lines {
        println!("{l}");
    }
    if !out.status.success() {
        return Err(format!("bench {child_args:?} exited with {}", out.status));
    }
    let result = Json::parse(&last)
        .map_err(|e| format!("bench {child_args:?}: last line is not a result object: {e}"))?;
    Ok(ChildOut { lines, result })
}

/// `bench run` / `bench trace`: every selected workload in fresh child
/// processes, results and fingerprint to a file.
fn many(args: &Args, trace: bool) -> Result<ExitCode, String> {
    let selected: Vec<&Workload> = if args.workloads.is_empty() {
        WORKLOADS.iter().collect()
    } else {
        args.workloads.clone()
    };
    let fingerprint = report::fingerprint(args.seed, args.seconds, args.quick);
    println!("# fingerprint {}", report::fingerprint_slug(&fingerprint));
    let mut file = ResultFile::default();
    let healthy = |out: &ChildOut| {
        out.result.get("correct") == Some(&Json::Bool(true))
            && out.result.get("failed").and_then(Json::as_f64) == Some(0.0)
    };
    let mut all_ok = true;
    if trace {
        let layers = child(&["layers"], args)?;
        file.add("layers", &layers.lines, &layers.result);
    }
    for w in selected {
        for _ in 0..args.runs.max(1) {
            let untraced = child(&["--workload", w.name, "--trace", "0"], args)?;
            all_ok &= healthy(&untraced);
            if !trace {
                file.add(w.name, &untraced.lines, &untraced.result);
                continue;
            }
            // End-to-end metrics always come from an untraced run; in
            // `trace` it is only the base of the tracing overhead.
            let traced = child(
                &["--workload", w.name, "--trace", "1", "--skip-layers"],
                args,
            )?;
            all_ok &= healthy(&traced);
            file.add(w.name, &traced.lines, &traced.result);
            let ops = |out: &ChildOut, metric: &str| {
                out.result
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            if let (Some(plain), Some(with)) = (
                ops(&untraced, "update_ops_s"),
                ops(&traced, "loadgen.update_ops_s"),
            ) {
                let overhead = 1.0 - with / plain;
                file.add_value(w.name, "bench.trace_overhead_frac", "ratio", overhead);
                println!("{} bench.trace_overhead_frac {overhead} ratio n=1", w.name);
            }
        }
    }
    let kind = if trace { "trace" } else { "run" };
    let sha = fingerprint
        .get("git_sha")
        .and_then(Json::as_str)
        .unwrap_or("nogit")
        .to_string();
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("{kind}-{sha}-{}.json", args.seed)));
    report::write_json(&path, &file.to_json(kind, fingerprint))?;
    println!("# wrote {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [base, new] = &args.positional[..] else {
        return Err("usage: bench compare BASE.json NEW.json".into());
    };
    let bounds = report::bounds(&report::read_json(&args.benchmark)?)?;
    let verdicts = report::compare(
        &report::read_json(Path::new(base))?,
        &report::read_json(Path::new(new))?,
        &bounds,
    )?;
    let count = |v: Verdict| verdicts.iter().filter(|&&x| x == v).count();
    println!(
        "# {} rows with a verdict: {} ok, {} regressed, {} unresolved, {} missing, {} unhealthy",
        verdicts.len(),
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Missing),
        count(Verdict::Unhealthy)
    );
    Ok(
        if !verdicts.is_empty() && count(Verdict::Ok) == verdicts.len() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        },
    )
}
