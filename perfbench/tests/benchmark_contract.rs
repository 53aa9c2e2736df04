//! The benchmark against its own contract (`../BENCHMARK.json`).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! Every workload runs in `--quick` shape (RMAT scale 12, 0.2 s warm-up,
//! 2 s measured in all); nothing here asserts a speed.

use std::collections::BTreeSet;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use perfbench::harness::inputs::{safe_churn_inputs, Algo};
use perfbench::harness::json::Json;
use perfbench::harness::loadgen::{open_tcp, StartGate, TraceCfg};
use perfbench::harness::report::{self, ResultFile, Verdict};
use perfbench::harness::samples::Plan;
use perfbench::harness::workloads::WORKLOADS;
use risgraph_common::protocol::{read_frame, write_frame, Request, Response, MAX_FRAME};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Run one workload the way the driver does; return what it printed and
/// its last line.
fn run(workload: &str, trace: bool) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "1", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .env("RISGRAPH_SHARDS", "7") // must be scrubbed, not obeyed
        .output()
        .expect("spawn bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited with {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("scrubbed from the environment: RISGRAPH_SHARDS")
            && !stdout.contains("\"shards\":7"),
        "a RISGRAPH_* variable reached the resolved config:\n{stdout}"
    );
    let last = Json::parse(stdout.lines().last().expect("output")).expect("a JSON object");
    (stdout.into_owned(), last)
}

#[test]
fn benchmark_json_is_within_the_contract_limits() {
    let b = benchmark_json();
    let keys: BTreeSet<&str> = b.as_obj().unwrap().keys().map(String::as_str).collect();
    let want = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    assert_eq!(keys, want.into_iter().collect());
    let (w, e, p) = (
        names(b.get("workloads").unwrap()),
        names(b.get("end_to_end").unwrap()),
        names(b.get("per_layer").unwrap()),
    );
    assert!(
        (2..=8).contains(&w.len()) && (1..=16).contains(&e.len()) && (1..=128).contains(&p.len())
    );
    let all: Vec<&String> = w.iter().chain(&e).chain(&p).collect();
    assert!(
        all.iter().all(|n| valid_name(n)),
        "a name breaks the rules: {all:?}"
    );
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );
    assert_eq!(w, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    for (listed, ours) in b
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(&WORKLOADS)
    {
        assert_eq!(listed.get("why").and_then(Json::as_str), Some(ours.why));
        assert!(ours.why.len() <= 200 && !ours.why.contains('\n'));
    }
    for m in b.get("end_to_end").unwrap().as_arr().unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = b
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"));
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    assert_eq!(b.get("run_seconds").and_then(Json::as_f64), Some(10.0));
}

#[test]
fn every_workload_prints_exactly_the_listed_metrics_and_is_correct() {
    let b = benchmark_json();
    for (list, trace) in [("end_to_end", false), ("per_layer", true)] {
        let listed = b.get(list).unwrap().as_arr().unwrap();
        for w in &WORKLOADS {
            let (stdout, result) = run(w.name, trace);
            // Figures only one workload has are printed by that one.
            for (figure, only) in [
                ("loadgen.read_p50_us", "tcp_read_write"),
                ("loadgen.recovery_s", "tcp_durable_checkpoint"),
                ("loadgen.sched_late_p99_us", "tcp_safe_open"),
            ] {
                assert_eq!(stdout.contains(figure), w.name == only, "{}", w.name);
            }
            let keys: BTreeSet<&str> = result
                .as_obj()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"]
                    .into_iter()
                    .collect()
            );
            // result_mismatches == 0 and failed_frac == 0, on all seven.
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{}",
                w.name
            );
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let printed = result.get("metrics").unwrap().as_obj().unwrap();
            let want: BTreeSet<&str> = listed
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap())
                .collect();
            let got: BTreeSet<&str> = printed.keys().map(String::as_str).collect();
            assert_eq!(got, want, "{} trace={trace}: printed ≠ listed", w.name);
            for m in listed {
                let name = m.get("name").and_then(Json::as_str).unwrap();
                let p = &printed[name];
                assert_eq!(p.get("unit"), m.get("unit"), "{}: unit of {name}", w.name);
                let value = p.get("value").and_then(Json::as_f64).expect("a number");
                assert!(value.is_finite(), "{}: {name} = {value}", w.name);
                if !trace {
                    assert!(value > 0.0, "{}: end-to-end {name} must never be 0", w.name);
                }
            }
        }
    }
}

#[test]
fn the_seed_decides_the_inputs() {
    for w in &WORKLOADS {
        let first = w.generate(1, true).digest();
        assert_eq!(
            first,
            w.generate(1, true).digest(),
            "{}: same seed, other inputs",
            w.name
        );
        assert_ne!(
            first,
            w.generate(2, true).digest(),
            "{}: other seed, same inputs",
            w.name
        );
    }
}

/// A result file of three runs per workload. `skip` is left out (a
/// workload that crashed or was not run); `setup` are the three
/// `setup_s` readings; `correct` is what every run reported.
fn result_file(skip: Option<&str>, setup: [f64; 3], correct: bool) -> Json {
    let mut file = ResultFile::default();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(1000.0)),
        ("failed", Json::Num(0.0)),
    ]);
    for w in WORKLOADS.iter().filter(|w| Some(w.name) != skip) {
        for s in setup {
            let lines = [
                format!("{} setup_s {s} s n=5", w.name),
                format!("{} update_ops_s 100000 1/s n=9", w.name),
                format!("{} update_p50_us 500 us n=9", w.name),
                format!("{} within_limit_frac 1 ratio n=9", w.name),
                format!("{} peak_rss_mb 140 MiB n=1", w.name),
                "# a note".to_string(),
                format!("{} loadgen.update_p99_us 900 us n=9", w.name),
            ];
            file.add(w.name, &lines, &result);
        }
    }
    file.to_json("run", report::fingerprint(1, 10.0, false))
}

/// `compare` gives a verdict on every (end-to-end metric, workload)
/// pairing of the contract and on every workload's health, whatever
/// the files hold: a run set that lost a workload, lost everything, or
/// computed wrong results does not compare clean.
#[test]
fn compare_does_not_pass_what_it_cannot_see() {
    let bounds = report::bounds(&benchmark_json()).expect("bounds");
    let steady = [0.60, 0.61, 0.62];
    let base = result_file(None, steady, true);
    let rows = WORKLOADS.len() * (bounds.len() + 1);
    let count = |new: &Json, v: Verdict| {
        let verdicts = report::compare(&base, new, &bounds).expect("same fingerprint");
        assert_eq!(verdicts.len(), rows);
        verdicts.into_iter().filter(|&x| x == v).count()
    };

    assert_eq!(count(&base, Verdict::Ok), rows);
    // One workload missing from the new file: its every row says so.
    let lost_one = result_file(Some("tcp_safe_open"), steady, true);
    assert_eq!(count(&lost_one, Verdict::Missing), bounds.len() + 1);
    assert_eq!(count(&lost_one, Verdict::Ok), rows - bounds.len() - 1);
    // Nothing in the new file at all.
    let mut empty = result_file(None, steady, true);
    if let Json::Obj(fields) = &mut empty {
        fields.insert("results".into(), Json::Obj(Default::default()));
        fields.insert("health".into(), Json::Obj(Default::default()));
    }
    assert_eq!(count(&empty, Verdict::Missing), rows);
    // Wrong results on the new side.
    let wrong = result_file(None, steady, false);
    assert_eq!(count(&wrong, Verdict::Unhealthy), WORKLOADS.len());
    // A spread wider than the bound is unresolved, for set-up time as
    // for any other metric.
    let noisy = result_file(None, [0.50, 0.61, 0.72], true);
    assert_eq!(count(&noisy, Verdict::Unresolved), WORKLOADS.len());
    // And a median worse by more than the bound is a regression.
    let slow = result_file(None, [0.80, 0.81, 0.82], true);
    assert_eq!(count(&slow, Verdict::Regressed), WORKLOADS.len());
}

/// The open-loop sender really is open: against a listener that
/// withholds replies for 50 ms, latency is charged from the due time,
/// so every request scheduled during the stall carries its share of it
/// — not only the one that was in flight when it began.
#[test]
fn open_loop_charges_a_stall_to_every_request_scheduled_during_it() {
    const RATE: f64 = 2_000.0;
    const STALL: Duration = Duration::from_millis(50);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut r = BufReader::new(stream.try_clone().expect("clone"));
        let mut w = BufWriter::new(stream);
        let mut answered = 0u32;
        while let Ok(Some(frame)) = read_frame(&mut r, MAX_FRAME) {
            let (id, req) = Request::decode(&frame).expect("well-formed request");
            let resp = match req {
                Request::Hello { version } => Response::Hello {
                    version: version.min(2),
                },
                Request::Update(_) => {
                    answered += 1;
                    if answered == 200 {
                        std::thread::sleep(STALL);
                    }
                    Response::Applied {
                        version: answered as u64,
                        safe: true,
                        result_changes: 0,
                    }
                }
                other => panic!("unexpected request {other:?}"),
            };
            write_frame(&mut w, &resp.encode(id)).expect("reply");
            w.flush().expect("flush");
        }
    });

    let inputs = safe_churn_inputs(1, 8, Algo::Bfs, 1, 500);
    let plan = Plan {
        warmup: Duration::ZERO,
        slice: Duration::from_millis(400),
        slices: 1,
    };
    let gate = StartGate::new(1);
    let out = std::thread::scope(|scope| {
        let (gate, stream) = (&gate, &inputs.streams[0]);
        let sender = scope.spawn(move || open_tcp(addr, stream, RATE, gate, TraceCfg::off()));
        gate.open(plan);
        sender.join().expect("open loop thread")
    });
    stub.join().expect("stub listener");
    assert_eq!(out.fatal, None);
    let updates = out.updates.expect("updates recorded");
    let latencies: Vec<u64> = updates.ok_samples().collect();
    let stall_ns = STALL.as_nanos() as u64;
    assert!(
        latencies.iter().max().unwrap() + 2_000_000 >= stall_ns,
        "the stall is missing from the worst latency"
    );
    // Requests due in the first half of the stall waited ≥ half of it:
    // RATE × 25 ms = 50 of them. A send-clock timer would show one.
    let carrying = latencies.iter().filter(|&&ns| ns >= stall_ns / 2).count();
    assert!(carrying >= 40, "only {carrying} requests carry the stall");
    let health = out.open.expect("open-loop health");
    assert!(health.offered as f64 >= RATE * 0.4 * 0.95);
}
