//! Output: the per-run lines and result object, the files `bench run` /
//! `bench trace` write, the machine fingerprint, and `bench compare`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use super::inputs::{FULL_SCALE, QUICK_SCALE};
use super::json::Json;
use super::layers::Row;
use super::samples::{median, quartiles};
use super::workloads::{self, RunReport, OPEN_RATE, WORKLOADS};

/// Print one run: `workload metric value unit n=<samples>` per figure,
/// notes as `#` lines, and — the last line — the result object.
pub fn print_run(report: &RunReport) {
    for note in &report.notes {
        println!("# {note}");
    }
    for row in report.extras.iter().chain(&report.metrics) {
        println!("{}", line(report.workload, row));
    }
    println!("{}", result_object(report).render());
}

fn line(workload: &str, row: &Row) -> String {
    format!(
        "{workload} {} {} {} n={}",
        row.name, row.value, row.unit, row.n
    )
}

/// `{"correct", "attempted", "failed", "metrics"}` — exactly these keys.
pub fn result_object(report: &RunReport) -> Json {
    let metrics = report.metrics.iter().map(|r| {
        (
            r.name.clone(),
            Json::obj([("value", Json::Num(r.value)), ("unit", Json::str(r.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how a result file was measured. `comparable` is what must
/// match for two files to be compared at all; the git sha and the
/// resolved configurations are recorded beside it and may differ (a
/// comparison is usually between two commits, and a changed default is
/// exactly what the ruler should show).
pub fn fingerprint(seed: u64, seconds: f64, quick: bool) -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let git_sha =
        command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "nogit".into());
    let configs = WORKLOADS
        .iter()
        .map(|w| (w.name, workloads::config_json(w)));
    Json::obj([
        (
            "comparable",
            Json::obj([
                ("nproc", Json::Num(workloads::nproc() as f64)),
                ("kernel", Json::Str(kernel)),
                ("rustc", Json::Str(rustc)),
                ("seed", Json::Num(seed as f64)),
                ("run_seconds", Json::Num(seconds)),
                ("quick", Json::Bool(quick)),
                (
                    "rmat_scale",
                    Json::Num(if quick { QUICK_SCALE } else { FULL_SCALE } as f64),
                ),
                ("open_loop_rate", Json::Num(OPEN_RATE)),
            ]),
        ),
        ("git_sha", Json::Str(git_sha)),
        ("configs", Json::obj(configs)),
    ])
}

/// A short file-name form of the machine part of a fingerprint.
pub fn fingerprint_slug(fp: &Json) -> String {
    let c = fp.get("comparable");
    let field = |k: &str| c.and_then(|c| c.get(k));
    let rustc = field("rustc")
        .and_then(Json::as_str)
        .and_then(|s| s.split_whitespace().nth(1))
        .unwrap_or("unknown");
    let kernel = field("kernel").and_then(Json::as_str).unwrap_or("unknown");
    let nproc = field("nproc").and_then(Json::as_f64).unwrap_or(0.0);
    format!("nproc{nproc}-linux{kernel}-rustc{rustc}")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || "-._".contains(c) {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Accumulates the runs of one `bench run` / `bench trace` invocation.
#[derive(Default)]
pub struct ResultFile {
    /// workload → metric → (unit, values in run order).
    results: BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>,
    /// workload → (runs, incorrect runs, attempted, failed).
    health: BTreeMap<String, (u64, u64, u64, u64)>,
}

impl ResultFile {
    /// Fold in one child's output: every figure it printed (`workload
    /// metric value unit n=…` lines — the contract's metrics and the
    /// figures printed beside them), and the health its result object
    /// (the last line) reports.
    pub fn add(&mut self, workload: &str, lines: &[String], result: &Json) {
        for line in lines {
            let fields: Vec<&str> = line.split(' ').collect();
            if let [w, metric, value, unit, _n] = fields[..] {
                if let (true, Ok(value)) = (w == workload, value.parse()) {
                    self.add_value(workload, metric, unit, value);
                }
            }
        }
        let h = self.health.entry(workload.to_string()).or_default();
        h.0 += 1;
        if result.get("correct") != Some(&Json::Bool(true)) {
            h.1 += 1;
        }
        h.2 += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64;
        h.3 += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    }

    /// Add one value of one figure.
    pub fn add_value(&mut self, workload: &str, metric: &str, unit: &str, value: f64) {
        self.results
            .entry(workload.to_string())
            .or_default()
            .entry(metric.to_string())
            .or_insert_with(|| (unit.to_string(), Vec::new()))
            .1
            .push(value);
    }

    pub fn to_json(&self, kind: &str, fingerprint: Json) -> Json {
        let results = self.results.iter().map(|(w, metrics)| {
            let ms = metrics.iter().map(|(name, (unit, values))| {
                let mut fields = vec![
                    ("unit", Json::str(unit.as_str())),
                    (
                        "values",
                        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                    ("median", Json::Num(median(values.clone()))),
                ];
                if values.len() >= 2 {
                    let (q1, q3) = quartiles(values);
                    fields.push(("q1", Json::Num(q1)));
                    fields.push(("q3", Json::Num(q3)));
                }
                (name.clone(), Json::obj(fields))
            });
            (w.clone(), Json::obj(ms))
        });
        let health = self
            .health
            .iter()
            .map(|(w, &(runs, incorrect, attempted, failed))| {
                (
                    w.clone(),
                    Json::obj([
                        ("runs", Json::Num(runs as f64)),
                        ("incorrect_runs", Json::Num(incorrect as f64)),
                        ("attempted", Json::Num(attempted as f64)),
                        ("failed", Json::Num(failed as f64)),
                    ]),
                )
            });
        Json::obj([
            ("kind", Json::str(kind)),
            ("fingerprint", fingerprint),
            ("health", Json::obj(health)),
            ("results", Json::obj(results)),
        ])
    }
}

pub fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.render_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// One end-to-end metric of `BENCHMARK.json`.
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics and their bounds, from `BENCHMARK.json`.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// The verdict on one row of `compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Run-to-run spread exceeds the bound: the pairing cannot be
    /// called unchanged.
    Unresolved,
    /// One of the files has no reading for the pairing (a workload that
    /// crashed, or was not run): nothing can be said about it.
    Missing,
    /// A run with wrong results, or more failed operations than the
    /// base had.
    Unhealthy,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved (spread > bound)",
            Verdict::Missing => "missing",
            Verdict::Unhealthy => "unhealthy",
        }
    }
}

/// Figures `compare` shows without a verdict: the issue's end-to-end
/// metrics that would not repeat within a bound (README, "Demoted") or
/// that only one workload has ("Scoped").
const NOT_GATED: [&str; 8] = [
    "loadgen.update_p99_us",
    "loadgen.update_p999_us",
    "loadgen.default_commit_update_ops_s",
    "loadgen.default_commit_update_p50_us",
    "loadgen.read_ops_s",
    "loadgen.read_p50_us",
    "loadgen.read_p99_us",
    "loadgen.recovery_s",
];

/// IQR ÷ median of a metric's stored quartiles (`None` for one run).
fn spread(m: &Json) -> Option<f64> {
    let (q1, q3) = (m.get("q1")?.as_f64()?, m.get("q3")?.as_f64()?);
    let med = m.get("median")?.as_f64()?;
    (med != 0.0).then(|| (q3 - q1).abs() / med.abs())
}

/// Apply `bounds` to every (end-to-end metric, workload) pairing — all
/// of [`WORKLOADS`] × all of `bounds`, whatever the files hold, so that
/// a workload that crashed or was left out shows as `missing` rather
/// than not at all — and check each workload's health; one printed row
/// each. **Refuses** files whose `comparable` fingerprints differ.
/// Returns the rows' verdicts.
pub fn compare(base: &Json, new: &Json, bounds: &[Bound]) -> Result<Vec<Verdict>, String> {
    let comparable = |f: &Json| {
        f.get("fingerprint")
            .and_then(|fp| fp.get("comparable"))
            .cloned()
    };
    let (cb, cn) = (comparable(base), comparable(new));
    if cb.is_none() || cb != cn {
        return Err(format!(
            "refusing to compare: fingerprints differ\n  base: {}\n  new:  {}",
            cb.map_or("missing".into(), |c| c.render()),
            cn.map_or("missing".into(), |c| c.render()),
        ));
    }
    let sha = |f: &Json| {
        f.get("fingerprint")
            .and_then(|fp| fp.get("git_sha"))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    println!(
        "# base {} → new {} (ratio = new ÷ base)",
        sha(base),
        sha(new)
    );
    let row = |workload: &str, metric: &str, cells: [String; 5], verdict: &str| {
        let [base, new, ratio, bound, spread] = cells;
        println!(
            "{workload:<24} {metric:<22} {base:>14} {new:>14} {ratio:>8} {bound:>7} {spread:>7}  {verdict}"
        );
    };
    let none = || "-".to_string();
    let cells = ["base", "new", "ratio", "bound", "spread"].map(String::from);
    row("workload", "metric", cells, "verdict");
    let metric = |f: &Json, workload: &str, name: &str| {
        f.get("results")
            .and_then(|r| r.get(workload))
            .and_then(|m| m.get(name))
            .cloned()
    };
    let medians = |mb: &Option<Json>, mn: &Option<Json>| {
        let median = |m: &Option<Json>| m.as_ref()?.get("median")?.as_f64();
        Some((median(mb)?, median(mn)?))
    };
    let widest = |mb: &Option<Json>, mn: &Option<Json>| {
        [mb, mn]
            .into_iter()
            .filter_map(|m| spread(m.as_ref()?))
            .fold(0.0, f64::max)
    };
    let mut verdicts = Vec::new();
    for w in &WORKLOADS {
        for b in bounds {
            let (mb, mn) = (metric(base, w.name, &b.name), metric(new, w.name, &b.name));
            let Some((vb, vn)) = medians(&mb, &mn) else {
                let cells = [none(), none(), none(), format!("{:.3}", b.bound), none()];
                row(w.name, &b.name, cells, Verdict::Missing.label());
                verdicts.push(Verdict::Missing);
                continue;
            };
            let worse_by = if b.higher_is_better {
                (vb - vn) / vb
            } else {
                (vn - vb) / vb
            };
            let widest = widest(&mb, &mn);
            let verdict = if widest > b.bound {
                Verdict::Unresolved
            } else if worse_by > b.bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            let cells = [
                format!("{vb:.4}"),
                format!("{vn:.4}"),
                format!("{:.4}", vn / vb),
                format!("{:.3}", b.bound),
                format!("{widest:.3}"),
            ];
            row(w.name, &b.name, cells, verdict.label());
            verdicts.push(verdict);
        }
        for name in NOT_GATED {
            let (mb, mn) = (metric(base, w.name, name), metric(new, w.name, name));
            if let Some((vb, vn)) = medians(&mb, &mn) {
                let cells = [
                    format!("{vb:.4}"),
                    format!("{vn:.4}"),
                    format!("{:.4}", vn / vb),
                    none(),
                    format!("{:.3}", widest(&mb, &mn)),
                ];
                row(w.name, name, cells, "not gated");
            }
        }
        // Health: wrong results on either side, or more failed
        // operations than the base had, and no ratio above means much.
        let health = |f: &Json, field: &str| {
            f.get("health")
                .and_then(|h| h.get(w.name))
                .and_then(|h| h.get(field))
                .and_then(Json::as_f64)
        };
        let sides = |field: &str| Some((health(base, field)?, health(new, field)?));
        let (verdict, cells) = match (sides("incorrect_runs"), sides("failed")) {
            (Some((ib, inew)), Some((fb, fnew))) => (
                if ib > 0.0 || inew > 0.0 || fnew > fb {
                    Verdict::Unhealthy
                } else {
                    Verdict::Ok
                },
                [
                    format!("{ib}+{fb}"),
                    format!("{inew}+{fnew}"),
                    none(),
                    none(),
                    none(),
                ],
            ),
            _ => (Verdict::Missing, [none(), none(), none(), none(), none()]),
        };
        row(w.name, "incorrect+failed", cells, verdict.label());
        verdicts.push(verdict);
    }
    Ok(verdicts)
}
