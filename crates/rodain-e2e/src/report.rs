//! What a run produces and how it is printed: the metric list, the
//! one-line result the acceptance driver reads, the table a person reads,
//! and the JSON report `e2e compare` reads back.

use crate::json::{quote, Json};
use crate::spans::SpanSummary;
use crate::stats::Sampled;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The five workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "nt-mirror",
    "nt-disk",
    "ro-mirror",
    "failover",
    "shard-xfer",
];

/// Set-ups timed in fresh processes, besides the run's own.
const EXTRA_SETUPS: usize = 10;

/// Options of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// `--seed`: the request streams are a function of it.
    pub seed: u64,
    /// `--seconds`: measured time (the warm-up comes on top).
    pub seconds: f64,
    /// `--trace 1`: record spans, run the probes, scrape the registry.
    pub trace: bool,
    /// `--quick`: a smoke-sized run (tests only; numbers are meaningless).
    pub quick: bool,
    /// Scratch directory for logs, spools and span files.
    pub work_dir: PathBuf,
    /// The `e2e` binary, for timing further set-ups in fresh processes
    /// ([`RunArgs::more_setups`]); `None` times only the run's own.
    pub setup_exe: Option<PathBuf>,
}

impl RunArgs {
    /// Discarded warm-up before the measured time.
    #[must_use]
    pub fn warmup(&self) -> f64 {
        if self.quick {
            0.02
        } else {
            2.0
        }
    }

    /// Set-up times of `workload` in `EXTRA_SETUPS` fresh processes
    /// (`e2e --workload W --setup-only`), to sit beside the run's own in
    /// the `setup_s` median. A set-up repeated inside one process is not
    /// the set-up a user pays: glibc moves its mmap and trim thresholds as
    /// stores are freed, and the repetitions settle into a fast or a slow
    /// mode from run to run (3.3 vs 5 ms on shard-xfer). A cold process is
    /// always in the same state.
    pub fn more_setups(&self, workload: &str) -> std::io::Result<Vec<f64>> {
        let Some(exe) = self.setup_exe.as_ref().filter(|_| !self.quick) else {
            return Ok(Vec::new());
        };
        (0..EXTRA_SETUPS)
            .map(|_| {
                let child = std::process::Command::new(exe)
                    .args(["--workload", workload, "--setup-only"])
                    .output()?;
                String::from_utf8_lossy(&child.stdout)
                    .trim()
                    .parse::<f64>()
                    .map_err(|e| std::io::Error::other(format!("{workload} --setup-only: {e}")))
            })
            .collect()
    }

    /// A fresh, empty directory `name` under the work directory.
    pub fn scratch(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.work_dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// One named metric of a run.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value (median sample) and the samples' extent.
    pub sampled: Sampled,
}

impl Metric {
    /// A metric taken as the median of `samples`.
    #[must_use]
    pub fn of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            sampled: Sampled::of(samples),
        }
    }

    /// A metric measured once.
    #[must_use]
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::of(name, unit, &[value])
    }
}

/// The outcome of one run of one workload.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted (requests sent, transfers started, takeovers).
    pub attempted: u64,
    /// Operations that failed: non-`Ok` replies plus unanswered requests.
    pub failed: u64,
    /// Every metric the run measured.
    pub metrics: Vec<Metric>,
    /// Failed correctness checks; empty means the outputs were correct.
    pub problems: Vec<String>,
    /// Mean duration / self time per span name (traced runs).
    pub spans: BTreeMap<&'static str, SpanSummary>,
}

impl RunOutput {
    /// All correctness checks passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Value of metric `name`, if measured.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.sampled.value)
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Bounded {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"better": "lower"` (else higher is better).
    pub lower_is_better: bool,
    /// Share of the baseline by which it may worsen.
    pub bound: f64,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Contract {
    /// Every end-to-end metric.
    pub end_to_end: Vec<Bounded>,
    /// `(name, unit)` of every per-layer metric.
    pub per_layer: Vec<(String, String)>,
}

impl Contract {
    /// Read `BENCHMARK.json` at `path`.
    pub fn load(path: &std::path::Path) -> Result<Contract, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let text_of = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{}: metric without {key}", path.display()))
        };
        let mut contract = Contract {
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        for m in doc.get("end_to_end").map_or(&[][..], Json::items) {
            contract.end_to_end.push(Bounded {
                name: text_of(m, "name")?,
                unit: text_of(m, "unit")?,
                lower_is_better: text_of(m, "better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
            });
        }
        for m in doc.get("per_layer").map_or(&[][..], Json::items) {
            contract
                .per_layer
                .push((text_of(m, "name")?, text_of(m, "unit")?));
        }
        if contract.end_to_end.is_empty() || contract.per_layer.is_empty() {
            return Err(format!("{}: no metrics listed", path.display()));
        }
        Ok(contract)
    }

    /// Names and units the result line of a run must carry: every
    /// end-to-end metric untraced, every per-layer metric traced.
    #[must_use]
    pub fn expected(&self, traced: bool) -> Vec<(&str, &str)> {
        if traced {
            self.per_layer
                .iter()
                .map(|(n, u)| (n.as_str(), u.as_str()))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        }
    }

    /// Whether `name` is listed at all.
    #[must_use]
    pub fn names(&self, name: &str) -> bool {
        self.end_to_end.iter().any(|m| m.name == name) || self.per_layer.iter().any(|m| m.0 == name)
    }
}

/// A JSON number with all its digits; non-finite values become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The last line of a run's standard output, as the acceptance driver
/// reads it: exactly `correct`, `attempted`, `failed`, `metrics`, the
/// metrics being exactly the ones `contract` lists for this kind of run.
/// A per-layer metric the workload has no measurement for reads 0 (the
/// layer did nothing there); a missing end-to-end metric is an error.
pub fn result_line(run: &RunOutput, contract: &Contract) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.correct(),
        run.attempted.max(1),
        run.failed
    );
    for (i, (name, unit)) in contract.expected(run.traced).into_iter().enumerate() {
        let value = match run.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit != unit => {
                return Err(format!(
                    "{name}: unit {} but BENCHMARK.json says {unit}",
                    m.unit
                ))
            }
            Some(m) => m.sampled.value,
            None if run.traced => 0.0,
            None => {
                return Err(format!(
                    "{}: end-to-end metric {name} not measured",
                    run.workload
                ))
            }
        };
        if !value.is_finite() {
            return Err(format!("{}: {name} is not finite", run.workload));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            number(value),
            quote(unit)
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// `workload metric value unit` lines, with the in-run spread.
#[must_use]
pub fn table(run: &RunOutput) -> String {
    let mut out = String::new();
    for m in &run.metrics {
        let s = &m.sampled;
        let _ = write!(
            out,
            "{} {} {} {}",
            run.workload,
            m.name,
            number(s.value),
            m.unit
        );
        if s.samples > 1 {
            let _ = write!(
                out,
                "  (min {} max {} over {} samples)",
                number(s.min),
                number(s.max),
                s.samples
            );
        }
        out.push('\n');
    }
    for (name, s) in &run.spans {
        let _ = writeln!(
            out,
            "{} span {name} count {} mean_ns {:.0} self_ns {:.0}",
            run.workload, s.count, s.mean_ns, s.mean_self_ns
        );
    }
    for p in &run.problems {
        let _ = writeln!(out, "{} INCORRECT {p}", run.workload);
    }
    out
}

/// Where and how the numbers were taken; compared runs must agree on
/// `build_mode` and `nproc`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Env {
    /// `cargo` or `rustc-stub` (set by `run.sh`), `unknown` otherwise.
    pub build_mode: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `git rev-parse HEAD` at build time (set by `run.sh`).
    pub git_commit: String,
}

impl Env {
    /// Read the environment of this process.
    #[must_use]
    pub fn detect() -> Env {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Env {
            build_mode: std::env::var("E2E_BUILD_MODE").unwrap_or_else(|_| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model,
            git_commit: std::env::var("E2E_GIT_COMMIT").unwrap_or_else(|_| "unknown".into()),
        }
    }
}

/// One run as a JSON object (a member of a report's `runs` array).
#[must_use]
pub fn run_json(run: &RunOutput) -> String {
    let mut out = format!(
        "    {{\"workload\": {}, \"traced\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        quote(run.workload),
        run.traced,
        run.correct(),
        run.attempted,
        run.failed
    );
    for (j, m) in run.metrics.iter().enumerate() {
        let s = &m.sampled;
        let sep = if j == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n      {}: {{\"value\": {}, \"unit\": {}, \"min\": {}, \"max\": {}, \"samples\": {}, \"spread\": {}}}",
            quote(m.name),
            number(s.value),
            quote(m.unit),
            number(s.min),
            number(s.max),
            s.samples,
            number(s.spread)
        );
    }
    out.push_str("},\n      \"spans\": {");
    for (j, (name, s)) in run.spans.iter().enumerate() {
        let sep = if j == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"count\": {}, \"mean_ns\": {}, \"self_ns\": {}}}",
            quote(name),
            s.count,
            number(s.mean_ns),
            number(s.mean_self_ns)
        );
    }
    out.push_str("}}");
    out
}

/// The JSON report of a set of runs (each rendered by [`run_json`]). Its
/// last member is `"claim": null`: the benchmark reports, it does not
/// claim.
#[must_use]
pub fn report_json(env: &Env, args: &RunArgs, runs: &[String]) -> String {
    format!(
        "{{\n  \"env\": {{\"build_mode\": {}, \"nproc\": {}, \"cpu_model\": {}, \"git_commit\": {}, \"seed\": {}, \"seconds\": {}}},\n  \"runs\": [\n{}\n  ],\n  \"claim\": null\n}}\n",
        quote(&env.build_mode),
        env.nproc,
        quote(&env.cpu_model),
        quote(&env.git_commit),
        args.seed,
        number(args.seconds),
        runs.join(",\n")
    )
}

/// Peak resident set of this process, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
