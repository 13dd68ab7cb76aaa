//! `e2e compare A.json B.json`: B against A under the bounds of
//! `BENCHMARK.json`, one row per workload × end-to-end metric.

use crate::json::Json;
use crate::report::Contract;
use std::fmt::Write as _;

/// `fail_ratio` may rise by this much, absolutely, before it counts.
const FAIL_RATIO_SLACK: f64 = 0.001;

/// The verdict on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// A's own in-run spread exceeds the bound: the pair decides nothing.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for values `a` → `b` of a metric whose `better` direction
/// is `lower` or `higher`, given A's in-run `spread` and the `bound`.
#[must_use]
pub fn verdict(a: f64, b: f64, lower_is_better: bool, spread: f64, bound: f64) -> Verdict {
    let worse_by = if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    };
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn env_field<'a>(report: &'a Json, key: &str) -> Option<&'a Json> {
    report.get("env").and_then(|env| env.get(key))
}

fn untraced_runs(report: &Json) -> impl Iterator<Item = &Json> {
    report
        .get("runs")
        .map_or(&[][..], Json::items)
        .iter()
        .filter(|run| run.get("traced") == Some(&Json::Bool(false)))
}

fn metric_field(run: &Json, name: &str, field: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get(field)?.as_f64()
}

/// Compare two reports. Returns the table and whether every row is `ok`.
/// Refuses reports taken with different build modes or core counts.
pub fn compare(a: &Json, b: &Json, contract: &Contract) -> Result<(String, bool), String> {
    for key in ["build_mode", "nproc"] {
        if env_field(a, key) != env_field(b, key) || env_field(a, key).is_none() {
            return Err(format!(
                "refusing to compare: {key} is {:?} in A and {:?} in B",
                env_field(a, key),
                env_field(b, key)
            ));
        }
    }
    let mut table = String::from("workload metric A B change bound verdict\n");
    let mut all_ok = true;
    let mut row =
        |workload: &str, name: &str, a: f64, b: f64, change: f64, bound: &str, v: Verdict| {
            all_ok &= v == Verdict::Ok;
            let _ = writeln!(
                table,
                "{workload} {name} {a} {b} {change:+.4} {bound} {}",
                v.label()
            );
        };
    for run_a in untraced_runs(a) {
        let workload = run_a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(run_b) = untraced_runs(b).find(|r| r.get("workload") == run_a.get("workload"))
        else {
            return Err(format!("workload {workload} is in A but not in B"));
        };
        for metric in &contract.end_to_end {
            let (name, bound) = (&metric.name, metric.bound);
            let (Some(va), Some(vb)) = (
                metric_field(run_a, name, "value"),
                metric_field(run_b, name, "value"),
            ) else {
                return Err(format!("{workload}: {name} missing from a report"));
            };
            let spread = metric_field(run_a, name, "spread").unwrap_or(0.0);
            let v = verdict(va, vb, metric.lower_is_better, spread, bound);
            row(
                workload,
                name,
                va,
                vb,
                (vb - va) / va,
                &bound.to_string(),
                v,
            );
        }
        // The two metrics that are 0 when all is well carry absolute limits.
        let fail = |run| metric_field(run, "fail_ratio", "value").unwrap_or(0.0);
        let (fa, fb) = (fail(run_a), fail(run_b));
        let v = if fb > fa + FAIL_RATIO_SLACK {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        row(workload, "fail_ratio", fa, fb, fb - fa, "+0.001abs", v);
        let lost = metric_field(run_b, "lost_acked", "value").unwrap_or(0.0);
        let correct = run_b.get("correct") == Some(&Json::Bool(true));
        let v = if lost == 0.0 && correct {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
        row(workload, "lost_acked", 0.0, lost, lost, "0", v);
    }
    Ok((table, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Bounded;

    #[test]
    fn verdicts() {
        assert_eq!(verdict(100.0, 109.0, true, 0.02, 0.10), Verdict::Ok);
        assert_eq!(verdict(100.0, 111.0, true, 0.02, 0.10), Verdict::Regressed);
        assert_eq!(verdict(100.0, 80.0, true, 0.02, 0.10), Verdict::Ok);
        assert_eq!(verdict(100.0, 89.0, false, 0.02, 0.10), Verdict::Regressed);
        assert_eq!(verdict(100.0, 120.0, false, 0.02, 0.10), Verdict::Ok);
        assert_eq!(verdict(100.0, 150.0, true, 0.30, 0.10), Verdict::Unresolved);
    }

    fn report(mode: &str, tput: f64, fail: f64) -> Json {
        Json::parse(&format!(
            r#"{{"env": {{"build_mode": "{mode}", "nproc": 2}},
                "runs": [{{"workload": "w", "traced": false, "correct": true, "metrics": {{
                    "tput_tps": {{"value": {tput}, "spread": 0.01}},
                    "fail_ratio": {{"value": {fail}}}, "lost_acked": {{"value": 0}}}}}},
                    {{"workload": "w", "traced": true, "metrics": {{}}}}],
                "claim": null}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compares_untraced_runs_and_refuses_mixed_builds() {
        let contract = Contract {
            end_to_end: vec![Bounded {
                name: "tput_tps".into(),
                unit: "1/s".into(),
                lower_is_better: false,
                bound: 0.10,
            }],
            per_layer: vec![],
        };
        let (table, ok) = compare(
            &report("cargo", 1000.0, 0.0),
            &report("cargo", 950.0, 0.0),
            &contract,
        )
        .unwrap();
        assert!(ok, "{table}");
        assert_eq!(table.lines().count(), 4);
        let (table, ok) = compare(
            &report("cargo", 1000.0, 0.0),
            &report("cargo", 800.0, 0.0),
            &contract,
        )
        .unwrap();
        assert!(
            !ok && table.contains("tput_tps 1000 800 -0.2000 0.1 regressed"),
            "{table}"
        );
        let (_, ok) = compare(
            &report("cargo", 1000.0, 0.0),
            &report("cargo", 1000.0, 0.002),
            &contract,
        )
        .unwrap();
        assert!(!ok);
        assert!(compare(
            &report("cargo", 1.0, 0.0),
            &report("rustc-stub", 1.0, 0.0),
            &contract
        )
        .is_err());
    }
}
