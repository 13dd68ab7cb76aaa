//! `--quick` smoke: every workload runs end to end in a fraction of a
//! second, passes its correctness checks, and its result lines carry
//! exactly the metrics `BENCHMARK.json` names — finite, well-named, with
//! the units the file gives, and nothing the file does not name.

use rodain_e2e::json::Json;
use rodain_e2e::report::{result_line, Contract, RunArgs};
use rodain_e2e::run_workload;
use std::path::PathBuf;

fn benchmark_json() -> PathBuf {
    match option_env!("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join("../../BENCHMARK.json"),
        // Built by `run.sh --test` with plain rustc, run from the root.
        None => std::env::var_os("E2E_BENCHMARK_JSON")
            .map_or_else(|| "BENCHMARK.json".into(), PathBuf::from),
    }
}

fn work_dir(workload: &str) -> PathBuf {
    let base = option_env!("CARGO_TARGET_TMPDIR")
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("E2E_WORK_DIR").map(PathBuf::from))
        .unwrap_or_else(|| "target/e2e-work".into());
    base.join(format!("smoke-{workload}"))
}

fn smoke(workload: &str) {
    let contract = Contract::load(&benchmark_json()).expect("BENCHMARK.json loads");
    for trace in [false, true] {
        let args = RunArgs {
            seed: 7,
            seconds: 0.2,
            trace,
            quick: true,
            work_dir: work_dir(workload),
            setup_exe: None,
        };
        let run = run_workload(workload, &args).expect("workload runs");
        assert!(run.correct(), "{workload}: {:?}", run.problems);
        assert!(run.attempted > 0 && run.failed <= run.attempted);
        for m in &run.metrics {
            assert!(
                contract.names(m.name),
                "{workload}: {} is not in BENCHMARK.json",
                m.name
            );
        }

        let line = result_line(&run, &contract).expect("result line");
        let result = Json::parse(&line).expect("result line is JSON");
        let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = result.get("metrics").expect("metrics").members();
        let expected = contract.expected(trace);
        assert_eq!(metrics.len(), expected.len(), "{workload} trace={trace}");
        for ((name, metric), (want_name, want_unit)) in metrics.iter().zip(expected) {
            assert_eq!(name, want_name);
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert_eq!(
                metric.get("unit").and_then(Json::as_str),
                Some(want_unit),
                "{name}"
            );
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{workload} {name} = {value}");
            if !trace {
                assert!(value > 0.0, "{workload}: end-to-end metric {name} is 0");
            }
        }
        if trace {
            assert!(args
                .work_dir
                .join(format!("spans-{workload}.jsonl"))
                .exists());
            assert!(
                !run.spans.is_empty(),
                "{workload}: traced run summarises its spans"
            );
        }
    }
    let _ = std::fs::remove_dir_all(work_dir(workload));
}

#[test]
fn nt_mirror() {
    smoke("nt-mirror");
}

#[test]
fn nt_disk() {
    smoke("nt-disk");
}

#[test]
fn ro_mirror() {
    smoke("ro-mirror");
}

#[test]
fn failover() {
    smoke("failover");
}

#[test]
fn shard_xfer() {
    smoke("shard-xfer");
}
