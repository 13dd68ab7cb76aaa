//! `e2e` — run the end-to-end benchmark, or compare two of its reports.
//!
//! ```text
//! e2e [--workload W|all] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! e2e compare A.json B.json
//! ```
//!
//! Use it through `crates/rodain-e2e/run.sh`, which builds it first.

use rodain_e2e::compare::compare;
use rodain_e2e::json::Json;
use rodain_e2e::report::{
    report_json, result_line, run_json, table, Contract, Env, RunArgs, WORKLOADS,
};
use rodain_e2e::{run_workload, setup_once};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: e2e [--workload W|all] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]\n       e2e compare A.json B.json";

struct Cli {
    workload: String,
    args: RunArgs,
    out: Option<PathBuf>,
    /// Child mode of `--workload all`: write only this run's JSON object.
    emit_run: Option<PathBuf>,
    /// Child mode of a run: set up once, print the seconds it took.
    setup_only: bool,
}

fn parse(mut argv: std::iter::Peekable<impl Iterator<Item = String>>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        args: RunArgs {
            seed: 1,
            seconds: 16.0,
            trace: false,
            quick: false,
            work_dir: std::env::var_os("E2E_WORK_DIR")
                .map_or_else(|| "target/e2e-work".into(), PathBuf::from),
            setup_exe: std::env::current_exe().ok(),
        },
        out: None,
        emit_run: None,
        setup_only: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = value("a workload name")?,
            "--seed" => {
                cli.args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.args.seconds > 0.0 && cli.args.seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
            }
            "--trace" => {
                // A flag for people, `--trace 0|1` for the driver.
                cli.args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => cli.args.quick = true,
            "--out" => cli.out = Some(value("a file")?.into()),
            "--emit-run" => cli.emit_run = Some(value("a file")?.into()),
            "--setup-only" => cli.setup_only = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if cli.workload != "all" && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of {WORKLOADS:?} or all)",
            cli.workload
        ));
    }
    Ok(cli)
}

fn contract() -> Result<Contract, String> {
    let path = std::env::var_os("E2E_BENCHMARK_JSON")
        .map_or_else(|| "BENCHMARK.json".into(), PathBuf::from);
    Contract::load(&path)
}

/// One workload in this process: table, optional report, result line last.
fn run_one(cli: &Cli, contract: &Contract) -> Result<bool, String> {
    let run =
        run_workload(&cli.workload, &cli.args).map_err(|e| format!("{}: {e}", cli.workload))?;
    if let Some(stray) = run.metrics.iter().find(|m| !contract.names(m.name)) {
        return Err(format!(
            "metric {} is not named in BENCHMARK.json",
            stray.name
        ));
    }
    print!("{}", table(&run));
    let write = |path: &Path, text: String| {
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    if let Some(path) = &cli.emit_run {
        write(path, run_json(&run))?;
    }
    if let Some(path) = &cli.out {
        write(
            path,
            report_json(&Env::detect(), &cli.args, &[run_json(&run)]),
        )?;
    }
    println!("{}", result_line(&run, contract)?);
    Ok(run.correct())
}

/// Every workload, each in a process of its own so that `peak_rss_mb` is
/// that workload's; with `--trace`, the traced run follows the untraced.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&cli.args.work_dir).map_err(|e| e.to_string())?;
    let part = cli
        .args
        .work_dir
        .join(format!("run-{}.json", std::process::id()));
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !cli.args.trace {
                continue;
            }
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload, "--seed", &cli.args.seed.to_string()])
                .args(["--seconds", &cli.args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--emit-run")
                .arg(&part);
            if cli.args.quick {
                child.arg("--quick");
            }
            let status = child
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let run = std::fs::read_to_string(&part)
                .map_err(|_| format!("{workload}: run failed ({status})"))?;
            let _ = std::fs::remove_file(&part);
            all_correct &= status.success();
            runs.push(run);
        }
    }
    let report = report_json(&Env::detect(), &cli.args, &runs);
    match &cli.out {
        Some(path) => {
            std::fs::write(path, report).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => print!("{report}"),
    }
    Ok(all_correct)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, all_ok) = compare(&load(a)?, &load(b)?, &contract()?)?;
    print!("{table}");
    println!("{}", if all_ok { "all ok" } else { "NOT all ok" });
    Ok(all_ok)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let outcome = if argv.peek().map(String::as_str) == Some("compare") {
        match argv.skip(1).collect::<Vec<_>>().as_slice() {
            [a, b] => compare_files(a, b),
            _ => Err(USAGE.to_string()),
        }
    } else {
        parse(argv).and_then(|cli| {
            if cli.setup_only {
                let took = setup_once(&cli.workload, &cli.args).map_err(|e| e.to_string())?;
                println!("{took}");
                Ok(true)
            } else if cli.workload == "all" {
                run_all(&cli)
            } else {
                run_one(&cli, &contract()?)
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}
