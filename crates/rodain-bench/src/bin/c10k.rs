//! C10K: the event-driven front-end under pipelined connection storms,
//! 64 → 4096 connections (64 → 1024 with `--quick`).
//!
//! Writes `BENCH_C10K.json` into the output directory and exits non-zero
//! when the front-end regresses: committed throughput at the largest
//! measured point with ≥ 1024 connections must hold ≥ 0.8× the
//! 64-connection figure, with no dead connection at that point. On fewer
//! than two cores the gate reports itself skipped (client and server
//! share the CPU, so the ratio would measure the scheduler).
//!
//! `cargo run -p rodain-bench --release --bin c10k [-- --quick]`

#[cfg(unix)]
fn main() {
    use rodain_bench::experiments::SweepOptions;
    use rodain_bench::frontend::{c10k, RETENTION_FLOOR};
    use rodain_bench::report::out_dir;

    let report = c10k(SweepOptions::from_args());
    report.table().print();

    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create output directory");
    let path = dir.join("BENCH_C10K.json");
    std::fs::write(&path, report.to_json()).expect("write BENCH_C10K.json");
    println!("json: {path:?}");

    let Some(retention) = report.retention() else {
        println!("C10K gate skipped: <2 cores");
        return;
    };
    let dead = report.dead_conns();
    println!(
        "committed throughput at the gate point / at the smallest point: {retention:.2}x \
         ({dead} dead connections)"
    );
    if retention < RETENTION_FLOOR || dead > 0 {
        eprintln!(
            "C10K regression: need >= {RETENTION_FLOOR}x with 0 dead connections \
             (got {retention:.2}x, {dead} dead)"
        );
        std::process::exit(1);
    }
}

#[cfg(not(unix))]
fn main() {
    println!("C10K needs the unix readiness poller; skipping.");
}
