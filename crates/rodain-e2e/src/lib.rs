//! # rodain-e2e — the absolute end-to-end benchmark
//!
//! Drives the real thing the way a user would — TCP client → event-driven
//! front-end → EDF scheduler → OCC-DATI → redo ship over a loopback
//! `TcpTransport` → `MirrorNode` ack → reply frame — on the paper's
//! number-translation database, and reports absolute numbers: five
//! workloads, the end-to-end metrics a user sees, and a per-layer budget
//! measured from outside (probes, peels and registry scrapes). Metric
//! names, units and regression bounds live in the repository's
//! `BENCHMARK.json`; the crate's `README.md` says why each workload
//! exists and which end-to-end metric each layer metric should move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod compare;
pub mod deploy;
pub mod failover;
pub mod json;
pub mod probes;
pub mod report;
pub mod scrape;
pub mod serving;
pub mod shardxfer;
pub mod slices;
pub mod spans;
pub mod stats;
pub mod stream;

use report::{RunArgs, RunOutput};

/// Run workload `name` once.
pub fn run_workload(name: &str, args: &RunArgs) -> std::io::Result<RunOutput> {
    std::fs::create_dir_all(&args.work_dir)?;
    match name {
        "failover" => failover::run(args),
        "shard-xfer" => shardxfer::run(args),
        _ => match serving::serving(name) {
            Some(workload) => serving::run(workload, args),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown workload {name}"),
            )),
        },
    }
}

/// Set workload `name` up once, take it down, and return the set-up time in
/// seconds — what `e2e --setup-only` prints from a fresh process.
pub fn setup_once(name: &str, args: &RunArgs) -> std::io::Result<f64> {
    std::fs::create_dir_all(&args.work_dir)?;
    match (name, serving::serving(name)) {
        ("shard-xfer", _) => shardxfer::setup_once().map(|(_, took)| took),
        (_, Some(workload)) => serving::setup_once(workload, args),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{name} has no stand-alone set-up"),
        )),
    }
}
