//! The three serving workloads — `nt-mirror`, `nt-disk`, `ro-mirror` —
//! and the slice arithmetic the failover load phases share.

use crate::client::{LaneResult, LoadPlan};
use crate::deploy::{contents, dir_bytes, Deployment, Durable, Recorders, CLIENTS};
use crate::probes;
use crate::report::{peak_rss_mb, Metric, RunArgs, RunOutput};
use crate::slices::{traced_over_untraced, Slices, SLICES};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::stream::SCHEMA;
use rodain_db::DurabilityTier;
use rodain_node::{recover_store_from_disk_with, MirrorExit, RecoveryOptions};
use rodain_store::{Store, Value};
use std::path::PathBuf;
use std::time::Instant;

/// What defines a serving workload.
#[derive(Clone, Copy, Debug)]
pub struct Serving {
    /// Workload name.
    pub name: &'static str,
    /// Share of `Provision` requests.
    pub write_fraction: f64,
    /// Mirrored pair (`true`) or single node with a contingency log.
    pub mirrored: bool,
    /// Tier every request asks for.
    pub tier: DurabilityTier,
}

/// The serving workloads by name.
#[must_use]
pub fn serving(name: &str) -> Option<Serving> {
    Some(match name {
        "nt-mirror" => Serving {
            name: "nt-mirror",
            write_fraction: 0.2,
            mirrored: true,
            tier: DurabilityTier::MirrorAcked,
        },
        "nt-disk" => Serving {
            name: "nt-disk",
            write_fraction: 0.2,
            mirrored: false,
            tier: DurabilityTier::DiskFsynced,
        },
        "ro-mirror" => Serving {
            name: "ro-mirror",
            write_fraction: 0.0,
            mirrored: true,
            tier: DurabilityTier::MirrorAcked,
        },
        _ => return None,
    })
}

/// Run `plans` on `clients`, one thread per lane, and wait for all.
pub fn drive(clients: Vec<crate::client::Client>, plans: Vec<LoadPlan>) -> Vec<LaneResult> {
    let threads: Vec<_> = clients
        .into_iter()
        .zip(plans)
        .map(|(client, plan)| std::thread::spawn(move || client.run(&plan)))
        .collect();
    threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect()
}

/// The lanes' slices folded into one.
#[must_use]
pub fn merged_slices(lanes: &[LaneResult], geometry: Slices) -> Slices {
    lanes.iter().fold(geometry, |mut all, lane| {
        all.merge(&lane.slices);
        all
    })
}

/// Acknowledged and possibly-applied `Provision`s per service number.
#[must_use]
pub fn write_ledger(lanes: &[LaneResult], before_ns: u64) -> (Vec<u64>, Vec<u64>) {
    let mut acked = vec![0u64; SCHEMA.objects as usize];
    let mut unknown = vec![0u64; SCHEMA.objects as usize];
    for lane in lanes {
        for &(number, done_ns) in &lane.acked_writes {
            if done_ns < before_ns {
                acked[number as usize] += 1;
            } else {
                unknown[number as usize] += 1;
            }
        }
        for &number in &lane.unknown_writes {
            unknown[number as usize] += 1;
        }
    }
    (acked, unknown)
}

/// The translation count of service number `n` in `store`.
#[must_use]
pub fn translation_count(store: &Store, n: u64) -> Option<i64> {
    match store.read(SCHEMA.object_id(n))?.0 {
        Value::Record(fields) => match fields.get(2) {
            Some(Value::Int(count)) => Some(*count),
            _ => None,
        },
        _ => None,
    }
}

/// Acknowledged `Provision`s that `store` does not show: per service
/// number, how far its count falls short of `acked` (an absent record
/// counts 0 — a replayed store holds only the numbers that were written).
#[must_use]
pub fn missing_acked(store: &Store, acked: &[u64]) -> u64 {
    (0..SCHEMA.objects)
        .map(|n| {
            let have = translation_count(store, n).unwrap_or(0);
            (acked[n as usize] as i64 - have).max(0) as u64
        })
        .sum()
}

/// No lost update: every service number's final count is its initial 0
/// plus the acknowledged `Provision`s, plus at most the unknown ones.
/// Describes the first few numbers that break this.
#[must_use]
pub fn lost_updates(store: &Store, acked: &[u64], unknown: &[u64]) -> Vec<String> {
    (0..SCHEMA.objects)
        .filter_map(|n| {
            let count = translation_count(store, n).unwrap_or(-1);
            let lo = acked[n as usize] as i64;
            let hi = lo + unknown[n as usize] as i64;
            (count < lo || count > hi)
                .then(|| format!("service number {n}: count {count}, acknowledged {lo}..={hi}"))
        })
        .take(3)
        .collect()
}

/// Deploy workload `w` once; returns the deployment, its log directory
/// (nt-disk) and how long the set-up took.
fn deploy(
    w: Serving,
    args: &RunArgs,
    recorders: &Recorders,
) -> std::io::Result<(Deployment, Option<PathBuf>, f64)> {
    let log_dir = (!w.mirrored).then(|| args.scratch(w.name)).transpose()?;
    let durable = match &log_dir {
        Some(dir) => Durable::Disk(dir.clone()),
        None => Durable::Mirror { spool: None },
    };
    let started = Instant::now();
    let dep = Deployment::start(&durable, recorders, CLIENTS)?;
    Ok((dep, log_dir, started.elapsed().as_secs_f64()))
}

/// Deploy workload `w`, take it down again, and say how long the set-up
/// took (`e2e --setup-only`).
pub fn setup_once(w: Serving, args: &RunArgs) -> std::io::Result<f64> {
    let (dep, log_dir, took) = deploy(w, args, &Recorders::default())?;
    dep.stop();
    if let Some(dir) = log_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(took)
}

/// Run one serving workload.
pub fn run(w: Serving, args: &RunArgs) -> std::io::Result<RunOutput> {
    let recorders = Recorders::default();
    let mut problems = Vec::new();
    let (mut dep, log_dir, first_setup_s) = deploy(w, args, &recorders)?;

    // Measure: warm-up, then SLICES slices; traced runs record spans in
    // the odd slices and compare them with the even ones.
    let epoch = Instant::now();
    let start_ns = (args.warmup() * 1e9) as u64;
    let measured = (start_ns, start_ns + (args.seconds * 1e9) as u64, SLICES);
    let geometry = Slices::new(measured.0, measured.1, SLICES);
    let trace_windows: Vec<(u64, u64)> = (0..SLICES)
        .filter(|i| args.trace && i % 2 == 1)
        .map(|i| geometry.bounds(i))
        .collect();
    let plans = (0..CLIENTS as u64)
        .map(|lane| LoadPlan {
            seed: args.seed,
            lane,
            write_fraction: w.write_fraction,
            tier: w.tier,
            epoch,
            measured,
            trace_windows: trace_windows.clone(),
        })
        .collect();
    let lanes = drive(std::mem::take(&mut dep.clients), plans);
    // Read before the checks below copy stores around.
    let peak_rss = peak_rss_mb();

    let stats = merged_slices(&lanes, geometry).stats();
    let attempted: u64 = lanes.iter().map(|l| l.sent).sum();
    let failed: u64 = lanes
        .iter()
        .map(|l| l.not_ok_at.len() as u64 + l.unanswered)
        .sum();
    let stray: u64 = lanes.iter().map(|l| l.stray_replies).sum();
    if stray > 0 {
        problems.push(format!("{stray} replies matched no outstanding request"));
    }

    let scrape = if args.trace {
        Some(dep.scrape()?)
    } else {
        None
    };
    let stopped = dep.stop();

    // Correctness: no lost update; replica equality; durable on disk.
    let (acked, unknown) = write_ledger(&lanes, u64::MAX);
    let lost = missing_acked(&stopped.primary, &acked);
    problems.extend(lost_updates(&stopped.primary, &acked, &unknown));
    if let Some((mirror_store, exit)) = &stopped.mirror {
        if *exit != MirrorExit::PrimaryFailed {
            problems.push(format!("mirror loop ended with {exit:?}"));
        }
        if contents(mirror_store) != contents(&stopped.primary) {
            problems.push("mirror store differs from the primary store after quiesce".into());
        }
    }
    drop(stopped);
    let mut log_bytes_per_commit = 0.0;
    if let Some(dir) = &log_dir {
        log_bytes_per_commit = dir_bytes(dir) as f64 / acked.iter().sum::<u64>().max(1) as f64;
        let recovered = recover_store_from_disk_with(dir, &RecoveryOptions::default())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let disk_lost = missing_acked(&recovered.store, &acked);
        if disk_lost > 0 {
            problems.push(format!(
                "{disk_lost} acknowledged writes missing from the disk log"
            ));
        }
    }

    if let Some(dir) = &log_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut setup_s = vec![first_setup_s];
    setup_s.extend(args.more_setups(w.name)?);

    let mut metrics = vec![
        Metric::of("setup_s", "s", &setup_s),
        Metric::of("tput_tps", "1/s", &stats.tput),
        Metric::of("read_p50_us", "us", &stats.read_p50),
        // A workload without writes repeats its read median (README).
        Metric::of(
            "write_p50_us",
            "us",
            if stats.write_p50.is_empty() {
                &stats.read_p50
            } else {
                &stats.write_p50
            },
        ),
        Metric::of("lat_p99_us", "us", &stats.p99),
        Metric::single("peak_rss_mb", "MiB", peak_rss),
        Metric::single(
            "fail_ratio",
            "ratio",
            failed as f64 / attempted.max(1) as f64,
        ),
        Metric::single("lost_acked", "count", lost as f64),
    ];

    let mut spans = SpanLog::new();
    if let Some(scrape) = scrape {
        for lane in lanes {
            spans.merge(lane.spans);
        }
        metrics.push(Metric::single(
            "bench.trace_overhead_ratio",
            "ratio",
            traced_over_untraced(&stats.tput),
        ));
        metrics.push(Metric::single(
            "log.bytes_per_commit",
            "B",
            log_bytes_per_commit,
        ));
        metrics.extend(probes::scraped(&scrape));
        let layers = probes::layers(args, w.write_fraction, &mut spans)?;
        // The same stream without sockets or event loop, at this tier.
        let peel = format!("db.{}_us_per_op", w.tier.label());
        let peel_us = layers
            .iter()
            .find(|m| m.name == peel)
            .map_or(0.0, |m| m.sampled.value);
        metrics.push(Metric::single(
            "server.overhead_us_per_req",
            "us",
            1e6 / median(&stats.tput) - peel_us,
        ));
        metrics.extend(layers);
        spans.write_jsonl(&args.work_dir.join(format!("spans-{}.jsonl", w.name)))?;
    }

    Ok(RunOutput {
        workload: w.name,
        traced: args.trace,
        attempted,
        failed,
        metrics,
        problems,
        spans: spans.summary(),
    })
}
