//! The `failover` workload: hot takeover cycles of a mirrored pair under
//! load, then cold replays of a fixed seeded redo log.

use crate::client::{Client, LoadPlan};
use crate::deploy::{contents, serve, Deployment, Durable, Recorders, CLIENTS};
use crate::probes::{self, redo_stream};
use crate::report::{peak_rss_mb, Metric, RunArgs, RunOutput};
use crate::scrape::Scrape;
use crate::serving::{drive, merged_slices, missing_acked, write_ledger};
use crate::slices::Slices;
use crate::spans::{Span, SpanLog, FILE_SAMPLE};
use crate::stats::median;
use crate::stream::READ_DEADLINE_MS;
use rodain_db::{DurabilityTier, Rodain};
use rodain_log::{LogStorage, LogStorageConfig};
use rodain_node::{recover_store_from_disk_with, MirrorExit, RecoveryOptions};
use rodain_obs::Recorder;
use rodain_server::{Outcome, RequestOp};
use rodain_store::Store;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Commits in the cold-replay log.
const COLD_COMMITS: u64 = 500_000;
/// Most cold replays per run.
const COLD_REPLAYS: usize = 10;
/// Share of `--seconds` spent in takeover cycles; the rest replays.
const HOT_SHARE: f64 = 0.6;
/// Closed-loop `Provision` load before each sever.
const LOAD: Duration = Duration::from_millis(250);
/// Longest a cycle waits for the severed primary to shut down.
const TEARDOWN_WAIT: Duration = Duration::from_secs(2);

#[derive(Default)]
struct Cycles {
    setup_s: Vec<f64>,
    takeover_ms: Vec<f64>,
    detect_ms: Vec<f64>,
    promote_ms: Vec<f64>,
    /// Load-phase figures, one entry per cycle.
    write_p50: Vec<f64>,
    p99: Vec<f64>,
    traced_tput: Vec<f64>,
    untraced_tput: Vec<f64>,
    attempted: u64,
    failed: u64,
    lost_acked: u64,
    problems: Vec<String>,
}

/// One cycle: pair up, load, sever, promote, first reply.
fn cycle(
    n: u64,
    epoch: Instant,
    args: &RunArgs,
    recorders: &Recorders,
    out: &mut Cycles,
    spans: &mut SpanLog,
) -> std::io::Result<()> {
    let spool = args.scratch("failover-spool")?;
    let promoted_log = args.scratch("failover-promoted")?;
    let traced = args.trace && n % 2 == 1;
    let load = if args.quick {
        Duration::from_millis(60)
    } else {
        LOAD
    };

    let started = Instant::now();
    let mut dep = Deployment::start(
        &Durable::Mirror {
            spool: Some(spool.clone()),
        },
        recorders,
        CLIENTS,
    )?;
    out.setup_s.push(started.elapsed().as_secs_f64());

    let now = || epoch.elapsed().as_nanos() as u64;
    let load_start = now();
    let end_ns = load_start + load.as_nanos() as u64;
    // Skip the first fifth: fresh engine, fresh connections.
    let measured = (load_start + (end_ns - load_start) / 5, end_ns, 1);
    let plans: Vec<LoadPlan> = (0..CLIENTS as u64)
        .map(|lane| LoadPlan {
            seed: args.seed,
            lane: n * CLIENTS as u64 + lane,
            write_fraction: 1.0,
            tier: DurabilityTier::MirrorAcked,
            epoch,
            measured,
            trace_windows: if traced {
                vec![(load_start, end_ns)]
            } else {
                Vec::new()
            },
        })
        .collect();
    let clients = std::mem::take(&mut dep.clients);
    let lanes_thread = std::thread::spawn(move || drive(clients, plans));

    // The failure: the link is cut while the clients are still sending.
    std::thread::sleep(Duration::from_nanos(end_ns.saturating_sub(now())));
    let mirror = dep.mirror.take().expect("mirrored deployment");
    let severed = now();
    mirror.link.close();
    let exit = mirror.thread.join().expect("mirror thread");
    let detected = now();
    let promoted = Arc::new(
        Rodain::builder()
            .store(Arc::clone(&mirror.store))
            .contingency_log(&promoted_log)
            .build()?,
    );
    let server = serve(Arc::clone(&promoted))?;
    let serving = now();
    let first = Client::connect(server.addr())?.call(
        1,
        READ_DEADLINE_MS as u32,
        RequestOp::Translate { number: n },
    )?;
    let answered = now();

    out.takeover_ms.push((answered - severed) as f64 / 1e6);
    out.detect_ms.push((detected - severed) as f64 / 1e6);
    out.promote_ms.push((answered - detected) as f64 / 1e6);
    if traced {
        // A sequence number the span file's one-in-FILE_SAMPLE sampling keeps.
        let req = (n * FILE_SAMPLE) << 8;
        let root = spans.push(Span {
            name: "takeover",
            start_ns: severed,
            end_ns: answered,
            parent: None,
            req,
        });
        for (name, start_ns, end_ns) in [
            ("node.detect", severed, detected),
            ("node.promote", detected, serving),
            ("first_reply", serving, answered),
        ] {
            spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(root),
                req,
            });
        }
    }
    if exit != MirrorExit::PrimaryFailed {
        out.problems
            .push(format!("cycle {n}: mirror loop ended with {exit:?}"));
    }
    if !matches!(first, Outcome::Ok(_)) {
        out.problems
            .push(format!("cycle {n}: first Translate answered {first:?}"));
    }

    // The crashed node's sockets close; the lanes see EOF and finish.
    let Deployment {
        db: old_primary,
        server: old_server,
        ..
    } = dep;
    old_server.shutdown();
    let lanes = lanes_thread.join().expect("load lanes");

    // The ledger: Provisions acknowledged before the link was cut must be
    // visible on the promoted node.
    let (acked, _) = write_ledger(&lanes, severed);
    out.lost_acked += missing_acked(&mirror.store, &acked);
    // Every reply counts as attempted, but only the healthy pair's and the
    // promoted node's first can fail the workload. What the severed
    // primary still answers after the cut is a crashed node's business:
    // whether it gets a reply out, and which, depends on where the cut
    // caught it.
    let first_failed = u64::from(!matches!(first, Outcome::Ok(_)));
    out.attempted += lanes.iter().map(|l| l.answered).sum::<u64>() + 1;
    out.failed += lanes
        .iter()
        .flat_map(|l| &l.not_ok_at)
        .filter(|&&done_ns| done_ns < severed)
        .count() as u64
        + first_failed;
    let stats = merged_slices(&lanes, Slices::new(measured.0, measured.1, 1)).stats();
    out.write_p50.extend(&stats.write_p50);
    out.p99.extend(&stats.p99);
    if traced {
        &mut out.traced_tput
    } else {
        &mut out.untraced_tput
    }
    .extend(&stats.tput);
    for lane in lanes {
        spans.merge(lane.spans);
    }

    server.shutdown();
    drop(promoted);
    // A link cut under load can leave commit tickets of the old primary
    // orphaned (its shipper registers them after the ack thread has
    // already drained the pending map); each then holds the engine's
    // shutdown for two commit-gate timeouts. The crashed node owes the
    // benchmark nothing, so such a shutdown is left behind, not awaited.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let teardown = std::thread::spawn(move || {
        drop(old_primary);
        let _ = done_tx.send(());
    });
    if done_rx.recv_timeout(TEARDOWN_WAIT).is_ok() {
        teardown.join().expect("teardown thread");
    } else {
        eprintln!("failover: cycle {n}: the severed primary did not shut down within {TEARDOWN_WAIT:?}; left behind");
    }
    let _ = std::fs::remove_dir_all(&spool);
    let _ = std::fs::remove_dir_all(&promoted_log);
    Ok(())
}

/// Write the fixed cold log straight through `LogStorage`; returns the
/// store the log was generated from.
fn write_cold_log(dir: &std::path::Path, seed: u64, commits: u64) -> std::io::Result<Store> {
    let expected = Store::new();
    let mut storage = LogStorage::open(LogStorageConfig {
        fsync: false,
        ..LogStorageConfig::new(dir)
    })?;
    for records in redo_stream(seed, commits) {
        storage.append_batch(&records)?;
        if let rodain_log::RecordKind::Write { oid, image } = &records[0].kind {
            expected.install(*oid, image.clone(), rodain_store::Ts(records[0].txn.0 * 10));
        }
    }
    storage.flush()?;
    Ok(expected)
}

/// Run the failover workload.
pub fn run(args: &RunArgs) -> std::io::Result<RunOutput> {
    let recorders = Recorders {
        engine: Some(Recorder::new()),
        mirror: Recorder::new(),
    };
    let mut cycles = Cycles::default();
    let mut spans = SpanLog::new();
    let epoch = Instant::now();
    let hot_for = args.seconds * HOT_SHARE;
    let mut n = 0;
    while n < 2 || (epoch.elapsed().as_secs_f64() < hot_for && !args.quick) {
        cycle(n, epoch, args, &recorders, &mut cycles, &mut spans)?;
        n += 1;
    }

    // Cold phase.
    let cold_dir = args.scratch("failover-cold")?;
    let commits = if args.quick { 5_000 } else { COLD_COMMITS };
    let expected = write_cold_log(&cold_dir, args.seed, commits)?;
    let mut recover_s = Vec::new();
    let mut recovered = None;
    let cold_started = Instant::now();
    while recover_s.len() < 2
        || (cold_started.elapsed().as_secs_f64() < args.seconds * (1.0 - HOT_SHARE)
            && recover_s.len() < COLD_REPLAYS
            && !args.quick)
    {
        let started = Instant::now();
        let cold = recover_store_from_disk_with(&cold_dir, &RecoveryOptions::default())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        recover_s.push(started.elapsed().as_secs_f64());
        if cold.stats.committed != commits {
            cycles.problems.push(format!(
                "cold replay saw {} of {commits} commits",
                cold.stats.committed
            ));
        }
        recovered = Some(cold.store);
    }
    if contents(&recovered.expect("at least one replay")) != contents(&expected) {
        cycles
            .problems
            .push("cold-replayed store differs from the store the log was generated from".into());
    }
    let _ = std::fs::remove_dir_all(&cold_dir);
    if cycles.lost_acked > 0 {
        cycles.problems.push(format!(
            "{} acknowledged Provisions lost in takeover",
            cycles.lost_acked
        ));
    }

    let replay_rate: Vec<f64> = recover_s.iter().map(|s| commits as f64 / s).collect();
    let takeover_us: Vec<f64> = cycles.takeover_ms.iter().map(|ms| ms * 1e3).collect();
    let mut metrics = vec![
        Metric::of("setup_s", "s", &cycles.setup_s),
        // README "What each end-to-end metric means on each workload".
        Metric::of("tput_tps", "1/s", &replay_rate),
        Metric::of("read_p50_us", "us", &takeover_us),
        Metric::of("write_p50_us", "us", &cycles.write_p50),
        Metric::of("lat_p99_us", "us", &cycles.p99),
        Metric::single("peak_rss_mb", "MiB", peak_rss_mb()),
        Metric::of("takeover_ms", "ms", &cycles.takeover_ms),
        Metric::of("recover_s", "s", &recover_s),
        Metric::single("lost_acked", "count", cycles.lost_acked as f64),
        Metric::single(
            "fail_ratio",
            "ratio",
            cycles.failed as f64 / cycles.attempted.max(1) as f64,
        ),
        Metric::of("node.detect_ms", "ms", &cycles.detect_ms),
        Metric::of("node.promote_ms", "ms", &cycles.promote_ms),
        Metric::of("node.recover_commits_per_s", "1/s", &replay_rate),
    ];
    if args.trace {
        let mut scrape = Scrape::parse(
            &recorders
                .engine
                .as_ref()
                .expect("shared engine recorder")
                .snapshot()
                .render_text(),
        );
        scrape.merge(Scrape::parse(&recorders.mirror.snapshot().render_text()));
        metrics.extend(probes::scraped(&scrape));
        metrics.push(Metric::single(
            "bench.trace_overhead_ratio",
            "ratio",
            median(&cycles.traced_tput) / median(&cycles.untraced_tput),
        ));
        metrics.extend(probes::layers(args, 1.0, &mut spans)?);
        spans.write_jsonl(&args.work_dir.join("spans-failover.jsonl"))?;
    }

    Ok(RunOutput {
        workload: "failover",
        traced: args.trace,
        attempted: cycles.attempted,
        failed: cycles.failed,
        metrics,
        problems: cycles.problems,
        spans: spans.summary(),
    })
}
