//! The `shard-xfer` workload: blocking account transfers on an in-process
//! two-shard cluster, half of them across shards through two-phase commit.

use crate::probes;
use crate::report::{peak_rss_mb, Metric, RunArgs, RunOutput};
use crate::scrape::Scrape;
use crate::slices::{traced_over_untraced, Slices, SLICES};
use crate::spans::SpanLog;
use crate::stream::{OpStream, SCHEMA, WRITE_DEADLINE_MS};
use rodain_db::TxnOptions;
use rodain_shard::{ShardOp, ShardedRodain};
use rodain_store::{ObjectId, Value};
use std::sync::Arc;
use std::time::Instant;

/// Driver threads, each one blocking transfer at a time.
const DRIVERS: u64 = 2;
/// Opening balance of every account.
const BALANCE: i64 = 1_000;

fn build_cluster() -> std::io::Result<ShardedRodain> {
    let cluster = ShardedRodain::builder().shards(2).build()?;
    for n in 0..SCHEMA.objects {
        cluster.load_initial(ObjectId(n), Value::Int(BALANCE));
    }
    Ok(cluster)
}

struct Driven {
    /// The cross-shard transfer is the "write", the local one the "read".
    slices: Slices,
    /// Transfers failed; transfers made and their summed latency (ns) per
    /// kind `[local, cross]`. Warm-up included.
    failed: u64,
    count: [u64; 2],
    lat_sum_ns: [u64; 2],
    spans: SpanLog,
}

fn drive(
    cluster: &ShardedRodain,
    seed: u64,
    lane: u64,
    epoch: Instant,
    geometry: Slices,
    windows: &[(u64, u64)],
) -> Driven {
    let now = || epoch.elapsed().as_nanos() as u64;
    let end_ns = geometry.bounds(SLICES - 1).1;
    // Two distinct uniform accounts per transfer: with two shards about
    // half the pairs straddle them.
    let mut stream = OpStream::new(seed, lane, 1.0, 2);
    let mut out = Driven {
        slices: geometry,
        failed: 0,
        count: [0; 2],
        lat_sum_ns: [0; 2],
        spans: SpanLog::new(),
    };
    let opts = TxnOptions::firm_ms(WRITE_DEADLINE_MS);
    for id in 0u64.. {
        let t0 = now();
        if t0 >= end_ns {
            break;
        }
        let txn = stream.next_txn();
        let (from, to) = (ObjectId(txn.objects[0]), ObjectId(txn.objects[1]));
        let cross = cluster.shard_of(from) != cluster.shard_of(to);
        let ok = if cross {
            let ops = vec![
                ShardOp::Add {
                    oid: from,
                    delta: -1,
                },
                ShardOp::Add { oid: to, delta: 1 },
            ];
            cluster.execute_cross(opts, ops).is_ok()
        } else {
            cluster
                .execute_on(from, opts, move |ctx| {
                    for (oid, delta) in [(from, -1), (to, 1)] {
                        let balance = ctx.read(oid)?.and_then(|v| v.as_int()).unwrap_or(0);
                        ctx.write(oid, Value::Int(balance + delta))?;
                    }
                    Ok(None)
                })
                .is_ok()
        };
        let t1 = now();
        out.failed += u64::from(!ok);
        out.count[usize::from(cross)] += 1;
        out.lat_sum_ns[usize::from(cross)] += t1 - t0;
        out.slices.record(t1, t1 - t0, cross, ok);
        if windows.iter().any(|w| w.0 <= t0 && t0 < w.1) {
            let call = if cross {
                "shard.execute_cross"
            } else {
                "shard.execute_on"
            };
            out.spans
                .push_chain("transfer", &[call], &[t0, t1], id << 8 | lane);
        }
    }
    out
}

/// Build the cluster once and say how long it took (`e2e --setup-only`).
pub fn setup_once() -> std::io::Result<(ShardedRodain, f64)> {
    let started = Instant::now();
    let cluster = build_cluster()?;
    Ok((cluster, started.elapsed().as_secs_f64()))
}

/// Run the shard-xfer workload.
pub fn run(args: &RunArgs) -> std::io::Result<RunOutput> {
    let (cluster, first_setup_s) = setup_once()?;
    let cluster = Arc::new(cluster);
    let mut setup_s = vec![first_setup_s];

    let epoch = Instant::now();
    let start_ns = (args.warmup() * 1e9) as u64;
    let geometry = Slices::new(start_ns, start_ns + (args.seconds * 1e9) as u64, SLICES);
    let windows: Vec<(u64, u64)> = (0..SLICES)
        .filter(|i| args.trace && i % 2 == 1)
        .map(|i| geometry.bounds(i))
        .collect();
    let drivers: Vec<_> = (0..DRIVERS)
        .map(|lane| {
            let (cluster, geometry, windows, seed) = (
                Arc::clone(&cluster),
                geometry.clone(),
                windows.clone(),
                args.seed,
            );
            std::thread::spawn(move || drive(&cluster, seed, lane, epoch, geometry, &windows))
        })
        .collect();
    let driven: Vec<Driven> = drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .collect();
    let peak_rss = peak_rss_mb();
    let mut slices = geometry;
    let mut spans = SpanLog::new();
    let (mut failed, mut count, mut lat_sum_ns) = (0, [0u64; 2], [0u64; 2]);
    for d in driven {
        slices.merge(&d.slices);
        spans.merge(d.spans);
        failed += d.failed;
        for kind in 0..2 {
            count[kind] += d.count[kind];
            lat_sum_ns[kind] += d.lat_sum_ns[kind];
        }
    }
    let attempted = count[0] + count[1];

    // Conservation: transfers move money, they never make or lose any.
    let mut problems = Vec::new();
    let opened = BALANCE * SCHEMA.objects as i64;
    let total: i64 = (0..SCHEMA.objects)
        .map(|n| {
            cluster
                .get(ObjectId(n))
                .and_then(|v| v.as_int())
                .unwrap_or(0)
        })
        .sum();
    if total != opened {
        problems.push(format!("account total {total}, opened with {opened}"));
    }

    let registry = cluster.metrics().render_text();
    drop(cluster);
    setup_s.extend(args.more_setups("shard-xfer")?);

    let stats = slices.stats();
    let mut metrics = vec![
        Metric::of("setup_s", "s", &setup_s),
        Metric::of("tput_tps", "1/s", &stats.tput),
        // The same-shard transfer (no 2PC), then the cross-shard one (README).
        Metric::of("read_p50_us", "us", &stats.read_p50),
        Metric::of("write_p50_us", "us", &stats.write_p50),
        Metric::of("lat_p99_us", "us", &stats.p99),
        Metric::single("peak_rss_mb", "MiB", peak_rss),
        Metric::single(
            "fail_ratio",
            "ratio",
            failed as f64 / attempted.max(1) as f64,
        ),
        Metric::single("lost_acked", "count", (opened - total).abs() as f64),
    ];
    if args.trace {
        let mean_us = |kind: usize| lat_sum_ns[kind] as f64 / 1e3 / count[kind].max(1) as f64;
        metrics.push(Metric::single("shard.local_us_per_op", "us", mean_us(0)));
        metrics.push(Metric::single("shard.cross_us_per_op", "us", mean_us(1)));
        metrics.push(Metric::single(
            "bench.trace_overhead_ratio",
            "ratio",
            traced_over_untraced(&stats.tput),
        ));
        metrics.extend(probes::scraped(&Scrape::parse(&registry)));
        metrics.extend(probes::layers(args, 0.2, &mut spans)?);
        spans.write_jsonl(&args.work_dir.join("spans-shard-xfer.jsonl"))?;
    }

    Ok(RunOutput {
        workload: "shard-xfer",
        traced: args.trace,
        attempted,
        failed,
        metrics,
        problems,
        spans: spans.summary(),
    })
}
