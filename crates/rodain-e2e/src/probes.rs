//! The outside-in per-layer budget: fixed-count timed loops around each
//! layer's public calls (*probes*), the same seeded stream replayed
//! in-process against `Rodain::submit` (*peels*), and the registry series
//! read after the traced run (*scrapes*). README "Per-layer metrics" says
//! which end-to-end metric each one should move.

use crate::client::WINDOW;
use crate::deploy::{Deployment, Durable, Recorders, CLIENTS};
use crate::report::{Metric, RunArgs};
use crate::scrape::Scrape;
use crate::spans::SpanLog;
use crate::stream::{wire_request, OpStream, SCHEMA};
use bytes::BytesMut;
use rodain_db::{CommitFuture, DurabilityTier, Rodain, TxnError, TxnOptions, TxnReceipt};
use rodain_log::{
    encode_record_into, LogRecord, Lsn, PartitionedApplier, RecordKind, ReorderBuffer,
};
use rodain_net::{Bytes, TcpTransport, Transport};
use rodain_obs::Histogram;
use rodain_occ::{make_controller, CcPriority, Csn, Protocol};
use rodain_sched::{ReadyQueue, ReservationConfig, TaskMeta};
use rodain_server::{Outcome, Request, RequestOp, Response};
use rodain_store::{ObjectId, Store, Ts, TxnId, Value, Workspace};
use std::collections::VecDeque;
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry series → per-layer metrics (all cumulative since the engine
/// started, warm-up included).
#[must_use]
pub fn scraped(s: &Scrape) -> Vec<Metric> {
    let us = |ns: f64| ns / 1e3;
    let validations =
        s.total("occ_validation_commit_total") + s.total("occ_validation_restart_total");
    vec![
        Metric::single(
            "server.read_to_dispatch_mean_us",
            "us",
            us(s.dist("server_read_to_dispatch_ns").mean()),
        ),
        Metric::single(
            "server.loop_tick_mean_us",
            "us",
            us(s.dist("server_event_loop_tick_ns").mean()),
        ),
        Metric::single(
            "server.backpressure_pauses",
            "count",
            s.total("server_backpressure_pauses_total") as f64,
        ),
        Metric::single(
            "server.overload_rejects",
            "count",
            s.total("server_overload_rejects_total") as f64,
        ),
        Metric::single(
            "sched.deadline_misses",
            "count",
            s.total("txn_aborted_deadline_total") as f64,
        ),
        Metric::single(
            "sched.admission_rejects",
            "count",
            (s.total("txn_aborted_admission_total") + s.total("txn_aborted_evicted_total")) as f64,
        ),
        Metric::single(
            "occ.restart_ratio",
            "ratio",
            s.total("occ_validation_restart_total") as f64 / validations.max(1) as f64,
        ),
        Metric::single(
            "db.commit_wait_mean_us",
            "us",
            us(s.dist("engine_commit_wait_ns").mean()),
        ),
        Metric::single(
            "db.commit_wait_p99_us",
            "us",
            us(s.dist("engine_commit_wait_ns").p99 as f64),
        ),
        Metric::single(
            "db.response_mean_us",
            "us",
            us(s.dist("engine_response_ns").mean()),
        ),
        Metric::single(
            "db.ship_rtt_mean_us",
            "us",
            us(s.dist("mirror_ship_rtt_ns").mean()),
        ),
        Metric::single(
            "db.ship_batch_records_mean",
            "count",
            s.dist("ship_batch_records").mean(),
        ),
        Metric::single(
            "db.ship_bytes_per_commit",
            "B",
            s.dist("ship_batch_bytes").sum as f64 / s.total("mirror_acks_total").max(1) as f64,
        ),
        Metric::single(
            "db.gate_timeouts",
            "count",
            s.total("engine_gate_timeouts_total") as f64,
        ),
        Metric::single("log.flush_mean_us", "us", us(s.dist("log_flush_ns").mean())),
        Metric::single(
            "log.batch_records_mean",
            "count",
            s.dist("log_batch_records").mean(),
        ),
        Metric::single(
            "node.apply_lag_mean_us",
            "us",
            us(s.dist("mirror_apply_lag_ns").mean()),
        ),
        Metric::single(
            "node.takeover_flush_ms",
            "ms",
            s.dist("mirror_takeover_flush_ns").mean() / 1e6,
        ),
    ]
}

/// Run every probe, and the peel at each tier on the stream of lane mix
/// `write_fraction`. Peel spans go to `spans`.
pub fn layers(
    args: &RunArgs,
    write_fraction: f64,
    spans: &mut SpanLog,
) -> std::io::Result<Vec<Metric>> {
    let scale = if args.quick { 100 } else { 1 };
    let peel_for = Duration::from_secs_f64(if args.quick { 0.03 } else { 0.5 });
    let disk_dir = args.scratch("peel")?;
    let mut peel_at =
        |durable, tier| peel(&durable, tier, args.seed, write_fraction, peel_for, spans);
    let volatile_us = peel_at(Durable::Volatile, DurabilityTier::Volatile)?;
    let mirror_acked_us = peel_at(Durable::Mirror { spool: None }, DurabilityTier::MirrorAcked)?;
    let disk_fsynced_us = peel_at(Durable::Disk(disk_dir.clone()), DurabilityTier::DiskFsynced)?;
    let _ = std::fs::remove_dir_all(&disk_dir);

    let store = Arc::new(Store::new());
    SCHEMA.populate(&store);
    let (occ_read, occ_write) = occ_txn_ns(&store, args.seed, 200_000 / scale);
    let (store_read, store_install) = store_ns(&store, args.seed, 1_000_000 / scale);
    let (rtt_us, frames_per_s) = tcp_probe(3_000 / scale, 100_000 / scale)?;
    Ok(vec![
        Metric::single("db.volatile_us_per_op", "us", volatile_us),
        Metric::single("db.mirror_acked_us_per_op", "us", mirror_acked_us),
        Metric::single("db.disk_fsynced_us_per_op", "us", disk_fsynced_us),
        Metric::single(
            "server.codec_ns_per_req",
            "ns",
            codec_ns(args.seed, write_fraction, 100_000 / scale),
        ),
        Metric::single(
            "sched.queue_ns_per_op",
            "ns",
            ready_queue_ns(500_000 / scale),
        ),
        Metric::single("occ.read_txn_ns", "ns", occ_read),
        Metric::single("occ.write_txn_ns", "ns", occ_write),
        Metric::single("store.read_ns", "ns", store_read),
        Metric::single("store.install_ns", "ns", store_install),
        Metric::single(
            "log.encode_ns_per_record",
            "ns",
            log_encode_ns(args.seed, 300_000 / scale),
        ),
        Metric::single(
            "log.apply_commits_per_s",
            "1/s",
            log_apply_per_s(args.seed, 100_000 / scale),
        ),
        Metric::single("net.tcp_rtt_us", "us", rtt_us),
        Metric::single("net.tcp_frames_per_s", "1/s", frames_per_s),
        Metric::single(
            "obs.hist_record_ns",
            "ns",
            hist_record_ns(2_000_000 / scale),
        ),
    ])
}

fn per_op_ns(started: Instant, ops: u64) -> f64 {
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// The transaction bodies the front-end runs for the two service
/// operations (its own are crate-private), submitted straight to the
/// engine.
fn submit_op(db: &Rodain, request: Request) -> CommitFuture {
    let opts = TxnOptions::firm_ms(u64::from(request.deadline_ms)).with_durability(request.tier);
    match request.op {
        RequestOp::Provision { number, address } => {
            let oid = SCHEMA.object_id(number);
            db.submit(opts, move |ctx| {
                let Some(record) = ctx.read(oid)? else {
                    return Ok(None);
                };
                let (flags, count) = match record.as_record() {
                    Some([_, Value::Int(flags), Value::Int(count)]) => (*flags, *count),
                    _ => (0, 0),
                };
                let updated = vec![
                    Value::Text(address.clone()),
                    Value::Int(flags),
                    Value::Int(count + 1),
                ];
                ctx.write(oid, Value::Record(updated))?;
                Ok(Some(Value::Int(count + 1)))
            })
        }
        RequestOp::Translate { number } => {
            let oid = SCHEMA.object_id(number);
            db.submit(opts, move |ctx| {
                let record = ctx.read(oid)?;
                Ok(record.map(|r| r.as_record().map_or(Value::Null, |f| f[0].clone())))
            })
        }
        _ => unreachable!("the stream holds only Translate and Provision"),
    }
}

fn wire_outcome(result: Result<TxnReceipt, TxnError>) -> Outcome {
    match result {
        Ok(TxnReceipt {
            result: Some(value),
            ..
        }) => Outcome::Ok(value),
        Ok(_) => Outcome::NotFound,
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// Peel: the workload's stream through `server.decode` → `db.submit` →
/// `server.encode` in-process, [`CLIENTS`] lanes × [`WINDOW`] in flight,
/// no sockets and no event loop. Returns wall µs per completed operation
/// over the last 80 % of `run_for`.
fn peel(
    durable: &Durable,
    tier: DurabilityTier,
    seed: u64,
    write_fraction: f64,
    run_for: Duration,
    spans: &mut SpanLog,
) -> std::io::Result<f64> {
    let dep = Deployment::start(durable, &Recorders::default(), 0)?;
    let epoch = Instant::now();
    let count_from = run_for.as_nanos() as u64 / 5;
    let end_ns = run_for.as_nanos() as u64;
    let lanes: Vec<_> = (0..CLIENTS as u64)
        .map(|lane| {
            let db = Arc::clone(&dep.db);
            std::thread::spawn(move || {
                let now = || epoch.elapsed().as_nanos() as u64;
                let mut stream = OpStream::new(seed, lane, write_fraction, 1);
                let mut spans = SpanLog::new();
                let mut queue: VecDeque<(u64, CommitFuture, u64, u64)> = VecDeque::new();
                let (mut id, mut done) = (0u64, 0u64);
                let mut sending = true;
                while sending || !queue.is_empty() {
                    if sending && queue.len() < WINDOW {
                        let frame = wire_request(&stream.next_txn(), id, tier).encode();
                        let t0 = now();
                        sending = t0 < end_ns;
                        let request = Request::decode(frame).expect("own frame decodes");
                        let t1 = now();
                        queue.push_back((id, submit_op(&db, request), t0, t1));
                        id += 1;
                        continue;
                    }
                    let (id, future, t0, t1) = queue.pop_front().expect("non-empty queue");
                    let result = future.wait();
                    let t2 = now();
                    let outcome = wire_outcome(result);
                    let ok = matches!(outcome, Outcome::Ok(_));
                    black_box(Response { id, outcome }.encode());
                    let t3 = now();
                    if ok && t3 >= count_from && t3 < end_ns {
                        done += 1;
                    }
                    if id % 32 == 0 {
                        spans.push_chain(
                            "peel.request",
                            &["server.decode", "db.submit", "server.encode"],
                            &[t0, t1, t2, t3],
                            id << 8 | lane,
                        );
                    }
                }
                (done, spans)
            })
        })
        .collect();
    let mut done = 0;
    for lane in lanes {
        let (lane_done, lane_spans) = lane.join().expect("peel lane");
        done += lane_done;
        spans.merge(lane_spans);
    }
    dep.stop();
    Ok((end_ns - count_from) as f64 / 1e3 / done.max(1) as f64)
}

/// `Request`/`Response` encode + decode of the workload's stream.
fn codec_ns(seed: u64, write_fraction: f64, n: u64) -> f64 {
    let mut stream = OpStream::new(seed, 0, write_fraction, 1);
    let requests: Vec<Request> = (0..n)
        .map(|id| wire_request(&stream.next_txn(), id, DurabilityTier::MirrorAcked))
        .collect();
    let started = Instant::now();
    for request in &requests {
        let decoded = Request::decode(black_box(request.encode())).expect("request decodes");
        let response = Response {
            id: decoded.id,
            outcome: Outcome::Ok(Value::Text("+358-9-0012345".into())),
        };
        black_box(Response::decode(black_box(response.encode())).expect("response decodes"));
    }
    per_op_ns(started, n)
}

/// `ReadyQueue` push + pop with 32 firm tasks queued.
fn ready_queue_ns(n: u64) -> f64 {
    let mut queue = ReadyQueue::new(ReservationConfig::default());
    let task = |i: u64| TaskMeta::firm(TxnId(i), i, 50_000_000 + (i * 7919) % 1_000_000, 500_000);
    for i in 0..32 {
        queue.push(task(i));
    }
    let mut expired = Vec::new();
    let started = Instant::now();
    for i in 32..32 + n {
        queue.push(task(i));
        black_box(queue.pop(i, &mut expired));
    }
    per_op_ns(started, n)
}

/// OCC-DATI begin → read (→ write) → validate → commit, one transaction
/// at a time, on the populated store.
fn occ_txn_ns(store: &Store, seed: u64, n: u64) -> (f64, f64) {
    let mut stream = OpStream::new(seed, 0, 0.0, 1);
    let mut run = |write: bool, first_txn: u64| {
        let cc = make_controller(Protocol::OccDati);
        let started = Instant::now();
        for i in 0..n {
            let txn = TxnId(first_txn + i);
            let oid = SCHEMA.object_id(stream.next_txn().objects[0]);
            cc.begin(txn, CcPriority(i));
            let mut ws = Workspace::new(txn);
            let (value, wts) = store.read(oid).expect("populated object");
            black_box(cc.on_read(txn, oid, wts));
            ws.note_read(oid, wts, true);
            if write {
                black_box(cc.on_write(txn, oid, store));
                ws.write(oid, value);
            }
            assert!(
                cc.validate(&ws, store).is_commit(),
                "uncontended validation"
            );
        }
        per_op_ns(started, n)
    };
    (run(false, 1), run(true, 1 + n))
}

/// `Store::read` and `Store::install` at 30 000 objects.
fn store_ns(store: &Store, seed: u64, n: u64) -> (f64, f64) {
    let mut stream = OpStream::new(seed, 1, 0.0, 1);
    let oids: Vec<ObjectId> = (0..n.min(65_536))
        .map(|_| SCHEMA.object_id(stream.next_txn().objects[0]))
        .collect();
    let started = Instant::now();
    for i in 0..n as usize {
        black_box(store.read(oids[i % oids.len()]));
    }
    let read = per_op_ns(started, n);
    let installs = n / 4;
    let base = store.max_wts().0;
    let started = Instant::now();
    for i in 0..installs as usize {
        let oid = oids[i % oids.len()];
        store.install(oid, SCHEMA.initial_record(oid.0), Ts(base + 1 + i as u64));
    }
    (read, per_op_ns(started, installs))
}

/// One committed `Provision` as the redo log carries it.
fn commit_records(number: u64, seq: u64) -> [LogRecord; 2] {
    let image = SCHEMA.updated_record(&SCHEMA.initial_record(number), seq);
    [
        LogRecord {
            lsn: Lsn(2 * seq - 1),
            txn: TxnId(seq),
            kind: RecordKind::Write {
                oid: SCHEMA.object_id(number),
                image,
            },
        },
        LogRecord {
            lsn: Lsn(2 * seq),
            txn: TxnId(seq),
            kind: RecordKind::Commit {
                csn: Csn(seq),
                ser_ts: Ts(seq * 10),
                n_writes: 1,
            },
        },
    ]
}

/// The redo records of `commits` committed `Provision`s on the seeded
/// stream, in shipping order (shared with the failover cold log).
pub fn redo_stream(seed: u64, commits: u64) -> impl Iterator<Item = [LogRecord; 2]> {
    let mut stream = OpStream::new(seed, 0, 1.0, 1);
    (1..=commits).map(move |seq| commit_records(stream.next_txn().objects[0], seq))
}

/// `encode_record_into` over write and commit records.
fn log_encode_ns(seed: u64, n: u64) -> f64 {
    let records: Vec<LogRecord> = redo_stream(seed, n.min(8_192) / 2 + 1).flatten().collect();
    let mut frame = BytesMut::with_capacity(256);
    let started = Instant::now();
    for i in 0..n as usize {
        frame.clear();
        encode_record_into(black_box(&records[i % records.len()]), &mut frame);
        black_box(&frame);
    }
    per_op_ns(started, n)
}

/// `ReorderBuffer` ingest + `PartitionedApplier` (the mirror's takeover
/// drain and the replayer's apply half), commits per second.
fn log_apply_per_s(seed: u64, commits: u64) -> f64 {
    let records: Vec<LogRecord> = redo_stream(seed, commits).flatten().collect();
    let store = Arc::new(Store::new());
    let started = Instant::now();
    let mut reorder = ReorderBuffer::new();
    for record in records {
        reorder.ingest(record).expect("contiguous stream");
    }
    let mut applier = PartitionedApplier::new(&store, rodain_node::default_workers());
    for committed in &reorder.drain_ready() {
        applier.apply(committed);
    }
    let applied = applier.finish().expect("apply").txns;
    assert_eq!(applied, commits, "applier lost commits");
    commits as f64 / started.elapsed().as_secs_f64()
}

/// Loopback `TcpTransport`: 256-byte frame ping-pong (µs per round trip)
/// and a one-way stream (frames per second).
fn tcp_probe(pings: u64, frames: u64) -> std::io::Result<(f64, f64)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let far = std::thread::spawn(move || {
        let link = TcpTransport::connect(addr).expect("probe connects");
        // Echo the pings, then count the one-way stream and confirm it.
        for _ in 0..pings {
            let frame = link
                .recv_timeout(Duration::from_secs(5))
                .expect("ping")
                .expect("ping in time");
            link.send(frame).expect("pong");
        }
        for _ in 0..frames {
            link.recv_timeout(Duration::from_secs(5))
                .expect("frame")
                .expect("frame in time");
        }
        link.send(Bytes::from_static(b"done")).expect("done");
    });
    let net_err = |e: rodain_net::NetError| std::io::Error::other(e.to_string());
    let link = TcpTransport::accept(&listener).map_err(net_err)?;
    let payload = Bytes::from(vec![0xA5u8; 256]);
    let started = Instant::now();
    for _ in 0..pings {
        link.send(payload.clone()).map_err(net_err)?;
        link.recv_timeout(Duration::from_secs(5)).map_err(net_err)?;
    }
    let rtt_us = per_op_ns(started, pings) / 1e3;
    let started = Instant::now();
    for _ in 0..frames {
        link.send(payload.clone()).map_err(net_err)?;
    }
    link.recv_timeout(Duration::from_secs(10))
        .map_err(net_err)?;
    let frames_per_s = frames as f64 / started.elapsed().as_secs_f64();
    far.join().expect("probe peer");
    Ok((rtt_us, frames_per_s))
}

/// One `Histogram::record`.
fn hist_record_ns(n: u64) -> f64 {
    let hist = Histogram::new();
    let started = Instant::now();
    for i in 0..n {
        hist.record(black_box(i.wrapping_mul(2_654_435_761) % 50_000_000));
    }
    black_box(hist.count());
    per_op_ns(started, n)
}
