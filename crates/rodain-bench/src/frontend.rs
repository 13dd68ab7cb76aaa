//! C10K: the event-driven front-end under a pipelined connection storm.
//!
//! One volatile engine serves `Translate` requests at
//! `DurabilityTier::Volatile`, `WINDOW` requests pipelined per connection,
//! while the connection count sweeps from a few dozen to a few thousand.
//! The client is itself event-driven: one driver thread multiplexes every
//! socket through the in-repo [`rodain_net::Poller`], so client-side
//! thread scheduling never pollutes the measurement. A connection that
//! cannot be established or dies mid-run is counted dead and the run
//! continues.
//!
//! The regression gate (`c10k` binary, `BENCH_C10K.json`) is
//! self-relative: committed throughput at the largest measured point with
//! ≥ 1024 connections must hold ≥ 0.8× the 64-connection figure, with no
//! dead connection at that point — what a front-end whose cost grows with
//! open sockets (a thread pair per connection, a linear scan per tick)
//! cannot do. Client and server share the machine, so on fewer than two
//! cores the ratio measures the scheduler, and the gate reports itself
//! skipped. The absolute committed baseline lives in `crates/rodain-e2e`.

use crate::experiments::SweepOptions;
use crate::report::{ms, Table};
use rodain_db::{DurabilityTier, Rodain};
use rodain_net::{raise_nofile_limit, Bytes, Events, Interest, Poller};
use rodain_server::protocol::write_frame;
use rodain_server::{Outcome, Request, RequestOp, Response, Server};
use rodain_workload::NumberTranslationDb;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests kept in flight per connection (well under the server's
/// default per-connection cap, so backpressure pauses stay the server's
/// choice, not the workload's).
const WINDOW: usize = 8;

/// Service numbers provisioned in the schema.
const OBJECTS: u64 = 10_000;

/// Per-request firm deadline — generous, so the sweep measures front-end
/// capacity rather than deadline misses.
const DEADLINE_MS: u32 = 10_000;

/// Wall-clock budget for establishing one point's connections. Plenty on
/// an idle multi-core box (thousands of connects per second); on a small
/// or thrashing machine it converts connect stalls into dead connections
/// so the sweep finishes in bounded time.
const CONNECT_BUDGET: Duration = Duration::from_secs(10);

/// Committed throughput the gate point must retain of the smallest
/// point's.
pub const RETENTION_FLOOR: f64 = 0.8;

/// One connection-count measurement.
#[derive(Clone, Debug)]
pub struct FrontEndRow {
    /// Connections attempted.
    pub conns: usize,
    /// Connections still alive when the measurement window closed.
    pub live_conns: usize,
    /// `Ok` responses received inside the window.
    pub committed: u64,
    /// `Overloaded` responses (admission-gate rejections).
    pub overloaded: u64,
    /// Committed throughput (responses/s over the window).
    pub tput_tps: f64,
    /// 99th-percentile request→response latency (ns).
    pub p99_ns: u64,
}

/// C10K result: the sweep plus what it ran on.
#[derive(Clone, Debug)]
pub struct FrontEndReport {
    /// One entry per connection count, ascending.
    pub points: Vec<FrontEndRow>,
    /// Threads the server used (1 loop + worker pool) — O(cores), not
    /// O(conns).
    pub event_threads: usize,
    /// Cores client and server shared.
    pub cores: usize,
}

impl FrontEndReport {
    /// The gated point: the largest with ≥ 1024 connections (the last one
    /// when the sweep never reaches 1024).
    #[must_use]
    pub fn gate_point(&self) -> Option<&FrontEndRow> {
        let reached = self.points.iter().rfind(|p| p.conns >= 1024);
        reached.or(self.points.last())
    }

    /// Committed throughput at the gate point over the smallest point's.
    /// `None` on fewer than two cores, where client and server time-slice
    /// one CPU and the ratio says nothing about the front-end.
    #[must_use]
    pub fn retention(&self) -> Option<f64> {
        let base = self.points.first().filter(|_| self.cores >= 2)?;
        Some(self.gate_point()?.tput_tps / base.tput_tps.max(f64::EPSILON))
    }

    /// Connections lost (never established, or dropped) at the gate point.
    #[must_use]
    pub fn dead_conns(&self) -> usize {
        self.gate_point().map_or(0, |p| p.conns - p.live_conns)
    }

    /// Render as the usual markdown table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            format!(
                "C10K — event-driven front-end ({} server threads, {} cores) under \
                 pipelined connection storms ({WINDOW} requests in flight per connection)",
                self.event_threads, self.cores
            ),
            &[
                "conns",
                "live",
                "committed",
                "overloaded",
                "tput (txn/s)",
                "p99 (ms)",
            ],
        );
        for row in &self.points {
            table.push(vec![
                row.conns.to_string(),
                row.live_conns.to_string(),
                row.committed.to_string(),
                row.overloaded.to_string(),
                format!("{:.0}", row.tput_tps),
                ms(row.p99_ns as f64),
            ]);
        }
        table
    }

    /// Hand-rolled JSON (the bench crate deliberately has no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|r| {
                format!(
                    "    {{\"conns\": {}, \"live_conns\": {}, \"committed\": {}, \
                     \"overloaded\": {}, \"tput_tps\": {:.1}, \"p99_ns\": {}}}",
                    r.conns, r.live_conns, r.committed, r.overloaded, r.tput_tps, r.p99_ns
                )
            })
            .collect();
        let retention = self
            .retention()
            .map_or("null".into(), |r| format!("{r:.3}"));
        format!(
            "{{\n  \"experiment\": \"C10K\",\n  \"window\": {WINDOW},\n  \
             \"event_threads\": {},\n  \"cores\": {},\n  \"points\": [\n{}\n  ],\n  \
             \"retention\": {retention},\n  \"dead_conns\": {}\n}}\n",
            self.event_threads,
            self.cores,
            points.join(",\n"),
            self.dead_conns()
        )
    }
}

/// The C10K sweep. `--quick` (reps ≤ 3) measures two points for ~300 ms
/// each; the full run sweeps 64 → 4096 connections at ~1 s per point.
#[must_use]
pub fn c10k(opts: SweepOptions) -> FrontEndReport {
    let _ = raise_nofile_limit();
    let quick = opts.reps <= 3;
    let conn_sweep: &[usize] = if quick {
        &[64, 1024]
    } else {
        &[64, 256, 1024, 4096]
    };
    let window = Duration::from_millis(if quick { 300 } else { 1000 });
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    FrontEndReport {
        points: conn_sweep
            .iter()
            .map(|&conns| run_point(conns, window))
            .collect(),
        event_threads: cores.min(16) + 1,
        cores,
    }
}

/// Serve a fresh volatile engine and drive it with `conns` pipelined
/// connections for `window`.
fn run_point(conns: usize, window: Duration) -> FrontEndRow {
    // Admission lifted: every request commits, so committed throughput
    // measures the front-end rather than how much CPU a storm of
    // `Overloaded` replies to the default 50-transaction limit steals.
    let admit_all = rodain_sched::OverloadConfig {
        base_limit: 1_000_000,
        min_limit: 1_000_000,
        ..rodain_sched::OverloadConfig::default()
    };
    let engine = Rodain::builder().workers(4).overload(admit_all);
    let db = Arc::new(engine.build().expect("engine"));
    let schema = NumberTranslationDb::new(OBJECTS);
    schema.populate(&db.store());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = Server::new(db, schema)
        .start(listener)
        .expect("start server");
    let row = drive(handle.addr(), conns, window);
    handle.shutdown();
    row
}

/// One multiplexed client connection.
struct ClientConn {
    stream: TcpStream,
    /// Bytes read but not yet peeled into whole response frames.
    rbuf: Vec<u8>,
    /// Encoded frames not yet accepted by the socket.
    outbox: Vec<u8>,
    /// Send timestamp per in-flight request id.
    sent_at: HashMap<u64, Instant>,
    next_id: u64,
    /// Whether the poller currently watches this socket for write.
    want_write: bool,
}

/// Aggregate counters for one series run.
#[derive(Default)]
struct DriveTotals {
    committed: u64,
    overloaded: u64,
    other: u64,
    latencies_ns: Vec<u64>,
}

/// Drive `conns` pipelined connections against `addr` for `window` from a
/// single poller thread; dead connections are dropped, not retried.
fn drive(addr: SocketAddr, conns: usize, window: Duration) -> FrontEndRow {
    let poller = Poller::new().expect("client poller");
    let mut events = Events::with_capacity(1024);
    let mut slots: Vec<Option<ClientConn>> = Vec::with_capacity(conns);

    // Connect with a per-socket timeout AND an overall budget so a wedged
    // or thrashing accept side degrades the row instead of stretching the
    // experiment's wall clock; sockets never established are dead
    // connections, which the gate counts.
    let connect_deadline = Instant::now() + CONNECT_BUDGET;
    for i in 0..conns {
        if Instant::now() >= connect_deadline {
            slots.push(None);
            continue;
        }
        match TcpStream::connect_timeout(&addr, Duration::from_secs(3)) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    slots.push(None);
                    continue;
                }
                if poller
                    .register(stream.as_raw_fd(), i as u64, Interest::READ)
                    .is_err()
                {
                    slots.push(None);
                    continue;
                }
                slots.push(Some(ClientConn {
                    stream,
                    rbuf: Vec::new(),
                    outbox: Vec::new(),
                    sent_at: HashMap::new(),
                    next_id: 1,
                    want_write: false,
                }));
            }
            Err(_) => slots.push(None),
        }
    }

    let start = Instant::now();
    let deadline = start + window;
    let mut totals = DriveTotals::default();

    // Prime every live connection with a full window of requests.
    for i in 0..slots.len() {
        let mut dead = false;
        if let Some(conn) = slots[i].as_mut() {
            for _ in 0..WINDOW {
                enqueue_request(conn, i);
            }
            dead = !flush(conn, &poller, i as u64);
        }
        if dead {
            close_slot(&poller, &mut slots, i);
        }
    }

    while Instant::now() < deadline {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let timeout = remaining.min(Duration::from_millis(50));
        if poller.wait(&mut events, Some(timeout)).is_err() {
            break;
        }
        let fired: Vec<(u64, bool, bool, bool)> = events
            .iter()
            .map(|e| (e.token, e.readable, e.writable, e.error))
            .collect();
        for (token, readable, writable, error) in fired {
            let i = token as usize;
            let mut dead = false;
            if let Some(conn) = slots.get_mut(i).and_then(Option::as_mut) {
                if error {
                    dead = true;
                } else {
                    if readable {
                        dead = !pump_reads(conn, i, deadline, &mut totals);
                    }
                    // Also after reads: the refilled window goes out now
                    // rather than waiting for a write event.
                    if !dead && (writable || !conn.outbox.is_empty()) {
                        dead = !flush(conn, &poller, token);
                    }
                }
            }
            if dead {
                close_slot(&poller, &mut slots, i);
            }
        }
    }

    let live = slots.iter().filter(|s| s.is_some()).count();
    for i in 0..slots.len() {
        close_slot(&poller, &mut slots, i);
    }

    let secs = window.as_secs_f64();
    totals.latencies_ns.sort_unstable();
    let p99 = if totals.latencies_ns.is_empty() {
        0
    } else {
        let idx = (totals.latencies_ns.len() - 1).min(totals.latencies_ns.len() * 99 / 100);
        totals.latencies_ns[idx]
    };
    FrontEndRow {
        conns,
        live_conns: live,
        committed: totals.committed,
        overloaded: totals.overloaded,
        tput_tps: totals.committed as f64 / secs.max(f64::EPSILON),
        p99_ns: p99,
    }
}

/// Append one encoded `Translate` frame to the connection's outbox.
fn enqueue_request(conn: &mut ClientConn, slot: usize) {
    let id = conn.next_id;
    conn.next_id += 1;
    let number = (slot as u64 * 7 + id) % OBJECTS;
    let request = Request {
        id,
        deadline_ms: DEADLINE_MS,
        tier: DurabilityTier::Volatile,
        deferred: false,
        op: RequestOp::Translate { number },
    };
    let body = request.encode();
    // write_frame needs a blocking sink; build the frame into the outbox
    // instead so partial writes survive WouldBlock.
    let _ = write_frame(&mut conn.outbox, &body);
    conn.sent_at.insert(id, Instant::now());
}

/// Push outbox bytes until the socket would block; returns `false` when
/// the connection died. Keeps the poller's write interest in sync.
fn flush(conn: &mut ClientConn, poller: &Poller, token: u64) -> bool {
    while !conn.outbox.is_empty() {
        match conn.stream.write(&conn.outbox) {
            Ok(0) => return false,
            Ok(n) => {
                conn.outbox.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    let want_write = !conn.outbox.is_empty();
    if want_write != conn.want_write {
        let interest = if want_write {
            Interest::BOTH
        } else {
            Interest::READ
        };
        if poller
            .modify(conn.stream.as_raw_fd(), token, interest)
            .is_err()
        {
            return false;
        }
        conn.want_write = want_write;
    }
    true
}

/// Read until WouldBlock, peel whole frames, account outcomes, and refill
/// the pipeline window (into the outbox; the caller flushes) while the
/// measurement deadline has not passed. Returns `false` when the
/// connection died (EOF or error).
fn pump_reads(
    conn: &mut ClientConn,
    slot: usize,
    deadline: Instant,
    totals: &mut DriveTotals,
) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    let mut cursor = 0usize;
    while conn.rbuf.len() - cursor >= 4 {
        let len = u32::from_le_bytes(conn.rbuf[cursor..cursor + 4].try_into().unwrap()) as usize;
        if conn.rbuf.len() - cursor - 4 < len {
            break;
        }
        let frame = Bytes::copy_from_slice(&conn.rbuf[cursor + 4..cursor + 4 + len]);
        cursor += 4 + len;
        let Ok(response) = Response::decode(frame) else {
            return false;
        };
        let now = Instant::now();
        if let Some(sent) = conn.sent_at.remove(&response.id) {
            totals
                .latencies_ns
                .push(now.saturating_duration_since(sent).as_nanos() as u64);
        }
        match response.outcome {
            Outcome::Ok(_) => totals.committed += 1,
            Outcome::Overloaded => totals.overloaded += 1,
            _ => totals.other += 1,
        }
        if now < deadline {
            enqueue_request(conn, slot);
        }
    }
    conn.rbuf.drain(..cursor);
    true
}

/// Deregister and drop one connection slot (idempotent).
fn close_slot(poller: &Poller, slots: &mut [Option<ClientConn>], i: usize) {
    if let Some(conn) = slots[i].take() {
        let _ = poller.deregister(conn.stream.as_raw_fd());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(conns: usize, live_conns: usize, tput_tps: f64) -> FrontEndRow {
        FrontEndRow {
            conns,
            live_conns,
            committed: tput_tps as u64,
            overloaded: 0,
            tput_tps,
            p99_ns: 1,
        }
    }

    #[test]
    fn a_point_commits_over_live_connections() {
        let row = run_point(8, Duration::from_millis(120));
        assert_eq!(row.conns, 8);
        assert!(row.live_conns > 0, "all connections died");
        assert!(row.committed > 0, "no commits observed");
    }

    #[test]
    fn retention_is_self_relative_and_refuses_to_report_on_one_core() {
        let report = |cores, gate_row| FrontEndReport {
            points: vec![row(64, 64, 1000.0), gate_row],
            event_threads: 3,
            cores,
        };
        let healthy = report(2, row(1024, 1024, 900.0));
        assert!((healthy.retention().unwrap() - 0.9).abs() < 1e-9);
        assert_eq!(healthy.dead_conns(), 0);
        let json = healthy.to_json();
        assert!(json.contains("\"experiment\": \"C10K\""));
        assert!(json.contains("\"retention\": 0.900"));
        assert!(report(2, row(1024, 1024, 700.0)).retention().unwrap() < RETENTION_FLOOR);
        assert_eq!(report(2, row(1024, 1000, 900.0)).dead_conns(), 24);
        let one_core = report(1, row(1024, 1000, 1.0));
        assert_eq!(one_core.retention(), None);
        assert!(one_core.to_json().contains("\"retention\": null"));
    }
}
