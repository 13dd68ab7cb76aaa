//! The closed-loop TCP client: one connection, [`WINDOW`] requests in
//! flight, the next request sent only when a reply frees a slot.

use crate::slices::Slices;
use crate::spans::SpanLog;
use crate::stream::{wire_request, OpStream};
use rodain_db::DurabilityTier;
use rodain_server::protocol::read_frame;
use rodain_server::{Outcome, RequestOp, Response};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Requests in flight per connection. Two connections keep 32 in flight,
/// under the engine's default admission limit of 50.
pub const WINDOW: usize = 16;

/// A hung server must fail the run, not hang the benchmark. Longer than
/// the longest firm deadline a request carries (15 s).
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// What one lane is asked to do.
#[derive(Clone, Debug)]
pub struct LoadPlan {
    /// `--seed`.
    pub seed: u64,
    /// Lane number (distinct per connection within a run).
    pub lane: u64,
    /// Share of `Provision` requests.
    pub write_fraction: f64,
    /// Durability tier every request asks for.
    pub tier: DurabilityTier,
    /// The run's time origin.
    pub epoch: Instant,
    /// The measured interval `[start, end)` (ns since `epoch`) and how
    /// many slices it has. Sending stops at `end`; outstanding requests
    /// are still awaited.
    pub measured: (u64, u64, usize),
    /// Requests sent inside any of these `[start, end)` windows record
    /// spans.
    pub trace_windows: Vec<(u64, u64)>,
}

/// Everything a lane saw.
#[derive(Debug)]
pub struct LaneResult {
    /// Latencies and `Ok` counts of the replies decoded inside the
    /// measured interval (`Provision` is the "write").
    pub slices: Slices,
    /// Requests answered, at any time.
    pub answered: u64,
    /// When (ns since the epoch) each reply other than `Ok` was decoded.
    pub not_ok_at: Vec<u64>,
    /// `(service number, done_ns)` of every `Provision` answered `Ok`.
    pub acked_writes: Vec<(u64, u64)>,
    /// Service numbers of `Provision`s answered non-`Ok` or never answered
    /// (they may or may not have been applied).
    pub unknown_writes: Vec<u64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests never answered.
    pub unanswered: u64,
    /// Replies whose id matched no outstanding request.
    pub stray_replies: u64,
    /// Spans of the requests sent inside a trace window.
    pub spans: SpanLog,
}

struct Pending {
    id: u64,
    number: u64,
    write: bool,
    traced: bool,
    /// encode start, encode end, write end (ns since epoch).
    marks: [u64; 3],
}

/// A connected client, ready to run a [`LoadPlan`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to the front-end at `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Send one request and wait for its reply (used for the metrics
    /// scrape and the first request after a takeover).
    pub fn call(&mut self, id: u64, deadline_ms: u32, op: RequestOp) -> std::io::Result<Outcome> {
        let body = rodain_server::Request::new(id, deadline_ms, op).encode();
        rodain_server::protocol::write_frame(&mut self.writer, &body)?;
        let response = Response::decode(read_frame(&mut self.reader)?)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        if response.id != id {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "reply id does not match the request",
            ));
        }
        Ok(response.outcome)
    }

    /// Run the closed loop until the measured interval ends, then collect
    /// what is still outstanding.
    pub fn run(mut self, plan: &LoadPlan) -> LaneResult {
        let (start_ns, stop_ns, slices) = plan.measured;
        let mut out = LaneResult {
            slices: Slices::new(start_ns, stop_ns, slices),
            answered: 0,
            not_ok_at: Vec::new(),
            acked_writes: Vec::new(),
            unknown_writes: Vec::new(),
            sent: 0,
            unanswered: 0,
            stray_replies: 0,
            spans: SpanLog::new(),
        };
        let mut stream = OpStream::new(plan.seed, plan.lane, plan.write_fraction, 1);
        let mut inflight: Vec<Pending> = Vec::with_capacity(WINDOW);
        let mut frame: Vec<u8> = Vec::with_capacity(128);
        let epoch = plan.epoch;
        let now = || epoch.elapsed().as_nanos() as u64;
        let mut sending = true;
        loop {
            while sending && inflight.len() < WINDOW {
                let t0 = now();
                if t0 >= stop_ns {
                    sending = false;
                    break;
                }
                // Lanes share an id space only within their own connection.
                let id = out.sent;
                let txn = stream.next_txn();
                let request = wire_request(&txn, id, plan.tier);
                let body = request.encode();
                frame.clear();
                frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
                frame.extend_from_slice(&body);
                let t1 = now();
                if self.writer.write_all(&frame).is_err() {
                    sending = false;
                    break;
                }
                let t2 = now();
                out.sent += 1;
                inflight.push(Pending {
                    id,
                    number: txn.objects[0],
                    write: txn.is_update(),
                    traced: plan.trace_windows.iter().any(|w| w.0 <= t0 && t0 < w.1),
                    marks: [t0, t1, t2],
                });
            }
            if inflight.is_empty() {
                break;
            }
            let Ok(body) = read_frame(&mut self.reader) else {
                break;
            };
            let t3 = now();
            let Ok(response) = Response::decode(body) else {
                out.stray_replies += 1;
                continue;
            };
            let t4 = now();
            let Some(slot) = inflight.iter().position(|p| p.id == response.id) else {
                out.stray_replies += 1;
                continue;
            };
            let pending = inflight.swap_remove(slot);
            let ok = matches!(response.outcome, Outcome::Ok(_));
            out.answered += 1;
            if !ok {
                out.not_ok_at.push(t4);
            }
            out.slices
                .record(t4, t4 - pending.marks[0], pending.write, ok);
            if pending.write {
                if ok {
                    out.acked_writes.push((pending.number, t4));
                } else {
                    out.unknown_writes.push(pending.number);
                }
            }
            if pending.traced {
                let [t0, t1, t2] = pending.marks;
                out.spans.push_chain(
                    "request",
                    &[
                        "client.encode",
                        "client.write",
                        "client.wait",
                        "client.decode",
                    ],
                    &[t0, t1, t2, t3, t4],
                    pending.id << 8 | plan.lane,
                );
            }
        }
        out.unanswered = inflight.len() as u64;
        out.unknown_writes
            .extend(inflight.iter().filter(|p| p.write).map(|p| p.number));
        out
    }
}
