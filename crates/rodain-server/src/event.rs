//! The event-driven front-end (DESIGN.md §17).
//!
//! One **loop thread** owns the listener and every client socket
//! (non-blocking, multiplexed through a level-triggered
//! [`rodain_net::Poller`]); a fixed **worker pool** — `min(cores, 16)` by
//! default — decodes frames and drives them through the engine's
//! `submit()`/[`CommitFuture`] path. Requests on one connection execute
//! out of order; responses are correlated by request id, and a deferred
//! request's `CommitPending` frame always precedes its durable frame.
//!
//! Commit completions are delivered by a [`CompletionHook`] installed at
//! submit time: the hook fires *after* the outcome reaches the future, on
//! every resolution path (commit, abort, eviction, admission denial,
//! shutdown), sending the pending entry's key over the loop's message
//! channel and waking the poller — O(1) per completion, no thread parked
//! per in-flight transaction.
//!
//! Backpressure is end-to-end (see [`FrontEndConfig`]): a connection over
//! its in-flight cap or with a backed-up reply queue is *parked* —
//! removed from the read interest set, its already-read bytes preserved
//! in `rbuf` — until it drains, which stalls the peer via TCP flow
//! control; a global in-flight gate answers `Overloaded` from the frame
//! header alone before any decode work, complementing the engine's EDF
//! admission control.

use crate::protocol::{Outcome, Request, Response, MAX_REQUEST_BYTES, PROTOCOL_VERSION};
use crate::server::{
    count_outcome, frame_bytes, immediate_outcome, shard_redirect, submit_request, wire_outcome,
    Backend, FrontEndConfig, FrontEndMetrics, Server, ServerHandle, StatsInner,
};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rodain_db::{CommitFuture, CompletionHook};
use rodain_net::{Events, Interest, Poller, Waker};
use rodain_workload::NumberTranslationDb;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
/// Longest the loop sleeps with nothing to do; bounds shutdown latency
/// if a wake is ever lost.
const MAX_TICK: Duration = Duration::from_millis(500);
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_secs(1);
const READ_CHUNK: usize = 16 * 1024;

/// Connection tokens carry the slot in the low half and a generation in
/// the high half, so an event raced against a close-and-reuse of the same
/// slot is recognized as stale instead of hitting the new connection.
fn conn_token(slot: u32, gen: u32) -> u64 {
    (u64::from(gen) << 32) | (u64::from(slot) + 2)
}

/// State a connection shares with the workers: the reply queue they push
/// encoded frames into, and the in-flight request count.
struct ConnShared {
    replies: Mutex<VecDeque<Bytes>>,
    inflight: AtomicUsize,
}

/// A connection, owned by the loop thread.
struct Conn {
    stream: TcpStream,
    gen: u32,
    /// Bytes read but not yet peeled into frames. Preserved intact while
    /// the connection is parked under backpressure.
    rbuf: Vec<u8>,
    /// Frames being written, drained front-first with a partial-write
    /// offset.
    wqueue: VecDeque<Bytes>,
    woffset: usize,
    shared: Arc<ConnShared>,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Read interest withdrawn because a cap was hit.
    paused: bool,
    /// Peer half-closed its write side; we serve what is in flight, then
    /// close.
    read_closed: bool,
}

/// A transaction in flight: correlation state held until its
/// [`CompletionHook`] fires.
struct PendingEntry {
    slot: u32,
    gen: u32,
    id: u64,
    deferred: bool,
    conn: Arc<ConnShared>,
    /// Installed by the worker right after `submit` returns. `None` +
    /// `fired_early` covers the race where the hook fires first.
    future: Option<CommitFuture>,
    fired_early: bool,
}

#[derive(Default)]
struct Slab {
    entries: Vec<Option<PendingEntry>>,
    free: Vec<usize>,
}

impl Slab {
    fn insert(&mut self, entry: PendingEntry) -> usize {
        match self.free.pop() {
            Some(key) => {
                self.entries[key] = Some(entry);
                key
            }
            None => {
                self.entries.push(Some(entry));
                self.entries.len() - 1
            }
        }
    }
}

/// Messages into the loop thread; every send is paired with a
/// [`Waker::wake`] so a blocked poller notices.
enum LoopMsg {
    /// A pending entry's commit outcome is ready.
    Completion { key: usize },
    /// A worker pushed frames onto this connection's reply queue.
    Dirty {
        slot: u32,
        gen: u32,
        conn: Arc<ConnShared>,
    },
    /// A worker hit a protocol violation; drop the connection.
    Kill { slot: u32, gen: u32 },
}

/// A raw frame handed from the loop to the worker pool.
struct WorkItem {
    slot: u32,
    gen: u32,
    conn: Arc<ConnShared>,
    frame: Bytes,
    /// When the frame was peeled off the socket (read-to-dispatch
    /// histogram).
    read_at: Instant,
}

/// State shared between the loop thread and the workers.
struct Shared {
    backend: Backend,
    schema: NumberTranslationDb,
    stats: Arc<StatsInner>,
    fe: Arc<FrontEndMetrics>,
    cfg: FrontEndConfig,
    slab: Mutex<Slab>,
    msgs_tx: Sender<LoopMsg>,
    waker: Arc<Waker>,
    global_inflight: AtomicUsize,
}

impl Shared {
    fn notify(&self, msg: LoopMsg) {
        let _ = self.msgs_tx.send(msg);
        self.waker.wake();
    }
}

/// Start the event-driven front-end: the loop thread plus the worker
/// pool, returning the usual [`ServerHandle`].
pub(crate) fn start(
    server: Server,
    listener: TcpListener,
    config: FrontEndConfig,
) -> std::io::Result<ServerHandle> {
    let cfg = FrontEndConfig {
        workers: config.effective_workers(),
        max_inflight_per_conn: config.max_inflight_per_conn.max(1),
        reply_queue_cap: config.reply_queue_cap.max(1),
        max_global_inflight: config.max_global_inflight.max(1),
    };
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(StatsInner::default());

    let poller = Poller::new()?;
    let waker = Arc::new(Waker::new(&poller, TOK_WAKER)?);
    poller.register(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;

    let (msgs_tx, msgs_rx) = unbounded::<LoopMsg>();
    let (work_tx, work_rx) = unbounded::<WorkItem>();
    let shared = Arc::new(Shared {
        backend: server.backend,
        schema: server.schema,
        stats: Arc::clone(&stats),
        fe: Arc::clone(&server.metrics),
        cfg,
        slab: Mutex::new(Slab::default()),
        msgs_tx,
        waker: Arc::clone(&waker),
        global_inflight: AtomicUsize::new(0),
    });

    let mut threads = Vec::with_capacity(cfg.workers + 1);
    let loop_shared = Arc::clone(&shared);
    let loop_shutdown = Arc::clone(&shutdown);
    threads.push(
        std::thread::Builder::new()
            .name("rodain-fe-loop".into())
            .spawn(move || {
                EventLoop {
                    poller,
                    listener,
                    shared: loop_shared,
                    work_tx,
                    msgs_rx,
                    shutdown: loop_shutdown,
                    conns: Vec::new(),
                    free: Vec::new(),
                    listener_armed: true,
                    accept_backoff: ACCEPT_BACKOFF_START,
                    rearm_at: None,
                }
                .run();
            })
            .expect("spawn event loop"),
    );
    for i in 0..cfg.workers {
        let shared = Arc::clone(&shared);
        let work_rx = work_rx.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("rodain-fe-worker-{i}"))
                .spawn(move || worker_loop(&shared, &work_rx))
                .expect("spawn front-end worker"),
        );
    }

    Ok(ServerHandle {
        addr,
        shutdown,
        stats,
        threads,
        waker,
    })
}

/// A worker: decodes frames, answers immediate ops, submits transactions
/// with a completion hook. Never touches a socket.
fn worker_loop(shared: &Shared, work: &Receiver<WorkItem>) {
    while let Ok(item) = work.recv() {
        shared.fe.read_to_dispatch.record_elapsed(item.read_at);
        let Ok(request) = Request::decode(item.frame) else {
            // Protocol violation: undo the dispatch accounting and have
            // the loop drop the connection.
            release_inflight(shared, &item.conn);
            shared.notify(LoopMsg::Kill {
                slot: item.slot,
                gen: item.gen,
            });
            continue;
        };
        let id = request.id;
        let deferred = request.deferred;
        let outcome = shard_redirect(&shared.backend, shared.schema, &request)
            .or_else(|| immediate_outcome(&shared.backend, &shared.fe, &request.op));
        if let Some(outcome) = outcome {
            count_outcome(&shared.stats, &outcome);
            push_reply(&item.conn, &Response { id, outcome });
            release_inflight(shared, &item.conn);
            shared.notify(LoopMsg::Dirty {
                slot: item.slot,
                gen: item.gen,
                conn: item.conn,
            });
            continue;
        }

        // Transactional op. Reserve the correlation entry first so the
        // hook has a key to fire at, and put `CommitPending` on the reply
        // queue *before* submitting: the Dirty message precedes the
        // hook's Completion in the loop's channel, so the pending frame
        // always precedes the durable frame on the wire.
        let key = shared.slab.lock().insert(PendingEntry {
            slot: item.slot,
            gen: item.gen,
            id,
            deferred,
            conn: Arc::clone(&item.conn),
            future: None,
            fired_early: false,
        });
        if deferred {
            push_reply(
                &item.conn,
                &Response {
                    id,
                    outcome: Outcome::CommitPending,
                },
            );
            shared.notify(LoopMsg::Dirty {
                slot: item.slot,
                gen: item.gen,
                conn: Arc::clone(&item.conn),
            });
        }
        let hook: CompletionHook = {
            let tx = shared.msgs_tx.clone();
            let waker = Arc::clone(&shared.waker);
            Arc::new(move || {
                let _ = tx.send(LoopMsg::Completion { key });
                waker.wake();
            })
        };
        let future = submit_request(&shared.backend, shared.schema, request, hook);
        let refire = {
            let mut slab = shared.slab.lock();
            match slab.entries.get_mut(key).and_then(Option::as_mut) {
                Some(entry) => {
                    entry.future = Some(future);
                    entry.fired_early
                }
                // The loop never frees an entry whose future is still
                // unset, so the entry is always here.
                None => false,
            }
        };
        if refire {
            shared.notify(LoopMsg::Completion { key });
        }
    }
}

fn push_reply(conn: &ConnShared, response: &Response) {
    conn.replies.lock().push_back(frame_bytes(response));
}

fn release_inflight(shared: &Shared, conn: &ConnShared) {
    conn.inflight.fetch_sub(1, Ordering::AcqRel);
    shared.global_inflight.fetch_sub(1, Ordering::AcqRel);
    shared.fe.inflight.add(-1);
}

/// Why a connection is being torn down; decides whether queued frames
/// count as dropped.
#[derive(PartialEq)]
enum Close {
    /// Clean drain: nothing queued by construction.
    Drained,
    /// Peer dead or protocol violation: queued frames are lost.
    Dead,
}

struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    shared: Arc<Shared>,
    work_tx: Sender<WorkItem>,
    msgs_rx: Receiver<LoopMsg>,
    shutdown: Arc<AtomicBool>,
    conns: Vec<Option<Conn>>,
    /// Reusable slots with the generation the next occupant gets.
    free: Vec<(u32, u32)>,
    listener_armed: bool,
    accept_backoff: Duration,
    /// When to re-add the listener to the interest set after an accept
    /// error parked it.
    rearm_at: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            let timeout = match self.rearm_at {
                Some(at) => at.saturating_duration_since(Instant::now()).min(MAX_TICK),
                None => MAX_TICK,
            };
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // A broken poller must not hot-loop; messages and the
                // shutdown flag are still checked below.
                std::thread::sleep(Duration::from_millis(10));
            }
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let tick_start = Instant::now();
            if let Some(at) = self.rearm_at {
                if tick_start >= at {
                    self.rearm_at = None;
                    if self.poller.modify(self.listener.as_raw_fd(), TOK_LISTENER, Interest::READ).is_ok() {
                        self.listener_armed = true;
                    }
                    self.do_accept();
                }
            }
            for i in 0..events.len() {
                // Copy out: handlers below need `&mut self`.
                let ev = *events.iter().nth(i).expect("event index in range");
                match ev.token {
                    TOK_LISTENER => self.do_accept(),
                    TOK_WAKER => self.shared.waker.drain(),
                    token => {
                        let slot = (token as u32).wrapping_sub(2);
                        let gen = (token >> 32) as u32;
                        if !self.conn_matches(slot, gen) {
                            continue; // stale: closed earlier this batch
                        }
                        if ev.readable || ev.error {
                            self.handle_readable(slot);
                        }
                        if ev.writable && self.conn_matches(slot, gen) {
                            self.handle_writable(slot);
                        }
                    }
                }
            }
            self.drain_msgs();
            self.shared.fe.tick.record_elapsed(tick_start);
        }
        // Shutdown: close every connection; dropping `work_tx` ends the
        // workers once the queue drains.
        for slot in 0..self.conns.len() as u32 {
            if self.conns[slot as usize].is_some() {
                self.close_conn(slot, Close::Dead);
            }
        }
    }

    fn conn_matches(&self, slot: u32, gen: u32) -> bool {
        matches!(
            self.conns.get(slot as usize),
            Some(Some(conn)) if conn.gen == gen
        )
    }

    fn do_accept(&mut self) {
        if !self.listener_armed {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_START;
                    self.add_conn(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient failures (aborted handshakes, fd
                    // exhaustion) and fatal listener errors alike: count,
                    // park the listener, and retry after an exponential
                    // backoff so neither can hot-loop the event loop.
                    self.shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    self.shared.fe.accept_errors.inc();
                    if self
                        .poller
                        .modify(self.listener.as_raw_fd(), TOK_LISTENER, Interest::NONE)
                        .is_ok()
                    {
                        self.listener_armed = false;
                    }
                    self.rearm_at = Some(Instant::now() + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_CAP);
                    break;
                }
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let (slot, gen) = match self.free.pop() {
            Some(pair) => pair,
            None => {
                self.conns.push(None);
                (self.conns.len() as u32 - 1, 0)
            }
        };
        let conn = Conn {
            stream,
            gen,
            rbuf: Vec::new(),
            wqueue: VecDeque::new(),
            woffset: 0,
            shared: Arc::new(ConnShared {
                replies: Mutex::new(VecDeque::new()),
                inflight: AtomicUsize::new(0),
            }),
            interest: Interest::READ,
            paused: false,
            read_closed: false,
        };
        if self
            .poller
            .register(conn.stream.as_raw_fd(), conn_token(slot, gen), Interest::READ)
            .is_err()
        {
            self.free.push((slot, gen.wrapping_add(1)));
            return;
        }
        self.shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        self.shared.fe.connections.add(1);
        self.conns[slot as usize] = Some(conn);
    }

    fn close_conn(&mut self, slot: u32, why: Close) {
        let Some(conn) = self.conns[slot as usize].take() else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.free.push((slot, conn.gen.wrapping_add(1)));
        self.shared.fe.connections.add(-1);
        if why == Close::Dead {
            let dropped = conn.wqueue.len() + conn.shared.replies.lock().len();
            if dropped > 0 {
                self.count_dropped(dropped as u64);
            }
        }
        // In-flight transactions for this connection resolve later; their
        // completions find the generation gone and are accounted as
        // dropped there.
    }

    fn count_dropped(&self, n: u64) {
        self.shared.stats.replies_dropped.fetch_add(n, Ordering::Relaxed);
        self.shared.fe.replies_dropped.add(n);
    }

    fn is_paused(&self, conn: &Conn) -> bool {
        conn.shared.inflight.load(Ordering::Acquire) >= self.shared.cfg.max_inflight_per_conn
            || conn.wqueue.len() + conn.shared.replies.lock().len()
                >= self.shared.cfg.reply_queue_cap
    }

    /// Read until `WouldBlock`, EOF, or a backpressure cap trips; peel
    /// and dispatch complete frames after every chunk.
    fn handle_readable(&mut self, slot: u32) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            {
                let conn = self.conns[slot as usize].as_ref().expect("live conn");
                if conn.read_closed || self.is_paused(conn) {
                    break;
                }
            }
            let conn = self.conns[slot as usize].as_mut().expect("live conn");
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    if !self.peel_frames(slot) {
                        return; // connection killed
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(slot, Close::Dead);
                    return;
                }
            }
        }
        self.update_conn(slot);
    }

    /// Peel complete frames from `rbuf` and dispatch them, stopping at a
    /// backpressure cap (unread bytes stay in `rbuf` for the re-arm).
    /// Returns false when the connection was killed.
    fn peel_frames(&mut self, slot: u32) -> bool {
        loop {
            {
                let conn = self.conns[slot as usize].as_ref().expect("live conn");
                if self.is_paused(conn) {
                    let was_paused = conn.paused;
                    if !was_paused {
                        self.conns[slot as usize].as_mut().unwrap().paused = true;
                        self.shared
                            .stats
                            .backpressure_pauses
                            .fetch_add(1, Ordering::Relaxed);
                        self.shared.fe.backpressure_pauses.inc();
                    }
                    return true;
                }
            }
            let conn = self.conns[slot as usize].as_mut().expect("live conn");
            if conn.rbuf.len() < 4 {
                return true;
            }
            let len = u32::from_le_bytes(conn.rbuf[..4].try_into().unwrap()) as usize;
            if len > MAX_REQUEST_BYTES {
                self.close_conn(slot, Close::Dead);
                return false;
            }
            if conn.rbuf.len() < 4 + len {
                return true;
            }
            let frame = Bytes::copy_from_slice(&conn.rbuf[4..4 + len]);
            conn.rbuf.drain(..4 + len);
            self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);

            // Global admission gate: over the cap, answer `Overloaded`
            // from the 9-byte version+id header without decoding the op.
            if self.shared.global_inflight.load(Ordering::Acquire)
                >= self.shared.cfg.max_global_inflight
            {
                if frame.len() < 9 || frame[0] != PROTOCOL_VERSION {
                    self.close_conn(slot, Close::Dead);
                    return false;
                }
                let id = u64::from_le_bytes(frame[1..9].try_into().unwrap());
                let response = Response {
                    id,
                    outcome: Outcome::Overloaded,
                };
                count_outcome(&self.shared.stats, &response.outcome);
                self.shared.fe.overload_rejects.inc();
                let conn = self.conns[slot as usize].as_mut().expect("live conn");
                conn.wqueue.push_back(frame_bytes(&response));
                continue;
            }

            let conn = self.conns[slot as usize].as_mut().expect("live conn");
            conn.shared.inflight.fetch_add(1, Ordering::AcqRel);
            self.shared.global_inflight.fetch_add(1, Ordering::AcqRel);
            self.shared.fe.inflight.add(1);
            let item = WorkItem {
                slot,
                gen: conn.gen,
                conn: Arc::clone(&conn.shared),
                frame,
                read_at: Instant::now(),
            };
            let _ = self.work_tx.send(item);
        }
    }

    fn handle_writable(&mut self, slot: u32) {
        if !self.try_write(slot) {
            return;
        }
        self.update_conn(slot);
    }

    /// Flush the write queue until it empties or the socket blocks.
    /// Returns false when the connection died.
    fn try_write(&mut self, slot: u32) -> bool {
        let conn = self.conns[slot as usize].as_mut().expect("live conn");
        while let Some(front) = conn.wqueue.front() {
            match conn.stream.write(&front[conn.woffset..]) {
                Ok(n) => {
                    conn.woffset += n;
                    if conn.woffset == front.len() {
                        conn.wqueue.pop_front();
                        conn.woffset = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(slot, Close::Dead);
                    return false;
                }
            }
        }
        true
    }

    /// Reconcile a connection after any state change: move worker replies
    /// into the write queue, flush, re-evaluate backpressure (re-peeling
    /// buffered bytes on unpause), close if fully drained after EOF, and
    /// sync the poller interest set.
    fn update_conn(&mut self, slot: u32) {
        loop {
            {
                let conn = self.conns[slot as usize].as_mut().expect("live conn");
                let mut replies = conn.shared.replies.lock();
                while let Some(frame) = replies.pop_front() {
                    conn.wqueue.push_back(frame);
                }
            }
            if !self.try_write(slot) {
                return;
            }
            let conn = self.conns[slot as usize].as_ref().expect("live conn");
            let paused_now = self.is_paused(conn);
            if conn.paused && !paused_now {
                // Unparked: frames may already be buffered in rbuf, and
                // level-triggered readiness will not re-report bytes we
                // already read — peel them now. This can re-pause (or
                // kill), hence the loop.
                self.conns[slot as usize].as_mut().unwrap().paused = false;
                if !self.peel_frames(slot) {
                    return;
                }
                if self.conns[slot as usize].as_ref().unwrap().paused {
                    continue;
                }
            } else if !conn.paused && paused_now {
                self.conns[slot as usize].as_mut().unwrap().paused = true;
                self.shared
                    .stats
                    .backpressure_pauses
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.fe.backpressure_pauses.inc();
            }
            break;
        }
        let Some(Some(conn)) = self.conns.get(slot as usize) else {
            return;
        };
        if conn.read_closed
            && conn.wqueue.is_empty()
            && conn.shared.inflight.load(Ordering::Acquire) == 0
            && conn.shared.replies.lock().is_empty()
        {
            self.close_conn(slot, Close::Drained);
            return;
        }
        let want = Interest {
            read: !conn.read_closed && !conn.paused,
            write: !conn.wqueue.is_empty(),
        };
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            let token = conn_token(slot, conn.gen);
            if self.poller.modify(fd, token, want).is_ok() {
                self.conns[slot as usize].as_mut().unwrap().interest = want;
            }
        }
    }

    fn drain_msgs(&mut self) {
        while let Ok(msg) = self.msgs_rx.try_recv() {
            match msg {
                LoopMsg::Dirty { slot, gen, conn } => {
                    if self.conn_matches(slot, gen) {
                        self.update_conn(slot);
                    } else {
                        // The connection died while the worker was
                        // answering; its frames will never be written.
                        let dropped = {
                            let mut replies = conn.replies.lock();
                            let n = replies.len();
                            replies.clear();
                            n
                        };
                        if dropped > 0 {
                            self.count_dropped(dropped as u64);
                        }
                    }
                }
                LoopMsg::Kill { slot, gen } => {
                    if self.conn_matches(slot, gen) {
                        self.close_conn(slot, Close::Dead);
                    }
                }
                LoopMsg::Completion { key } => self.handle_completion(key),
            }
        }
    }

    fn handle_completion(&mut self, key: usize) {
        let resolved = {
            let mut slab = self.shared.slab.lock();
            let Some(slot_ref) = slab.entries.get_mut(key) else {
                return;
            };
            let Some(entry) = slot_ref.as_mut() else {
                return;
            };
            match entry.future.take() {
                None => {
                    // Hook beat the worker's install; the worker re-sends
                    // Completion after installing the future.
                    entry.fired_early = true;
                    None
                }
                Some(future) => match future.try_wait() {
                    // The hook fires strictly after the outcome is
                    // delivered, so the future must be ready; leave the
                    // entry intact if it somehow is not.
                    None => {
                        entry.future = Some(future);
                        None
                    }
                    Some(result) => {
                        let entry = slot_ref.take().expect("entry present");
                        slab.free.push(key);
                        Some((entry, result))
                    }
                },
            }
        };
        let Some((entry, result)) = resolved else {
            return;
        };
        release_inflight(&self.shared, &entry.conn);
        if self.conn_matches(entry.slot, entry.gen) {
            let outcome = wire_outcome(result, entry.deferred);
            count_outcome(&self.shared.stats, &outcome);
            let response = Response {
                id: entry.id,
                outcome,
            };
            // Drain worker replies first so a deferred request's
            // CommitPending frame cannot trail its durable frame.
            {
                let conn = self.conns[entry.slot as usize].as_mut().expect("live conn");
                let mut replies = conn.shared.replies.lock();
                while let Some(frame) = replies.pop_front() {
                    conn.wqueue.push_back(frame);
                }
                conn.wqueue.push_back(frame_bytes(&response));
            }
            self.update_conn(entry.slot);
        } else {
            self.count_dropped(1);
        }
    }
}
