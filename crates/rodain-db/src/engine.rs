//! The engine: builder, submission, worker pool, commit pipeline.

use crate::ctx::{CtxStop, TxnCtx, TxnFlags};
use crate::error::{TxnAbort, TxnError};
use crate::options::{CheckpointPolicy, DurabilityTier, MirrorLossPolicy, TxnOptions};
use crate::replicate::{CommitTicket, MirrorLink, ReplicationMode, Replicator, ShipBatchConfig};
use crate::stats::{Counters, EngineStats, TxnReceipt};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::{Condvar, Mutex, RwLock};
use rodain_log::RecordBuilder;
use rodain_net::Transport;
use rodain_node::Message;
use rodain_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Recorder};
use rodain_occ::{make_controller, CcPriority, ConcurrencyController, Csn, Protocol};
use rodain_sched::{
    ActiveSet, Admission, OverloadConfig, OverloadManager, ReadyQueue, ReservationConfig, TaskMeta,
    TxnClass,
};
use rodain_store::{ObjectId, Snapshot, Store, Ts, TxnId, Value, Workspace};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a committed transaction waits for its durability gate before
/// reporting a replication failure.
const COMMIT_GATE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the join handshake waits for a mirror's `JoinRequest`.
const JOIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Objects per snapshot-transfer chunk.
const SNAPSHOT_CHUNK: usize = 2_048;

/// How often the background checkpointer re-evaluates its triggers (also
/// bounds how quickly it notices shutdown).
const CHECKPOINT_POLL: Duration = Duration::from_millis(25);

type BoxClosure = Box<dyn FnMut(&mut TxnCtx) -> Result<Option<Value>, TxnAbort> + Send>;

/// Callback fired *after* a submission's outcome has been delivered to its
/// [`CommitFuture`] (see [`Rodain::submit_hooked`]). Runs on whichever
/// engine thread resolves the transaction — a worker for aborts and
/// Volatile commits, the completer for deferred tiers — so it must be
/// cheap and non-blocking (push a token, wake a poller).
pub type CompletionHook = Arc<dyn Fn() + Send + Sync>;

/// A commit future's resolution side: the reply channel plus the optional
/// completion hook. Every resolution path goes through [`ReplySlot::send`]
/// so the hook can never be missed; `try_send` (the channel holds exactly
/// one outcome) makes an accidental double-resolve inert instead of a
/// deadlock.
#[derive(Clone)]
struct ReplySlot {
    tx: Sender<Result<TxnReceipt, TxnError>>,
    hook: Option<CompletionHook>,
}

impl ReplySlot {
    fn send(&self, outcome: Result<TxnReceipt, TxnError>) {
        let _ = self.tx.try_send(outcome);
        if let Some(hook) = &self.hook {
            hook();
        }
    }
}

struct Job {
    closure: BoxClosure,
    reply: ReplySlot,
    meta: TaskMeta,
    flags: Arc<TxnFlags>,
    /// Durability gate the commit future waits for (from
    /// [`TxnOptions::durability`]).
    tier: DurabilityTier,
}

/// The pending outcome of a submitted transaction (see [`Rodain::submit`]).
///
/// Resolves when the transaction aborts or when its commit reaches the
/// [`DurabilityTier`] it asked for — the worker that validated it has long
/// moved on, so a connection can keep submitting while earlier commits
/// drain through the mirror shipper's coalesced frames. Consume with
/// [`CommitFuture::wait`] (blocking), [`CommitFuture::wait_timeout`] /
/// [`CommitFuture::try_wait`] (polling), or select over
/// [`CommitFuture::receiver`] to multiplex many futures on one thread (the
/// server's connection writer does).
pub struct CommitFuture {
    rx: Receiver<Result<TxnReceipt, TxnError>>,
}

impl CommitFuture {
    fn new(rx: Receiver<Result<TxnReceipt, TxnError>>) -> CommitFuture {
        CommitFuture { rx }
    }

    /// An already-resolved future — for error paths that never reach the
    /// engine (a sharded facade routing to a missing shard, say).
    #[must_use]
    pub fn ready(result: Result<TxnReceipt, TxnError>) -> CommitFuture {
        let (tx, rx) = bounded(1);
        let _ = tx.send(result);
        CommitFuture { rx }
    }

    /// Block until the outcome is known.
    pub fn wait(self) -> Result<TxnReceipt, TxnError> {
        self.rx.recv().unwrap_or(Err(TxnError::Shutdown))
    }

    /// Block up to `timeout`; `None` means still pending.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<TxnReceipt, TxnError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => Some(outcome),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(TxnError::Shutdown)),
        }
    }

    /// Non-blocking poll; `None` means still pending.
    pub fn try_wait(&self) -> Option<Result<TxnReceipt, TxnError>> {
        match self.rx.try_recv() {
            Ok(outcome) => Some(outcome),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(TxnError::Shutdown)),
        }
    }
}

/// A validated commit handed to the completer thread: the worker is
/// already free; the completer awaits the durability ticket and sends the
/// final receipt (or, for an early-resolved Volatile commit, merely drains
/// the ticket as a gate-health backstop).
struct PendingDurability {
    ticket: CommitTicket,
    /// `None` for a Volatile-tier commit that already replied at the
    /// worker — the completer then only babysits the ticket.
    reply: Option<ReplySlot>,
    value: Option<Value>,
    csn: Csn,
    ser_ts: Ts,
    restarts: u32,
    arrival: u64,
    commit_submitted: u64,
    requested: DurabilityTier,
}

enum Completion {
    Commit(Box<PendingDurability>),
    Shutdown,
}

struct SchedCore {
    ready: ReadyQueue,
    active: ActiveSet,
    overload: OverloadManager,
    jobs: HashMap<TxnId, Job>,
    flags: HashMap<TxnId, Arc<TxnFlags>>,
    next_id: u64,
}

struct Engine {
    store: Arc<Store>,
    cc: Arc<dyn ConcurrencyController>,
    sched: Mutex<SchedCore>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    epoch: Instant,
    counters: Counters,
    recorder: Recorder,
    obs: EngineObs,
    replicator: RwLock<Replicator>,
    commit_gate: RwLock<()>,
    commit_gate_timeout: Duration,
    ship_batch: ShipBatchConfig,
    last_csn: AtomicU64,
    builder: RecordBuilder,
    protocol: Protocol,
    /// Validated commits queued for the completer thread.
    completions: Sender<Completion>,
    /// Configured checkpointing (`None`: only ad-hoc [`Rodain::checkpoint`]
    /// calls work; the background thread and the wire op need this).
    checkpoint: Option<CheckpointConfig>,
    /// One checkpoint at a time: the background checkpointer and an
    /// operator-forced checkpoint must not interleave their truncations.
    checkpoint_lock: Mutex<()>,
    cp_obs: CheckpointObs,
}

impl Engine {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Commit-path telemetry handles bound once at build time (see
/// `METRICS.md` for the catalog entries these feed).
struct EngineObs {
    /// Validation accept → durable/acknowledged, per committed txn.
    commit_wait_ns: Histogram,
    /// Same measurement split by the *requested* durability tier, indexed
    /// by [`DurabilityTier::code`].
    tier_wait_ns: [Histogram; 3],
    /// Commit futures ticketed but not yet resolved.
    inflight_futures: Gauge,
    /// Submission → reply, per committed txn.
    response_ns: Histogram,
    /// Commit tickets that timed out and triggered a mirror failover.
    gate_timeouts: Counter,
    /// OCC validation outcomes, labelled by protocol.
    validation_commit: Counter,
    validation_restart: Counter,
}

impl EngineObs {
    fn new(rec: &Recorder, protocol: Protocol) -> EngineObs {
        // Info-style gauge: constant 1, the label carries the protocol.
        rec.gauge(&format!("engine_info{{protocol=\"{}\"}}", protocol.name()))
            .set(1);
        EngineObs {
            commit_wait_ns: rec.histogram("engine_commit_wait_ns"),
            tier_wait_ns: DurabilityTier::ALL.map(|tier| {
                rec.histogram(&format!(
                    "engine_commit_wait_ns{{tier=\"{}\"}}",
                    tier.label()
                ))
            }),
            inflight_futures: rec.gauge("engine_inflight_futures"),
            response_ns: rec.histogram("engine_response_ns"),
            gate_timeouts: rec.counter("engine_gate_timeouts_total"),
            validation_commit: rec.counter(&format!(
                "occ_validation_commit_total{{protocol=\"{}\"}}",
                protocol.name()
            )),
            validation_restart: rec.counter(&format!(
                "occ_validation_restart_total{{protocol=\"{}\"}}",
                protocol.name()
            )),
        }
    }
}

/// Where configured checkpoints go and when they fire.
struct CheckpointConfig {
    dir: std::path::PathBuf,
    policy: CheckpointPolicy,
}

/// Checkpoint telemetry handles (see `METRICS.md`).
struct CheckpointObs {
    /// Wall time of one full checkpoint (boundary → truncation done).
    duration_ns: Histogram,
    /// Size of each installed snapshot file.
    snapshot_bytes: Histogram,
    completed: Counter,
    failed: Counter,
    /// Log segments deleted by checkpoint truncation.
    truncated: Counter,
    /// Bytes the local disk log currently occupies.
    log_bytes: Gauge,
    /// Boundary CSN of the most recent successful checkpoint.
    last_csn: Gauge,
}

impl CheckpointObs {
    fn new(rec: &Recorder) -> CheckpointObs {
        CheckpointObs {
            duration_ns: rec.histogram("checkpoint_duration_ns"),
            snapshot_bytes: rec.histogram("checkpoint_snapshot_bytes"),
            completed: rec.counter("checkpoints_total"),
            failed: rec.counter("checkpoint_failures_total"),
            truncated: rec.counter("checkpoint_truncated_segments_total"),
            log_bytes: rec.gauge("log_on_disk_bytes"),
            last_csn: rec.gauge("checkpoint_csn"),
        }
    }
}

/// Builder for a [`Rodain`] engine.
pub struct RodainBuilder {
    protocol: Protocol,
    workers: usize,
    overload: OverloadConfig,
    reservation: ReservationConfig,
    store: Option<Arc<Store>>,
    durability: Durability,
    commit_gate_timeout: Duration,
    group_commit_batch: usize,
    ship_batch: ShipBatchConfig,
    recorder: Option<Recorder>,
    checkpoint: Option<(std::path::PathBuf, CheckpointPolicy)>,
}

enum Durability {
    Volatile,
    Contingency(std::path::PathBuf),
    ContingencyBackend(Box<dyn rodain_log::StorageBackend>),
    Mirror {
        transport: Arc<dyn Transport>,
        policy: MirrorLossPolicy,
    },
}

impl RodainBuilder {
    fn new() -> Self {
        RodainBuilder {
            protocol: Protocol::OccDati,
            workers: 4,
            overload: OverloadConfig::default(),
            reservation: ReservationConfig::default(),
            store: None,
            durability: Durability::Volatile,
            commit_gate_timeout: COMMIT_GATE_TIMEOUT,
            group_commit_batch: crate::replicate::GROUP_COMMIT_BATCH,
            ship_batch: ShipBatchConfig::default(),
            recorder: None,
            checkpoint: None,
        }
    }

    /// Register the engine's metrics on an externally owned [`Recorder`]
    /// instead of a private one — e.g. to share one registry between the
    /// engine and a co-located mirror node. The default is a fresh
    /// recorder, reachable later through [`Rodain::recorder`].
    #[must_use]
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Concurrency-control protocol (default: the paper's OCC-DATI).
    #[must_use]
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Number of executor threads (default 4).
    ///
    /// The engine cannot run without an executor, so `workers(0)` is
    /// clamped to 1 rather than rejected — a zero-thread engine would
    /// accept submissions and never reply to any of them.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overload-manager settings (active-transaction limit etc.).
    #[must_use]
    pub fn overload(mut self, cfg: OverloadConfig) -> Self {
        self.overload = cfg;
        self
    }

    /// Non-real-time reservation settings.
    #[must_use]
    pub fn reservation(mut self, cfg: ReservationConfig) -> Self {
        self.reservation = cfg;
        self
    }

    /// Start from an existing store (e.g. a promoted mirror's copy or a
    /// disk-recovered state) instead of an empty database.
    #[must_use]
    pub fn store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Single-node Contingency mode: synchronous group-commit logging in
    /// `dir` gates every commit.
    #[must_use]
    pub fn contingency_log(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.durability = Durability::Contingency(dir.into());
        self
    }

    /// Single-node Contingency mode over a pre-built storage backend —
    /// e.g. a fault-injecting [`rodain_log::FaultyStorage`] in chaos tests.
    #[must_use]
    pub fn contingency_storage(
        mut self,
        storage: impl rodain_log::StorageBackend + 'static,
    ) -> Self {
        self.durability = Durability::ContingencyBackend(Box::new(storage));
        self
    }

    /// Longest a committed transaction waits for its durability gate
    /// (mirror acknowledgement or local flush) before the engine declares
    /// the mirror dead and retries through the degraded path (default
    /// 10 s). Chaos tests shorten this to keep fault turnaround tight.
    #[must_use]
    pub fn commit_gate_timeout(mut self, timeout: Duration) -> Self {
        self.commit_gate_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Most commit requests coalesced into one log flush in Contingency
    /// mode (default 64). `group_commit_batch(1)` reproduces the paper
    /// prototype's one-transaction-per-disk-rotation commit path —
    /// benchmarks use it to make a single log stream the measured
    /// bottleneck. Clamped to at least 1.
    #[must_use]
    pub fn group_commit_batch(mut self, max_batch: usize) -> Self {
        self.group_commit_batch = max_batch.max(1);
        self
    }

    /// Mirror-shipping batch knobs (see [`ShipBatchConfig`]): how many
    /// records/bytes one `Records` frame may carry and how long the
    /// shipper holds an open batch for more commits.
    /// [`ShipBatchConfig::unbatched`] restores one-frame-per-commit
    /// shipping (the COMMITPIPE baseline).
    #[must_use]
    pub fn ship_batch(mut self, cfg: ShipBatchConfig) -> Self {
        self.ship_batch = cfg;
        self
    }

    /// Primary mode: ship logs to a mirror over `transport` (the mirror
    /// must be running [`rodain_node::MirrorNode::join`]), degrading per
    /// `policy` if it dies.
    #[must_use]
    pub fn mirror(mut self, transport: Arc<dyn Transport>, policy: MirrorLossPolicy) -> Self {
        self.durability = Durability::Mirror { transport, policy };
        self
    }

    /// Enable the background checkpointer: fuzzy snapshots into
    /// `snapshot_dir` per `policy`, each followed by automatic truncation
    /// of log segments wholly behind the checkpoint boundary (fenced on
    /// the mirror ack watermark in mirrored mode). Checkpoints never
    /// pause writers beyond fixing the boundary CSN. Operators can also
    /// force one at any time with [`Rodain::force_checkpoint`] or the
    /// server's `Checkpoint` wire op. Design: DESIGN.md §15; tuning
    /// guidance: OPERATIONS.md.
    #[must_use]
    pub fn checkpoints(
        mut self,
        snapshot_dir: impl Into<std::path::PathBuf>,
        policy: CheckpointPolicy,
    ) -> Self {
        self.checkpoint = Some((snapshot_dir.into(), policy));
        self
    }

    /// Build and start the engine.
    pub fn build(self) -> io::Result<Rodain> {
        let store = self.store.unwrap_or_default();
        let recorder = self.recorder.unwrap_or_default();
        let (completions, completions_rx) = unbounded();
        let engine = Arc::new(Engine {
            cc: make_controller(self.protocol),
            sched: Mutex::new(SchedCore {
                ready: ReadyQueue::observed(self.reservation, &recorder),
                active: ActiveSet::new(),
                overload: OverloadManager::new(self.overload),
                jobs: HashMap::new(),
                flags: HashMap::new(),
                next_id: 1,
            }),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            counters: Counters::new(&recorder),
            obs: EngineObs::new(&recorder, self.protocol),
            cp_obs: CheckpointObs::new(&recorder),
            recorder,
            replicator: RwLock::new(Replicator::Volatile),
            commit_gate: RwLock::new(()),
            commit_gate_timeout: self.commit_gate_timeout,
            ship_batch: self.ship_batch,
            last_csn: AtomicU64::new(0),
            builder: RecordBuilder::new(),
            protocol: self.protocol,
            completions,
            checkpoint: self
                .checkpoint
                .map(|(dir, policy)| CheckpointConfig { dir, policy }),
            checkpoint_lock: Mutex::new(()),
            store,
        });

        match self.durability {
            Durability::Volatile => {}
            Durability::Contingency(dir) => {
                if dir.as_os_str().is_empty() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "contingency log directory must not be empty",
                    ));
                }
                *engine.replicator.write() =
                    Replicator::contingency(&dir, &engine.recorder, self.group_commit_batch)?;
            }
            Durability::ContingencyBackend(backend) => {
                *engine.replicator.write() = Replicator::contingency_backend(
                    backend,
                    &engine.recorder,
                    self.group_commit_batch,
                );
            }
            Durability::Mirror { transport, policy } => {
                attach_mirror_inner(&engine, transport, policy)?;
            }
        }
        let mode = engine.replicator.read().mode();
        engine
            .recorder
            .gauge("replication_mode")
            .set(mode.as_gauge());
        engine
            .recorder
            .emit("mode-change", format!("engine started in {mode:?}"));

        let workers = (0..self.workers)
            .map(|i| {
                let engine = Arc::clone(&engine);
                std::thread::Builder::new()
                    .name(format!("rodain-worker-{i}"))
                    .spawn(move || worker_loop(engine))
                    .expect("spawn worker")
            })
            .collect();

        let completer = {
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name("rodain-completer".into())
                .spawn(move || completer_loop(&engine, &completions_rx))
                .expect("spawn completer")
        };

        let checkpointer = engine.checkpoint.is_some().then(|| {
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name("rodain-checkpointer".into())
                .spawn(move || checkpointer_loop(&engine))
                .expect("spawn checkpointer")
        });

        Ok(Rodain {
            engine,
            workers,
            completer: Some(completer),
            checkpointer,
        })
    }
}

/// An exclusive hold on the commit gate (see [`Rodain::hold_commits`]).
/// Commits resume when it drops.
pub struct CommitHold<'a> {
    _gate: parking_lot::RwLockWriteGuard<'a, ()>,
}

impl std::fmt::Debug for CommitHold<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CommitHold")
    }
}

/// The RODAIN real-time main-memory database engine. See the crate docs.
pub struct Rodain {
    engine: Arc<Engine>,
    workers: Vec<std::thread::JoinHandle<()>>,
    completer: Option<std::thread::JoinHandle<()>>,
    checkpointer: Option<std::thread::JoinHandle<()>>,
}

impl Rodain {
    /// Start building an engine.
    #[must_use]
    pub fn builder() -> RodainBuilder {
        RodainBuilder::new()
    }

    /// Load an object during initial database population (bypasses
    /// concurrency control and logging; timestamp zero).
    pub fn load_initial(&self, oid: ObjectId, value: Value) {
        self.engine.store.load_initial(oid, value);
    }

    /// Read an object's committed value outside any transaction (dirty
    /// read of the latest committed state — handy for tests and metrics).
    #[must_use]
    pub fn get(&self, oid: ObjectId) -> Option<Value> {
        self.engine.store.read(oid).map(|(v, _)| v)
    }

    /// The underlying store (shared with the replication machinery).
    #[must_use]
    pub fn store(&self) -> Arc<Store> {
        Arc::clone(&self.engine.store)
    }

    /// A consistent snapshot of the database (pauses commits briefly).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let _gate = self.engine.commit_gate.write();
        self.engine.store.snapshot()
    }

    /// A consistent snapshot plus the highest CSN it contains — the
    /// shippable form a cluster migration or remote standby seeds from:
    /// every commit `<= Csn` is in the snapshot, every later one must
    /// come from the log tail.
    #[must_use]
    pub fn snapshot_upto(&self) -> (Snapshot, Csn) {
        let _gate = self.engine.commit_gate.write();
        let upto = Csn(self.engine.last_csn.load(Ordering::Acquire));
        (self.engine.store.snapshot(), upto)
    }

    /// The highest commit sequence number this engine has assigned.
    #[must_use]
    pub fn last_csn(&self) -> u64 {
        self.engine.last_csn.load(Ordering::Acquire)
    }

    /// Pause the commit point: while the returned [`CommitHold`] lives, no
    /// transaction can pass the commit gate, so `last_csn` and the on-disk
    /// log tail are frozen. This is the hook remote coordination layers
    /// (networked prepare/decide, shard-migration cutover) use to fence a
    /// final state transfer: everything acknowledged before the hold is in
    /// the log, and nothing new commits until the hold drops. Reads and
    /// transaction execution continue; only the commit step blocks.
    #[must_use]
    pub fn hold_commits(&self) -> CommitHold<'_> {
        CommitHold {
            _gate: self.engine.commit_gate.write(),
        }
    }

    /// Current replication/durability mode.
    #[must_use]
    pub fn replication_mode(&self) -> ReplicationMode {
        self.engine.replicator.read().mode()
    }

    /// The concurrency-control protocol in force.
    #[must_use]
    pub fn protocol(&self) -> Protocol {
        self.engine.protocol
    }

    /// Commit acknowledgements received from the mirror (`None` when not
    /// in mirrored mode).
    #[must_use]
    pub fn mirror_acks(&self) -> Option<u64> {
        match &*self.engine.replicator.read() {
            Replicator::Mirrored(link) => Some(link.acks()),
            _ => None,
        }
    }

    /// Engine statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let active = self.engine.sched.lock().active.len();
        EngineStats::from_counters(&self.engine.counters, self.engine.cc.stats(), active)
    }

    /// A point-in-time snapshot of every metric the engine and its
    /// attached subsystems publish (see `METRICS.md`). Render it with
    /// [`MetricsSnapshot::render_text`], [`MetricsSnapshot::render_json`]
    /// or [`MetricsSnapshot::render_prometheus`].
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        // Keep the controller's point-lookup counters in the same snapshot
        // as the handle-based metrics.
        let rec = &self.engine.recorder;
        for (name, value) in self.engine.cc.stats().named() {
            let counter = rec.counter(&format!(
                "occ_{name}_total{{protocol=\"{}\"}}",
                self.engine.protocol.name()
            ));
            // CcStats is cumulative; counters only move forward.
            let current = counter.get();
            counter.add(value.saturating_sub(current));
        }
        rec.gauge("txn_active")
            .set(self.engine.sched.lock().active.len() as i64);
        rec.snapshot()
    }

    /// The engine's metric registry — clone it to register additional
    /// metrics in the same snapshot (the chaos harness and the server do).
    #[must_use]
    pub fn recorder(&self) -> Recorder {
        self.engine.recorder.clone()
    }

    /// Submit a transaction; the returned [`CommitFuture`] resolves when
    /// the commit satisfies the [`DurabilityTier`] in `opts` (or the
    /// transaction aborts). The worker and its admission slot are released
    /// at validation, so a caller can keep submitting while earlier
    /// commits drain — deferred commits coalesce into the shipper's
    /// multi-group frames. See [`Rodain::execute`] for the blocking
    /// variant.
    pub fn submit<F>(&self, opts: TxnOptions, closure: F) -> CommitFuture
    where
        F: FnMut(&mut TxnCtx) -> Result<Option<Value>, TxnAbort> + Send + 'static,
    {
        self.submit_inner(opts, Box::new(closure), None)
    }

    /// [`Rodain::submit`] with a [`CompletionHook`] that fires once the
    /// returned future resolves (the outcome is already in the future when
    /// the hook runs). This is how the event-driven server front-end
    /// multiplexes thousands of in-flight commits onto one poller thread
    /// without selecting over thousands of channels: each completion
    /// pushes its token and wakes the event loop, O(1) per commit. The
    /// hook fires on *every* resolution path — abort, admission denial,
    /// eviction, deadline miss, shutdown, and durable commit alike.
    pub fn submit_hooked<F>(&self, opts: TxnOptions, closure: F, hook: CompletionHook) -> CommitFuture
    where
        F: FnMut(&mut TxnCtx) -> Result<Option<Value>, TxnAbort> + Send + 'static,
    {
        self.submit_inner(opts, Box::new(closure), Some(hook))
    }

    fn submit_inner(
        &self,
        opts: TxnOptions,
        closure: BoxClosure,
        hook: Option<CompletionHook>,
    ) -> CommitFuture {
        let (tx, rx) = bounded(1);
        let reply = ReplySlot { tx, hook };
        let rx = CommitFuture::new(rx);
        let engine = &self.engine;
        if engine.shutdown.load(Ordering::Acquire) {
            let _ = reply.send(Err(TxnError::Shutdown));
            return rx;
        }
        let now = engine.now_ns();
        let mut sched = engine.sched.lock();
        let id = TxnId(sched.next_id);
        sched.next_id += 1;

        let est = opts.est_cost.as_nanos() as u64;
        let rel_deadline = opts
            .relative_deadline
            .as_nanos()
            .min(u128::from(u64::MAX / 4)) as u64;
        let meta = match opts.class {
            TxnClass::Firm => TaskMeta::firm(id, now, rel_deadline, est),
            TxnClass::Soft => TaskMeta::soft(id, now, rel_deadline, est),
            TxnClass::NonRealTime => TaskMeta::non_real_time(id, now, est),
        };

        let admission = {
            let SchedCore {
                overload, active, ..
            } = &mut *sched;
            overload.admit(now, &meta, active)
        };
        match admission {
            Admission::Reject => {
                engine.counters.aborted_admission.inc();
                let _ = reply.send(Err(TxnError::AdmissionDenied));
                return rx;
            }
            Admission::AcceptEvicting(victim) => {
                if let Some(flags) = sched.flags.get(&victim) {
                    flags.evicted.store(true, Ordering::Release);
                }
                sched.active.remove(victim);
                // A still-queued victim can be resolved right here.
                if let Some(job) = sched.jobs.remove(&victim) {
                    sched.flags.remove(&victim);
                    engine.counters.aborted_evicted.inc();
                    let _ = job.reply.send(Err(TxnError::Evicted));
                }
            }
            Admission::Accept => {}
        }

        let flags = TxnFlags::new();
        sched.flags.insert(id, Arc::clone(&flags));
        sched.active.insert(meta);
        sched.jobs.insert(
            id,
            Job {
                closure,
                reply,
                meta,
                flags,
                tier: opts.durability,
            },
        );
        sched.ready.push(meta);
        drop(sched);
        engine.work_ready.notify_one();
        rx
    }

    /// Execute a transaction and wait for its outcome — a thin
    /// `submit(..).wait()` wrapper.
    pub fn execute<F>(&self, opts: TxnOptions, closure: F) -> Result<TxnReceipt, TxnError>
    where
        F: FnMut(&mut TxnCtx) -> Result<Option<Value>, TxnAbort> + Send + 'static,
    {
        self.submit(opts, closure).wait()
    }

    /// Take a fuzzy checkpoint into `snapshot_dir` and truncate the local
    /// disk log behind it (DESIGN.md §15). Returns the snapshot file's
    /// path. Writers are only paused for the instant the boundary CSN is
    /// fixed — the store scan runs concurrently with commits.
    ///
    /// Bounded recovery: a restart restores the newest checkpoint and
    /// replays only the remaining log tail
    /// (see `rodain_node::recover_with_checkpoint`). This ad-hoc form
    /// applies no retention policy; the configured checkpointer
    /// ([`RodainBuilder::checkpoints`], [`Rodain::force_checkpoint`])
    /// does.
    pub fn checkpoint(
        &self,
        snapshot_dir: impl AsRef<std::path::Path>,
    ) -> io::Result<std::path::PathBuf> {
        fuzzy_checkpoint(&self.engine, snapshot_dir.as_ref(), 0, None)
    }

    /// Force a checkpoint now, using the directory and retention policy
    /// configured through [`RodainBuilder::checkpoints`] — what the
    /// server's `Checkpoint` wire op calls. Runs inline on the caller's
    /// thread, serialized against the background checkpointer. Fails with
    /// [`io::ErrorKind::InvalidInput`] when checkpointing was not
    /// configured.
    pub fn force_checkpoint(&self) -> io::Result<std::path::PathBuf> {
        let cp = self.engine.checkpoint.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "checkpointing not configured (RodainBuilder::checkpoints)",
            )
        })?;
        fuzzy_checkpoint(
            &self.engine,
            &cp.dir,
            cp.policy.retain_segments,
            Some(cp.policy.retain_snapshots),
        )
    }

    /// Accept a (re)joining mirror: wait for its `JoinRequest`, transfer a
    /// consistent snapshot, then switch commits to log shipping.
    ///
    /// Commits pause for the duration of the snapshot transfer. A node in
    /// Contingency mode becomes a full Primary again once this returns
    /// (paper: the recovered peer "will always become a Mirror Node").
    pub fn attach_mirror(
        &self,
        transport: Arc<dyn Transport>,
        policy: MirrorLossPolicy,
    ) -> io::Result<()> {
        attach_mirror_inner(&self.engine, transport, policy)
    }
}

fn attach_mirror_inner(
    engine: &Arc<Engine>,
    transport: Arc<dyn Transport>,
    policy: MirrorLossPolicy,
) -> io::Result<()> {
    // 1. Wait for the mirror to announce itself.
    let deadline = Instant::now() + JOIN_TIMEOUT;
    loop {
        match transport.recv_timeout(Duration::from_millis(20)) {
            Ok(Some(frame)) => {
                if let Ok(Message::JoinRequest) = Message::decode(frame) {
                    break;
                }
            }
            Ok(None) => {}
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    format!("mirror link failed during join: {e}"),
                ))
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "mirror never sent JoinRequest",
            ));
        }
    }

    // 2. Pause commits, transfer a consistent snapshot, pick the CSN
    //    boundary where the live stream resumes.
    let gate = engine.commit_gate.write();
    let snapshot = engine.store.snapshot();
    let boundary = Csn(engine.last_csn.load(Ordering::Acquire) + 1);
    for chunk in Message::snapshot_chunks(&snapshot, SNAPSHOT_CHUNK) {
        transport
            .send(chunk.encode())
            .map_err(|e| io::Error::new(io::ErrorKind::BrokenPipe, e.to_string()))?;
    }
    transport
        .send(Message::SnapshotDone { next_csn: boundary }.encode())
        .map_err(|e| io::Error::new(io::ErrorKind::BrokenPipe, e.to_string()))?;

    // 3. Switch the commit path to log shipping. The shipper's holdback
    //    starts at the snapshot boundary — the first CSN the live stream
    //    carries (the gate write lock guarantees nothing is in flight).
    let link = MirrorLink::new(
        transport,
        &policy,
        &engine.recorder,
        boundary,
        engine.ship_batch,
    )?;
    *engine.replicator.write() = Replicator::Mirrored(link);
    engine
        .recorder
        .gauge("replication_mode")
        .set(ReplicationMode::Mirrored.as_gauge());
    engine.recorder.emit(
        "mode-change",
        format!("mirror attached at csn {}", boundary.0),
    );
    drop(gate);
    Ok(())
}

// ----- checkpointing ------------------------------------------------------

/// Take one fuzzy checkpoint: fix a boundary CSN, scan the live store
/// without pausing writers, install the snapshot atomically, then
/// truncate log segments wholly behind the replication-fenced boundary
/// (DESIGN.md §15).
///
/// The boundary is fixed under a brief exclusive `commit_gate` hold, so
/// every commit with `csn < boundary` is fully installed before the scan
/// starts. The scan itself runs under per-shard read locks only; it may
/// observe commits *at or after* the boundary, which is safe because the
/// retained tail (`csn >= boundary`) replays over the snapshot and
/// `Store::install` is timestamp-monotone and idempotent.
///
/// Truncation is fenced on the mirror ack watermark: a segment is
/// GC-eligible only when both the snapshot (primary disk) and the
/// mirror's acknowledged prefix cover it — two independent copies before
/// any byte is dropped, so a takeover racing truncation never needs a
/// segment we deleted.
fn fuzzy_checkpoint(
    engine: &Engine,
    dir: &std::path::Path,
    retain_segments: usize,
    prune_to: Option<usize>,
) -> io::Result<std::path::PathBuf> {
    // Serialize against the background checkpointer / other forced calls.
    let _running = engine.checkpoint_lock.lock();
    let started = Instant::now();

    // 1. Fix the boundary under a brief exclusive gate. Nothing is copied
    //    while the gate is held — writers resume before the scan.
    let boundary = {
        let _gate = engine.commit_gate.write();
        Csn(engine.last_csn.load(Ordering::Acquire) + 1)
    };

    // 2. Fuzzy copy-on-scan: commits keep flowing while we walk shards.
    let snapshot = engine.store.fuzzy_snapshot();

    // 3. Atomic install: tmp → fsync → rename (DESIGN.md §13).
    let path = rodain_log::write_snapshot_file(dir, &snapshot, boundary)?;
    let snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    if let Some(keep) = prune_to {
        let _ = rodain_log::prune_snapshots(dir, keep);
    }

    // 4. Marker record for recovery diagnostics, then truncate behind the
    //    fence. When a live mirror is attached the fence holds back
    //    segments whose commits it has not acknowledged yet.
    let replicator = engine.replicator.read();
    replicator.append_info(engine.builder.checkpoint_record(boundary, boundary.0));
    let fence = match replicator.ack_watermark() {
        Some(watermark) => Csn(boundary.0.min(watermark.saturating_add(1))),
        None => boundary,
    };
    let removed = replicator.truncate_before_retaining(fence, retain_segments)?;
    let log_bytes = replicator.log_on_disk_bytes();
    drop(replicator);

    engine.cp_obs.truncated.add(removed as u64);
    if let Some(bytes) = log_bytes {
        engine.cp_obs.log_bytes.set(bytes as i64);
    }
    engine.cp_obs.snapshot_bytes.record(snapshot_bytes);
    engine.cp_obs.duration_ns.record_elapsed(started);
    engine.cp_obs.completed.inc();
    engine.cp_obs.last_csn.set(boundary.0 as i64);
    engine.recorder.emit(
        "checkpoint",
        format!(
            "checkpoint at csn {} ({} objects, {removed} segments truncated)",
            boundary.0,
            snapshot.len()
        ),
    );
    Ok(path)
}

/// Background checkpointer: wakes every [`CHECKPOINT_POLL`], fires a
/// fuzzy checkpoint when the policy's interval elapses or the on-disk log
/// crosses `log_bytes_trigger`. Failures are counted and reported through
/// the recorder; the loop keeps running.
fn checkpointer_loop(engine: &Arc<Engine>) {
    let Some(cp) = engine.checkpoint.as_ref() else {
        return;
    };
    let mut last_at = Instant::now();
    let mut bytes_at_last = engine.replicator.read().log_on_disk_bytes().unwrap_or(0);
    while !engine.shutdown.load(Ordering::Acquire) {
        std::thread::sleep(CHECKPOINT_POLL);
        if engine.shutdown.load(Ordering::Acquire) {
            return;
        }
        let timer_due =
            !cp.policy.interval.is_zero() && last_at.elapsed() >= cp.policy.interval;
        let log_bytes = engine.replicator.read().log_on_disk_bytes();
        if let Some(bytes) = log_bytes {
            engine.cp_obs.log_bytes.set(bytes as i64);
        }
        // The size trigger additionally requires growth since the last
        // checkpoint: when truncation cannot shrink the log (mirror ack
        // fence, retained segments) a bare threshold would hot-loop.
        let size_due = cp.policy.log_bytes_trigger > 0
            && log_bytes.is_some_and(|b| b >= cp.policy.log_bytes_trigger && b > bytes_at_last);
        if !(timer_due || size_due) {
            continue;
        }
        match fuzzy_checkpoint(
            engine,
            &cp.dir,
            cp.policy.retain_segments,
            Some(cp.policy.retain_snapshots),
        ) {
            Ok(_) => {}
            Err(e) => {
                engine.cp_obs.failed.inc();
                engine.recorder.emit("checkpoint-failed", e.to_string());
            }
        }
        last_at = Instant::now();
        bytes_at_last = engine.replicator.read().log_on_disk_bytes().unwrap_or(0);
    }
}

impl Drop for Rodain {
    fn drop(&mut self) {
        self.engine.shutdown.store(true, Ordering::Release);
        self.engine.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Workers are gone, so every completion is already enqueued; the
        // sentinel lands behind them and the completer drains in order.
        // (The gate-timeout → mark-down backstop bounds each ticket wait.)
        let _ = self.engine.completions.send(Completion::Shutdown);
        if let Some(handle) = self.completer.take() {
            let _ = handle.join();
        }
        // The checkpointer polls the shutdown flag; a checkpoint already
        // in flight runs to completion first (its snapshot stays valid).
        if let Some(handle) = self.checkpointer.take() {
            let _ = handle.join();
        }
        // Reply to anything still queued.
        let mut sched = self.engine.sched.lock();
        for (_, job) in sched.jobs.drain() {
            let _ = job.reply.send(Err(TxnError::Shutdown));
        }
    }
}

// ----- worker ------------------------------------------------------------

fn worker_loop(engine: Arc<Engine>) {
    loop {
        if engine.shutdown.load(Ordering::Acquire) {
            return;
        }
        let grabbed = {
            let mut sched = engine.sched.lock();
            let mut grabbed = None;
            let mut expired = Vec::new();
            loop {
                let now = engine.now_ns();
                let popped = sched.ready.pop(now, &mut expired);
                // Account expired firm transactions dropped by the queue.
                for meta in expired.drain(..) {
                    if let Some(job) = sched.jobs.remove(&meta.txn) {
                        sched.flags.remove(&meta.txn);
                        sched.active.remove(meta.txn);
                        sched.overload.record_miss(now);
                        engine.counters.aborted_deadline.inc();
                        let _ = job.reply.send(Err(TxnError::DeadlineExpired));
                    }
                }
                match popped {
                    Some(task) => {
                        if let Some(job) = sched.jobs.remove(&task.txn) {
                            grabbed = Some(job);
                            break;
                        }
                        // Stale queue entry (evicted earlier): keep looking.
                        continue;
                    }
                    None => {
                        if engine.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        engine
                            .work_ready
                            .wait_for(&mut sched, Duration::from_millis(5));
                        if engine.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                    }
                }
            }
            grabbed
        };
        let Some(job) = grabbed else {
            continue; // shutdown or spurious wakeup
        };
        execute_job(&engine, job);
    }
}

/// How one `execute_job` run ended: with an outcome to send now, or
/// deferred to the completer thread (the durability gate is still pending
/// and the worker must not block on it).
enum JobVerdict {
    Reply(Result<TxnReceipt, TxnError>),
    Deferred,
}

fn execute_job(engine: &Arc<Engine>, mut job: Job) {
    let id = job.meta.txn;
    let started = engine.now_ns();
    let firm_deadline = (job.meta.class == TxnClass::Firm)
        .then_some(job.meta.deadline)
        .flatten();
    let priority = CcPriority(job.meta.deadline.unwrap_or(u64::MAX));
    let mut ws = Workspace::new(id);
    let mut restarts = 0u32;

    let verdict: JobVerdict = loop {
        // Pre-attempt deadline check.
        if let Some(d) = firm_deadline {
            if engine.now_ns() > d {
                break JobVerdict::Reply(Err(TxnError::DeadlineExpired));
            }
        }
        engine.cc.begin(id, priority);
        ws.reset();

        let now_fn = {
            let engine = Arc::clone(engine);
            move || engine.now_ns()
        };
        let mut ctx = TxnCtx {
            id,
            ws: &mut ws,
            store: &engine.store,
            cc: engine.cc.as_ref(),
            flags: &job.flags,
            shutdown: &engine.shutdown,
            firm_deadline_ns: firm_deadline,
            now_ns: &now_fn,
            stop: None,
            blocks: 0,
        };
        let result = (job.closure)(&mut ctx);
        let stop = ctx.stop;
        let blocks = ctx.blocks;
        engine.counters.lock_waits.add(blocks);

        match result {
            Ok(value) => {
                // An evicted transaction must not commit even if its
                // closure never touched the context again.
                if job.flags.evicted.load(Ordering::Acquire) {
                    engine.cc.remove(id);
                    engine.counters.aborted_evicted.inc();
                    break JobVerdict::Reply(Err(TxnError::Evicted));
                }
                // Atomic validation + install, then the commit gate.
                let gate = engine.commit_gate.read();
                match engine.cc.validate(&ws, &engine.store) {
                    rodain_occ::ValidationOutcome::Commit {
                        ser_ts,
                        csn,
                        victims,
                    } => {
                        // Victims were marked by the controller; running
                        // ones discover it at their next access/validation.
                        let _ = victims;
                        engine.obs.validation_commit.inc();
                        engine.last_csn.fetch_max(csn.0, Ordering::AcqRel);
                        let records = engine.builder.commit_group(id, ws.writes(), csn, ser_ts);
                        let commit_submitted = engine.now_ns();
                        let tier = job.tier;
                        let ticket = engine.replicator.read().ship(csn, records, tier);
                        drop(gate);
                        engine.obs.inflight_futures.add(1);
                        if tier == DurabilityTier::Volatile {
                            // Resolve now — the whole point of the tier.
                            // The ticket still drains through the completer
                            // so a wedged gate triggers the mark-down
                            // backstop even if nothing stronger is queued.
                            let finished = engine.now_ns();
                            engine.counters.committed.inc();
                            let commit_wait = finished.saturating_sub(commit_submitted);
                            let response = finished.saturating_sub(job.meta.arrival);
                            engine.obs.commit_wait_ns.record(commit_wait);
                            engine.obs.tier_wait_ns[tier.code() as usize].record(commit_wait);
                            engine.obs.response_ns.record(response);
                            let _ = engine.completions.send(Completion::Commit(Box::new(
                                PendingDurability {
                                    ticket,
                                    reply: None,
                                    value: None,
                                    csn,
                                    ser_ts,
                                    restarts,
                                    arrival: job.meta.arrival,
                                    commit_submitted,
                                    requested: tier,
                                },
                            )));
                            break JobVerdict::Reply(Ok(TxnReceipt {
                                result: value,
                                csn,
                                ser_ts,
                                restarts,
                                response: Duration::from_nanos(response),
                                commit_wait: Duration::from_nanos(commit_wait),
                                acked_tier: DurabilityTier::Volatile,
                            }));
                        }
                        // Deferred tiers: hand the pending receipt to the
                        // completer and free this worker for the next
                        // transaction — the commit future resolves when
                        // the tier's gate does.
                        let _ = engine.completions.send(Completion::Commit(Box::new(
                            PendingDurability {
                                ticket,
                                reply: Some(job.reply.clone()),
                                value,
                                csn,
                                ser_ts,
                                restarts,
                                arrival: job.meta.arrival,
                                commit_submitted,
                                requested: tier,
                            },
                        )));
                        break JobVerdict::Deferred;
                    }
                    rodain_occ::ValidationOutcome::Restart(_) => {
                        drop(gate);
                        engine.obs.validation_restart.inc();
                        restarts += 1;
                        engine.counters.restarts.inc();
                        if !restart_fits(engine, &job.meta) {
                            break JobVerdict::Reply(Err(TxnError::ConflictAbort { restarts }));
                        }
                        continue;
                    }
                }
            }
            Err(abort) => {
                engine.cc.remove(id);
                if let Some(message) = abort.user_message {
                    engine.counters.aborted_user.inc();
                    break JobVerdict::Reply(Err(TxnError::UserAbort(message)));
                }
                match stop {
                    Some(CtxStop::Evicted) => {
                        engine.counters.aborted_evicted.inc();
                        break JobVerdict::Reply(Err(TxnError::Evicted));
                    }
                    Some(CtxStop::DeadlineExpired) => {
                        break JobVerdict::Reply(Err(TxnError::DeadlineExpired))
                    }
                    Some(CtxStop::Shutdown) => break JobVerdict::Reply(Err(TxnError::Shutdown)),
                    Some(CtxStop::Doomed) | None => {
                        restarts += 1;
                        engine.counters.restarts.inc();
                        if !restart_fits(engine, &job.meta) {
                            break JobVerdict::Reply(Err(TxnError::ConflictAbort { restarts }));
                        }
                        continue;
                    }
                }
            }
        }
    };

    // Common cleanup and accounting. Runs for deferred commits too: the
    // admission slot frees at validation, not at durability — that is what
    // lets a connection pipeline past an in-flight commit.
    let finished = engine.now_ns();
    {
        let mut sched = engine.sched.lock();
        sched.active.remove(id);
        sched.flags.remove(&id);
        sched.ready.account_busy(finished.saturating_sub(started));
        if matches!(verdict, JobVerdict::Reply(Err(TxnError::DeadlineExpired))) {
            sched.overload.record_miss(finished);
            engine.counters.aborted_deadline.inc();
        }
    }
    if let JobVerdict::Reply(outcome) = verdict {
        let _ = job.reply.send(outcome);
    }
}

// ----- completer ----------------------------------------------------------

/// The completer thread: awaits durability tickets in submission order and
/// resolves their commit futures. One thread suffices — acks arrive in CSN
/// order, so the head of the queue is the only ticket that ever actually
/// blocks; everything behind it resolves instantly once reached.
fn completer_loop(engine: &Arc<Engine>, completions: &Receiver<Completion>) {
    for msg in completions {
        match msg {
            Completion::Commit(pending) => complete_commit(engine, *pending),
            Completion::Shutdown => return,
        }
    }
}

/// Await one commit's durability ticket (with the gate-timeout → mirror
/// mark-down backstop the workers used to run inline) and resolve its
/// future with the achieved [`DurabilityTier`].
fn complete_commit(engine: &Arc<Engine>, pending: PendingDurability) {
    let mut waited = pending.ticket.recv_timeout(engine.commit_gate_timeout);
    if waited.is_err() && engine.replicator.read().note_gate_timeout() {
        // The mirror went silent (e.g. it rejected a corrupted frame and
        // never acked). Mark-down resolved every pending ticket through
        // the degraded path; re-await this one.
        engine.obs.gate_timeouts.inc();
        engine.recorder.emit(
            "gate-timeout",
            format!("commit gate timed out at csn {}", pending.csn.0),
        );
        waited = pending.ticket.recv_timeout(engine.commit_gate_timeout);
    }
    let gate_result = waited.unwrap_or(Err(TxnError::Replication("commit gate timeout".into())));
    engine.obs.inflight_futures.add(-1);
    let Some(reply) = pending.reply else {
        // Volatile-tier commit: already replied at the worker; this pass
        // only kept the gate-health backstop alive.
        return;
    };
    match gate_result {
        Ok(mut achieved) => {
            if pending.requested == DurabilityTier::DiskFsynced
                && achieved == DurabilityTier::MirrorAcked
            {
                // The mirror ack came back first; the records were already
                // appended to the local fallback at ship time, so one
                // flush upgrades the commit to its requested tier. With no
                // local log the ceiling stays MirrorAcked — the receipt
                // reports what actually held.
                match engine.replicator.read().fsync_local() {
                    Some(Ok(())) => achieved = DurabilityTier::DiskFsynced,
                    Some(Err(e)) => {
                        engine.counters.aborted_replication.inc();
                        let _ = reply.send(Err(e));
                        return;
                    }
                    None => {}
                }
            }
            let finished = engine.now_ns();
            engine.counters.committed.inc();
            let commit_wait = finished.saturating_sub(pending.commit_submitted);
            let response = finished.saturating_sub(pending.arrival);
            engine.obs.commit_wait_ns.record(commit_wait);
            engine.obs.tier_wait_ns[pending.requested.code() as usize].record(commit_wait);
            engine.obs.response_ns.record(response);
            let _ = reply.send(Ok(TxnReceipt {
                result: pending.value,
                csn: pending.csn,
                ser_ts: pending.ser_ts,
                restarts: pending.restarts,
                response: Duration::from_nanos(response),
                commit_wait: Duration::from_nanos(commit_wait),
                acked_tier: achieved,
            }));
        }
        Err(e) => {
            engine.counters.aborted_replication.inc();
            let _ = reply.send(Err(e));
        }
    }
}

/// Is there slack for one more execution attempt?
fn restart_fits(engine: &Engine, meta: &TaskMeta) -> bool {
    match (meta.class, meta.deadline) {
        (TxnClass::Firm, Some(d)) => engine.now_ns() + meta.est_cost <= d,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn volatile_db(workers: usize) -> Rodain {
        Rodain::builder().workers(workers).build().unwrap()
    }

    #[test]
    fn read_modify_write_commits() {
        let db = volatile_db(2);
        db.load_initial(ObjectId(1), Value::Int(10));
        let receipt = db
            .execute(TxnOptions::firm_ms(500), |ctx| {
                let v = ctx.read(ObjectId(1))?.unwrap().as_int().unwrap();
                ctx.write(ObjectId(1), Value::Int(v * 2))?;
                Ok(Some(Value::Int(v)))
            })
            .unwrap();
        assert_eq!(receipt.result, Some(Value::Int(10)));
        assert_eq!(receipt.restarts, 0);
        assert_eq!(db.get(ObjectId(1)), Some(Value::Int(20)));
        assert_eq!(db.stats().committed, 1);
        assert_eq!(db.replication_mode(), ReplicationMode::Volatile);
        assert_eq!(db.protocol(), Protocol::OccDati);
        assert_eq!(db.mirror_acks(), None);
    }

    #[test]
    fn csns_are_dense_in_commit_order() {
        let db = volatile_db(1);
        db.load_initial(ObjectId(1), Value::Int(0));
        let mut csns = Vec::new();
        for _ in 0..5 {
            let r = db
                .execute(TxnOptions::firm_ms(500), |ctx| {
                    ctx.read(ObjectId(1))?;
                    Ok(None)
                })
                .unwrap();
            csns.push(r.csn.0);
        }
        assert_eq!(csns, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn concurrent_increments_never_lose_updates() {
        let db = Arc::new(volatile_db(4));
        db.load_initial(ObjectId(7), Value::Int(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let mut committed = 0u64;
                for _ in 0..50 {
                    let result = db.execute(
                        TxnOptions::soft_ms(1_000).with_est_cost(Duration::from_micros(10)),
                        |ctx| {
                            let v = ctx.read(ObjectId(7))?.unwrap().as_int().unwrap();
                            ctx.write(ObjectId(7), Value::Int(v + 1))?;
                            Ok(None)
                        },
                    );
                    if result.is_ok() {
                        committed += 1;
                    }
                }
                committed
            }));
        }
        let committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let final_value = db.get(ObjectId(7)).unwrap().as_int().unwrap();
        assert_eq!(final_value as u64, committed, "lost update detected");
        assert!(committed > 0);
    }

    #[test]
    fn user_abort_discards_writes() {
        let db = volatile_db(1);
        db.load_initial(ObjectId(1), Value::Int(1));
        let result = db.execute(TxnOptions::firm_ms(500), |ctx| {
            ctx.write(ObjectId(1), Value::Int(999))?;
            Err(ctx.abort("changed my mind"))
        });
        assert_eq!(result, Err(TxnError::UserAbort("changed my mind".into())));
        assert_eq!(db.get(ObjectId(1)), Some(Value::Int(1)));
        assert_eq!(db.stats().aborted_user, 1);
    }

    #[test]
    fn expired_deadline_aborts() {
        let db = volatile_db(1);
        db.load_initial(ObjectId(1), Value::Int(1));
        // Occupy the single worker so the firm txn expires in the queue.
        let blocker = db.submit(TxnOptions::soft_ms(10_000), |_ctx| {
            std::thread::sleep(Duration::from_millis(60));
            Ok(None)
        });
        std::thread::sleep(Duration::from_millis(5));
        let result = db.execute(
            TxnOptions::firm_ms(10).with_est_cost(Duration::from_micros(100)),
            |ctx| {
                ctx.read(ObjectId(1))?;
                Ok(None)
            },
        );
        assert_eq!(result, Err(TxnError::DeadlineExpired));
        assert!(blocker.wait().is_ok());
        assert_eq!(db.stats().aborted_deadline, 1);
    }

    #[test]
    fn admission_limit_rejects_excess_load() {
        let db = Rodain::builder()
            .workers(1)
            .overload(OverloadConfig {
                base_limit: 2,
                min_limit: 1,
                window: 1_000_000_000,
                miss_tolerance: 1,
            })
            .build()
            .unwrap();
        db.load_initial(ObjectId(1), Value::Int(1));
        // Two slow soft transactions occupy the limit...
        let a = db.submit(TxnOptions::soft_ms(10_000), |_| {
            std::thread::sleep(Duration::from_millis(50));
            Ok(None)
        });
        let b = db.submit(TxnOptions::soft_ms(10_000), |_| {
            std::thread::sleep(Duration::from_millis(50));
            Ok(None)
        });
        std::thread::sleep(Duration::from_millis(5));
        // ...so a later, *less urgent* arrival is rejected.
        let c = db.execute(TxnOptions::soft_ms(60_000), |_| Ok(None));
        assert_eq!(c, Err(TxnError::AdmissionDenied));
        assert!(a.wait().is_ok());
        assert!(b.wait().is_ok());
        assert_eq!(db.stats().aborted_admission, 1);
    }

    #[test]
    fn completion_hook_fires_on_every_resolution_path() {
        use std::sync::atomic::AtomicUsize;
        let fired = Arc::new(AtomicUsize::new(0));
        let hook: CompletionHook = {
            let fired = Arc::clone(&fired);
            Arc::new(move || {
                fired.fetch_add(1, Ordering::SeqCst);
            })
        };

        // Commit path: the hook runs after the outcome is in the future,
        // so a try_wait right after observing the hook must succeed.
        let db = volatile_db(2);
        db.load_initial(ObjectId(1), Value::Int(1));
        let f = db.submit_hooked(
            TxnOptions::non_real_time(),
            |ctx| {
                ctx.write(ObjectId(1), Value::Int(2))?;
                Ok(Some(Value::Int(2)))
            },
            Arc::clone(&hook),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while fired.load(Ordering::SeqCst) < 1 {
            assert!(std::time::Instant::now() < deadline, "hook never fired");
            std::thread::yield_now();
        }
        assert!(matches!(f.try_wait(), Some(Ok(_))));

        // User-abort path.
        let f = db.submit_hooked(
            TxnOptions::non_real_time(),
            |ctx| Err(ctx.abort("no")),
            Arc::clone(&hook),
        );
        assert!(matches!(f.wait(), Err(TxnError::UserAbort(_))));
        assert_eq!(fired.load(Ordering::SeqCst), 2);

        // Admission-denial path: the rejection is sent before any worker
        // ever touches the job, and the hook must still fire.
        drop(db);
        let db = Rodain::builder()
            .workers(1)
            .overload(OverloadConfig {
                base_limit: 2,
                min_limit: 1,
                window: 1_000_000_000,
                miss_tolerance: 1,
            })
            .build()
            .unwrap();
        db.load_initial(ObjectId(1), Value::Int(1));
        let a = db.submit(TxnOptions::soft_ms(10_000), |_| {
            std::thread::sleep(Duration::from_millis(50));
            Ok(None)
        });
        let b = db.submit(TxnOptions::soft_ms(10_000), |_| {
            std::thread::sleep(Duration::from_millis(50));
            Ok(None)
        });
        std::thread::sleep(Duration::from_millis(5));
        let c = db.submit_hooked(TxnOptions::soft_ms(60_000), |_| Ok(None), Arc::clone(&hook));
        assert_eq!(c.wait(), Err(TxnError::AdmissionDenied));
        assert_eq!(fired.load(Ordering::SeqCst), 3);
        assert!(a.wait().is_ok());
        assert!(b.wait().is_ok());
    }

    #[test]
    fn urgent_arrival_evicts_queued_lazy_txn() {
        let db = Rodain::builder()
            .workers(1)
            .overload(OverloadConfig {
                base_limit: 2,
                min_limit: 1,
                window: 1_000_000_000,
                miss_tolerance: 1,
            })
            .build()
            .unwrap();
        db.load_initial(ObjectId(1), Value::Int(1));
        // Worker busy with a long, *least urgent* soft txn; a firm txn
        // queues behind it.
        let busy = db.submit(TxnOptions::soft_ms(20_000), |_| {
            std::thread::sleep(Duration::from_millis(60));
            Ok(None)
        });
        std::thread::sleep(Duration::from_millis(5));
        let queued = db.submit(TxnOptions::firm_ms(5_000), |ctx| {
            ctx.read(ObjectId(1))?;
            Ok(None)
        });
        std::thread::sleep(Duration::from_millis(5));
        // At the limit, an urgent firm arrival evicts the least urgent
        // active transaction — the sleeping soft one.
        let urgent = db.execute(TxnOptions::firm_ms(500), |ctx| {
            ctx.read(ObjectId(1))?;
            Ok(None)
        });
        assert!(urgent.is_ok());
        assert_eq!(busy.wait(), Err(TxnError::Evicted));
        assert!(queued.wait().is_ok());
        assert_eq!(db.stats().aborted_evicted, 1);
    }

    #[test]
    fn contingency_mode_survives_restart() {
        let dir = std::env::temp_dir().join(format!(
            "rodain-db-contingency-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Rodain::builder()
                .workers(2)
                .contingency_log(&dir)
                .build()
                .unwrap();
            assert_eq!(db.replication_mode(), ReplicationMode::Contingency);
            for i in 0..10i64 {
                db.execute(TxnOptions::firm_ms(5_000), move |ctx| {
                    ctx.write(ObjectId(i as u64), Value::Int(i * 11))?;
                    Ok(None)
                })
                .unwrap();
            }
        } // drop flushes and shuts down
        let cold = rodain_node::recover_store_from_disk(&dir).unwrap();
        assert_eq!(cold.stats.committed, 10);
        assert_eq!(
            cold.store.read(ObjectId(3)).map(|(v, _)| v),
            Some(Value::Int(33))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degenerate_builder_inputs() {
        // workers(0) is clamped to one executor, not a dead engine.
        let db = Rodain::builder().workers(0).build().unwrap();
        db.load_initial(ObjectId(1), Value::Int(1));
        let r = db
            .execute(TxnOptions::soft_ms(5_000), |ctx| ctx.read(ObjectId(1)))
            .unwrap();
        assert_eq!(r.result, Some(Value::Int(1)));

        // An empty contingency directory is a configuration bug.
        let err = match Rodain::builder().contingency_log("").build() {
            Err(e) => e,
            Ok(_) => panic!("empty contingency dir must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        // group_commit_batch(0) clamps to one request per flush.
        let dir = std::env::temp_dir().join(format!(
            "rodain-db-batch1-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Rodain::builder()
            .workers(1)
            .group_commit_batch(0)
            .contingency_log(&dir)
            .build()
            .unwrap();
        assert_eq!(db.replication_mode(), ReplicationMode::Contingency);
        db.execute(TxnOptions::soft_ms(5_000), |ctx| {
            ctx.write(ObjectId(1), Value::Int(7))?;
            Ok(None)
        })
        .unwrap();
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_real_time_transactions_complete() {
        let db = volatile_db(2);
        db.load_initial(ObjectId(1), Value::Int(5));
        let r = db
            .execute(TxnOptions::non_real_time(), |ctx| ctx.read(ObjectId(1)))
            .unwrap();
        assert_eq!(r.result, Some(Value::Int(5)));
    }

    #[test]
    fn every_protocol_runs_the_same_workload() {
        for protocol in Protocol::ALL {
            let db = Rodain::builder()
                .protocol(protocol)
                .workers(2)
                .build()
                .unwrap();
            db.load_initial(ObjectId(1), Value::Int(0));
            for _ in 0..20 {
                let _ = db.execute(TxnOptions::soft_ms(5_000), |ctx| {
                    let v = ctx.read(ObjectId(1))?.unwrap().as_int().unwrap();
                    ctx.write(ObjectId(1), Value::Int(v + 1))?;
                    Ok(None)
                });
            }
            let stats = db.stats();
            assert!(stats.committed > 0, "{protocol}: no commits ({stats:?})");
            let v = db.get(ObjectId(1)).unwrap().as_int().unwrap();
            assert_eq!(v as u64, stats.committed, "{protocol}: lost updates");
        }
    }

    #[test]
    fn snapshot_is_consistent_under_load() {
        let db = Arc::new(volatile_db(4));
        for i in 0..100u64 {
            db.load_initial(ObjectId(i), Value::Int(0));
        }
        let writer_db = Arc::clone(&db);
        let writer = std::thread::spawn(move || {
            for k in 0..50 {
                let _ = writer_db.execute(TxnOptions::soft_ms(5_000), move |ctx| {
                    // Invariant: objects 10 and 11 always change together.
                    ctx.write(ObjectId(10), Value::Int(k))?;
                    ctx.write(ObjectId(11), Value::Int(k))?;
                    Ok(None)
                });
            }
        });
        for _ in 0..20 {
            let snap = db.snapshot();
            let v10 = snap
                .objects
                .iter()
                .find(|(oid, _)| *oid == ObjectId(10))
                .map(|(_, o)| o.value.clone());
            let v11 = snap
                .objects
                .iter()
                .find(|(oid, _)| *oid == ObjectId(11))
                .map(|(_, o)| o.value.clone());
            assert_eq!(v10, v11, "snapshot split a transaction");
        }
        writer.join().unwrap();
    }

    #[test]
    fn receipts_report_the_achieved_tier_per_mode() {
        // Volatile engine: every request resolves at Volatile — the
        // receipt is honest about the ceiling, not the ask.
        let db = volatile_db(1);
        db.load_initial(ObjectId(1), Value::Int(1));
        for tier in DurabilityTier::ALL {
            let r = db
                .execute(TxnOptions::soft_ms(5_000).with_durability(tier), |ctx| {
                    ctx.read(ObjectId(1))
                })
                .unwrap();
            assert_eq!(r.acked_tier, DurabilityTier::Volatile, "requested {tier}");
        }

        // Contingency engine: Volatile requests skip the flush wait;
        // anything stronger rides the synchronous group commit.
        let dir = std::env::temp_dir().join(format!(
            "rodain-db-tiers-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Rodain::builder()
            .workers(2)
            .contingency_log(&dir)
            .build()
            .unwrap();
        db.load_initial(ObjectId(1), Value::Int(1));
        let v = db
            .execute(
                TxnOptions::soft_ms(5_000).with_durability(DurabilityTier::Volatile),
                |ctx| {
                    ctx.write(ObjectId(2), Value::Int(2))?;
                    Ok(None)
                },
            )
            .unwrap();
        assert_eq!(v.acked_tier, DurabilityTier::Volatile);
        for tier in [DurabilityTier::MirrorAcked, DurabilityTier::DiskFsynced] {
            let r = db
                .execute(TxnOptions::soft_ms(5_000).with_durability(tier), |ctx| {
                    ctx.write(ObjectId(3), Value::Int(3))?;
                    Ok(None)
                })
                .unwrap();
            assert_eq!(
                r.acked_tier,
                DurabilityTier::DiskFsynced,
                "requested {tier}"
            );
        }
        drop(db);
        // Every tier's records reached the log, volatile ones included.
        let cold = rodain_node::recover_store_from_disk(&dir).unwrap();
        assert_eq!(cold.stats.committed, 3);
        assert_eq!(
            cold.store.read(ObjectId(2)).map(|(v, _)| v),
            Some(Value::Int(2))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_pipelines_and_futures_resolve_out_of_band() {
        let db = volatile_db(2);
        for i in 0..16u64 {
            db.load_initial(ObjectId(i), Value::Int(0));
        }
        // Queue a burst of independent commits without waiting between
        // submissions, then collect every future.
        let futures: Vec<CommitFuture> = (0..16u64)
            .map(|i| {
                db.submit(TxnOptions::soft_ms(10_000), move |ctx| {
                    let v = ctx.read(ObjectId(i))?.unwrap().as_int().unwrap();
                    ctx.write(ObjectId(i), Value::Int(v + 1))?;
                    Ok(None)
                })
            })
            .collect();
        for fut in futures {
            let receipt = fut.wait().unwrap();
            assert_eq!(receipt.acked_tier, DurabilityTier::Volatile);
        }
        assert_eq!(db.stats().committed, 16);
        for i in 0..16u64 {
            assert_eq!(db.get(ObjectId(i)), Some(Value::Int(1)));
        }
    }

    #[test]
    fn commit_future_polling_surfaces_the_outcome_once() {
        let db = volatile_db(1);
        db.load_initial(ObjectId(1), Value::Int(7));
        let fut = db.submit(TxnOptions::soft_ms(5_000), |ctx| ctx.read(ObjectId(1)));
        let deadline = Instant::now() + Duration::from_secs(5);
        let outcome = loop {
            if let Some(outcome) = fut.try_wait() {
                break outcome;
            }
            assert!(Instant::now() < deadline, "future never resolved");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(outcome.unwrap().result, Some(Value::Int(7)));
        // The channel is one-shot: once the sender side is gone, a second
        // poll reports shutdown-style disconnection rather than hanging.
        let deadline = Instant::now() + Duration::from_secs(5);
        while fut.try_wait() != Some(Err(TxnError::Shutdown)) {
            assert!(Instant::now() < deadline, "consumed future never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        let ready = CommitFuture::ready(Err(TxnError::AdmissionDenied));
        assert_eq!(
            ready.wait_timeout(Duration::from_millis(10)),
            Some(Err(TxnError::AdmissionDenied))
        );
    }

    fn test_dirs(name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let base = std::env::temp_dir().join(format!(
            "rodain-db-cp-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        (base.join("log"), base.join("snapshots"))
    }

    #[test]
    fn force_checkpoint_requires_configuration() {
        let db = volatile_db(1);
        let err = db.force_checkpoint().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn forced_checkpoint_on_empty_store_installs_empty_snapshot() {
        let (log_dir, snap_dir) = test_dirs("empty");
        let db = Rodain::builder()
            .workers(1)
            .contingency_log(&log_dir)
            .checkpoints(&snap_dir, CheckpointPolicy::default())
            .build()
            .unwrap();
        let path = db.force_checkpoint().unwrap();
        assert!(path.exists());
        let (snapshot, upto, _) = rodain_log::read_latest_snapshot(&snap_dir)
            .unwrap()
            .expect("snapshot installed");
        assert!(snapshot.is_empty());
        assert_eq!(upto, Csn(1)); // no commits yet: boundary is last_csn + 1
        drop(db);
        let _ = std::fs::remove_dir_all(log_dir.parent().unwrap());
    }

    #[test]
    fn fuzzy_checkpoint_truncates_log_and_recovery_matches_live_state() {
        let (log_dir, snap_dir) = test_dirs("recover");
        // Tiny segments so truncation has something to delete.
        let storage = rodain_log::LogStorage::open(rodain_log::LogStorageConfig {
            fsync: false,
            segment_bytes: 256,
            ..rodain_log::LogStorageConfig::new(&log_dir)
        })
        .unwrap();
        let db = Rodain::builder()
            .workers(2)
            .contingency_storage(storage)
            .checkpoints(&snap_dir, CheckpointPolicy::default())
            .build()
            .unwrap();
        for i in 0..40i64 {
            db.execute(TxnOptions::firm_ms(5_000), move |ctx| {
                ctx.write(ObjectId(i as u64 % 8), Value::Int(i))?;
                Ok(None)
            })
            .unwrap();
        }
        db.force_checkpoint().unwrap();
        // Tail commits after the checkpoint.
        for i in 40..48i64 {
            db.execute(TxnOptions::firm_ms(5_000), move |ctx| {
                ctx.write(ObjectId(i as u64 % 8), Value::Int(i))?;
                Ok(None)
            })
            .unwrap();
        }
        let live: Vec<_> = (0..8u64).map(|o| db.get(ObjectId(o))).collect();
        let snap = db.metrics();
        assert!(snap.counter("checkpoints_total").unwrap_or(0) >= 1);
        assert!(
            snap.counter("checkpoint_truncated_segments_total")
                .unwrap_or(0)
                > 0,
            "tiny segments behind the boundary must be GC'd"
        );
        assert!(snap.gauge("checkpoint_csn").unwrap_or(0) > 0);
        drop(db);
        // Bounded recovery: snapshot restore + tail replay equals live state.
        let cold = rodain_node::recover_with_checkpoint(&log_dir, &snap_dir).unwrap();
        for (o, want) in live.iter().enumerate() {
            assert_eq!(
                cold.store.read(ObjectId(o as u64)).map(|(v, _)| v),
                *want,
                "object {o} diverged after checkpointed recovery"
            );
        }
        assert!(
            cold.stats.committed < 48,
            "truncation should have removed early segments (tail replayed {} commits)",
            cold.stats.committed
        );
        let _ = std::fs::remove_dir_all(log_dir.parent().unwrap());
    }

    #[test]
    fn background_checkpointer_fires_on_interval() {
        let (log_dir, snap_dir) = test_dirs("interval");
        let db = Rodain::builder()
            .workers(1)
            .contingency_log(&log_dir)
            .checkpoints(
                &snap_dir,
                CheckpointPolicy::default().with_interval(Duration::from_millis(50)),
            )
            .build()
            .unwrap();
        db.execute(TxnOptions::firm_ms(5_000), |ctx| {
            ctx.write(ObjectId(1), Value::Int(1))?;
            Ok(None)
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if db.metrics().counter("checkpoints_total").unwrap_or(0) >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "checkpointer never fired");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(rodain_log::read_latest_snapshot(&snap_dir)
            .unwrap()
            .is_some());
        drop(db);
        let _ = std::fs::remove_dir_all(log_dir.parent().unwrap());
    }
}
