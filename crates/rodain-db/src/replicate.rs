//! Commit-path replication: mirror shipping, contingency disk, volatile.
//!
//! Mirrored mode runs a dedicated **shipper thread** (DESIGN.md §12):
//! workers enqueue validated commit groups, the shipper restores dense CSN
//! order through a holdback buffer and coalesces consecutive groups into
//! bounded multi-record `Records` frames. Because every frame carries a
//! contiguous CSN run over an ordered transport, the mirror acknowledges
//! only the **highest** commit CSN per frame and the primary resolves every
//! pending ticket at or below it — one ack per frame instead of one per
//! commit.

use crate::error::TxnError;
use crate::options::{DurabilityTier, MirrorLossPolicy};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rodain_log::{GroupCommitLog, LogRecord, LogStorage, LogStorageConfig, StorageBackend};
use rodain_net::{NetError, Transport};
use rodain_node::Message;
use rodain_obs::{Counter, Gauge, Histogram, Recorder};
use rodain_occ::Csn;
use rodain_store::FxHashMap;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Attempts for one frame before the link is declared dead. Only
/// [`NetError::Io`] is retried — `Disconnected` is permanent under the
/// crash-stop transport contract.
const SEND_ATTEMPTS: u32 = 3;

/// Initial backoff between send retries (doubles per attempt).
const SEND_BACKOFF: Duration = Duration::from_micros(100);

/// Shipper wake-up period while idle (also bounds how quickly a mark-down
/// triggered elsewhere drains the shipper's own backlog).
const SHIP_POLL: Duration = Duration::from_millis(20);

/// Send `frame`, retrying transient I/O errors with exponential backoff.
/// The frame is encoded once by the caller; retries clone the cheap
/// refcounted [`Bytes`] handle, never re-encode.
fn send_with_retry(transport: &dyn Transport, frame: Bytes) -> Result<(), NetError> {
    let mut backoff = SEND_BACKOFF;
    let mut attempt = 1;
    loop {
        match transport.send(frame.clone()) {
            Ok(()) => return Ok(()),
            // Crash-stop: the peer is gone for good; retrying is useless.
            Err(NetError::Disconnected) => return Err(NetError::Disconnected),
            Err(err @ NetError::Io(_)) => {
                if attempt >= SEND_ATTEMPTS {
                    return Err(err);
                }
                attempt += 1;
                std::thread::sleep(backoff);
                backoff *= 2;
            }
        }
    }
}

/// Batching knobs for the mirrored-mode shipper thread.
///
/// A frame closes when it holds `max_records` log records or `max_bytes`
/// of (approximate) payload, whichever comes first; a single commit group
/// larger than either bound still ships alone in one frame. `max_delay`
/// is how long the shipper holds an open batch waiting for more commits —
/// the default `0` only coalesces what is already queued (opportunistic
/// batching), so an isolated commit never waits on the knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShipBatchConfig {
    /// Most log records per shipped frame (min 1).
    pub max_records: usize,
    /// Approximate payload-byte bound per shipped frame (min 1).
    pub max_bytes: usize,
    /// How long an open batch may wait for further commit groups.
    pub max_delay: Duration,
}

impl Default for ShipBatchConfig {
    fn default() -> Self {
        ShipBatchConfig {
            max_records: 512,
            max_bytes: 1 << 20,
            max_delay: Duration::ZERO,
        }
    }
}

impl ShipBatchConfig {
    /// One commit group per frame — the pre-batching wire behaviour,
    /// used as the baseline in the COMMITPIPE experiment.
    #[must_use]
    pub fn unbatched() -> Self {
        ShipBatchConfig {
            max_records: 1,
            ..ShipBatchConfig::default()
        }
    }

    fn normalized(self) -> Self {
        ShipBatchConfig {
            max_records: self.max_records.max(1),
            max_bytes: self.max_bytes.max(1),
            max_delay: self.max_delay,
        }
    }
}

/// The engine's current durability/replication mode (observable status).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicationMode {
    /// No durability: commits complete at validation.
    Volatile,
    /// Single node: synchronous group-commit to the local disk.
    Contingency,
    /// Primary + live mirror: the mirror's commit acknowledgement gates
    /// the commit.
    Mirrored,
}

impl ReplicationMode {
    /// Stable numeric encoding published as the `replication_mode` gauge
    /// (see `METRICS.md`): 0 = Volatile, 1 = Contingency, 2 = Mirrored.
    #[must_use]
    pub fn as_gauge(self) -> i64 {
        match self {
            ReplicationMode::Volatile => 0,
            ReplicationMode::Contingency => 1,
            ReplicationMode::Mirrored => 2,
        }
    }
}

/// A commit ticket: resolves when the commit group is durable/acknowledged,
/// carrying the [`DurabilityTier`] the resolution actually achieved (mirror
/// ack → `MirrorAcked`, local group flush → `DiskFsynced`, degraded with no
/// fallback → `Volatile`).
pub(crate) type CommitTicket = Receiver<Result<DurabilityTier, TxnError>>;

fn resolved(result: Result<DurabilityTier, TxnError>) -> CommitTicket {
    let (tx, rx) = bounded(1);
    let _ = tx.send(result);
    rx
}

pub(crate) enum Replicator {
    Volatile,
    Contingency(GroupCommitLog),
    Mirrored(MirrorLink),
}

/// Default commit requests coalesced per group-commit flush.
pub(crate) const GROUP_COMMIT_BATCH: usize = 64;

impl Replicator {
    pub(crate) fn contingency(
        dir: &std::path::Path,
        rec: &Recorder,
        max_batch: usize,
    ) -> std::io::Result<Replicator> {
        let storage = LogStorage::open(LogStorageConfig::new(dir))?;
        Ok(Replicator::Contingency(GroupCommitLog::spawn_observed(
            storage, max_batch, rec,
        )))
    }

    /// Contingency mode over a pre-built storage backend (the chaos harness
    /// injects a fault-wrapping backend here).
    pub(crate) fn contingency_backend(
        backend: Box<dyn StorageBackend>,
        rec: &Recorder,
        max_batch: usize,
    ) -> Replicator {
        Replicator::Contingency(GroupCommitLog::spawn_dyn_observed(backend, max_batch, rec))
    }

    /// A commit ticket timed out. In mirrored mode with the link still
    /// nominally up, declare the mirror dead: close the transport (so the
    /// peer's watchdog fires promptly) and fail every pending commit over
    /// to the fallback — the caller then re-awaits its ticket, which
    /// resolves through the degraded path. Returns whether a failover was
    /// actually triggered.
    pub(crate) fn note_gate_timeout(&self) -> bool {
        match self {
            Replicator::Mirrored(link) if !link.is_down() => {
                link.mark_down();
                true
            }
            _ => false,
        }
    }

    pub(crate) fn mode(&self) -> ReplicationMode {
        match self {
            Replicator::Volatile => ReplicationMode::Volatile,
            Replicator::Contingency(_) => ReplicationMode::Contingency,
            Replicator::Mirrored(link) if link.is_down() => match link.shared.fallback {
                Some(_) => ReplicationMode::Contingency,
                None => ReplicationMode::Volatile,
            },
            Replicator::Mirrored(_) => ReplicationMode::Mirrored,
        }
    }

    /// Checkpoint support: truncate the local disk log below `upto` (only
    /// meaningful when a local log exists), keeping the newest `retain`
    /// otherwise-deletable segments. Returns removed segment count.
    pub(crate) fn truncate_before_retaining(
        &self,
        upto: Csn,
        retain: usize,
    ) -> std::io::Result<usize> {
        match self {
            Replicator::Contingency(group) => group.truncate_before_retaining(upto, retain),
            Replicator::Mirrored(link) => match &link.shared.fallback {
                Some(group) => group.truncate_before_retaining(upto, retain),
                None => Ok(0),
            },
            Replicator::Volatile => Ok(0),
        }
    }

    /// Highest commit CSN the live mirror has acknowledged — the
    /// checkpointer's truncation fence. `None` when no live mirror exists
    /// (volatile/contingency modes, or a mirrored link already marked
    /// down), in which case the local log is the only copy and truncation
    /// is bounded by the checkpoint boundary alone.
    pub(crate) fn ack_watermark(&self) -> Option<u64> {
        match self {
            Replicator::Mirrored(link) if !link.is_down() => Some(link.ack_watermark()),
            _ => None,
        }
    }

    /// Bytes the local disk log currently occupies, when one exists — the
    /// checkpointer's `log_bytes_trigger` input and the `log_on_disk_bytes`
    /// gauge source.
    pub(crate) fn log_on_disk_bytes(&self) -> Option<u64> {
        let group: &GroupCommitLog = match self {
            Replicator::Contingency(group) => group,
            Replicator::Mirrored(link) => link.shared.fallback.as_deref()?,
            Replicator::Volatile => return None,
        };
        group.storage_stats().ok().map(|s| s.on_disk_bytes)
    }

    /// Append an informational record (checkpoint marker) without gating a
    /// commit on it. Bypasses the shipper: info records carry no CSN and
    /// must not occupy a slot in the CSN-ordered holdback.
    pub(crate) fn append_info(&self, record: LogRecord) {
        match self {
            Replicator::Contingency(group) => {
                let _ = group.append_async(vec![record]);
            }
            Replicator::Mirrored(link) => {
                if !link.is_down() {
                    let _ = send_with_retry(
                        link.shared.transport.as_ref(),
                        Message::Records(vec![record]).encode(),
                    );
                } else if let Some(group) = &link.shared.fallback {
                    let _ = group.append_async(vec![record]);
                }
            }
            Replicator::Volatile => {}
        }
    }

    /// Ship a commit group; the ticket resolves when the transaction may
    /// report success to the client at the requested [`DurabilityTier`]
    /// (or the strongest tier this mode can actually deliver). Every
    /// commit group ships regardless of tier — cumulative highest-CSN
    /// acks require dense CSNs on the wire — the tier only decides which
    /// gate the ticket waits for.
    pub(crate) fn ship(
        &self,
        csn: Csn,
        records: Vec<LogRecord>,
        tier: DurabilityTier,
    ) -> CommitTicket {
        match self {
            Replicator::Volatile => resolved(Ok(DurabilityTier::Volatile)),
            Replicator::Contingency(group) => {
                if tier == DurabilityTier::Volatile {
                    // Volatile tier skips the flush wait: the records join
                    // the log writer's queue and ride a later flush.
                    return resolved(
                        group
                            .append_async(records)
                            .map(|()| DurabilityTier::Volatile)
                            .map_err(|e| TxnError::Replication(e.to_string())),
                    );
                }
                // Synchronous local disk: the log writer thread batches
                // concurrent committers into one flush (group commit).
                resolved(
                    group
                        .commit_sync(records)
                        .map(|()| DurabilityTier::DiskFsynced)
                        .map_err(|e| TxnError::Replication(e.to_string())),
                )
            }
            Replicator::Mirrored(link) => link.ship(csn, records, tier),
        }
    }

    /// Synchronously flush the local disk log, if this mode has one — how
    /// the completer upgrades a mirror-acked commit to
    /// [`DurabilityTier::DiskFsynced`] (its records were appended to the
    /// fallback at ship time; the flush covers them). `None` when no local
    /// log exists and the upgrade is impossible.
    pub(crate) fn fsync_local(&self) -> Option<Result<(), TxnError>> {
        let group: &GroupCommitLog = match self {
            Replicator::Contingency(group) => group,
            Replicator::Mirrored(link) => link.shared.fallback.as_deref()?,
            Replicator::Volatile => return None,
        };
        Some(
            group
                .flush_sync()
                .map_err(|e| TxnError::Replication(e.to_string())),
        )
    }
}

struct PendingCommit {
    records: Vec<LogRecord>,
    done: Sender<Result<DurabilityTier, TxnError>>,
    /// When the commit group left the primary — the ack's arrival closes
    /// the `mirror_ship_rtt_ns` measurement.
    sent_at: Instant,
    /// The records were already appended to the fallback log at ship time
    /// (a `DiskFsynced`-tier commit): the degraded path must flush, not
    /// append again — a duplicate CSN in the log would replay twice.
    on_disk: bool,
}

/// A validated commit group queued for the shipper thread.
struct ShipRequest {
    csn: u64,
    records: Vec<LogRecord>,
    done: Sender<Result<DurabilityTier, TxnError>>,
    /// See [`PendingCommit::on_disk`].
    on_disk: bool,
}

/// State shared between the [`MirrorLink`] handle, the ack-reader thread
/// and the shipper thread.
struct LinkShared {
    transport: Arc<dyn Transport>,
    /// In-flight commits by CSN, registered by the shipper *before* the
    /// frame is sent. FxHash: small dense integer keys on the hot path.
    pending: Mutex<FxHashMap<u64, PendingCommit>>,
    down: AtomicBool,
    /// Highest commit CSN the mirror has acknowledged. Checkpoint
    /// truncation is fenced on it: a log segment may only be deleted once
    /// the mirror's acknowledged prefix has passed every commit in it, so
    /// each GC'd commit has two independent surviving copies (snapshot on
    /// primary disk, applied state on the mirror). Starts at
    /// `start_csn - 1`: the snapshot handshake proved the mirror holds
    /// everything below the stream start.
    ack_watermark: AtomicU64,
    /// Pre-opened contingency log used if/when the mirror dies.
    fallback: Option<Arc<GroupCommitLog>>,
    /// Commit acknowledgements — counted per *commit* resolved, so one
    /// coalesced frame ack moves it by the whole batch.
    acks: Counter,
    /// Degraded-mode value the `replication_mode` gauge takes on failover.
    mode_gauge: Gauge,
    rec: Recorder,
    stop: AtomicBool,
}

impl LinkShared {
    fn degraded_mode(&self) -> ReplicationMode {
        match self.fallback {
            Some(_) => ReplicationMode::Contingency,
            None => ReplicationMode::Volatile,
        }
    }

    /// Resolve one commit group through the degraded path. Returns the
    /// tier the degraded resolution achieves: `DiskFsynced` through the
    /// fallback log, `Volatile` when there is none — the receipt reports
    /// it either way.
    fn degraded_result(
        &self,
        records: Vec<LogRecord>,
        on_disk: bool,
    ) -> Result<DurabilityTier, TxnError> {
        match &self.fallback {
            Some(group) => {
                let flushed = if on_disk {
                    // Already appended at ship time; only the flush is owed.
                    group.flush_sync()
                } else {
                    group.commit_sync(records)
                };
                flushed
                    .map(|()| DurabilityTier::DiskFsynced)
                    .map_err(|e| TxnError::Replication(e.to_string()))
            }
            None => Ok(DurabilityTier::Volatile),
        }
    }

    /// Resolve every pending commit through the fallback (or as plain
    /// volatile success when there is none).
    fn drain_pending(&self) {
        let drained: Vec<PendingCommit> = {
            let mut map = self.pending.lock();
            map.drain().map(|(_, p)| p).collect()
        };
        for p in drained {
            let result = self.degraded_result(p.records, p.on_disk);
            let _ = p.done.send(result);
        }
    }

    /// Declare the mirror dead: fail every pending commit over to the
    /// fallback and close the transport so the peer (if it is actually
    /// alive, e.g. it stopped acking because a corrupted frame was
    /// rejected) observes the disconnect and exits. Idempotent. The
    /// shipper notices `down` at its next wake-up and drains its own
    /// holdback/queue the same way.
    fn mark_down(&self) {
        if self.down.swap(true, Ordering::AcqRel) {
            return;
        }
        let degraded = self.degraded_mode();
        self.mode_gauge.set(degraded.as_gauge());
        self.rec.emit(
            "mirror-down",
            format!("marked down; degrading to {degraded:?}"),
        );
        self.transport.close();
        self.drain_pending();
    }
}

/// The primary's side of the log-shipping protocol.
pub(crate) struct MirrorLink {
    shared: Arc<LinkShared>,
    ship_tx: Sender<ShipRequest>,
    ack_thread: Option<std::thread::JoinHandle<()>>,
    ship_thread: Option<std::thread::JoinHandle<()>>,
}

impl MirrorLink {
    /// Wire up a link over `transport` (the snapshot handshake has already
    /// completed; the live stream resumes at `start_csn`). `loss_policy`
    /// decides the degraded mode; `batch` bounds the shipper's frames.
    /// Publishes `mirror_ship_rtt_ns`, `mirror_acks_total`,
    /// `ship_batch_records`/`ship_batch_bytes` and keeps the
    /// `replication_mode` gauge honest through failover (see `METRICS.md`).
    pub(crate) fn new(
        transport: Arc<dyn Transport>,
        loss_policy: &MirrorLossPolicy,
        rec: &Recorder,
        start_csn: Csn,
        batch: ShipBatchConfig,
    ) -> std::io::Result<MirrorLink> {
        let fallback = match loss_policy {
            MirrorLossPolicy::Contingency { dir, segment_bytes } => {
                let mut cfg = LogStorageConfig::new(dir);
                if let Some(bytes) = segment_bytes {
                    cfg.segment_bytes = *bytes;
                }
                let storage = LogStorage::open(cfg)?;
                Some(Arc::new(GroupCommitLog::spawn_observed(
                    storage,
                    GROUP_COMMIT_BATCH,
                    rec,
                )))
            }
            MirrorLossPolicy::ContinueVolatile => None,
        };
        let shared = Arc::new(LinkShared {
            transport,
            pending: Mutex::new(FxHashMap::default()),
            down: AtomicBool::new(false),
            ack_watermark: AtomicU64::new(start_csn.0.saturating_sub(1)),
            fallback,
            acks: rec.counter("mirror_acks_total"),
            mode_gauge: rec.gauge("replication_mode"),
            rec: rec.clone(),
            stop: AtomicBool::new(false),
        });

        let rtt = rec.histogram("mirror_ship_rtt_ns");
        let ack_shared = Arc::clone(&shared);
        let ack_thread = std::thread::Builder::new()
            .name("rodain-ack-reader".into())
            .spawn(move || ack_loop(&ack_shared, &rtt))
            .expect("spawn ack reader");

        let (ship_tx, ship_rx) = unbounded();
        let shipper = Shipper {
            shared: Arc::clone(&shared),
            queue: ship_rx,
            holdback: BTreeMap::new(),
            next_csn: start_csn.0,
            batch: batch.normalized(),
            batch_records: rec.histogram("ship_batch_records"),
            batch_bytes: rec.histogram("ship_batch_bytes"),
        };
        let ship_thread = std::thread::Builder::new()
            .name("rodain-shipper".into())
            .spawn(move || shipper.run())
            .expect("spawn shipper");

        Ok(MirrorLink {
            shared,
            ship_tx,
            ack_thread: Some(ack_thread),
            ship_thread: Some(ship_thread),
        })
    }

    pub(crate) fn is_down(&self) -> bool {
        self.shared.down.load(Ordering::Acquire)
    }

    /// See [`LinkShared::mark_down`].
    pub(crate) fn mark_down(&self) {
        self.shared.mark_down();
    }

    /// Commit acknowledgements received (per commit, not per ack frame).
    pub(crate) fn acks(&self) -> u64 {
        self.shared.acks.get()
    }

    /// See [`LinkShared::ack_watermark`].
    pub(crate) fn ack_watermark(&self) -> u64 {
        self.shared.ack_watermark.load(Ordering::Acquire)
    }

    fn ship_degraded(&self, records: Vec<LogRecord>, on_disk: bool) -> CommitTicket {
        resolved(self.shared.degraded_result(records, on_disk))
    }

    fn ship(&self, csn: Csn, records: Vec<LogRecord>, tier: DurabilityTier) -> CommitTicket {
        if self.is_down() {
            return self.ship_degraded(records, false);
        }
        // A DiskFsynced request also appends to the fallback log *before*
        // shipping: the mirror ack then only owes a local flush (the
        // completer's `fsync_local` upgrade), and a mark-down drain flushes
        // instead of re-appending (`on_disk`). Without a fallback the
        // strongest deliverable tier is MirrorAcked — the receipt says so.
        let mut on_disk = false;
        if tier == DurabilityTier::DiskFsynced {
            if let Some(group) = &self.shared.fallback {
                match group.append_async(records.clone()) {
                    Ok(()) => on_disk = true,
                    Err(e) => {
                        // The local log is broken, so the tier is
                        // unachievable — but the group must still ship to
                        // keep wire CSNs dense for cumulative acks. Ship
                        // with a throwaway ticket and fail the commit.
                        let (done, _drop_rx) = bounded(1);
                        let _ = self.ship_tx.send(ShipRequest {
                            csn: csn.0,
                            records,
                            done,
                            on_disk: false,
                        });
                        return resolved(Err(TxnError::Replication(e.to_string())));
                    }
                }
            }
        }
        let (done, rx) = bounded(1);
        match self.ship_tx.send(ShipRequest {
            csn: csn.0,
            records,
            done,
            on_disk,
        }) {
            Ok(()) => rx,
            // Shipper already stopped (link torn down mid-call): the
            // request still owns its records, resolve it right here.
            Err(send_err) => self.ship_degraded(send_err.0.records, on_disk),
        }
    }
}

impl Drop for MirrorLink {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.transport.close();
        if let Some(handle) = self.ship_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.ack_thread.take() {
            let _ = handle.join();
        }
        // Anything sent but never acked resolves through the degraded
        // path rather than leaving its committer to hit the gate timeout.
        self.shared.drain_pending();
    }
}

/// Reads mirror acks and feeds the peer's watchdog. One `CommitAck{csn}`
/// resolves **every** pending ticket at or below `csn`: the shipper only
/// emits contiguous CSN runs in order, so an ack for a frame's highest
/// CSN proves receipt of everything before it.
fn ack_loop(shared: &LinkShared, rtt: &Histogram) {
    let mut hb_seq = 0u64;
    let mut last_hb = Instant::now();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match shared.transport.recv_timeout(Duration::from_millis(20)) {
            Ok(Some(frame)) => {
                if let Ok(Message::CommitAck { csn, .. }) = Message::decode(frame) {
                    shared.ack_watermark.fetch_max(csn.0, Ordering::AcqRel);
                    let batch: Vec<PendingCommit> = {
                        let mut map = shared.pending.lock();
                        let keys: Vec<u64> = map.keys().filter(|k| **k <= csn.0).copied().collect();
                        keys.into_iter().filter_map(|k| map.remove(&k)).collect()
                    };
                    shared.acks.add(batch.len() as u64);
                    for p in batch {
                        rtt.record_elapsed(p.sent_at);
                        let _ = p.done.send(Ok(DurabilityTier::MirrorAcked));
                    }
                }
                // Heartbeats and anything else just prove liveness,
                // which recv success already did.
            }
            Ok(None) => {}
            Err(_) => {
                if shared.stop.load(Ordering::Acquire) {
                    return; // orderly teardown, not a mirror failure
                }
                shared.mark_down();
                return;
            }
        }
        // Keep the mirror's watchdog fed while idle.
        if last_hb.elapsed() >= Duration::from_millis(50) {
            last_hb = Instant::now();
            hb_seq += 1;
            let _ = shared
                .transport
                .send(Message::Heartbeat { seq: hb_seq }.encode());
        }
    }
}

/// The dedicated shipper thread's state.
///
/// Workers finish validation (and thus learn their CSN) in nondeterministic
/// order, but cumulative acks are only sound if the wire carries CSNs in
/// dense order. The holdback map buffers early arrivals; frames always ship
/// the contiguous run starting at `next_csn`. Every assigned CSN reaches
/// [`Replicator::ship`] (commit groups are built under the commit gate
/// immediately after validation), so a gap is only ever a few microseconds
/// of scheduling — and if a committer dies mid-gap, the engine's
/// gate-timeout → mark-down backstop drains everything here degraded.
struct Shipper {
    shared: Arc<LinkShared>,
    queue: Receiver<ShipRequest>,
    holdback: BTreeMap<u64, ShipRequest>,
    next_csn: u64,
    batch: ShipBatchConfig,
    batch_records: Histogram,
    batch_bytes: Histogram,
}

impl Shipper {
    fn run(mut self) {
        loop {
            if self.shared.stop.load(Ordering::Acquire) {
                self.drain_all();
                return;
            }
            match self.queue.recv_timeout(SHIP_POLL) {
                Ok(req) => {
                    self.admit(req);
                    // Opportunistic coalescing: whatever is already queued
                    // joins this frame for free.
                    while let Ok(more) = self.queue.try_recv() {
                        self.admit(more);
                    }
                    if !self.batch.max_delay.is_zero() {
                        self.wait_for_more();
                    }
                    self.flush_ready();
                }
                Err(RecvTimeoutError::Timeout) => self.flush_ready(),
                Err(RecvTimeoutError::Disconnected) => {
                    self.drain_all();
                    return;
                }
            }
        }
    }

    fn admit(&mut self, req: ShipRequest) {
        if self.shared.down.load(Ordering::Acquire) {
            let result = self.shared.degraded_result(req.records, req.on_disk);
            let _ = req.done.send(result);
        } else {
            self.holdback.insert(req.csn, req);
        }
    }

    /// Number of records in the contiguous run currently ready to ship.
    fn ready_records(&self) -> usize {
        let mut expect = self.next_csn;
        let mut n = 0;
        for (&csn, req) in &self.holdback {
            if csn != expect {
                break;
            }
            n += req.records.len();
            expect += 1;
        }
        n
    }

    /// Hold the open batch up to `max_delay` hoping for more commits.
    fn wait_for_more(&mut self) {
        let deadline = Instant::now() + self.batch.max_delay;
        while self.ready_records() < self.batch.max_records {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.queue.recv_timeout(deadline - now) {
                Ok(req) => self.admit(req),
                Err(_) => break,
            }
        }
    }

    /// Ship every contiguous CSN run at the head of the holdback, split
    /// into frames bounded by the batch knobs.
    fn flush_ready(&mut self) {
        if self.shared.down.load(Ordering::Acquire) {
            self.drain_all();
            return;
        }
        loop {
            let mut reqs: Vec<ShipRequest> = Vec::new();
            let mut n_records = 0usize;
            let mut approx_bytes = 0usize;
            while let Some((&csn, req)) = self.holdback.iter().next() {
                if csn != self.next_csn {
                    break;
                }
                if !reqs.is_empty()
                    && (n_records >= self.batch.max_records || approx_bytes >= self.batch.max_bytes)
                {
                    break;
                }
                n_records += req.records.len();
                approx_bytes += req
                    .records
                    .iter()
                    .map(|r| 8 + r.approx_size())
                    .sum::<usize>();
                let req = self.holdback.remove(&csn).expect("head entry exists");
                self.next_csn += 1;
                reqs.push(req);
            }
            if reqs.is_empty() {
                return;
            }
            self.send_batch(reqs, n_records, approx_bytes);
            if self.shared.down.load(Ordering::Acquire) {
                self.drain_all();
                return;
            }
        }
    }

    /// Encode one frame for the batch, register every ticket in the
    /// pending map *before* the send (an ack must never race a ticket that
    /// is not yet registered), then ship it.
    fn send_batch(&mut self, reqs: Vec<ShipRequest>, n_records: usize, approx_bytes: usize) {
        let groups: Vec<&[LogRecord]> = reqs.iter().map(|r| r.records.as_slice()).collect();
        let frame = Message::encode_record_groups(&groups, 5 + approx_bytes);
        self.batch_records.record(n_records as u64);
        self.batch_bytes.record(frame.len() as u64);
        let sent_at = Instant::now();
        {
            let mut pending = self.shared.pending.lock();
            for req in reqs {
                pending.insert(
                    req.csn,
                    PendingCommit {
                        records: req.records,
                        done: req.done,
                        sent_at,
                        on_disk: req.on_disk,
                    },
                );
            }
        }
        if send_with_retry(self.shared.transport.as_ref(), frame).is_err() {
            self.shared.mark_down();
        }
        // `mark_down` drains the pending map once. If another thread's
        // `mark_down` ran between `flush_ready`'s check and the
        // registration above, its drain came too early for these tickets
        // and ours returned at the `down` swap: drain again, or they wait
        // out the commit-gate timeout.
        if self.shared.down.load(Ordering::Acquire) {
            self.shared.drain_pending();
        }
    }

    /// Resolve the whole backlog (holdback + queue) through the degraded
    /// path. Used on mark-down and teardown so no ticket is ever orphaned.
    fn drain_all(&mut self) {
        let held = std::mem::take(&mut self.holdback);
        for (_, req) in held {
            let result = self.shared.degraded_result(req.records, req.on_disk);
            let _ = req.done.send(result);
        }
        while let Ok(req) = self.queue.try_recv() {
            let result = self.shared.degraded_result(req.records, req.on_disk);
            let _ = req.done.send(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodain_log::{Lsn, RecordKind};
    use rodain_net::InProcTransport;
    use rodain_store::{Ts, TxnId};

    fn commit_group(csn: u64) -> Vec<LogRecord> {
        vec![LogRecord {
            lsn: Lsn(csn * 2),
            txn: TxnId(100 + csn),
            kind: RecordKind::Commit {
                csn: Csn(csn),
                ser_ts: Ts(csn << 20),
                n_writes: 0,
            },
        }]
    }

    fn mirrored_link(start: u64) -> (MirrorLink, Arc<InProcTransport>) {
        let (primary_side, mirror_side) = InProcTransport::pair();
        let link = MirrorLink::new(
            Arc::new(primary_side),
            &MirrorLossPolicy::ContinueVolatile,
            &Recorder::default(),
            Csn(start),
            ShipBatchConfig::default(),
        )
        .unwrap();
        (link, Arc::new(mirror_side))
    }

    /// Pull frames off the mirror side until a `Records` frame arrives;
    /// heartbeats are skipped.
    fn next_records(mirror: &InProcTransport) -> Vec<LogRecord> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(Instant::now() < deadline, "no Records frame arrived");
            if let Ok(Some(frame)) = mirror.recv_timeout(Duration::from_millis(50)) {
                if let Ok(Message::Records(records)) = Message::decode(frame) {
                    return records;
                }
            }
        }
    }

    #[test]
    fn single_highest_csn_ack_resolves_every_ticket_in_the_frame() {
        let (link, mirror) = mirrored_link(1);
        // Ship CSNs 1..=4 in order; the shipper coalesces them into one
        // or more contiguous frames.
        let tickets: Vec<CommitTicket> = (1..=4)
            .map(|c| link.ship(Csn(c), commit_group(c), DurabilityTier::MirrorAcked))
            .collect();
        let mut got = Vec::new();
        while got.len() < 4 {
            got.extend(next_records(&mirror));
        }
        assert_eq!(got.len(), 4);
        // One ack for the highest CSN — no per-commit acks.
        mirror
            .send(
                Message::CommitAck {
                    txn: TxnId(104),
                    csn: Csn(4),
                }
                .encode(),
            )
            .unwrap();
        for t in &tickets {
            assert_eq!(
                t.recv_timeout(Duration::from_secs(5)).unwrap(),
                Ok(DurabilityTier::MirrorAcked),
                "a coalesced ack must resolve every ticket at or below it"
            );
        }
        assert_eq!(link.acks(), 4, "acks count commits, not frames");
        assert!(!link.is_down());
    }

    #[test]
    fn out_of_order_ship_calls_are_reordered_and_partial_acks_resolve_prefixes() {
        let (link, mirror) = mirrored_link(1);
        // Workers can reach ship() out of CSN order; the holdback must
        // restore dense order before anything hits the wire.
        let t3 = link.ship(Csn(3), commit_group(3), DurabilityTier::MirrorAcked);
        let t1 = link.ship(Csn(1), commit_group(1), DurabilityTier::MirrorAcked);
        let t2 = link.ship(Csn(2), commit_group(2), DurabilityTier::MirrorAcked);
        let mut got = Vec::new();
        while got.len() < 3 {
            got.extend(next_records(&mirror));
        }
        let csns: Vec<u64> = got
            .iter()
            .filter_map(|r| match r.kind {
                RecordKind::Commit { csn, .. } => Some(csn.0),
                _ => None,
            })
            .collect();
        assert_eq!(csns, vec![1, 2, 3], "wire order must be dense CSN order");

        // A partial ack (csn 2) resolves exactly the prefix.
        mirror
            .send(
                Message::CommitAck {
                    txn: TxnId(102),
                    csn: Csn(2),
                }
                .encode(),
            )
            .unwrap();
        assert_eq!(
            t1.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(DurabilityTier::MirrorAcked)
        );
        assert_eq!(
            t2.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(DurabilityTier::MirrorAcked)
        );
        assert!(
            t3.recv_timeout(Duration::from_millis(100)).is_err(),
            "csn 3 must stay pending past a partial ack"
        );
        assert_eq!(link.acks(), 2);

        mirror
            .send(
                Message::CommitAck {
                    txn: TxnId(103),
                    csn: Csn(3),
                }
                .encode(),
            )
            .unwrap();
        assert_eq!(
            t3.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(DurabilityTier::MirrorAcked)
        );
        assert_eq!(link.acks(), 3);
    }

    /// The ack thread's `mark_down` (drain included) completes after the
    /// shipper saw the link up but before it registers a frame's tickets:
    /// the shipper's own `mark_down` is then a no-op, so `send_batch`
    /// itself must resolve what it registered.
    #[test]
    fn tickets_registered_after_the_mark_down_drain_still_resolve() {
        let (link, _mirror) = mirrored_link(1);
        link.mark_down();
        let (done, ticket) = bounded(1);
        let late = ShipRequest {
            csn: 1,
            records: commit_group(1),
            done,
            on_disk: false,
        };
        let mut shipper = Shipper {
            shared: Arc::clone(&link.shared),
            queue: unbounded().1,
            holdback: BTreeMap::new(),
            next_csn: 2,
            batch: ShipBatchConfig::default(),
            batch_records: Histogram::default(),
            batch_bytes: Histogram::default(),
        };
        shipper.send_batch(vec![late], 1, 64);
        assert_eq!(
            ticket.recv_timeout(Duration::from_secs(1)),
            Ok(Ok(DurabilityTier::Volatile)),
            "ticket orphaned in the pending map"
        );
        assert!(link.shared.pending.lock().is_empty());
    }

    #[test]
    fn mark_down_resolves_holdback_and_pending_tickets() {
        let (link, mirror) = mirrored_link(1);
        // CSN 3 with the CSN-2 gap never filled: stuck in the holdback,
        // never reaching the wire.
        let stuck = link.ship(Csn(3), commit_group(3), DurabilityTier::MirrorAcked);
        // CSN 1 ships alone, but the mirror never acks it.
        let sent = link.ship(Csn(1), commit_group(1), DurabilityTier::MirrorAcked);
        let first = next_records(&mirror);
        assert_eq!(first.len(), 1, "csn 3 must be held back across the gap");
        assert!(stuck.recv_timeout(Duration::from_millis(50)).is_err());

        // Gate-timeout path: the engine marks the link down. Every ticket
        // — pending-on-ack and held-back alike — must resolve promptly.
        link.mark_down();
        assert_eq!(
            sent.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(DurabilityTier::Volatile),
            "ContinueVolatile fallback resolves pending tickets as volatile success"
        );
        assert_eq!(
            stuck.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(DurabilityTier::Volatile)
        );
        assert!(link.is_down());
        // Later ships resolve degraded without touching the dead link.
        let late = link.ship(Csn(4), commit_group(4), DurabilityTier::MirrorAcked);
        assert_eq!(
            late.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(DurabilityTier::Volatile)
        );
    }

    #[test]
    fn ack_watermark_tracks_highest_acknowledged_csn() {
        let (link, mirror) = mirrored_link(5);
        // The snapshot handshake covered everything below the stream start.
        assert_eq!(link.ack_watermark(), 4);
        let t5 = link.ship(Csn(5), commit_group(5), DurabilityTier::MirrorAcked);
        let t6 = link.ship(Csn(6), commit_group(6), DurabilityTier::MirrorAcked);
        let mut got = Vec::new();
        while got.len() < 2 {
            got.extend(next_records(&mirror));
        }
        // A lagging mirror acks only csn 5: the watermark must not pass 5,
        // so checkpoint truncation stays fenced below csn 6.
        mirror
            .send(
                Message::CommitAck {
                    txn: TxnId(105),
                    csn: Csn(5),
                }
                .encode(),
            )
            .unwrap();
        assert_eq!(
            t5.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(DurabilityTier::MirrorAcked)
        );
        assert_eq!(link.ack_watermark(), 5);
        assert!(t6.recv_timeout(Duration::from_millis(50)).is_err());
        mirror
            .send(
                Message::CommitAck {
                    txn: TxnId(106),
                    csn: Csn(6),
                }
                .encode(),
            )
            .unwrap();
        assert_eq!(
            t6.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(DurabilityTier::MirrorAcked)
        );
        assert_eq!(link.ack_watermark(), 6);
    }

    #[test]
    fn batch_knobs_split_oversized_runs_into_multiple_frames() {
        let (primary_side, mirror_side) = InProcTransport::pair();
        let link = MirrorLink::new(
            Arc::new(primary_side),
            &MirrorLossPolicy::ContinueVolatile,
            &Recorder::default(),
            Csn(1),
            ShipBatchConfig {
                max_records: 2,
                ..ShipBatchConfig::default()
            },
        )
        .unwrap();
        let tickets: Vec<CommitTicket> = (1..=6)
            .map(|c| link.ship(Csn(c), commit_group(c), DurabilityTier::MirrorAcked))
            .collect();
        let mut frames = 0;
        let mut got = 0;
        while got < 6 {
            let records = next_records(&mirror_side);
            assert!(
                records.len() <= 2,
                "frame exceeded max_records: {} records",
                records.len()
            );
            got += records.len();
            frames += 1;
        }
        assert!(frames >= 3, "six 1-record groups need ≥3 capped frames");
        mirror_side
            .send(
                Message::CommitAck {
                    txn: TxnId(106),
                    csn: Csn(6),
                }
                .encode(),
            )
            .unwrap();
        for t in &tickets {
            assert_eq!(
                t.recv_timeout(Duration::from_secs(5)).unwrap(),
                Ok(DurabilityTier::MirrorAcked)
            );
        }
    }

    #[test]
    fn disk_fsynced_tier_preappends_to_fallback_and_survives_mark_down() {
        let dir = std::env::temp_dir().join(format!(
            "rodain-tier-fallback-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (primary_side, mirror_side) = InProcTransport::pair();
        let link = MirrorLink::new(
            Arc::new(primary_side),
            &MirrorLossPolicy::Contingency {
                dir: dir.clone(),
                segment_bytes: None,
            },
            &Recorder::default(),
            Csn(1),
            ShipBatchConfig::default(),
        )
        .unwrap();
        let mirror = Arc::new(mirror_side);
        // A DiskFsynced-tier group still ships over the wire (CSN density)
        // and resolves MirrorAcked on the ack; the fsync upgrade happens in
        // the engine's completer, not here.
        let t1 = link.ship(Csn(1), commit_group(1), DurabilityTier::DiskFsynced);
        let got = next_records(&mirror);
        assert_eq!(got.len(), 1);
        mirror
            .send(
                Message::CommitAck {
                    txn: TxnId(101),
                    csn: Csn(1),
                }
                .encode(),
            )
            .unwrap();
        assert_eq!(
            t1.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(DurabilityTier::MirrorAcked)
        );
        // After mark-down, an un-acked DiskFsynced group must resolve
        // through the fallback as DiskFsynced — flushed, not re-appended.
        let t2 = link.ship(Csn(2), commit_group(2), DurabilityTier::DiskFsynced);
        let _ = next_records(&mirror);
        link.mark_down();
        assert_eq!(
            t2.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(DurabilityTier::DiskFsynced)
        );
        // Degraded-mode ships keep resolving DiskFsynced via the fallback.
        let t3 = link.ship(Csn(3), commit_group(3), DurabilityTier::MirrorAcked);
        assert_eq!(
            t3.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(DurabilityTier::DiskFsynced)
        );
        drop(link);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
