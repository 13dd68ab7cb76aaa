//! The TCP front-end: backend routing and request plumbing for the
//! event-driven server (`event.rs`, DESIGN.md §17) — one loop thread
//! multiplexing every client socket through a [`rodain_net::Poller`], a
//! fixed worker pool executing decoded requests, out-of-order
//! id-correlated responses, and end-to-end backpressure. Unix only: the
//! poller has no other implementation.

use crate::cluster::ClusterShards;
use crate::protocol::{MetricsFormat, Outcome, Request, RequestOp, Response};
use bytes::BufMut;
use rodain_db::{
    CommitFuture, CompletionHook, DurabilityTier, EngineStats, MetricsSnapshot, Rodain, TxnAbort,
    TxnCtx, TxnError, TxnOptions, TxnReceipt,
};
use rodain_obs::{Counter, Gauge, Histogram, Recorder};
use rodain_shard::ShardedRodain;
use rodain_store::{ObjectId, Value};
use rodain_workload::NumberTranslationDb;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Monotone request counters.
#[derive(Default)]
pub(crate) struct StatsInner {
    pub(crate) connections: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) ok: AtomicU64,
    pub(crate) not_found: AtomicU64,
    pub(crate) miss_deadline: AtomicU64,
    pub(crate) overloaded: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) redirected: AtomicU64,
    pub(crate) accept_errors: AtomicU64,
    pub(crate) replies_dropped: AtomicU64,
    pub(crate) backpressure_pauses: AtomicU64,
}

/// Snapshot of the front-end's request counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests received.
    pub requests: u64,
    /// Requests answered `Ok`.
    pub ok: u64,
    /// Requests answered `NotFound`.
    pub not_found: u64,
    /// Requests that missed their deadline.
    pub miss_deadline: u64,
    /// Requests rejected by the overload manager or the front-end's
    /// global in-flight admission gate.
    pub overloaded: u64,
    /// Requests that failed for any other reason.
    pub failed: u64,
    /// Requests answered `WrongShard` (cluster nodes only).
    pub redirected: u64,
    /// Transient `accept(2)` failures survived by backing off.
    pub accept_errors: u64,
    /// Responses that could not be delivered because the connection died
    /// first (queued frames dropped at teardown, plus commits resolving
    /// after their connection closed).
    pub replies_dropped: u64,
    /// Times a connection's read interest was withdrawn because it hit
    /// its in-flight cap or its reply queue filled.
    pub backpressure_pauses: u64,
}

/// Tuning knobs for the front-end ([`Server::start_with`]).
///
/// The backpressure story is end-to-end: a connection that exceeds
/// `max_inflight_per_conn` outstanding requests — or whose reply queue
/// backs up past `reply_queue_cap` because the peer stops reading — is
/// removed from the read interest set until it drains, which in turn
/// fills the kernel receive buffer and stalls the sender via TCP flow
/// control. Above `max_global_inflight` outstanding requests across all
/// connections, new frames are answered [`Outcome::Overloaded`] before
/// any decode work, complementing the engine's EDF admission control.
#[derive(Clone, Copy, Debug)]
pub struct FrontEndConfig {
    /// Worker threads executing decoded requests. `0` means
    /// `min(available cores, 16)`.
    pub workers: usize,
    /// Per-connection cap on outstanding requests before the connection
    /// is paused.
    pub max_inflight_per_conn: usize,
    /// Per-connection cap on undelivered response frames before the
    /// connection is paused.
    pub reply_queue_cap: usize,
    /// Global cap on outstanding requests; above it new frames are
    /// answered `Overloaded` without decoding.
    pub max_global_inflight: usize,
}

impl Default for FrontEndConfig {
    fn default() -> FrontEndConfig {
        FrontEndConfig {
            workers: 0,
            max_inflight_per_conn: 128,
            reply_queue_cap: 256,
            max_global_inflight: 16 * 1024,
        }
    }
}

impl FrontEndConfig {
    pub(crate) fn effective_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
            .min(16)
    }
}

/// The front-end's own instruments, registered on a server-owned
/// [`Recorder`] and merged into every `Metrics` op response (rows in
/// METRICS.md).
pub(crate) struct FrontEndMetrics {
    pub(crate) recorder: Recorder,
    pub(crate) connections: Gauge,
    pub(crate) inflight: Gauge,
    pub(crate) tick: Histogram,
    pub(crate) read_to_dispatch: Histogram,
    pub(crate) backpressure_pauses: Counter,
    pub(crate) replies_dropped: Counter,
    pub(crate) accept_errors: Counter,
    pub(crate) overload_rejects: Counter,
}

impl FrontEndMetrics {
    pub(crate) fn new() -> FrontEndMetrics {
        let recorder = Recorder::new();
        FrontEndMetrics {
            connections: recorder.gauge("server_connections"),
            inflight: recorder.gauge("server_inflight_requests"),
            tick: recorder.histogram("server_event_loop_tick_ns"),
            read_to_dispatch: recorder.histogram("server_read_to_dispatch_ns"),
            backpressure_pauses: recorder.counter("server_backpressure_pauses_total"),
            replies_dropped: recorder.counter("server_replies_dropped_total"),
            accept_errors: recorder.counter("server_accept_errors_total"),
            overload_rejects: recorder.counter("server_overload_rejects_total"),
            recorder,
        }
    }
}

/// What answers the front-end's transactions: one engine, or a
/// hash-partitioned cluster where each request routes to the shard that
/// owns its anchor object.
#[derive(Clone)]
pub enum Backend {
    /// A single engine — the paper's one-node database.
    Single(Arc<Rodain>),
    /// A sharded cluster; single-shard requests take the fast path to
    /// their owning engine.
    Sharded(Arc<ShardedRodain>),
    /// One node of a multi-process cluster: only locally-owned shards
    /// are served; anchors routing elsewhere are answered
    /// `WrongShard { epoch }` so the client refetches the shard map.
    Cluster(Arc<ClusterShards>),
}

impl Backend {
    /// Submit a transaction anchored at `anchor` (the object the request
    /// addresses; ignored by a single engine). `hook` fires after the
    /// outcome reaches the returned future — the event loop's completion
    /// signal.
    fn submit_hooked<F>(
        &self,
        anchor: ObjectId,
        opts: TxnOptions,
        closure: F,
        hook: CompletionHook,
    ) -> CommitFuture
    where
        F: FnMut(&mut TxnCtx) -> Result<Option<Value>, TxnAbort> + Send + 'static,
    {
        match self {
            Backend::Single(db) => db.submit_hooked(opts, closure, hook),
            Backend::Sharded(cluster) => cluster.submit_on_hooked(anchor, opts, closure, hook),
            Backend::Cluster(node) => node.local().submit_on_hooked(anchor, opts, closure, hook),
        }
    }

    /// Engine statistics — cluster-wide totals when sharded.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        match self {
            Backend::Single(db) => db.stats(),
            Backend::Sharded(cluster) => cluster.stats(),
            Backend::Cluster(node) => node.local().stats(),
        }
    }

    /// Metrics snapshot — per-shard labelled and merged when sharded.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        match self {
            Backend::Single(db) => db.metrics(),
            Backend::Sharded(cluster) => cluster.metrics(),
            Backend::Cluster(node) => node.metrics(),
        }
    }

    /// Force a checkpoint now (the `Checkpoint` wire op). A sharded
    /// cluster checkpoints every live shard with its own configured
    /// policy; the returned path is the last shard's snapshot file.
    /// Fails when no engine has checkpointing configured
    /// ([`rodain_db::RodainBuilder::checkpoints`]).
    pub fn force_checkpoint(&self) -> std::io::Result<std::path::PathBuf> {
        let sharded = match self {
            Backend::Single(db) => return db.force_checkpoint(),
            Backend::Sharded(cluster) => cluster,
            Backend::Cluster(node) => node.local(),
        };
        let mut last = None;
        for shard in 0..sharded.shard_count() {
            if let Some(engine) = sharded.engine(shard) {
                last = Some(engine.force_checkpoint()?);
            }
        }
        last.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "checkpointing not configured on any shard",
            )
        })
    }
}

/// The User Request Interpreter: accepts connections and maps requests onto
/// engine transactions. Requests on one connection may be pipelined and
/// execute out of order; responses are correlated by request id.
pub struct Server {
    pub(crate) backend: Backend,
    pub(crate) schema: NumberTranslationDb,
    pub(crate) metrics: Arc<FrontEndMetrics>,
}

/// Handle to a running server: address, stats, shutdown.
pub struct ServerHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) stats: Arc<StatsInner>,
    pub(crate) threads: Vec<std::thread::JoinHandle<()>>,
    /// Wakes the event loop out of a blocked wait so it notices the
    /// shutdown flag.
    #[cfg(unix)]
    pub(crate) waker: Arc<rodain_net::Waker>,
}

impl ServerHandle {
    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request-counter snapshot.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.stats.connections.load(Ordering::Relaxed),
            requests: self.stats.requests.load(Ordering::Relaxed),
            ok: self.stats.ok.load(Ordering::Relaxed),
            not_found: self.stats.not_found.load(Ordering::Relaxed),
            miss_deadline: self.stats.miss_deadline.load(Ordering::Relaxed),
            overloaded: self.stats.overloaded.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
            redirected: self.stats.redirected.load(Ordering::Relaxed),
            accept_errors: self.stats.accept_errors.load(Ordering::Relaxed),
            replies_dropped: self.stats.replies_dropped.load(Ordering::Relaxed),
            backpressure_pauses: self.stats.backpressure_pauses.load(Ordering::Relaxed),
        }
    }

    /// Stop the front-end, close every connection and join its threads.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        #[cfg(unix)]
        self.waker.wake();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Server {
    /// Create a front-end over `db` serving the number-translation schema
    /// `schema` (generic `Get`/`Put` work regardless).
    #[must_use]
    pub fn new(db: Arc<Rodain>, schema: NumberTranslationDb) -> Server {
        Server {
            backend: Backend::Single(db),
            schema,
            metrics: Arc::new(FrontEndMetrics::new()),
        }
    }

    /// Create a front-end over a sharded cluster: every request routes to
    /// the shard owning its anchor object, and `Stats`/`Metrics` answer
    /// with cluster-wide merges.
    #[must_use]
    pub fn sharded(cluster: Arc<ShardedRodain>, schema: NumberTranslationDb) -> Server {
        Server {
            backend: Backend::Sharded(cluster),
            schema,
            metrics: Arc::new(FrontEndMetrics::new()),
        }
    }

    /// Create a front-end over one node of a multi-process cluster:
    /// requests anchored on shards this node does not own are answered
    /// `WrongShard { epoch }`, and the `ClusterMap` op serves the node's
    /// current [`rodain_shard::ShardMap`].
    #[must_use]
    pub fn cluster(node: Arc<ClusterShards>, schema: NumberTranslationDb) -> Server {
        Server {
            backend: Backend::Cluster(node),
            schema,
            metrics: Arc::new(FrontEndMetrics::new()),
        }
    }

    /// Start serving on `listener` with [`FrontEndConfig::default`]
    /// (DESIGN.md §17).
    pub fn start(self, listener: TcpListener) -> std::io::Result<ServerHandle> {
        self.start_with(listener, FrontEndConfig::default())
    }

    /// Start serving with explicit tuning knobs. Off unix there is no
    /// readiness poller to serve with: `ErrorKind::Unsupported`.
    pub fn start_with(
        self,
        listener: TcpListener,
        config: FrontEndConfig,
    ) -> std::io::Result<ServerHandle> {
        #[cfg(unix)]
        {
            crate::event::start(self, listener, config)
        }
        #[cfg(not(unix))]
        {
            let _ = (listener, config);
            Err(std::io::ErrorKind::Unsupported.into())
        }
    }
}

pub(crate) fn txn_options(deadline_ms: u32, tier: DurabilityTier) -> TxnOptions {
    let base = if deadline_ms == 0 {
        TxnOptions::non_real_time()
    } else {
        TxnOptions::firm_ms(u64::from(deadline_ms))
    };
    base.with_durability(tier)
}

/// Cluster placement check: an anchored request whose shard is not seated
/// on this node never reaches an engine — the client's map is stale.
pub(crate) fn shard_redirect(
    backend: &Backend,
    schema: NumberTranslationDb,
    request: &Request,
) -> Option<Outcome> {
    let Backend::Cluster(node) = backend else {
        return None;
    };
    let anchor = match &request.op {
        RequestOp::Translate { number } | RequestOp::Provision { number, .. } => {
            Some(schema.object_id(*number))
        }
        RequestOp::Get { oid } | RequestOp::Put { oid, .. } => Some(*oid),
        _ => None,
    };
    anchor
        .and_then(|a| node.route_check(a))
        .map(|epoch| Outcome::WrongShard { epoch })
}

/// Ops served outside the transaction path, answered synchronously.
/// `Metrics` merges the front-end's own recorder into the engine
/// snapshot so connection/in-flight gauges and loop histograms ride the
/// same scrape. Returns `None` for transactional ops.
pub(crate) fn immediate_outcome(
    backend: &Backend,
    fe: &FrontEndMetrics,
    op: &RequestOp,
) -> Option<Outcome> {
    match op {
        RequestOp::Stats => {
            let stats = backend.stats();
            Some(Outcome::Ok(Value::Record(vec![
                Value::Int(stats.committed as i64),
                Value::Int(stats.aborted() as i64),
                Value::Int(stats.restarts as i64),
                Value::Int(stats.active as i64),
            ])))
        }
        RequestOp::Metrics { format } => {
            let mut snapshot = backend.metrics();
            snapshot.merge(&fe.recorder.snapshot());
            let rendered = match format {
                MetricsFormat::Text => snapshot.render_text(),
                MetricsFormat::Json => snapshot.render_json(),
                MetricsFormat::Prometheus => snapshot.render_prometheus(),
            };
            Some(Outcome::Ok(Value::Text(rendered)))
        }
        RequestOp::Checkpoint => {
            // An operator op, serialized against the background
            // checkpointer; it occupies one worker until the snapshot
            // installs.
            Some(match backend.force_checkpoint() {
                Ok(path) => Outcome::Ok(Value::Text(path.display().to_string())),
                Err(e) => Outcome::Failed(e.to_string()),
            })
        }
        RequestOp::ClusterMap => Some(match backend {
            Backend::Cluster(node) => Outcome::Ok(node.map().to_value()),
            _ => Outcome::Failed("not a cluster node".into()),
        }),
        _ => None,
    }
}

/// Submit a transactional request to the backend. The caller has already
/// routed away immediate ops ([`immediate_outcome`]) and stale-shard
/// anchors ([`shard_redirect`]).
pub(crate) fn submit_request(
    backend: &Backend,
    schema: NumberTranslationDb,
    request: Request,
    hook: CompletionHook,
) -> CommitFuture {
    let opts = txn_options(request.deadline_ms, request.tier);
    match request.op {
        RequestOp::Translate { number } => {
            let anchor = schema.object_id(number);
            backend.submit_hooked(anchor, opts, move |ctx| {
                let record = ctx.read(anchor)?;
                Ok(record.map(|r| r.as_record().map(|f| f[0].clone()).unwrap_or(Value::Null)))
            }, hook)
        }
        RequestOp::Provision { number, address } => {
            let oid = schema.object_id(number);
            backend.submit_hooked(oid, opts, move |ctx| {
                let Some(record) = ctx.read(oid)? else {
                    return Ok(None);
                };
                let (flags, count) = match record.as_record() {
                    Some([_, Value::Int(flags), Value::Int(count)]) => (*flags, *count),
                    _ => (0, 0),
                };
                ctx.write(
                    oid,
                    Value::Record(vec![
                        Value::Text(address.clone()),
                        Value::Int(flags),
                        Value::Int(count + 1),
                    ]),
                )?;
                Ok(Some(Value::Int(count + 1)))
            }, hook)
        }
        RequestOp::Get { oid } => backend.submit_hooked(oid, opts, move |ctx| ctx.read(oid), hook),
        RequestOp::Put { oid, value } => backend.submit_hooked(
            oid,
            opts,
            move |ctx| {
                ctx.write(oid, value.clone())?;
                Ok(Some(Value::Null))
            },
            hook,
        ),
        // Immediate ops never reach here (see the callers).
        _ => unreachable!("immediate op submitted as a transaction"),
    }
}

/// Map a resolved transaction outcome onto the wire. A deferred request's
/// final frame is `CommitDurable` (carrying the achieved tier and CSN);
/// failures and `NotFound` use the same outcomes either way.
pub(crate) fn wire_outcome(result: Result<TxnReceipt, TxnError>, deferred: bool) -> Outcome {
    match result {
        Ok(receipt) => match receipt.result {
            Some(value) if deferred => Outcome::CommitDurable {
                tier: receipt.acked_tier,
                csn: receipt.csn.0,
                value,
            },
            Some(value) => Outcome::Ok(value),
            None => Outcome::NotFound,
        },
        Err(TxnError::DeadlineExpired) => Outcome::MissDeadline,
        Err(TxnError::AdmissionDenied | TxnError::Evicted) => Outcome::Overloaded,
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// Bump the per-outcome counter for a response leaving the front-end.
pub(crate) fn count_outcome(stats: &StatsInner, outcome: &Outcome) {
    match outcome {
        Outcome::Ok(_) | Outcome::CommitDurable { .. } => {
            stats.ok.fetch_add(1, Ordering::Relaxed);
        }
        Outcome::CommitPending => {}
        Outcome::NotFound => {
            stats.not_found.fetch_add(1, Ordering::Relaxed);
        }
        Outcome::MissDeadline => {
            stats.miss_deadline.fetch_add(1, Ordering::Relaxed);
        }
        Outcome::Overloaded => {
            stats.overloaded.fetch_add(1, Ordering::Relaxed);
        }
        Outcome::Failed(_) => {
            stats.failed.fetch_add(1, Ordering::Relaxed);
        }
        Outcome::WrongShard { .. } => {
            stats.redirected.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Length-prefix a response into one contiguous wire frame.
pub(crate) fn frame_bytes(response: &Response) -> bytes::Bytes {
    let body = response.encode();
    let mut buf = bytes::BytesMut::with_capacity(4 + body.len());
    buf.put_u32_le(body.len() as u32);
    buf.put_slice(&body);
    buf.freeze()
}
