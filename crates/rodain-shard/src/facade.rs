//! The [`ShardedRodain`] facade: N independent engines behind one API.

use crate::router::ShardRouter;
use crate::twopc::{
    self, CoordError, CrashPoint, CrossReceipt, Leftover, LocalParticipant, Participant,
    ResolveReport, ShardOp,
};
use parking_lot::RwLock;
use rodain_db::{
    CommitFuture, CompletionHook, EngineStats, MirrorLossPolicy, Rodain, RodainBuilder, TxnAbort,
    TxnCtx, TxnError, TxnOptions, TxnReceipt,
};
use rodain_net::Transport;
use rodain_obs::MetricsSnapshot;
use rodain_occ::Protocol;
use rodain_store::{ObjectId, Store, Value};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-shard engine customization applied at build time.
type ShardHook = Box<dyn Fn(usize, RodainBuilder) -> RodainBuilder>;

/// Builder for a [`ShardedRodain`] cluster.
pub struct ShardedRodainBuilder {
    shards: usize,
    workers_per_shard: usize,
    protocol: Protocol,
    commit_gate_timeout: Option<Duration>,
    contingency_root: Option<PathBuf>,
    stores: Option<Vec<Arc<Store>>>,
    shard_hook: Option<ShardHook>,
}

impl ShardedRodainBuilder {
    fn new() -> Self {
        ShardedRodainBuilder {
            shards: 1,
            workers_per_shard: 2,
            protocol: Protocol::OccDati,
            commit_gate_timeout: None,
            contingency_root: None,
            stores: None,
            shard_hook: None,
        }
    }

    /// Number of partitions (default 1; at most [`crate::MAX_SHARDS`]).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Executor threads per shard engine (default 2).
    #[must_use]
    pub fn workers_per_shard(mut self, workers: usize) -> Self {
        self.workers_per_shard = workers;
        self
    }

    /// Concurrency-control protocol for every shard (default OCC-DATI).
    #[must_use]
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Commit-gate timeout applied to every shard engine.
    #[must_use]
    pub fn commit_gate_timeout(mut self, timeout: Duration) -> Self {
        self.commit_gate_timeout = Some(timeout);
        self
    }

    /// Contingency mode for every shard: shard `i` group-commits its redo
    /// stream under `root/shard-<i>` (see [`ShardedRodain::shard_dir`]).
    #[must_use]
    pub fn contingency_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.contingency_root = Some(root.into());
        self
    }

    /// Start each shard from an existing store — e.g. stores recovered
    /// from the per-shard redo logs after a crash. Must supply exactly one
    /// store per shard.
    #[must_use]
    pub fn stores(mut self, stores: Vec<Arc<Store>>) -> Self {
        self.stores = Some(stores);
        self
    }

    /// Customize each shard's [`RodainBuilder`] before it is built — e.g.
    /// to install a fault-injecting or throttled log backend on one shard.
    /// Runs after every other builder option has been applied.
    #[must_use]
    pub fn shard_hook(
        mut self,
        hook: impl Fn(usize, RodainBuilder) -> RodainBuilder + 'static,
    ) -> Self {
        self.shard_hook = Some(Box::new(hook));
        self
    }

    /// Build and start every shard engine.
    pub fn build(self) -> io::Result<ShardedRodain> {
        if self.shards == 0 || self.shards > crate::MAX_SHARDS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "shard count {} outside 1..={}",
                    self.shards,
                    crate::MAX_SHARDS
                ),
            ));
        }
        if let Some(stores) = &self.stores {
            if stores.len() != self.shards {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "{} stores supplied for {} shards",
                        stores.len(),
                        self.shards
                    ),
                ));
            }
        }
        let router = ShardRouter::new(self.shards);
        let mut shards = Vec::with_capacity(self.shards);
        for i in 0..self.shards {
            let mut b = Rodain::builder()
                .protocol(self.protocol)
                .workers(self.workers_per_shard);
            if let Some(timeout) = self.commit_gate_timeout {
                b = b.commit_gate_timeout(timeout);
            }
            if let Some(stores) = &self.stores {
                b = b.store(Arc::clone(&stores[i]));
            }
            if let Some(root) = &self.contingency_root {
                b = b.contingency_log(ShardedRodain::shard_dir(root, i));
            }
            if let Some(hook) = &self.shard_hook {
                b = hook(i, b);
            }
            shards.push(RwLock::new(Some(Arc::new(b.build()?))));
        }
        Ok(ShardedRodain {
            router,
            shards,
            next_gid: AtomicU64::new(1),
        })
    }
}

/// A hash-partitioned cluster of independent [`Rodain`] engines.
///
/// Single-shard operations route and delegate (the fast path — no locks or
/// coordination beyond one shard-table read). Cross-shard transactions go
/// through [`ShardedRodain::execute_cross`]'s two-phase commit. Failover
/// is per shard: [`ShardedRodain::take_shard`] detaches a primary (its
/// mirror observes the link drop and takes over) and
/// [`ShardedRodain::install_shard`] seats the promoted successor, while
/// every other shard keeps committing undisturbed.
pub struct ShardedRodain {
    router: ShardRouter,
    shards: Vec<RwLock<Option<Arc<Rodain>>>>,
    next_gid: AtomicU64,
}

impl std::fmt::Debug for ShardedRodain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRodain")
            .field("shards", &self.shard_count())
            .finish_non_exhaustive()
    }
}

impl ShardedRodain {
    /// Start building a cluster.
    #[must_use]
    pub fn builder() -> ShardedRodainBuilder {
        ShardedRodainBuilder::new()
    }

    /// The directory shard `i` logs under when built with
    /// [`ShardedRodainBuilder::contingency_root`].
    #[must_use]
    pub fn shard_dir(root: impl AsRef<Path>, shard: usize) -> PathBuf {
        root.as_ref().join(format!("shard-{shard}"))
    }

    /// The partitioning function.
    #[must_use]
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Number of partitions.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `oid` lives on.
    #[must_use]
    pub fn shard_of(&self, oid: ObjectId) -> usize {
        self.router.route(oid)
    }

    /// Shard `i`'s engine (`None` while detached for failover).
    #[must_use]
    pub fn engine(&self, shard: usize) -> Option<Arc<Rodain>> {
        self.shards.get(shard)?.read().clone()
    }

    /// The engine owning `oid` (`None` while its shard is detached).
    #[must_use]
    pub fn engine_for(&self, oid: ObjectId) -> Option<Arc<Rodain>> {
        self.engine(self.router.route(oid))
    }

    /// Load an object during initial population (routes to its shard;
    /// silently skipped while that shard is detached).
    pub fn load_initial(&self, oid: ObjectId, value: Value) {
        if let Some(engine) = self.engine_for(oid) {
            engine.load_initial(oid, value);
        }
    }

    /// Read an object's committed value outside any transaction.
    #[must_use]
    pub fn get(&self, oid: ObjectId) -> Option<Value> {
        self.engine_for(oid)?.get(oid)
    }

    /// Submit a transaction whose accesses all live on `anchor`'s shard —
    /// the single-shard fast path: route, then delegate to that engine's
    /// own scheduler and commit gate.
    pub fn submit_on<F>(&self, anchor: ObjectId, opts: TxnOptions, closure: F) -> CommitFuture
    where
        F: FnMut(&mut TxnCtx) -> Result<Option<Value>, TxnAbort> + Send + 'static,
    {
        match self.engine_for(anchor) {
            Some(engine) => engine.submit(opts, closure),
            None => CommitFuture::ready(Err(TxnError::Shutdown)),
        }
    }

    /// [`ShardedRodain::submit_on`] with a [`CompletionHook`] fired when
    /// the returned future resolves (see [`Rodain::submit_hooked`]). The
    /// hook fires even when the anchor routes to a detached shard — the
    /// ready error is in the future before the hook runs — so an
    /// event-loop caller never leaks a pending entry.
    pub fn submit_on_hooked<F>(
        &self,
        anchor: ObjectId,
        opts: TxnOptions,
        closure: F,
        hook: CompletionHook,
    ) -> CommitFuture
    where
        F: FnMut(&mut TxnCtx) -> Result<Option<Value>, TxnAbort> + Send + 'static,
    {
        match self.engine_for(anchor) {
            Some(engine) => engine.submit_hooked(opts, closure, hook),
            None => {
                let future = CommitFuture::ready(Err(TxnError::Shutdown));
                hook();
                future
            }
        }
    }

    /// Execute a single-shard transaction and wait for its outcome.
    pub fn execute_on<F>(
        &self,
        anchor: ObjectId,
        opts: TxnOptions,
        closure: F,
    ) -> Result<TxnReceipt, TxnError>
    where
        F: FnMut(&mut TxnCtx) -> Result<Option<Value>, TxnAbort> + Send + 'static,
    {
        self.submit_on(anchor, opts, closure).wait()
    }

    /// Shard `shard` as a 2PC participant running its steps under `opts`
    /// (`None` while detached).
    #[must_use]
    pub fn participant(&self, shard: usize, opts: TxnOptions) -> Option<LocalParticipant> {
        Some(LocalParticipant {
            engine: self.engine(shard)?,
            router: self.router,
            shard,
            opts,
        })
    }

    /// Execute a cross-shard transaction atomically via two-phase commit
    /// (see `DESIGN.md` §11 and [`ShardOp`]). Operations that all land on
    /// one shard skip the protocol and commit as a plain local
    /// transaction. Once the decision record commits the transaction is
    /// committed and this returns `Ok` — an apply cut short by a shard
    /// failure is rolled forward by [`ShardedRodain::resolve_pending`].
    pub fn execute_cross(
        &self,
        opts: TxnOptions,
        ops: Vec<ShardOp>,
    ) -> Result<CrossReceipt, TxnError> {
        self.execute_cross_with_crash(opts, ops, CrashPoint::None)
    }

    /// [`ShardedRodain::execute_cross`] with an injected coordinator crash
    /// — the test hook behind the torn-2PC recovery tests. The phases
    /// after the crash point are skipped, leaving the cluster exactly as a
    /// real coordinator failure would.
    pub fn execute_cross_with_crash(
        &self,
        opts: TxnOptions,
        ops: Vec<ShardOp>,
        crash: CrashPoint,
    ) -> Result<CrossReceipt, TxnError> {
        twopc::run(
            self.router,
            ops,
            crash,
            |shard| self.participant(shard, opts).ok_or(TxnError::Shutdown),
            |coordinator| Ok(self.alloc_gid(coordinator)),
        )
        .map_err(|err| match err {
            CoordError::Empty => TxnError::UserAbort("empty cross-shard transaction".into()),
            CoordError::Aborted(err) | CoordError::InDoubt(err) => err,
            CoordError::Crashed(_) => TxnError::Replication("injected coordinator crash".into()),
        })
    }

    /// Visit every attached shard with the 2PC bookkeeping it still holds,
    /// keeping the gid allocator ahead of every id seen on the way.
    fn sweep(&self, mut visit: impl FnMut(&LocalParticipant, &[Leftover])) {
        for shard in 0..self.shard_count() {
            let Some(shard) = self.participant(shard, TxnOptions::non_real_time()) else {
                continue;
            };
            let leftovers = shard.leftovers();
            leftovers.iter().for_each(|l| self.note_gid_seen(l.gid));
            visit(&shard, &leftovers);
        }
    }

    /// Resolve every intent on the attached shards: roll forward when the
    /// coordinator shard holds a decision record, presume abort when it
    /// holds none, keep the intent when it cannot be asked. A coordinator
    /// shard seated here is read directly; any other goes to `remote`
    /// (`None` = no answer).
    pub fn resolve_intents(&self, remote: impl Fn(usize, u64) -> Option<bool>) -> ResolveReport {
        let decided = |shard, gid| match self.participant(shard, TxnOptions::non_real_time()) {
            Some(coordinator) => coordinator.query_decision(gid).ok(),
            None => remote(shard, gid),
        };
        let mut report = ResolveReport::default();
        self.sweep(|shard, held| twopc::resolve_intents(shard, held, decided, &mut report));
        report
    }

    /// Delete every decision record on the attached shards. Only safe
    /// after [`ShardedRodain::resolve_intents`] kept nothing on *every*
    /// shard of the cluster — a kept intent still needs its decision.
    pub fn gc_decisions(&self) -> u64 {
        let mut report = ResolveReport::default();
        self.sweep(|shard, held| twopc::gc_decisions(shard, held, &mut report));
        report.decisions_cleaned
    }

    /// Replay unresolved 2PC bookkeeping after a restart, for a cluster
    /// whose shards all live in this process: resolve every intent, then
    /// — only if every shard is attached and nothing was kept — delete
    /// the decision records. Call before serving new traffic on a
    /// recovered cluster, and again after re-seating a detached shard.
    pub fn resolve_pending(&self) -> ResolveReport {
        let mut report = self.resolve_intents(|_, _| None);
        if report.kept == 0 && self.shards.iter().all(|s| s.read().is_some()) {
            report.decisions_cleaned = self.gc_decisions();
        }
        report
    }

    /// Aggregate statistics across every attached shard.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for shard in 0..self.shard_count() {
            if let Some(engine) = self.engine(shard) {
                total.merge(&engine.stats());
            }
        }
        total
    }

    /// Per-shard statistics (detached shards reported as `None`).
    #[must_use]
    pub fn shard_stats(&self) -> Vec<Option<EngineStats>> {
        (0..self.shard_count())
            .map(|i| self.engine(i).map(|e| e.stats()))
            .collect()
    }

    /// One merged metrics snapshot: every shard's metrics labelled
    /// `shard="<i>"` then folded together (see `METRICS.md`).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            events: Vec::new(),
        };
        for shard in 0..self.shard_count() {
            if let Some(engine) = self.engine(shard) {
                merged.merge(&engine.metrics().with_label("shard", &shard.to_string()));
            }
        }
        merged
    }

    /// Each shard's replication mode (`None` while detached).
    #[must_use]
    pub fn replication_modes(&self) -> Vec<Option<rodain_db::ReplicationMode>> {
        (0..self.shard_count())
            .map(|i| self.engine(i).map(|e| e.replication_mode()))
            .collect()
    }

    /// Attach a mirror to shard `shard` (blocks through the snapshot
    /// handshake, exactly like [`Rodain::attach_mirror`]).
    pub fn attach_mirror(
        &self,
        shard: usize,
        transport: Arc<dyn Transport>,
        policy: MirrorLossPolicy,
    ) -> io::Result<()> {
        match self.engine(shard) {
            Some(engine) => engine.attach_mirror(transport, policy),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("shard {shard} is detached"),
            )),
        }
    }

    /// Detach shard `shard`'s engine for failover (or a chaos kill).
    /// Dropping the returned handle shuts the engine down; a mirror
    /// attached to it observes the link drop and takes over. Other shards
    /// are untouched.
    #[must_use]
    pub fn take_shard(&self, shard: usize) -> Option<Arc<Rodain>> {
        self.shards.get(shard)?.write().take()
    }

    /// Seat a (promoted or rebuilt) engine as shard `shard`, replacing any
    /// current occupant.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn install_shard(&self, shard: usize, engine: Arc<Rodain>) {
        *self.shards[shard].write() = Some(engine);
    }

    /// Allocate a group id for a transaction coordinated by `coordinator`:
    /// the shard in the high bits, a facade-wide sequence number in the
    /// low 32 ([`GID_SEQ_MASK`]), so ids issued by different processes for
    /// different coordinator shards never collide. The 44-bit metadata
    /// payload leaves 12 bits for the shard.
    pub fn alloc_gid(&self, coordinator: usize) -> u64 {
        let seq = self.next_gid.fetch_add(1, Ordering::Relaxed) & GID_SEQ_MASK;
        ((coordinator as u64) << 32) | seq
    }

    /// Keep the allocator's sequence ahead of `gid`'s, so an id still
    /// carried by a leftover intent or decision is never reissued.
    pub fn note_gid_seen(&self, gid: u64) {
        self.next_gid
            .fetch_max((gid & GID_SEQ_MASK) + 1, Ordering::Relaxed);
    }

    /// [`ShardedRodain::note_gid_seen`] for everything the attached shards
    /// still hold — for a process that restarts over recovered stores.
    pub fn reseed_gids(&self) {
        self.sweep(|_, _| {});
    }
}

/// Low 32 bits of a group id: the sequence number. The bits above carry
/// the coordinator shard.
pub const GID_SEQ_MASK: u64 = 0xFFFF_FFFF;

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(shards: usize) -> ShardedRodain {
        ShardedRodain::builder()
            .shards(shards)
            .workers_per_shard(1)
            .build()
            .unwrap()
    }

    #[test]
    fn fast_path_routes_and_commits() {
        let db = cluster(4);
        for oid in 0..200u64 {
            db.load_initial(ObjectId(oid), Value::Int(0));
        }
        for oid in 0..200u64 {
            db.execute_on(ObjectId(oid), TxnOptions::soft_ms(5_000), move |ctx| {
                let v = ctx.read(ObjectId(oid))?.unwrap().as_int().unwrap();
                ctx.write(ObjectId(oid), Value::Int(v + 1))?;
                Ok(None)
            })
            .unwrap();
        }
        assert_eq!(db.stats().committed, 200);
        // Every shard saw a slice of the key space.
        for (shard, stats) in db.shard_stats().into_iter().enumerate() {
            let stats = stats.unwrap();
            assert!(stats.committed > 0, "shard {shard} committed nothing");
        }
        for oid in 0..200u64 {
            assert_eq!(db.get(ObjectId(oid)), Some(Value::Int(1)));
        }
    }

    #[test]
    fn merged_metrics_carry_shard_labels() {
        let db = cluster(2);
        db.load_initial(ObjectId(1), Value::Int(0));
        db.execute_on(ObjectId(1), TxnOptions::soft_ms(5_000), |ctx| {
            ctx.write(ObjectId(1), Value::Int(1))?;
            Ok(None)
        })
        .unwrap();
        let snap = db.metrics();
        let home = db.shard_of(ObjectId(1));
        assert_eq!(
            snap.counter(&format!("txn_committed_total{{shard=\"{home}\"}}")),
            Some(1)
        );
        let other = 1 - home;
        assert_eq!(
            snap.counter(&format!("txn_committed_total{{shard=\"{other}\"}}")),
            Some(0)
        );
    }

    #[test]
    fn detached_shard_fails_fast_and_reinstall_recovers() {
        let db = cluster(2);
        db.load_initial(ObjectId(3), Value::Int(9));
        let victim = db.shard_of(ObjectId(3));
        let taken = db.take_shard(victim).unwrap();
        let store = taken.store();
        drop(taken);
        assert_eq!(db.get(ObjectId(3)), None);
        assert_eq!(
            db.execute_on(ObjectId(3), TxnOptions::soft_ms(100), |_| Ok(None)),
            Err(TxnError::Shutdown)
        );
        assert_eq!(db.replication_modes()[victim], None);
        // Promote a successor over the surviving store copy.
        let successor = Rodain::builder().workers(1).store(store).build().unwrap();
        db.install_shard(victim, Arc::new(successor));
        assert_eq!(db.get(ObjectId(3)), Some(Value::Int(9)));
        db.execute_on(ObjectId(3), TxnOptions::soft_ms(5_000), |ctx| {
            ctx.write(ObjectId(3), Value::Int(10))?;
            Ok(None)
        })
        .unwrap();
        assert_eq!(db.get(ObjectId(3)), Some(Value::Int(10)));
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert!(ShardedRodain::builder().shards(0).build().is_err());
        let err = ShardedRodain::builder()
            .shards(2)
            .stores(vec![Arc::new(Store::new())])
            .build()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
