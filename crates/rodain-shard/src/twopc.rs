//! Cross-shard two-phase commit layered on per-shard commit gates — the
//! one coordinator behind both [`crate::ShardedRodain::execute_cross`]
//! (in-process shards) and `rodain-cluster`'s `ClusterCoordinator`
//! (shards behind peer sockets).
//!
//! The protocol (DESIGN.md §11) reuses the engines' existing durability
//! machinery instead of inventing a new log format:
//!
//! 1. **Prepare** — each participant shard commits a local transaction
//!    writing an *intent object* ([`ShardRouter::intent_oid`]) whose value
//!    encodes the transaction's operations for that shard. The intent goes
//!    through the shard's normal OCC validation and is shipped/flushed
//!    like any redo record, so a durable intent *is* the PREPARE record.
//! 2. **Decide** — the coordinator shard commits a *decision object*
//!    ([`ShardRouter::decision_oid`]). Its presence is the commit point;
//!    its commit gave the transaction a coordinator CSN.
//! 3. **Apply** — each participant commits a local transaction that reads
//!    its intent, applies the operations to the data objects, and rewrites
//!    the intent to an `Int` marker carrying the coordinator CSN — which
//!    stamps the decision into that shard's redo stream atomically with
//!    the data change (so replay can never half-apply a shard).
//! 4. **Clean up** — intents and the decision are deleted.
//!
//! Recovery is correct because of five ordering constraints, all enforced
//! in this file and nowhere else:
//!
//! * every *intent* is durable before the *decision* is written
//!   ([`run`] waits for all prepares);
//! * the *decision* is durable before any shard *applies* ([`run`] decides
//!   first; [`resolve_intents`] applies only on a positive lookup);
//! * a shard *applies* before its *intent is deleted* — unless the lookup
//!   answered "no decision" (presumed abort); an unanswered lookup keeps
//!   the intent;
//! * every intent is applied before the *decision is deleted* ([`run`]
//!   cleans up only after all applies; [`gc_decisions`] is for callers
//!   whose resolve pass kept nothing);
//! * a group id is never reissued while an intent or decision still
//!   carries it (the facade's allocator is reseeded from every
//!   [`Leftover`]).
//!
//! [`ShardOp::Add`] is a commutative delta, so independent cross-shard
//! transfers may interleave freely without locking data objects between
//! the phases.

use crate::router::{MetaKind, ShardRouter};
use rodain_db::{CommitFuture, Rodain, TxnAbort, TxnCtx, TxnError, TxnOptions};
use rodain_occ::Csn;
use rodain_store::{ObjectId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One operation inside a cross-shard transaction.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardOp {
    /// Add `delta` to an integer object (missing objects count as 0).
    /// Deltas commute, so concurrent transfers over the same accounts
    /// never lose money regardless of apply order.
    Add {
        /// Target object.
        oid: ObjectId,
        /// Signed amount to add.
        delta: i64,
    },
    /// Overwrite an object with `value`.
    Put {
        /// Target object.
        oid: ObjectId,
        /// New value.
        value: Value,
    },
}

impl ShardOp {
    /// The object this operation targets.
    #[must_use]
    pub fn oid(&self) -> ObjectId {
        match self {
            ShardOp::Add { oid, .. } | ShardOp::Put { oid, .. } => *oid,
        }
    }
}

/// Injected coordinator-crash points for recovery tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CrashPoint {
    /// No injected crash (the normal path).
    #[default]
    None,
    /// Stop after every participant prepared, before the decision —
    /// recovery must presume abort.
    AfterPrepare,
    /// Stop right after the decision committed — recovery must roll
    /// forward.
    AfterDecision,
    /// Stop after every participant applied, before any cleanup —
    /// recovery only has markers and the decision to delete.
    AfterApply,
}

/// Outcome of a committed cross-shard transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrossReceipt {
    /// Group id allocated for the transaction (0 for the single-shard
    /// fast path, which needs no 2PC bookkeeping). Its high bits carry
    /// the coordinator shard (see [`crate::ShardedRodain::alloc_gid`]).
    pub gid: u64,
    /// The shard that carried the decision record.
    pub coordinator_shard: usize,
    /// The coordinator's commit sequence number — the transaction's
    /// global commit point.
    pub decision_csn: Csn,
    /// Participant shard count.
    pub participants: usize,
}

/// What a resolve pass found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolveReport {
    /// Intents with a decision record: applied and cleaned.
    pub rolled_forward: u64,
    /// Intents whose coordinator answered "no decision": presumed aborted
    /// and deleted.
    pub aborted: u64,
    /// Intents left in place because the coordinator shard could not be
    /// asked (or the roll-forward failed); a later pass retries them.
    pub kept: u64,
    /// Already-applied `Int` markers cleaned up.
    pub markers_cleaned: u64,
    /// Decision records deleted once no intent could still need them.
    pub decisions_cleaned: u64,
}

/// Why [`run`] did not commit.
#[derive(Debug, PartialEq)]
pub enum CoordError<E> {
    /// The operation list was empty.
    Empty,
    /// A step failed before the commit point: presumed abort, no data
    /// changed, retrying is safe.
    Aborted(E),
    /// The commit point's outcome is unknown (the participant never
    /// answered). Intents stay for [`resolve_intents`]; retrying could
    /// apply the transaction twice.
    InDoubt(E),
    /// An injected [`CrashPoint`] stopped the coordinator.
    Crashed(CrashPoint),
}

/// One shard as the coordinator sees it: a local engine
/// ([`LocalParticipant`]) or a peer connection (`rodain-cluster`'s
/// `PeerParticipant`). `prepare` and `apply` are split into begin → wait
/// so a coordinator can overlap the per-shard commit waits.
pub trait Participant {
    /// Step failure.
    type Error;
    /// A prepare or apply in flight.
    type Pending;

    /// Whether `err` means "no answer" — the step may or may not have
    /// happened — rather than a refusal that changed nothing.
    fn in_doubt(err: &Self::Error) -> bool;
    /// Commit `ops` as one ordinary transaction (every op lives here).
    fn commit_direct(&self, ops: Vec<ShardOp>) -> Result<Csn, Self::Error>;
    /// Start writing this shard's durable intent for `gid`.
    fn begin_prepare(&self, gid: u64, coordinator: usize, ops: &[ShardOp]) -> Self::Pending;
    /// Commit the decision record for `gid` on this (coordinator) shard.
    fn decide(&self, gid: u64) -> Result<Csn, Self::Error>;
    /// Start applying this shard's intent for `gid`, leaving a marker
    /// carrying `stamp`. Idempotent: a marker or missing intent is a no-op.
    fn begin_apply(&self, gid: u64, stamp: i64) -> Self::Pending;
    /// Finish a step started by `begin_prepare` / `begin_apply`.
    fn wait(&self, pending: Self::Pending) -> Result<(), Self::Error>;
    /// Best-effort delete of `gid`'s intent (or marker) or decision here;
    /// a miss is picked up by the next resolve pass.
    fn cleanup(&self, gid: u64, kind: MetaKind);
    /// Whether this (coordinator) shard holds a decision record for `gid`.
    fn query_decision(&self, gid: u64) -> Result<bool, Self::Error>;
}

/// The coordinator: group `ops` by shard, then commit-direct (one shard)
/// or prepare → decide → apply → cleanup (several). `participant` seats
/// a shard (failing before anything is written costs nothing);
/// `alloc_gid` issues the group id on the coordinator shard — the lowest
/// participating one.
pub fn run<P: Participant>(
    router: ShardRouter,
    ops: Vec<ShardOp>,
    crash: CrashPoint,
    participant: impl Fn(usize) -> Result<P, P::Error>,
    alloc_gid: impl FnOnce(usize) -> Result<u64, P::Error>,
) -> Result<CrossReceipt, CoordError<P::Error>> {
    if ops.is_empty() {
        return Err(CoordError::Empty);
    }
    let mut groups: BTreeMap<usize, Vec<ShardOp>> = BTreeMap::new();
    for op in ops {
        groups.entry(router.route(op.oid())).or_default().push(op);
    }
    let coordinator_shard = *groups.keys().next().expect("non-empty");
    let mut parts = Vec::with_capacity(groups.len());
    for (shard, ops) in groups {
        parts.push((participant(shard).map_err(CoordError::Aborted)?, ops));
    }
    let mut receipt = CrossReceipt {
        gid: 0,
        coordinator_shard,
        decision_csn: Csn(0),
        participants: parts.len(),
    };
    if parts.len() == 1 {
        let (only, ops) = parts.pop().expect("one group");
        return match only.commit_direct(ops) {
            Ok(csn) => Ok(CrossReceipt {
                decision_csn: csn,
                ..receipt
            }),
            Err(err) if P::in_doubt(&err) => Err(CoordError::InDoubt(err)),
            Err(err) => Err(CoordError::Aborted(err)),
        };
    }

    let gid = alloc_gid(coordinator_shard).map_err(CoordError::Aborted)?;
    receipt.gid = gid;
    let wait_all = |pending: Vec<P::Pending>| {
        let mut failed = None;
        for ((p, _), step) in parts.iter().zip(pending) {
            failed = p.wait(step).err().or(failed);
        }
        failed
    };
    // No decision exists, so the transaction is aborted by presumption;
    // tearing the intents down now only spares resolve the work.
    let abort = |err| {
        for (p, _) in &parts {
            p.cleanup(gid, MetaKind::Intent);
        }
        CoordError::Aborted(err)
    };

    let prepares = parts
        .iter()
        .map(|(p, ops)| p.begin_prepare(gid, coordinator_shard, ops))
        .collect();
    if let Some(err) = wait_all(prepares) {
        return Err(abort(err));
    }
    if crash == CrashPoint::AfterPrepare {
        return Err(CoordError::Crashed(crash));
    }

    let coordinator = &parts[0].0;
    receipt.decision_csn = match coordinator.decide(gid) {
        Ok(csn) => csn,
        Err(err) if P::in_doubt(&err) => return Err(CoordError::InDoubt(err)),
        Err(err) => return Err(abort(err)),
    };
    if crash == CrashPoint::AfterDecision {
        return Ok(receipt);
    }

    // Committed. An apply that fails leaves its intent and the decision
    // in place for resolve to roll forward; the outcome is still commit.
    let stamp = receipt.decision_csn.0 as i64;
    let applies = parts
        .iter()
        .map(|(p, _)| p.begin_apply(gid, stamp))
        .collect();
    if wait_all(applies).is_some() || crash == CrashPoint::AfterApply {
        return Ok(receipt);
    }
    for (p, _) in &parts {
        p.cleanup(gid, MetaKind::Intent);
    }
    coordinator.cleanup(gid, MetaKind::Decision);
    Ok(receipt)
}

/// One 2PC bookkeeping object a shard still holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Leftover {
    /// The transaction's group id.
    pub gid: u64,
    /// What the object is.
    pub held: Held,
}

/// The three things a shard can still hold of a cross-shard transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Held {
    /// An unapplied intent and the coordinator shard it names (`None`
    /// when the payload does not decode — it can never commit).
    Intent(Option<usize>),
    /// An applied intent: the data changed, only the marker lingers.
    Marker,
    /// A decision record.
    Decision,
}

/// Resolve the intents among `leftovers` on shard `p`. `decided` looks a
/// decision up on a coordinator shard and is three-valued: `Some(true)`
/// rolls the intent forward, `Some(false)` presumes abort, `None` (nobody
/// answered) keeps the intent for a later pass.
pub fn resolve_intents<P: Participant>(
    p: &P,
    leftovers: &[Leftover],
    decided: impl Fn(usize, u64) -> Option<bool>,
    report: &mut ResolveReport,
) {
    for &Leftover { gid, held } in leftovers {
        let verdict = match held {
            Held::Decision => continue,
            Held::Marker => {
                p.cleanup(gid, MetaKind::Intent);
                report.markers_cleaned += 1;
                continue;
            }
            Held::Intent(coordinator) => {
                coordinator.map_or(Some(false), |shard| decided(shard, gid))
            }
        };
        match verdict {
            // The decision's CSN is not recoverable here; the gid stamps
            // the marker instead.
            Some(true) if p.wait(p.begin_apply(gid, gid as i64)).is_ok() => {
                p.cleanup(gid, MetaKind::Intent);
                report.rolled_forward += 1;
            }
            Some(false) => {
                p.cleanup(gid, MetaKind::Intent);
                report.aborted += 1;
            }
            _ => report.kept += 1,
        }
    }
}

/// Delete the decision records among `leftovers` on shard `p`. Only safe
/// once a resolve pass over *every* shard kept nothing.
pub fn gc_decisions<P: Participant>(p: &P, leftovers: &[Leftover], report: &mut ResolveReport) {
    for leftover in leftovers.iter().filter(|l| l.held == Held::Decision) {
        p.cleanup(leftover.gid, MetaKind::Decision);
        report.decisions_cleaned += 1;
    }
}

/// Encode one [`ShardOp`] as a [`Value`] — the building block of both the
/// durable intent payload and the networked cluster protocol's op lists.
#[must_use]
pub fn encode_op(op: &ShardOp) -> Value {
    match op {
        ShardOp::Add { oid, delta } => Value::Record(vec![
            Value::Int(0),
            Value::Int(oid.0 as i64),
            Value::Int(*delta),
        ]),
        ShardOp::Put { oid, value } => {
            Value::Record(vec![Value::Int(1), Value::Int(oid.0 as i64), value.clone()])
        }
    }
}

/// Inverse of [`encode_op`]; `None` on any shape mismatch.
#[must_use]
pub fn decode_op(value: &Value) -> Option<ShardOp> {
    let Value::Record(fields) = value else {
        return None;
    };
    match fields.as_slice() {
        [Value::Int(0), Value::Int(oid), Value::Int(delta)] => Some(ShardOp::Add {
            oid: ObjectId(*oid as u64),
            delta: *delta,
        }),
        [Value::Int(1), Value::Int(oid), value] => Some(ShardOp::Put {
            oid: ObjectId(*oid as u64),
            value: value.clone(),
        }),
        _ => None,
    }
}

/// A participant's durable-intent payload: the transaction's group id,
/// its coordinator shard, and the operations to apply on this shard.
fn encode_intent(gid: u64, coordinator: usize, ops: &[ShardOp]) -> Value {
    Value::Record(vec![
        Value::Int(gid as i64),
        Value::Int(coordinator as i64),
        Value::Record(ops.iter().map(encode_op).collect()),
    ])
}

/// Inverse of [`encode_intent`]: `(coordinator_shard, ops)`.
fn decode_intent(value: &Value) -> Option<(usize, Vec<ShardOp>)> {
    let Value::Record(fields) = value else {
        return None;
    };
    let [Value::Int(_), Value::Int(coordinator), Value::Record(ops)] = fields.as_slice() else {
        return None;
    };
    let ops = ops.iter().map(decode_op).collect::<Option<Vec<_>>>()?;
    Some((*coordinator as usize, ops))
}

/// The one place `ShardOp`s turn into reads and writes.
fn apply_ops(ctx: &mut TxnCtx, ops: &[ShardOp]) -> Result<(), TxnAbort> {
    for op in ops {
        match op {
            ShardOp::Add { oid, delta } => {
                let current = ctx.read(*oid)?.and_then(|v| v.as_int()).unwrap_or(0);
                ctx.write(*oid, Value::Int(current + delta))?;
            }
            ShardOp::Put { oid, value } => ctx.write(*oid, value.clone())?,
        }
    }
    Ok(())
}

/// Applications may not aim operations at 2PC bookkeeping objects.
fn reject_meta(ops: &[ShardOp]) -> Result<(), TxnError> {
    if ops.iter().any(|op| ShardRouter::is_meta(op.oid())) {
        return Err(TxnError::UserAbort(
            "cross-shard operations must target data objects".into(),
        ));
    }
    Ok(())
}

/// A shard seated in this process: every protocol step is one local
/// transaction through the engine's normal commit path. The only code
/// that knows what a shard *does* at each step.
pub struct LocalParticipant {
    pub(crate) engine: Arc<Rodain>,
    pub(crate) router: ShardRouter,
    pub(crate) shard: usize,
    /// Every step but cleanup runs under these (the caller's deadline
    /// class).
    pub(crate) opts: TxnOptions,
}

impl LocalParticipant {
    /// Every intent, marker and decision this shard still holds.
    #[must_use]
    pub fn leftovers(&self) -> Vec<Leftover> {
        let snapshot = self.engine.snapshot();
        let metas = snapshot.objects.iter().filter_map(|(oid, object)| {
            let meta = ShardRouter::meta_parts(*oid)?;
            let held = match (meta.kind, &object.value) {
                (MetaKind::Decision, _) => Held::Decision,
                (MetaKind::Intent, Value::Int(_)) => Held::Marker,
                (MetaKind::Intent, value) => {
                    Held::Intent(decode_intent(value).map(|(shard, _)| shard))
                }
            };
            Some(Leftover {
                gid: meta.gid,
                held,
            })
        });
        metas.collect()
    }
}

impl Participant for LocalParticipant {
    type Error = TxnError;
    type Pending = CommitFuture;

    /// A commit whose gate timed out, or whose engine went away mid-wait,
    /// may already sit in the store.
    fn in_doubt(err: &TxnError) -> bool {
        matches!(err, TxnError::Replication(_) | TxnError::Shutdown)
    }

    fn commit_direct(&self, ops: Vec<ShardOp>) -> Result<Csn, TxnError> {
        reject_meta(&ops)?;
        let receipt = self.engine.execute(self.opts, move |ctx| {
            apply_ops(ctx, &ops)?;
            Ok(None)
        })?;
        Ok(receipt.csn)
    }

    fn begin_prepare(&self, gid: u64, coordinator: usize, ops: &[ShardOp]) -> CommitFuture {
        if let Err(err) = reject_meta(ops) {
            return CommitFuture::ready(Err(err));
        }
        let intent = self.router.intent_oid(self.shard, gid);
        let payload = encode_intent(gid, coordinator, ops);
        self.engine.submit(self.opts, move |ctx| {
            ctx.write(intent, payload.clone())?;
            Ok(None)
        })
    }

    fn decide(&self, gid: u64) -> Result<Csn, TxnError> {
        let decision = self.router.decision_oid(self.shard, gid);
        let receipt = self.engine.execute(self.opts, move |ctx| {
            ctx.write(decision, Value::Int(gid as i64))?;
            Ok(None)
        })?;
        Ok(receipt.csn)
    }

    fn begin_apply(&self, gid: u64, stamp: i64) -> CommitFuture {
        let intent = self.router.intent_oid(self.shard, gid);
        self.engine.submit(self.opts, move |ctx| {
            let Some(payload @ Value::Record(_)) = ctx.read(intent)? else {
                return Ok(None);
            };
            let Some((_, ops)) = decode_intent(&payload) else {
                return Err(ctx.abort("undecodable intent"));
            };
            apply_ops(ctx, &ops)?;
            ctx.write(intent, Value::Int(stamp))?;
            Ok(None)
        })
    }

    fn wait(&self, pending: CommitFuture) -> Result<(), TxnError> {
        pending.wait().map(|_| ())
    }

    fn cleanup(&self, gid: u64, kind: MetaKind) {
        let oid = match kind {
            MetaKind::Intent => self.router.intent_oid(self.shard, gid),
            MetaKind::Decision => self.router.decision_oid(self.shard, gid),
        };
        let _ = self
            .engine
            .execute(TxnOptions::non_real_time(), move |ctx| {
                ctx.write(oid, Value::Null)?;
                Ok(None)
            });
    }

    fn query_decision(&self, gid: u64) -> Result<bool, TxnError> {
        let decision = self.router.decision_oid(self.shard, gid);
        Ok(self.engine.get(decision).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedRodain, GID_SEQ_MASK};
    use rodain_store::Store;
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};

    /// Two object ids living on shards `s1` and `s2` of `db`.
    fn pair_on(db: &ShardedRodain, s1: usize, s2: usize) -> (ObjectId, ObjectId) {
        let on = |shard| {
            (1..1_000u64)
                .map(ObjectId)
                .find(|&oid| db.shard_of(oid) == shard)
                .expect("some id routes there")
        };
        (on(s1), on(s2))
    }

    /// Two object ids guaranteed to live on different shards of `db`.
    fn split_pair(db: &ShardedRodain) -> (ObjectId, ObjectId) {
        let a = ObjectId(1);
        let b = (2..1_000u64)
            .map(ObjectId)
            .find(|&oid| db.shard_of(oid) != db.shard_of(a))
            .expect("some id routes elsewhere");
        (a, b)
    }

    fn cluster(shards: usize) -> ShardedRodain {
        ShardedRodain::builder()
            .shards(shards)
            .workers_per_shard(2)
            .build()
            .unwrap()
    }

    fn transfer(a: ObjectId, b: ObjectId, amount: i64) -> Vec<ShardOp> {
        vec![
            ShardOp::Add {
                oid: a,
                delta: -amount,
            },
            ShardOp::Add {
                oid: b,
                delta: amount,
            },
        ]
    }

    fn total(db: &ShardedRodain, oids: &[ObjectId]) -> i64 {
        oids.iter()
            .map(|&oid| db.get(oid).and_then(|v| v.as_int()).unwrap_or(0))
            .sum()
    }

    /// No 2PC bookkeeping left anywhere.
    fn assert_no_meta(db: &ShardedRodain) {
        for shard in 0..db.shard_count() {
            let snapshot = db.engine(shard).unwrap().snapshot();
            for (oid, _) in &snapshot.objects {
                assert!(
                    ShardRouter::meta_parts(*oid).is_none(),
                    "leftover meta object {oid:?} on shard {shard}"
                );
            }
        }
    }

    #[test]
    fn cross_shard_transfer_moves_money_atomically() {
        let db = cluster(4);
        let (a, b) = split_pair(&db);
        db.load_initial(a, Value::Int(100));
        db.load_initial(b, Value::Int(50));
        let receipt = db
            .execute_cross(TxnOptions::soft_ms(5_000), transfer(a, b, 30))
            .unwrap();
        assert_eq!(receipt.participants, 2);
        assert!(receipt.gid > 0);
        assert_eq!(db.get(a), Some(Value::Int(70)));
        assert_eq!(db.get(b), Some(Value::Int(80)));
        assert_eq!(total(&db, &[a, b]), 150);
        assert_no_meta(&db);
    }

    #[test]
    fn colocated_ops_take_the_local_fast_path() {
        let db = cluster(4);
        let a = ObjectId(1);
        let b = (2..1_000u64)
            .map(ObjectId)
            .find(|&oid| db.shard_of(oid) == db.shard_of(a))
            .unwrap();
        db.load_initial(a, Value::Int(10));
        let receipt = db
            .execute_cross(
                TxnOptions::soft_ms(5_000),
                vec![
                    ShardOp::Add { oid: a, delta: 5 },
                    ShardOp::Put {
                        oid: b,
                        value: Value::Text("x".into()),
                    },
                ],
            )
            .unwrap();
        assert_eq!(receipt.gid, 0, "single-shard group must skip 2PC");
        assert_eq!(receipt.participants, 1);
        assert_eq!(db.get(a), Some(Value::Int(15)));
        assert_eq!(db.get(b), Some(Value::Text("x".into())));
        assert_no_meta(&db);
    }

    #[test]
    fn meta_targets_and_empty_txns_are_rejected() {
        let db = cluster(2);
        assert!(matches!(
            db.execute_cross(TxnOptions::soft_ms(100), vec![]),
            Err(TxnError::UserAbort(_))
        ));
        let meta = db.router().intent_oid(0, 1);
        let poke = ShardOp::Add {
            oid: meta,
            delta: 1,
        };
        assert!(matches!(
            db.execute_cross(TxnOptions::soft_ms(100), vec![poke.clone()]),
            Err(TxnError::UserAbort(_))
        ));
        // Inside a multi-shard transaction the participant refuses at
        // prepare and the whole transaction aborts cleanly.
        let (_, b) = pair_on(&db, 0, 1);
        db.load_initial(b, Value::Int(5));
        assert!(matches!(
            db.execute_cross(
                TxnOptions::soft_ms(5_000),
                vec![poke, ShardOp::Add { oid: b, delta: 1 }]
            ),
            Err(TxnError::UserAbort(_))
        ));
        assert_eq!(db.get(b), Some(Value::Int(5)));
        assert_no_meta(&db);
    }

    #[test]
    fn crash_after_prepare_presumes_abort() {
        let db = cluster(3);
        let (a, b) = split_pair(&db);
        db.load_initial(a, Value::Int(100));
        db.load_initial(b, Value::Int(0));
        let err = db
            .execute_cross_with_crash(
                TxnOptions::soft_ms(5_000),
                transfer(a, b, 40),
                CrashPoint::AfterPrepare,
            )
            .unwrap_err();
        assert!(matches!(err, TxnError::Replication(_)));
        // Intents exist, data untouched, decision absent.
        assert_eq!(db.get(a), Some(Value::Int(100)));
        assert_eq!(db.get(b), Some(Value::Int(0)));
        let report = db.resolve_pending();
        assert_eq!(report.aborted, 2);
        assert_eq!(report.rolled_forward, 0);
        assert_eq!(db.get(a), Some(Value::Int(100)));
        assert_eq!(db.get(b), Some(Value::Int(0)));
        assert_no_meta(&db);
    }

    #[test]
    fn crash_after_decision_rolls_forward() {
        let db = cluster(3);
        let (a, b) = split_pair(&db);
        db.load_initial(a, Value::Int(100));
        db.load_initial(b, Value::Int(0));
        let receipt = db
            .execute_cross_with_crash(
                TxnOptions::soft_ms(5_000),
                transfer(a, b, 40),
                CrashPoint::AfterDecision,
            )
            .unwrap();
        assert!(receipt.decision_csn.0 > 0);
        // Data not applied yet — the "coordinator" died after deciding.
        assert_eq!(db.get(a), Some(Value::Int(100)));
        let report = db.resolve_pending();
        assert_eq!(report.rolled_forward, 2);
        assert_eq!(report.aborted, 0);
        assert_eq!(report.decisions_cleaned, 1);
        assert_eq!(db.get(a), Some(Value::Int(60)));
        assert_eq!(db.get(b), Some(Value::Int(40)));
        assert_no_meta(&db);
        // Resolution is idempotent.
        assert_eq!(db.resolve_pending(), ResolveReport::default());
    }

    /// A decided transaction whose coordinator shard is detached
    /// mid-failover: resolve cannot ask, so it must keep the other
    /// participant's intent (not presume abort) and roll both forward once
    /// the shard is seated again.
    #[test]
    fn resolve_with_the_coordinator_shard_detached_keeps_decided_intents() {
        let db = cluster(3);
        let (a, b) = split_pair(&db);
        db.load_initial(a, Value::Int(100));
        db.load_initial(b, Value::Int(0));
        let receipt = db
            .execute_cross_with_crash(
                TxnOptions::soft_ms(5_000),
                transfer(a, b, 40),
                CrashPoint::AfterDecision,
            )
            .unwrap();
        let taken = db.take_shard(receipt.coordinator_shard).unwrap();
        let report = db.resolve_pending();
        assert_eq!(
            (report.kept, report.aborted, report.rolled_forward),
            (1, 0, 0)
        );
        assert_eq!(report.decisions_cleaned, 0);
        db.install_shard(receipt.coordinator_shard, taken);
        let report = db.resolve_pending();
        assert_eq!(
            (report.kept, report.aborted, report.rolled_forward),
            (0, 0, 2)
        );
        assert_eq!(db.get(a), Some(Value::Int(60)));
        assert_eq!(db.get(b), Some(Value::Int(40)));
        assert_no_meta(&db);
    }

    #[test]
    fn recovered_cluster_presumes_abort_and_never_reissues_a_leftover_gid() {
        // Simulate a restart: the stores survive (as a mirror's copy
        // would), the facade is rebuilt around them, then resolved.
        let stores: Vec<Arc<Store>> = (0..3).map(|_| Arc::new(Store::new())).collect();
        let build = || {
            ShardedRodain::builder()
                .shards(3)
                .stores(stores.clone())
                .build()
                .unwrap()
        };
        let db = build();
        // Both participants off shard 0, so the shard in the gid's high
        // bits is visibly the coordinator's.
        let (a, b) = pair_on(&db, 1, 2);
        db.load_initial(a, Value::Int(10));
        db.load_initial(b, Value::Int(20));
        let _ = db.execute_cross_with_crash(
            TxnOptions::soft_ms(5_000),
            transfer(a, b, 5),
            CrashPoint::AfterPrepare,
        );
        let held = db.participant(1, TxnOptions::non_real_time()).unwrap();
        let leftover_gid = held.leftovers()[0].gid;
        assert_eq!(leftover_gid >> 32, 1, "gid embeds the coordinator shard");
        drop((held, db));

        let db = build();
        let report = db.resolve_pending();
        assert_eq!(report.aborted, 2);
        assert_eq!(total(&db, &[a, b]), 30);
        assert_eq!(db.get(a), Some(Value::Int(10)));
        assert_no_meta(&db);
        // The fresh allocator's sequence moved past the recovered id's
        // (sequence part only: the shard bits must not inflate it).
        let receipt = db
            .execute_cross(TxnOptions::soft_ms(5_000), transfer(a, b, 1))
            .unwrap();
        assert_eq!(receipt.coordinator_shard, 1);
        assert_eq!(receipt.gid >> 32, 1);
        assert_eq!(
            receipt.gid & GID_SEQ_MASK,
            (leftover_gid & GID_SEQ_MASK) + 1
        );
    }

    // ---- the crash/failure matrix, on a fake participant ----

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Step {
        CommitDirect,
        Prepare,
        Decide,
        Apply,
        Cleanup,
        Query,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fault {
        /// The shard answers "no": nothing happened.
        Refused,
        /// No answer; `true` = the step took effect anyway.
        Unreachable(bool),
    }

    /// An unapplied intent's `(coordinator, ops)`; `None` once applied.
    type FakeIntent = Option<(usize, Vec<ShardOp>)>;

    /// Fail `Step` on shard `usize` with `Fault`.
    type Armed = Option<(Step, usize, Fault)>;

    /// Two fake shards' worth of state plus one armed fault.
    #[derive(Default)]
    struct World {
        data: BTreeMap<ObjectId, i64>,
        intents: BTreeMap<(usize, u64), FakeIntent>,
        decisions: BTreeSet<(usize, u64)>,
        fault: Armed,
    }

    struct Fake<'w> {
        world: &'w RefCell<World>,
        shard: usize,
    }

    impl Fake<'_> {
        /// Run `effect` unless the armed fault says this step is lost.
        fn step(&self, step: Step, effect: impl FnOnce(&mut World)) -> Result<(), Fault> {
            let mut world = self.world.borrow_mut();
            let fault = world
                .fault
                .and_then(|(s, shard, f)| (s == step && shard == self.shard).then_some(f));
            if fault.is_none_or(|f| f == Fault::Unreachable(true)) {
                effect(&mut world);
            }
            fault.map_or(Ok(()), Err)
        }

        fn add(world: &mut World, ops: &[ShardOp]) {
            for op in ops {
                if let ShardOp::Add { oid, delta } = op {
                    *world.data.entry(*oid).or_default() += delta;
                }
            }
        }

        fn leftovers(&self) -> Vec<Leftover> {
            let world = self.world.borrow();
            let intents = world
                .intents
                .iter()
                .filter(|((shard, _), _)| *shard == self.shard)
                .map(|((_, gid), intent)| Leftover {
                    gid: *gid,
                    held: match intent {
                        Some((coordinator, _)) => Held::Intent(Some(*coordinator)),
                        None => Held::Marker,
                    },
                });
            let decisions = world
                .decisions
                .iter()
                .filter(|(shard, _)| *shard == self.shard)
                .map(|(_, gid)| Leftover {
                    gid: *gid,
                    held: Held::Decision,
                });
            intents.chain(decisions).collect()
        }
    }

    impl Participant for Fake<'_> {
        type Error = Fault;
        type Pending = Result<(), Fault>;

        fn in_doubt(err: &Fault) -> bool {
            matches!(err, Fault::Unreachable(_))
        }

        fn commit_direct(&self, ops: Vec<ShardOp>) -> Result<Csn, Fault> {
            self.step(Step::CommitDirect, |w| Fake::add(w, &ops))?;
            Ok(Csn(1))
        }

        fn begin_prepare(&self, gid: u64, coordinator: usize, ops: &[ShardOp]) -> Self::Pending {
            self.step(Step::Prepare, |w| {
                w.intents
                    .insert((self.shard, gid), Some((coordinator, ops.to_vec())));
            })
        }

        fn decide(&self, gid: u64) -> Result<Csn, Fault> {
            self.step(Step::Decide, |w| {
                w.decisions.insert((self.shard, gid));
            })?;
            Ok(Csn(9))
        }

        fn begin_apply(&self, gid: u64, _stamp: i64) -> Self::Pending {
            self.step(Step::Apply, |w| {
                if let Some(Some((_, ops))) = w.intents.insert((self.shard, gid), None) {
                    Fake::add(w, &ops);
                }
            })
        }

        fn wait(&self, pending: Self::Pending) -> Result<(), Fault> {
            pending
        }

        fn cleanup(&self, gid: u64, kind: MetaKind) {
            let _ = self.step(Step::Cleanup, |w| match kind {
                MetaKind::Intent => {
                    w.intents.remove(&(self.shard, gid));
                }
                MetaKind::Decision => {
                    w.decisions.remove(&(self.shard, gid));
                }
            });
        }

        fn query_decision(&self, gid: u64) -> Result<bool, Fault> {
            let mut decided = false;
            self.step(Step::Query, |w| {
                decided = w.decisions.contains(&(self.shard, gid));
            })?;
            Ok(decided)
        }
    }

    const GID: u64 = (1 << 32) | 7;

    /// Object ids routing to shards 0 and 1 of a 2-shard router.
    fn fake_pair(router: ShardRouter) -> (ObjectId, ObjectId) {
        let on = |shard| {
            (1..100u64)
                .map(ObjectId)
                .find(|&o| router.route(o) == shard)
                .unwrap()
        };
        (on(0), on(1))
    }

    fn run_fake(
        world: &RefCell<World>,
        ops: Vec<ShardOp>,
        crash: CrashPoint,
    ) -> Result<CrossReceipt, CoordError<Fault>> {
        run(
            ShardRouter::new(2),
            ops,
            crash,
            |shard| Ok(Fake { world, shard }),
            |_| Ok(GID),
        )
    }

    /// One resolve sweep over both fake shards, the way the facade runs
    /// it: intents first, decisions only if nothing was kept.
    fn resolve_fake(world: &RefCell<World>) -> ResolveReport {
        let shards = [Fake { world, shard: 0 }, Fake { world, shard: 1 }];
        let decided = |shard: usize, gid| shards[shard].query_decision(gid).ok();
        let mut report = ResolveReport::default();
        for shard in &shards {
            resolve_intents(shard, &shard.leftovers(), decided, &mut report);
        }
        if report.kept == 0 {
            for shard in &shards {
                gc_decisions(shard, &shard.leftovers(), &mut report);
            }
        }
        report
    }

    #[test]
    fn every_step_failure_and_crash_point_resolves_to_all_or_nothing() {
        let (a, b) = fake_pair(ShardRouter::new(2));
        let faults = [
            Fault::Refused,
            Fault::Unreachable(false),
            Fault::Unreachable(true),
        ];
        let mut cases: Vec<(Armed, CrashPoint)> = vec![
            (None, CrashPoint::None),
            (None, CrashPoint::AfterPrepare),
            (None, CrashPoint::AfterDecision),
            (None, CrashPoint::AfterApply),
        ];
        for step in [Step::Prepare, Step::Decide, Step::Apply, Step::Cleanup] {
            for shard in [0, 1] {
                for fault in faults {
                    cases.push((Some((step, shard, fault)), CrashPoint::None));
                }
            }
        }
        for (fault, crash) in cases {
            let case = format!("{fault:?} {crash:?}");
            let world = RefCell::new(World {
                fault,
                ..World::default()
            });
            let outcome = run_fake(&world, transfer(a, b, 40), crash);
            let decided = world.borrow().decisions.contains(&(0, GID));
            match &outcome {
                Ok(receipt) => {
                    assert!(decided || crash == CrashPoint::None, "{case}");
                    assert_eq!((receipt.gid, receipt.coordinator_shard), (GID, 0), "{case}");
                }
                // Only an unanswered decide may leave a decision behind an
                // error — and then the error must say "in doubt".
                Err(CoordError::InDoubt(_)) => {
                    assert_eq!(fault.map(|f| f.0), Some(Step::Decide), "{case}");
                }
                Err(_) => assert!(!decided, "{case}"),
            }
            // The fault heals; recovery runs.
            world.borrow_mut().fault = None;
            resolve_fake(&world);
            let applied = outcome.is_ok() || decided;
            let expect = if applied { 40 } else { 0 };
            let w = world.borrow();
            assert_eq!(w.data.get(&a).copied().unwrap_or(0), -expect, "{case}");
            assert_eq!(w.data.get(&b).copied().unwrap_or(0), expect, "{case}");
            assert!(w.intents.is_empty() && w.decisions.is_empty(), "{case}");
            drop(w);
            assert_eq!(resolve_fake(&world), ResolveReport::default(), "{case}");
        }
    }

    #[test]
    fn an_unanswered_decision_lookup_keeps_the_intent_and_the_decision() {
        let (a, b) = fake_pair(ShardRouter::new(2));
        let world = RefCell::new(World::default());
        run_fake(&world, transfer(a, b, 40), CrashPoint::AfterDecision).unwrap();
        for fault in [Fault::Refused, Fault::Unreachable(false)] {
            world.borrow_mut().fault = Some((Step::Query, 0, fault));
            let report = resolve_fake(&world);
            assert_eq!((report.kept, report.decisions_cleaned), (2, 0));
            assert_eq!(world.borrow().intents.len(), 2);
            assert!(world.borrow().data.is_empty());
        }
        world.borrow_mut().fault = None;
        let report = resolve_fake(&world);
        assert_eq!((report.rolled_forward, report.decisions_cleaned), (2, 1));
        assert_eq!(world.borrow().data[&b], 40);
    }

    #[test]
    fn single_shard_commits_classify_lost_answers_as_in_doubt() {
        let (a, _) = fake_pair(ShardRouter::new(2));
        let bump = || vec![ShardOp::Add { oid: a, delta: 1 }];
        for (fault, expect, applied) in [
            (Fault::Refused, CoordError::Aborted(Fault::Refused), 0),
            (
                Fault::Unreachable(false),
                CoordError::InDoubt(Fault::Unreachable(false)),
                0,
            ),
            (
                Fault::Unreachable(true),
                CoordError::InDoubt(Fault::Unreachable(true)),
                1,
            ),
        ] {
            let world = RefCell::new(World {
                fault: Some((Step::CommitDirect, 0, fault)),
                ..World::default()
            });
            assert_eq!(run_fake(&world, bump(), CrashPoint::None), Err(expect));
            assert_eq!(world.borrow().data.get(&a).copied().unwrap_or(0), applied);
        }
        let world = RefCell::new(World::default());
        assert_eq!(
            run_fake(&world, vec![], CrashPoint::None),
            Err(CoordError::Empty)
        );
        let receipt = run_fake(&world, bump(), CrashPoint::None).unwrap();
        assert_eq!((receipt.gid, receipt.participants), (0, 1));
    }
}
