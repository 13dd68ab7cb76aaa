//! # rodain-shard — hash-partitioned multi-engine cluster
//!
//! The paper's Primary/Mirror pair bounds throughput at **one commit gate
//! and one log stream**. This crate scales the protocol horizontally by
//! partitioning the [`rodain_store::ObjectId`] space across N independent
//! [`rodain_db::Rodain`] engines — each shard keeps its own OCC
//! controller, EDF scheduler, redo-log stream and (optionally) its own
//! mirror, so availability stays exactly the paper's protocol, replicated
//! N times: a shard's primary failing is handled by *that shard's* mirror
//! while the other shards never notice.
//!
//! * [`ShardRouter`] — stateless hash partitioning of data objects, plus a
//!   reserved metadata namespace (high bit set) whose object ids embed
//!   their home shard, so 2PC bookkeeping objects route deterministically.
//! * [`ShardedRodain`] — the facade. Single-shard transactions take the
//!   fast path: route, delegate, zero added overhead. Cross-shard
//!   transactions go through a two-phase commit layered on the existing
//!   per-shard commit gates: *prepare* writes a durable intent record
//!   through each participant's normal commit path (per-shard OCC
//!   validation + the intent shipped like any redo record), *commit* is a
//!   decision record on the coordinator shard whose CSN is then stamped
//!   into every participant's redo stream by the apply phase. The
//!   coordinator ([`run`]) is generic over a [`Participant`]:
//!   [`LocalParticipant`] is a shard seated in this process, and
//!   `rodain-cluster` drives the same state machine over peer sockets.
//! * [`ShardMap`] — the versioned (epoch-numbered) shard → owning-node
//!   assignment multi-node placement routes by: clients cache a map,
//!   nodes answer `WrongShard { epoch }` for shards they don't own, and
//!   every ownership change (a migration cutover) bumps the epoch
//!   exactly once (see `DESIGN.md` §16).
//! * Presumed abort: a crash between prepare and decision leaves intents
//!   with no decision record; [`ShardedRodain::resolve_pending`] replays
//!   them to abort. A crash after the decision rolls forward. An intent
//!   whose coordinator shard cannot be asked is kept, never presumed.
//!
//! See `DESIGN.md` §11 for the full protocol walk-through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod facade;
mod map;
mod router;
mod twopc;

pub use facade::{ShardedRodain, ShardedRodainBuilder, GID_SEQ_MASK};
pub use map::{ShardMap, ShardOwner};
pub use router::{MetaKind, MetaOid, ShardRouter, MAX_SHARDS, META_BIT};
pub use twopc::{
    decode_op, encode_op, gc_decisions, resolve_intents, run, CoordError, CrashPoint, CrossReceipt,
    Held, Leftover, LocalParticipant, Participant, ResolveReport, ShardOp,
};
