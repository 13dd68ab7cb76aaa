//! The networked 2PC coordinator: runs `rodain-shard`'s one durable-intent
//! driver (`DESIGN.md` §11) over `PeerParticipant`s — shards reached
//! through peer sockets (`DESIGN.md` §16).
//!
//! The coordinator is a *client* of the cluster — it holds no shard
//! engines. Its persistent state lives entirely on the nodes: the
//! intent record on each participant shard and the decision record on
//! the coordinator shard. If the coordinator process dies at any point,
//! a later cluster-wide resolve pass ([`ClusterCoordinator::resolve_all`])
//! finishes or presumes abort for every in-flight transaction.

use crate::proto::{decode_reply, encode_request, ClusterProtoError, ClusterReply, ClusterRequest};
use parking_lot::{Mutex, RwLock};
use rodain_net::{NetError, PeerClient};
use rodain_obs::{Histogram, Recorder};
use rodain_occ::Csn;
use rodain_shard::{
    CoordError, CrashPoint, CrossReceipt, MetaKind, Participant, ResolveReport, ShardMap, ShardOp,
    ShardRouter,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors surfaced by cluster-wide operations.
#[derive(Debug)]
pub enum ClusterError {
    /// Transport failure talking to a node.
    Net(NetError),
    /// The node answered, but with an application-level error.
    Remote(String),
    /// The node's reply did not decode, or was the wrong kind.
    Proto(ClusterProtoError),
    /// A shard has no owner in the current map.
    NoOwner(usize),
    /// An injected [`CrashPoint`] stopped the coordinator mid-protocol
    /// (chaos tests only).
    InjectedCrash(CrashPoint),
    /// The request was malformed before it ever reached the wire.
    Invalid(&'static str),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Net(e) => write!(f, "network: {e}"),
            ClusterError::Remote(m) => write!(f, "remote: {m}"),
            ClusterError::Proto(e) => write!(f, "protocol: {e}"),
            ClusterError::NoOwner(s) => write!(f, "shard {s} has no owner"),
            ClusterError::InjectedCrash(p) => write!(f, "injected crash at {p:?}"),
            ClusterError::Invalid(m) => write!(f, "invalid request: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<NetError> for ClusterError {
    fn from(e: NetError) -> ClusterError {
        ClusterError::Net(e)
    }
}

impl From<CoordError<ClusterError>> for ClusterError {
    fn from(e: CoordError<ClusterError>) -> ClusterError {
        match e {
            CoordError::Empty => ClusterError::Invalid("empty transaction"),
            CoordError::Aborted(e) | CoordError::InDoubt(e) => e,
            CoordError::Crashed(point) => ClusterError::InjectedCrash(point),
        }
    }
}

/// Correlated request/reply exchanges with peer nodes over cached
/// connections — the transport under [`PeerParticipant`], shared by the
/// coordinator and by nodes querying each other during resolve.
pub(crate) struct PeerCaller {
    peers: Mutex<HashMap<String, Arc<PeerClient>>>,
    next_id: AtomicU64,
    timeout: Duration,
}

impl PeerCaller {
    pub(crate) fn new(timeout: Duration) -> PeerCaller {
        PeerCaller {
            peers: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            timeout,
        }
    }

    /// One exchange with the node at `addr`.
    ///
    /// Ids are unique per call, so a delayed reply to an earlier,
    /// abandoned request can never be accepted as the answer to this one
    /// (a stale `Decision` for gid A passing for gid B's). An undecodable
    /// or mismatched reply also drops the cached connection: whatever
    /// else it might deliver belongs to a request nobody is waiting on.
    pub(crate) fn call(
        &self,
        addr: &str,
        request: &ClusterRequest,
    ) -> Result<ClusterReply, ClusterError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let peer = Arc::clone(
            self.peers
                .lock()
                .entry(addr.to_string())
                .or_insert_with(|| Arc::new(PeerClient::new(addr))),
        );
        let raw = peer.call(encode_request(id, request), self.timeout)?;
        match decode_reply(raw) {
            Ok((got_id, ClusterReply::Err { message })) if got_id == id => {
                Err(ClusterError::Remote(message))
            }
            Ok((got_id, reply)) if got_id == id => Ok(reply),
            outcome => {
                peer.disconnect();
                Err(ClusterError::Proto(outcome.err().unwrap_or(
                    ClusterProtoError::Malformed("reply id does not match request"),
                )))
            }
        }
    }
}

/// Unwrap the one reply kind a request can be answered with; anything
/// else from the node is a protocol error naming the pattern.
macro_rules! expect_reply {
    ($reply:expr, $kind:pat => $out:expr) => {
        match $reply? {
            $kind => Ok($out),
            _ => Err(ClusterError::Proto(ClusterProtoError::Malformed(concat!(
                "expected ",
                stringify!($kind)
            )))),
        }
    };
}
pub(crate) use expect_reply;

/// One shard behind a peer socket: each 2PC step is one
/// [`ClusterRequest`] to the shard's owner, whose `handle_peer` runs the
/// same step on its `LocalParticipant`.
pub(crate) struct PeerParticipant<'a> {
    pub(crate) caller: &'a PeerCaller,
    pub(crate) addr: String,
    pub(crate) shard: u64,
    /// Times each remote prepare (`cluster_2pc_remote_prepare_ns`).
    pub(crate) prepare_hist: Option<&'a Histogram>,
}

impl PeerParticipant<'_> {
    fn call(&self, request: ClusterRequest) -> Result<ClusterReply, ClusterError> {
        self.caller.call(&self.addr, &request)
    }
}

impl Participant for PeerParticipant<'_> {
    type Error = ClusterError;
    /// The wire exchange is synchronous: a step is over when it begins.
    type Pending = Result<(), ClusterError>;

    /// Only an answer from the node proves a step did not happen.
    fn in_doubt(err: &ClusterError) -> bool {
        !matches!(err, ClusterError::Remote(_))
    }

    fn commit_direct(&self, ops: Vec<ShardOp>) -> Result<Csn, ClusterError> {
        let shard = self.shard;
        expect_reply!(self.call(ClusterRequest::Commit { shard, ops }),
            ClusterReply::Committed { csn } => Csn(csn))
    }

    fn begin_prepare(&self, gid: u64, coordinator: usize, ops: &[ShardOp]) -> Self::Pending {
        let started = Instant::now();
        let outcome = self.call(ClusterRequest::Prepare {
            gid,
            coordinator_shard: coordinator as u64,
            shard: self.shard,
            ops: ops.to_vec(),
        });
        if let Some(hist) = self.prepare_hist {
            hist.record(started.elapsed().as_nanos() as u64);
        }
        expect_reply!(outcome, ClusterReply::Prepared => ())
    }

    fn decide(&self, gid: u64) -> Result<Csn, ClusterError> {
        let shard = self.shard;
        expect_reply!(self.call(ClusterRequest::Decide { shard, gid }),
            ClusterReply::Decided { csn } => Csn(csn))
    }

    fn begin_apply(&self, gid: u64, stamp: i64) -> Self::Pending {
        let shard = self.shard;
        expect_reply!(self.call(ClusterRequest::Apply { shard, gid, stamp }),
            ClusterReply::Ack => ())
    }

    fn wait(&self, pending: Self::Pending) -> Result<(), ClusterError> {
        pending
    }

    fn cleanup(&self, gid: u64, kind: MetaKind) {
        let _ = self.call(ClusterRequest::Cleanup {
            shard: self.shard,
            gid,
            decision: kind == MetaKind::Decision,
        });
    }

    fn query_decision(&self, gid: u64) -> Result<bool, ClusterError> {
        let shard = self.shard;
        expect_reply!(self.call(ClusterRequest::QueryDecision { shard, gid }),
            ClusterReply::Decision { decided } => decided)
    }
}

/// A 2PC coordinator and migration driver speaking the peer protocol.
pub struct ClusterCoordinator {
    map: RwLock<ShardMap>,
    router: ShardRouter,
    pub(crate) caller: PeerCaller,
    recorder: Recorder,
    prepare_hist: Histogram,
}

impl ClusterCoordinator {
    /// Connect to any node's peer address and adopt the cluster map it
    /// serves.
    pub fn connect(seed_peer_addr: &str) -> Result<ClusterCoordinator, ClusterError> {
        ClusterCoordinator::connect_with_timeout(seed_peer_addr, Duration::from_secs(5))
    }

    /// [`ClusterCoordinator::connect`] with an explicit per-call
    /// timeout.
    pub fn connect_with_timeout(
        seed_peer_addr: &str,
        timeout: Duration,
    ) -> Result<ClusterCoordinator, ClusterError> {
        let recorder = Recorder::new();
        let prepare_hist = recorder.histogram("cluster_2pc_remote_prepare_ns");
        let mut coordinator = ClusterCoordinator {
            map: RwLock::new(ShardMap::single(1, "", seed_peer_addr)),
            router: ShardRouter::new(1),
            caller: PeerCaller::new(timeout),
            recorder,
            prepare_hist,
        };
        let map = coordinator.fetch_map(seed_peer_addr)?;
        coordinator.router = ShardRouter::new(map.owners.len());
        *coordinator.map.write() = map;
        Ok(coordinator)
    }

    /// The coordinator's current view of the cluster map.
    #[must_use]
    pub fn map(&self) -> ShardMap {
        self.map.read().clone()
    }

    /// Metrics recorder (`cluster_2pc_remote_prepare_ns`).
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    pub(crate) fn adopt_map(&self, map: ShardMap) {
        let mut cur = self.map.write();
        if map.epoch > cur.epoch {
            *cur = map;
        }
    }

    pub(crate) fn owner_peer(&self, shard: usize) -> Result<String, ClusterError> {
        self.map
            .read()
            .owner(shard)
            .map(|o| o.peer_addr.clone())
            .ok_or(ClusterError::NoOwner(shard))
    }

    /// Every distinct peer address in the current map.
    #[must_use]
    pub fn peer_addrs(&self) -> Vec<String> {
        let map = self.map.read();
        let mut addrs: Vec<String> = map.owners.iter().map(|o| o.peer_addr.clone()).collect();
        addrs.sort();
        addrs.dedup();
        addrs
    }

    /// Fetch the map one node serves.
    pub fn fetch_map(&self, peer_addr: &str) -> Result<ShardMap, ClusterError> {
        expect_reply!(self.caller.call(peer_addr, &ClusterRequest::FetchMap),
            ClusterReply::Map { map } => map)
    }

    /// Push `map` to every address in `addrs` (idempotent; nodes keep
    /// the highest epoch they have seen) and adopt it locally.
    pub fn broadcast_map(&self, map: &ShardMap, addrs: &[String]) -> Result<(), ClusterError> {
        let mut first_err = None;
        for addr in addrs {
            if let Err(e) = self
                .caller
                .call(addr, &ClusterRequest::InstallMap { map: map.clone() })
            {
                first_err.get_or_insert(e);
            }
        }
        self.adopt_map(map.clone());
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Adopt the freshest map any currently-known node serves (old
    /// owners keep serving the post-cutover map, so a stale coordinator
    /// converges in one sweep).
    pub fn refresh_map(&self) {
        for addr in self.peer_addrs() {
            if let Ok(map) = self.fetch_map(&addr) {
                self.adopt_map(map);
            }
        }
    }

    /// Execute `ops` as one atomic cluster transaction.
    ///
    /// Retries once after a map refresh when the first attempt aborted
    /// before its commit point — no data changed, so the retry cannot
    /// double-apply. An in-doubt commit point (the node never answered)
    /// is NOT retried; [`ClusterCoordinator::resolve_all`] settles those.
    pub fn execute(&self, ops: Vec<ShardOp>) -> Result<CrossReceipt, ClusterError> {
        let outcome = match self.run(ops.clone(), CrashPoint::None) {
            Err(CoordError::Aborted(_)) => {
                self.refresh_map();
                self.run(ops, CrashPoint::None)
            }
            other => other,
        };
        Ok(outcome?)
    }

    /// [`ClusterCoordinator::execute`] (without the retry) with an
    /// injected coordinator crash for recovery tests.
    pub fn execute_with_crash(
        &self,
        ops: Vec<ShardOp>,
        crash: CrashPoint,
    ) -> Result<CrossReceipt, ClusterError> {
        Ok(self.run(ops, crash)?)
    }

    /// The shared 2PC driver over this cluster's shards: each one a
    /// [`PeerParticipant`] at its current owner, the gid issued by the
    /// coordinator shard's owner.
    fn run(
        &self,
        ops: Vec<ShardOp>,
        crash: CrashPoint,
    ) -> Result<CrossReceipt, CoordError<ClusterError>> {
        rodain_shard::run(
            self.router,
            ops,
            crash,
            |shard| {
                Ok(PeerParticipant {
                    caller: &self.caller,
                    addr: self.owner_peer(shard)?,
                    shard: shard as u64,
                    prepare_hist: Some(&self.prepare_hist),
                })
            },
            |shard| {
                let request = ClusterRequest::AllocGid {
                    shard: shard as u64,
                };
                expect_reply!(self.caller.call(&self.owner_peer(shard)?, &request),
                    ClusterReply::Gid { gid } => gid)
            },
        )
    }

    /// Cluster-wide recovery sweep: every node resolves its pending
    /// intents (consulting decision records over the wire), and only if
    /// *all* nodes succeed — none kept an intent it could not settle —
    /// does a second pass garbage-collect the decision records
    /// (`DESIGN.md` §11 explains why GC must wait).
    pub fn resolve_all(&self) -> Result<ResolveReport, ClusterError> {
        let addrs = self.peer_addrs();
        let mut report = ResolveReport::default();
        for addr in &addrs {
            let (rolled_forward, aborted) = expect_reply!(
                self.caller.call(addr, &ClusterRequest::TriggerResolve),
                ClusterReply::Resolved { rolled_forward, aborted } => (rolled_forward, aborted))?;
            report.rolled_forward += rolled_forward;
            report.aborted += aborted;
        }
        for addr in &addrs {
            report.decisions_cleaned += expect_reply!(
                self.caller.call(addr, &ClusterRequest::GcDecisions),
                ClusterReply::Cleaned { count } => count)?;
        }
        Ok(report)
    }
}
