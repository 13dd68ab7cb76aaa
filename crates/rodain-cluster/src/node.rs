//! One process of a multi-node cluster: locally-owned shard engines
//! behind a client-plane [`rodain_server::Server`] and a peer-plane
//! [`PeerServer`] speaking the [`crate::proto`] protocol.

use crate::coord::{PeerCaller, PeerParticipant};
use crate::proto::{
    decode_request, encode_reply, ClusterReply, ClusterRequest, TailCommit,
    CLUSTER_PROTOCOL_VERSION,
};
use parking_lot::Mutex;
use rodain_db::{Rodain, RodainBuilder, TxnError, TxnOptions};
use rodain_log::{
    decode_snapshot, write_snapshot_file, LogStorage, LogStorageConfig, ThrottledStorage,
};
use rodain_net::{Bytes, PeerServer};
use rodain_obs::Counter;
use rodain_occ::Csn;
use rodain_server::{ClusterShards, Server, ServerHandle};
use rodain_shard::{LocalParticipant, MetaKind, Participant, ShardMap, ShardedRodain};
use rodain_store::{Store, Ts};
use rodain_workload::NumberTranslationDb;
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a peer call made *by* a node (decision queries during
/// resolve) waits before giving up and leaving the intent pending.
const PEER_CALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration of one cluster node process.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Total shards in the cluster (identical on every node).
    pub shards: usize,
    /// The shards this node seats engines for.
    pub own: Vec<usize>,
    /// Root directory for per-shard redo logs and snapshots
    /// (`<data_dir>/shard-<i>`).
    pub data_dir: PathBuf,
    /// Executor threads per shard engine.
    pub workers_per_shard: usize,
    /// Objects in the number-translation schema served on the client
    /// plane.
    pub schema_objects: u64,
    /// Charge a fixed service delay per log flush (benchmarks use this
    /// to make each shard's log stream the measured bottleneck).
    pub flush_delay: Option<Duration>,
    /// Group-commit batch limit per shard (1 = the paper prototype's
    /// one-commit-per-flush path).
    pub group_commit_batch: usize,
    /// Lift the admission limit so pre-submitted benchmark backlogs are
    /// not rejected by the overload manager.
    pub unlimited_admission: bool,
}

impl NodeConfig {
    /// A node owning `own` out of `shards` shards, logging under
    /// `data_dir`, with defaults suitable for tests.
    #[must_use]
    pub fn new(shards: usize, own: Vec<usize>, data_dir: impl Into<PathBuf>) -> NodeConfig {
        NodeConfig {
            shards,
            own,
            data_dir: data_dir.into(),
            workers_per_shard: 2,
            schema_objects: 1_024,
            flush_delay: None,
            group_commit_batch: 64,
            unlimited_admission: false,
        }
    }
}

fn unlimited() -> rodain_sched::OverloadConfig {
    rodain_sched::OverloadConfig {
        base_limit: 1_000_000,
        min_limit: 1_000_000,
        ..rodain_sched::OverloadConfig::default()
    }
}

/// Apply this node's durability/admission configuration to one shard
/// engine builder (used at startup and again when a migrated-in shard is
/// activated).
fn configure_shard(cfg: &NodeConfig, shard: usize, mut b: RodainBuilder) -> RodainBuilder {
    let dir = ShardedRodain::shard_dir(&cfg.data_dir, shard);
    let _ = std::fs::create_dir_all(&dir);
    if let Some(delay) = cfg.flush_delay {
        let storage = ThrottledStorage::new(
            LogStorage::open(LogStorageConfig::new(dir)).expect("open shard log"),
            delay,
        );
        b = b.contingency_storage(storage);
    } else {
        b = b.contingency_log(dir);
    }
    if cfg.unlimited_admission {
        b = b.overload(unlimited());
    }
    b.group_commit_batch(cfg.group_commit_batch)
}

/// A shard copy being staged on the target node during migration:
/// snapshot installed, catch-up tail applied incrementally.
struct Staged {
    store: Arc<Store>,
    upto: u64,
}

struct NodeState {
    cfg: NodeConfig,
    cluster: Arc<ClusterShards>,
    staged: Mutex<HashMap<usize, Staged>>,
    caller: PeerCaller,
    migrations: Counter,
    catchup: Counter,
}

/// One running cluster node: client plane + peer plane over the locally
/// owned shards.
pub struct ClusterNode {
    state: Arc<NodeState>,
    server: ServerHandle,
    peer: PeerServer,
}

impl ClusterNode {
    /// Start a node from `cfg`, serving clients on `client_listener` and
    /// peers on `peer_listener`. The node boots with a provisional
    /// single-node map (epoch 1) naming itself owner of everything; the
    /// deployment's real map is pushed with
    /// [`ClusterRequest::InstallMap`] once every node's addresses are
    /// known.
    pub fn start(
        cfg: NodeConfig,
        client_listener: TcpListener,
        peer_listener: TcpListener,
    ) -> io::Result<ClusterNode> {
        let client_addr = client_listener.local_addr()?;
        let peer_addr = peer_listener.local_addr()?;
        let cfg_for_hook = cfg.clone();
        let local = Arc::new(
            ShardedRodain::builder()
                .shards(cfg.shards)
                .workers_per_shard(cfg.workers_per_shard)
                .shard_hook(move |i, b| configure_shard(&cfg_for_hook, i, b))
                .build()?,
        );
        for shard in 0..cfg.shards {
            if !cfg.own.contains(&shard) {
                drop(local.take_shard(shard));
            }
        }
        let map = ShardMap::single(cfg.shards, &client_addr.to_string(), &peer_addr.to_string());
        let cluster = ClusterShards::new(local, map);
        let migrations = cluster.recorder().counter("cluster_migrations_total");
        let catchup = cluster
            .recorder()
            .counter("cluster_migration_catchup_commits");
        let state = Arc::new(NodeState {
            cfg,
            cluster: Arc::clone(&cluster),
            staged: Mutex::new(HashMap::new()),
            caller: PeerCaller::new(PEER_CALL_TIMEOUT),
            migrations,
            catchup,
        });
        // Re-seed the gid allocator from durable 2PC state recovered off
        // the seated shards' logs. Without this a restarted
        // coordinator-shard owner could reissue a sequence number still
        // referenced by a pre-crash intent or decision, and the new
        // transaction's records would collide with the old one's — e.g.
        // a fresh Decide would make an old prepared-but-undecided intent
        // resolve as committed.
        state.cluster.local().reseed_gids();
        let schema = NumberTranslationDb::new(state.cfg.schema_objects);
        let server = Server::cluster(Arc::clone(&cluster), schema).start(client_listener)?;
        let handler_state = Arc::clone(&state);
        let peer = PeerServer::start(
            peer_listener,
            Arc::new(move |frame: Bytes| {
                let (id, request) = decode_request(frame).ok()?;
                let reply = handle_peer(&handler_state, request);
                Some(encode_reply(id, &reply))
            }),
        )?;
        Ok(ClusterNode {
            state,
            server,
            peer,
        })
    }

    /// The client-plane address.
    #[must_use]
    pub fn client_addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// The peer-plane address.
    #[must_use]
    pub fn peer_addr(&self) -> std::net::SocketAddr {
        self.peer.addr()
    }

    /// The node's placement state (map, owned engines, metrics).
    #[must_use]
    pub fn cluster(&self) -> &Arc<ClusterShards> {
        &self.state.cluster
    }

    /// Client-plane request counters.
    #[must_use]
    pub fn server_stats(&self) -> rodain_server::ServerStats {
        self.server.stats()
    }

    /// Stop both planes (owned engines shut down as their `Arc`s drop).
    pub fn shutdown(self) {
        self.server.shutdown();
        self.peer.shutdown();
    }
}

fn err(message: impl Into<String>) -> ClusterReply {
    ClusterReply::Err {
        message: message.into(),
    }
}

fn not_seated(shard: u64) -> ClusterReply {
    err(format!("shard {shard} is not seated on this node"))
}

/// Read the committed tail of `shard`'s redo log: every transaction with
/// CSN > `after`, regrouped in true validation order (the same reorder
/// pass the mirror uses). A torn final segment (the engine is still
/// appending) silently ends the scan — the next round picks it up.
fn read_tail(state: &NodeState, shard: usize, after: u64) -> io::Result<Vec<TailCommit>> {
    let dir = ShardedRodain::shard_dir(&state.cfg.data_dir, shard);
    let mut reorder = rodain_log::ReorderBuffer::starting_at(Csn(after + 1));
    let mut commits = Vec::new();
    for item in LogStorage::scan_dir(&dir)? {
        let Ok(record) = item else {
            break;
        };
        if reorder.ingest(record).is_err() {
            break;
        }
        for committed in reorder.drain_ready() {
            commits.push(TailCommit {
                csn: committed.csn.0,
                ser_ts: committed.ser_ts.0,
                writes: committed.writes,
            });
        }
    }
    Ok(commits)
}

/// Run one 2PC step on the locally seated `shard` and map its outcome to
/// a reply. The step itself lives in [`LocalParticipant`] — the same code
/// an in-process `ShardedRodain` coordinator drives.
fn step(
    state: &NodeState,
    shard: u64,
    run: impl FnOnce(LocalParticipant) -> Result<ClusterReply, TxnError>,
) -> ClusterReply {
    let seated = state
        .cluster
        .local()
        .participant(shard as usize, TxnOptions::non_real_time());
    match seated.map(run) {
        Some(Ok(reply)) => reply,
        Some(Err(e)) => err(e.to_string()),
        None => not_seated(shard),
    }
}

fn handle_peer(state: &Arc<NodeState>, request: ClusterRequest) -> ClusterReply {
    match request {
        ClusterRequest::FetchMap => ClusterReply::Map {
            map: state.cluster.map(),
        },
        ClusterRequest::InstallMap { map } => {
            state.cluster.install_map(map);
            ClusterReply::Ack
        }
        ClusterRequest::AllocGid { shard } => step(state, shard, |_| {
            Ok(ClusterReply::Gid {
                gid: state.cluster.local().alloc_gid(shard as usize),
            })
        }),
        ClusterRequest::Prepare {
            gid,
            coordinator_shard,
            shard,
            ops,
        } => step(state, shard, |p| {
            state.cluster.local().note_gid_seen(gid);
            p.wait(p.begin_prepare(gid, coordinator_shard as usize, &ops))?;
            Ok(ClusterReply::Prepared)
        }),
        ClusterRequest::Decide { shard, gid } => step(state, shard, |p| {
            let csn = p.decide(gid)?.0;
            Ok(ClusterReply::Decided { csn })
        }),
        ClusterRequest::Apply { shard, gid, stamp } => step(state, shard, |p| {
            p.wait(p.begin_apply(gid, stamp))?;
            Ok(ClusterReply::Ack)
        }),
        ClusterRequest::Cleanup {
            shard,
            gid,
            decision,
        } => step(state, shard, |p| {
            let kind = if decision {
                MetaKind::Decision
            } else {
                MetaKind::Intent
            };
            p.cleanup(gid, kind);
            Ok(ClusterReply::Ack)
        }),
        ClusterRequest::QueryDecision { shard, gid } => step(state, shard, |p| {
            let decided = p.query_decision(gid)?;
            Ok(ClusterReply::Decision { decided })
        }),
        ClusterRequest::Commit { shard, ops } => step(state, shard, |p| {
            let csn = p.commit_direct(ops)?.0;
            Ok(ClusterReply::Committed { csn })
        }),
        ClusterRequest::TriggerResolve => {
            // A coordinator shard seated elsewhere is asked over the wire;
            // no owner or no answer keeps the intent.
            let map = state.cluster.map();
            let report = state.cluster.local().resolve_intents(|shard, gid| {
                let asked = PeerParticipant {
                    caller: &state.caller,
                    addr: map.owner(shard)?.peer_addr.clone(),
                    shard: shard as u64,
                    prepare_hist: None,
                };
                asked.query_decision(gid).ok()
            });
            // The coordinator must not go on to GC decisions a kept
            // intent still needs: an incomplete pass is a failed one.
            if report.kept > 0 {
                return err(format!(
                    "{} intent(s) kept: coordinator shard unreachable",
                    report.kept
                ));
            }
            ClusterReply::Resolved {
                rolled_forward: report.rolled_forward,
                aborted: report.aborted,
            }
        }
        ClusterRequest::GcDecisions => ClusterReply::Cleaned {
            count: state.cluster.local().gc_decisions(),
        },
        ClusterRequest::MigrateSnapshot { shard } => {
            let Some(engine) = state.cluster.local().engine(shard as usize) else {
                return not_seated(shard);
            };
            let (snapshot, upto) = engine.snapshot_upto();
            ClusterReply::Snapshot {
                upto: upto.0,
                snapshot: rodain_log::encode_snapshot(&snapshot, upto).to_vec(),
            }
        }
        ClusterRequest::MigrateTail { shard, after } => {
            match read_tail(state, shard as usize, after) {
                Ok(commits) => ClusterReply::Tail { commits },
                Err(e) => err(e.to_string()),
            }
        }
        ClusterRequest::MigrateSeal { shard, after } => {
            let Some(taken) = state.cluster.local().take_shard(shard as usize) else {
                return not_seated(shard);
            };
            // Wait for transient engine handles (in-flight submissions)
            // to drop so our drop is the one that shuts the engine down
            // and flushes its log.
            let deadline = Instant::now() + Duration::from_secs(5);
            while Arc::strong_count(&taken) > 1 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            if Arc::strong_count(&taken) > 1 {
                // The engine cannot shut down while other handles hold
                // it, so in-flight commits could still flush after any
                // tail we read now — cutting over would silently drop
                // them. Re-seat the shard and fail the seal; the
                // coordinator aborts the migration instead.
                state.cluster.local().install_shard(shard as usize, taken);
                return err(format!(
                    "shard {shard} seal aborted: in-flight handles outlived the drain window"
                ));
            }
            drop(taken);
            match read_tail(state, shard as usize, after) {
                Ok(commits) => ClusterReply::Tail { commits },
                Err(e) => err(e.to_string()),
            }
        }
        ClusterRequest::InstallStaged {
            shard,
            upto,
            snapshot,
        } => match decode_snapshot(&snapshot) {
            Ok((snap, snap_upto)) => {
                if snap_upto.0 != upto {
                    return err("staged snapshot boundary mismatch");
                }
                let store = Arc::new(Store::new());
                for (oid, object) in snap.objects {
                    store.install(oid, object.value, object.wts);
                }
                state
                    .staged
                    .lock()
                    .insert(shard as usize, Staged { store, upto });
                ClusterReply::Ack
            }
            Err(e) => err(e.to_string()),
        },
        ClusterRequest::ApplyTail { shard, commits } => {
            let mut staged = state.staged.lock();
            let Some(entry) = staged.get_mut(&(shard as usize)) else {
                return err(format!("shard {shard} has no staged copy"));
            };
            for commit in commits {
                if commit.csn <= entry.upto {
                    continue; // replayed duplicate
                }
                for (oid, value) in commit.writes {
                    entry.store.install(oid, value, Ts(commit.ser_ts));
                }
                entry.upto = commit.csn;
                state.catchup.inc();
            }
            ClusterReply::Ack
        }
        ClusterRequest::Activate { shard, map } => {
            let Some(entry) = state.staged.lock().remove(&(shard as usize)) else {
                return err(format!("shard {shard} has no staged copy"));
            };
            let dir = ShardedRodain::shard_dir(&state.cfg.data_dir, shard as usize);
            if let Err(e) = std::fs::create_dir_all(&dir) {
                return err(e.to_string());
            }
            // Durable base for the new owner: the staged copy becomes a
            // snapshot file (the checkpoint format from DESIGN.md §15);
            // commits after cutover land in the fresh log beside it.
            if let Err(e) = write_snapshot_file(&dir, &entry.store.snapshot(), Csn(entry.upto)) {
                return err(e.to_string());
            }
            let builder = configure_shard(
                &state.cfg,
                shard as usize,
                Rodain::builder()
                    .workers(state.cfg.workers_per_shard)
                    .store(Arc::clone(&entry.store)),
            );
            match builder.build() {
                Ok(engine) => {
                    state
                        .cluster
                        .local()
                        .install_shard(shard as usize, Arc::new(engine));
                    state.cluster.install_map(map);
                    state.migrations.inc();
                    ClusterReply::Ack
                }
                Err(e) => err(e.to_string()),
            }
        }
    }
}

/// The protocol version the node answers with (re-exported so binaries
/// can print it).
#[must_use]
pub fn protocol_version() -> u8 {
    CLUSTER_PROTOCOL_VERSION
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodain_shard::{ShardOp, ShardRouter};
    use rodain_store::{ObjectId, Value};

    /// The wire `Commit` and `Prepare` arms run the same participant code
    /// as an in-process coordinator, so an op aimed at a 2PC bookkeeping
    /// object — here: forging a decision record for an undecided
    /// transaction — is refused and nothing changes.
    #[test]
    fn wire_ops_targeting_the_meta_namespace_are_rejected() {
        let dir = std::env::temp_dir().join(format!("rodain-node-meta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bind = || TcpListener::bind("127.0.0.1:0").unwrap();
        let node =
            ClusterNode::start(NodeConfig::new(2, vec![0, 1], &dir), bind(), bind()).unwrap();
        let router = ShardRouter::new(2);
        let data = (1..100u64)
            .map(ObjectId)
            .find(|&oid| router.route(oid) == 0)
            .unwrap();
        let forged = router.decision_oid(0, 77);
        let ops = vec![
            ShardOp::Add {
                oid: data,
                delta: 5,
            },
            ShardOp::Put {
                oid: forged,
                value: Value::Int(77),
            },
        ];
        for request in [
            ClusterRequest::Commit {
                shard: 0,
                ops: ops.clone(),
            },
            ClusterRequest::Prepare {
                gid: 78,
                coordinator_shard: 1,
                shard: 0,
                ops,
            },
        ] {
            let reply = handle_peer(&node.state, request);
            assert!(matches!(reply, ClusterReply::Err { .. }), "got {reply:?}");
        }
        let engine = node.cluster().local().engine(0).unwrap();
        assert_eq!(engine.get(data), None);
        assert_eq!(engine.get(forged), None);
        assert_eq!(engine.get(router.intent_oid(0, 78)), None);
        assert!(matches!(
            handle_peer(
                &node.state,
                ClusterRequest::QueryDecision { shard: 0, gid: 77 }
            ),
            ClusterReply::Decision { decided: false }
        ));
        node.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
