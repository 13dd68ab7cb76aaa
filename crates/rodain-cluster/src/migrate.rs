//! Online shard migration: move one shard between live nodes without
//! stopping traffic (`DESIGN.md` §16).
//!
//! The driver ships a fuzzy snapshot of the shard to the target, then
//! chases the source's redo-log tail in rounds while the source keeps
//! committing. When a round comes back (near-)empty it seals the
//! source — the shard engine is detached and dropped, which completes
//! and flushes every in-flight commit — ships the final tail, and cuts
//! over with an epoch-bumped map. Clients racing the cutover get
//! `WrongShard` redirects and converge on the new owner.

use crate::coord::{expect_reply, ClusterCoordinator, ClusterError};
use crate::proto::{ClusterProtoError, ClusterReply, ClusterRequest};
use rodain_shard::ShardOwner;

/// Catch-up rounds before sealing regardless of tail length (each round
/// shrinks the remaining tail; sealing pauses the shard only for the
/// last, short round).
const MAX_CATCHUP_ROUNDS: usize = 8;

/// What one [`ClusterCoordinator::migrate_shard`] run did.
#[derive(Clone, Copy, Debug)]
pub struct MigrationReport {
    /// The shard that moved.
    pub shard: usize,
    /// CSN boundary of the initial snapshot.
    pub snapshot_upto: u64,
    /// Commits shipped by log-tail catch-up (pre-seal and final).
    pub catchup_commits: u64,
    /// Catch-up rounds run before sealing.
    pub rounds: usize,
    /// Epoch of the map installed at cutover.
    pub final_epoch: u64,
}

impl ClusterCoordinator {
    /// Move `shard` from its current owner to `target` while both nodes
    /// keep serving traffic. Returns after the cutover map is installed
    /// everywhere.
    pub fn migrate_shard(
        &self,
        shard: usize,
        target: ShardOwner,
    ) -> Result<MigrationReport, ClusterError> {
        let map = self.map();
        let source = map
            .owner(shard)
            .ok_or(ClusterError::NoOwner(shard))?
            .clone();
        let source_addr = source.peer_addr.clone();
        let target_addr = target.peer_addr.clone();

        // 1. Fuzzy snapshot → staged copy on the target.
        let request = ClusterRequest::MigrateSnapshot {
            shard: shard as u64,
        };
        let (mut upto, snapshot) = expect_reply!(self.caller.call(&source_addr, &request),
            ClusterReply::Snapshot { upto, snapshot } => (upto, snapshot))?;
        let snapshot_upto = upto;
        self.expect_ack(
            &target_addr,
            &ClusterRequest::InstallStaged {
                shard: shard as u64,
                upto,
                snapshot,
            },
        )?;

        // 2. Chase the log tail while the source stays live.
        let mut catchup_commits = 0u64;
        let mut rounds = 0usize;
        while rounds < MAX_CATCHUP_ROUNDS {
            rounds += 1;
            let commits = self.fetch_tail(
                &source_addr,
                &ClusterRequest::MigrateTail {
                    shard: shard as u64,
                    after: upto,
                },
            )?;
            if commits.is_empty() {
                break;
            }
            catchup_commits += commits.len() as u64;
            upto = commits.last().map_or(upto, |c| c.csn.max(upto));
            self.expect_ack(
                &target_addr,
                &ClusterRequest::ApplyTail {
                    shard: shard as u64,
                    commits,
                },
            )?;
        }

        // 3. Seal: the source detaches and drops the shard engine
        // (completing + flushing every in-flight commit), then returns
        // whatever the log holds past our high-water mark.
        let finale = self.fetch_tail(
            &source_addr,
            &ClusterRequest::MigrateSeal {
                shard: shard as u64,
                after: upto,
            },
        )?;
        if !finale.is_empty() {
            catchup_commits += finale.len() as u64;
            upto = finale.last().map_or(upto, |c| c.csn.max(upto));
            self.expect_ack(
                &target_addr,
                &ClusterRequest::ApplyTail {
                    shard: shard as u64,
                    commits: finale,
                },
            )?;
        }

        // 4. Cutover: activate on the target under an epoch-bumped map,
        // then broadcast the map to every node old and new.
        let new_map = map.reassigned(shard, target);
        self.expect_ack(
            &target_addr,
            &ClusterRequest::Activate {
                shard: shard as u64,
                map: new_map.clone(),
            },
        )?;
        let mut addrs = self.peer_addrs();
        addrs.push(source_addr);
        addrs.push(target_addr);
        for owner in &new_map.owners {
            addrs.push(owner.peer_addr.clone());
        }
        addrs.sort();
        addrs.dedup();
        self.broadcast_map(&new_map, &addrs)?;

        Ok(MigrationReport {
            shard,
            snapshot_upto,
            catchup_commits,
            rounds,
            final_epoch: new_map.epoch,
        })
    }

    fn expect_ack(&self, addr: &str, request: &ClusterRequest) -> Result<(), ClusterError> {
        expect_reply!(self.caller.call(addr, request), ClusterReply::Ack => ())
    }

    fn fetch_tail(
        &self,
        addr: &str,
        request: &ClusterRequest,
    ) -> Result<Vec<crate::proto::TailCommit>, ClusterError> {
        expect_reply!(self.caller.call(addr, request), ClusterReply::Tail { commits } => commits)
    }
}
