//! Integration tests of the sharding layer: cross-shard atomicity under
//! real concurrency, and torn two-phase commits recovered from the
//! per-shard contingency logs.
//!
//! The money-conservation property is the classic 2PC litmus test: every
//! transfer debits one shard and credits another through the protocol of
//! DESIGN.md §11, so under any interleaving — and any coordinator crash —
//! the global sum must stay exactly the opening total.

use proptest::prelude::*;
use rodain::db::TxnOptions;
use rodain::node::recover_store_from_disk;
use rodain::shard::{CrashPoint, ShardOp, ShardRouter, ShardedRodain};
use rodain::{ObjectId, Value};
use std::sync::Arc;

const ACCOUNTS: u64 = 32;
const OPENING: i64 = 1_000;

fn build_cluster(shards: usize) -> Arc<ShardedRodain> {
    let cluster = ShardedRodain::builder()
        .shards(shards)
        .workers_per_shard(2)
        .build()
        .expect("build cluster");
    for i in 0..ACCOUNTS {
        cluster.load_initial(ObjectId(i), Value::Int(OPENING));
    }
    Arc::new(cluster)
}

fn total_balance(cluster: &ShardedRodain) -> i64 {
    (0..ACCOUNTS)
        .map(|i| match cluster.get(ObjectId(i)) {
            Some(Value::Int(v)) => v,
            other => panic!("account {i} holds {other:?}"),
        })
        .sum()
}

fn assert_no_meta(cluster: &ShardedRodain) {
    for shard in 0..cluster.shard_count() {
        let snapshot = cluster.engine(shard).expect("shard seated").snapshot();
        for (oid, _) in &snapshot.objects {
            assert!(
                ShardRouter::meta_parts(*oid).is_none(),
                "leftover 2PC bookkeeping object {oid:?} on shard {shard}"
            );
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Transfer {
    from: u64,
    to: u64,
    amount: i64,
}

fn transfer_strategy() -> impl Strategy<Value = Transfer> {
    (0..ACCOUNTS, 0..ACCOUNTS, 1..50i64).prop_map(|(from, to, amount)| Transfer {
        from,
        to,
        amount,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent cross-shard transfers from several driver threads
    /// conserve the global sum, leave every per-transfer debit matched by
    /// its credit, and clean up all 2PC bookkeeping.
    #[test]
    fn concurrent_transfers_conserve_the_global_sum(
        shards in 2usize..5,
        transfers in prop::collection::vec(transfer_strategy(), 1..32),
        threads in 2usize..5,
    ) {
        let cluster = build_cluster(shards);
        let chunk = transfers.len().div_ceil(threads);
        let handles: Vec<_> = transfers
            .chunks(chunk)
            .map(|slice| {
                let cluster = Arc::clone(&cluster);
                let slice = slice.to_vec();
                std::thread::spawn(move || {
                    for t in slice {
                        if t.from == t.to {
                            continue;
                        }
                        cluster
                            .execute_cross(
                                TxnOptions::soft_ms(30_000),
                                vec![
                                    ShardOp::Add { oid: ObjectId(t.from), delta: -t.amount },
                                    ShardOp::Add { oid: ObjectId(t.to), delta: t.amount },
                                ],
                            )
                            .expect("transfer commits");
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("driver thread");
        }
        prop_assert_eq!(total_balance(&cluster), ACCOUNTS as i64 * OPENING);
        assert_no_meta(&cluster);
    }
}

/// A coordinator crash between prepare and decision, with every shard
/// running a real contingency log: the intents are durable, the decision
/// is not. A cold restart — stores rebuilt from the per-shard redo logs,
/// facade rebuilt over them — must presume abort on replay and leave the
/// balances exactly as they were.
#[test]
fn torn_2pc_is_presumed_aborted_after_disk_recovery() {
    let root = std::env::temp_dir().join(format!(
        "rodain-shard-torn2pc-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    const SHARDS: usize = 3;

    let (a, b);
    {
        let cluster = ShardedRodain::builder()
            .shards(SHARDS)
            .workers_per_shard(2)
            .contingency_root(&root)
            .build()
            .expect("build durable cluster");
        // Seed through real commits, not `load_initial`: only logged
        // history survives the cold start below.
        for i in 0..ACCOUNTS {
            let oid = ObjectId(i);
            cluster
                .execute_on(oid, TxnOptions::soft_ms(30_000), move |ctx| {
                    ctx.write(oid, Value::Int(OPENING))?;
                    Ok(None)
                })
                .expect("seed account");
        }
        a = ObjectId(0);
        b = (1..1_000u64)
            .map(ObjectId)
            .find(|&oid| cluster.shard_of(oid) != cluster.shard_of(a))
            .expect("some id routes elsewhere");
        // A couple of clean transfers first, so the logs replay real
        // committed history around the torn transaction.
        for _ in 0..3 {
            cluster
                .execute_cross(
                    TxnOptions::soft_ms(30_000),
                    vec![
                        ShardOp::Add { oid: a, delta: -10 },
                        ShardOp::Add { oid: b, delta: 10 },
                    ],
                )
                .expect("clean transfer");
        }
        let err = cluster
            .execute_cross_with_crash(
                TxnOptions::soft_ms(30_000),
                vec![
                    ShardOp::Add {
                        oid: a,
                        delta: -500,
                    },
                    ShardOp::Add { oid: b, delta: 500 },
                ],
                CrashPoint::AfterPrepare,
            )
            .expect_err("coordinator crash surfaces as an error");
        assert!(matches!(err, rodain::db::TxnError::Replication(_)));
    } // drop: every shard flushes and closes its log

    // Cold start: rebuild each shard's store from its own redo log.
    let stores: Vec<Arc<rodain::store::Store>> = (0..SHARDS)
        .map(|shard| {
            recover_store_from_disk(ShardedRodain::shard_dir(&root, shard))
                .expect("replay shard log")
                .store
        })
        .collect();
    let cluster = ShardedRodain::builder()
        .shards(SHARDS)
        .workers_per_shard(2)
        .stores(stores)
        .build()
        .expect("rebuild cluster over recovered stores");

    // The durable intents survived the restart; resolution finds no
    // decision record and presumes abort.
    let report = cluster.resolve_pending();
    assert_eq!(report.aborted, 2, "both participants' intents aborted");
    assert_eq!(report.rolled_forward, 0);
    assert_eq!(cluster.get(a), Some(Value::Int(OPENING - 30)));
    assert_eq!(cluster.get(b), Some(Value::Int(OPENING + 30)));
    assert_eq!(total_balance(&cluster), ACCOUNTS as i64 * OPENING);
    assert_no_meta(&cluster);

    // The recovered cluster serves new cross-shard traffic.
    cluster
        .execute_cross(
            TxnOptions::soft_ms(30_000),
            vec![
                ShardOp::Add { oid: a, delta: -1 },
                ShardOp::Add { oid: b, delta: 1 },
            ],
        )
        .expect("post-recovery transfer");
    assert_eq!(total_balance(&cluster), ACCOUNTS as i64 * OPENING);

    let _ = std::fs::remove_dir_all(&root);
}
