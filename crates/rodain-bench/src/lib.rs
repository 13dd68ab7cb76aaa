//! # rodain-bench — experiment harness
//!
//! One experiment module per figure/claim of the paper's evaluation (§4),
//! plus the ablations DESIGN.md calls out. Each experiment binary prints a
//! markdown table (the same rows/series the paper plots) and writes a CSV
//! under `experiments-out/`.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig2` | Fig 2(a)/(b): normal vs transient mode with true log writes |
//! | `fig3` | Fig 3(a)–(c): no-logs vs 1-node vs 2-node, disk off |
//! | `takeover` | §4: mirror takeover vs disk recovery unavailability |
//! | `saturation` | §4: saturation knee + abort-reason breakdown |
//! | `cc_ablation` | extension: OCC-DATI vs its ancestors under contention |
//! | `commit_path` | extension: commit-latency breakdown, group-commit sweep |
//! | `commit_pipe` | extension: batched log shipping vs one frame per commit |
//! | `shard_scale` | extension: throughput vs shard count on the sharded cluster |
//! | `cluster_scale` | extension: SHARDSCALE across node *processes* over TCP |
//! | `c10k` | extension: C10K — event-driven front-end under connection storms |
//! | `all_experiments` | everything above, sequentially |
//!
//! Pass `--quick` for a fast smoke run, `--reps N` / `--count N` to change
//! the measurement protocol (paper defaults: 20 repetitions of 10 000
//! transactions).

pub mod cluster;
pub mod experiments;
#[cfg(unix)]
pub mod frontend;
pub mod report;
