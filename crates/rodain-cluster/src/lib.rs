//! # rodain-cluster — multi-node shard placement over real transports
//!
//! Seats per-shard RODAIN engines in separate processes and makes them
//! one database (`DESIGN.md` §16):
//!
//! - **Versioned placement** — an epoch-numbered [`ShardMap`] names the
//!   owner of every shard. Nodes serve it on the client plane
//!   (`ClusterMap` op) and answer mis-routed requests with
//!   `WrongShard { epoch }`; [`ClusterClient`] caches the map and
//!   converges by refreshing on redirects.
//! - **Networked 2PC** — [`ClusterCoordinator`] runs `rodain-shard`'s
//!   durable-intent coordinator (`DESIGN.md` §11) with every shard behind
//!   a peer socket: prepare writes a logged intent on each participant,
//!   the decision record's commit on the coordinator shard is the atomic
//!   commit point, and a cluster-wide resolve pass
//!   ([`ClusterCoordinator::resolve_all`]) finishes or presumes abort for
//!   anything a crash left behind.
//! - **Online migration** — [`ClusterCoordinator::migrate_shard`] ships
//!   a fuzzy snapshot (the checkpoint format from `DESIGN.md` §15),
//!   chases the source's redo-log tail, seals, and cuts over with an
//!   epoch bump — all while both nodes keep serving.
//!
//! A node process is [`ClusterNode`] (or the `cluster_node` binary):
//! a client-plane [`rodain_server::Server`] for data traffic plus a
//! peer-plane [`rodain_net::PeerServer`] speaking [`proto`].

pub mod client;
pub mod coord;
pub mod harness;
pub mod migrate;
pub mod node;
pub mod proto;

pub use client::ClusterClient;
pub use coord::{ClusterCoordinator, ClusterError};
pub use migrate::MigrationReport;
pub use node::{ClusterNode, NodeConfig};
pub use proto::{ClusterProtoError, ClusterReply, ClusterRequest, TailCommit};
pub use rodain_shard::{CrossReceipt, ResolveReport, ShardMap, ShardOwner};
