//! # rodain-server — the User Request Interpreter
//!
//! The front-most subsystem of the RODAIN node (paper Fig. 1): the **User
//! Request Interpreter** accepts "requests and new connections" from
//! applications and returns "query and update results". This crate provides:
//!
//! * the client↔node [`protocol`] (version [`PROTOCOL_VERSION`]) —
//!   length-prefixed request/response frames carrying the
//!   number-translation service operations plus generic object
//!   reads/writes, each tagged with a firm deadline, a
//!   [`rodain_db::DurabilityTier`] and an optional *deferred* flag that
//!   splits the answer into `CommitPending` + `CommitDurable` frames;
//! * [`Server`] — an event-driven TCP front-end (DESIGN.md §17): one loop
//!   thread multiplexes every client socket through the
//!   [`rodain_net::Poller`], a fixed worker pool (`min(cores, 16)` by
//!   default, [`FrontEndConfig`]) executes decoded requests through the
//!   engine's `submit()`/`CommitFuture` path, and responses are
//!   correlated by request id so pipelined requests on one connection
//!   complete out of order. Backpressure is end-to-end: per-connection
//!   in-flight caps park a connection's read interest (TCP flow control
//!   stalls the sender), and a global admission gate answers `Overloaded`
//!   before decode work. Unix only (the poller has no other
//!   implementation; elsewhere [`Server::start`] returns
//!   `ErrorKind::Unsupported`). [`Server::sharded`] serves a
//!   hash-partitioned [`rodain_shard::ShardedRodain`] cluster instead,
//!   routing each request to the shard owning its object and answering
//!   `Stats`/`Metrics` with cluster-wide merges;
//! * [`Client`] — a blocking client with id-correlated pipelining and
//!   deferred-commit support ([`Client::submit_deferred`] /
//!   [`Client::wait_durable`]).
//!
//! Deadlines travel with the request: a request that cannot be served
//! within its firm deadline is answered with a `Miss` outcome, mirroring
//! the engine's abort taxonomy, so callers can distinguish "too late" from
//! "wrong".
//!
//! ## Observability
//!
//! Besides the compact `Stats` record, the protocol carries a `Metrics`
//! op ([`RequestOp::Metrics`]) that returns the engine's full
//! [`rodain_db::MetricsSnapshot`] rendered as human-readable text, JSON,
//! or Prometheus exposition format ([`MetricsFormat`]) — suitable for a
//! scrape endpoint or an operator console. The metric catalog is
//! documented in the repository's `METRICS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cluster;
#[cfg(unix)]
mod event;
pub mod protocol;
mod server;

pub use client::Client;
pub use cluster::ClusterShards;
pub use protocol::{
    MetricsFormat, Outcome, ProtocolError, Request, RequestOp, Response, PROTOCOL_VERSION,
};
pub use server::{Backend, FrontEndConfig, Server, ServerHandle, ServerStats};
