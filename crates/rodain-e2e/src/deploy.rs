//! Standing up and tearing down what a serving workload runs against:
//! a populated engine, its mirror or contingency log, the event-driven
//! front-end, and the connected clients. Only the settings that *define*
//! a workload are passed; everything else is the default a user gets.

use crate::client::Client;
use crate::scrape::Scrape;
use crate::stream::SCHEMA;
use rodain_db::{MirrorLossPolicy, Rodain};
use rodain_log::{GroupCommitLog, LogStorage, LogStorageConfig};
use rodain_net::{TcpTransport, Transport};
use rodain_node::{MirrorConfig, MirrorExit, MirrorNode};
use rodain_obs::Recorder;
use rodain_server::{MetricsFormat, Outcome, RequestOp, Server, ServerHandle};
use rodain_store::{Store, Value};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Client connections per serving workload.
pub const CLIENTS: usize = 2;

/// Where a deployment's commits become durable.
#[derive(Clone, Debug)]
pub enum Durable {
    /// Primary + [`MirrorNode`] over a loopback [`TcpTransport`]; the
    /// mirror spools the reordered log under the given directory when set
    /// (no `fsync`: the paper's mirror writes its disk asynchronously).
    Mirror {
        /// Mirror-side spool directory.
        spool: Option<PathBuf>,
    },
    /// Single node, synchronous group-commit log with real `fsync`.
    Disk(PathBuf),
    /// Single node, no durability (the in-process peel's floor).
    Volatile,
}

/// Recorders shared by successive deployments of one run, so that cycles
/// of the failover workload accumulate into one set of series.
#[derive(Clone, Default)]
pub struct Recorders {
    /// Engine registry ([`rodain_db::RodainBuilder::recorder`]); a fresh
    /// private one per engine when `None`.
    pub engine: Option<Recorder>,
    /// Mirror registry ([`MirrorNode::with_recorder`]).
    pub mirror: Recorder,
}

/// The mirror half of a mirrored deployment.
pub struct MirrorSide {
    /// The primary's end of the link, kept to sever it from outside.
    pub link: Arc<dyn Transport>,
    /// The mirror's database copy.
    pub store: Arc<Store>,
    /// The thread running `join()` then `run()`.
    pub thread: JoinHandle<MirrorExit>,
}

/// A running deployment.
pub struct Deployment {
    /// The engine.
    pub db: Arc<Rodain>,
    /// The front-end.
    pub server: ServerHandle,
    /// The mirror, for mirrored deployments.
    pub mirror: Option<MirrorSide>,
    /// The mirror registry in use.
    pub mirror_recorder: Recorder,
    /// Connected clients, one per lane.
    pub clients: Vec<Client>,
}

fn spawn_mirror(
    addr: SocketAddr,
    store: Arc<Store>,
    spool: Option<&Path>,
    recorder: &Recorder,
) -> io::Result<JoinHandle<MirrorExit>> {
    let disk = match spool {
        Some(dir) => Some(GroupCommitLog::spawn(
            LogStorage::open(LogStorageConfig {
                fsync: false,
                ..LogStorageConfig::new(dir)
            })?,
            64,
        )),
        None => None,
    };
    let recorder = recorder.clone();
    Ok(std::thread::spawn(move || {
        let transport = TcpTransport::connect(addr).expect("mirror connects to the primary");
        let mut mirror = MirrorNode::new(store, Arc::new(transport), disk, MirrorConfig::default())
            .with_recorder(&recorder);
        mirror.join().expect("mirror joins");
        mirror.run().0
    }))
}

/// Start a front-end over `db` on an ephemeral loopback port.
pub fn serve(db: Arc<Rodain>) -> io::Result<ServerHandle> {
    Server::new(db, SCHEMA).start(TcpListener::bind("127.0.0.1:0")?)
}

impl Deployment {
    /// Build engine(s), populate the 30 000 objects, start mirror and
    /// server, connect `clients` clients — the work `setup_s` times.
    pub fn start(
        durable: &Durable,
        recorders: &Recorders,
        clients: usize,
    ) -> io::Result<Deployment> {
        let store = Arc::new(Store::new());
        SCHEMA.populate(&store);
        let mut builder = Rodain::builder().store(store);
        if let Some(recorder) = &recorders.engine {
            builder = builder.recorder(recorder.clone());
        }
        let mut mirror = None;
        let builder = match durable {
            Durable::Volatile => builder,
            Durable::Disk(dir) => builder.contingency_log(dir),
            Durable::Mirror { spool } => {
                let listener = TcpListener::bind("127.0.0.1:0")?;
                let mirror_store = Arc::new(Store::new());
                let thread = spawn_mirror(
                    listener.local_addr()?,
                    Arc::clone(&mirror_store),
                    spool.as_deref(),
                    &recorders.mirror,
                )?;
                let link: Arc<dyn Transport> =
                    Arc::new(TcpTransport::accept(&listener).map_err(|e| {
                        io::Error::new(io::ErrorKind::ConnectionAborted, e.to_string())
                    })?);
                mirror = Some(MirrorSide {
                    link: Arc::clone(&link),
                    store: mirror_store,
                    thread,
                });
                builder.mirror(link, MirrorLossPolicy::ContinueVolatile)
            }
        };
        let db = Arc::new(builder.build()?);
        let server = serve(Arc::clone(&db))?;
        let clients = (0..clients)
            .map(|_| Client::connect(server.addr()))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Deployment {
            db,
            server,
            mirror,
            mirror_recorder: recorders.mirror.clone(),
            clients,
        })
    }

    /// Read the engine and front-end registries over the wire (`Metrics`
    /// op, text format), plus the mirror's registry.
    pub fn scrape(&self) -> io::Result<Scrape> {
        let mut client = Client::connect(self.server.addr())?;
        let outcome = client.call(
            u64::MAX,
            0,
            RequestOp::Metrics {
                format: MetricsFormat::Text,
            },
        )?;
        let Outcome::Ok(Value::Text(text)) = outcome else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "metrics op failed",
            ));
        };
        let mut scrape = Scrape::parse(&text);
        scrape.merge(Scrape::parse(
            &self.mirror_recorder.snapshot().render_text(),
        ));
        Ok(scrape)
    }

    /// Quiesce: stop the front-end, drop the engine (which closes the
    /// mirror link), wait for the mirror to drain and exit. Returns the
    /// primary's store and, when mirrored, the mirror's store and exit.
    pub fn stop(self) -> Stopped {
        drop(self.clients);
        self.server.shutdown();
        let primary = self.db.store();
        drop(self.db);
        let mirror = self.mirror.map(|side| {
            side.link.close();
            let exit = side.thread.join().expect("mirror thread");
            (side.store, exit)
        });
        Stopped { primary, mirror }
    }
}

/// What is left after [`Deployment::stop`].
pub struct Stopped {
    /// The primary's store.
    pub primary: Arc<Store>,
    /// The mirror's store and why its loop ended.
    pub mirror: Option<(Arc<Store>, MirrorExit)>,
}

/// `(object id, value)` of every object, sorted — what two stores are
/// compared by (timestamps differ legitimately between replicas).
#[must_use]
pub fn contents(store: &Store) -> Vec<(u64, Value)> {
    store
        .snapshot()
        .objects
        .into_iter()
        .map(|(oid, object)| (oid.0, object.value))
        .collect()
}

/// Bytes under `dir` (one level: a log directory holds only segments).
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
