//! The serving layer: snapshot catalogs and a concurrent query server.
//!
//! Three pieces, stacked:
//!
//! * [`SnapshotCatalog`] — copy-on-write catalog versions. Readers take
//!   an [`Arc`] snapshot (one `RwLock` read + refcount bump, no
//!   relation data touched) and keep executing against it however long
//!   their query runs; writers clone the catalog *map* (relations are
//!   `Arc`-shared inside [`Catalog`], so this copies names, not data),
//!   mutate the clone, and install it atomically. Readers never block
//!   on an in-progress write and can never observe a torn catalog —
//!   every snapshot is some complete installed version.
//! * [`PlanCache`] (see [`crate::cache`]) — prepared statements shared
//!   across workers, keyed by (request text, schema).
//! * [`Server`] — N worker threads pulling [`Request`]s off one queue.
//!   Each query request resolves its plan through the cache and
//!   executes against the snapshot current *at dequeue time*; write
//!   requests install a new snapshot. A panic inside a request is
//!   caught ([`std::panic::catch_unwind`], the same isolation pattern
//!   as the morsel pool): the poisoned request answers
//!   [`ServeError::Panicked`] and the worker thread survives to serve
//!   the next request.
//!
//! **Write visibility:** requests are handled against the newest
//! snapshot at the moment a worker dequeues them, so a write's effect
//! is visible to every request whose execution starts after the
//! install completes — in particular, to anything submitted after the
//! write's [`Ticket`] resolves. In-flight queries keep the snapshot
//! they started with (snapshot isolation, not serializability).
//!
//! Per-request `ipdb-obs` counters (when metrics are enabled):
//! `serve.requests`, `serve.cache.hits`, `serve.cache.misses`,
//! `serve.snapshot.installs`.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};
use std::thread;

use ipdb_obs::Counter;
use ipdb_rel::Schema;

use crate::backend::{Backend, Catalog};
use crate::cache::PlanCache;
use crate::error::EngineError;
use crate::morsel::ExecConfig;
use crate::pipeline::Engine;

/// The `ipdb-obs` counter of requests workers have started handling.
pub const OBS_REQUESTS: &str = "serve.requests";
/// The `ipdb-obs` counter of snapshot versions installed.
pub const OBS_SNAPSHOT_INSTALLS: &str = "serve.snapshot.installs";

// ---------------------------------------------------------------------
// Snapshot catalogs.
// ---------------------------------------------------------------------

/// One immutable installed catalog version: the catalog, its derived
/// [`Schema`] (computed once per install, not per request — it is the
/// plan-cache key), and a monotonic version number.
#[derive(Debug)]
pub struct Snapshot<B> {
    catalog: Catalog<B>,
    schema: Schema,
    version: u64,
}

impl<B> Snapshot<B> {
    /// The catalog as of this version.
    pub fn catalog(&self) -> &Catalog<B> {
        &self.catalog
    }

    /// The catalog's schema (relation name → arity), precomputed.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Monotonic version: 0 for the initial catalog, +1 per install.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// Copy-on-write catalog versions behind one `RwLock<Arc<_>>`: readers
/// clone the `Arc` out (and never block on a writer's clone+mutate
/// work, which happens *outside* that lock); writers are serialized
/// among themselves and swap complete versions in atomically.
#[derive(Debug)]
pub struct SnapshotCatalog<B> {
    current: RwLock<Arc<Snapshot<B>>>,
    /// Serializes read-modify-write updates so no install is lost; the
    /// `current` lock is only ever held for a pointer swap or clone.
    writer: Mutex<()>,
}

impl<B: Backend> SnapshotCatalog<B> {
    /// Starts the version history at `catalog` (version 0).
    pub fn new(catalog: Catalog<B>) -> SnapshotCatalog<B> {
        let schema = catalog.schema();
        SnapshotCatalog {
            current: RwLock::new(Arc::new(Snapshot {
                catalog,
                schema,
                version: 0,
            })),
            writer: Mutex::new(()),
        }
    }

    /// The current version — an O(1) `Arc` clone the caller can hold
    /// (and execute against) for as long as it likes.
    pub fn snapshot(&self) -> Arc<Snapshot<B>> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Replaces the catalog wholesale with a new version; returns the
    /// installed version number.
    pub fn install(&self, catalog: Catalog<B>) -> u64 {
        let _w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        self.swap_in(catalog)
    }

    /// Read-modify-write: clones the current catalog (shallow — the
    /// relations are `Arc`-shared), applies `f`, installs the result.
    /// Concurrent `update`s are serialized, so none is lost; readers
    /// are never blocked while `f` runs.
    pub fn update<F: FnOnce(&mut Catalog<B>)>(&self, f: F) -> u64 {
        let _w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let mut next = self.snapshot().catalog.clone();
        f(&mut next);
        self.swap_in(next)
    }

    /// The atomic tail of every write path; caller holds `writer`.
    fn swap_in(&self, catalog: Catalog<B>) -> u64 {
        let schema = catalog.schema();
        let mut cur = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let version = cur.version + 1;
        *cur = Arc::new(Snapshot {
            catalog,
            schema,
            version,
        });
        drop(cur);
        if ipdb_obs::enabled() {
            static INSTALLS: OnceLock<&'static Counter> = OnceLock::new();
            INSTALLS
                .get_or_init(|| ipdb_obs::counter(OBS_SNAPSHOT_INSTALLS))
                .incr();
        }
        version
    }
}

// ---------------------------------------------------------------------
// Requests, replies, errors.
// ---------------------------------------------------------------------

/// One unit of work for the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<B> {
    /// Execute a query (surface syntax) against the current snapshot.
    Query(String),
    /// Install (or replace) one relation, producing a new snapshot.
    Install {
        /// Relation name to bind.
        name: String,
        /// The relation.
        rel: B,
    },
    /// Remove one relation, producing a new snapshot (a no-op install
    /// if the name was absent).
    Remove {
        /// Relation name to drop.
        name: String,
    },
    /// Replace the whole catalog in one snapshot install. This is the
    /// only way to move several relations *together* through the queue:
    /// a sequence of [`Request::Install`]s produces an intermediate
    /// snapshot per relation, all of them visible to readers.
    InstallAll(Catalog<B>),
}

/// A successful server reply.
pub enum Reply<B: Backend> {
    /// The answer relation of a [`Request::Query`].
    Answer(B::Output),
    /// The snapshot version a write request installed.
    Installed {
        /// The new version number.
        version: u64,
    },
}

impl<B: Backend> fmt::Debug for Reply<B>
where
    B::Output: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reply::Answer(out) => f.debug_tuple("Answer").field(out).finish(),
            Reply::Installed { version } => f
                .debug_struct("Installed")
                .field("version", version)
                .finish(),
        }
    }
}

/// How a request can fail without taking a worker down with it.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The engine rejected the request (parse, plan, or execution).
    Engine(EngineError),
    /// The request panicked; the payload message, best effort. The
    /// worker that caught it kept serving.
    Panicked(String),
    /// The server shut down before this request was answered.
    Closed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::Panicked(msg) => write!(f, "request panicked: {msg}"),
            ServeError::Closed => write!(f, "server closed"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> ServeError {
        ServeError::Engine(e)
    }
}

/// A pending reply: blocks on [`Ticket::wait`] until a worker answers.
#[derive(Debug)]
pub struct Ticket<B: Backend> {
    rx: mpsc::Receiver<Result<Reply<B>, ServeError>>,
}

impl<B: Backend> Ticket<B> {
    /// Blocks until the request is answered. [`ServeError::Closed`] if
    /// the server shut down underneath it.
    pub fn wait(self) -> Result<Reply<B>, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads pulling from the queue (clamped to at least 1).
    pub threads: usize,
    /// [`PlanCache`] capacity in distinct statements.
    pub cache_capacity: usize,
    /// Per-request execution config. Defaults to
    /// [`ExecConfig::serial`]: a server's parallelism comes from its
    /// worker threads running *requests* concurrently, so each request
    /// executes serially instead of spawning a nested morsel pool.
    /// Raise it for servers handling few, large analytic queries.
    pub exec: ExecConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: crate::morsel::detected_parallelism(),
            cache_capacity: 256,
            exec: ExecConfig::serial(),
        }
    }
}

impl ServerConfig {
    /// [`Default`], with an explicit worker count.
    pub fn with_threads(threads: usize) -> ServerConfig {
        ServerConfig {
            threads,
            ..ServerConfig::default()
        }
    }
}

struct Job<B: Backend> {
    req: Request<B>,
    tx: mpsc::Sender<Result<Reply<B>, ServeError>>,
}

struct Queue<B: Backend> {
    jobs: VecDeque<Job<B>>,
    open: bool,
}

struct Shared<B: Backend> {
    cache: PlanCache,
    snapshots: SnapshotCatalog<B>,
    exec: ExecConfig,
    queue: Mutex<Queue<B>>,
    wake: Condvar,
}

impl<B> Shared<B>
where
    B: Backend + Send + Sync + 'static,
    B::Output: Send,
{
    fn handle(&self, req: Request<B>) -> Result<Reply<B>, ServeError> {
        match req {
            Request::Query(text) => {
                let snap = self.snapshots.snapshot();
                let stmt = self
                    .cache
                    .prepare_text(&Engine::new(), &text, snap.schema())?;
                Ok(Reply::Answer(
                    stmt.execute_catalog_cfg(snap.catalog(), &self.exec)?,
                ))
            }
            Request::Install { name, rel } => {
                let version = self.snapshots.update(|cat| {
                    cat.insert(name, rel);
                });
                Ok(Reply::Installed { version })
            }
            Request::Remove { name } => {
                let version = self.snapshots.update(|cat| {
                    cat.remove(&name);
                });
                Ok(Reply::Installed { version })
            }
            Request::InstallAll(catalog) => {
                let version = self.snapshots.install(catalog);
                Ok(Reply::Installed { version })
            }
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if !q.open {
                        return;
                    }
                    q = self.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
            };
            if ipdb_obs::enabled() {
                static REQUESTS: OnceLock<&'static Counter> = OnceLock::new();
                REQUESTS
                    .get_or_init(|| ipdb_obs::counter(OBS_REQUESTS))
                    .incr();
            }
            // Panic isolation (the morsel pool's catch-unwind pattern):
            // a poisoned request answers an error; the worker survives.
            let reply = match catch_unwind(AssertUnwindSafe(|| self.handle(job.req))) {
                Ok(reply) => reply,
                Err(payload) => Err(ServeError::Panicked(panic_message(payload))),
            };
            // The client may have dropped its ticket; that's fine.
            let _ = job.tx.send(reply);
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    // Deref through the box before downcasting — coercing `&payload`
    // would downcast the `Box` itself and always miss.
    let payload: &(dyn std::any::Any + Send) = &*payload;
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A concurrent query server over one backend type: N worker threads,
/// one job queue, a shared [`PlanCache`], and a [`SnapshotCatalog`]
/// holding the data. See the module docs for the consistency model.
///
/// Dropping the server shuts it down: the queue closes, workers drain
/// the remaining jobs and exit, and the drop blocks until they have
/// (call [`Server::shutdown`] to make that explicit).
pub struct Server<B>
where
    B: Backend + Send + Sync + 'static,
    B::Output: Send,
{
    shared: Arc<Shared<B>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl<B> Server<B>
where
    B: Backend + Send + Sync + 'static,
    B::Output: Send,
{
    /// Boots `config.threads` workers over an initial catalog.
    pub fn start(catalog: Catalog<B>, config: ServerConfig) -> Server<B> {
        let shared = Arc::new(Shared {
            cache: PlanCache::new(config.cache_capacity),
            snapshots: SnapshotCatalog::new(catalog),
            exec: config.exec,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                open: true,
            }),
            wake: Condvar::new(),
        });
        let workers = (0..config.threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ipdb-serve-{i}"))
                    .spawn(move || shared.worker_loop())
                    // ipdb-lint: allow(no-panic-on-serve-paths) reason="boot-time only: a host that cannot spawn its worker threads cannot serve, and failing loudly at start beats a server that accepts requests nobody answers"
                    .expect("spawn server worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// Enqueues a request; returns immediately with a [`Ticket`] for
    /// the reply.
    pub fn submit(&self, req: Request<B>) -> Ticket<B> {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if q.open {
                q.jobs.push_back(Job { req, tx });
            } else {
                let _ = tx.send(Err(ServeError::Closed));
            }
        }
        self.shared.wake.notify_one();
        Ticket { rx }
    }

    /// Submit a query and block for its answer.
    pub fn query(&self, text: impl Into<String>) -> Result<B::Output, ServeError> {
        match self.submit(Request::Query(text.into())).wait()? {
            Reply::Answer(out) => Ok(out),
            // ipdb-lint: allow(no-panic-on-serve-paths) reason="handle() pairs Query with Answer exhaustively; a mismatched reply is a bug in this file, not a runtime state"
            Reply::Installed { .. } => unreachable!("query requests answer with relations"),
        }
    }

    /// Submit a relation install and block for the new version.
    pub fn install(&self, name: impl Into<String>, rel: B) -> Result<u64, ServeError> {
        match self
            .submit(Request::Install {
                name: name.into(),
                rel,
            })
            .wait()?
        {
            Reply::Installed { version } => Ok(version),
            // ipdb-lint: allow(no-panic-on-serve-paths) reason="handle() pairs Install with Installed exhaustively; a mismatched reply is a bug in this file, not a runtime state"
            Reply::Answer(_) => unreachable!("write requests answer with versions"),
        }
    }

    /// Submit an atomic whole-catalog replacement and block for the new
    /// version. Unlike a sequence of [`Server::install`] calls, readers
    /// never observe a state mixing old and new relations.
    pub fn install_all(&self, catalog: Catalog<B>) -> Result<u64, ServeError> {
        match self.submit(Request::InstallAll(catalog)).wait()? {
            Reply::Installed { version } => Ok(version),
            // ipdb-lint: allow(no-panic-on-serve-paths) reason="handle() pairs InstallAll with Installed exhaustively; a mismatched reply is a bug in this file, not a runtime state"
            Reply::Answer(_) => unreachable!("write requests answer with versions"),
        }
    }

    /// The current snapshot (what a query submitted right now would
    /// execute against, absent queued writes).
    pub fn snapshot(&self) -> Arc<Snapshot<B>> {
        self.shared.snapshots.snapshot()
    }

    /// The shared plan cache (hit/miss counters live here).
    pub fn cache(&self) -> &PlanCache {
        &self.shared.cache
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Closes the queue, drains outstanding requests, and joins every
    /// worker. Requests submitted after this resolve to
    /// [`ServeError::Closed`].
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            q.open = false;
        }
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            // A worker that somehow died still counts as shut down.
            let _ = w.join();
        }
    }
}

impl<B> Drop for Server<B>
where
    B: Backend + Send + Sync + 'static,
    B::Output: Send,
{
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.close_and_join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::TraceSink;
    use ipdb_rel::{instance, Instance, Query, RelError};

    fn catalog() -> Catalog<Instance> {
        [
            ("R", instance![[1, 2], [3, 4]]),
            ("S", instance![[2, 9], [4, 7]]),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn snapshot_catalog_versions_and_cow() {
        let sc = SnapshotCatalog::new(catalog());
        let v0 = sc.snapshot();
        assert_eq!(v0.version(), 0);
        assert_eq!(v0.schema().arity_of("R"), Some(2));

        let v = sc.update(|cat| {
            cat.insert("T", instance![[5]]);
        });
        assert_eq!(v, 1);
        let v1 = sc.snapshot();
        assert_eq!(v1.version(), 1);
        assert!(v1.catalog().get("T").is_some());
        // The old snapshot is untouched (no torn catalogs) and shares
        // the unchanged relations with the new one (Arc, not copies).
        assert!(v0.catalog().get("T").is_none());
        assert!(Arc::ptr_eq(
            v0.catalog().get_shared("R").unwrap(),
            v1.catalog().get_shared("R").unwrap()
        ));

        let v = sc.install(catalog());
        assert_eq!(v, 2);
        assert!(sc.snapshot().catalog().get("T").is_none());
    }

    #[test]
    fn server_answers_queries_and_reuses_plans() {
        let srv: Server<Instance> = Server::start(catalog(), ServerConfig::with_threads(2));
        let q = "pi[0,3](join[#1=#2](R, S))";
        let expected = instance![[1, 9], [3, 7]];
        assert_eq!(srv.query(q).unwrap(), expected);
        assert_eq!(srv.query(q).unwrap(), expected);
        assert_eq!(srv.cache().hits(), 1);
        assert_eq!(srv.cache().misses(), 1);
        srv.shutdown();
    }

    #[test]
    fn writes_become_visible_to_later_requests() {
        let srv: Server<Instance> = Server::start(catalog(), ServerConfig::with_threads(2));
        assert_eq!(srv.query("R").unwrap(), instance![[1, 2], [3, 4]]);
        let version = srv.install("R", instance![[8, 8]]).unwrap();
        assert!(version >= 1);
        // The install's ticket resolved, so this query starts after the
        // new snapshot is in place.
        assert_eq!(srv.query("R").unwrap(), instance![[8, 8]]);
        // Schema changes flow through too (plan-cache keys on schema).
        srv.install("R", instance![[1], [2]]).unwrap();
        assert_eq!(srv.query("R").unwrap(), instance![[1], [2]]);
        srv.shutdown();
    }

    #[test]
    fn remove_drops_one_relation_in_a_new_version() {
        let srv: Server<Instance> = Server::start(catalog(), ServerConfig::with_threads(1));
        let remove = |name: &str| match srv
            .submit(Request::Remove { name: name.into() })
            .wait()
            .unwrap()
        {
            Reply::Installed { version } => version,
            Reply::Answer(_) => panic!("a remove answers with a version"),
        };
        let before = srv.snapshot();
        let v = remove("R");
        assert!(v > before.version());
        let after = srv.snapshot();
        assert_eq!(after.version(), v);
        assert!(after.catalog().get("R").is_none());
        // A query naming `R` is a typed engine error; `S` still answers.
        assert!(matches!(
            srv.query("pi[0](R)"),
            Err(ServeError::Engine(EngineError::Rel(
                RelError::UnknownRelation { .. }
            )))
        ));
        assert_eq!(srv.query("S").unwrap(), instance![[2, 9], [4, 7]]);
        // Removing an absent name installs a new version holding the
        // same relations.
        let w = remove("R");
        assert!(w > v);
        let again = srv.snapshot();
        assert_eq!(again.version(), w);
        assert_eq!(again.schema(), after.schema());
        assert!(Arc::ptr_eq(
            after.catalog().get_shared("S").unwrap(),
            again.catalog().get_shared("S").unwrap()
        ));
        assert_eq!(srv.query("S").unwrap(), instance![[2, 9], [4, 7]]);
        srv.shutdown();
    }

    #[test]
    fn engine_errors_come_back_as_replies() {
        let srv: Server<Instance> = Server::start(catalog(), ServerConfig::with_threads(1));
        // Parse error.
        assert!(matches!(
            srv.query("pi[0"),
            Err(ServeError::Engine(EngineError::Parse { .. }))
        ));
        // Unknown relation.
        assert!(matches!(srv.query("Zap"), Err(ServeError::Engine(_))));
        // The worker is still alive and serving.
        assert_eq!(srv.query("pi[0](R)").unwrap(), instance![[1], [3]]);
        srv.shutdown();
    }

    #[test]
    fn over_deep_requests_answer_errors_and_serving_continues() {
        use crate::parser::{nested_text, MAX_DEPTH};
        let srv: Server<Instance> = Server::start(catalog(), ServerConfig::with_threads(1));
        for pred in [false, true] {
            let src = nested_text(MAX_DEPTH + 1, pred).replace('V', "R");
            assert!(matches!(
                srv.query(&src),
                Err(ServeError::Engine(EngineError::TooDeep {
                    limit: MAX_DEPTH,
                    ..
                }))
            ));
        }
        // Far past the bound too: ten thousand levels is 60 KB of text.
        let src = nested_text(10_000, false).replace('V', "R");
        assert!(matches!(
            srv.query(&src),
            Err(ServeError::Engine(EngineError::TooDeep { .. }))
        ));
        // The worker is still alive and serving, at the bound as well.
        assert_eq!(srv.query("pi[0](R)").unwrap(), instance![[1], [3]]);
        let src = nested_text(MAX_DEPTH, false).replace('V', "R");
        assert_eq!(srv.query(&src).unwrap(), instance![[1], [3]]);
        srv.shutdown();
    }

    /// A backend whose executor panics on the relation named `Boom`.
    #[derive(Debug)]
    struct Fuse;

    impl Backend for Fuse {
        type Output = ();
        const NAME: &'static str = "fuse";
        fn input_arity(&self) -> usize {
            1
        }
        fn execute<S: TraceSink>(
            _: &Catalog<Fuse>,
            q: &Query,
            _: &ExecConfig,
            _: &mut S,
        ) -> Result<(), EngineError> {
            assert!(q != &Query::rel("Boom"), "poisoned request");
            Ok(())
        }
    }

    #[test]
    fn panicked_requests_answer_errors_and_workers_survive() {
        let cat = [("Boom", Fuse), ("Ok", Fuse)].into_iter().collect();
        let srv: Server<Fuse> = Server::start(cat, ServerConfig::with_threads(1));
        match srv.query("Boom") {
            Err(ServeError::Panicked(msg)) => assert!(msg.contains("poisoned request")),
            other => panic!("expected a panic reply, got {other:?}"),
        }
        // Same single worker, next request: it survived.
        assert_eq!(srv.query("Ok"), Ok(()));
        srv.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work_and_closes() {
        let srv: Server<Instance> = Server::start(catalog(), ServerConfig::with_threads(1));
        let tickets: Vec<_> = (0..16)
            .map(|i| srv.submit(Request::Query(format!("sigma[#0!={i}](R)"))))
            .collect();
        srv.shutdown();
        for t in tickets {
            assert!(t.wait().is_ok(), "queued work drains before shutdown");
        }
    }

    #[test]
    fn server_config_default_is_sane() {
        let cfg = ServerConfig::default();
        assert!(cfg.threads >= 1);
        assert!(cfg.cache_capacity >= 1);
        assert_eq!(ServerConfig::with_threads(3).threads, 3);
        // threads=0 is clamped at start.
        let srv: Server<Instance> = Server::start(catalog(), ServerConfig::with_threads(0));
        assert_eq!(srv.threads(), 1);
        srv.shutdown();
    }
}
