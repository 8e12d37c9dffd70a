//! The one place the benchmark calls into `ipdb_engine`, `ipdb_prob` and
//! `ipdb_bdd` (whose counters reach us through `ipdb_prob`).
//!
//! Workloads, probes and metric definitions use only the names below. When
//! the engine's execution entry points change shape, this file is the only
//! one that has to follow; every function here is a thin forward.

use std::sync::Arc;

pub use ipdb_engine::{Catalog, PlanCache, Prepared, Schema, Server, SnapshotCatalog, Ticket};
pub use ipdb_prob::{BddStats, PcTable, Rat};
pub use ipdb_rel::{Instance, Query, Tuple};

use ipdb_logic::Var;
use ipdb_prob::FiniteSpace;
use ipdb_rel::Value;
use ipdb_tables::{CRow, CTable};

use ipdb_engine::{Engine, ExecConfig, Reply, Request, ServerConfig, Snapshot};

/// An exact answer distribution: every possible answer tuple with its
/// probability.
pub type Dist = Vec<(Tuple, Rat)>;

/// The snapshot a served request executes against.
pub type InstanceSnapshot = Arc<Snapshot<Instance>>;

/// What a served request came back with.
#[derive(Debug)]
pub enum Outcome {
    Answer(Instance),
    Installed(u64),
    Failed(String),
}

/// A variable's distribution in a pc-table.
pub type VarDist = (Var, FiniteSpace<Value, Rat>);

pub fn catalog<B>(rels: impl IntoIterator<Item = (String, B)>) -> Catalog<B> {
    rels.into_iter().collect()
}

/// A pc-catalog's relations by name.
pub fn pc_entries(cat: &Catalog<PcTable<Rat>>) -> Vec<(String, &PcTable<Rat>)> {
    cat.iter()
        .map(|(name, pc)| (name.to_string(), pc))
        .collect()
}

/// A pc-table's rows and variable distributions.
pub fn pc_parts(pc: &PcTable<Rat>) -> (Vec<CRow>, Vec<VarDist>) {
    let dists = pc.dists().iter().map(|(v, d)| (*v, d.clone())).collect();
    (pc.table().rows().to_vec(), dists)
}

pub fn pc_table(table: CTable, dists: Vec<VarDist>) -> PcTable<Rat> {
    PcTable::new(table, dists).expect("every variable of the table has a distribution")
}

/// Rows of an answered pc-table.
pub fn answer_rows(pc: &PcTable<Rat>) -> usize {
    pc.len()
}

/// Parse, plan, optimize and lower, with the default engine.
pub fn prepare(text: &str, schema: &Schema) -> Prepared {
    Engine::new()
        .prepare_text_schema(text, schema)
        .unwrap_or_else(|e| panic!("workload query must prepare: {e}\n{text}"))
}

/// The parser alone.
pub fn parse(text: &str) -> Result<Query, String> {
    ipdb_engine::parse(text).map_err(|e| e.to_string())
}

/// Plan, optimize and lower an already-parsed query.
pub fn prepare_parsed(q: &Query, schema: &Schema) -> Result<Prepared, String> {
    Engine::new()
        .prepare_schema(q, schema)
        .map_err(|e| e.to_string())
}

/// Optimizer fixpoint passes the statement took.
pub fn optimizer_passes(stmt: &Prepared) -> usize {
    stmt.optimize_stats().passes
}

/// The columnar, morsel-parallel instance executor at `threads` workers.
pub fn run_morsel(
    stmt: &Prepared,
    cat: &Catalog<Instance>,
    threads: usize,
) -> Result<Instance, String> {
    stmt.execute_catalog_with(cat, &ExecConfig::with_threads(threads))
        .map_err(|e| e.to_string())
}

/// The row-at-a-time evaluator on the optimized plan (the answer oracle
/// for the columnar executor).
pub fn run_rows(stmt: &Prepared, cat: &Catalog<Instance>) -> Result<Instance, String> {
    let map = cat
        .iter()
        .map(|(name, rel)| (name.to_string(), rel.clone()))
        .collect();
    stmt.query().eval_catalog(&map).map_err(|e| e.to_string())
}

/// The pc-table answer distribution: Thm 9 closure, then BDD + WMC.
pub fn answer_dist(stmt: &Prepared, cat: &Catalog<PcTable<Rat>>) -> Result<Dist, String> {
    stmt.answer_dist_catalog(cat).map_err(|e| e.to_string())
}

/// The same distribution by valuation enumeration over the naive plan
/// (the answer oracle for [`answer_dist`]).
pub fn answer_dist_enum(stmt: &Prepared, cat: &Catalog<PcTable<Rat>>) -> Result<Dist, String> {
    stmt.answer_dist_catalog_enum(cat)
        .map_err(|e| e.to_string())
}

/// The c-table closure alone: the optimized plan over the pc-catalog.
pub fn closure(stmt: &Prepared, cat: &Catalog<PcTable<Rat>>) -> Result<PcTable<Rat>, String> {
    use ipdb_engine::Backend as _;
    PcTable::run_catalog(cat, stmt.query()).map_err(|e| e.to_string())
}

/// BDD compilation + WMC of an answered pc-table, with the manager's
/// counters.
pub fn marginals(answered: &PcTable<Rat>) -> Result<(Dist, BddStats), String> {
    answered.marginals_bdd_traced().map_err(|e| e.to_string())
}

/// Turns the engine's metrics registry on or off for the whole process.
pub fn set_metrics(on: bool) {
    ipdb_obs::set_enabled(on);
}

/// Boots a server with `threads` workers, executing each request serially
/// (the server's default). `metrics` also switches the per-request
/// executor counters.
pub fn start_server(
    cat: Catalog<Instance>,
    threads: usize,
    cache_capacity: usize,
    metrics: bool,
) -> Server<Instance> {
    let mut cfg = ServerConfig::with_threads(threads);
    cfg.cache_capacity = cache_capacity;
    cfg.exec = ExecConfig {
        metrics,
        ..ExecConfig::serial()
    };
    Server::start(cat, cfg)
}

/// The server's default plan-cache capacity.
pub fn default_cache_capacity() -> usize {
    ServerConfig::default().cache_capacity
}

pub fn submit_query(server: &Server<Instance>, text: &str) -> Ticket<Instance> {
    server.submit(Request::Query(text.to_string()))
}

pub fn submit_install(server: &Server<Instance>, name: &str, rel: Instance) -> Ticket<Instance> {
    server.submit(Request::Install {
        name: name.to_string(),
        rel,
    })
}

pub fn wait(ticket: Ticket<Instance>) -> Outcome {
    match ticket.wait() {
        Ok(Reply::Answer(out)) => Outcome::Answer(out),
        Ok(Reply::Installed { version }) => Outcome::Installed(version),
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

pub fn server_snapshot(server: &Server<Instance>) -> InstanceSnapshot {
    server.snapshot()
}

pub fn server_cache(server: &Server<Instance>) -> &PlanCache {
    server.cache()
}

pub fn shutdown(server: Server<Instance>) {
    server.shutdown();
}

// The calls a server worker makes for one query, one at a time.

pub fn new_snapshots(cat: Catalog<Instance>) -> SnapshotCatalog<Instance> {
    SnapshotCatalog::new(cat)
}

pub fn take_snapshot(snaps: &SnapshotCatalog<Instance>) -> InstanceSnapshot {
    snaps.snapshot()
}

pub fn install_into(snaps: &SnapshotCatalog<Instance>, name: &str, rel: Instance) -> u64 {
    snaps.update(|cat| {
        cat.insert(name, rel);
    })
}

pub fn snapshot_schema(snap: &InstanceSnapshot) -> &Schema {
    snap.schema()
}

pub fn new_cache(capacity: usize) -> PlanCache {
    PlanCache::new(capacity)
}

pub fn cached_prepare(
    cache: &PlanCache,
    text: &str,
    schema: &Schema,
) -> Result<Arc<Prepared>, String> {
    cache
        .prepare_text(&Engine::new(), text, schema)
        .map_err(|e| e.to_string())
}

/// (hits, misses, cached statements).
pub fn cache_counts(cache: &PlanCache) -> (u64, u64, usize) {
    (cache.hits(), cache.misses(), cache.len())
}

/// Executes a prepared statement on a snapshot the way a worker does.
pub fn run_served(stmt: &Prepared, snap: &InstanceSnapshot) -> Result<Instance, String> {
    stmt.execute_catalog_cfg(snap.catalog(), &ExecConfig::serial())
        .map_err(|e| e.to_string())
}
