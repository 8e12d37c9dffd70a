//! # `ipdb-engine` — the query pipeline
//!
//! The paper's central claim is uniformity: *one* relational algebra
//! evaluates over complete instances (§2), c-tables (Theorem 4), and
//! probabilistic c-tables (Theorem 9). This crate turns that claim into
//! an engine with a conventional four-stage pipeline:
//!
//! 1. **parse** ([`parser`]) — a compact textual RA surface syntax
//!    (`pi`, `sigma`, `join`, `x`, `union`, `diff`, `intersect`, 0-based
//!    column refs `#i`, relation literals) producing the [`Query`] AST,
//!    with a canonical renderer such that `parse(render(q)) == q`;
//! 2. **check** ([`optimize()`], against a [`Schema`]) — column
//!    references, arities and relation names must agree with the schema,
//!    and join key pairs must span the join's operands (they are
//!    normalized and deduplicated); only checked queries are rewritten;
//! 3. **optimize** ([`optimize()`]) — rule-based rewrites (selection
//!    pushdown, predicate fusion, **equijoin recognition** turning
//!    `σ_eq(a × b)` into a hash-executed `Join` node, projection
//!    pruning, dead-branch elimination, idempotent set ops, constant
//!    folding), each a worldwise identity, iterated to a fixpoint
//!    bounded by [`Query::depth`];
//! 4. **execute** ([`backend`]) — the [`Backend`] trait, implemented by
//!    [`Instance`](ipdb_rel::Instance), [`CTable`](ipdb_tables::CTable)
//!    (whose operators build no row whose condition is `false`), and
//!    [`PcTable`](ipdb_prob::PcTable), so one prepared query runs under
//!    all three semantics. Joins hash on their key
//!    columns through one index, `ipdb-rel`'s
//!    [`JoinIndex`](ipdb_rel::JoinIndex): instances bucket the build
//!    side outright (a stored relation keeps its index per version),
//!    while c-/pc-tables bucket the rows whose key
//!    columns are *ground* and fall back to condition-conjunction
//!    pairing for rows with variable keys, preserving the c-table
//!    semantics exactly.
//!
//! The `Instance` backend executes through the columnar, morsel-parallel
//! evaluator in [`morsel`]: leaves read `ipdb-rel`'s
//! [`ColumnarInstance`](ipdb_rel::ColumnarInstance) form, which each
//! relation caches from its first query until it changes
//! ([`Instance::columnar`](ipdb_rel::Instance::columnar)), the
//! data-intensive kernels (selection masks, hash-join probes and their
//! gathers) are split into fixed-size morsels drained by a persistent
//! worker pool, and the last batch becomes the answer without a value
//! copied ([`Instance::from_columnar`](ipdb_rel::Instance::from_columnar)).
//! The result is *bit-identical for every thread count and morsel size*. The worker count defaults to
//! [`std::thread::available_parallelism`] (detected once per process),
//! overridable with
//! `IPDB_THREADS` (`IPDB_THREADS=1` forces serial execution); pass an
//! explicit [`ExecConfig`] via [`Prepared::execute_catalog_cfg`] to pin
//! it programmatically.
//!
//! ## Observability
//!
//! Each backend has exactly one evaluator ([`Backend::execute`]),
//! generic over a [`TraceSink`]: plain execution passes the zero-sized
//! [`NoTrace`], and **`EXPLAIN ANALYZE`** passes a [`ReportSink`]. The
//! c-table and pc-table backends share one: `ipdb-tables`'
//! [`CTable::eval_in`](ipdb_tables::CTable::eval_in), the `q̄`
//! translation that `CTable::eval_query` runs over a single table. The
//! trace hooks live in `ipdb-rel` ([`ipdb_rel::trace`]) and are
//! re-exported here.
//! [`Prepared::execute_catalog_analyzed`] and
//! [`Prepared::answer_dist_catalog_analyzed`] return the identical
//! output plus a [`QueryReport`] — per-operator cardinalities,
//! selectivities, inclusive/exclusive timings, the hash join's
//! build-side choice, the optimizer's pass count, and (for
//! probabilistic answering) the shared `BddManager`'s counters. [`QueryReport::render`] renders it
//! as an annotated plan tree. Engine internals additionally report into
//! the `ipdb-obs` counter registry (worker-pool gauges, morsel/stage
//! counts) when metrics are enabled via `IPDB_METRICS=1` or
//! [`ExecConfig::metrics`]; the untraced execution path records
//! nothing when metrics are off.
//!
//! ```
//! use ipdb_engine::{parser, Catalog, Engine};
//! use ipdb_rel::instance;
//!
//! // Parse the surface syntax; `#i` and `pi[...]` columns are 0-based.
//! let q = parser::parse("pi[0](sigma[and(#1=#2, #3!=7)](V x V))").unwrap();
//! assert_eq!(parser::parse(&parser::render(&q)).unwrap(), q);
//!
//! // Prepare once (check + optimize), execute on any backend. A single
//! // input runs as the catalog `{V: input}`.
//! let stmt = Engine::new().prepare(&q, 2).unwrap();
//! let chain = Catalog::single(instance![[1, 2], [2, 3]]);
//! assert_eq!(stmt.execute_catalog(&chain).unwrap(), instance![[1]]);
//! println!("{}", stmt.explain());
//! ```
//!
//! A selection over a product whose predicate equates one column of each
//! factor is recognized as an equijoin and executed as a hash join — the
//! optimized plan shows a `join` node keyed on the spanning equality:
//!
//! ```
//! use ipdb_engine::Engine;
//!
//! let stmt = Engine::new().prepare_text("sigma[#0=#2](V x V)", 2).unwrap();
//! assert!(stmt.explain().contains("join[#0=#2]  (arity 4)"));
//!
//! // The explicit surface form prepares to the same query.
//! let explicit = Engine::new().prepare_text("join[#0=#2](V, V)", 2).unwrap();
//! assert_eq!(explicit.query(), stmt.query());
//! ```
//!
//! ## Named relations
//!
//! The paper's §2 footnote ("everything we say can be easily
//! reformulated for arbitrary relational schemas") is first-class: any
//! identifier that is not a reserved word names a relation, queries
//! prepare against a [`Schema`] (`name → arity`), and execution takes a
//! [`Catalog`] (`name → relation`) of any backend. `V`/`W` stay as the
//! reserved names of the classic one- and two-relation contexts, so
//! every single-input query is the special case of a `{"V": …}`
//! catalog ([`Catalog::single`], the counterpart of [`Schema::single`]). A pc-table catalog shares one variable namespace across its
//! relations — and [`Prepared::answer_dist_catalog`] compiles the whole
//! answer's conditions with one shared `BddManager`.
//!
//! ## Serving
//!
//! The [`serve`] module stacks a serving layer on top of catalogs: a
//! [`PlanCache`] (LRU of `Arc<`[`Prepared`]`>` keyed by the request
//! text as sent **and** the schema — see [`cache`]), [`SnapshotCatalog`]
//! (copy-on-write catalog versions; readers take `Arc` snapshots and
//! never block on writers), and a multithreaded [`Server`] request
//! loop with per-request panic isolation. Catalog relations are
//! `Arc`-shared and executor leaves borrow them, so a hot 100k-row
//! relation is *not* copied per request.
//!
//! ```
//! use ipdb_engine::{Catalog, Engine, Schema};
//! use ipdb_rel::{instance, Instance};
//!
//! let schema = Schema::new([("R", 2), ("S", 2)]).unwrap();
//! let stmt = Engine::new()
//!     .prepare_text_schema("join[#0=#2](R, S)", &schema)
//!     .unwrap();
//! let cat: Catalog<Instance> = [
//!     ("R", instance![[1, 2], [5, 6]]),
//!     ("S", instance![[1, 9], [6, 0]]),
//! ]
//! .into_iter()
//! .collect();
//! assert_eq!(
//!     stmt.execute_catalog(&cat).unwrap(),
//!     instance![[1, 2, 1, 9]],
//! );
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod cache;
mod erase;
pub mod error;
pub mod morsel;
pub mod optimize;
pub mod parser;
pub mod pipeline;
pub mod report;
pub mod serve;

pub use backend::{Backend, Catalog};
pub use cache::PlanCache;
pub use error::EngineError;
pub use morsel::ExecConfig;
pub use optimize::{optimize, OptimizeStats};
pub use parser::{is_relation_name, parse, render};
pub use pipeline::{Engine, Prepared};
pub use report::{JoinBuild, NoTrace, OpReport, QueryReport, ReportSink, TraceSink};
pub use serve::{
    Reply, Request, ServeError, Server, ServerConfig, Snapshot, SnapshotCatalog, Ticket,
};

// Re-exported so doctests and downstream callers can name the AST types
// without an explicit `ipdb-rel` dependency.
pub use ipdb_rel::{Pred, Query, Schema};
