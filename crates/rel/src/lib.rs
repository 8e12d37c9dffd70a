//! # `ipdb-rel` — the conventional relational substrate
//!
//! Green & Tannen (EDBT 2006, §2) formalize everything over "relational
//! databases over a fixed countably infinite domain `D`", using the
//! *unnamed* form of the relational algebra and a schema consisting of a
//! single relation name of arity `n`. This crate provides exactly that
//! substrate:
//!
//! * [`Value`] — elements of the domain `D` (booleans, integers, strings);
//!   the domain is unbounded, matching the paper's countably infinite `D`.
//! * [`Tuple`] and [`Instance`] — conventional finite `n`-ary relations,
//!   i.e. the elements of `N = { I | I ⊆ Dⁿ, I finite }`.
//! * [`IDatabase`] — a *finite* incomplete database (Def. 1 restricted to
//!   finitely many possible worlds, which is what every executable check
//!   in the paper manipulates: finite-domain tables, Thm 3, Thms 5–8, …).
//! * [`Pred`] and [`Query`] — selection predicates and the unnamed
//!   relational algebra (`π`, `σ`, `×`, `∪`, `−`, `∩`) with constant
//!   relation literals (the `{c}` singletons used throughout the paper's
//!   constructions), an evaluator, and *fragment classification* so that
//!   completion theorems can verify their queries stay inside the claimed
//!   fragment (SPJU, SP, PJ, PU, S⁺PJ, …).
//! * [`Schema`] — named relational schemas (`name → arity`), the §2
//!   footnote's "arbitrary relational schemas": [`Query::Rel`] leaves
//!   resolve against a schema ([`Query::arity_in`]) and evaluate against
//!   a name-keyed catalog of instances ([`Query::eval_catalog`]), with
//!   `Input`/`Second` as canonical aliases for the reserved names
//!   `V`/`W`.
//! * [`ColumnarInstance`] and [`JoinIndex`] ([`columnar`]) — a
//!   column-major execution representation with lossless row round-trip
//!   and vectorized kernels (selection masks, projection, product, the
//!   hash-join index); [`Instance::columnar`] caches an instance's columnar
//!   form, and the join indexes built over it, until it changes. The kernels are *chunk-consistent* —
//!   evaluating a row range in pieces gives the same rows as evaluating
//!   it whole — which is what lets `ipdb-engine` parallelize them
//!   morsel-wise without changing any answer.
//! * [`TraceSink`], [`NoTrace`] and [`JoinBuild`] ([`trace`]) — the
//!   per-operator hooks every query evaluator reports through: the
//!   engine's instance executor and `ipdb-tables`' c-table evaluator
//!   alike, with `EXPLAIN ANALYZE` as a sink in `ipdb-engine`.
//!
//! The incomplete/probabilistic layers ([`ipdb-tables`], [`ipdb-prob`])
//! build on these types; nothing in this crate knows about variables or
//! probabilities.
//!
//! [`ipdb-tables`]: https://docs.rs/ipdb-tables
//! [`ipdb-prob`]: https://docs.rs/ipdb-prob

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;
pub mod error;
pub mod fragment;
pub mod idb;
pub mod instance;
mod keyhash;
pub mod pred;
pub mod query;
pub mod schema;
pub mod trace;
pub mod tuple;
pub mod value;

#[cfg(feature = "strategies")]
pub mod strategies;

pub use columnar::{ColumnarInstance, JoinIndex};
pub use error::RelError;
pub use fragment::{Fragment, OpSet, SelectKind};
pub use idb::IDatabase;
pub use instance::Instance;
pub use pred::{normalize_join_keys, CmpOp, Operand, Pred};
pub use query::Query;
pub use schema::Schema;
pub use trace::{JoinBuild, NoTrace, TraceSink};
pub use tuple::Tuple;
pub use value::{Domain, Value};
