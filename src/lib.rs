//! # `ipdb` — Models for Incomplete and Probabilistic Information
//!
//! A from-scratch Rust implementation of the models, theorems, and
//! constructions of Green & Tannen, *"Models for Incomplete and
//! Probabilistic Information"* (EDBT 2006 workshops, LNCS 4254).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`rel`] | `ipdb-rel` | values, tuples, instances, incomplete databases, unnamed RA |
//! | [`logic`] | `ipdb-logic` | c-table condition language, valuations, satisfiability |
//! | [`bdd`] | `ipdb-bdd` | ROBDDs + weighted model counting for event expressions |
//! | [`tables`] | `ipdb-tables` | Codd/v/c-tables, `?`-tables, or-set tables, `R_sets`, `R_⊕≡`, `R_A^prop`, the c-table algebra |
//! | [`prob`] | `ipdb-prob` | probability spaces, p-`?`-tables, p-or-set-tables, pc-tables, query answering |
//! | [`provenance`] | `ipdb-provenance` | semiring provenance; the §9 lineage connection |
//! | [`theory`] | `ipdb-core` | RA-completeness, finite completeness, algebraic completion, non-closure, probabilistic completeness/closure |
//! | [`engine`] | `ipdb-engine` | query pipeline: RA surface parser, logical plans, rule-based optimizer, unified executor over all three backends |
//! | [`obs`] | `ipdb-obs` | observability: global metric counters behind a zero-cost-when-off flag (`IPDB_METRICS`) |
//!
//! ## Quickstart
//!
//! ```
//! use ipdb::prelude::*;
//!
//! // The c-table of the paper's Example 2 (arity 3, variables x, y, z):
//! let mut vars = VarGen::new();
//! let (x, y, z) = (vars.fresh(), vars.fresh(), vars.fresh());
//! let s = CTable::builder(3)
//!     .row([t_const(1), t_const(2), t_var(x)], Condition::True)
//!     .row(
//!         [t_const(3), t_var(x), t_var(y)],
//!         Condition::and([Condition::eq_vv(x, y), Condition::neq_vc(z, 2)]),
//!     )
//!     .row(
//!         [t_var(z), t_const(4), t_const(5)],
//!         Condition::or([Condition::neq_vc(x, 1), Condition::neq_vv(x, y)]),
//!     )
//!     .build()
//!     .unwrap();
//!
//! // Enumerate its possible worlds over a finite slice of the domain:
//! let dom = Domain::ints(1..=3);
//! let worlds = s.mod_over(&dom).unwrap();
//! assert!(!worlds.is_empty());
//! ```

#![forbid(unsafe_code)]

pub use ipdb_bdd as bdd;
pub use ipdb_core as theory;
pub use ipdb_engine as engine;
pub use ipdb_logic as logic;
pub use ipdb_obs as obs;
pub use ipdb_prob as prob;
pub use ipdb_provenance as provenance;
pub use ipdb_rel as rel;
pub use ipdb_tables as tables;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use ipdb_logic::{Condition, Term, Valuation, Var, VarGen};
    pub use ipdb_rel::{
        instance, tuple, Domain, Fragment, IDatabase, Instance, Pred, Query, Schema, Tuple, Value,
    };
    pub use ipdb_tables::{
        t_const, t_var, BooleanCTable, CTable, OrSetTable, QTable, RepresentationSystem,
    };

    pub use ipdb_prob::{BooleanPcTable, PDatabase, POrSetTable, PTable, PcTable, Rat, Weight};

    pub use ipdb_engine::{
        Backend, Catalog, Engine, EngineError, ExecConfig, OpReport, PlanCache, Prepared,
        QueryReport, Reply, Request, ServeError, Server, ServerConfig, Snapshot, SnapshotCatalog,
        Ticket,
    };

    pub use ipdb_core as theory;
}
