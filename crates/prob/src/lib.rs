//! # `ipdb-prob` — probabilistic databases and probabilistic tables
//!
//! §6–§8 of Green & Tannen: probabilistic models *are* incompleteness
//! models with probability information. This crate supplies:
//!
//! * [`Rat`] — exact rationals, so distribution equalities (Thms 8–9)
//!   are testable exactly; every engine is also generic over `f64`
//!   through the [`Weight`] trait re-exported from `ipdb-bdd`;
//! * [`FiniteSpace`] — finite probability spaces with the two paper
//!   constructions: **product** (Def. 12) and **image** (Def. 10);
//! * [`PDatabase`] — Def. 9 probabilistic databases, with the Def. 11
//!   closure operation (query = image space);
//! * [`PTable`] — p-`?`-tables (§7) with the rigorous Prop. 2 semantics;
//! * [`POrSetTable`] — p-or-set-tables (§7, ProbView simplified);
//! * [`PcTable`] / [`BooleanPcTable`] — **probabilistic c-tables**
//!   (Def. 13), the paper's contribution: complete (Thm 8, see
//!   [`theorem8_table`]) and closed under RA (Thm 9, see
//!   [`PcTable::eval_query`]);
//! * [`answering`] — the two engines for `P[t ∈ q-answer]`: the
//!   finite-domain BDD ([`answering::prob_of_condition`],
//!   [`PcTable::tuple_prob_bdd`] / [`PcTable::answer_dist_bdd`]), which
//!   ladder-encodes multi-valued variables and counts event expressions
//!   by weighted model counting instead of walking the §8 valuation
//!   product space, and valuation enumeration
//!   ([`PcTable::tuple_prob_enum`] / [`PcTable::answer_dist_enum`]), the
//!   Def. 13 semantics kept as its oracle;
//! * [`extensional`] — the §8 reading of Dalvi–Suciu \[9\]: hierarchical
//!   safety test, safe-plan evaluation, lineage-based exact evaluation,
//!   and the unsound forced-extensional plan for contrast.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answering;
pub mod chain;
pub mod complete;
pub mod error;
pub mod extensional;
pub mod pctable;
pub mod pdb;
pub mod porset;
pub mod possibilistic;
pub mod ptable;
pub mod rat;
pub mod space;

pub use chain::{ChainPcTable, CondDist};
pub use complete::theorem8_table;
pub use error::ProbError;
pub use ipdb_bdd::{BddStats, Weight};
pub use pctable::{BooleanPcTable, PcTable, VarDists};
pub use pdb::PDatabase;
pub use porset::{PCell, POrSetTable};
pub use possibilistic::{PiDatabase, PossCTable, PossDist};
pub use ptable::PTable;
pub use rat::Rat;
pub use space::FiniteSpace;
