//! # `ipdb-logic` — the c-table condition language
//!
//! Imieliński–Lipski c-tables attach to each tuple a *condition*: "a
//! boolean combination of equalities involving variables and constants"
//! (paper §2). This crate is that logic, self-contained:
//!
//! * [`Var`] / [`VarGen`] — variables and a fresh-variable source;
//! * [`Term`] — a variable or a constant from the domain `D`;
//! * [`Condition`] — `true | false | t₁ = t₂ | t₁ ≠ t₂ | ¬φ | ⋀φᵢ | ⋁φᵢ`,
//!   with smart constructors, recursive simplification, substitution, and
//!   negation normal form;
//! * [`Valuation`] — (partial) assignments `ν : Var → D`, total evaluation
//!   and *residual* (partial) evaluation — the workhorse of world
//!   enumeration and satisfiability; `ipdb-bdd` compiles conditions for
//!   the probability engine in `ipdb-prob`;
//! * [`sat`] — satisfiability / validity / equivalence of conditions over
//!   per-variable finite domains (Def. 6's `dom(x)`), by backtracking with
//!   residual pruning.
//!
//! Boolean c-tables (§3) need no special machinery: a boolean variable is
//! a variable whose domain is `{false, true}` and whose atoms compare it
//! with boolean constants ([`Condition::bvar`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod condition;
pub mod error;
pub mod sat;
pub mod term;
pub mod valuation;
pub mod var;

#[cfg(feature = "strategies")]
pub mod strategies;

pub use condition::Condition;
pub use error::LogicError;
pub use term::Term;
pub use valuation::Valuation;
pub use var::{Var, VarGen};
