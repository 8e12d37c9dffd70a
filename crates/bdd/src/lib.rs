//! # `ipdb-bdd` — reduced ordered BDDs and weighted model counting
//!
//! Why this substrate exists: §7–§8 of Green & Tannen reduce query
//! answering on probabilistic tables to computing the probability of the
//! *event expression* (boolean condition) attached to each answer tuple —
//! exactly the "event expressions / paths / traces" of Fuhr–Rölleke,
//! Zimányi, and ProbView that the paper unifies. Computing such a
//! probability is weighted model counting (WMC), and the standard data
//! structure making the tractable cases fast is the reduced ordered
//! binary decision diagram. The probabilistic-database engines descending
//! from this line of work (MystiQ, MayBMS, Trio) all ship such a
//! component; we build it from scratch.
//!
//! * [`BddManager`] — hash-consed ROBDD store with an apply cache:
//!   `var`, `not`, `and`, `or`, `xor`, `restrict`, evaluation, exact
//!   satisfying-assignment counting, and weighted model counting.
//! * [`Weight`] — the numeric abstraction for WMC (implemented here for
//!   `f64`; `ipdb-prob` adds exact rationals).
//! * [`encode`] — the finite-domain layer: [`FdEncoding`] ladder-encodes
//!   a variable of `d` values into `d − 1` Boolean levels, level `i`
//!   meaning "`x = vᵢ` given `x ∉ {v₀..vᵢ₋₁}`", so every assignment
//!   decodes to exactly one value per variable and arbitrary `Eq`/`Neq`
//!   conditions compile — boolean conditions are the
//!   `{false, true}`-domain case, one level each.
//!   [`FdEncoding::weights_from`] gives each level its conditional
//!   probability and complement; the pair sums to 1, so
//!   [`BddManager::wmc`] skips untested levels without scaling. This is
//!   what lets `ipdb-prob` answer pc-table queries without enumerating
//!   the §8 valuation product space.
//!
//! `ipdb-prob::answering` has two probability engines: this finite-domain
//! BDD + WMC path, and valuation enumeration as its exact oracle. They are
//! checked against each other, and the floors in `ipdb-bench`'s
//! `tests/floors.rs` count where the BDD pays off: its nodes and
//! uncached `apply` calls against the valuations enumeration walks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod error;
pub mod manager;
pub mod weight;

pub use encode::FdEncoding;
pub use error::BddError;
pub use manager::{BddManager, BddStats, NodeRef, FALSE, TRUE};
pub use weight::Weight;
