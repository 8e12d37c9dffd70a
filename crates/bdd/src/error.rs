//! Errors for finite-domain encoding, condition compilation and model
//! counting.

use std::fmt;

use ipdb_logic::Var;
use ipdb_rel::Value;

/// Errors raised when compiling conditions to BDDs or counting models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BddError {
    /// The condition (or a valuation or weight) mentions a variable
    /// missing from the finite-domain encoding.
    UnknownVar(Var),
    /// A model-counting call met a decision node whose variable index
    /// lies outside the declared variable range (`weights.len()` for
    /// [`crate::BddManager::wmc`], `nvars` for
    /// [`crate::BddManager::sat_count`]): the function depends on a
    /// variable the caller supplied no weight/level for, so any count
    /// would be meaningless.
    VarOutOfRange {
        /// The decision variable encountered in the diagram.
        var: u32,
        /// The number of variables the caller declared.
        nvars: u32,
    },
    /// A finite-domain WMC call supplied no weight for one of a
    /// variable's domain values (every value of every encoded variable
    /// needs a weight for the count to be well-defined).
    MissingValueWeight(Var, Value),
    /// A finite-domain encoding was asked to encode a variable with an
    /// empty domain; such a variable has no possible value, so every
    /// condition over it would be vacuously false.
    EmptyDomain(Var),
    /// A valuation or weight named a value outside the variable's
    /// encoded domain — no cube exists for that binding.
    ValueOutOfDomain(Var, Value),
    /// A variable's value weights are no distribution up to scale: one
    /// is negative, or they sum to zero, so the conditional weights of
    /// the finite-domain encoding are undefined.
    InvalidWeights(Var),
    /// Model counting overflowed: a checked [`Weight`](crate::Weight)
    /// operation returned `None` (exact rational weights with adversarial
    /// denominators reach this), or an exact
    /// [`sat_count`](crate::BddManager::sat_count) exceeds `u128`. It is
    /// an error, not a panic, so callers can degrade gracefully.
    Overflow,
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::UnknownVar(v) => {
                write!(f, "variable {v} missing from the finite-domain encoding")
            }
            BddError::VarOutOfRange { var, nvars } => write!(
                f,
                "BDD node decides variable index {var}, but the caller declared \
                 only {nvars} variables"
            ),
            BddError::MissingValueWeight(v, val) => {
                write!(f, "no weight supplied for {v} = {val}")
            }
            BddError::EmptyDomain(v) => {
                write!(f, "variable {v} has an empty domain; nothing to encode")
            }
            BddError::ValueOutOfDomain(v, val) => {
                write!(f, "value {val} is outside the encoded domain of {v}")
            }
            BddError::InvalidWeights(v) => {
                write!(f, "weights of {v} include a negative one or sum to zero")
            }
            BddError::Overflow => write!(f, "arithmetic overflowed during model counting"),
        }
    }
}

impl std::error::Error for BddError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(BddError::UnknownVar(Var(2)).to_string().contains("x2"));
        let e = BddError::VarOutOfRange { var: 7, nvars: 3 };
        assert!(e.to_string().contains('7') && e.to_string().contains('3'));
        assert!(BddError::MissingValueWeight(Var(1), Value::from(9))
            .to_string()
            .contains("x1 = 9"));
        let e = BddError::ValueOutOfDomain(Var(1), Value::from(9)).to_string();
        assert!(e.contains("x1") && e.contains('9'));
        assert!(BddError::EmptyDomain(Var(0)).to_string().contains("x0"));
        assert!(BddError::InvalidWeights(Var(5)).to_string().contains("x5"));
    }
}
