//! Errors for the probabilistic layer.

use std::fmt;

use ipdb_bdd::BddError;
use ipdb_logic::{LogicError, Var};
use ipdb_rel::RelError;
use ipdb_tables::TableError;

/// Errors raised by probabilistic tables, spaces, and query answering.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbError {
    /// Outcome probabilities do not sum to 1.
    MassNotOne(String),
    /// A probability lies outside `\[0, 1\]`.
    InvalidProbability(String),
    /// A pc-table variable has no attached distribution.
    MissingDistribution(Var),
    /// A distribution listed the same outcome twice.
    DuplicateOutcome(String),
    /// A distribution has no outcomes.
    EmptyDistribution,
    /// Two pc-relations of one catalog gave the same (shared-namespace)
    /// variable different distributions.
    ConflictingDistribution(Var),
    /// Exact-weight arithmetic left the weight type's representable
    /// range (e.g. [`Rat`](crate::Rat) denominators past `i128`) during
    /// model counting or normalization. Surfaced as an error instead of
    /// a panic so adversarial weights cannot crash the answering entry
    /// points.
    Overflow,
    /// An underlying table error.
    Table(TableError),
    /// An underlying logic error.
    Logic(LogicError),
    /// An underlying relational error.
    Rel(RelError),
    /// An underlying BDD compilation / model-counting error.
    Bdd(BddError),
    /// Lifted (extensional) evaluation was asked for a non-hierarchical
    /// query, where no safe plan exists (Dalvi–Suciu dichotomy; paper
    /// §8's discussion of \[9\]).
    NonHierarchical(String),
    /// A conjunctive-query atom referenced an unknown relation.
    UnknownRelation(String),
    /// A conjunctive-query atom's arity does not match its relation.
    AtomArity {
        /// The relation name.
        rel: String,
        /// Arity expected by the stored relation.
        expected: usize,
        /// Arity used by the atom.
        got: usize,
    },
}

impl fmt::Display for ProbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbError::MassNotOne(s) => write!(f, "probabilities do not sum to 1: {s}"),
            ProbError::InvalidProbability(s) => write!(f, "probability out of [0,1]: {s}"),
            ProbError::MissingDistribution(v) => {
                write!(f, "variable {v} has no probability distribution")
            }
            ProbError::DuplicateOutcome(s) => write!(f, "duplicate outcome in distribution: {s}"),
            ProbError::EmptyDistribution => write!(f, "distribution has no outcomes"),
            ProbError::ConflictingDistribution(v) => write!(
                f,
                "variable {v} carries different distributions in different relations \
                 of the catalog"
            ),
            ProbError::Overflow => write!(
                f,
                "exact rational arithmetic overflowed during probability computation"
            ),
            ProbError::Table(e) => write!(f, "{e}"),
            ProbError::Logic(e) => write!(f, "{e}"),
            ProbError::Rel(e) => write!(f, "{e}"),
            ProbError::Bdd(e) => write!(f, "{e}"),
            ProbError::NonHierarchical(s) => {
                write!(f, "query is not hierarchical (no safe plan): {s}")
            }
            ProbError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            ProbError::AtomArity { rel, expected, got } => {
                write!(
                    f,
                    "atom over {rel} has arity {got}, relation has {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ProbError {}

impl From<TableError> for ProbError {
    fn from(e: TableError) -> Self {
        ProbError::Table(e)
    }
}

impl From<LogicError> for ProbError {
    fn from(e: LogicError) -> Self {
        ProbError::Logic(e)
    }
}

impl From<RelError> for ProbError {
    fn from(e: RelError) -> Self {
        ProbError::Rel(e)
    }
}

impl From<BddError> for ProbError {
    fn from(e: BddError) -> Self {
        match e {
            // Weight overflow is a property of the probability layer's
            // arithmetic, not of the diagram: keep one variant for it so
            // callers match a single error regardless of which engine
            // (WMC or enumeration) hit the edge.
            BddError::Overflow => ProbError::Overflow,
            e => ProbError::Bdd(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_froms() {
        let e: ProbError = TableError::EmptyOrSet.into();
        assert!(matches!(e, ProbError::Table(_)));
        let e: ProbError = LogicError::UnboundVar(Var(3)).into();
        assert!(e.to_string().contains("x3"));
        let e: ProbError = RelError::RaggedLiteral.into();
        assert!(matches!(e, ProbError::Rel(_)));
        let e: ProbError = BddError::UnknownVar(Var(4)).into();
        assert!(matches!(e, ProbError::Bdd(_)));
        assert!(e.to_string().contains("x4"));
        assert!(ProbError::NonHierarchical("h0".into())
            .to_string()
            .contains("hierarchical"));
        let e: ProbError = BddError::Overflow.into();
        assert_eq!(e, ProbError::Overflow);
        assert!(e.to_string().contains("overflow"));
        assert!(ProbError::ConflictingDistribution(Var(2))
            .to_string()
            .contains("x2"));
    }
}
