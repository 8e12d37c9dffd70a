//! Errors for table construction and world enumeration.

use std::fmt;

use ipdb_logic::{LogicError, Var};
use ipdb_rel::RelError;

/// Errors raised by representation-system constructors, the c-table
/// algebra, and world enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// An underlying relational error (arity mismatch, bad column).
    Rel(RelError),
    /// An underlying logic error (unbound variable, missing domain).
    Logic(LogicError),
    /// A row's tuple has the wrong number of entries.
    RowArity {
        /// Arity declared by the table.
        expected: usize,
        /// Arity of the offending row.
        got: usize,
    },
    /// World enumeration over `Mod(T)` needs a finite domain for every
    /// variable, but `var` has none (the table is not a Def. 6
    /// finite-domain table — use `mod_over` with a domain slice instead).
    MissingDomain(Var),
    /// A finite-domain variable was declared with an empty domain, which
    /// would make the table unsatisfiable by construction.
    EmptyDomain(Var),
    /// Two tables being combined declare different finite domains for the
    /// same variable.
    DomainConflict(Var),
    /// A Codd-table constructor saw the same variable twice.
    CoddDuplicateVar(Var),
    /// A boolean c-table constructor saw a variable inside a tuple, or a
    /// non-boolean condition atom.
    NotBoolean(String),
    /// An or-set value must offer at least one choice.
    EmptyOrSet,
    /// An `R_sets` block must contain at least one tuple.
    EmptyBlock,
    /// An `R_⊕≡` or `R_A^prop` constraint referenced a tuple index out of
    /// range.
    BadTupleIndex(usize),
    /// The table denotes the *empty* set of worlds (e.g. an `R_⊕≡` with
    /// unsatisfiable constraints), which no c-table can represent:
    /// `Mod(T)` of a c-table always contains at least one instance.
    Unrepresentable(String),
    /// World enumeration walks one `u64` bitmask per subset of the rows
    /// whose presence varies (`?` rows, `R_⊕≡` tuples, `R_A^prop`
    /// rows), so it takes at most 63 of them; the table has this many.
    TooManyOptionalRows(usize),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::Rel(e) => write!(f, "{e}"),
            TableError::Logic(e) => write!(f, "{e}"),
            TableError::RowArity { expected, got } => {
                write!(f, "row arity {got} does not match table arity {expected}")
            }
            TableError::MissingDomain(v) => write!(
                f,
                "variable {v} has no finite domain; Mod(T) is infinite (use mod_over)"
            ),
            TableError::EmptyDomain(v) => write!(f, "variable {v} has an empty domain"),
            TableError::DomainConflict(v) => {
                write!(f, "conflicting finite domains declared for variable {v}")
            }
            TableError::CoddDuplicateVar(v) => {
                write!(f, "Codd tables require distinct variables; {v} repeats")
            }
            TableError::NotBoolean(s) => write!(f, "not a boolean c-table: {s}"),
            TableError::EmptyOrSet => write!(f, "or-set values must be non-empty"),
            TableError::EmptyBlock => write!(f, "R_sets blocks must be non-empty"),
            TableError::BadTupleIndex(i) => {
                write!(f, "constraint references tuple {i} out of range")
            }
            TableError::Unrepresentable(s) => {
                write!(f, "no c-table represents this table: {s}")
            }
            TableError::TooManyOptionalRows(n) => write!(
                f,
                "world enumeration takes at most 63 rows of varying presence; the table has {n}"
            ),
        }
    }
}

impl std::error::Error for TableError {}

impl From<RelError> for TableError {
    fn from(e: RelError) -> Self {
        TableError::Rel(e)
    }
}

impl From<LogicError> for TableError {
    fn from(e: LogicError) -> Self {
        TableError::Logic(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_froms() {
        let e: TableError = RelError::RaggedLiteral.into();
        assert!(matches!(e, TableError::Rel(_)));
        let e: TableError = LogicError::UnboundVar(Var(1)).into();
        assert!(e.to_string().contains("x1"));
        assert!(TableError::MissingDomain(Var(0))
            .to_string()
            .contains("mod_over"));
        assert!(TableError::RowArity {
            expected: 2,
            got: 3
        }
        .to_string()
        .contains('3'));
    }
}
