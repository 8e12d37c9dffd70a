//! Errors for the query pipeline.

use std::fmt;

use ipdb_prob::ProbError;
use ipdb_rel::RelError;
use ipdb_tables::TableError;

/// Errors raised by parsing, checking, optimization, or execution.
// No `Eq`: `ProbError` wraps weights that are only `PartialEq`.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The surface-syntax parser rejected the input at byte offset `at`.
    Parse {
        /// Byte offset of the offending token in the source text.
        at: usize,
        /// What went wrong.
        msg: String,
    },
    /// A join key column does not address both sides of the join: each
    /// `on` pair must name one column of the left operand (`< left`) and
    /// one of the right (`left ≤ col < left + right`), in either order.
    /// `col` is the offending column of the combined tuple.
    JoinArity {
        /// The key column that is out of range or on the wrong side.
        col: usize,
        /// Arity of the join's left operand.
        left: usize,
        /// Arity of the join's right operand.
        right: usize,
    },
    /// A `Join` node with an empty `on` list. A join without key pairs
    /// is just a filtered product — write `sigma(... x ...)` so the query
    /// says what it executes.
    EmptyJoinOn,
    /// A `Query::Rel` leaf whose name is not a valid surface-syntax
    /// relation name (identifier, not reserved). Rejected by the schema
    /// check so every prepared statement renders to re-parseable text.
    BadRelationName {
        /// The offending name.
        name: String,
    },
    /// A catalog execution was missing a relation the prepared schema
    /// declares.
    MissingRelation {
        /// The declared relation name absent from the catalog.
        name: String,
    },
    /// A catalog relation's arity differs from the prepared schema's
    /// declaration.
    RelationArity {
        /// The relation name.
        name: String,
        /// Arity the schema declares.
        expected: usize,
        /// Arity the catalog supplied.
        got: usize,
    },
    /// An underlying relational error (arity mismatch, bad column, use of
    /// `W` outside a two-relation context).
    Rel(RelError),
    /// An underlying c-table algebra error.
    Table(TableError),
    /// An underlying probabilistic-layer error.
    Prob(ProbError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse { at, msg } => write!(f, "parse error at byte {at}: {msg}"),
            EngineError::JoinArity { col, left, right } => write!(
                f,
                "join key column {col} does not span a join of arities {left}x{right} \
                 (need one column < {left} and one in {left}..{})",
                left + right
            ),
            EngineError::EmptyJoinOn => write!(
                f,
                "join has no key pairs; use a selection over a product instead"
            ),
            EngineError::BadRelationName { name } => write!(
                f,
                "'{name}' is not a valid relation name (use an identifier that is \
                 not a reserved word)"
            ),
            EngineError::MissingRelation { name } => {
                write!(f, "catalog has no relation '{name}' declared by the schema")
            }
            EngineError::RelationArity {
                name,
                expected,
                got,
            } => write!(
                f,
                "relation '{name}' prepared at arity {expected}, catalog supplied arity {got}"
            ),
            EngineError::Rel(e) => write!(f, "{e}"),
            EngineError::Table(e) => write!(f, "{e}"),
            EngineError::Prob(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RelError> for EngineError {
    fn from(e: RelError) -> Self {
        EngineError::Rel(e)
    }
}

/// A relational error inside the c-table algebra (a missing relation, a
/// bad column) surfaces as [`EngineError::Rel`], as it does on the
/// instance backend, so every backend reports it the same way.
impl From<TableError> for EngineError {
    fn from(e: TableError) -> Self {
        match e {
            TableError::Rel(e) => EngineError::Rel(e),
            e => EngineError::Table(e),
        }
    }
}

impl From<ProbError> for EngineError {
    fn from(e: ProbError) -> Self {
        EngineError::Prob(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = EngineError::Parse {
            at: 3,
            msg: "expected ')'".into(),
        };
        assert!(e.to_string().contains("byte 3"));
        let r: EngineError = RelError::NoSecondInput.into();
        assert!(r.to_string().contains("second input"));
        let j = EngineError::JoinArity {
            col: 4,
            left: 2,
            right: 2,
        };
        assert!(j.to_string().contains("column 4"));
        assert!(j.to_string().contains("2x2"));
        assert!(EngineError::EmptyJoinOn
            .to_string()
            .contains("no key pairs"));
        assert!(EngineError::BadRelationName { name: "pi".into() }
            .to_string()
            .contains("'pi'"));
        assert!(EngineError::MissingRelation { name: "R".into() }
            .to_string()
            .contains("'R'"));
        let a = EngineError::RelationArity {
            name: "S".into(),
            expected: 2,
            got: 3,
        };
        assert!(a.to_string().contains("'S'") && a.to_string().contains("arity 2"));
    }
}
