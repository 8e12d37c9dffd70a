//! Named relational schemas: `relation name → arity`.
//!
//! The paper works over a schema with a single relation name and notes
//! (§2, footnote) that "everything we say can be easily reformulated for
//! arbitrary relational schemas". [`Schema`] is that reformulation's
//! type-level half: a finite map from relation names to arities, against
//! which a [`Query`](crate::Query) is arity-checked
//! ([`Query::arity_in`](crate::Query::arity_in)). The traditional
//! single- and two-relation contexts are the canonical schemas
//! [`Schema::single`] (just `V`) and [`Schema::pair`] (`V` and `W`);
//! the [`Query::Input`](crate::Query::Input) and
//! [`Query::Second`](crate::Query::Second) leaves are aliases for the
//! reserved names [`Schema::INPUT`] and [`Schema::SECOND`].

use std::collections::BTreeMap;
use std::fmt;

use crate::error::RelError;

/// A named relational schema: a finite `name → arity` map.
///
/// ```
/// use ipdb_rel::{Query, Schema};
/// let schema = Schema::new([("R", 2), ("S", 3)]).unwrap();
/// assert_eq!(schema.arity_of("R"), Some(2));
/// let q = Query::product(Query::rel("R"), Query::rel("S"));
/// assert_eq!(q.arity_in(&schema).unwrap(), 5);
/// ```
/// Ordered and hashable so schemas can key caches (the engine's plan
/// cache keys on `(request text, Schema)` — the schema part is
/// what keeps the same text prepared against different schemas apart).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Schema {
    rels: BTreeMap<String, usize>,
}

impl Schema {
    /// The reserved name of the paper's single input relation `V`
    /// ([`Query::Input`](crate::Query::Input) resolves to it).
    pub const INPUT: &'static str = "V";

    /// The reserved name of the second input relation `W`
    /// ([`Query::Second`](crate::Query::Second) resolves to it).
    pub const SECOND: &'static str = "W";

    /// Builds a schema from `(name, arity)` pairs; duplicate names are
    /// rejected ([`RelError::DuplicateRelation`]) rather than silently
    /// last-wins, so a mistyped arity cannot hide behind a repeat.
    pub fn new<N: Into<String>>(
        rels: impl IntoIterator<Item = (N, usize)>,
    ) -> Result<Schema, RelError> {
        let mut map = BTreeMap::new();
        for (name, arity) in rels {
            let name = name.into();
            if map.insert(name.clone(), arity).is_some() {
                return Err(RelError::DuplicateRelation { name });
            }
        }
        Ok(Schema { rels: map })
    }

    /// The paper's single-relation schema: just `V`.
    pub fn single(input_arity: usize) -> Schema {
        Schema {
            rels: BTreeMap::from([(Self::INPUT.to_string(), input_arity)]),
        }
    }

    /// The two-relation schema of the Thm 6 constructions: `V` and `W`.
    pub fn pair(input_arity: usize, second_arity: usize) -> Schema {
        Schema {
            rels: BTreeMap::from([
                (Self::INPUT.to_string(), input_arity),
                (Self::SECOND.to_string(), second_arity),
            ]),
        }
    }

    /// The arity of a relation, if declared.
    pub fn arity_of(&self, name: &str) -> Option<usize> {
        self.rels.get(name).copied()
    }

    /// The arity of a relation, or the error a query referencing it
    /// should report: a missing `W` is the classic
    /// [`RelError::NoSecondInput`], any other missing name is
    /// [`RelError::UnknownRelation`].
    pub fn resolve(&self, name: &str) -> Result<usize, RelError> {
        self.rels
            .get(name)
            .copied()
            .ok_or_else(|| RelError::missing_relation(name))
    }

    /// Whether the schema declares a relation of this name.
    pub fn contains(&self, name: &str) -> bool {
        self.rels.contains_key(name)
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// Whether the schema declares no relations.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Iterates over `(name, arity)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> {
        self.rels.iter().map(|(n, &a)| (n.as_str(), a))
    }

    /// The declared relation names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.rels.keys().map(String::as_str)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, a)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}:{a}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let s = Schema::new([("R", 2), ("S", 1)]).unwrap();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(s.contains("R") && !s.contains("T"));
        assert_eq!(s.arity_of("S"), Some(1));
        assert_eq!(s.arity_of("T"), None);
        assert_eq!(s.resolve("R"), Ok(2));
        assert_eq!(
            s.resolve("T"),
            Err(RelError::UnknownRelation { name: "T".into() })
        );
        assert_eq!(s.names().collect::<Vec<_>>(), vec!["R", "S"]);
    }

    #[test]
    fn duplicates_rejected() {
        assert_eq!(
            Schema::new([("R", 2), ("R", 3)]),
            Err(RelError::DuplicateRelation { name: "R".into() })
        );
    }

    #[test]
    fn canonical_schemas() {
        let single = Schema::single(3);
        assert_eq!(single.arity_of(Schema::INPUT), Some(3));
        assert_eq!(single.resolve(Schema::SECOND), Err(RelError::NoSecondInput));
        let pair = Schema::pair(2, 4);
        assert_eq!(pair.resolve(Schema::SECOND), Ok(4));
    }

    #[test]
    fn display_lists_names_and_arities() {
        let s = Schema::new([("R", 2), ("S", 1)]).unwrap();
        assert_eq!(s.to_string(), "{R:2, S:1}");
        assert_eq!(Schema::new::<&str>([]).unwrap().to_string(), "{}");
    }
}
