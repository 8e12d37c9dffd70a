//! `?`-tables (paper §2, Example before `R_sets`; \[29\]'s `R_?`).
//!
//! A `?`-table is a conventional instance in which tuples are optionally
//! labeled "?", meaning the tuple may be missing. `Mod(T)` contains every
//! instance consisting of all unlabeled tuples plus an arbitrary subset
//! of the labeled ones — `2^(#optional)` worlds.
//!
//! §3 notes that `?`-tables are exactly the boolean c-tables whose
//! conditions are `true` or a single positive variable used nowhere else;
//! [`QTable::to_ctable`] is that embedding.

use std::fmt;

use ipdb_logic::{Condition, Term, VarGen};
use ipdb_rel::{IDatabase, Instance, Tuple};

use crate::ctable::{CRow, CTable};
use crate::error::TableError;
use crate::repsys::{presence_masks, RepresentationSystem};

/// A `?`-table: required tuples plus optional ("?") tuples.
///
/// ```
/// use ipdb_rel::tuple;
/// use ipdb_tables::{QTable, RepresentationSystem};
/// let mut t = QTable::new(2);
/// t.push(tuple![1, 2], false).unwrap(); // required
/// t.push(tuple![3, 4], true).unwrap();  // optional
/// assert_eq!(t.worlds().unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QTable {
    arity: usize,
    rows: Vec<(Tuple, bool)>, // (tuple, optional?)
}

impl QTable {
    /// An empty `?`-table of the given arity.
    pub fn new(arity: usize) -> Self {
        QTable {
            arity,
            rows: Vec::new(),
        }
    }

    /// Builds from `(tuple, optional)` pairs.
    pub fn from_rows(
        arity: usize,
        rows: impl IntoIterator<Item = (Tuple, bool)>,
    ) -> Result<Self, TableError> {
        let mut t = QTable::new(arity);
        for (tup, opt) in rows {
            t.push(tup, opt)?;
        }
        Ok(t)
    }

    /// Appends a tuple; `optional` marks it with "?".
    pub fn push(&mut self, t: Tuple, optional: bool) -> Result<(), TableError> {
        if t.arity() != self.arity {
            return Err(TableError::RowArity {
                expected: self.arity,
                got: t.arity(),
            });
        }
        self.rows.push((t, optional));
        Ok(())
    }

    /// The rows as `(tuple, optional)` pairs.
    pub fn rows(&self) -> &[(Tuple, bool)] {
        &self.rows
    }

    /// Number of rows (required + optional).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of optional rows (`Mod` has `2^this` worlds, up to
    /// coincidences).
    pub fn optional_count(&self) -> usize {
        self.rows.iter().filter(|(_, o)| *o).count()
    }
}

impl RepresentationSystem for QTable {
    fn arity(&self) -> usize {
        self.arity
    }

    fn worlds(&self) -> Result<IDatabase, TableError> {
        let required: Vec<&Tuple> = self
            .rows
            .iter()
            .filter(|(_, o)| !o)
            .map(|(t, _)| t)
            .collect();
        let optional: Vec<&Tuple> = self
            .rows
            .iter()
            .filter(|(_, o)| *o)
            .map(|(t, _)| t)
            .collect();
        let mut out = IDatabase::empty(self.arity);
        for mask in presence_masks(optional.len())? {
            let mut inst = Instance::empty(self.arity);
            for t in &required {
                inst.insert((*t).clone())?;
            }
            for (i, t) in optional.iter().enumerate() {
                if (mask >> i) & 1 == 1 {
                    inst.insert((*t).clone())?;
                }
            }
            out.insert(inst)?;
        }
        Ok(out)
    }

    fn to_ctable(&self, gen: &mut VarGen) -> Result<CTable, TableError> {
        let mut rows = Vec::with_capacity(self.rows.len());
        let mut domains = std::collections::BTreeMap::new();
        for (t, optional) in &self.rows {
            let cond = if *optional {
                let v = gen.fresh();
                domains.insert(v, ipdb_rel::Domain::bools());
                Condition::bvar(v)
            } else {
                Condition::True
            };
            rows.push(CRow::new(t.iter().map(|v| Term::Const(v.clone())), cond));
        }
        CTable::with_domains(self.arity, rows, domains)
    }
}

impl fmt::Display for QTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "?-table (arity {}):", self.arity)?;
        for (t, o) in &self.rows {
            writeln!(f, "  {t}{}", if *o { " ?" } else { "" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipdb_rel::{instance, tuple};

    #[test]
    fn arity_checked() {
        let mut t = QTable::new(2);
        assert!(t.push(tuple![1], false).is_err());
    }

    #[test]
    fn worlds_enumerate_optional_subsets() {
        let t = QTable::from_rows(
            1,
            [(tuple![1], false), (tuple![2], true), (tuple![3], true)],
        )
        .unwrap();
        let w = t.worlds().unwrap();
        assert_eq!(w.len(), 4);
        assert!(w.contains(&instance![[1]]));
        assert!(w.contains(&instance![[1], [2]]));
        assert!(w.contains(&instance![[1], [3]]));
        assert!(w.contains(&instance![[1], [2], [3]]));
        assert_eq!(t.optional_count(), 2);
    }

    #[test]
    fn no_optionals_means_single_world() {
        let t = QTable::from_rows(1, [(tuple![1], false)]).unwrap();
        assert_eq!(t.worlds().unwrap().len(), 1);
    }

    #[test]
    fn empty_table_has_empty_world() {
        let t = QTable::new(3);
        let w = t.worlds().unwrap();
        assert_eq!(w.len(), 1);
        assert!(w.contains(&Instance::empty(3)));
    }

    #[test]
    fn duplicate_optional_tuples_collapse_worlds() {
        // Both optional rows are the same tuple: only 2 distinct worlds.
        let t = QTable::from_rows(1, [(tuple![2], true), (tuple![2], true)]).unwrap();
        assert_eq!(t.worlds().unwrap().len(), 2);
    }

    #[test]
    fn ctable_embedding_preserves_mod() {
        let t = QTable::from_rows(
            2,
            [
                (tuple![1, 2], false),
                (tuple![3, 4], true),
                (tuple![5, 6], true),
            ],
        )
        .unwrap();
        let mut g = VarGen::new();
        let c = t.to_ctable(&mut g).unwrap();
        assert!(c.is_finite_domain());
        assert_eq!(c.mod_finite().unwrap(), t.worlds().unwrap());
    }

    #[test]
    fn display_marks_optionals() {
        let t = QTable::from_rows(1, [(tuple![1], true)]).unwrap();
        assert!(t.to_string().contains("(1) ?"));
    }
}
