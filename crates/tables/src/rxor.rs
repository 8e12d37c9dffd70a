//! `R_⊕≡` (paper Definition 15).
//!
//! A table is a multiset of tuples `{t₁, …, t_m}` plus a conjunction of
//! assertions `i ⊕ j` ("exactly one of tᵢ, tⱼ present") and `i ≡ j`
//! ("tᵢ present iff tⱼ present"). `Mod(T)` consists of all subsets of the
//! tuples satisfying every assertion.

use std::fmt;

use ipdb_logic::{Condition, Term, VarGen};
use ipdb_rel::{IDatabase, Instance, Tuple};

use crate::ctable::{CRow, CTable};
use crate::error::TableError;
use crate::repsys::{presence_masks, RepresentationSystem};

/// One `R_⊕≡` assertion over 0-based tuple indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RConstraint {
    /// `i ⊕ j`: exactly one of the two tuples is present.
    Xor(usize, usize),
    /// `i ≡ j`: the two tuples are present or absent together.
    Equiv(usize, usize),
}

impl RConstraint {
    fn indexes(&self) -> (usize, usize) {
        match *self {
            RConstraint::Xor(i, j) | RConstraint::Equiv(i, j) => (i, j),
        }
    }

    fn satisfied(&self, present: &[bool]) -> bool {
        match *self {
            RConstraint::Xor(i, j) => present[i] ^ present[j],
            RConstraint::Equiv(i, j) => present[i] == present[j],
        }
    }
}

impl fmt::Display for RConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RConstraint::Xor(i, j) => write!(f, "{i}⊕{j}"),
            RConstraint::Equiv(i, j) => write!(f, "{i}≡{j}"),
        }
    }
}

/// An `R_⊕≡` table.
///
/// ```
/// use ipdb_rel::tuple;
/// use ipdb_tables::{RConstraint, RXorEquiv, RepresentationSystem};
/// let t = RXorEquiv::new(
///     1,
///     vec![tuple![1], tuple![2]],
///     vec![RConstraint::Xor(0, 1)],
/// ).unwrap();
/// // Exactly one of (1), (2): two worlds.
/// assert_eq!(t.worlds().unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RXorEquiv {
    arity: usize,
    tuples: Vec<Tuple>,
    constraints: Vec<RConstraint>,
}

impl RXorEquiv {
    /// Builds a table, checking arities and constraint indexes.
    pub fn new(
        arity: usize,
        tuples: Vec<Tuple>,
        constraints: Vec<RConstraint>,
    ) -> Result<Self, TableError> {
        for t in &tuples {
            if t.arity() != arity {
                return Err(TableError::RowArity {
                    expected: arity,
                    got: t.arity(),
                });
            }
        }
        for c in &constraints {
            let (i, j) = c.indexes();
            if i >= tuples.len() || j >= tuples.len() {
                return Err(TableError::BadTupleIndex(i.max(j)));
            }
        }
        Ok(RXorEquiv {
            arity,
            tuples,
            constraints,
        })
    }

    /// The tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The assertions.
    pub fn constraints(&self) -> &[RConstraint] {
        &self.constraints
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

impl RepresentationSystem for RXorEquiv {
    fn arity(&self) -> usize {
        self.arity
    }

    fn worlds(&self) -> Result<IDatabase, TableError> {
        let m = self.tuples.len();
        let mut out = IDatabase::empty(self.arity);
        let mut present = vec![false; m];
        for mask in presence_masks(m)? {
            for (i, p) in present.iter_mut().enumerate() {
                *p = (mask >> i) & 1 == 1;
            }
            if self.constraints.iter().all(|c| c.satisfied(&present)) {
                let mut inst = Instance::empty(self.arity);
                for (i, t) in self.tuples.iter().enumerate() {
                    if present[i] {
                        inst.insert(t.clone())?;
                    }
                }
                out.insert(inst)?;
            }
        }
        Ok(out)
    }

    /// Embedding via a single *selector* variable ranging over the
    /// satisfying presence-subsets: tuple `tᵢ` is guarded by
    /// `⋁ { w = j | subset j contains tᵢ }`.
    ///
    /// (Distributing the constraints over per-tuple boolean variables
    /// would admit violating assignments as extra — typically empty —
    /// worlds; c-tables have no global conditions, so the selector
    /// construction is the faithful encoding. The global-condition
    /// variant of c-tables \[17\] would keep the constraints factored.)
    ///
    /// Errors with [`TableError::Unrepresentable`] when the constraints
    /// are unsatisfiable (`Mod(T) = ∅` has no c-table).
    fn to_ctable(&self, gen: &mut VarGen) -> Result<CTable, TableError> {
        let m = self.tuples.len();
        let mut satisfying: Vec<u64> = Vec::new();
        let mut present = vec![false; m];
        for mask in presence_masks(m)? {
            for (i, p) in present.iter_mut().enumerate() {
                *p = (mask >> i) & 1 == 1;
            }
            if self.constraints.iter().all(|c| c.satisfied(&present)) {
                satisfying.push(mask);
            }
        }
        if satisfying.is_empty() {
            return Err(TableError::Unrepresentable(
                "unsatisfiable ⊕/≡ constraints (empty set of worlds)".into(),
            ));
        }
        let w = gen.fresh();
        let mut domains = std::collections::BTreeMap::new();
        domains.insert(w, ipdb_rel::Domain::ints(0..satisfying.len() as i64));
        let rows = self
            .tuples
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let guard = Condition::or(
                    satisfying
                        .iter()
                        .enumerate()
                        .filter(|(_, mask)| (*mask >> i) & 1 == 1)
                        .map(|(j, _)| Condition::eq_vc(w, j as i64)),
                );
                CRow::new(t.iter().map(|v| Term::Const(v.clone())), guard)
            })
            .collect();
        CTable::with_domains(self.arity, rows, domains)
    }
}

impl fmt::Display for RXorEquiv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "R_⊕≡ (arity {}):", self.arity)?;
        for (i, t) in self.tuples.iter().enumerate() {
            writeln!(f, "  t{i} = {t}")?;
        }
        if !self.constraints.is_empty() {
            write!(f, "  s.t. ")?;
            for (i, c) in self.constraints.iter().enumerate() {
                if i > 0 {
                    write!(f, " ∧ ")?;
                }
                write!(f, "{c}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipdb_rel::{instance, tuple};

    #[test]
    fn validation() {
        assert!(RXorEquiv::new(1, vec![tuple![1, 2]], vec![]).is_err());
        assert_eq!(
            RXorEquiv::new(1, vec![tuple![1]], vec![RConstraint::Xor(0, 5)]).unwrap_err(),
            TableError::BadTupleIndex(5)
        );
    }

    #[test]
    fn unconstrained_is_all_subsets() {
        let t = RXorEquiv::new(1, vec![tuple![1], tuple![2]], vec![]).unwrap();
        assert_eq!(t.worlds().unwrap().len(), 4);
    }

    #[test]
    fn xor_semantics() {
        let t =
            RXorEquiv::new(1, vec![tuple![1], tuple![2]], vec![RConstraint::Xor(0, 1)]).unwrap();
        let w = t.worlds().unwrap();
        assert_eq!(w.len(), 2);
        assert!(w.contains(&instance![[1]]));
        assert!(w.contains(&instance![[2]]));
    }

    #[test]
    fn equiv_semantics() {
        let t = RXorEquiv::new(
            1,
            vec![tuple![1], tuple![2]],
            vec![RConstraint::Equiv(0, 1)],
        )
        .unwrap();
        let w = t.worlds().unwrap();
        assert_eq!(w.len(), 2);
        assert!(w.contains(&Instance::empty(1)));
        assert!(w.contains(&instance![[1], [2]]));
    }

    #[test]
    fn chained_constraints() {
        // t0 ⊕ t1, t1 ≡ t2: worlds {t0} and {t1, t2}.
        let t = RXorEquiv::new(
            1,
            vec![tuple![1], tuple![2], tuple![3]],
            vec![RConstraint::Xor(0, 1), RConstraint::Equiv(1, 2)],
        )
        .unwrap();
        let w = t.worlds().unwrap();
        assert_eq!(w.len(), 2);
        assert!(w.contains(&instance![[1]]));
        assert!(w.contains(&instance![[2], [3]]));
    }

    #[test]
    fn to_ctable_preserves_mod() {
        let t = RXorEquiv::new(
            1,
            vec![tuple![1], tuple![2], tuple![3]],
            vec![RConstraint::Xor(0, 1), RConstraint::Equiv(1, 2)],
        )
        .unwrap();
        let mut g = VarGen::new();
        let c = t.to_ctable(&mut g).unwrap();
        assert_eq!(c.mod_finite().unwrap(), t.worlds().unwrap());
    }

    #[test]
    fn unsatisfiable_constraints_yield_no_worlds() {
        // t0 ⊕ t0 is unsatisfiable.
        let t = RXorEquiv::new(1, vec![tuple![1]], vec![RConstraint::Xor(0, 0)]).unwrap();
        assert_eq!(t.worlds().unwrap().len(), 0);
    }

    #[test]
    fn display() {
        let t =
            RXorEquiv::new(1, vec![tuple![1], tuple![2]], vec![RConstraint::Xor(0, 1)]).unwrap();
        let s = t.to_string();
        assert!(s.contains("0⊕1"));
    }
}
