//! `R_A^prop` (paper Definition 16) — the finitely complete system of
//! Sarma et al.
//!
//! A table is a multiset of *or-set tuples* `{t₁, …, t_m}` plus a boolean
//! formula over presence variables `t₁ … t_m`. `Mod(T)` consists of the
//! instances obtained by (a) choosing a subset of tuples satisfying the
//! formula (variable `tᵢ` true iff tuple `tᵢ` present) and (b) resolving
//! each present tuple's or-sets in every possible way.
//!
//! The presence formula is represented as a boolean
//! [`Condition`] over `Var(0) … Var(m−1)` (presence of `tᵢ` =
//! `Condition::bvar(Var(i))`).

use std::collections::BTreeMap;
use std::fmt;

use ipdb_logic::{Condition, Term, Valuation, Var, VarGen};
use ipdb_rel::{Domain, IDatabase, Instance, Tuple, Value};

use crate::ctable::{CRow, CTable};
use crate::error::TableError;
use crate::orset::OrSetValue;
use crate::repsys::{presence_masks, RepresentationSystem};

/// An `R_A^prop` table: or-set tuples constrained by a propositional
/// formula over their presence.
///
/// ```
/// use ipdb_logic::{Condition, Var};
/// use ipdb_tables::{OrSetValue, RAProp, RepresentationSystem};
/// // Two plain tuples, exactly one present: t0 XOR t1.
/// let xor = Condition::or([
///     Condition::and([Condition::bvar(Var(0)), Condition::nbvar(Var(1))]),
///     Condition::and([Condition::nbvar(Var(0)), Condition::bvar(Var(1))]),
/// ]);
/// let t = RAProp::new(1, vec![
///     vec![OrSetValue::single(1)],
///     vec![OrSetValue::single(2)],
/// ], xor).unwrap();
/// assert_eq!(t.worlds().unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RAProp {
    arity: usize,
    rows: Vec<Vec<OrSetValue>>,
    formula: Condition,
}

impl RAProp {
    /// Builds a table; the formula must be boolean and mention only
    /// presence variables `Var(0) … Var(m−1)`.
    pub fn new(
        arity: usize,
        rows: Vec<Vec<OrSetValue>>,
        formula: Condition,
    ) -> Result<Self, TableError> {
        for r in &rows {
            if r.len() != arity {
                return Err(TableError::RowArity {
                    expected: arity,
                    got: r.len(),
                });
            }
        }
        if !formula.is_boolean() {
            return Err(TableError::NotBoolean(format!(
                "presence formula must be boolean: {formula}"
            )));
        }
        if let Some(v) = formula
            .vars()
            .into_iter()
            .find(|v| v.id() as usize >= rows.len())
        {
            return Err(TableError::BadTupleIndex(v.id() as usize));
        }
        Ok(RAProp {
            arity,
            rows,
            formula,
        })
    }

    /// The or-set rows.
    pub fn rows(&self) -> &[Vec<OrSetValue>] {
        &self.rows
    }

    /// The presence formula.
    pub fn formula(&self) -> &Condition {
        &self.formula
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl RepresentationSystem for RAProp {
    fn arity(&self) -> usize {
        self.arity
    }

    fn worlds(&self) -> Result<IDatabase, TableError> {
        let m = self.rows.len();
        let mut out = IDatabase::empty(self.arity);
        for mask in presence_masks(m)? {
            let nu: Valuation = (0..m)
                .map(|i| (Var(i as u32), Value::from((mask >> i) & 1 == 1)))
                .collect();
            if !self.formula.eval(&nu).map_err(TableError::Logic)? {
                continue;
            }
            // Resolve or-sets of the present rows in all ways.
            let present: Vec<&Vec<OrSetValue>> = (0..m)
                .filter(|i| (mask >> i) & 1 == 1)
                .map(|i| &self.rows[i])
                .collect();
            resolve_all(&present, self.arity, &mut out)?;
        }
        Ok(out)
    }

    /// Embedding via a single *selector* variable over the satisfying
    /// presence-subsets (see `RXorEquiv::to_ctable` for why the formula
    /// cannot simply be distributed over per-tuple boolean variables),
    /// plus a fresh finite-domain variable per multi-valued or-set cell.
    ///
    /// Errors with [`TableError::Unrepresentable`] when the presence
    /// formula is unsatisfiable (`Mod(T) = ∅` has no c-table).
    fn to_ctable(&self, gen: &mut VarGen) -> Result<CTable, TableError> {
        let m = self.rows.len();
        let mut satisfying: Vec<u64> = Vec::new();
        for mask in presence_masks(m)? {
            let nu: Valuation = (0..m)
                .map(|i| (Var(i as u32), Value::from((mask >> i) & 1 == 1)))
                .collect();
            if self.formula.eval(&nu).map_err(TableError::Logic)? {
                satisfying.push(mask);
            }
        }
        if satisfying.is_empty() {
            return Err(TableError::Unrepresentable(
                "unsatisfiable presence formula (empty set of worlds)".into(),
            ));
        }
        let w = gen.fresh();
        let mut domains: BTreeMap<Var, Domain> = BTreeMap::new();
        domains.insert(w, Domain::ints(0..satisfying.len() as i64));
        let mut rows = Vec::with_capacity(self.rows.len());
        for (i, row) in self.rows.iter().enumerate() {
            let mut terms = Vec::with_capacity(self.arity);
            for cell in row {
                if cell.is_single() {
                    terms.push(Term::Const(cell.choices()[0].clone()));
                } else {
                    let v = gen.fresh();
                    domains.insert(v, Domain::new(cell.choices().iter().cloned()));
                    terms.push(Term::Var(v));
                }
            }
            let guard = Condition::or(
                satisfying
                    .iter()
                    .enumerate()
                    .filter(|(_, mask)| (*mask >> i) & 1 == 1)
                    .map(|(j, _)| Condition::eq_vc(w, j as i64)),
            );
            rows.push(CRow::new(terms, guard));
        }
        CTable::with_domains(self.arity, rows, domains)
    }
}

fn resolve_all(
    present: &[&Vec<OrSetValue>],
    arity: usize,
    out: &mut IDatabase,
) -> Result<(), TableError> {
    let cells: Vec<&OrSetValue> = present.iter().flat_map(|r| r.iter()).collect();
    let mut idx = vec![0usize; cells.len()];
    loop {
        let mut inst = Instance::empty(arity);
        let mut base = 0;
        for row in present {
            let tuple: Tuple = row
                .iter()
                .enumerate()
                .map(|(c, cell)| cell.choices()[idx[base + c]].clone())
                .collect();
            inst.insert(tuple)?;
            base += row.len();
        }
        out.insert(inst)?;
        let mut pos = cells.len();
        loop {
            if pos == 0 {
                return Ok(());
            }
            pos -= 1;
            idx[pos] += 1;
            if idx[pos] < cells[pos].len() {
                break;
            }
            idx[pos] = 0;
        }
    }
}

impl fmt::Display for RAProp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "R_A^prop (arity {}):", self.arity)?;
        for (i, row) in self.rows.iter().enumerate() {
            write!(f, "  t{i} =")?;
            for cell in row {
                write!(f, " {cell}")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  s.t. {}", self.formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipdb_rel::instance;

    fn os(vals: &[i64]) -> OrSetValue {
        OrSetValue::new(vals.iter().copied()).unwrap()
    }

    #[test]
    fn validation() {
        // Arity mismatch.
        assert!(RAProp::new(2, vec![vec![os(&[1])]], Condition::True).is_err());
        // Non-boolean formula.
        assert!(matches!(
            RAProp::new(1, vec![vec![os(&[1])]], Condition::eq_vc(Var(0), 3)),
            Err(TableError::NotBoolean(_))
        ));
        // Presence var out of range.
        assert_eq!(
            RAProp::new(1, vec![vec![os(&[1])]], Condition::bvar(Var(5))).unwrap_err(),
            TableError::BadTupleIndex(5)
        );
    }

    #[test]
    fn true_formula_is_all_subsets() {
        let t = RAProp::new(1, vec![vec![os(&[1])], vec![os(&[2])]], Condition::True).unwrap();
        assert_eq!(t.worlds().unwrap().len(), 4);
    }

    #[test]
    fn formula_filters_subsets() {
        // t0 → t1 (implication): subsets {}, {t1}, {t0,t1}.
        let imp = Condition::or([Condition::nbvar(Var(0)), Condition::bvar(Var(1))]);
        let t = RAProp::new(1, vec![vec![os(&[1])], vec![os(&[2])]], imp).unwrap();
        let w = t.worlds().unwrap();
        assert_eq!(w.len(), 3);
        assert!(w.contains(&Instance::empty(1)));
        assert!(w.contains(&instance![[2]]));
        assert!(w.contains(&instance![[1], [2]]));
    }

    #[test]
    fn orsets_resolve_only_when_present() {
        let t = RAProp::new(
            1,
            vec![vec![os(&[1, 2])]],
            Condition::bvar(Var(0)), // always present
        )
        .unwrap();
        let w = t.worlds().unwrap();
        assert_eq!(w.len(), 2);
        assert!(w.contains(&instance![[1]]) && w.contains(&instance![[2]]));
    }

    #[test]
    fn to_ctable_preserves_mod() {
        let xor = Condition::or([
            Condition::and([Condition::bvar(Var(0)), Condition::nbvar(Var(1))]),
            Condition::and([Condition::nbvar(Var(0)), Condition::bvar(Var(1))]),
        ]);
        let t = RAProp::new(
            2,
            vec![vec![os(&[1, 2]), os(&[9])], vec![os(&[3]), os(&[4, 5])]],
            xor,
        )
        .unwrap();
        let mut g = VarGen::new();
        let c = t.to_ctable(&mut g).unwrap();
        assert_eq!(c.mod_finite().unwrap(), t.worlds().unwrap());
    }

    #[test]
    fn unsatisfiable_formula_no_worlds() {
        let t = RAProp::new(1, vec![vec![os(&[1])]], Condition::False).unwrap();
        assert_eq!(t.worlds().unwrap().len(), 0);
    }

    #[test]
    fn display_shows_formula() {
        let t = RAProp::new(1, vec![vec![os(&[1])]], Condition::bvar(Var(0))).unwrap();
        assert!(t.to_string().contains("s.t."));
    }
}
