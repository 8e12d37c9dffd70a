//! The c-table algebra `q̄` (Imieliński–Lipski; paper Theorem 4).
//!
//! For each relational operation `u` there is an operation `ū` on
//! c-tables such that (Lemma 1) `ν(q̄(T)) = q(ν(T))` for every valuation
//! `ν`, hence `Mod(q̄(T)) = q(Mod(T))`: c-tables are **closed** under the
//! full relational algebra. The definitions implemented here are the ones
//! the paper spells out in the proof of Theorem 4:
//!
//! * projection merges coinciding projected rows by disjoining their
//!   conditions;
//! * selection conjoins `c(t)` — the selection predicate instantiated on
//!   the row's *terms* — onto the row condition;
//! * cross product / union combine rows pairwise / by concatenation;
//! * difference ("handled similarly") conjoins, for every row `s` of the
//!   subtrahend, `¬ψ_s ∨ t ≠ s`, where `t ≠ s` is the disjunction of
//!   component-wise inequalities; intersection is the dual.
//!
//! Lemma 1 is enforced by property tests (`strategies` module and the
//! crate's integration tests).

use std::collections::BTreeMap;

use ipdb_logic::Condition;
use ipdb_logic::Term;
use ipdb_rel::{CmpOp, ColumnarInstance, Instance, JoinIndex, Operand, Pred, Query, RelError};

use crate::ctable::{CRow, CTable};
use crate::error::TableError;

/// Instantiates a selection predicate on a row of terms, producing the
/// condition `c(t)` of the paper's `σ̄`: column references become the
/// row's terms, comparisons become condition atoms.
///
/// For ground rows this folds to `true`/`false`; for rows with variables
/// it is "in general a boolean formula on constants and variables"
/// (paper, proof of Thm 4).
pub fn pred_on_terms(pred: &Pred, tuple: &[Term]) -> Result<Condition, TableError> {
    let operand = |o: &Operand| -> Result<Term, TableError> {
        match o {
            Operand::Col(c) => {
                tuple
                    .get(*c)
                    .cloned()
                    .ok_or(TableError::Rel(RelError::ColumnOutOfRange {
                        col: *c,
                        arity: tuple.len(),
                    }))
            }
            Operand::Const(v) => Ok(Term::Const(v.clone())),
        }
    };
    Ok(match pred {
        Pred::True => Condition::True,
        Pred::False => Condition::False,
        Pred::Cmp(op, l, r) => {
            let (l, r) = (operand(l)?, operand(r)?);
            match op {
                CmpOp::Eq => Condition::eq(l, r),
                CmpOp::Neq => Condition::neq(l, r),
            }
        }
        Pred::And(ps) => Condition::and(
            ps.iter()
                .map(|p| pred_on_terms(p, tuple))
                .collect::<Result<Vec<_>, _>>()?,
        ),
        Pred::Or(ps) => Condition::or(
            ps.iter()
                .map(|p| pred_on_terms(p, tuple))
                .collect::<Result<Vec<_>, _>>()?,
        ),
        Pred::Not(p) => pred_on_terms(p, tuple)?.negate(),
    })
}

/// The condition `t = s` between two term tuples: component-wise
/// conjunction of equalities (used by `∩̄`).
pub fn tuples_eq(t: &[Term], s: &[Term]) -> Condition {
    Condition::and(
        t.iter()
            .zip(s.iter())
            .map(|(a, b)| Condition::eq(a.clone(), b.clone())),
    )
}

/// The condition `t ≠ s`: component-wise disjunction of inequalities
/// (used by `−̄`).
pub fn tuples_neq(t: &[Term], s: &[Term]) -> Condition {
    Condition::or(
        t.iter()
            .zip(s.iter())
            .map(|(a, b)| Condition::neq(a.clone(), b.clone())),
    )
}

/// Splits `t`'s rows on whether their `cols` entries are all constants.
/// Returns the ground rows' `cols` values as a batch (column `k` holds
/// entry `cols[k]`, one row per ground row in row order), the indexes of
/// those rows, and the indexes of the rest. With no `cols`, every row is
/// ground.
fn ground_keys(t: &CTable, cols: &[usize]) -> (ColumnarInstance, Vec<usize>, Vec<usize>) {
    let mut columns = vec![Vec::new(); cols.len()];
    let (mut ground, mut var) = (Vec::new(), Vec::new());
    for (r, row) in t.rows().iter().enumerate() {
        if cols.iter().all(|&c| row.tuple[c].is_ground()) {
            for (col, &c) in columns.iter_mut().zip(cols) {
                col.extend(row.tuple[c].as_const().cloned());
            }
            ground.push(r);
        } else {
            var.push(r);
        }
    }
    let batch = ColumnarInstance::from_columns(columns, ground.len())
        .expect("each key column holds one value per ground row");
    (batch, ground, var)
}

impl CTable {
    /// `π̄_cols(T)`: projected rows, with coinciding projections merged
    /// under the disjunction of their conditions.
    pub fn project_bar(&self, cols: &[usize]) -> Result<CTable, TableError> {
        for &c in cols {
            if c >= self.arity() {
                return Err(TableError::Rel(RelError::ColumnOutOfRange {
                    col: c,
                    arity: self.arity(),
                }));
            }
        }
        // Group by projected term tuple, preserving first-seen order for
        // readable output.
        let mut order: Vec<Vec<Term>> = Vec::new();
        let mut groups: BTreeMap<Vec<Term>, Vec<Condition>> = BTreeMap::new();
        for row in self.rows() {
            let proj: Vec<Term> = cols.iter().map(|&c| row.tuple[c].clone()).collect();
            match groups.get_mut(&proj) {
                Some(conds) => conds.push(row.cond.clone()),
                None => {
                    order.push(proj.clone());
                    groups.insert(proj, vec![row.cond.clone()]);
                }
            }
        }
        let rows = order
            .into_iter()
            .map(|proj| {
                let conds = groups.remove(&proj).expect("grouped above");
                CRow::new(proj, Condition::or(conds))
            })
            .collect();
        CTable::with_domains(cols.len(), rows, self.domains().clone())
    }

    /// `σ̄_p(T)`: each row keeps its tuple, with `p` instantiated on the
    /// row's terms conjoined onto its condition.
    pub fn select_bar(&self, pred: &Pred) -> Result<CTable, TableError> {
        let rows = self
            .rows()
            .iter()
            .map(|row| {
                let c = pred_on_terms(pred, &row.tuple)?;
                Ok(CRow::new(
                    row.tuple.iter().cloned(),
                    Condition::and([row.cond.clone(), c]),
                ))
            })
            .collect::<Result<Vec<_>, TableError>>()?;
        CTable::with_domains(self.arity(), rows, self.domains().clone())
    }

    /// A columnar view of the given (all-ground) columns, one row per
    /// c-table row in row order; `None` if any requested column holds a
    /// variable anywhere (or is out of range).
    pub fn ground_column_view(&self, cols: &[usize]) -> Option<ipdb_rel::ColumnarInstance> {
        let arity = self.arity();
        let mut columns: Vec<Vec<ipdb_rel::Value>> = Vec::with_capacity(cols.len());
        for &c in cols {
            if c >= arity {
                return None;
            }
            let mut col = Vec::with_capacity(self.len());
            for r in self.rows() {
                match &r.tuple[c] {
                    Term::Const(v) => col.push(v.clone()),
                    Term::Var(_) => return None,
                }
            }
            columns.push(col);
        }
        ipdb_rel::ColumnarInstance::from_columns(columns, self.len()).ok()
    }

    /// `σ̄_p(T)` with a vectorized fast path: when `p` touches only
    /// ground columns, `c(t)` is a concrete boolean per row, so the
    /// predicate is evaluated as one columnar mask over the ground
    /// column view and rows failing it are dropped outright (their
    /// conjoined condition would fold to `false`), with the surviving
    /// rows' conditions left untouched. Otherwise falls back to
    /// [`CTable::select_bar`].
    ///
    /// Equivalent to `select_bar` *up to condition simplification*: the
    /// fast path skips the `cond ∧ true` wrappers the term path
    /// produces, so callers that prune intermediates (the engine's
    /// executor passes every result through
    /// [`CTable::simplified`] + [`CTable::without_false_rows`]) get
    /// byte-identical tables from either path.
    pub fn select_bar_vectorized(&self, pred: &Pred) -> Result<CTable, TableError> {
        let cols: Vec<usize> = pred.referenced_cols().into_iter().collect();
        let Some(view) = self.ground_column_view(&cols) else {
            return self.select_bar(pred);
        };
        // Compact the predicate onto the gathered columns. `cols` is
        // sorted (BTreeSet order), so this is a binary-searchable map.
        let compact = pred.map_cols(|c| {
            cols.binary_search(&c)
                .expect("referenced_cols listed every referenced column")
        });
        let mask = view.eval_mask(&compact)?;
        let rows = self
            .rows()
            .iter()
            .zip(mask)
            .filter(|(_, keep)| *keep)
            .map(|(r, _)| r.clone())
            .collect();
        CTable::with_domains(self.arity(), rows, self.domains().clone())
    }

    /// `T₁ ×̄ T₂`: pairwise concatenation, conditions conjoined.
    ///
    /// The operands share the variable space (both descend from the same
    /// input table, as in `q̄`); shared variables are *the same
    /// variable*, which is exactly what Lemma 1 needs.
    pub fn product_bar(&self, other: &CTable) -> Result<CTable, TableError> {
        let domains = CTable::merge_domains(self.domains(), other.domains())?;
        let mut rows = Vec::with_capacity(self.len() * other.len());
        for r1 in self.rows() {
            for r2 in other.rows() {
                let mut tuple = Vec::with_capacity(self.arity() + other.arity());
                tuple.extend(r1.tuple.iter().cloned());
                tuple.extend(r2.tuple.iter().cloned());
                rows.push(CRow::new(
                    tuple,
                    Condition::and([r1.cond.clone(), r2.cond.clone()]),
                ));
            }
        }
        CTable::with_domains(self.arity() + other.arity(), rows, domains)
    }

    /// `T₁ ⋈̄ T₂`: the c-table equijoin, semantically
    /// `σ̄_{⋀ #i=#j ∧ residual}(T₁ ×̄ T₂)` but executed with build-side
    /// hashing wherever the key columns are *ground*.
    ///
    /// Rows whose key columns are all constants are gathered into a
    /// columnar batch of their key values on each side; a [`JoinIndex`]
    /// over the right batch, probed with the left one, pairs them — the
    /// hash-join kernel the instance executor uses. Pairing two
    /// ground-key rows with unequal keys would produce a row whose
    /// instantiated key condition is `false` — a row that holds in no
    /// possible world — so the hash join's skipping of those pairs is
    /// exactly the `simplified().without_false_rows()` pruning done
    /// eagerly, and Lemma 1 is preserved. Rows with a *variable* in some
    /// key column fall back to condition-conjunction pairing: they are
    /// paired with every row of the other side and the key equalities
    /// are instantiated on the terms (via [`pred_on_terms`]) and
    /// conjoined onto the row condition, just as `σ̄` would. A pair
    /// whose composed condition is `false` (a residual that folds to
    /// `false` on ground terms, say) is not built either: like the
    /// skipped key mismatches, it holds in no possible world.
    ///
    /// Output order: each left row in turn; a ground-key left row meets
    /// its ground-key matches in right-row order, then every
    /// variable-key right row; a variable-key left row meets every
    /// right row.
    pub fn join_bar(
        &self,
        other: &CTable,
        on: &[(usize, usize)],
        residual: Option<&Pred>,
    ) -> Result<CTable, TableError> {
        let (la, lb) = (self.arity(), other.arity());
        let total = la + lb;
        let domains = CTable::merge_domains(self.domains(), other.domains())?;
        // The shared normalization `Instance::equijoin` uses: spanning
        // pairs become (left col, right-local col) hash keys, the rest
        // fold into the residual filter.
        let (keys, extra) =
            ipdb_rel::normalize_join_keys(on, la, total).map_err(TableError::Rel)?;
        if let Some(p) = residual {
            p.validate(total).map_err(TableError::Rel)?;
        }
        let filter = Pred::conj_all(extra.into_iter().chain(residual.cloned()));

        let mut rows: Vec<CRow> = Vec::new();
        let mut pair = |r1: &CRow, r2: &CRow, keys_known_equal: bool| -> Result<(), TableError> {
            let mut tuple = Vec::with_capacity(total);
            tuple.extend(r1.tuple.iter().cloned());
            tuple.extend(r2.tuple.iter().cloned());
            let mut cond = vec![r1.cond.clone(), r2.cond.clone()];
            if !keys_known_equal {
                for &(i, j) in &keys {
                    cond.push(Condition::eq(tuple[i].clone(), tuple[la + j].clone()));
                }
            }
            if filter != Pred::True {
                cond.push(pred_on_terms(&filter, &tuple)?);
            }
            let cond = Condition::and(cond);
            if cond != Condition::False {
                rows.push(CRow::new(tuple, cond));
            }
            Ok(())
        };

        let (left_cols, right_cols): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
        let (left_keys, left_ground, _) = ground_keys(self, &left_cols);
        let (right_keys, right_ground, right_var) = ground_keys(other, &right_cols);
        // Ground × ground: one probe of the left key batch, matches in
        // left-row-major order with right rows ascending.
        let key_cols: Vec<usize> = (0..keys.len()).collect();
        let index = JoinIndex::build(&right_keys, key_cols.clone());
        let mut matches = Vec::new();
        index.probe_range(
            &right_keys,
            &left_keys,
            &key_cols,
            0,
            left_keys.len(),
            &mut matches,
        );
        let mut matches = matches.into_iter().peekable();
        let mut left_ground = left_ground.into_iter().enumerate().peekable();
        let right_rows = other.rows();
        for (l, r1) in self.rows().iter().enumerate() {
            match left_ground.next_if(|&(_, row)| row == l) {
                Some((probe, _)) => {
                    // Keys equal by construction. Ground × variable-key:
                    // fall back.
                    while let Some((build, _)) = matches.next_if(|&(_, p)| p == probe) {
                        pair(r1, &right_rows[right_ground[build]], true)?;
                    }
                    for &r in &right_var {
                        pair(r1, &right_rows[r], false)?;
                    }
                }
                None => {
                    // Variable-key left rows pair with *every* right row.
                    for r2 in right_rows {
                        pair(r1, r2, false)?;
                    }
                }
            }
        }
        CTable::with_domains(total, rows, domains)
    }

    /// `T₁ ∪̄ T₂`: row concatenation.
    pub fn union_bar(&self, other: &CTable) -> Result<CTable, TableError> {
        if self.arity() != other.arity() {
            return Err(TableError::Rel(RelError::ArityMismatch {
                expected: self.arity(),
                got: other.arity(),
            }));
        }
        let domains = CTable::merge_domains(self.domains(), other.domains())?;
        let mut rows = Vec::with_capacity(self.len() + other.len());
        rows.extend(self.rows().iter().cloned());
        rows.extend(other.rows().iter().cloned());
        CTable::with_domains(self.arity(), rows, domains)
    }

    /// `T₁ −̄ T₂`: each row `(t : φ)` of `T₁` survives exactly when no
    /// row of `T₂` matches it, i.e. under
    /// `φ ∧ ⋀_{(s:ψ) ∈ T₂} (¬ψ ∨ t ≠ s)`.
    pub fn diff_bar(&self, other: &CTable) -> Result<CTable, TableError> {
        if self.arity() != other.arity() {
            return Err(TableError::Rel(RelError::ArityMismatch {
                expected: self.arity(),
                got: other.arity(),
            }));
        }
        let domains = CTable::merge_domains(self.domains(), other.domains())?;
        let rows = self
            .rows()
            .iter()
            .map(|r1| {
                let guards = other.rows().iter().map(|r2| {
                    Condition::or([r2.cond.clone().negate(), tuples_neq(&r1.tuple, &r2.tuple)])
                });
                CRow::new(
                    r1.tuple.iter().cloned(),
                    Condition::and(std::iter::once(r1.cond.clone()).chain(guards)),
                )
            })
            .collect();
        CTable::with_domains(self.arity(), rows, domains)
    }

    /// `T₁ ∩̄ T₂`: each row `(t : φ)` of `T₁` survives exactly when some
    /// row of `T₂` matches it, i.e. under
    /// `φ ∧ ⋁_{(s:ψ) ∈ T₂} (ψ ∧ t = s)`.
    pub fn intersect_bar(&self, other: &CTable) -> Result<CTable, TableError> {
        if self.arity() != other.arity() {
            return Err(TableError::Rel(RelError::ArityMismatch {
                expected: self.arity(),
                got: other.arity(),
            }));
        }
        let domains = CTable::merge_domains(self.domains(), other.domains())?;
        let rows =
            self.rows()
                .iter()
                .map(|r1| {
                    let hits = other.rows().iter().map(|r2| {
                        Condition::and([r2.cond.clone(), tuples_eq(&r1.tuple, &r2.tuple)])
                    });
                    CRow::new(
                        r1.tuple.iter().cloned(),
                        Condition::and([r1.cond.clone(), Condition::or(hits)]),
                    )
                })
                .collect();
        CTable::with_domains(self.arity(), rows, domains)
    }

    /// The translation `q ↦ q̄` applied to this table: evaluates the
    /// whole query in the c-table algebra (`Lit` nodes become ground
    /// subtables, `Input` is `self`).
    pub fn eval_query(&self, q: &Query) -> Result<CTable, TableError> {
        Ok(match q {
            Query::Input => self.clone(),
            Query::Second => return Err(TableError::Rel(ipdb_rel::RelError::NoSecondInput)),
            // Single-table context: named relations have nothing to bind
            // to (the engine's catalog executor resolves them).
            Query::Rel(name) => {
                return Err(TableError::Rel(ipdb_rel::RelError::UnknownRelation {
                    name: name.clone(),
                }))
            }
            Query::Lit(i) => lit_table(i, self)?,
            Query::Project(cols, q) => self.eval_query(q)?.project_bar(cols)?,
            Query::Select(p, q) => self.eval_query(q)?.select_bar(p)?,
            Query::Product(a, b) => self.eval_query(a)?.product_bar(&self.eval_query(b)?)?,
            Query::Join {
                on,
                residual,
                left,
                right,
            } => {
                self.eval_query(left)?
                    .join_bar(&self.eval_query(right)?, on, residual.as_ref())?
            }
            Query::Union(a, b) => self.eval_query(a)?.union_bar(&self.eval_query(b)?)?,
            Query::Diff(a, b) => self.eval_query(a)?.diff_bar(&self.eval_query(b)?)?,
            Query::Intersect(a, b) => self.eval_query(a)?.intersect_bar(&self.eval_query(b)?)?,
        })
    }

    /// A copy with every row condition simplified (the algebra's smart
    /// constructors already fold; this re-folds after composition).
    pub fn simplified(&self) -> CTable {
        let rows = self
            .rows()
            .iter()
            .map(|r| CRow::new(r.tuple.iter().cloned(), r.cond.simplify()))
            .collect();
        CTable::with_domains(self.arity(), rows, self.domains().clone())
            .expect("same arities and domains")
    }

    /// A copy without rows whose condition is syntactically `false`
    /// (sound cleanup after `−̄`/`σ̄`).
    pub fn without_false_rows(&self) -> CTable {
        let rows = self
            .rows()
            .iter()
            .filter(|r| r.cond != Condition::False)
            .cloned()
            .collect();
        CTable::with_domains(self.arity(), rows, self.domains().clone())
            .expect("same arities and domains")
    }
}

/// A constant relation literal as a ground c-table, carrying the host
/// table's domain declarations so later merges cannot conflict.
fn lit_table(i: &Instance, host: &CTable) -> Result<CTable, TableError> {
    let mut t = CTable::from_instance(i);
    for (v, d) in host.domains() {
        t.set_domain(*v, d.clone())?;
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctable::{t_const, t_var};
    use ipdb_logic::{Valuation, Var};
    use ipdb_rel::{instance, Domain, Value};

    fn sample() -> CTable {
        let (x, y) = (Var(0), Var(1));
        CTable::builder(2)
            .row([t_const(1), t_var(x)], Condition::True)
            .row([t_var(x), t_var(y)], Condition::neq_vv(x, y))
            .build()
            .unwrap()
    }

    fn nu(x: i64, y: i64) -> Valuation {
        Valuation::from_iter([(Var(0), Value::from(x)), (Var(1), Value::from(y))])
    }

    #[test]
    fn pred_on_terms_grounds_and_folds() {
        let terms = [t_const(1), t_var(Var(0))];
        let p = Pred::eq_const(0, 1);
        assert_eq!(pred_on_terms(&p, &terms).unwrap(), Condition::True);
        let p2 = Pred::eq_cols(0, 1);
        assert_eq!(
            pred_on_terms(&p2, &terms).unwrap(),
            Condition::eq_vc(Var(0), 1)
        );
        let bad = Pred::eq_cols(0, 9);
        assert!(pred_on_terms(&bad, &terms).is_err());
    }

    #[test]
    fn lemma1_projection() {
        let t = sample();
        let q = Query::project(Query::Input, vec![1]);
        let qt = t.eval_query(&q).unwrap();
        for v in [nu(1, 2), nu(2, 2), nu(3, 7)] {
            assert_eq!(
                qt.apply_valuation(&v).unwrap(),
                q.eval(&t.apply_valuation(&v).unwrap()).unwrap()
            );
        }
    }

    #[test]
    fn projection_merges_conditions_disjunctively() {
        let (x, y) = (Var(0), Var(1));
        let t = CTable::builder(2)
            .row([t_const(1), t_var(x)], Condition::eq_vc(y, 1))
            .row([t_const(2), t_var(x)], Condition::eq_vc(y, 2))
            .build()
            .unwrap();
        let p = t.project_bar(&[1]).unwrap();
        assert_eq!(p.len(), 1); // both rows project to (x)
        assert_eq!(
            p.rows()[0].cond,
            Condition::or([Condition::eq_vc(y, 1), Condition::eq_vc(y, 2)])
        );
    }

    #[test]
    fn lemma1_selection() {
        let t = sample();
        let q = Query::select(Query::Input, Pred::eq_const(0, 1));
        let qt = t.eval_query(&q).unwrap();
        for v in [nu(1, 2), nu(2, 1), nu(5, 5)] {
            assert_eq!(
                qt.apply_valuation(&v).unwrap(),
                q.eval(&t.apply_valuation(&v).unwrap()).unwrap()
            );
        }
    }

    #[test]
    fn ground_column_view_needs_ground_columns() {
        // Only fully-constant columns have a view: `sample`'s column 0
        // holds a variable in one row, `g`'s column 1 in every row, and
        // column 9 does not exist.
        assert!(sample().ground_column_view(&[0]).is_none());
        let g = CTable::builder(2)
            .row([t_const(1), t_var(Var(0))], Condition::True)
            .row([t_const(2), t_var(Var(1))], Condition::True)
            .build()
            .unwrap();
        assert!(g.ground_column_view(&[0]).is_some());
        assert!(g.ground_column_view(&[1]).is_none());
        assert!(g.ground_column_view(&[9]).is_none());
        let view = g.ground_column_view(&[0]).unwrap();
        assert_eq!(view.len(), 2);
        assert_eq!(view.value(1, 0), &Value::from(2));
    }

    #[test]
    fn select_bar_vectorized_agrees_with_term_path_after_pruning() {
        let (x, y) = (Var(0), Var(1));
        let t = CTable::builder(2)
            .row([t_const(1), t_var(x)], Condition::eq_vc(y, 1))
            .row([t_const(2), t_var(x)], Condition::True)
            .row([t_const(3), t_var(y)], Condition::neq_vv(x, y))
            .build()
            .unwrap();
        // Ground-only predicate: vectorized path drops row 1 outright.
        let p = Pred::neq_const(0, 1);
        let fast = t.select_bar_vectorized(&p).unwrap();
        let slow = t.select_bar(&p).unwrap();
        assert_eq!(
            fast.simplified().without_false_rows(),
            slow.simplified().without_false_rows()
        );
        assert_eq!(fast.len(), 2);
        // Conditions of surviving rows are untouched (no ∧true wrapper).
        assert_eq!(fast.rows()[0].cond, Condition::True);
        // Predicate touching a symbolic column falls back to the term
        // path — results are identical, conditions composed.
        let sym = Pred::eq_cols(0, 1);
        assert_eq!(
            t.select_bar_vectorized(&sym).unwrap(),
            t.select_bar(&sym).unwrap()
        );
        // Column-free predicates vectorize trivially.
        assert!(t.select_bar_vectorized(&Pred::False).unwrap().is_empty());
        assert_eq!(t.select_bar_vectorized(&Pred::True).unwrap().len(), 3);
        // Out-of-range predicates keep the term path's per-row error
        // behavior (errors only when rows exist).
        assert!(t.select_bar_vectorized(&Pred::eq_cols(0, 9)).is_err());
        let empty = CTable::new(2, Vec::new()).unwrap();
        assert!(empty.select_bar_vectorized(&Pred::eq_cols(0, 9)).is_ok());
    }

    #[test]
    fn lemma1_product_shares_variables() {
        let t = sample();
        let q = Query::product(Query::Input, Query::Input);
        let qt = t.eval_query(&q).unwrap();
        assert_eq!(qt.arity(), 4);
        for v in [nu(1, 2), nu(3, 3)] {
            assert_eq!(
                qt.apply_valuation(&v).unwrap(),
                q.eval(&t.apply_valuation(&v).unwrap()).unwrap()
            );
        }
    }

    #[test]
    fn lemma1_join_agrees_with_selected_product() {
        let t = sample();
        // Self-join on column 1 = column 2 (spanning the 2|2 product),
        // with and without a residual.
        for residual in [None, Some(Pred::neq_const(0, 1))] {
            let join = Query::join(Query::Input, Query::Input, [(1, 2)], residual.clone());
            let naive = Query::select(
                Query::product(Query::Input, Query::Input),
                Query::join_pred(&[(1, 2)], residual.as_ref()),
            );
            let jt = t.eval_query(&join).unwrap();
            let nt = t.eval_query(&naive).unwrap();
            assert_eq!(jt.arity(), 4);
            for v in [nu(1, 1), nu(1, 2), nu(2, 1), nu(3, 4)] {
                let world = t.apply_valuation(&v).unwrap();
                assert_eq!(
                    jt.apply_valuation(&v).unwrap(),
                    join.eval(&world).unwrap(),
                    "join vs direct under {v}"
                );
                assert_eq!(
                    jt.apply_valuation(&v).unwrap(),
                    nt.apply_valuation(&v).unwrap(),
                    "join_bar vs select_bar∘product_bar under {v}"
                );
            }
        }
    }

    #[test]
    fn join_bar_hash_path_skips_ground_mismatches() {
        // Two all-ground tables: the hash path alone is exercised, and
        // non-matching pairs are not even materialized as false rows.
        let t1 = CTable::builder(1)
            .ground_row([1i64], Condition::True)
            .ground_row([2i64], Condition::True)
            .build()
            .unwrap();
        let t2 = CTable::builder(1)
            .ground_row([2i64], Condition::True)
            .ground_row([3i64], Condition::True)
            .build()
            .unwrap();
        let j = t1.join_bar(&t2, &[(0, 1)], None).unwrap();
        assert_eq!(j.len(), 1, "only the (2,2) pair should be produced");
        assert_eq!(j.rows()[0].cond, Condition::True);
        // The naive σ̄(×̄) keeps 4 rows (3 with false conditions).
        let naive = t1
            .product_bar(&t2)
            .unwrap()
            .select_bar(&Pred::eq_cols(0, 1))
            .unwrap();
        assert_eq!(naive.len(), 4);
        assert_eq!(naive.simplified().without_false_rows().len(), 1);
    }

    #[test]
    fn join_bar_variable_keys_fall_back_to_conditions() {
        let x = Var(0);
        let t1 = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .build()
            .unwrap();
        let t2 = CTable::builder(1)
            .ground_row([3i64], Condition::True)
            .build()
            .unwrap();
        let j = t1.join_bar(&t2, &[(0, 1)], None).unwrap();
        // One pair, guarded by x = 3.
        assert_eq!(j.len(), 1);
        assert_eq!(j.rows()[0].cond.simplify(), Condition::eq_vc(x, 3));
        for val in [3i64, 4] {
            let v = Valuation::from_iter([(x, Value::from(val))]);
            let world = t1.apply_valuation(&v).unwrap();
            let expect = Query::join(Query::Input, Query::Second, [(0, 1)], None);
            assert_eq!(
                j.apply_valuation(&v).unwrap(),
                expect
                    .eval2(&world, &t2.apply_valuation(&v).unwrap())
                    .unwrap()
            );
        }
    }

    #[test]
    fn join_bar_output_is_pinned_row_for_row() {
        // Ground keys repeat on both sides (1), miss on both sides (9
        // left, 3 right), and meet variable keys (x left, y right); the
        // residual folds on ground payloads and stays symbolic on z.
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let left = CTable::builder(2)
            .ground_row([1i64, 10], Condition::True)
            .row([t_var(x), t_const(11)], Condition::True)
            .ground_row([2i64, 12], Condition::eq_vc(y, 1))
            .ground_row([1i64, 13], Condition::True)
            .ground_row([9i64, 14], Condition::True)
            .build()
            .unwrap();
        let right = CTable::builder(2)
            .ground_row([1i64, 20], Condition::True)
            .row([t_var(y), t_var(z)], Condition::True)
            .ground_row([1i64, 10], Condition::neq_vv(x, y))
            .ground_row([3i64, 23], Condition::True)
            .ground_row([2i64, 24], Condition::True)
            .build()
            .unwrap();
        let j = left
            .join_bar(&right, &[(0, 2)], Some(&Pred::neq_cols(1, 3)))
            .unwrap();
        let c = |v: i64| t_const(v);
        let row = |t: [Term; 4], conds: Vec<Condition>| CRow::new(t, Condition::and(conds));
        let expected = vec![
            // A ground-key left row: its ground matches in right-row
            // order, then every variable-key right row.
            // The residual `#1 != #3` folds to `false` on the ground
            // pair ([1, 10], [1, 10]), so that pair is not built.
            row([c(1), c(10), c(1), c(20)], vec![]),
            row(
                [c(1), c(10), t_var(y), t_var(z)],
                vec![Condition::eq_vc(y, 1), Condition::neq_vc(z, 10)],
            ),
            // A variable-key left row pairs with every right row.
            row([t_var(x), c(11), c(1), c(20)], vec![Condition::eq_vc(x, 1)]),
            row(
                [t_var(x), c(11), t_var(y), t_var(z)],
                vec![Condition::eq_vv(x, y), Condition::neq_vc(z, 11)],
            ),
            row(
                [t_var(x), c(11), c(1), c(10)],
                vec![Condition::neq_vv(x, y), Condition::eq_vc(x, 1)],
            ),
            row([t_var(x), c(11), c(3), c(23)], vec![Condition::eq_vc(x, 3)]),
            row([t_var(x), c(11), c(2), c(24)], vec![Condition::eq_vc(x, 2)]),
            row([c(2), c(12), c(2), c(24)], vec![Condition::eq_vc(y, 1)]),
            row(
                [c(2), c(12), t_var(y), t_var(z)],
                vec![
                    Condition::eq_vc(y, 1),
                    Condition::eq_vc(y, 2),
                    Condition::neq_vc(z, 12),
                ],
            ),
            row([c(1), c(13), c(1), c(20)], vec![]),
            row([c(1), c(13), c(1), c(10)], vec![Condition::neq_vv(x, y)]),
            row(
                [c(1), c(13), t_var(y), t_var(z)],
                vec![Condition::eq_vc(y, 1), Condition::neq_vc(z, 13)],
            ),
            // Key 9 meets only the variable-key right row.
            row(
                [c(9), c(14), t_var(y), t_var(z)],
                vec![Condition::eq_vc(y, 9), Condition::neq_vc(z, 14)],
            ),
        ];
        assert_eq!(j.rows(), expected.as_slice());
    }

    #[test]
    fn join_bar_validates_keys() {
        let t = sample();
        assert!(matches!(
            t.join_bar(&t, &[(0, 9)], None),
            Err(TableError::Rel(RelError::ColumnOutOfRange { col: 9, .. }))
        ));
        assert!(t
            .join_bar(&t, &[(0, 2)], Some(&Pred::eq_cols(0, 8)))
            .is_err());
    }

    #[test]
    fn lemma1_union_diff_intersect() {
        let t = sample();
        let lit = Query::Lit(instance![[1, 2], [3, 4]]);
        for q in [
            Query::union(Query::Input, lit.clone()),
            Query::diff(Query::Input, lit.clone()),
            Query::intersect(Query::Input, lit.clone()),
            Query::diff(lit.clone(), Query::Input),
        ] {
            let qt = t.eval_query(&q).unwrap();
            for v in [nu(1, 2), nu(2, 1), nu(3, 4), nu(4, 4)] {
                assert_eq!(
                    qt.apply_valuation(&v).unwrap(),
                    q.eval(&t.apply_valuation(&v).unwrap()).unwrap(),
                    "query {q} under {v}"
                );
            }
        }
    }

    #[test]
    fn diff_produces_guard_conditions() {
        let x = Var(0);
        let t1 = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .build()
            .unwrap();
        let t2 = CTable::builder(1)
            .ground_row([3i64], Condition::True)
            .build()
            .unwrap();
        let d = t1.diff_bar(&t2).unwrap();
        assert_eq!(d.len(), 1);
        // Row condition must be x ≠ 3 (¬true ∨ x≠3 folds to x≠3).
        assert_eq!(d.rows()[0].cond, Condition::neq_vc(x, 3));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let t1 = CTable::new(1, vec![]).unwrap();
        let t2 = CTable::new(2, vec![]).unwrap();
        assert!(t1.union_bar(&t2).is_err());
        assert!(t1.diff_bar(&t2).is_err());
        assert!(t1.intersect_bar(&t2).is_err());
    }

    #[test]
    fn domain_merge_conflict_detected() {
        let x = Var(0);
        let mk = |d: Domain| {
            CTable::builder(1)
                .row([t_var(x)], Condition::True)
                .domain(x, d)
                .build()
                .unwrap()
        };
        let a = mk(Domain::ints(1..=2));
        let b = mk(Domain::ints(1..=3));
        assert_eq!(
            a.product_bar(&b).unwrap_err(),
            TableError::DomainConflict(x)
        );
    }

    #[test]
    fn eval_query_example4_shape() {
        // The Example 4 query, checked q̄(Z₃) ≡ S in ipdb-core; here just
        // exercise the full pipeline on a c-table input.
        let t = sample();
        let q = Query::union(
            Query::project(
                Query::select(Query::Input, Pred::neq_cols(0, 1)),
                vec![1, 0],
            ),
            Query::Lit(instance![[9, 9]]),
        );
        let qt = t.eval_query(&q).unwrap();
        for v in [nu(1, 1), nu(1, 2)] {
            assert_eq!(
                qt.apply_valuation(&v).unwrap(),
                q.eval(&t.apply_valuation(&v).unwrap()).unwrap()
            );
        }
    }

    #[test]
    fn without_false_rows_drops_contradictions() {
        let x = Var(0);
        let t = CTable::builder(1)
            .row([t_var(x)], Condition::False)
            .row([t_const(1)], Condition::True)
            .build()
            .unwrap();
        assert_eq!(t.without_false_rows().len(), 1);
    }

    #[test]
    fn simplified_folds_conditions() {
        let x = Var(0);
        let messy = Condition::And(vec![
            Condition::True,
            Condition::Or(vec![Condition::eq_vc(x, 1), Condition::False]),
        ]);
        let t = CTable::builder(1).row([t_const(1)], messy).build().unwrap();
        assert_eq!(t.simplified().rows()[0].cond, Condition::eq_vc(x, 1));
    }
}
