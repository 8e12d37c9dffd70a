//! Proptest strategies for tables, plus the Lemma 1 / Thm 4 property
//! tests.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ipdb_logic::{strategies as logic_strategies, Term, Valuation, Var};
use ipdb_rel::{Domain, Value};

use crate::boolean::BooleanCTable;
use crate::ctable::{CRow, CTable};
use crate::orset::{OrSetTable, OrSetValue};
use crate::qtable::QTable;

/// Strategy for a term over `x0..x{nvars}` and constants `0..=max_int`.
fn arb_entry(nvars: u32, max_int: i64) -> BoxedStrategy<Term> {
    prop_oneof![
        (0..nvars.max(1)).prop_map(|i| Term::Var(Var(i))),
        (0..=max_int).prop_map(Term::constant),
    ]
    .boxed()
}

/// Strategy for a c-table of the given arity with up to `max_rows` rows,
/// over variables `x0..x{nvars}` with integer constants `0..=max_int`.
/// Conditions are random (raw) conditions over the same variables.
pub fn arb_ctable(
    arity: usize,
    max_rows: usize,
    nvars: u32,
    max_int: i64,
) -> BoxedStrategy<CTable> {
    let row = (
        proptest::collection::vec(arb_entry(nvars, max_int), arity),
        logic_strategies::arb_condition(nvars, max_int, 2),
    )
        .prop_map(|(tuple, cond)| CRow::new(tuple, cond));
    proptest::collection::vec(row, 0..=max_rows)
        .prop_map(move |rows| CTable::new(arity, rows).expect("arity fixed"))
        .boxed()
}

/// Strategy for a *finite-domain* c-table: like [`arb_ctable`] but every
/// variable gets the domain `{0..=max_int}`.
pub fn arb_finite_ctable(
    arity: usize,
    max_rows: usize,
    nvars: u32,
    max_int: i64,
) -> BoxedStrategy<CTable> {
    arb_ctable(arity, max_rows, nvars, max_int)
        .prop_map(move |t| {
            let domains: BTreeMap<Var, Domain> = t
                .vars()
                .into_iter()
                .map(|v| (v, Domain::ints(0..=max_int)))
                .collect();
            CTable::with_domains(t.arity(), t.rows().to_vec(), domains).expect("valid domains")
        })
        .boxed()
}

/// Strategy for a boolean c-table with `nvars` boolean variables.
pub fn arb_boolean_ctable(
    arity: usize,
    max_rows: usize,
    nvars: u32,
    max_int: i64,
) -> BoxedStrategy<BooleanCTable> {
    let row = (
        proptest::collection::vec((0..=max_int).prop_map(Value::from), arity),
        logic_strategies::arb_boolean_condition(nvars, 2),
    );
    proptest::collection::vec(row, 0..=max_rows)
        .prop_map(move |rows| {
            BooleanCTable::from_rows(
                arity,
                rows.into_iter()
                    .map(|(vals, cond)| (ipdb_rel::Tuple::new(vals), cond)),
            )
            .expect("rows are boolean by construction")
        })
        .boxed()
}

/// Strategy for a `?`-table.
pub fn arb_qtable(arity: usize, max_rows: usize, max_int: i64) -> BoxedStrategy<QTable> {
    let row = (
        proptest::collection::vec((0..=max_int).prop_map(Value::from), arity),
        any::<bool>(),
    );
    proptest::collection::vec(row, 0..=max_rows)
        .prop_map(move |rows| {
            QTable::from_rows(
                arity,
                rows.into_iter()
                    .map(|(vals, opt)| (ipdb_rel::Tuple::new(vals), opt)),
            )
            .expect("arity fixed")
        })
        .boxed()
}

/// Strategy for an or-set table.
pub fn arb_orset_table(arity: usize, max_rows: usize, max_int: i64) -> BoxedStrategy<OrSetTable> {
    let cell = proptest::collection::btree_set(0..=max_int, 1..=3)
        .prop_map(|s| OrSetValue::new(s).expect("non-empty"));
    let row = proptest::collection::vec(cell, arity);
    proptest::collection::vec(row, 0..=max_rows)
        .prop_map(move |rows| OrSetTable::from_rows(arity, rows).expect("arity fixed"))
        .boxed()
}

/// A total valuation for all variables of a table, over `{0..=max_int}`.
pub fn arb_valuation_for(table: &CTable, max_int: i64) -> BoxedStrategy<Valuation> {
    let vars: Vec<Var> = table.vars().into_iter().collect();
    proptest::collection::vec(0..=max_int, vars.len())
        .prop_map(move |vals| {
            vars.iter()
                .zip(vals)
                .map(|(v, x)| (*v, Value::from(x)))
                .collect()
        })
        .boxed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repsys::RepresentationSystem;
    use ipdb_logic::Condition;
    use ipdb_logic::VarGen;
    use ipdb_rel::strategies::{arb_pred, arb_query};
    use ipdb_rel::{Pred, Query};

    const NVARS: u32 = 3;
    const MAXI: i64 = 2;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// **Lemma 1** (heart of Theorem 4): for every query `q`, c-table
        /// `T`, and valuation `ν`: `ν(q̄(T)) = q(ν(T))`.
        #[test]
        fn lemma1_holds(
            (t, q, nu) in arb_ctable(2, 3, NVARS, MAXI).prop_flat_map(|t| {
                let q = arb_query(2, 3, 3, MAXI);
                let nu = arb_valuation_for(&t, MAXI);
                (Just(t), q, nu)
            })
        ) {
            let qbar_t = t.eval_query(&q).unwrap();
            // q̄(T) may mention vars of T that ν misses when T has no rows;
            // extend ν to cover.
            let mut nu = nu;
            for v in qbar_t.vars() {
                if !nu.binds(v) {
                    nu.bind(v, Value::from(0));
                }
            }
            let lhs = qbar_t.apply_valuation(&nu).unwrap();
            let rhs = q.eval(&t.apply_valuation(&nu).unwrap()).unwrap();
            prop_assert_eq!(lhs, rhs);
        }

        /// **Lemma 1** for `q = σ_p(V)` on a table where some row holds
        /// a variable in a column `p` reads, so that `σ̄_p` must conjoin
        /// `p` instantiated on that row's terms with its condition. `p`
        /// is from `arb_pred`; when it reads no column it is conjoined
        /// with one column–constant atom. The valuation binds all
        /// `NVARS` variables.
        #[test]
        fn lemma1_selection_over_variable_rows(
            t in arb_ctable(2, 3, NVARS, MAXI),
            p in arb_pred(2, MAXI, false),
            (eq, k) in (any::<bool>(), 0..=MAXI),
            (row_pick, col_pick, var) in (0usize..4, 0usize..2, 0..NVARS),
            vals in proptest::collection::vec(0..=MAXI, NVARS as usize)
        ) {
            let p = if p.referenced_cols().is_empty() {
                let atom = if eq { Pred::eq_const(col_pick, k) } else { Pred::neq_const(col_pick, k) };
                Pred::conj_all([p, atom])
            } else {
                p
            };
            let read: Vec<usize> = p.referenced_cols().into_iter().collect();
            let mut rows = t.rows().to_vec();
            if rows.is_empty() {
                rows.push(CRow::new([Term::constant(0), Term::constant(0)], Condition::True));
            }
            let r = row_pick % rows.len();
            rows[r].tuple[read[col_pick % read.len()]] = Term::Var(Var(var));
            let t = CTable::new(2, rows).unwrap();
            let nu: Valuation = (0..NVARS).map(Var).zip(vals.into_iter().map(Value::from)).collect();
            let q = Query::select(Query::Input, p);
            let lhs = t.eval_query(&q).unwrap().apply_valuation(&nu).unwrap();
            let rhs = q.eval(&t.apply_valuation(&nu).unwrap()).unwrap();
            prop_assert_eq!(lhs, rhs);
        }

        /// No `_bar` operator builds a row whose condition is `false`,
        /// whatever the input rows' conditions: `select_bar` over
        /// ground, variable or no columns, `join_bar` over spanning,
        /// one-sided or self key pairs with or without a residual, and
        /// the other five operators.
        #[test]
        fn bar_operators_build_no_false_rows(
            t1 in arb_ctable(2, 4, NVARS, MAXI),
            t2 in arb_ctable(2, 3, NVARS, MAXI),
            p in arb_pred(2, MAXI, false),
            cols in proptest::collection::vec(0usize..2, 0..3),
            on in proptest::collection::vec((0usize..4, 0usize..4), 0..3),
            (with_residual, residual) in (any::<bool>(), arb_pred(4, MAXI, false))
        ) {
            let residual = with_residual.then_some(&residual);
            for (op, out) in [
                ("select_bar", t1.select_bar(&p)),
                ("project_bar", t1.project_bar(&cols)),
                ("product_bar", t1.product_bar(&t2)),
                ("join_bar", t1.join_bar(&t2, &on, residual)),
                ("union_bar", t1.union_bar(&t2)),
                ("diff_bar", t1.diff_bar(&t2)),
                ("intersect_bar", t1.intersect_bar(&t2)),
            ] {
                let out = out.unwrap();
                prop_assert!(
                    out.rows().iter().all(|r| r.cond != Condition::False),
                    "{} built a false row in {:?}", op, out.rows()
                );
            }
        }

        /// **Theorem 4** for finite-domain c-tables:
        /// `Mod(q̄(T)) = q(Mod(T))`.
        #[test]
        fn theorem4_mod_commutes(
            t in arb_finite_ctable(2, 3, NVARS, 1),
            q in arb_query(2, 2, 2, 1)
        ) {
            let lhs = t.eval_query(&q).unwrap().mod_finite().unwrap();
            let rhs = q.eval_idb(&t.mod_finite().unwrap()).unwrap();
            prop_assert_eq!(lhs, rhs);
        }

        /// `simplified` preserves Mod.
        #[test]
        fn cleanup_preserves_mod(t in arb_finite_ctable(2, 4, NVARS, MAXI)) {
            let m = t.mod_finite().unwrap();
            prop_assert_eq!(t.simplified().mod_finite().unwrap(), m);
        }

        /// Renaming variables preserves Mod.
        #[test]
        fn renaming_preserves_mod(t in arb_finite_ctable(2, 3, NVARS, MAXI)) {
            let mut g = VarGen::avoiding(t.vars());
            let (r, _) = t.rename_fresh(&mut g);
            prop_assert_eq!(r.mod_finite().unwrap(), t.mod_finite().unwrap());
            prop_assert!(r.equivalent_to(&t).unwrap());
        }

        /// The ?-table embedding into boolean c-tables preserves Mod.
        #[test]
        fn qtable_embedding_preserves_mod(t in arb_qtable(2, 4, MAXI)) {
            let mut g = VarGen::new();
            let c = t.to_ctable(&mut g).unwrap();
            prop_assert_eq!(c.mod_finite().unwrap(), t.worlds().unwrap());
        }

        /// The or-set ↔ finite Codd equivalence (§3) preserves Mod both
        /// ways.
        #[test]
        fn orset_codd_equivalence(t in arb_orset_table(2, 3, MAXI)) {
            let mut g = VarGen::new();
            let codd = t.to_ctable(&mut g).unwrap();
            prop_assert!(codd.is_codd());
            prop_assert_eq!(codd.mod_finite().unwrap(), t.worlds().unwrap());
            let back = OrSetTable::from_codd(&codd).unwrap();
            prop_assert_eq!(back.worlds().unwrap(), t.worlds().unwrap());
        }

        /// Boolean c-tables: Mod computed through the generic machinery
        /// matches direct enumeration of variable assignments.
        #[test]
        fn boolean_ctable_worlds(t in arb_boolean_ctable(1, 3, 3, 2)) {
            let w = t.worlds().unwrap();
            // Brute force over all assignments of the table's vars.
            let vars: Vec<Var> = t.vars().into_iter().collect();
            let mut brute = ipdb_rel::IDatabase::empty(1);
            for mask in 0u32..(1 << vars.len()) {
                let nu: Valuation = vars
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (*v, Value::from((mask >> i) & 1 == 1)))
                    .collect();
                brute.insert(t.as_ctable().apply_valuation(&nu).unwrap()).unwrap();
            }
            prop_assert_eq!(w, brute);
        }

        /// Possible/certain membership over the decision slice agrees
        /// with brute force over a *larger* slice (soundness of the
        /// active-domain + fresh-constants argument).
        #[test]
        fn decision_slice_agrees_with_larger_slice(
            t in arb_ctable(1, 3, 2, 1),
            probe in 0i64..=2
        ) {
            let probe = ipdb_rel::Tuple::new([probe]);
            let small = t.possible_tuple(&probe).unwrap();
            // Larger slice: decision slice plus 3 extra fresh constants.
            let slice = t
                .decision_slice(&Domain::new(probe.iter().cloned()))
                .with_fresh_ints(3);
            let large = t.mod_over(&slice).unwrap().is_possible(&probe);
            prop_assert_eq!(small, large);
            let small_c = t.certain_tuple(&probe).unwrap();
            let large_c = t.mod_over(&slice).unwrap().is_certain(&probe);
            prop_assert_eq!(small_c, large_c);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Equivalence decided on the shared slice agrees with a larger
        /// slice.
        #[test]
        fn equivalence_slice_is_stable(
            a in arb_ctable(1, 2, 2, 1),
            b in arb_ctable(1, 2, 2, 1)
        ) {
            let small = a.equivalent_to(&b).unwrap();
            let consts = a.active_constants().union(&b.active_constants());
            let fresh = a.vars().len().max(b.vars().len()).max(1) + 2;
            let slice = consts.with_fresh_ints(fresh);
            let large = a.mod_over(&slice).unwrap() == b.mod_over(&slice).unwrap();
            prop_assert_eq!(small, large);
        }
    }
}
