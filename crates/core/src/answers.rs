//! Certain and possible answers of queries on c-tables.
//!
//! The classical use of incomplete databases (the paper's §1 motivation
//! via Orchestra): a query's *certain answers* hold in every possible
//! world, its *possible answers* in at least one. Both reduce, through
//! Theorem 4, to questions about the single c-table `q̄(T)` and are
//! decided exactly over the infinite domain by the active-domain +
//! fresh-constants slice (see `ipdb-tables::worlds`): a certain tuple
//! must survive *every* valuation, so tuples mentioning fresh constants
//! are never certain and the certain-answer set is ground over the
//! active constants.

use ipdb_rel::{Instance, Query};
use ipdb_tables::CTable;

use crate::error::CoreError;

/// The certain answers `⋂ { q(I) | I ∈ Mod(T) }`, computed via `q̄(T)`
/// and its decision slice.
pub fn certain_answers(t: &CTable, q: &Query) -> Result<Instance, CoreError> {
    let answered = t.eval_query(q)?;
    let slice = answered.decision_slice(&ipdb_rel::Domain::empty());
    Ok(answered.mod_over(&slice)?.certain_tuples())
}

/// The possible answers `⋃ { q(I) | I ∈ Mod(T) }` *restricted to the
/// decision slice*: every possible ground answer over the table's
/// active constants appears; answers that exist only by choosing fresh
/// domain values are represented up to renaming of the fresh constants.
///
/// The slice is seeded with `T`'s active constants, not only `q̄(T)`'s:
/// the algebra drops rows that hold in no world, and with them
/// constants a variable of `q̄(T)` can still take.
pub fn possible_answers_over_slice(t: &CTable, q: &Query) -> Result<Instance, CoreError> {
    let answered = t.eval_query(q)?;
    let slice = answered.decision_slice(&t.active_constants());
    Ok(answered.mod_over(&slice)?.possible_tuples())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipdb_logic::{Condition, Var};
    use ipdb_rel::{instance, tuple, Domain, Pred};
    use ipdb_tables::{t_const, t_var};

    fn sample() -> CTable {
        let (x, y) = (Var(0), Var(1));
        CTable::builder(2)
            .row([t_const(1), t_const(2)], Condition::True)
            .row([t_const(3), t_var(x)], Condition::True)
            .row([t_var(y), t_const(4)], Condition::eq_vv(x, y))
            .build()
            .unwrap()
    }

    #[test]
    fn certain_answers_of_projection() {
        let t = sample();
        // π₁: (1) always; (3) always; (y) only when x=y.
        let q = Query::project(Query::Input, vec![0]);
        assert_eq!(certain_answers(&t, &q).unwrap(), instance![[1], [3]]);
    }

    #[test]
    fn certain_answers_of_selection() {
        let t = sample();
        // σ_{#1=3}: the (3, x) row survives with any x, so only its
        // first column is certain under projection; the full tuple
        // (3, x) is not certain for any particular x.
        let q = Query::select(Query::Input, Pred::eq_const(0, 3));
        let certain = certain_answers(&t, &q).unwrap();
        assert!(certain.is_empty());
        let possible = possible_answers_over_slice(&t, &q).unwrap();
        assert!(possible
            .iter()
            .all(|tup| tup[0] == 1i64.into() || tup[0] == 3i64.into()));
        assert!(possible.contains(&tuple![3, 2]));
    }

    #[test]
    fn tautological_condition_is_certain() {
        let x = Var(0);
        let t = CTable::builder(1)
            .row(
                [t_const(9)],
                Condition::Or(vec![Condition::eq_vc(x, 1), Condition::neq_vc(x, 1)]),
            )
            .build()
            .unwrap();
        assert_eq!(certain_answers(&t, &Query::Input).unwrap(), instance![[9]]);
    }

    #[test]
    fn certain_answers_ground_over_active_constants() {
        let t = sample();
        let q = Query::Input;
        let certain = certain_answers(&t, &q).unwrap();
        assert_eq!(certain, instance![[1, 2]]);
        let actives = t.active_constants();
        for tup in certain.iter() {
            for v in tup.iter() {
                assert!(actives.contains(v));
            }
        }
        let _ = Domain::empty(); // silence unused import in some cfgs
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use ipdb_rel::Domain;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Certain answers via `q̄` + decision slice agree with brute
        /// force over the worlds of a *larger* slice.
        #[test]
        fn certain_answers_match_brute_force(
            t in ipdb_tables::strategies::arb_ctable(1, 3, 2, 1),
            q in ipdb_rel::strategies::arb_query(1, 2, 2, 1)
        ) {
            let fast = certain_answers(&t, &q).unwrap();
            // Brute force: evaluate q worldwise over an enlarged slice.
            let slice = t
                .eval_query(&q)
                .unwrap()
                .decision_slice(&Domain::empty())
                .with_fresh_ints(2);
            let worlds = t.mod_over(&slice).unwrap();
            let brute = q.eval_idb(&worlds).unwrap().certain_tuples();
            prop_assert_eq!(fast, brute);
        }
    }
}
