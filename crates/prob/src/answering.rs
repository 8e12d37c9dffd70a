//! Query answering on probabilistic c-tables: two engines.
//!
//! §7–§8 of the paper: the probability that a tuple `t` appears in a
//! query answer is the probability of `t`'s *event expression* — the
//! condition decorating `t` in `q̄(T)`. This module computes it two
//! ways:
//!
//! 1. [`prob_of_condition`] — the finite-domain BDD engine: every
//!    variable of the condition is ladder-encoded
//!    (`ipdb_bdd::FdEncoding`), so arbitrary `Eq`/`Neq` conditions
//!    compile, and `P[φ]` is a weighted model count under the
//!    variables' conditional level weights.
//!    [`PcTable::tuple_prob_bdd`] applies it to one tuple's presence
//!    condition, [`PcTable::answer_dist_bdd`] to every answer tuple with
//!    one manager shared across them, and the lineage evaluator
//!    `extensional::exact_prob` to a conjunctive query's lineage;
//! 2. [`PcTable::tuple_prob_enum`] / [`PcTable::answer_dist_enum`] —
//!    enumerate the whole valuation space (exponential in the number of
//!    variables): the Def. 13 semantics itself, kept as the oracle.
//!
//! The engines agree exactly (property-tested with `Rat`, including the
//! `prob_oracle` differential suite in `ipdb-engine`); the floors in
//! `ipdb-bench`'s `tests/floors.rs` count the BDD's work against the
//! valuations enumeration walks.

use std::collections::{BTreeMap, BTreeSet};

use ipdb_bdd::{BddManager, FdEncoding, Weight};
use ipdb_logic::{Condition, Term, Valuation, Var};
use ipdb_rel::{Domain, Tuple, Value};
use ipdb_tables::{algebra, CTable};

use crate::error::ProbError;
use crate::pctable::PcTable;
use crate::space::FiniteSpace;

/// The *presence condition* of tuple `t` in a c-table: the event
/// expression `⋁_{rows (s:φ)} (s = t ∧ φ)` — exactly the condition `t`
/// would carry in the table after merging rows (and the tuple's lineage,
/// §9).
pub fn presence_condition(table: &CTable, t: &Tuple) -> Condition {
    let t_terms: Vec<Term> = t.iter().map(|v| Term::Const(v.clone())).collect();
    Condition::or(
        table.rows().iter().map(|row| {
            Condition::and([algebra::tuples_eq(&row.tuple, &t_terms), row.cond.clone()])
        }),
    )
}

/// Builds the BDD engine's inputs for `vars`: the ladder [`FdEncoding`]
/// of each variable over its distribution's support, and the conditional
/// branch weights derived from the distributions. Errors with
/// [`ProbError::MissingDistribution`] on a variable without one.
///
/// Only the given variables are encoded: a condition cannot reference
/// anything else, and an independent variable it does not mention
/// contributes a probability factor of exactly 1.
pub(crate) fn bdd_ctx<W: Weight>(
    vars: &BTreeSet<Var>,
    dists: &BTreeMap<Var, FiniteSpace<Value, W>>,
) -> Result<(FdEncoding, Vec<(W, W)>), ProbError> {
    let used = vars
        .iter()
        .map(|v| {
            dists
                .get(v)
                .map(|d| (*v, d))
                .ok_or(ProbError::MissingDistribution(*v))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let enc = FdEncoding::new(
        used.iter()
            .map(|(v, d)| (*v, d.iter().map(|(val, _)| val.clone()).collect())),
    )?;
    let weights = enc.weights_from(
        used.iter()
            .flat_map(|(v, d)| d.iter().map(|(val, w)| (*v, val.clone(), w.clone()))),
    )?;
    Ok((enc, weights))
}

/// `P[φ]` over independent finite distributions of its variables: compile
/// `φ` under the ladder encoding of exactly the variables it mentions
/// and run weighted model counting.
///
/// Errors with [`ProbError::MissingDistribution`] if a variable of `φ`
/// has no distribution, and with [`ProbError::Overflow`] if exact weight
/// arithmetic leaves its representable range.
///
/// ```
/// use std::collections::BTreeMap;
/// use ipdb_logic::{Condition, Var};
/// use ipdb_prob::answering::prob_of_condition;
/// use ipdb_prob::{rat, FiniteSpace, Rat};
/// use ipdb_rel::Value;
///
/// // x uniform on {1, 2, 3, 4}; y a fair coin over {1, 2}.
/// let (x, y) = (Var(0), Var(1));
/// let quarter = |v: i64| (Value::from(v), rat!(1, 4));
/// let half = |v: i64| (Value::from(v), rat!(1, 2));
/// let dists = BTreeMap::from([
///     (x, FiniteSpace::new((1..=4).map(quarter)).unwrap()),
///     (y, FiniteSpace::new([half(1), half(2)]).unwrap()),
/// ]);
/// // P[x = y ∨ x = 4] = 2/8 + 1/4.
/// let phi = Condition::or([Condition::eq_vv(x, y), Condition::eq_vc(x, 4)]);
/// assert_eq!(prob_of_condition(&phi, &dists).unwrap(), rat!(1, 2));
/// ```
pub fn prob_of_condition<W: Weight>(
    cond: &Condition,
    dists: &BTreeMap<Var, FiniteSpace<Value, W>>,
) -> Result<W, ProbError> {
    let (enc, weights) = bdd_ctx(&cond.vars(), dists)?;
    let mut mgr = BddManager::new();
    let f = enc.compile(&mut mgr, cond)?;
    Ok(mgr.wmc(f, &weights)?)
}

/// The candidate answer tuples of a pc-table: every row's tuple grounded
/// over the domains (distribution supports) of its own tuple variables,
/// deduplicated in canonical order. Cheaper than materializing `Mod`,
/// and complete: every tuple with non-zero marginal is among these.
/// [`PcTable::marginals_bdd`] counts each one's presence condition.
pub(crate) fn candidate_tuples<W: Weight>(pc: &PcTable<W>) -> Result<BTreeSet<Tuple>, ProbError> {
    let mut out = BTreeSet::new();
    for row in pc.table().rows() {
        let mut row_vars: Vec<Var> = row.tuple.iter().filter_map(Term::as_var).collect();
        row_vars.sort_unstable();
        row_vars.dedup();
        let doms: BTreeMap<Var, Domain> = row_vars
            .iter()
            .map(|v| {
                let d = Domain::new(pc.dists()[v].iter().map(|(val, _)| val.clone()));
                (*v, d)
            })
            .collect();
        for nu in Valuation::all_over(&doms) {
            out.insert(row.apply(&nu)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pctable::BooleanPcTable;
    use crate::rat;
    use crate::rat::Rat;
    use crate::space::FiniteSpace;
    use ipdb_logic::VarGen;
    use ipdb_rel::{tuple, Pred, Query};
    use ipdb_tables::{t_const, t_var, BooleanCTable};

    fn uniform(vals: &[i64]) -> FiniteSpace<Value, Rat> {
        let n = vals.len() as i128;
        FiniteSpace::new(vals.iter().map(|v| (Value::from(*v), Rat::new(1, n)))).unwrap()
    }

    fn small_pc() -> PcTable<Rat> {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let table = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .row([t_const(9)], Condition::eq_vv(x, y))
            .build()
            .unwrap();
        PcTable::new(table, [(x, uniform(&[1, 2, 3])), (y, uniform(&[1, 2, 3]))]).unwrap()
    }

    #[test]
    fn presence_condition_shape() {
        let pc = small_pc();
        let c = presence_condition(pc.table(), &tuple![9]);
        // (9 = x ∧ true) ∨ (9 = 9 ∧ x = y) — first disjunct keeps x=9,
        // second folds to x=y.
        assert!(c.vars().len() == 2);
    }

    #[test]
    fn three_engines_agree_on_small_pc() {
        // Enumeration, the per-tuple BDD, and the shared-manager marginals.
        let pc = small_pc();
        let marginals: BTreeMap<Tuple, Rat> = pc.marginals_bdd().unwrap().into_iter().collect();
        for t in [tuple![1], tuple![2], tuple![9], tuple![7]] {
            let e = pc.tuple_prob_enum(&t).unwrap();
            assert_eq!(e, pc.tuple_prob_bdd(&t).unwrap(), "tuple {t}");
            assert_eq!(
                e,
                marginals.get(&t).copied().unwrap_or(Rat::ZERO),
                "tuple {t}"
            );
        }
        // Hand-checked: P[(1)] = P[x=1] = 1/3;
        // P[(9)] = P[x=y] = 1/3 (9 not in dom(x)).
        assert_eq!(pc.tuple_prob_bdd(&tuple![1]).unwrap(), rat!(1, 3));
        assert_eq!(pc.tuple_prob_bdd(&tuple![9]).unwrap(), rat!(1, 3));
    }

    #[test]
    fn bdd_engine_agrees_on_boolean_tables() {
        let (a, b) = (Var(0), Var(1));
        let mut bt = BooleanCTable::new(1);
        bt.push(
            tuple![1],
            Condition::or([Condition::bvar(a), Condition::bvar(b)]),
        )
        .unwrap();
        bt.push(
            tuple![2],
            Condition::and([Condition::bvar(a), Condition::nbvar(b)]),
        )
        .unwrap();
        let bpc = BooleanPcTable::new(bt, [(a, rat!(1, 2)), (b, rat!(1, 4))]).unwrap();
        let pc = bpc.as_pctable();
        for t in [tuple![1], tuple![2], tuple![3]] {
            let e = pc.tuple_prob_enum(&t).unwrap();
            assert_eq!(e, pc.tuple_prob_bdd(&t).unwrap(), "tuple {t}");
        }
        // P[(1)] = 1 - 1/2·3/4 = 5/8.
        assert_eq!(pc.tuple_prob_bdd(&tuple![1]).unwrap(), rat!(5, 8));
    }

    #[test]
    fn fd_bdd_engine_agrees_on_general_tables() {
        // small_pc has non-boolean atoms (x = 1, x = y) and a constant
        // outside dom(x) (the 9); every presence condition's probability
        // is the valuation-space mass of the valuations satisfying it.
        let pc = small_pc();
        let space = pc.valuation_space().unwrap();
        for t in [tuple![1], tuple![2], tuple![3], tuple![9], tuple![7]] {
            let cond = presence_condition(pc.table(), &t);
            let brute = space
                .iter()
                .filter(|(nu, _)| cond.eval(nu).unwrap())
                .fold(Rat::ZERO, |acc, (_, w)| acc + *w);
            assert_eq!(prob_of_condition(&cond, pc.dists()).unwrap(), brute);
            assert_eq!(pc.tuple_prob_bdd(&t).unwrap(), brute, "tuple {t}");
        }
    }

    #[test]
    fn answer_dist_bdd_matches_enum() {
        let pc = small_pc();
        for q in [
            Query::Input,
            Query::select(Query::Input, Pred::neq_const(0, 9)),
            Query::union(Query::Input, Query::Lit(ipdb_rel::instance![[2]])),
        ] {
            let bdd = pc.answer_dist_bdd(&q).unwrap();
            assert_eq!(bdd, pc.answer_dist_enum(&q).unwrap(), "query {q}");
        }
    }

    #[test]
    fn prob_of_condition_basics() {
        let x = Var(0);
        let dists = BTreeMap::from([(x, uniform(&[1, 2, 3, 4]))]);
        assert_eq!(
            prob_of_condition(&Condition::eq_vc(x, 1), &dists).unwrap(),
            rat!(1, 4)
        );
        assert_eq!(
            prob_of_condition(&Condition::neq_vc(x, 1), &dists).unwrap(),
            rat!(3, 4)
        );
        assert_eq!(
            prob_of_condition(&Condition::True, &dists).unwrap(),
            Rat::ONE
        );
        assert_eq!(
            prob_of_condition(&Condition::eq_vc(x, 77), &dists).unwrap(),
            Rat::ZERO
        );
        // A variable compared with itself needs no branching but still
        // needs a distribution.
        assert_eq!(
            prob_of_condition(&Condition::eq_vv(x, x), &dists).unwrap(),
            Rat::ONE
        );
        assert_eq!(
            prob_of_condition(&Condition::eq_vc(Var(9), 1), &dists),
            Err(ProbError::MissingDistribution(Var(9)))
        );
    }

    #[test]
    fn prob_of_condition_var_var_atoms_over_partly_shared_domains() {
        // x uniform on {1,2,3}; y on {2: 1/2, 3: 1/4, 4: 1/4}. Only the
        // shared values 2 and 3 can make x = y.
        let (x, y) = (Var(0), Var(1));
        let y_dist = FiniteSpace::new([
            (Value::from(2), rat!(1, 2)),
            (Value::from(3), rat!(1, 4)),
            (Value::from(4), rat!(1, 4)),
        ])
        .unwrap();
        let dists = BTreeMap::from([(x, uniform(&[1, 2, 3])), (y, y_dist)]);
        let eq = Condition::eq_vv(x, y);
        // 1/3 · 1/2 + 1/3 · 1/4 = 1/4.
        assert_eq!(prob_of_condition(&eq, &dists).unwrap(), rat!(1, 4));
        assert_eq!(
            prob_of_condition(&Condition::Not(Box::new(eq)), &dists).unwrap(),
            rat!(3, 4)
        );
        // x = y ∧ y = 4 is impossible: 4 ∉ dom(x).
        let c = Condition::and([Condition::eq_vv(x, y), Condition::eq_vc(y, 4)]);
        assert_eq!(prob_of_condition(&c, &dists).unwrap(), Rat::ZERO);
    }

    #[test]
    fn answer_dist_bdd_on_query() {
        let pc = small_pc();
        // σ_{#1≠9}(V): drops the 9 row unless... keeps x-row tuples ≠ 9.
        let q = Query::select(Query::Input, Pred::neq_const(0, 9));
        let m = pc.answer_dist_bdd(&q).unwrap();
        // Possible answers: 1, 2, 3 each with P = 1/3.
        assert_eq!(m.len(), 3);
        for (t, p) in &m {
            assert_eq!(*p, rat!(1, 3), "tuple {t}");
        }
    }

    #[test]
    fn answer_dist_bdd_matches_mod_space() {
        let pc = small_pc();
        let q = Query::union(Query::Input, Query::Lit(ipdb_rel::instance![[2]]));
        let m = pc.answer_dist_bdd(&q).unwrap();
        let answered = pc.eval_query(&q).unwrap().mod_space().unwrap();
        for (t, p) in &m {
            assert_eq!(*p, answered.tuple_prob(t), "tuple {t}");
        }
        // And (2) is now certain.
        assert!(m.contains(&(tuple![2], Rat::ONE)));
    }
}
