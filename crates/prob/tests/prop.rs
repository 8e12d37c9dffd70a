//! Property tests for the probabilistic layer: the BDD engine agrees
//! with valuation enumeration, and Theorems 8–9 hold on random inputs,
//! all with exact rationals.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ipdb_logic::strategies::arb_condition;
use ipdb_logic::{Condition, Valuation, Var, VarGen};
use ipdb_prob::answering::prob_of_condition;
use ipdb_prob::{rat, theorem8_table, BooleanPcTable, FiniteSpace, PDatabase, PcTable, Rat};
use ipdb_rel::strategies::{arb_instance, arb_query};
use ipdb_rel::{Domain, Tuple, Value};
use ipdb_tables::strategies::{arb_boolean_ctable, arb_finite_ctable};

/// A random exact probability `k/8` with `k ∈ 0..=8`.
fn arb_prob() -> impl Strategy<Value = Rat> {
    (0i128..=8).prop_map(|k| Rat::new(k, 8))
}

/// A random pc-table: finite-domain c-table + uniform-ish distributions
/// over each variable's domain.
fn arb_pctable() -> impl Strategy<Value = PcTable<Rat>> {
    arb_finite_ctable(1, 3, 2, 2).prop_map(|t| {
        let dists: Vec<(Var, FiniteSpace<Value, Rat>)> = t
            .vars()
            .into_iter()
            .map(|v| {
                let dom = &t.domains()[&v];
                let n = dom.len() as i128;
                let d = FiniteSpace::new(dom.iter().map(|val| (val.clone(), Rat::new(1, n))))
                    .expect("uniform sums to 1");
                (v, d)
            })
            .collect();
        PcTable::new(t, dists).expect("all vars have dists")
    })
}

/// A random boolean pc-table with probabilities in eighths.
fn arb_boolean_pctable() -> impl Strategy<Value = BooleanPcTable<Rat>> {
    arb_boolean_ctable(1, 3, 3, 2).prop_flat_map(|t| {
        let vars: Vec<Var> = t.vars().into_iter().collect();
        proptest::collection::vec(arb_prob(), vars.len()).prop_map(move |ps| {
            BooleanPcTable::new(t.clone(), vars.iter().copied().zip(ps))
                .expect("valid boolean pc-table")
        })
    })
}

/// A random finite-domain condition over `x0..x2` with its variables'
/// distributions. The domains `{0,1}`, `{0,1}`, `{1,2}` only partly
/// overlap, so var–var atoms can fail for lack of a shared value, and
/// the condition's constants range over `0..=3`, so `3` (and `2` or `0`
/// for some variables) lies outside the domain.
fn arb_condition_with_dists(
) -> impl Strategy<Value = (Condition, BTreeMap<Var, FiniteSpace<Value, Rat>>)> {
    (
        arb_condition(3, 3, 3),
        proptest::collection::vec(arb_prob(), 3),
    )
        .prop_map(|(c, ps)| {
            let dists = [(0, 1), (0, 1), (1, 2)]
                .into_iter()
                .zip(ps)
                .enumerate()
                .map(|(i, ((a, b), p))| {
                    let d = FiniteSpace::bernoulli(Value::from(a), Value::from(b), p)
                        .expect("p is a probability");
                    (Var(i as u32), d)
                })
                .collect();
            (c, dists)
        })
}

/// A random p-database over arity-1 instances with rational masses.
fn arb_pdatabase() -> impl Strategy<Value = PDatabase<Rat>> {
    proptest::collection::vec(arb_instance(1, 2, 2), 1..=4).prop_map(|worlds| {
        // Give world i mass proportional to i+1, normalized exactly.
        let total: i128 = (1..=worlds.len() as i128).sum();
        PDatabase::from_outcomes(
            1,
            worlds
                .into_iter()
                .enumerate()
                .map(|(i, w)| (w, Rat::new(i as i128 + 1, total))),
        )
        .expect("masses sum to 1")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Enumeration and the BDD engine agree on arbitrary pc-tables.
    #[test]
    fn engines_agree_on_pctables(pc in arb_pctable(), probe in 0i64..=2) {
        let t = Tuple::new([probe]);
        prop_assert_eq!(pc.tuple_prob_enum(&t).unwrap(), pc.tuple_prob_bdd(&t).unwrap());
    }

    /// Enumeration and the BDD engine agree on boolean pc-tables.
    #[test]
    fn engines_agree_on_boolean(bpc in arb_boolean_pctable(), probe in 0i64..=2) {
        let t = Tuple::new([probe]);
        let pc = bpc.as_pctable();
        prop_assert_eq!(pc.tuple_prob_enum(&t).unwrap(), pc.tuple_prob_bdd(&t).unwrap());
    }

    /// `P[φ]` from the BDD engine equals the sum, over the valuations of
    /// `φ`'s variables that satisfy it, of their product probability.
    #[test]
    fn prob_of_condition_matches_enumeration((c, dists) in arb_condition_with_dists()) {
        let doms: BTreeMap<Var, Domain> = c
            .vars()
            .into_iter()
            .map(|v| (v, Domain::new(dists[&v].iter().map(|(val, _)| val.clone()))))
            .collect();
        let mut brute = Rat::ZERO;
        for nu in Valuation::all_over(&doms) {
            if c.eval(&nu).unwrap() {
                let w = doms
                    .keys()
                    .fold(Rat::ONE, |w, v| w * dists[v].prob(nu.get(*v).unwrap()));
                brute = brute + w;
            }
        }
        prop_assert_eq!(prob_of_condition(&c, &dists).unwrap(), brute);
    }

    /// **Theorem 8**: the constructed boolean pc-table has exactly the
    /// input distribution.
    #[test]
    fn theorem8_round_trips(db in arb_pdatabase()) {
        let t = theorem8_table(&db, &mut VarGen::new()).unwrap();
        prop_assert!(t.mod_space().unwrap().same_distribution(&db));
    }

    /// **Theorem 9**: `Mod(q̄(T))` equals the image of `Mod(T)` under `q`
    /// as distributions.
    #[test]
    fn theorem9_closure(pc in arb_pctable(), q in arb_query(1, 2, 2, 2)) {
        let lhs = pc.eval_query(&q).unwrap().mod_space().unwrap();
        let rhs = pc.mod_space().unwrap().map_query(&q).unwrap();
        prop_assert!(lhs.same_distribution(&rhs));
    }

    /// Mod of a pc-table always has total mass exactly 1.
    #[test]
    fn mod_mass_is_one(pc in arb_pctable()) {
        prop_assert_eq!(pc.mod_space().unwrap().space().total_mass(), Rat::ONE);
    }

    /// Theorem 8 composed with Theorem 9: query the reconstructed table,
    /// same answer distribution as querying the original p-database.
    #[test]
    fn thm8_thm9_compose(db in arb_pdatabase(), q in arb_query(1, 1, 2, 2)) {
        let t = theorem8_table(&db, &mut VarGen::new()).unwrap();
        let via_table = t.eval_query(&q).unwrap().mod_space().unwrap();
        let direct = db.map_query(&q).unwrap();
        prop_assert!(via_table.same_distribution(&direct));
    }
}

#[test]
fn paper_dirac_degenerate_case() {
    // Degenerate but legal: a variable with a single-outcome space.
    let mut g = VarGen::new();
    let x = g.fresh();
    let table = ipdb_tables::CTable::builder(1)
        .row([ipdb_tables::t_var(x)], ipdb_logic::Condition::True)
        .build()
        .unwrap();
    let pc: PcTable<Rat> = PcTable::new(table, [(x, FiniteSpace::dirac(Value::from(5)))]).unwrap();
    let m = pc.mod_space().unwrap();
    assert_eq!(m.len(), 1);
    assert_eq!(m.tuple_prob(&ipdb_rel::tuple![5]), rat!(1));
}
