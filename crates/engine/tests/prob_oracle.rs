//! Differential probability oracle: the BDD fast path against valuation
//! enumeration.
//!
//! `Prepared::answer_dist_catalog` computes answer distributions by
//! compiling every answer tuple's presence condition under the
//! finite-domain ladder encoding and weighted-model-counting it;
//! `Prepared::answer_dist_catalog_enum` walks the §8 valuation product
//! space. A single pc-table runs as the catalog `{V: pc}`.
//! For exact rational weights the two must agree *exactly* — any
//! discrepancy in the value cubes, the conditional level weights, or
//! WMC's handling of skipped levels shows up as a distribution mismatch
//! here. Queries come
//! from `arb_query` (the same generator as the optimizer-equivalence
//! props), so the oracle also exercises the c-table executor, whose
//! operators build no row whose condition is `false`, and the optimizer
//! on the probabilistic path.
//!
//! Soak with `PROPTEST_CASES=256 cargo test -p ipdb-engine --test
//! prob_oracle`.

use proptest::prelude::*;

use ipdb_engine::{Backend, Catalog, Engine, Schema};
use ipdb_prob::{FiniteSpace, PcTable, Rat};
use ipdb_rel::strategies::{arb_catalog_case, arb_query};
use ipdb_rel::{Query, Tuple, Value};
use ipdb_tables::strategies::arb_finite_ctable;
use ipdb_tables::CTable;

/// Non-uniform exact-rational distributions: value `i` of a domain of
/// size `n` gets probability `(i+1) / (1 + 2 + … + n)` — every weight
/// distinct, so index mix-ups in the encoding cannot cancel out.
fn skewed_pctable(t: &CTable) -> PcTable<Rat> {
    let dists: Vec<_> = t
        .domains()
        .iter()
        .map(|(v, dom)| {
            let n = dom.len() as i128;
            let total = n * (n + 1) / 2;
            let d = FiniteSpace::new(
                dom.iter()
                    .enumerate()
                    .map(|(i, val)| (val.clone(), Rat::new(i as i128 + 1, total))),
            )
            .expect("triangular masses sum to 1");
            (*v, d)
        })
        .collect();
    PcTable::new(t.clone(), dists).expect("every variable has a domain")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Acceptance criterion: BDD-path answer distributions exactly equal
    /// valuation enumeration on random pc-tables and random queries.
    /// Domains have four values, so a value's cube spans up to three
    /// levels and every level's conditional weight differs.
    #[test]
    fn bdd_distribution_equals_enumeration(
        q in arb_query(2, 2, 3, 2),
        t in arb_finite_ctable(2, 3, 3, 3),
    ) {
        let cat = Catalog::single(skewed_pctable(&t));
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        let bdd = stmt.answer_dist_catalog(&cat).unwrap();
        let brute = stmt.answer_dist_catalog_enum(&cat).unwrap();
        prop_assert_eq!(bdd, brute, "query {}", q);
    }

    /// Per-tuple agreement on the raw table (no query in between):
    /// `tuple_prob_bdd` equals `tuple_prob_enum` for every possible
    /// tuple, and for impossible probes both report zero.
    #[test]
    fn tuple_probs_agree_on_raw_tables(t in arb_finite_ctable(2, 4, 3, 2)) {
        let pc = skewed_pctable(&t);
        for (tuple, p_enum) in pc.answer_dist_enum(&Query::Input).unwrap() {
            let p_bdd = pc.tuple_prob_bdd(&tuple).unwrap();
            prop_assert_eq!(p_bdd, p_enum, "tuple {}", tuple);
        }
        let absent = Tuple::new([Value::from(77), Value::from(77)]);
        prop_assert_eq!(pc.tuple_prob_bdd(&absent).unwrap(), Rat::ZERO);
        prop_assert_eq!(pc.tuple_prob_enum(&absent).unwrap(), Rat::ZERO);
    }

    /// Engine executor vs plain Theorem 9 closure: the executor
    /// (`Backend::execute`, behind `Backend::run_catalog`) induces
    /// exactly the same answer distribution as the term-at-a-time
    /// `PcTable::eval_query` — dropping a `false` row and a variable it
    /// alone mentioned must never change the induced distribution.
    #[test]
    fn pruned_executor_preserves_distributions(
        q in arb_query(2, 2, 2, 2),
        t in arb_finite_ctable(2, 2, 2, 2),
    ) {
        let pc = skewed_pctable(&t);
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        let plain = pc.eval_query(&q).unwrap().mod_space().unwrap();
        let run = PcTable::run_catalog(&Catalog::single(pc), stmt.naive_query())
            .unwrap()
            .mod_space()
            .unwrap();
        prop_assert!(
            run.same_distribution(&plain),
            "executor changed the distribution of {}", q
        );
    }

    /// The BDD path is invariant under optimization: the optimized and
    /// naive plans induce the same BDD-computed distribution.
    #[test]
    fn bdd_distribution_invariant_under_optimizer(
        q in arb_query(2, 2, 2, 2),
        t in arb_finite_ctable(2, 2, 2, 1),
    ) {
        let cat = Catalog::single(skewed_pctable(&t));
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        prop_assert_eq!(
            stmt.answer_dist_catalog(&cat).unwrap(),
            PcTable::run_catalog(&cat, stmt.naive_query()).unwrap().marginals_bdd().unwrap(),
            "query {}", q
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Acceptance criterion, catalog form: over random multi-relation
    /// schemas, the catalog BDD path (one shared manager, merged
    /// variable namespace) produces exactly the enumeration
    /// distribution, and is invariant under optimization. Relations
    /// draw variables from one shared pool, so they overlap: the skewed
    /// distributions coincide on shared variables (they depend only on
    /// the — identical — domains), which is exactly the catalog's
    /// shared-namespace contract.
    #[test]
    fn catalog_bdd_distribution_equals_enumeration(
        (schema, q, t0, t1, t2) in arb_catalog_case(2, 2, 2, |a| arb_finite_ctable(a, 2, 2, 2))
    ) {
        let s = Schema::new(schema.clone()).unwrap();
        let on = Engine::new().prepare_schema(&q, &s).unwrap();
        let cat: Catalog<PcTable<Rat>> = schema
            .iter()
            .zip([&t0, &t1, &t2])
            .map(|((n, _), t)| (n.clone(), skewed_pctable(t)))
            .collect();
        let bdd = on.answer_dist_catalog(&cat).unwrap();
        prop_assert_eq!(
            bdd.clone(),
            on.answer_dist_catalog_enum(&cat).unwrap(),
            "BDD vs enumeration on catalog query {}", q
        );
        prop_assert_eq!(
            bdd,
            PcTable::run_catalog(&cat, on.naive_query()).unwrap().marginals_bdd().unwrap(),
            "optimizer changed the catalog distribution of {}", q
        );
    }
}
