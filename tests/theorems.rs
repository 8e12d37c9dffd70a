//! Cross-crate theorem pipelines (E05–E12, E16–E17): randomized
//! end-to-end checks that chain several constructions together.

use proptest::prelude::*;

use ipdb::prelude::*;
use ipdb::rel::strategies::{arb_idb, arb_query};
use ipdb::rel::Fragment;
use ipdb::tables::strategies::arb_ctable;
use ipdb::tables::RepresentationSystem;
use ipdb::theory::{completion, finite_complete, ra_complete};

/// Non-empty random finite i-databases (every representation has ≥ 1
/// world).
fn arb_target() -> impl Strategy<Value = IDatabase> {
    arb_idb(2, 3, 2, 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// E05 — Thms 1+2 round trip: T → q (Thm 1) → q̄(Z_k) (Thm 2) ≡ T.
    #[test]
    fn e05_ra_completeness_round_trip(t in arb_ctable(1, 2, 2, 1)) {
        let (q, k) = ra_complete::theorem1_query(&t).unwrap();
        prop_assert!(Fragment::SPJU.admits_query(&q, k).unwrap());
        let mut gen = VarGen::avoiding(t.vars());
        let back = ra_complete::theorem2_table(&q, k, &mut gen).unwrap();
        prop_assert!(back.equivalent_to(&t).unwrap());
    }

    /// E06 — Thm 3: random finite target → boolean c-table → Mod equals
    /// target.
    #[test]
    fn e06_theorem3_round_trip(target in arb_target()) {
        let t = finite_complete::theorem3_table(&target, &mut VarGen::new()).unwrap();
        prop_assert_eq!(t.worlds().unwrap(), target);
    }

    /// E10 — Thm 5: both RA-completion constructions represent the input
    /// c-table within their fragments.
    #[test]
    fn e10_ra_completion(t in arb_ctable(1, 2, 2, 1)) {
        let mut gen = VarGen::avoiding(t.vars());
        let (codd, q1) = completion::ra_completion_codd_spju(&t, &mut gen).unwrap();
        prop_assert!(codd.is_codd());
        prop_assert!(Fragment::SPJU.admits_query(&q1, codd.arity()).unwrap());
        prop_assert!(codd.eval_query(&q1).unwrap().equivalent_to(&t).unwrap());

        let (vt, q2) = completion::ra_completion_vtable_sp(&t).unwrap();
        prop_assert!(vt.is_v_table());
        prop_assert!(Fragment::SP.admits_query(&q2, vt.arity()).unwrap());
        prop_assert!(vt.eval_query(&q2).unwrap().equivalent_to(&t).unwrap());
    }

    /// E11 — Thm 6: all four finite-completion constructions hit the
    /// target inside their fragments.
    #[test]
    fn e11_finite_completion_all_systems(target in arb_target()) {
        // 6.1 or-set + PJ.
        let (s, t, q) = completion::finite_completion_orset_pj(&target).unwrap();
        prop_assert!(Fragment::PJ.admits(q.op_set()));
        let img = completion::image_of_pair(&q, &s.worlds().unwrap(), &t.worlds().unwrap())
            .unwrap();
        prop_assert_eq!(img, target.clone());

        // 6.2 finite v-tables + PJ and + S⁺P.
        let mut gen = VarGen::new();
        let (s, t, q) = completion::finite_completion_finitev_pj(&target, &mut gen).unwrap();
        let img = completion::image_of_pair(
            &q,
            &s.mod_finite().unwrap(),
            &t.mod_finite().unwrap(),
        )
        .unwrap();
        prop_assert_eq!(img, target.clone());

        let (s, q) = completion::finite_completion_finitev_sp(&target, &mut gen).unwrap();
        prop_assert!(Fragment::S_PLUS_P.admits_query(&q, s.arity()).unwrap());
        prop_assert_eq!(q.eval_idb(&s.mod_finite().unwrap()).unwrap(), target.clone());

        // 6.3 R_sets + PJ and + PU.
        let (s, t, q) = completion::finite_completion_rsets_pj(&target).unwrap();
        prop_assert!(Fragment::PJ.admits(q.op_set()));
        let img = completion::image_of_pair(&q, &s.worlds().unwrap(), &t.worlds().unwrap())
            .unwrap();
        prop_assert_eq!(img, target.clone());

        let (s, q) = completion::finite_completion_rsets_pu(&target).unwrap();
        prop_assert!(Fragment::PU.admits(q.op_set()));
        prop_assert_eq!(q.eval_idb(&s.worlds().unwrap()).unwrap(), target.clone());
    }

    /// E11 — Thm 6.4: R⊕≡ + S⁺PJ (kept to small targets: world
    /// enumeration is exponential in the duplicated-tuple count).
    #[test]
    fn e11_finite_completion_rxor(target in arb_idb(1, 2, 2, 1)) {
        let (t, s, q) = completion::finite_completion_rxor_spj_pair(&target).unwrap();
        prop_assert!(Fragment::S_PLUS_PJ.admits(q.op_set()));
        let img = completion::image_of_pair(&q, &t.worlds().unwrap(), &s.worlds().unwrap())
            .unwrap();
        prop_assert_eq!(img, target);
    }

    /// E12 — Thm 7 + Cor. 1: ?-tables closed under RA are finitely
    /// complete.
    #[test]
    fn e12_general_completion(target in arb_target()) {
        let (host, q) = completion::corollary1_qtable(&target).unwrap();
        prop_assert_eq!(q.eval_idb(&host.worlds().unwrap()).unwrap(), target);
    }

    /// E08 — Thm 4 through the façade: Mod(q̄(T)) = q(Mod(T)) with
    /// finite domains.
    #[test]
    fn e08_closure(
        t in ipdb::tables::strategies::arb_finite_ctable(2, 3, 2, 1),
        q in arb_query(2, 2, 2, 1)
    ) {
        let lhs = t.eval_query(&q).unwrap().mod_finite().unwrap();
        let rhs = q.eval_idb(&t.mod_finite().unwrap()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Chained pipeline: Thm 3 → Thm 4 → Thm 3 — querying a
    /// finitely-complete representation and re-representing the answer.
    #[test]
    fn pipeline_thm3_query_thm3(
        target in arb_target(),
        q in arb_query(2, 2, 2, 1)
    ) {
        let mut gen = VarGen::new();
        let table = finite_complete::theorem3_table(&target, &mut gen).unwrap();
        let answered = table.as_ctable().eval_query(&q).unwrap();
        let answer_worlds = answered.mod_finite().unwrap();
        prop_assert_eq!(answer_worlds.clone(), q.eval_idb(&target).unwrap());
        // Round-trip the answer through Thm 3 again.
        let again = finite_complete::theorem3_table(&answer_worlds, &mut gen).unwrap();
        prop_assert_eq!(again.worlds().unwrap(), answer_worlds);
    }
}

/// E07 — Example 5 series (small sizes; the experiments harness sweeps
/// m up to 10).
#[test]
fn e07_example5_blowup() {
    for (m, n) in [(2usize, 2i64), (2, 3), (3, 2)] {
        let mut gen = VarGen::new();
        let finite = finite_complete::example5_finite_ctable(m, n, &mut gen);
        let boolean = finite_complete::example5_boolean_equivalent(m, n, &mut gen).unwrap();
        let cells_finite = finite.len() * finite.arity();
        let expected_rows = (n as usize).pow(m as u32);
        assert_eq!(boolean.len(), expected_rows, "m={m} n={n}");
        assert!(cells_finite < expected_rows || m * (n as usize) <= 4);
        assert_eq!(
            boolean.worlds().unwrap(),
            finite.mod_finite().unwrap(),
            "m={m} n={n}"
        );
    }
}
