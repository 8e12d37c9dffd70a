//! The experiments harness: reproduces every example and theorem of
//! Green & Tannen (EDBT 2006) and prints a paper-vs-measured report —
//! the source of `EXPERIMENTS.md`.
//!
//! Run with `cargo run --release -p ipdb-bench --bin experiments`.

use std::collections::BTreeMap;
use std::time::Instant;

use ipdb_bench::{random_boolean_pctable, random_idb, random_pctable};
use ipdb_core::{completion, finite_complete, nonclosure, ra_complete};
use ipdb_logic::{Condition, Var, VarGen};
use ipdb_prob::extensional::{
    exact_prob, forced_extensional, lifted_prob, BoolCq, CqArg, CqAtom, ProbDb,
};
use ipdb_prob::{theorem8_table, FiniteSpace, PDatabase, POrSetTable, PTable, PcTable, Rat};
use ipdb_provenance::connection;
use ipdb_rel::{instance, tuple, Domain, Fragment, IDatabase, Pred, Query, Tuple, Value};
use ipdb_tables::{t_const, t_var, CTable, OrSetQTable, OrSetValue, RepresentationSystem};

fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

fn check(label: &str, ok: bool) {
    assert!(ok, "EXPERIMENT FAILED: {label}");
    println!("  [ok] {label}");
}

fn example2_table() -> CTable {
    let (x, y, z) = (Var(0), Var(1), Var(2));
    CTable::builder(3)
        .row([t_const(1), t_const(2), t_var(x)], Condition::True)
        .row(
            [t_const(3), t_var(x), t_var(y)],
            Condition::and([Condition::eq_vv(x, y), Condition::neq_vc(z, 2)]),
        )
        .row(
            [t_var(z), t_const(4), t_const(5)],
            Condition::or([Condition::neq_vc(x, 1), Condition::neq_vv(x, y)]),
        )
        .build()
        .unwrap()
}

fn main() {
    println!("ipdb experiments — Green & Tannen, EDBT 2006");
    println!("every check below asserts; reaching the end means all experiments hold");
    let t0 = Instant::now();

    e01_e02_examples_1_2();
    e03_example3();
    e04_e05_ra_completeness();
    e06_theorem3();
    e07_example5();
    e08_closure();
    e09_nonclosure();
    e10_e12_completion();
    e13_prop4();
    e14_e15_example6();
    e16_theorem8();
    e17_theorem9();
    e18_running_example();
    e19_provenance();
    e20_extensional();
    e21_global_conditions();
    e22_chain_pctables();
    e23_possibilistic();

    println!("\nall experiments passed in {:.2?}", t0.elapsed());
}

fn e01_e02_examples_1_2() {
    banner("E01/E02", "Examples 1–2: v-table and c-table semantics");
    let (x, y, z) = (Var(0), Var(1), Var(2));
    let r = CTable::v_table(
        3,
        [
            vec![t_const(1), t_const(2), t_var(x)],
            vec![t_const(3), t_var(x), t_var(y)],
            vec![t_var(z), t_const(4), t_const(5)],
        ],
    )
    .unwrap();
    let slice = Domain::new([1i64, 2, 77, 89, 97]);
    let r_worlds = r.mod_over(&slice).unwrap();
    println!("  Mod(R) over {slice}: {} worlds", r_worlds.len());
    check(
        "paper world (1,2,77)(3,77,89)(97,4,5) ∈ Mod(R)",
        r_worlds.contains(&instance![[1, 2, 77], [3, 77, 89], [97, 4, 5]]),
    );
    let s = example2_table();
    let s_worlds = s.mod_over(&slice).unwrap();
    println!("  Mod(S) over {slice}: {} worlds", s_worlds.len());
    check(
        "paper world (1,2,1)(3,1,1) ∈ Mod(S)",
        s_worlds.contains(&instance![[1, 2, 1], [3, 1, 1]]),
    );
    check(
        "paper world (1,2,77)(97,4,5) ∈ Mod(S)",
        s_worlds.contains(&instance![[1, 2, 77], [97, 4, 5]]),
    );
    check(
        "conditions prune: fewer worlds than the v-table",
        s_worlds.len() < r_worlds.len(),
    );
}

fn e03_example3() {
    banner("E03", "Example 3: or-set-?-table semantics");
    let os = |vals: &[i64]| OrSetValue::new(vals.iter().copied()).unwrap();
    let t = OrSetQTable::from_rows(
        3,
        [
            (vec![os(&[1]), os(&[2]), os(&[1, 2])], false),
            (vec![os(&[3]), os(&[1, 2]), os(&[3, 4])], false),
            (vec![os(&[4, 5]), os(&[4]), os(&[5])], true),
        ],
    )
    .unwrap();
    let worlds = t.worlds().unwrap();
    println!(
        "  |Mod(T)| = {} (≤ 2·4·3 = 24 raw combinations)",
        worlds.len()
    );
    check(
        "paper's 4 displayed members present",
        [
            instance![[1, 2, 1], [3, 1, 3], [4, 4, 5]],
            instance![[1, 2, 1], [3, 1, 3]],
            instance![[1, 2, 2], [3, 1, 3], [4, 4, 5]],
            instance![[1, 2, 2], [3, 2, 4]],
        ]
        .iter()
        .all(|w| worlds.contains(w)),
    );
    let mut gen = VarGen::new();
    check(
        "c-table embedding preserves Mod (§3 equivalence)",
        t.to_ctable(&mut gen).unwrap().mod_finite().unwrap() == worlds,
    );
}

fn e04_e05_ra_completeness() {
    banner(
        "E04/E05",
        "Thms 1–2 + Example 4: RA-completeness of c-tables",
    );
    let s = example2_table();
    let verbatim = ra_complete::example4_query();
    let (generic, k) = ra_complete::theorem1_query(&s).unwrap();
    println!(
        "  Thm 1 query: size {} (paper's hand query: size {})",
        generic.size(),
        verbatim.size()
    );
    check(
        "generic Thm 1 query lies in SPJU",
        Fragment::SPJU.admits_query(&generic, k).unwrap(),
    );
    for slice in [Domain::ints(1..=3), Domain::new([1i64, 2, 5, 42])] {
        let z = IDatabase::z_k_over(&slice, 3);
        let mod_s = s.mod_over(&slice).unwrap();
        check(
            &format!("q(Z₃) = Mod(S) over {slice} (verbatim Example 4)"),
            verbatim.eval_idb(&z).unwrap() == mod_s,
        );
        check(
            &format!("q(Z₃) = Mod(S) over {slice} (generic Thm 1)"),
            generic.eval_idb(&z).unwrap() == mod_s,
        );
    }
    // Thm 2: q̄(Z₃) is a c-table equivalent to S.
    let mut gen = VarGen::avoiding(s.vars());
    let back = ra_complete::theorem2_table(&generic, k, &mut gen).unwrap();
    check(
        "Thm 2: q̄(Z₃) ≡ S as i-databases",
        back.equivalent_to(&s).unwrap(),
    );
}

fn e06_theorem3() {
    banner("E06", "Thm 3: boolean c-tables are finitely complete");
    for (i, seed) in [(3usize, 7u64), (5, 8), (8, 9)].iter().enumerate() {
        let target = random_idb(seed.0, 2, 3, 5, 0xE06 + i as u64);
        let t = finite_complete::theorem3_table(&target, &mut VarGen::new()).unwrap();
        check(
            &format!(
                "random target #{i} ({} worlds) → boolean c-table with {} vars, Mod equal",
                target.len(),
                t.vars().len()
            ),
            t.worlds().unwrap() == target,
        );
    }
}

fn e07_example5() {
    banner("E07", "Example 5: succinctness (m cells vs nᵐ rows)");
    println!("  n = 2 throughout; finite c-table has m cells, boolean equivalent nᵐ rows");
    println!(
        "  {:>3} {:>12} {:>14} {:>12}",
        "m", "finite cells", "boolean rows", "build time"
    );
    for m in [2usize, 4, 6, 8, 10] {
        let mut gen = VarGen::new();
        let finite = finite_complete::example5_finite_ctable(m, 2, &mut gen);
        let t = Instant::now();
        let boolean = finite_complete::example5_boolean_equivalent(m, 2, &mut gen).unwrap();
        let dt = t.elapsed();
        let cells = finite.len() * finite.arity();
        println!(
            "  {:>3} {:>12} {:>14} {:>12.2?}",
            m,
            cells,
            boolean.len(),
            dt
        );
        assert_eq!(boolean.len(), 1usize << m);
        assert_eq!(cells, m);
    }
    check("boolean rows = 2ᵐ for every m (paper's nᵐ)", true);
}

fn e08_closure() {
    banner("E08", "Thm 4 + Lemma 1: closure under the c-table algebra");
    let q = Query::union(
        Query::project(
            Query::select(
                Query::product(Query::Input, Query::Input),
                Pred::eq_cols(1, 2),
            ),
            vec![0, 3],
        ),
        Query::diff(Query::Input, Query::Lit(instance![[1, 1]])),
    );
    let mut all_ok = true;
    for seed in 0..10u64 {
        let t = ipdb_bench::random_finite_ctable(3, 2, 3, 2, 0xE08 + seed);
        let lhs = t.eval_query(&q).unwrap().mod_finite().unwrap();
        let rhs = q.eval_idb(&t.mod_finite().unwrap()).unwrap();
        all_ok &= lhs == rhs;
    }
    check(
        "Mod(q̄(T)) = q(Mod(T)) on 10 random finite c-tables (full RA incl. −)",
        all_ok,
    );
}

fn e09_nonclosure() {
    banner("E09", "Prop. 1: non-closure witnesses with certificates");
    let sel = nonclosure::selection_witness().unwrap();
    check(
        &format!("selection witness escapes {} (emptiness lemma)", sel.system),
        nonclosure::unrepresentable_by_unconditional_tables(&sel.target),
    );
    let join = nonclosure::qtable_join_witness().unwrap();
    check(
        "join witness escapes ?-tables (exact decision)",
        nonclosure::qtable_representing(&join.target).is_none(),
    );
    check(
        "join witness escapes R_sets (singleton lemma)",
        nonclosure::rsets_unrepresentable_via_singletons(&join.target),
    );
    let t = Instant::now();
    let rxor = nonclosure::rxor_join_witness(4).unwrap();
    println!(
        "  bounded R⊕≡ search (≤4 tuples, mult ≤2, all ⊕/≡ assignments): {:.2?}",
        t.elapsed()
    );
    check(
        "join witness escapes R_⊕≡ (bounded search)",
        rxor.system == "R_⊕≡ (join)",
    );
}

fn e10_e12_completion() {
    banner(
        "E10–E12",
        "Thms 5–7 + Cor. 1: algebraic completion, fragment-checked",
    );
    // E10 on Example 2's table.
    let s = example2_table();
    let mut gen = VarGen::avoiding(s.vars());
    let (codd, q1) = completion::ra_completion_codd_spju(&s, &mut gen).unwrap();
    check(
        "Thm 5.1: Codd + SPJU reproduces Example 2's S",
        codd.is_codd()
            && Fragment::SPJU.admits_query(&q1, codd.arity()).unwrap()
            && codd.eval_query(&q1).unwrap().equivalent_to(&s).unwrap(),
    );
    let (vt, q2) = completion::ra_completion_vtable_sp(&s).unwrap();
    check(
        "Thm 5.2: v-table + SP reproduces Example 2's S",
        vt.is_v_table()
            && Fragment::SP.admits_query(&q2, vt.arity()).unwrap()
            && vt.eval_query(&q2).unwrap().equivalent_to(&s).unwrap(),
    );

    // E11 on random targets.
    let target = random_idb(4, 2, 2, 4, 0xE11);
    println!("  finite target: {} worlds, arity 2", target.len());
    let (os_s, os_t, q) = completion::finite_completion_orset_pj(&target).unwrap();
    check(
        "Thm 6.1: or-set + PJ",
        Fragment::PJ.admits(q.op_set())
            && completion::image_of_pair(&q, &os_s.worlds().unwrap(), &os_t.worlds().unwrap())
                .unwrap()
                == target,
    );
    let mut gen = VarGen::new();
    let (fv_s, fv_t, q) = completion::finite_completion_finitev_pj(&target, &mut gen).unwrap();
    check(
        "Thm 6.2a: finite v-tables + PJ",
        completion::image_of_pair(&q, &fv_s.mod_finite().unwrap(), &fv_t.mod_finite().unwrap())
            .unwrap()
            == target,
    );
    let (sp_s, q) = completion::finite_completion_finitev_sp(&target, &mut gen).unwrap();
    check(
        "Thm 6.2b: finite v-tables + S⁺P",
        Fragment::S_PLUS_P.admits_query(&q, sp_s.arity()).unwrap()
            && q.eval_idb(&sp_s.mod_finite().unwrap()).unwrap() == target,
    );
    let (rs_s, rs_t, q) = completion::finite_completion_rsets_pj(&target).unwrap();
    check(
        "Thm 6.3a: R_sets + PJ",
        Fragment::PJ.admits(q.op_set())
            && completion::image_of_pair(&q, &rs_s.worlds().unwrap(), &rs_t.worlds().unwrap())
                .unwrap()
                == target,
    );
    let (pu_s, q) = completion::finite_completion_rsets_pu(&target).unwrap();
    check(
        "Thm 6.3b: R_sets + PU",
        Fragment::PU.admits(q.op_set()) && q.eval_idb(&pu_s.worlds().unwrap()).unwrap() == target,
    );
    let small = random_idb(3, 1, 2, 3, 0xE114);
    let (xt, xs, q) = completion::finite_completion_rxor_spj_pair(&small).unwrap();
    check(
        "Thm 6.4: R_⊕≡ + S⁺PJ",
        Fragment::S_PLUS_PJ.admits(q.op_set())
            && completion::image_of_pair(&q, &xt.worlds().unwrap(), &xs.worlds().unwrap()).unwrap()
                == small,
    );
    // E12.
    let (host, q) = completion::corollary1_qtable(&target).unwrap();
    check(
        "Thm 7 / Cor. 1: ?-tables + RA",
        q.eval_idb(&host.worlds().unwrap()).unwrap() == target,
    );
}

fn e13_prop4() {
    banner("E13", "Prop. 4: q(N) = Z_n over finite slices");
    for n in [1usize, 2] {
        let t = Tuple::new(vec![1i64; n]);
        let q = ra_complete::prop4_query(n, &t).unwrap();
        let dom = Domain::ints(1..=2);
        let n_slice = IDatabase::all_instances_over(&dom, n, 2);
        check(
            &format!(
                "arity {n}: q over {} instances of N yields Z_{n}",
                n_slice.len()
            ),
            q.eval_idb(&n_slice).unwrap() == IDatabase::z_k_over(&dom, n),
        );
    }
}

fn e14_e15_example6() {
    banner(
        "E14/E15",
        "Example 6 + Prop. 2: p-or-set-tables and p-?-tables",
    );
    let t = PTable::from_rows(
        2,
        [
            (tuple![1, 2], Rat::new(4, 10)),
            (tuple![3, 4], Rat::new(3, 10)),
            (tuple![5, 6], Rat::ONE),
        ],
    )
    .unwrap();
    let mt = t.mod_space().unwrap();
    check(
        "P[{(1,2),(3,4),(5,6)}] = .4·.3·1 = 3/25",
        mt.world_prob(&instance![[1, 2], [3, 4], [5, 6]]) == Rat::new(12, 100),
    );
    check(
        "Prop. 2: marginals equal declared pₜ",
        t.rows().iter().all(|(tup, p)| mt.tuple_prob(tup) == *p),
    );
    let joint = mt
        .space()
        .prob_of(|w| w.contains(&tuple![1, 2]) && w.contains(&tuple![3, 4]));
    check(
        "Prop. 2: E_{(1,2)} and E_{(3,4)} independent",
        joint == Rat::new(4, 10) * Rat::new(3, 10),
    );
    let cell = |pairs: &[(i64, Rat)]| {
        FiniteSpace::new(pairs.iter().map(|(v, p)| (Value::from(*v), *p))).unwrap()
    };
    let s = POrSetTable::from_rows(
        2,
        [
            vec![
                FiniteSpace::dirac(Value::from(1)),
                cell(&[(2, Rat::new(3, 10)), (3, Rat::new(7, 10))]),
            ],
            vec![
                FiniteSpace::dirac(Value::from(4)),
                FiniteSpace::dirac(Value::from(5)),
            ],
            vec![
                cell(&[(6, Rat::new(1, 2)), (7, Rat::new(1, 2))]),
                cell(&[(8, Rat::new(1, 10)), (9, Rat::new(9, 10))]),
            ],
        ],
    )
    .unwrap();
    let ms = s.mod_space().unwrap();
    check("Example 6's S has 8 worlds, mass exactly 1", ms.len() == 8);
    check(
        "P[choices 3,7,9] = .7·.5·.9",
        ms.world_prob(&instance![[1, 3], [4, 5], [7, 9]])
            == Rat::new(7, 10) * Rat::new(1, 2) * Rat::new(9, 10),
    );
}

fn e16_theorem8() {
    banner("E16", "Thm 8: boolean pc-tables are complete");
    for seed in 0..5u64 {
        let worlds = random_idb(4, 1, 2, 3, 0xE16 + seed);
        let masses = [
            Rat::new(1, 10),
            Rat::new(2, 10),
            Rat::new(3, 10),
            Rat::new(4, 10),
        ];
        let db = PDatabase::from_outcomes(1, worlds.iter().cloned().zip(masses.iter().copied()))
            .unwrap();
        let t = theorem8_table(&db, &mut VarGen::new()).unwrap();
        assert!(t.mod_space().unwrap().same_distribution(&db));
    }
    check(
        "5 random p-databases round-trip exactly (rational arithmetic)",
        true,
    );
}

fn e17_theorem9() {
    banner("E17", "Thm 9: pc-tables are closed under RA");
    let q = Query::project(
        Query::select(
            Query::product(Query::Input, Query::Input),
            Pred::eq_cols(1, 2),
        ),
        vec![0, 3],
    );
    let mut all_ok = true;
    for seed in 0..5u64 {
        let pc = random_pctable(3, 2, 3, 2, 0xE17 + seed);
        let lhs = pc.eval_query(&q).unwrap().mod_space().unwrap();
        let rhs = pc.mod_space().unwrap().map_query(&q).unwrap();
        all_ok &= lhs.same_distribution(&rhs);
    }
    check(
        "Mod(q̄(T)) = q(Mod(T)) as distributions, 5 random pc-tables",
        all_ok,
    );

    // Engine agreement + a timing glimpse (tests/floors.rs compares the
    // engines' work by count).
    let bpc = random_boolean_pctable(6, 1, 10, 0xE17F);
    // Probe a tuple the table can actually produce.
    let probe = bpc.as_pctable().table().rows()[0]
        .tuple
        .iter()
        .map(|t| t.as_const().expect("boolean tables are ground").clone())
        .collect::<Tuple>();
    let pc = bpc.as_pctable();
    let t = Instant::now();
    let p1 = pc.tuple_prob_enum(&probe).unwrap();
    let d1 = t.elapsed();
    let t = Instant::now();
    let p2 = pc.tuple_prob_bdd(&probe).unwrap();
    let d2 = t.elapsed();
    println!("  10-var boolean pc-table, P[t] = {p1}: enum {d1:.2?}, fd-bdd {d2:.2?}");
    check("enumeration and the FD-BDD engine agree exactly", p1 == p2);
}

fn e18_running_example() {
    banner("E18", "§1 running example: Alice/Bob/Theo pc-table");
    let mut gen = VarGen::new();
    let x = gen.fresh();
    let t = gen.fresh();
    let table = CTable::builder(2)
        .row([t_const("Alice"), t_var(x)], Condition::True)
        .row(
            [t_const("Bob"), t_var(x)],
            Condition::or([Condition::eq_vc(x, "phys"), Condition::eq_vc(x, "chem")]),
        )
        .row([t_const("Theo"), t_const("math")], Condition::eq_vc(t, 1))
        .build()
        .unwrap();
    let pc = PcTable::new(
        table,
        [
            (
                x,
                FiniteSpace::new([
                    (Value::from("math"), Rat::new(3, 10)),
                    (Value::from("phys"), Rat::new(3, 10)),
                    (Value::from("chem"), Rat::new(4, 10)),
                ])
                .unwrap(),
            ),
            (
                t,
                FiniteSpace::new([
                    (Value::from(0), Rat::new(15, 100)),
                    (Value::from(1), Rat::new(85, 100)),
                ])
                .unwrap(),
            ),
        ],
    )
    .unwrap();
    let worlds = pc.mod_space().unwrap();
    println!("  {} worlds; marginals:", worlds.len());
    for (tup, p) in worlds.marginals() {
        println!("    P[{tup}] = {p}");
    }
    check("6 worlds (3 courses × Theo's coin)", worlds.len() == 6);
    check(
        "P[Bob phys] = 0.3, P[Theo math] = 0.85",
        worlds.tuple_prob(&tuple!["Bob", "phys"]) == Rat::new(3, 10)
            && worlds.tuple_prob(&tuple!["Theo", "math"]) == Rat::new(85, 100),
    );
}

fn e19_provenance() {
    banner(
        "E19",
        "§9: c-table conditions ≡ lineage (PosBool provenance)",
    );
    let doms: BTreeMap<Var, Domain> = (0..3).map(|i| (Var(i), Domain::bools())).collect();
    let q = Query::union(
        Query::project(
            Query::select(
                Query::product(Query::Input, Query::Input),
                Pred::eq_cols(1, 3),
            ),
            vec![0, 2],
        ),
        Query::project(Query::Input, vec![0, 0]),
    );
    let mut all_ok = true;
    for seed in 0..8u64 {
        let t = ipdb_bench::random_boolean_pctable(3, 2, 3, 0xE19 + seed);
        let mismatch =
            connection::conditions_match_provenance(t.as_pctable().table(), &q, &doms).unwrap();
        all_ok &= mismatch.is_none();
    }
    check(
        "q̄ conditions ≡ PosBool provenance on 8 random boolean tables (SPJU query)",
        all_ok,
    );
}

fn e20_extensional() {
    banner("E20", "§8 / [9]: safe plans vs exact lineage");
    let mut db = ProbDb::new();
    db.insert(
        "R",
        PTable::from_rows(1, (0..4i64).map(|i| (Tuple::new([i]), Rat::new(1, 2)))).unwrap(),
    );
    db.insert(
        "S",
        PTable::from_rows(
            2,
            (0..4i64).flat_map(|i| {
                [
                    (Tuple::new([i, 100 + i]), Rat::new(1, 2)),
                    (Tuple::new([i, 100 + ((i + 1) % 4)]), Rat::new(1, 4)),
                ]
            }),
        )
        .unwrap(),
    );
    db.insert(
        "T",
        PTable::from_rows(1, (100..104i64).map(|i| (Tuple::new([i]), Rat::new(1, 2)))).unwrap(),
    );
    let safe = BoolCq::new(vec![
        CqAtom::new("R", vec![CqArg::Var(0)]),
        CqAtom::new("S", vec![CqArg::Var(0), CqArg::Var(1)]),
    ]);
    let exact = exact_prob(&safe, &db).unwrap();
    let lifted = lifted_prob(&safe, &db).unwrap();
    println!("  safe chain R(x),S(x,y): exact = {exact}, lifted = {lifted}");
    check("hierarchical query: lifted = exact", exact == lifted);

    let h0 = BoolCq::h0();
    check("H₀ is not hierarchical", !h0.is_hierarchical());
    check(
        "lifted evaluator refuses H₀",
        lifted_prob(&h0, &db).is_err(),
    );
    let exact_h0 = exact_prob(&h0, &db).unwrap();
    let forced = forced_extensional(&h0, &db).unwrap();
    println!(
        "  H₀: exact = {exact_h0} ≈ {:.6}; forced extensional = {forced} ≈ {:.6}",
        exact_h0.to_f64(),
        forced.to_f64()
    );
    check("forced extensional plan diverges on H₀", exact_h0 != forced);
}

fn e21_global_conditions() {
    banner(
        "E21 (ext)",
        "§9 outlook: c-tables with global conditions [17]",
    );
    use ipdb_tables::GlobalCTable;
    let (x, y) = (Var(0), Var(1));
    let t = CTable::builder(2)
        .row([t_var(x), t_var(y)], Condition::True)
        .build()
        .unwrap();
    let g = GlobalCTable::new(t, Condition::neq_vv(x, y));
    let slice = Domain::ints(1..=2);
    let worlds = g.mod_over(&slice).unwrap();
    check(
        "global x≠y keeps exactly the off-diagonal worlds",
        worlds.len() == 2
            && worlds.contains(&instance![[1, 2]])
            && worlds.contains(&instance![[2, 1]]),
    );
    let q = Query::project(Query::Input, vec![0]);
    let lhs = g.eval_query(&q).unwrap().mod_over(&slice).unwrap();
    let rhs = q.eval_idb(&worlds).unwrap();
    check("closure: Mod(q̄(T,Φ)) = q(Mod(T,Φ))", lhs == rhs);
    let sim = g.to_ctable().mod_over(&slice).unwrap();
    check(
        "plain-c-table simulation differs exactly by the empty world",
        sim.len() == worlds.len() + 1 && sim.contains(&ipdb_rel::Instance::empty(2)),
    );
}

fn e22_chain_pctables() {
    banner(
        "E22 (ext)",
        "§9 outlook: conditionally dependent variables [14]",
    );
    use ipdb_prob::chain::{ChainPcTable, CondDist};
    let (a, b) = (Var(0), Var(1));
    let table = CTable::builder(2)
        .row([t_const("Alice"), t_var(a)], Condition::True)
        .row([t_const("Bob"), t_var(b)], Condition::True)
        .build()
        .unwrap();
    let dist = |pairs: &[(&str, Rat)]| {
        FiniteSpace::new(pairs.iter().map(|(v, p)| (Value::from(*v), *p))).unwrap()
    };
    let a_dist = CondDist::marginal(dist(&[("math", Rat::new(1, 2)), ("phys", Rat::new(1, 2))]));
    let b_dist = CondDist::conditional(
        vec![a],
        [
            (
                vec![Value::from("math")],
                dist(&[("math", Rat::new(9, 10)), ("phys", Rat::new(1, 10))]),
            ),
            (
                vec![Value::from("phys")],
                dist(&[("math", Rat::new(2, 10)), ("phys", Rat::new(8, 10))]),
            ),
        ],
    );
    let chain = ChainPcTable::new(table, vec![a, b], [(a, a_dist), (b, b_dist)]).unwrap();
    let m = chain.mod_space().unwrap();
    check(
        "chain rule: P[both math] = 1/2 · 9/10 = 9/20",
        m.world_prob(&instance![["Alice", "math"], ["Bob", "math"]]) == Rat::new(9, 20),
    );
    check(
        "total probability: P[Bob math] = 11/20 (correlated, ≠ any independent product)",
        m.tuple_prob(&tuple!["Bob", "math"]) == Rat::new(11, 20),
    );
    let q = Query::select(Query::Input, Pred::eq_const(1, "math"));
    let lhs = chain.eval_query(&q).unwrap().mod_space().unwrap();
    let rhs = m.map_query(&q).unwrap();
    check("Thm 9 lifts to chains", lhs.same_distribution(&rhs));
}

fn e23_possibilistic() {
    banner("E23 (ext)", "§9 outlook: possibilistic models [19]");
    use ipdb_prob::possibilistic::{PossCTable, PossDist, FULLY};
    let x = Var(0);
    let table = CTable::builder(1)
        .row([t_var(x)], Condition::True)
        .row([t_const(9)], Condition::eq_vc(x, 1))
        .build()
        .unwrap();
    let d = PossDist::new([
        (Value::from(1), FULLY),
        (Value::from(2), 600),
        (Value::from(3), 200),
    ])
    .unwrap();
    let t = PossCTable::new(table, [(x, d)]).unwrap();
    let m = t.mod_space().unwrap();
    check(
        "(max,min) semantics: Π[{1,9}]=1000, Π[{2}]=600, Π[{3}]=200",
        m.world_degree(&instance![[1], [9]]) == FULLY
            && m.world_degree(&instance![[2]]) == 600
            && m.world_degree(&instance![[3]]) == 200,
    );
    check(
        "possibility/necessity duality: N[9] = 1000 − Π[¬9] = 400",
        m.tuple_necessity(&tuple![9]) == 400,
    );
    let q = Query::select(Query::Input, Pred::neq_const(0, 9));
    let lhs = t.eval_query(&q).unwrap().mod_space().unwrap();
    let rhs = m.map_query(&q).unwrap();
    check("closure with max-images (Def. 10/11 analogue)", lhs == rhs);
}
