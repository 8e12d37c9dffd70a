//! The differential join oracle.
//!
//! The hash-equijoin path (`Query::Join`) must be
//! *observably identical* to the naive filtered product
//! `σ_{⋀ #i=#j ∧ residual}(left × right)` it replaces, on every backend:
//!
//! * **instances** — exact relation equality;
//! * **c-tables** — equality of `ν(q̄(T))` under **every** valuation of
//!   the table's (≤ 3) variables over their finite domains, for both the
//!   plain `q̄` algebra (`eval_query`) and the engine's c-table backend
//!   (`Backend::execute`); on raw tables with unrestricted variables,
//!   the optimized plan under a drawn valuation;
//! * **pc-tables** — exact equality of the induced distribution over
//!   answer worlds.
//!
//! On top of the random join shapes, the optimizer's σ(×) → Join
//! rewrite is checked differentially: a selection-over-product query
//! whose predicate contains spanning equalities must optimize to a
//! `Join` and still execute identically to the unoptimized query.
//!
//! Run counts are deliberately modest for CI; soak with
//! `PROPTEST_CASES=256 cargo test -p ipdb-engine --test join_oracle`
//! (the vendored proptest honors the env override globally).

use std::collections::BTreeMap;

use proptest::prelude::*;

use ipdb_engine::{Backend, Catalog, Engine, ExecConfig, NoTrace, ReportSink, Schema};
use ipdb_logic::{Valuation, Var};
use ipdb_prob::{FiniteSpace, PcTable, Rat};
use ipdb_rel::strategies::{
    arb_catalog_case, arb_instance, arb_mixed_instance, arb_pred, arb_query, arb_query_with_arity,
};
use ipdb_rel::{Domain, Fragment, Instance, Pred, Query, Value};
use ipdb_tables::strategies::{arb_ctable, arb_finite_ctable, arb_valuation_for};
use ipdb_tables::CTable;

/// Operands, key pairs, and optional residual of a random join.
type JoinShape = (Query, Query, Vec<(usize, usize)>, Option<Pred>);

/// A random equijoin shape: operands of arity 1..=2 (over an arity-2
/// input relation), 1..=2 spanning key pairs in random left/right order,
/// and an optional arbitrary residual over the combined tuple.
fn arb_join_shape() -> BoxedStrategy<JoinShape> {
    ((1usize..=2), (1usize..=2))
        .prop_flat_map(|(la, lb)| {
            let total = la + lb;
            let pair = ((0..la), (la..total), prop_oneof![Just(false), Just(true)]).prop_map(
                |(i, j, swap)| {
                    if swap {
                        (j, i)
                    } else {
                        (i, j)
                    }
                },
            );
            (
                arb_query_with_arity(2, la, 2, Fragment::RA, 3),
                arb_query_with_arity(2, lb, 2, Fragment::RA, 3),
                proptest::collection::vec(pair, 1..=2),
                prop_oneof![
                    1 => Just(None),
                    2 => arb_pred(total, 3, false).prop_map(Some),
                ],
            )
        })
        .boxed()
}

/// The pair under test: the first-class join and its σ(×) lowering.
fn join_and_oracle(
    left: Query,
    right: Query,
    on: Vec<(usize, usize)>,
    residual: Option<Pred>,
) -> (Query, Query) {
    let naive = Query::select(
        Query::product(left.clone(), right.clone()),
        Query::join_pred(&on, residual.as_ref()),
    );
    (Query::join(left, right, on, residual), naive)
}

/// Every total valuation over a set of finite variable domains — the
/// c-table analogue of "all possible worlds".
fn all_valuations_over(domains: &BTreeMap<Var, Domain>) -> Vec<Valuation> {
    let mut acc = vec![Valuation::new()];
    for (v, dom) in domains {
        let mut next = Vec::with_capacity(acc.len() * dom.len());
        for nu in &acc {
            for val in dom.iter() {
                let mut nu2 = nu.clone();
                nu2.bind(*v, val.clone());
                next.push(nu2);
            }
        }
        acc = next;
    }
    acc
}

/// Every total valuation of one table's variables.
fn all_valuations(t: &CTable) -> Vec<Valuation> {
    all_valuations_over(t.domains())
}

/// Uniform distributions over each variable's domain, making the
/// c-table a pc-table.
fn uniform_pctable(t: &CTable) -> PcTable<Rat> {
    let dists: Vec<(Var, FiniteSpace<Value, Rat>)> = t
        .domains()
        .iter()
        .map(|(v, dom)| {
            let n = dom.len() as i128;
            let d = FiniteSpace::new(dom.iter().map(|val| (val.clone(), Rat::new(1, n))))
                .expect("uniform masses sum to 1");
            (*v, d)
        })
        .collect();
    PcTable::new(t.clone(), dists).expect("every variable has a distribution")
}

/// Whether any node of the query is a `Join`.
fn contains_join(q: &Query) -> bool {
    match q {
        Query::Join { .. } => true,
        Query::Input | Query::Second | Query::Rel(_) | Query::Lit(_) => false,
        Query::Project(_, c) | Query::Select(_, c) => contains_join(c),
        Query::Product(a, b) | Query::Union(a, b) | Query::Diff(a, b) | Query::Intersect(a, b) => {
            contains_join(a) || contains_join(b)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Instance backend: the hash join is *exactly* the filtered product.
    #[test]
    fn join_equals_naive_on_instances(
        (l, r, on, residual) in arb_join_shape(),
        i in arb_instance(2, 4, 3),
    ) {
        let (join, naive) = join_and_oracle(l, r, on, residual);
        prop_assert_eq!(
            join.eval(&i).unwrap(),
            naive.eval(&i).unwrap(),
            "join {} vs naive {}", join, naive
        );
    }

    /// The optimizer's σ(×) → Join rewrite: the optimized query contains
    /// a Join node, and optimized execution matches naive execution.
    #[test]
    fn optimizer_join_extraction_is_sound(
        (l, r, on, residual) in arb_join_shape(),
        i in arb_instance(2, 4, 3),
    ) {
        let (_, naive) = join_and_oracle(l, r, on, residual);
        let stmt = Engine::new().prepare(&naive, 2).unwrap();
        prop_assert!(
            contains_join(stmt.query()) || !format!("{:?}", stmt.query()).contains("Product"),
            "σ(×) with spanning keys should optimize to a Join (or fold away):\n{}",
            stmt.explain()
        );
        let cat = Catalog::single(i);
        prop_assert_eq!(
            stmt.execute_catalog(&cat).unwrap(),
            Instance::run_catalog(&cat, stmt.naive_query()).unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// C-table backend: both the plain `q̄` algebra and the engine's
    /// c-table executor agree with the naive form under every valuation.
    #[test]
    fn join_equals_naive_on_ctables(
        (l, r, on, residual) in arb_join_shape(),
        t in arb_finite_ctable(2, 3, 3, 2),
    ) {
        let (join, naive) = join_and_oracle(l, r, on, residual);
        let jt = t.eval_query(&join).unwrap();
        let nt = t.eval_query(&naive).unwrap();
        let stmt = Engine::new().prepare(&join, 2).unwrap();
        let run = CTable::run_catalog(&Catalog::single(t.clone()), stmt.naive_query()).unwrap();
        for nu in all_valuations(&t) {
            let world = t.apply_valuation(&nu).unwrap();
            let expect = naive.eval(&world).unwrap();
            prop_assert_eq!(
                jt.apply_valuation(&nu).unwrap(),
                expect.clone(),
                "join_bar vs per-world eval: query {} under {}", join, nu
            );
            prop_assert_eq!(
                nt.apply_valuation(&nu).unwrap(),
                expect.clone(),
                "naive q̄ vs per-world eval: query {} under {}", naive, nu
            );
            prop_assert_eq!(
                run.apply_valuation(&nu).unwrap(),
                expect,
                "c-table executor vs per-world eval: query {} under {}", join, nu
            );
        }
    }
}

proptest! {
    // One valuation per case and no per-world loop: cheap enough for
    // enough cases to reach a selection over a variable column.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The optimizer is sound on raw (unsimplified, possibly infinite-
    /// domain) c-tables: under a drawn valuation `ν`, the optimized
    /// plan's answer instantiates to the conventional evaluation of the
    /// naive query on `ν(T)` — Lemma 1 through the engine.
    #[test]
    fn optimized_ctable_execution_satisfies_lemma1(
        (t, q, nu) in arb_ctable(2, 4, 3, 2).prop_flat_map(|t| {
            let nu = arb_valuation_for(&t, 2);
            (Just(t), arb_query(2, 3, 3, 2), nu)
        })
    ) {
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        let run = stmt.execute_catalog(&Catalog::single(t.clone())).unwrap();
        // q̄(T) may mention variables ν misses when T has no rows.
        let mut nu = nu;
        for v in run.vars() {
            if !nu.binds(v) {
                nu.bind(v, Value::from(0));
            }
        }
        prop_assert_eq!(
            run.apply_valuation(&nu).unwrap(),
            q.eval(&t.apply_valuation(&nu).unwrap()).unwrap(),
            "query {} under {}", q, nu
        );
    }
}

// ---------------------------------------------------------------------
// Catalog oracles: random 2–3 relation schemas. Catalog execution (the
// optimized plan through the c-table executor) must equal naive
// evaluation — directly on instances, and worldwise on c-tables, where
// relations may *share* variables (one namespace: a shared variable is
// the same unknown in every relation).
// ---------------------------------------------------------------------

/// Pairs the schema's names with its generated relations.
fn catalog_of<T: Clone>(schema: &[(String, usize)], rels: [&T; 3]) -> Catalog<T> {
    schema
        .iter()
        .zip(rels)
        .map(|((n, _), r)| (n.clone(), r.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Instance catalogs: engine catalog execution (optimized and
    /// naive plans) equals direct relational evaluation.
    #[test]
    fn catalog_execution_equals_naive_on_instances(
        (schema, q, i0, i1, i2) in arb_catalog_case(2, 3, 3, |a| arb_instance(a, 4, 3).boxed())
    ) {
        let s = Schema::new(schema.clone()).unwrap();
        let stmt = Engine::new().prepare_schema(&q, &s).unwrap();
        let cat = catalog_of(&schema, [&i0, &i1, &i2]);
        let map: BTreeMap<String, Instance> = cat
            .iter()
            .map(|(n, i)| (n.to_string(), i.clone()))
            .collect();
        let direct = q.eval_catalog(&map).unwrap();
        prop_assert_eq!(
            stmt.execute_catalog(&cat).unwrap(),
            direct.clone(),
            "optimized catalog plan diverged on {}", q
        );
        prop_assert_eq!(
            Instance::run_catalog(&cat, stmt.naive_query()).unwrap(),
            direct,
            "naive catalog plan diverged on {}", q
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// C-table catalogs: under every valuation of the (shared) variable
    /// namespace, the engine's catalog answer instantiates to exactly
    /// the conventional evaluation of the instantiated catalog.
    #[test]
    fn catalog_execution_equals_per_world_eval_on_ctables(
        (schema, q, t0, t1, t2) in arb_catalog_case(2, 2, 2, |a| arb_finite_ctable(a, 2, 3, 2))
    ) {
        let s = Schema::new(schema.clone()).unwrap();
        let stmt = Engine::new().prepare_schema(&q, &s).unwrap();
        let cat = catalog_of(&schema, [&t0, &t1, &t2]);
        let optimized = stmt.execute_catalog(&cat).unwrap();
        let naive = CTable::run_catalog(&cat, stmt.naive_query()).unwrap();
        let mut domains: BTreeMap<Var, Domain> = BTreeMap::new();
        for (_, t) in cat.iter() {
            domains.extend(t.domains().clone());
        }
        for nu in all_valuations_over(&domains) {
            let world: BTreeMap<String, Instance> = cat
                .iter()
                .map(|(n, t)| Ok((n.to_string(), t.apply_valuation(&nu)?)))
                .collect::<Result<_, ipdb_tables::TableError>>()
                .unwrap();
            let expect = q.eval_catalog(&world).unwrap();
            prop_assert_eq!(
                optimized.apply_valuation(&nu).unwrap(),
                expect.clone(),
                "optimized catalog executor vs per-world eval: {} under {}", q, nu
            );
            prop_assert_eq!(
                naive.apply_valuation(&nu).unwrap(),
                expect,
                "naive catalog executor vs per-world eval: {} under {}", q, nu
            );
        }
    }
}

// ---------------------------------------------------------------------
// Parallel-determinism oracles: the columnar morsel executor behind the
// Instance backend must be *bit-identical* to row-at-a-time evaluation
// for every thread count and morsel size — scheduling may never show
// through. The sweep covers degenerate morsels (1 row), a size that
// splits small inputs unevenly (7), and the default (1024, i.e. one
// morsel on test-sized data).
// ---------------------------------------------------------------------

/// Runs `q` on the instance backend's executor with an explicit config.
fn run_with(cat: &Catalog<Instance>, q: &Query, cfg: &ExecConfig) -> Instance {
    Instance::execute(cat, q, cfg, &mut NoTrace).unwrap()
}

/// The (threads, morsel_rows) grid every determinism property sweeps.
const EXEC_SWEEP: [(usize, usize); 9] = [
    (1, 1),
    (1, 7),
    (1, 1024),
    (2, 1),
    (2, 7),
    (2, 1024),
    (8, 1),
    (8, 7),
    (8, 1024),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Instance backend: for random RA queries, every executor
    /// configuration returns exactly `Query::eval`'s answer — on both
    /// the naive and the optimized plan.
    #[test]
    fn morsel_executor_identical_across_configs(
        q in arb_query(2, 2, 3, 3),
        i in arb_instance(2, 6, 3),
    ) {
        let expected = q.eval(&i).unwrap();
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        let cat = Catalog::single(i);
        for (threads, morsel_rows) in EXEC_SWEEP {
            let cfg = ExecConfig { threads, morsel_rows, metrics: false };
            prop_assert_eq!(
                run_with(&cat, stmt.naive_query(), &cfg),
                expected.clone(),
                "naive plan diverged at threads={} morsel={} on {}", threads, morsel_rows, q
            );
            prop_assert_eq!(
                stmt.execute_catalog_cfg(&cat, &cfg).unwrap(),
                expected.clone(),
                "optimized plan diverged at threads={} morsel={} on {}", threads, morsel_rows, q
            );
        }
    }

    /// Join shapes specifically: the parallel hash join equals the
    /// filtered product under every configuration.
    #[test]
    fn morsel_join_identical_across_configs(
        (l, r, on, residual) in arb_join_shape(),
        i in arb_instance(2, 4, 3),
    ) {
        let (join, naive) = join_and_oracle(l, r, on, residual);
        let expected = naive.eval(&i).unwrap();
        let stmt = Engine::new().prepare(&join, 2).unwrap();
        let cat = Catalog::single(i);
        for (threads, morsel_rows) in EXEC_SWEEP {
            let cfg = ExecConfig { threads, morsel_rows, metrics: false };
            prop_assert_eq!(
                run_with(&cat, stmt.naive_query(), &cfg),
                expected.clone(),
                "join {} diverged at threads={} morsel={}", join, threads, morsel_rows
            );
        }
    }
}

/// 1..=2 key pairs spanning two arity-2 operands, in random order.
fn arb_spanning_keys() -> impl Strategy<Value = Vec<(usize, usize)>> {
    let pair =
        ((0usize..2), (2usize..4), any::<bool>())
            .prop_map(|(i, j, swap)| if swap { (j, i) } else { (i, j) });
    proptest::collection::vec(pair, 1..=2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Join keys of every value variant — `Bool`, `Int` and `Str`, with
    /// strings long enough to take the key hasher's multi-word byte path
    /// and sharing prefixes: the row hash join, the morsel executor under
    /// every configuration, and the c-table join of the same (ground)
    /// relations — `join_bar` and the c-table executor under the empty
    /// valuation — all equal the naive filtered product.
    #[test]
    fn mixed_type_keys_join_like_the_filtered_product(
        l in arb_mixed_instance(2, 10),
        r in arb_mixed_instance(2, 10),
        on in arb_spanning_keys(),
        residual in prop_oneof![
            2 => Just(None),
            1 => arb_pred(4, 2, false).prop_map(Some),
        ],
    ) {
        let pred = Query::join_pred(&on, residual.as_ref());
        let mut expected = Instance::empty(4);
        for t in l.product(&r).iter() {
            if pred.eval(t.values()).unwrap() {
                expected.insert(t.clone()).unwrap();
            }
        }
        prop_assert_eq!(
            l.equijoin(&r, &on, residual.as_ref()).unwrap(),
            expected.clone(),
            "row equijoin on {:?}", on
        );
        let q = Query::join(Query::Input, Query::Second, on.clone(), residual.clone());
        let (tl, tr) = (CTable::from_instance(&l), CTable::from_instance(&r));
        let nu = Valuation::new();
        prop_assert_eq!(
            tl.join_bar(&tr, &on, residual.as_ref()).unwrap().apply_valuation(&nu).unwrap(),
            expected.clone(),
            "join_bar on {:?}", on
        );
        let tcat: Catalog<CTable> = [("V", tl), ("W", tr)].into_iter().collect();
        prop_assert_eq!(
            CTable::run_catalog(&tcat, &q).unwrap().apply_valuation(&nu).unwrap(),
            expected.clone(),
            "c-table executor on {:?}", on
        );
        let cat: Catalog<Instance> = [("V", l), ("W", r)].into_iter().collect();
        for (threads, morsel_rows) in EXEC_SWEEP {
            let cfg = ExecConfig { threads, morsel_rows, metrics: false };
            prop_assert_eq!(
                run_with(&cat, &q, &cfg),
                expected.clone(),
                "morsel join {} diverged at threads={} morsel={}", q, threads, morsel_rows
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Catalog form: named-relation execution through the morsel
    /// executor equals direct relational evaluation for every
    /// configuration.
    #[test]
    fn morsel_catalog_identical_across_configs(
        (schema, q, i0, i1, i2) in arb_catalog_case(2, 3, 3, |a| arb_instance(a, 4, 3).boxed())
    ) {
        let s = Schema::new(schema.clone()).unwrap();
        let stmt = Engine::new().prepare_schema(&q, &s).unwrap();
        let cat = catalog_of(&schema, [&i0, &i1, &i2]);
        let map: BTreeMap<String, Instance> = cat
            .iter()
            .map(|(n, i)| (n.to_string(), i.clone()))
            .collect();
        let expected = q.eval_catalog(&map).unwrap();
        for (threads, morsel_rows) in EXEC_SWEEP {
            let cfg = ExecConfig { threads, morsel_rows, metrics: false };
            prop_assert_eq!(
                stmt.execute_catalog_cfg(&cat, &cfg).unwrap(),
                expected.clone(),
                "catalog query {} diverged at threads={} morsel={}", q, threads, morsel_rows
            );
        }
    }
}

/// A join operand over the stored relation `leaf`: the relation itself,
/// or a selection of it (a derived batch, which keeps no index).
fn arb_leaf_operand(leaf: Query) -> BoxedStrategy<Query> {
    prop_oneof![
        1 => Just(leaf.clone()),
        1 => arb_pred(2, 2, false).prop_map(move |p| Query::select(leaf.clone(), p)),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Stored join indexes: a join of `V` and `W` (each the stored
    /// relation or a selection of it) runs twice on one catalog — the
    /// first run builds a stored side's index, the second reuses it —
    /// and once on relations rebuilt from their tuples, which start
    /// without one. Every run equals the naive filtered product, under
    /// every configuration.
    #[test]
    fn stored_join_indexes_answer_like_the_naive_product(
        l in arb_instance(2, 6, 3),
        r in arb_instance(2, 6, 3),
        left in arb_leaf_operand(Query::Input),
        right in arb_leaf_operand(Query::Second),
        on in arb_spanning_keys(),
        residual in prop_oneof![
            2 => Just(None),
            1 => arb_pred(4, 2, false).prop_map(Some),
        ],
    ) {
        let (join, naive) = join_and_oracle(left, right, on, residual);
        let map: BTreeMap<String, Instance> =
            [("V".to_string(), l.clone()), ("W".to_string(), r.clone())].into_iter().collect();
        let expected = naive.eval_catalog(&map).unwrap();
        let rebuild = |i: &Instance| Instance::from_tuples(2, i.iter().cloned()).unwrap();
        let cat: Catalog<Instance> = [("V", l.clone()), ("W", r.clone())].into_iter().collect();
        // Whether a run on `cat` came before: from then on its stored
        // sides' indexes exist.
        let mut cat_ran = false;
        for (threads, morsel_rows) in EXEC_SWEEP {
            let cfg = ExecConfig { threads, morsel_rows, metrics: false };
            let rebuilt: Catalog<Instance> =
                [("V", rebuild(&l)), ("W", rebuild(&r))].into_iter().collect();
            for (run, c, ran_before) in
                [("first", &cat, cat_ran), ("second", &cat, true), ("rebuilt", &rebuilt, false)]
            {
                let mut sink = ReportSink::default();
                prop_assert_eq!(
                    Instance::execute(c, &join, &cfg, &mut sink).unwrap(),
                    expected.clone(),
                    "{} run of {} diverged at threads={} morsel={}",
                    run, join, threads, morsel_rows
                );
                // Only a leaf keeps its index, and only a run after the
                // one that built it reuses it.
                let report = sink.finish();
                let build = report.build.expect("spanning keys make a hash join");
                let leaf = report.children[usize::from(!build.left)].children.is_empty();
                prop_assert_eq!(
                    build.reused,
                    leaf && ran_before,
                    "{} run of {} at threads={} morsel={}", run, join, threads, morsel_rows
                );
            }
            cat_ran = true;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pc-table backend: the join induces exactly the distribution of
    /// the naive filtered product.
    #[test]
    fn join_equals_naive_on_pctables(
        (l, r, on, residual) in arb_join_shape(),
        t in arb_finite_ctable(2, 2, 2, 1),
    ) {
        let (join, naive) = join_and_oracle(l, r, on, residual);
        let cat = Catalog::single(uniform_pctable(&t));
        let stmt_join = Engine::new().prepare(&join, 2).unwrap();
        let stmt_naive = Engine::new().prepare(&naive, 2).unwrap();
        let dj = PcTable::run_catalog(&cat, stmt_join.naive_query()).unwrap().mod_space().unwrap();
        let dn = PcTable::run_catalog(&cat, stmt_naive.naive_query()).unwrap().mod_space().unwrap();
        prop_assert!(
            dj.same_distribution(&dn),
            "join {} and naive {} induced different distributions", join, naive
        );
    }
}
