//! The differential join oracle.
//!
//! The hash-equijoin path (`Query::Join` / `PlanNode::Join`) must be
//! *observably identical* to the naive filtered product
//! `σ_{⋀ #i=#j ∧ residual}(left × right)` it replaces, on every backend:
//!
//! * **instances** — exact relation equality;
//! * **c-tables** — equality of `ν(q̄(T))` under **every** valuation of
//!   the table's (≤ 3) variables over their finite domains, for both the
//!   plain `q̄` algebra (`eval_query`) and the engine's pruning executor
//!   (`Backend::execute`);
//! * **pc-tables** — exact equality of the induced distribution over
//!   answer worlds.
//!
//! On top of the random join shapes, the optimizer's σ(×) → Join
//! rewrite is checked differentially: a selection-over-product query
//! whose predicate contains spanning equalities must plan to a `Join`
//! and still execute identically to the unoptimized plan.
//!
//! Run counts are deliberately modest for CI; soak with
//! `PROPTEST_CASES=256 cargo test -p ipdb-engine --test join_oracle`
//! (the vendored proptest honors the env override globally).

use std::collections::BTreeMap;

use proptest::prelude::*;

use ipdb_engine::{Backend, Catalog, Engine, ExecConfig, NoTrace, Plan, PlanNode, Schema, Source};
use ipdb_logic::{Valuation, Var};
use ipdb_prob::{FiniteSpace, PcTable, Rat};
use ipdb_rel::strategies::{
    arb_catalog_case, arb_instance, arb_pred, arb_query, arb_query_with_arity,
};
use ipdb_rel::{Domain, Fragment, Instance, Pred, Query, Value};
use ipdb_tables::strategies::arb_finite_ctable;
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

/// Whether any node of the plan is a `Join`.
fn contains_join(p: &Plan) -> bool {
    match &p.node {
        PlanNode::Join { .. } => true,
        PlanNode::Input | PlanNode::Second | PlanNode::Rel(_) | PlanNode::Lit(_) => false,
        PlanNode::Project(_, c) | PlanNode::Select(_, c) => contains_join(c),
        PlanNode::Product(a, b)
        | PlanNode::Union(a, b)
        | PlanNode::Diff(a, b)
        | PlanNode::Intersect(a, b) => contains_join(a) || contains_join(b),
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

    /// The optimizer's σ(×) → Join rewrite: the prepared plan contains a
    /// Join node, and optimized execution matches naive execution.
    #[test]
    fn optimizer_join_extraction_is_sound(
        (l, r, on, residual) in arb_join_shape(),
        i in arb_instance(2, 4, 3),
    ) {
        let (_, naive) = join_and_oracle(l, r, on, residual);
        let stmt = Engine::new().prepare(&naive, 2).unwrap();
        prop_assert!(
            contains_join(stmt.plan()) || !format!("{:?}", stmt.plan()).contains("Product"),
            "σ(×) with spanning keys should plan to a Join (or fold away):\n{}",
            stmt.explain()
        );
        prop_assert_eq!(stmt.execute(&i).unwrap(), stmt.execute_naive(&i).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// C-table backend: both the plain `q̄` algebra and the engine's
    /// pruning executor agree with the naive form under every valuation.
    #[test]
    fn join_equals_naive_on_ctables(
        (l, r, on, residual) in arb_join_shape(),
        t in arb_finite_ctable(2, 3, 3, 2),
    ) {
        let (join, naive) = join_and_oracle(l, r, on, residual);
        let jt = t.eval_query(&join).unwrap();
        let nt = t.eval_query(&naive).unwrap();
        let stmt = Engine::new().prepare(&join, 2).unwrap();
        let pruned = stmt.execute_naive(&t).unwrap();
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
                pruned.apply_valuation(&nu).unwrap(),
                expect,
                "pruning executor vs per-world eval: query {} under {}", join, nu
            );
        }
    }
}

// ---------------------------------------------------------------------
// Catalog oracles: random 2–3 relation schemas. Catalog execution (the
// optimized plan through the pruning executor) must equal naive
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
            stmt.execute_catalog_naive(&cat).unwrap(),
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
        let naive = stmt.execute_catalog_naive(&cat).unwrap();
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
fn run_with(i: &Instance, q: &Query, cfg: &ExecConfig) -> Instance {
    Instance::execute(Source::Input(i), q, cfg, &mut NoTrace).unwrap()
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
        let cat: Catalog<_> = [("V", i.clone())].into_iter().collect();
        for (threads, morsel_rows) in EXEC_SWEEP {
            let cfg = ExecConfig { threads, morsel_rows, metrics: false };
            prop_assert_eq!(
                run_with(&i, stmt.naive_query(), &cfg),
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
        for (threads, morsel_rows) in EXEC_SWEEP {
            let cfg = ExecConfig { threads, morsel_rows, metrics: false };
            prop_assert_eq!(
                run_with(&i, stmt.naive_query(), &cfg),
                expected.clone(),
                "join {} diverged at threads={} morsel={}", join, threads, morsel_rows
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
                stmt.execute_catalog_with(&cat, &cfg).unwrap(),
                expected.clone(),
                "catalog query {} diverged at threads={} morsel={}", q, threads, morsel_rows
            );
        }
    }

    /// C-table backend: the vectorized ground-column selection agrees
    /// with the term-at-a-time path after condition pruning — the same
    /// normal form the engine's executor applies — and mirrors its
    /// error behavior exactly.
    #[test]
    fn vectorized_select_equals_term_path_on_ctables(
        p in arb_pred(2, 3, false),
        t in arb_finite_ctable(2, 3, 3, 2),
    ) {
        match (t.select_bar_vectorized(&p), t.select_bar(&p)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(
                a.simplified().without_false_rows(),
                b.simplified().without_false_rows(),
                "vectorized σ diverged from term path on {}", p
            ),
            (a, b) => prop_assert_eq!(a, b, "paths disagreed on the error for {}", p),
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
        let pc = uniform_pctable(&t);
        let stmt_join = Engine::new().prepare(&join, 2).unwrap();
        let stmt_naive = Engine::new().prepare(&naive, 2).unwrap();
        let dj = stmt_join.execute_naive(&pc).unwrap().mod_space().unwrap();
        let dn = stmt_naive.execute_naive(&pc).unwrap().mod_space().unwrap();
        prop_assert!(
            dj.same_distribution(&dn),
            "join {} and naive {} induced different distributions", join, naive
        );
    }
}
