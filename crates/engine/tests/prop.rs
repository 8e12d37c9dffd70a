//! Pipeline property tests.
//!
//! * the parser inverts the canonical renderer on arbitrary queries
//!   (`parse(render(q)) == q`);
//! * the optimizer is semantics-preserving on **all three backends**:
//!   for random queries and random small inputs, `optimize(q)` evaluates
//!   identically to `q` over conventional instances, c-tables (compared
//!   under every valuation of a finite domain), and pc-tables (compared
//!   as exact distributions);
//! * every optimizer pass reports a change exactly when its output
//!   differs from its input, including on wide, oddly nested selection
//!   guards of the serving workload's shape.

use proptest::prelude::*;

use ipdb_engine::{
    optimize, optimize_plan, optimize_plan_stats, parser, rewrite_pass, Backend, Catalog, Engine,
    Plan, Prepared,
};
use ipdb_logic::{Valuation, Var};
use ipdb_prob::{FiniteSpace, PcTable, Rat};
use ipdb_rel::strategies::{arb_instance, arb_query};
use ipdb_rel::{CmpOp, Instance, Operand, Pred, Query, Schema, Value};
use ipdb_tables::strategies::arb_finite_ctable;
use ipdb_tables::CTable;

/// Runs `stmt`'s optimized and naive plans on the single input
/// `{V: input}`.
fn optimized_and_naive<B: Backend>(stmt: &Prepared, input: B) -> (B::Output, B::Output) {
    let cat = Catalog::single(input);
    (
        stmt.execute_catalog(&cat).unwrap(),
        B::run_catalog(&cat, stmt.naive_query()).unwrap(),
    )
}

/// Every total valuation of the table's variables over their finite
/// domains (the c-table analogue of "all possible worlds").
fn all_valuations(t: &CTable) -> Vec<Valuation> {
    let mut acc = vec![Valuation::new()];
    for (v, dom) in t.domains() {
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

/// Runs a plan's fixpoint one pass at a time, checking that each
/// pass's change flag is exactly `output != input`; returns the number
/// of passes, counted like [`ipdb_engine::OptimizeStats::passes`].
fn passes_with_exact_flags(mut plan: Plan) -> usize {
    let bound = 2 * plan.depth() + 2;
    for passes in 1..=bound + 1 {
        let (next, changed) = rewrite_pass(plan.clone());
        assert_eq!(
            changed,
            next != plan,
            "pass {} flag disagrees with its rewrite of\n{}",
            passes,
            plan.render_tree()
        );
        if !changed {
            return passes;
        }
        plan = next;
    }
    panic!("fixpoint bound exhausted")
}

/// A comparison atom over columns `0..6` (callers wrap the numbers into
/// their arity) or small constants, so const–const atoms occur too.
fn arb_atom() -> BoxedStrategy<Pred> {
    let operand = || {
        prop_oneof![
            (0usize..6).prop_map(Operand::Col),
            (0i64..=3).prop_map(Operand::val),
        ]
    };
    (
        prop_oneof![Just(CmpOp::Eq), Just(CmpOp::Neq)],
        operand(),
        operand(),
    )
        .prop_map(|(op, l, r)| Pred::Cmp(op, l, r))
        .boxed()
}

/// A selection guard as machines write them: an `and` of 0–10 members
/// — atoms, `true`, `false`, and nested `and`s of 0–3 atoms — so every
/// unflattened spelling (`and()`, `and(p)`, nested, with units or an
/// absorbing `false`) occurs.
fn arb_wide_conj() -> BoxedStrategy<Pred> {
    let member = prop_oneof![
        10 => arb_atom(),
        1 => Just(Pred::True),
        1 => Just(Pred::False),
        3 => proptest::collection::vec(arb_atom(), 0..=3).prop_map(Pred::And),
    ];
    proptest::collection::vec(member, 0..=10)
        .prop_map(Pred::And)
        .boxed()
}

/// One layer stacked on a plan by [`arb_guarded_query`]; column numbers
/// are taken modulo the arity underneath.
#[derive(Debug, Clone)]
enum Layer {
    Select(Pred),
    Project(Vec<usize>),
}

/// Stacks of 1–6 selection and projection layers (σ-over-π-over-σ, the
/// serving templates' shape) over a single-input product chain or a
/// literal, for inputs of arity 2.
fn arb_guarded_query() -> BoxedStrategy<Query> {
    let layer = prop_oneof![
        3 => arb_wide_conj().prop_map(Layer::Select),
        2 => proptest::collection::vec(0usize..6, 1..=3).prop_map(Layer::Project),
    ];
    (0usize..4, proptest::collection::vec(layer, 1..=6))
        .prop_map(|(base, layers)| {
            let v = || Query::Input;
            let (mut q, mut arity) = match base {
                0 => (v(), 2),
                1 => (Query::product(v(), v()), 4),
                2 => (Query::product(Query::product(v(), v()), v()), 6),
                _ => {
                    let lit = Instance::from_rows(2, [[0i64, 1], [1, 1], [2, 3]]).unwrap();
                    (Query::product(Query::Lit(lit), v()), 4)
                }
            };
            for l in layers {
                q = match l {
                    Layer::Select(p) => Query::select(q, p.map_cols(move |c| c % arity)),
                    Layer::Project(cols) => {
                        let cols: Vec<usize> = cols.into_iter().map(|c| c % arity).collect();
                        arity = cols.len();
                        Query::project(q, cols)
                    }
                };
            }
            q
        })
        .boxed()
}

/// The text `serve_query_pool` (in `ipdb-bench`) generates for template
/// `i` over relations `Z{a}`..`Z{d}`.
fn serve_template(i: i64, [a, b, c, d]: [usize; 4]) -> String {
    let (g0, g1) = (
        serve_guard(0, 9_000_001 + 10 * i, ", "),
        serve_guard(1, 9_100_001 + 10 * i, ", "),
    );
    format!(
        "pi[0](sigma[and({g0})](pi[0](sigma[and({g1})](pi[0,1](\
         sigma[and(#1=#2, #3=#4, #5=#6)](((pi[0,1](sigma[and({g0})](Z{a})) x \
         pi[0,1](sigma[and({g1})](Z{b}))) x Z{c}) x pi[0,1](Z{d})))))))"
    )
}

/// A template's always-true 8-atom guard on column `col`, its atoms
/// joined by `sep` (`", "` in the template text, `","` when rendered).
fn serve_guard(col: usize, first: i64, sep: &str) -> String {
    (first..first + 8)
        .map(|k| format!("#{col}!={k}"))
        .collect::<Vec<_>>()
        .join(sep)
}

/// Pins the optimizer's output on three `serve_query_pool(2048, 7)`
/// templates (indices 0–2): the guards fuse and push onto the chain's
/// leaves, the three spanning equalities become hash joins, and the
/// fixpoint certifies on the fourth pass.
#[test]
fn optimize_pins_serve_pool_templates() {
    let schema = Schema::new((0..8).map(|r| (format!("Z{r}"), 2))).unwrap();
    for (i, rels) in [(0, [0, 5, 1, 1]), (1, [0, 1, 0, 0]), (2, [1, 0, 7, 6])] {
        let [a, b, c, d] = rels;
        let (g0, g1) = (
            serve_guard(0, 9_000_001 + 10 * i, ","),
            serve_guard(1, 9_100_001 + 10 * i, ","),
        );
        let expected = format!(
            "sigma[and({g0})](pi[0](sigma[and({g1})](pi[0,1](\
             join[#5=#6](join[#3=#4](join[#1=#2](\
             sigma[and({g0})](Z{a}), sigma[and({g1})](Z{b})), Z{c}), Z{d})))))"
        );
        let q = parser::parse(&serve_template(i, rels)).unwrap();
        let plan = Plan::from_query_schema(&q, &schema).unwrap();
        let (out, stats) = optimize_plan_stats(&plan);
        assert_eq!(parser::render(&out.to_query()), expected, "template {i}");
        assert_eq!(stats.passes, 4, "template {i}");
        assert!(stats.converged);
        assert_eq!(passes_with_exact_flags(plan), 4, "template {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every pass of the fixpoint reports a change iff it rewrote the
    /// plan, and the loop takes as many passes as the stats say.
    #[test]
    fn optimize_pass_flags_are_exact(q in arb_query(2, 3, 4, 3)) {
        let plan = Plan::from_query(&q, 2).unwrap();
        let passes = passes_with_exact_flags(plan.clone());
        prop_assert_eq!(passes, optimize_plan_stats(&plan).1.passes);
    }

    /// The same over wide, oddly nested guards stacked σ-over-π-over-σ;
    /// the optimized plan also still answers like the naive one.
    #[test]
    fn optimize_pass_flags_are_exact_on_wide_guards(
        q in arb_guarded_query(),
        i in arb_instance(2, 4, 3),
    ) {
        let plan = Plan::from_query(&q, 2).unwrap();
        let passes = passes_with_exact_flags(plan.clone());
        prop_assert_eq!(passes, optimize_plan_stats(&plan).1.passes);
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        let (optimized, naive) = optimized_and_naive(&stmt, i);
        prop_assert_eq!(optimized, naive);
    }

    /// Acceptance criterion: the canonical surface syntax round-trips
    /// through the parser for arbitrary well-typed RA queries.
    #[test]
    fn parse_inverts_render(q in arb_query(2, 3, 3, 3)) {
        let text = parser::render(&q);
        prop_assert_eq!(parser::parse(&text).unwrap(), q);
    }

    /// Optimization preserves the query's output arity.
    #[test]
    fn optimize_preserves_arity(q in arb_query(2, 3, 3, 3)) {
        let o = optimize(&q, 2).unwrap();
        prop_assert_eq!(o.arity(2).unwrap(), q.arity(2).unwrap());
    }

    /// Acceptance criterion: the fixpoint loop genuinely converges
    /// within its `2·depth + 2` bound — so optimization is idempotent
    /// (`optimize_plan ∘ optimize_plan = optimize_plan`) and the stats
    /// report the convergence it certifies.
    #[test]
    fn optimize_plan_is_idempotent(q in arb_query(2, 3, 4, 3)) {
        let plan = Plan::from_query(&q, 2).unwrap();
        let (once, stats) = optimize_plan_stats(&plan);
        prop_assert!(
            stats.converged,
            "bound exhausted after {} passes on {}", stats.passes, q
        );
        prop_assert_eq!(optimize_plan(&once), once.clone());
        // A fixpoint certifies in exactly one (no-op) pass.
        let (_, again) = optimize_plan_stats(&once);
        prop_assert_eq!(again.passes, 1);
        prop_assert!(again.converged);
    }

    /// Instance backend: optimized and naive evaluation coincide.
    #[test]
    fn optimize_equivalent_on_instances(
        q in arb_query(2, 3, 3, 3),
        i in arb_instance(2, 4, 3),
    ) {
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        let (optimized, naive) = optimized_and_naive(&stmt, i);
        prop_assert_eq!(optimized, naive);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// C-table backend: the two plans agree worldwise — under every
    /// valuation of the (finite-domain) input table.
    #[test]
    fn optimize_equivalent_on_ctables(
        q in arb_query(2, 2, 3, 2),
        t in arb_finite_ctable(2, 3, 3, 2),
    ) {
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        let (optimized, naive) = optimized_and_naive(&stmt, t.clone());
        for nu in all_valuations(&t) {
            prop_assert_eq!(
                naive.apply_valuation(&nu).unwrap(),
                optimized.apply_valuation(&nu).unwrap(),
                "query {} under {}", q, nu
            );
        }
    }

    /// Pc-table backend: the two plans induce the same exact
    /// distribution over answer worlds.
    #[test]
    fn optimize_equivalent_on_pctables(
        q in arb_query(2, 2, 2, 2),
        t in arb_finite_ctable(2, 2, 2, 1),
    ) {
        let pc = uniform_pctable(&t);
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        let (optimized, naive) = optimized_and_naive(&stmt, pc);
        let (optimized, naive) = (optimized.mod_space().unwrap(), naive.mod_space().unwrap());
        prop_assert!(
            naive.same_distribution(&optimized),
            "query {} produced different distributions", q
        );
    }
}
