//! Pipeline property tests.
//!
//! * the parser inverts the canonical renderer on arbitrary queries
//!   (`parse(render(q)) == q`);
//! * the optimizer is semantics-preserving on **all three backends**:
//!   for random queries and random small inputs, `optimize(q)` evaluates
//!   identically to `q` over conventional instances, c-tables (compared
//!   under every valuation of a finite domain), and pc-tables (compared
//!   as exact distributions);
//! * optimization preserves arity and is idempotent.
//!
//! The pass-level properties (each pass's change flag is exact, the
//! serving templates' pinned output) live beside the private pass
//! function, in the `optimize` module's unit tests.

use proptest::prelude::*;

use ipdb_engine::{optimize, parser, Backend, Catalog, Engine, Prepared};
use ipdb_logic::{Valuation, Var};
use ipdb_prob::{FiniteSpace, PcTable, Rat};
use ipdb_rel::strategies::{arb_instance, arb_query};
use ipdb_rel::{Schema, Value};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
        let (o, _) = optimize(&q, &Schema::single(2)).unwrap();
        prop_assert_eq!(o.arity(2).unwrap(), q.arity(2).unwrap());
    }

    /// Acceptance criterion: the fixpoint loop genuinely converges
    /// within its `2·depth + 2` bound — so optimization is idempotent
    /// (`optimize ∘ optimize = optimize`) and the stats report the
    /// convergence it certifies.
    #[test]
    fn optimize_plan_is_idempotent(q in arb_query(2, 3, 4, 3)) {
        let v = Schema::single(2);
        let (once, stats) = optimize(&q, &v).unwrap();
        prop_assert!(
            stats.converged,
            "bound exhausted after {} passes on {}", stats.passes, q
        );
        // A fixpoint re-optimizes to itself, certified in exactly one
        // (no-op) pass.
        let (twice, again) = optimize(&once, &v).unwrap();
        prop_assert_eq!(twice, once);
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
