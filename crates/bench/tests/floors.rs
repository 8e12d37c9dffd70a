//! Work-count floors for the engine's plan-quality and probability
//! claims. Each floor counts work the engine reports about itself
//! instead of timing it, so it gives the same figure on every run and
//! every host.
//!
//! * **Plan quality.** One prepared plan becomes hash joins on
//!   instances and c-tables (Theorem 4: the c-table algebra is the
//!   instance algebra with conditions carried along). The work of a
//!   plan is the rows it touches: the sum of `rows_out` over every
//!   operator of its [`OpReport`] tree, which the naive σ(×) spelling
//!   pays for the whole product.
//! * **Enum vs BDD.** The §8 event-expression probability beats Def. 13
//!   valuation enumeration: the enumeration oracle walks every
//!   valuation, while the BDD path's work is the nodes it allocates
//!   plus the `apply` calls it cannot answer from its cache
//!   ([`BddStats`]). The two distributions must be exactly equal.
//!
//! Each test prints its measured figures; run with `--nocapture` to
//! see them.

use std::collections::BTreeMap;

use ipdb_bench::{
    chain_pc_catalog, chain_schema, prob_smoke_pctable, random_chain_catalog, random_ctable,
    serve_catalog, serve_query_pool, serve_schema, skewed_instance, ENGINE_CHAIN_NAIVE,
    ENGINE_PRODUCT_HEAVY, ENGINE_PRODUCT_HEAVY_PUSHED, PROB_SMOKE_QUERY,
};
use ipdb_engine::{
    Backend, Catalog, Engine, ExecConfig, OpReport, PlanCache, Prepared, Query, ReportSink,
};
use ipdb_logic::Var;
use ipdb_prob::{BddStats, PcTable, Rat};

/// Rows touched by an executed plan: `rows_out` summed over the tree.
fn rows_touched(op: &OpReport) -> u64 {
    op.rows_out + op.children.iter().map(rows_touched).sum::<u64>()
}

/// Runs `q` (a statement's naive or optimized plan) over `cat` on one
/// thread and returns the answer with the rows it touched.
fn traced<B: Backend>(cat: &Catalog<B>, q: &Query) -> (B::Output, u64) {
    let mut sink = ReportSink::default();
    let out = B::execute(cat, q, &ExecConfig::serial(), &mut sink).unwrap();
    (out, rows_touched(&sink.finish()))
}

/// [`ENGINE_PRODUCT_HEAVY`] prepared over one binary input `V`.
fn product_heavy() -> Prepared {
    Engine::new()
        .prepare_text(ENGINE_PRODUCT_HEAVY, 2)
        .expect("well-typed")
}

#[test]
fn instance_join_touches_a_tenth_of_the_naive_rows() {
    let stmt = product_heavy();
    let pushed = Engine::new()
        .prepare_text(ENGINE_PRODUCT_HEAVY_PUSHED, 2)
        .expect("well-typed");
    let cat = Catalog::single(skewed_instance(256));
    let (naive_out, naive) = traced(&cat, stmt.naive_query());
    let (pushed_out, pushdown) = traced(&cat, pushed.naive_query());
    let (join_out, join) = traced(&cat, stmt.query());
    assert_eq!(naive_out, join_out);
    assert_eq!(pushed_out, join_out);
    // The row-at-a-time evaluator agrees with the columnar executor.
    let i = cat.get("V").unwrap();
    assert_eq!(stmt.naive_query().eval(i).unwrap(), join_out);
    assert_eq!(pushed.naive_query().eval(i).unwrap(), join_out);
    println!("instance_256 rows touched: naive {naive}, pushdown {pushdown}, join {join}");
    assert!(
        naive > pushdown && pushdown > join,
        "each plan must touch fewer rows than the last: naive {naive}, \
         pushdown {pushdown}, join {join}"
    );
    assert!(
        naive >= 10 * join,
        "the join plan must touch >= 10x fewer rows than the naive product \
         on the 256-row self-join: naive {naive}, join {join}"
    );
}

#[test]
fn ctable_join_touches_fewer_rows_than_the_naive_plan() {
    let stmt = product_heavy();
    let cat = Catalog::single(random_ctable(64, 2, 6, 4, 0xE9 + 64));
    let (_, naive) = traced(&cat, stmt.naive_query());
    let (_, join) = traced(&cat, stmt.query());
    println!("ctable_64 rows touched: naive {naive}, join {join}");
    assert!(
        naive > join,
        "the join plan must touch fewer rows than the naive product on the \
         64-row c-table: naive {naive}, join {join}"
    );
}

/// The pushdown-only spelling of [`ENGINE_CHAIN_NAIVE`], run unoptimized:
/// each equality filters the product it spans, with no hash join.
const CHAIN_PUSHED: &str = "sigma[#3=#4](sigma[#1=#2](R x S) x T)";

#[test]
fn chain_joins_touch_a_tenth_of_the_naive_rows() {
    let stmt = Engine::new()
        .prepare_text_schema(ENGINE_CHAIN_NAIVE, &chain_schema())
        .expect("well-typed");
    assert_eq!(
        stmt.explain().matches("join[").count(),
        2,
        "the chain must plan to two stacked hash joins:\n{}",
        stmt.explain()
    );
    let pushed = Engine::new()
        .prepare_text_schema(CHAIN_PUSHED, &chain_schema())
        .expect("well-typed");
    let cat = random_chain_catalog(64, 16, 0xCA7);
    let (naive_out, naive) = traced(&cat, stmt.naive_query());
    let (pushed_out, pushdown) = traced(&cat, pushed.naive_query());
    let (join_out, join) = traced(&cat, stmt.query());
    assert_eq!(naive_out, join_out);
    assert_eq!(pushed_out, join_out);
    assert_eq!(stmt.execute_catalog(&cat).unwrap(), join_out);
    println!("chain_64 rows touched: naive {naive}, pushdown {pushdown}, join {join}");
    assert!(
        naive > pushdown && pushdown > join,
        "each plan must touch fewer rows than the last: naive {naive}, \
         pushdown {pushdown}, join {join}"
    );
    assert!(
        naive >= 10 * join,
        "catalog hash joins must touch >= 10x fewer rows than the naive \
         product walk on the 64-row chain: naive {naive}, join {join}"
    );
}

/// How many valuations the enumeration oracle walks over `tables`:
/// the product of every shared variable's domain size.
fn valuation_count<'a>(tables: impl IntoIterator<Item = &'a PcTable<Rat>>) -> u64 {
    let domain_sizes: BTreeMap<Var, u64> = tables
        .into_iter()
        .flat_map(|t| t.dists().iter().map(|(v, d)| (*v, d.len() as u64)))
        .collect();
    domain_sizes.values().product()
}

/// The BDD path's work: fresh nodes plus uncached `apply` recursions.
fn bdd_work(bdd: &BddStats) -> u64 {
    bdd.nodes_allocated + bdd.apply_cache_misses
}

#[test]
fn bdd_does_a_tenth_of_the_enumeration_work_on_the_ring_pctable() {
    let stmt = Engine::new()
        .prepare_text(PROB_SMOKE_QUERY, 1)
        .expect("well-typed");
    let cat = Catalog::single(prob_smoke_pctable(14, 0xBDD));
    let enumerated = stmt.answer_dist_catalog_enum(&cat).unwrap();
    assert_eq!(stmt.answer_dist_catalog(&cat).unwrap(), enumerated);
    let (dist, report) = stmt.answer_dist_catalog_analyzed(&cat).unwrap();
    assert_eq!(dist, enumerated);
    let bdd = report.bdd.expect("pc-table reports carry BDD stats");
    let valuations = valuation_count(cat.iter().map(|(_, pc)| pc));
    assert_eq!(valuations, 1 << 14);
    println!("pctable_14var: {valuations} valuations, BDD work {bdd:?}");
    assert!(
        valuations >= 10 * bdd_work(&bdd),
        "the BDD path must do >= 10x less work than valuation enumeration \
         on the 14-variable pc-table: {valuations} valuations, {bdd:?}"
    );
}

#[test]
fn bdd_does_a_third_of_the_enumeration_work_on_the_chain_pc_catalog() {
    let stmt = Engine::new()
        .prepare_text_schema(ENGINE_CHAIN_NAIVE, &chain_schema())
        .expect("well-typed");
    let cat = chain_pc_catalog(5, 4, 0xBDD2);
    let enumerated = stmt.answer_dist_catalog_enum(&cat).unwrap();
    assert_eq!(stmt.answer_dist_catalog(&cat).unwrap(), enumerated);
    let (dist, report) = stmt.answer_dist_catalog_analyzed(&cat).unwrap();
    assert_eq!(dist, enumerated);
    let bdd = report.bdd.expect("pc-table reports carry BDD stats");
    let valuations = valuation_count(cat.iter().map(|(_, pc)| pc));
    assert_eq!(valuations, 1 << 13);
    println!("chain_pctable_13var: {valuations} valuations, BDD work {bdd:?}");
    assert!(
        bdd.nodes_allocated > 0 && bdd.wmc_calls > 0,
        "BDD compilation and WMC must both run: {bdd:?}"
    );
    // Zeros here mean the counters are wired wrong, not that the
    // workload is small: the chain needs both to stay ahead.
    assert!(
        bdd.unique_hits > 0 && bdd.apply_cache_hits > 0,
        "the 13-variable chain must exercise hash-consing and the apply \
         cache: {bdd:?}"
    );
    assert!(
        valuations >= 3 * bdd_work(&bdd),
        "the catalog BDD path must do >= 3x less work than valuation \
         enumeration on the 13-variable chain: {valuations} valuations, {bdd:?}"
    );
}

#[test]
fn cached_plans_answer_like_fresh_ones() {
    let (engine, schema, cat) = (Engine::new(), serve_schema(), serve_catalog(16));
    let cache = PlanCache::new(48);
    for text in &serve_query_pool(48, 0x21F) {
        let fresh = engine.prepare_text_schema(text, &schema).unwrap();
        let cached = cache.prepare_text(&engine, text, &schema).unwrap();
        assert_eq!(
            fresh.execute_catalog(&cat).unwrap(),
            cached.execute_catalog(&cat).unwrap(),
            "cached plan diverged on {text}"
        );
    }
}
