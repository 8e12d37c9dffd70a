//! E09 — the query pipeline: naive tree-walking evaluation vs. the
//! optimized plan, on product-heavy workloads.
//!
//! Three execution strategies are compared on the same σ(×) self-join:
//!
//! * **naive** — the unoptimized plan: materialize the full n² cross
//!   product, then filter;
//! * **pushdown** — one-sided selections pre-pushed into the factors,
//!   but the spanning `#1=#3` kept as a filter above the product
//!   (the engine's pre-join optimizer output);
//! * **join** — the full optimizer output: pushed-down factors *and* the
//!   spanning equality executed as a hash `Join`.
//!
//! The same naive-vs-join effect is measured on the c-table algebra,
//! where hashing the ground key columns also skips the quadratic blow-up
//! of composed row *conditions*. A third group measures front-end
//! overhead (parse + plan + optimize), on the small SPJ query and on a
//! serving template whose wide guards the optimizer fuses and pushes.
//!
//! The `engine_probe` group runs the columnar executor on a 100k-row
//! probe whose side carries a selection vector (σ on `S` below the
//! join) and whose join key has two columns, so every columnar kernel
//! runs its selected-batch branch.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ipdb_bench::{
    parallel_build_side, parallel_probe_side, parallel_schema, random_ctable, serve_query_pool,
    serve_schema, skewed_instance, ENGINE_PRODUCT_HEAVY as PRODUCT_HEAVY,
    ENGINE_PRODUCT_HEAVY_PUSHED as PRODUCT_HEAVY_PUSHED,
};
use ipdb_engine::{Backend, Catalog, Engine, ExecConfig};
use ipdb_rel::Instance;
use ipdb_tables::CTable;

fn bench_instances(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_instance");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let stmt = Engine::new()
        .prepare_text(PRODUCT_HEAVY, 2)
        .expect("well-typed");
    let pushed_stmt = Engine::new()
        .prepare_text(PRODUCT_HEAVY_PUSHED, 2)
        .expect("well-typed");
    let naive = stmt.naive_query();
    let pushed = pushed_stmt.naive_query();
    let join = stmt.query();
    for rows in [16usize, 64, 256] {
        let i = Catalog::single(skewed_instance(rows));
        let run = |q| Instance::run_catalog(&i, q).unwrap();
        assert_eq!(run(naive), run(join));
        assert_eq!(run(pushed), run(join));
        group.bench_function(BenchmarkId::new("naive", rows), |b| b.iter(|| run(naive)));
        group.bench_function(BenchmarkId::new("pushdown", rows), |b| {
            b.iter(|| run(pushed))
        });
        group.bench_function(BenchmarkId::new("join", rows), |b| b.iter(|| run(join)));
    }
    group.finish();
}

fn bench_ctables(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_ctable");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let stmt = Engine::new()
        .prepare_text(PRODUCT_HEAVY, 2)
        .expect("well-typed");
    let naive = stmt.naive_query();
    let optimized = stmt.query();
    for rows in [4usize, 16, 64] {
        let t = Catalog::single(random_ctable(rows, 2, 6, 4, 0xE9 + rows as u64));
        group.bench_function(BenchmarkId::new("naive", rows), |b| {
            b.iter(|| CTable::run_catalog(&t, naive).unwrap())
        });
        group.bench_function(BenchmarkId::new("join", rows), |b| {
            b.iter(|| CTable::run_catalog(&t, optimized).unwrap())
        });
    }
    group.finish();
}

fn bench_prepare(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_prepare");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let engine = Engine::new();
    group.bench_function(BenchmarkId::new("parse_plan_optimize", "spj"), |b| {
        b.iter(|| engine.prepare_text(PRODUCT_HEAVY, 2).unwrap())
    });
    let schema = serve_schema();
    let template = &serve_query_pool(1, 7)[0];
    group.bench_function(
        BenchmarkId::new("parse_plan_optimize", "serve_template"),
        |b| b.iter(|| engine.prepare_text_schema(template, &schema).unwrap()),
    );
    group.finish();
}

/// A hash join on the two-column key `R.#1 = S.#0, R.#0 = S.#0` whose
/// probe side is `σ[#1!=1](S)`: a selection vector over 100k rows. The
/// build side is selected too. Runs serially under an explicit
/// [`ExecConfig`], so neither the environment nor the host's core count
/// changes what is timed.
fn bench_selected_probe(c: &mut Criterion) {
    const QUERY: &str = "sigma[and(#1=#2, #0=#2, #1!=0)](R x sigma[#1!=1](S))";
    const BUILD: usize = 1024;
    const PROBE: usize = 100_000;
    let mut group = c.benchmark_group("engine_probe");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let stmt = Engine::new()
        .prepare_text_schema(QUERY, &parallel_schema())
        .expect("well-typed");
    let plan = stmt.explain();
    assert!(
        plan.contains("join[#1=#2,#0=#2]"),
        "two-column key join:\n{plan}"
    );
    let (r, s) = (parallel_build_side(BUILD), parallel_probe_side(PROBE));
    let map: std::collections::BTreeMap<String, Instance> =
        [("R".to_string(), r.clone()), ("S".to_string(), s.clone())]
            .into_iter()
            .collect();
    let cat: Catalog<Instance> = [("R", r), ("S", s)].into_iter().collect();
    let cfg = ExecConfig::serial();
    let expected = stmt.query().eval_catalog(&map).expect("row path runs");
    // Keys k = j with k ≠ 0 and j mod 3 ≠ 1.
    assert_eq!(expected.len(), (1..BUILD).filter(|k| k % 3 != 1).count());
    assert_eq!(stmt.execute_catalog_with(&cat, &cfg).unwrap(), expected);
    group.bench_function(BenchmarkId::new("selected_two_key", PROBE), |b| {
        b.iter(|| stmt.execute_catalog_with(&cat, &cfg).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_instances,
    bench_ctables,
    bench_prepare,
    bench_selected_probe
);
criterion_main!(benches);
