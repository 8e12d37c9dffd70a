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
//! overhead (parse + plan + optimize).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ipdb_bench::{
    random_ctable, skewed_instance, ENGINE_PRODUCT_HEAVY as PRODUCT_HEAVY,
    ENGINE_PRODUCT_HEAVY_PUSHED as PRODUCT_HEAVY_PUSHED,
};
use ipdb_engine::{Backend, Catalog, Engine};
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
        let i: Catalog<Instance> = [("V", skewed_instance(rows))].into_iter().collect();
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
        let t: Catalog<CTable> = [("V", random_ctable(rows, 2, 6, 4, 0xE9 + rows as u64))]
            .into_iter()
            .collect();
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
    group.finish();
}

criterion_group!(benches, bench_instances, bench_ctables, bench_prepare);
criterion_main!(benches);
