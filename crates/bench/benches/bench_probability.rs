//! E16–E17 — the two probability engines for `P[t ∈ answer]`: world
//! enumeration vs finite-domain ROBDD weighted model counting, by
//! variable count — plus the full answer-distribution pipeline
//! (`answer_dist_catalog_enum` vs the BDD fast path) whose work `tests/floors.rs`
//! compares, and the BDD path over variables of 4 and 8 values.
//!
//! The shape to expect: enumeration is exponential in *all* variables;
//! the BDD engine encodes only the variables of the tuple's condition and
//! shares subproblems across it.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ipdb_bench::{prob_smoke_pctable, random_boolean_pctable, random_pctable, PROB_SMOKE_QUERY};
use ipdb_engine::{Catalog, Engine};
use ipdb_rel::Tuple;

fn probe() -> Tuple {
    Tuple::new([7i64])
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("probability_engines");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    for nvars in [4u32, 8, 12] {
        let pc = random_boolean_pctable(8, 1, nvars, 0x77 + nvars as u64).into_pctable();
        if nvars <= 8 {
            group.bench_with_input(BenchmarkId::new("enumerate", nvars), &pc, |b, pc| {
                b.iter(|| pc.tuple_prob_enum(&probe()).unwrap())
            });
        }
        group.bench_with_input(BenchmarkId::new("fd_bdd", nvars), &pc, |b, pc| {
            b.iter(|| pc.tuple_prob_bdd(&probe()).unwrap())
        });
    }
    group.finish();
}

/// The full answer-distribution pipeline on the [`PROB_SMOKE_QUERY`] workload:
/// §8 valuation enumeration vs the shared-manager BDD + WMC path.
fn bench_answer_dist(c: &mut Criterion) {
    let mut group = c.benchmark_group("answer_dist");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    for nvars in [6u32, 9, 12] {
        let cat = Catalog::single(prob_smoke_pctable(nvars, 0xBDD));
        let stmt = Engine::new()
            .prepare_text(PROB_SMOKE_QUERY, 1)
            .expect("well-typed");
        group.bench_with_input(BenchmarkId::new("enumerate", nvars), &cat, |b, cat| {
            b.iter(|| stmt.answer_dist_catalog_enum(cat).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("bdd_wmc", nvars), &cat, |b, cat| {
            b.iter(|| stmt.answer_dist_catalog(cat).unwrap())
        });
    }
    // Multi-valued variables: with `d` values a variable takes `d − 1`
    // BDD levels and `x = vᵢ` is a cube of up to `i + 1` literals.
    // `σ[#0=#1]` adds var–var atoms between tuple variables.
    let q = ipdb_rel::Query::select(ipdb_rel::Query::Input, ipdb_rel::Pred::eq_cols(0, 1));
    for domain_size in [4i64, 8] {
        let pc = random_pctable(8, 2, 6, domain_size, 0xD0 + domain_size as u64);
        group.bench_with_input(
            BenchmarkId::new("bdd_wmc_domain", domain_size),
            &pc,
            |b, pc| b.iter(|| pc.answer_dist_bdd(&q).unwrap()),
        );
    }
    group.finish();
}

fn bench_thm9_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm9_closure");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    let q = ipdb_rel::Query::project(
        ipdb_rel::Query::select(
            ipdb_rel::Query::product(ipdb_rel::Query::Input, ipdb_rel::Query::Input),
            ipdb_rel::Pred::eq_cols(0, 2),
        ),
        vec![0, 1],
    );
    for nvars in [2u32, 4, 6] {
        let pc = random_pctable(4, 2, nvars, 3, 0x99 + nvars as u64);
        // Symbolic path: q̄(T) (cheap) …
        group.bench_with_input(BenchmarkId::new("qbar_only", nvars), &pc, |b, pc| {
            b.iter(|| pc.eval_query(&q).unwrap())
        });
        // … vs materializing the answer distribution.
        group.bench_with_input(BenchmarkId::new("qbar_then_mod", nvars), &pc, |b, pc| {
            b.iter(|| pc.eval_query(&q).unwrap().mod_space().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("mod_then_image", nvars), &pc, |b, pc| {
            b.iter(|| pc.mod_space().unwrap().map_query(&q).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engines,
    bench_answer_dist,
    bench_thm9_closure
);
criterion_main!(benches);
