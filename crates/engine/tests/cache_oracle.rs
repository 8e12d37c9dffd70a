//! The plan-cache differential oracle.
//!
//! A [`PlanCache`] hit must be *observationally invisible*: executing a
//! cached `Arc<Prepared>` gives exactly the answer a fresh
//! `Engine::prepare_schema` would, on every backend — instances,
//! c-tables, and pc-tables — across random queries and random
//! multi-relation schemas. On top of the differential sweep, two
//! deterministic regressions pin the cache's key discipline:
//!
//! * **cross-schema collision** — the same query text prepared under two
//!   schemas that declare different arities for the same name must yield
//!   two distinct entries (keying by text alone would serve an
//!   arity-mismatched plan, the latent bug this cache is built not to
//!   have);
//! * **LRU at capacity 1** — the degenerate cache still serves correct
//!   answers while evicting on every alternation, and never leaks alias
//!   entries past their evicted plan;
//! * **concurrent churn** — threads racing on overlapping keys through a
//!   tiny cache (so misses adopt each other's inserts) are always served
//!   the fresh plan, and the counters account for every call.
//!
//! Run counts are deliberately modest for CI; soak with
//! `PROPTEST_CASES=256 cargo test -p ipdb-engine --test cache_oracle`
//! (the vendored proptest honors the env override globally).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ipdb_engine::{parser, Catalog, Engine, PlanCache, Schema};
use ipdb_logic::Var;
use ipdb_prob::{FiniteSpace, PcTable, Rat};
use ipdb_rel::strategies::{arb_catalog_case, arb_instance};
use ipdb_rel::{instance, Value};
use ipdb_tables::strategies::arb_finite_ctable;
use ipdb_tables::CTable;

/// Pairs the schema's names with its generated relations.
fn catalog_of<T: Clone>(schema: &[(String, usize)], rels: [&T; 3]) -> Catalog<T> {
    schema
        .iter()
        .zip(rels)
        .map(|((n, _), r)| (n.clone(), r.clone()))
        .collect()
}

/// Uniform distributions over each variable's domain, making the
/// c-table a pc-table. Uniform masses depend only on the (shared)
/// domains, so tables drawing variables from one namespace stay
/// consistent — the catalog's shared-namespace contract.
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Instance backend: a cold miss, a warm hit, and a hit through the
    /// rendered (canonical) spelling all execute to exactly the fresh
    /// `prepare_schema` answer — and the warm calls return the *same*
    /// `Arc` without re-planning.
    #[test]
    fn cached_equals_fresh_on_instances(
        (schema, q, i0, i1, i2) in arb_catalog_case(2, 3, 3, |a| arb_instance(a, 4, 3).boxed())
    ) {
        let s = Schema::new(schema.clone()).unwrap();
        let engine = Engine::new();
        let fresh = engine.prepare_schema(&q, &s).unwrap();
        let cat = catalog_of(&schema, [&i0, &i1, &i2]);
        let expected = fresh.execute_catalog(&cat).unwrap();

        let cache = PlanCache::new(8);
        let cold = cache.prepare(&engine, &q, &s).unwrap();
        let warm = cache.prepare(&engine, &q, &s).unwrap();
        let by_text = cache.prepare_text(&engine, &parser::render(&q), &s).unwrap();
        prop_assert!(Arc::ptr_eq(&cold, &warm), "warm hit re-planned {}", q);
        prop_assert!(Arc::ptr_eq(&cold, &by_text), "canonical spelling missed {}", q);
        prop_assert_eq!(cache.misses(), 1);
        prop_assert_eq!(cache.hits(), 2);
        prop_assert_eq!(
            cold.execute_catalog(&cat).unwrap(),
            expected,
            "cached plan diverged from fresh prepare on {}", q
        );
    }

    /// The degenerate capacity-1 cache under a churning two-query
    /// workload: every answer still equals the fresh prepare, the cache
    /// never holds more than one entry, and each alternation is a miss.
    #[test]
    fn capacity_one_churn_stays_correct_on_instances(
        (schema, q, i0, i1, i2) in arb_catalog_case(2, 2, 3, |a| arb_instance(a, 4, 3).boxed())
    ) {
        let s = Schema::new(schema.clone()).unwrap();
        let engine = Engine::new();
        let cat = catalog_of(&schema, [&i0, &i1, &i2]);
        // A second query guaranteed distinct from `q` (it contains `q`
        // as a strict subterm, so the canonical texts differ).
        let other = ipdb_rel::Query::union(q.clone(), q.clone());
        let expect_q = engine.prepare_schema(&q, &s).unwrap().execute_catalog(&cat).unwrap();
        let expect_other =
            engine.prepare_schema(&other, &s).unwrap().execute_catalog(&cat).unwrap();

        let cache = PlanCache::new(1);
        for round in 0..3u64 {
            let a = cache.prepare(&engine, &q, &s).unwrap();
            let b = cache.prepare(&engine, &other, &s).unwrap();
            prop_assert!(cache.len() <= 1, "capacity-1 cache held {} entries", cache.len());
            prop_assert_eq!(cache.misses(), 2 * (round + 1), "alternation should evict");
            prop_assert_eq!(a.execute_catalog(&cat).unwrap(), expect_q.clone());
            prop_assert_eq!(b.execute_catalog(&cat).unwrap(), expect_other.clone());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// C-table backend: the cached plan's catalog answer is exactly the
    /// fresh prepare's (the executor is deterministic, so syntactic
    /// c-table equality is the right oracle).
    #[test]
    fn cached_equals_fresh_on_ctables(
        (schema, q, t0, t1, t2) in arb_catalog_case(2, 2, 2, |a| arb_finite_ctable(a, 2, 3, 2))
    ) {
        let s = Schema::new(schema.clone()).unwrap();
        let engine = Engine::new();
        let cat = catalog_of(&schema, [&t0, &t1, &t2]);
        let expected = engine.prepare_schema(&q, &s).unwrap().execute_catalog(&cat).unwrap();
        let cache = PlanCache::new(4);
        cache.prepare(&engine, &q, &s).unwrap();
        let warm = cache.prepare(&engine, &q, &s).unwrap();
        prop_assert_eq!(cache.hits(), 1);
        prop_assert_eq!(
            warm.execute_catalog(&cat).unwrap(),
            expected,
            "cached c-table plan diverged on {}", q
        );
    }

    /// Pc-table backend: same differential through the probabilistic
    /// catalog path (shared variable namespace, uniform distributions).
    #[test]
    fn cached_equals_fresh_on_pctables(
        (schema, q, t0, t1, t2) in arb_catalog_case(2, 2, 2, |a| arb_finite_ctable(a, 2, 2, 2))
    ) {
        let s = Schema::new(schema.clone()).unwrap();
        let engine = Engine::new();
        let cat: Catalog<PcTable<Rat>> = schema
            .iter()
            .zip([&t0, &t1, &t2])
            .map(|((n, _), t)| (n.clone(), uniform_pctable(t)))
            .collect();
        let expected = engine.prepare_schema(&q, &s).unwrap().execute_catalog(&cat).unwrap();
        let cache = PlanCache::new(4);
        cache.prepare(&engine, &q, &s).unwrap();
        let warm = cache.prepare(&engine, &q, &s).unwrap();
        prop_assert_eq!(cache.hits(), 1);
        prop_assert_eq!(
            warm.execute_catalog(&cat).unwrap(),
            expected,
            "cached pc-table plan diverged on {}", q
        );
    }
}

/// The cross-schema key-collision regression: `pi[1](R)` is a fine
/// query under `{R:2}` and an arity error under `{R:1}`. A cache keyed
/// by text alone would serve whichever prepared first — here the two
/// schemas get distinct entries, each executing correctly against its
/// own catalog.
#[test]
fn same_text_under_different_schemas_never_collides() {
    let engine = Engine::new();
    let cache = PlanCache::new(8);
    let wide = Schema::new([("R", 2)]).unwrap();
    let narrow = Schema::new([("R", 1)]).unwrap();

    let stmt_wide = cache.prepare_text(&engine, "pi[1](R)", &wide).unwrap();
    // Under the narrow schema the same text must *not* hit the wide
    // entry — it is an arity error, and the cache must surface it.
    assert!(cache.prepare_text(&engine, "pi[1](R)", &narrow).is_err());

    // A text valid under both schemas yields two distinct entries with
    // schema-appropriate answers.
    let all_wide = cache.prepare_text(&engine, "R", &wide).unwrap();
    let all_narrow = cache.prepare_text(&engine, "R", &narrow).unwrap();
    assert!(!Arc::ptr_eq(&all_wide, &all_narrow));
    let cat_wide: Catalog<_> = [("R", instance![[1, 2]])].into_iter().collect();
    let cat_narrow: Catalog<_> = [("R", instance![[7]])].into_iter().collect();
    assert_eq!(
        all_wide.execute_catalog(&cat_wide).unwrap(),
        instance![[1, 2]]
    );
    assert_eq!(
        all_narrow.execute_catalog(&cat_narrow).unwrap(),
        instance![[7]]
    );
    // Three distinct entries live in the cache: pi[1](R)@wide, R@wide,
    // R@narrow.
    assert_eq!(cache.len(), 3);
    assert_eq!(stmt_wide.input_arity(), None);
}

/// LRU at capacity 1, pinned deterministically: the second distinct
/// query evicts the first (so re-preparing the first misses again), and
/// non-canonical alias spellings die with their entry instead of
/// dangling.
#[test]
fn lru_capacity_one_evicts_and_drops_aliases() {
    let engine = Engine::new();
    let cache = PlanCache::new(1);
    let s = Schema::single(2);

    // A non-canonical spelling (extra whitespace) registers an alias.
    let a1 = cache.prepare_text(&engine, "pi[0]( V )", &s).unwrap();
    let a2 = cache.prepare_text(&engine, "pi[0](V)", &s).unwrap();
    assert!(
        Arc::ptr_eq(&a1, &a2),
        "alias should hit the canonical entry"
    );
    assert_eq!((cache.hits(), cache.misses()), (1, 1));

    // A second query evicts the first...
    cache.prepare_text(&engine, "sigma[#0=#1](V)", &s).unwrap();
    assert_eq!(cache.len(), 1);
    assert_eq!((cache.hits(), cache.misses()), (1, 2));

    // ...so both spellings of the first are cold again.
    let b1 = cache.prepare_text(&engine, "pi[0]( V )", &s).unwrap();
    assert_eq!((cache.hits(), cache.misses()), (1, 3));
    assert!(
        !Arc::ptr_eq(&a1, &b1),
        "evicted plan resurfaced from a stale alias"
    );
    assert_eq!(
        b1.execute_catalog(&Catalog::single(instance![[4, 5], [6, 7]]))
            .unwrap(),
        instance![[4], [6]]
    );
}

/// Four threads share a capacity-2 cache and step in lockstep over
/// overlapping texts under two schemas: each round every thread asks for
/// the same query, half of them through a non-canonical spelling, so
/// concurrent misses on one key race and the later inserts adopt the
/// first. Every served plan equals a fresh prepare of its text, the
/// cache stays within capacity, and every call is a hit or a miss.
#[test]
fn concurrent_churn_serves_fresh_plans_within_capacity() {
    // Three keys per schema cycle through two slots, so each round's key
    // is cold. Unions of selections make `prepare` slow enough for the
    // lockstep threads to overlap on the miss.
    let texts: Vec<[String; 2]> = (1..=3)
        .map(|k| {
            let arms: Vec<String> = (0..12)
                .map(|c| format!("sigma[#0={}](V)", k * 100 + c))
                .collect();
            let canonical = parser::render(&parser::parse(&arms.join(" union ")).unwrap());
            let spelled = canonical.replace('(', "( ");
            [canonical, spelled]
        })
        .collect();
    const THREADS: usize = 4;
    const ROUNDS: usize = 60;
    let engine = Engine::new();
    let schemas = [Schema::single(1), Schema::single(2)];
    let cache = PlanCache::new(2);
    // A spinning lockstep barrier: the threads stay on CPU, so a round's
    // misses start together (a blocking `Barrier` wakes them one at a
    // time, late enough that they mostly hit). Threads record mismatches
    // instead of panicking, which would leave the others spinning.
    let arrived = AtomicUsize::new(0);
    let stale: Vec<&str> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (engine, texts, schemas) = (&engine, &texts, &schemas);
                let (cache, arrived) = (&cache, &arrived);
                scope.spawn(move || {
                    let mut stale = Vec::new();
                    for round in 0..ROUNDS {
                        let text = texts[round % texts.len()][t % 2].as_str();
                        let schema = &schemas[(round / texts.len()) % schemas.len()];
                        // ORDERING: SeqCst — the counter only paces the
                        // threads; the cache's mutex carries all data.
                        arrived.fetch_add(1, Ordering::SeqCst);
                        while arrived.load(Ordering::SeqCst) < (round + 1) * THREADS {
                            std::hint::spin_loop();
                        }
                        let served = cache.prepare_text(engine, text, schema);
                        let fresh = engine.prepare_text_schema(text, schema);
                        if !matches!((served, fresh), (Ok(s), Ok(f)) if *s == f) {
                            stale.push(text);
                        }
                    }
                    stale
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    assert!(stale.is_empty(), "stale or failed plans for {stale:?}");
    assert!(cache.len() <= 2, "cache grew to {} entries", cache.len());
    assert_eq!(cache.hits() + cache.misses(), (THREADS * ROUNDS) as u64);
}
