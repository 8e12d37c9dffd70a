//! Quick-mode engine perf smoke: times the three execution strategies
//! of `bench_engine` (naive σ(×), pushdown-only, hash join) plus the two
//! pc-table probability paths (valuation enumeration vs BDD + WMC) with
//! capped iteration counts and writes the ns/iter figures to
//! `BENCH_engine.json`. The tracked copy of that file at the repo root
//! is the perf-trajectory record — re-run this bin and commit the
//! refreshed numbers when the engine's execution paths change; CI runs
//! it per push as a gate (printing, not persisting, its figures).
//!
//! Run with `cargo run --release -p ipdb-bench --bin bench_smoke`.
//! Unlike the criterion benches this is fast enough (< a few seconds)
//! to run on every CI push, and it *asserts* the acceptance floors: the
//! join path must beat the naive nested-loop σ(×) by ≥ 10× on the
//! 256-row instance self-join and must beat it on the c-table case, and
//! the BDD probability path must beat valuation enumeration by ≥ 10× on
//! the 14-variable pc-table workload (where enumeration visits 2¹⁴
//! valuations).
//!
//! Two observability gates ride along: the metrics layer (`ipdb-obs`)
//! is timed off-vs-on on the 100k-row probe join and must stay within
//! 5% when off, and an `EXPLAIN ANALYZE` run plus a metrics snapshot
//! (`BENCH_metrics.json`) are produced and sanity-checked.

use std::fmt::Write as _;
use std::time::Instant;

use ipdb_bench::{
    chain_pc_catalog, chain_schema, leaf_reuse_ctable, parallel_build_side, parallel_probe_side,
    parallel_schema, prob_smoke_pctable, random_chain_catalog, random_ctable, serve_catalog,
    serve_query_pool, serve_relation, serve_trace, skewed_instance, ServeOp, ENGINE_CHAIN_NAIVE,
    ENGINE_PARALLEL_JOIN, ENGINE_PRODUCT_HEAVY as PRODUCT_HEAVY,
    ENGINE_PRODUCT_HEAVY_PUSHED as PRODUCT_HEAVY_PUSHED, PROB_SMOKE_QUERY,
};
use ipdb_engine::{
    Backend, Catalog, Engine, ExecConfig, PlanCache, Request, Server, ServerConfig, SnapshotCatalog,
};
use ipdb_rel::Instance;
use ipdb_tables::CTable;

/// Median-of-runs wall-clock timer with quick-mode caps: 2 warmup runs,
/// then up to `max_iters` timed runs or ~250 ms, whichever first.
fn time_ns(mut f: impl FnMut()) -> f64 {
    const MAX_ITERS: usize = 30;
    const BUDGET_NS: u128 = 250_000_000;
    f();
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < MAX_ITERS && start.elapsed().as_nanos() < BUDGET_NS {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn main() {
    let stmt = Engine::new()
        .prepare_text(PRODUCT_HEAVY, 2)
        .expect("well-typed");
    let pushed_stmt = Engine::new()
        .prepare_text(PRODUCT_HEAVY_PUSHED, 2)
        .expect("well-typed");
    let naive = stmt.naive_query();
    let pushed = pushed_stmt.naive_query();
    let join = stmt.query();

    // Plan-quality series: naive σ(×) vs pushdown vs hash join, all
    // three pinned to the row-at-a-time evaluator so the ratios keep
    // measuring the *plans* (the columnar/morsel executor behind
    // `Backend::execute` has its own scaling series below, and it
    // compresses these gaps by vectorizing the naive walk too).
    let i = skewed_instance(256);
    assert_eq!(naive.eval(&i).unwrap(), join.eval(&i).unwrap());
    assert_eq!(pushed.eval(&i).unwrap(), join.eval(&i).unwrap());
    let inst_naive = time_ns(|| {
        naive.eval(&i).unwrap();
    });
    let inst_pushdown = time_ns(|| {
        pushed.eval(&i).unwrap();
    });
    let inst_join = time_ns(|| {
        join.eval(&i).unwrap();
    });

    let t: Catalog<CTable> = [("V", random_ctable(64, 2, 6, 4, 0xE9 + 64))]
        .into_iter()
        .collect();
    let ct_naive = time_ns(|| {
        CTable::run_catalog(&t, naive).unwrap();
    });
    let ct_join = time_ns(|| {
        CTable::run_catalog(&t, join).unwrap();
    });

    // Pc-table probability series: the answer distribution of the smoke
    // query over a 14-variable pc-table (2¹⁴ valuations for the
    // enumeration path), by valuation enumeration vs the BDD + WMC fast
    // path. Exact equality of the two distributions is asserted before
    // timing.
    const PROB_NVARS: u32 = 14;
    let pc = prob_smoke_pctable(PROB_NVARS, 0xBDD);
    let pstmt = Engine::new()
        .prepare_text(PROB_SMOKE_QUERY, 1)
        .expect("well-typed");
    assert_eq!(
        pstmt.answer_dist(&pc).unwrap(),
        pstmt.answer_dist_enum(&pc).unwrap(),
        "BDD and enumeration paths must produce the same distribution"
    );
    let prob_enum = time_ns(|| {
        pstmt.answer_dist_enum(&pc).unwrap();
    });
    let prob_bdd = time_ns(|| {
        pstmt.answer_dist(&pc).unwrap();
    });

    // Named-relation catalog series: the 3-relation chain join
    // R ⋈ S ⋈ T, prepared once over the {R,S,T} schema. Instance
    // catalog: hash joins vs the naive σ((R×S)×T) walk of rows³
    // concatenations. Pc-table catalog (shared variable namespace):
    // BDD answer distribution vs §8 valuation enumeration. Equality is
    // asserted before timing, as for the single-relation series.
    const CHAIN_ROWS: usize = 64;
    let chain_stmt = Engine::new()
        .prepare_text_schema(ENGINE_CHAIN_NAIVE, &chain_schema())
        .expect("well-typed");
    assert!(
        chain_stmt.explain().matches("join[").count() == 2,
        "chain workload must plan to two stacked hash joins:\n{}",
        chain_stmt.explain()
    );
    let chain_cat = random_chain_catalog(CHAIN_ROWS, 16, 0xCA7);
    assert_eq!(
        chain_stmt.execute_catalog(&chain_cat).unwrap(),
        chain_stmt.execute_catalog_naive(&chain_cat).unwrap()
    );
    let chain_naive = time_ns(|| {
        chain_stmt.execute_catalog_naive(&chain_cat).unwrap();
    });
    let chain_join = time_ns(|| {
        chain_stmt.execute_catalog(&chain_cat).unwrap();
    });

    // Columnar / morsel-parallel series: an asymmetric hash join — a
    // small build relation R probed by a 100k-row scan of S — run three
    // ways: the row-at-a-time evaluator (`Query::eval_catalog`), the
    // columnar executor pinned to one thread, and the columnar executor
    // on every available core. All three must return the identical
    // relation (the executor's determinism contract) before anything is
    // timed.
    const PAR_BUILD: usize = 1024;
    const PAR_PROBE: usize = 100_000;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let par_stmt = Engine::new()
        .prepare_text_schema(ENGINE_PARALLEL_JOIN, &parallel_schema())
        .expect("well-typed");
    assert!(
        par_stmt.explain().contains("join["),
        "scaling workload must plan to a hash join:\n{}",
        par_stmt.explain()
    );
    let (r, s) = (
        parallel_build_side(PAR_BUILD),
        parallel_probe_side(PAR_PROBE),
    );
    let par_map: std::collections::BTreeMap<String, ipdb_rel::Instance> =
        [("R".to_string(), r.clone()), ("S".to_string(), s.clone())]
            .into_iter()
            .collect();
    let mut par_cat = Catalog::new();
    par_cat.insert("R", r);
    par_cat.insert("S", s);
    let serial_cfg = ExecConfig::serial();
    let fanout_cfg = ExecConfig::with_threads(cores);
    let row_result = par_stmt.query().eval_catalog(&par_map).unwrap();
    // Join keeps the |R| probe keys that hit; the residual and the
    // pushed-down selection drop exactly k ∈ {0, 1, 2}.
    assert_eq!(row_result.len(), PAR_BUILD - 3);
    assert_eq!(
        par_stmt
            .execute_catalog_with(&par_cat, &serial_cfg)
            .unwrap(),
        row_result
    );
    assert_eq!(
        par_stmt
            .execute_catalog_with(&par_cat, &fanout_cfg)
            .unwrap(),
        row_result
    );
    // This series asserts a *scaling* floor, so it times by interleaved
    // best-of-N: one iteration of each path per round, keeping the
    // minimum. The minimum approximates the uncontended cost of each
    // path, which is the right statistic on hosts with noisy neighbors
    // (a median would compare how often each path got preempted). Even
    // so, a burst of preemption can poison every sample of one path in
    // a single pass, so the measurement re-runs (up to three passes)
    // until the floors clear; the last pass is what gets reported and
    // asserted.
    let floors_ok = |columnar: f64, parallel: f64| {
        columnar >= 1.0
            && if cores >= 4 {
                parallel >= 2.0
            } else if cores >= 2 {
                parallel >= 0.95
            } else {
                true
            }
    };
    let (mut par_row, mut par_columnar, mut par_parallel) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let once = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as f64
    };
    for attempt in 1..=3 {
        let (mut row, mut columnar, mut parallel) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..16 {
            row = row.min(once(&mut || {
                par_stmt.query().eval_catalog(&par_map).unwrap();
            }));
            columnar = columnar.min(once(&mut || {
                par_stmt
                    .execute_catalog_with(&par_cat, &serial_cfg)
                    .unwrap();
            }));
            parallel = parallel.min(once(&mut || {
                par_stmt
                    .execute_catalog_with(&par_cat, &fanout_cfg)
                    .unwrap();
            }));
        }
        (par_row, par_columnar, par_parallel) = (row, columnar, parallel);
        if floors_ok(row / columnar, columnar / parallel) {
            break;
        }
        eprintln!(
            "bench_smoke: parallel series below floor on pass {attempt} \
             (columnar {:.2}x, parallel {:.2}x), re-measuring",
            row / columnar,
            columnar / parallel
        );
    }

    // Metrics-overhead series: the same 100k-row probe join with the
    // observability layer fully off vs fully on (global flag plus the
    // per-config knob), timed by the same interleaved best-of-16
    // minimum. The `ipdb-obs` contract is near-zero cost when off —
    // every instrumented call site gates on one relaxed atomic load or
    // a config bool — so the off path must stay within 5% of itself
    // re-measured under the on flag's counter traffic. Like the scaling
    // floors, a preemption burst can poison one side of a pass, so the
    // measurement re-runs up to three times before asserting.
    let cfg_off = ExecConfig {
        metrics: false,
        ..ExecConfig::with_threads(cores)
    };
    let cfg_on = ExecConfig {
        metrics: true,
        ..ExecConfig::with_threads(cores)
    };
    let (mut met_off, mut met_on) = (f64::INFINITY, f64::INFINITY);
    for attempt in 1..=3 {
        let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..16 {
            ipdb_obs::set_enabled(false);
            off = off.min(once(&mut || {
                par_stmt.execute_catalog_with(&par_cat, &cfg_off).unwrap();
            }));
            ipdb_obs::set_enabled(true);
            on = on.min(once(&mut || {
                par_stmt.execute_catalog_with(&par_cat, &cfg_on).unwrap();
            }));
            ipdb_obs::set_enabled(false);
        }
        (met_off, met_on) = (off, on);
        if on / off <= 1.05 {
            break;
        }
        eprintln!(
            "bench_smoke: metrics overhead above floor on pass {attempt} \
             ({:.3}x), re-measuring",
            on / off
        );
    }
    let metrics_overhead = met_on / met_off;

    // EXPLAIN ANALYZE must be a pure observer with a self-consistent
    // report: the identical relation, the exact root cardinality, and
    // per-operator exclusive times that sum back to the root's
    // inclusive time, all inside the measured wall-clock total.
    let (analyzed_out, par_report) = par_stmt
        .execute_catalog_analyzed(&par_cat, &cfg_off)
        .unwrap();
    assert_eq!(analyzed_out, row_result, "analyzed run must match plain");
    assert_eq!(par_report.root.rows_out, (PAR_BUILD - 3) as u64);
    assert_eq!(
        par_report.root.total_exclusive_ns(),
        par_report.root.ns,
        "per-operator exclusive times must sum to the root's inclusive time"
    );
    assert!(
        par_report.root.ns <= par_report.total_ns,
        "operator tree time must fit inside the measured total"
    );
    println!("{}", par_report.render());

    const CHAIN_VARS_PER_REL: u32 = 5;
    let chain_nvars = 3 * (CHAIN_VARS_PER_REL - 1) + 1;
    let chain_pc = chain_pc_catalog(CHAIN_VARS_PER_REL, 4, 0xBDD2);
    assert_eq!(
        chain_stmt.answer_dist_catalog(&chain_pc).unwrap(),
        chain_stmt.answer_dist_catalog_enum(&chain_pc).unwrap(),
        "catalog BDD and enumeration paths must produce the same distribution"
    );
    let chain_prob_enum = time_ns(|| {
        chain_stmt.answer_dist_catalog_enum(&chain_pc).unwrap();
    });
    let chain_prob_bdd = time_ns(|| {
        chain_stmt.answer_dist_catalog(&chain_pc).unwrap();
    });

    // The analyzed probabilistic path must match the plain one and its
    // report must carry live BDD manager counters: on the
    // {chain_nvars}-variable chain pc-catalog both hash-consing
    // (unique-table hits) and apply-cache memoization are mandatory for
    // the measured speedup, so zeros here mean the counters are wired
    // wrong, not that the workload is small.
    let (chain_dist, chain_report) = chain_stmt.answer_dist_catalog_analyzed(&chain_pc).unwrap();
    assert_eq!(
        chain_dist,
        chain_stmt.answer_dist_catalog(&chain_pc).unwrap(),
        "analyzed answer distribution must match plain"
    );
    let bdd = chain_report.bdd.expect("pc-table reports carry BDD stats");
    assert!(
        bdd.nodes_allocated > 0 && bdd.wmc_calls > 0,
        "BDD compilation and WMC must both run: {bdd:?}"
    );
    assert!(
        bdd.unique_hits > 0 && bdd.apply_cache_hits > 0,
        "the {chain_nvars}-variable chain must exercise hash-consing and \
         the apply cache: {bdd:?}"
    );

    // Serving-layer traffic series: a Zipf-skewed ~90/10 read/write
    // trace over 8 small relations, answered four ways. The
    // single-threaded pair isolates the plan cache — "cold" prepares
    // every read from scratch (serving without a cache), "warm" serves
    // the same trace from a primed `PlanCache` — and carries the
    // tentpole's floor: warm qps >= 2x cold. The server pair runs the
    // full queue + worker machinery at 1 vs all-cores workers; with
    // >= 2 cores the multi-threaded server must at least break even.
    const SERVE_ROWS: usize = 16;
    const SERVE_POOL: usize = 48;
    const SERVE_TRACE_LEN: usize = 384;
    let serve_sch = ipdb_bench::serve_schema();
    let pool = serve_query_pool(SERVE_POOL, 0x21F);
    let trace = serve_trace(SERVE_POOL, SERVE_TRACE_LEN, 0x7AFF);
    let serve_engine = Engine::new();
    // Requests execute the way the server runs them: serially per
    // request, parallelism coming from concurrent workers.
    let serve_exec = ExecConfig::serial();

    // Cached and fresh prepares must answer identically on every
    // template before anything is timed.
    {
        let cache = PlanCache::new(SERVE_POOL);
        let cat = serve_catalog(SERVE_ROWS);
        for text in &pool {
            let fresh = serve_engine.prepare_text_schema(text, &serve_sch).unwrap();
            let cached = cache.prepare_text(&serve_engine, text, &serve_sch).unwrap();
            assert_eq!(
                fresh.execute_catalog(&cat).unwrap(),
                cached.execute_catalog(&cat).unwrap(),
                "cached plan diverged on {text}"
            );
        }
    }

    let apply_write = |snaps: &SnapshotCatalog<Instance>, rel: usize, shift: i64| {
        snaps.update(|c| {
            c.insert(format!("Z{rel}"), serve_relation(SERVE_ROWS, shift));
        });
    };
    let run_cold = |snaps: &SnapshotCatalog<Instance>| {
        for op in &trace {
            match op {
                ServeOp::Read(i) => {
                    let snap = snaps.snapshot();
                    serve_engine
                        .prepare_text_schema(&pool[*i], snap.schema())
                        .unwrap()
                        .execute_catalog_cfg(snap.catalog(), &serve_exec)
                        .unwrap();
                }
                ServeOp::Write { rel, shift } => apply_write(snaps, *rel, *shift),
            }
        }
    };
    let warm_cache = PlanCache::new(SERVE_POOL * 2);
    let run_warm = |snaps: &SnapshotCatalog<Instance>| {
        for op in &trace {
            match op {
                ServeOp::Read(i) => {
                    let snap = snaps.snapshot();
                    warm_cache
                        .prepare_text(&serve_engine, &pool[*i], snap.schema())
                        .unwrap()
                        .execute_catalog_cfg(snap.catalog(), &serve_exec)
                        .unwrap();
                }
                ServeOp::Write { rel, shift } => apply_write(snaps, *rel, *shift),
            }
        }
    };
    // Prime the warm cache (one untimed pass fills every template).
    run_warm(&SnapshotCatalog::new(serve_catalog(SERVE_ROWS)));

    let server_1 =
        Server::<Instance>::start(serve_catalog(SERVE_ROWS), ServerConfig::with_threads(1));
    let server_n =
        Server::<Instance>::start(serve_catalog(SERVE_ROWS), ServerConfig::with_threads(cores));
    let run_server = |server: &Server<Instance>| {
        let mut tickets = Vec::with_capacity(trace.len());
        for op in &trace {
            let req = match op {
                ServeOp::Read(i) => Request::Query(pool[*i].clone()),
                ServeOp::Write { rel, shift } => Request::Install {
                    name: format!("Z{rel}"),
                    rel: serve_relation(SERVE_ROWS, *shift),
                },
            };
            tickets.push(server.submit(req));
        }
        for t in tickets {
            t.wait().expect("trace request failed");
        }
    };
    // Prime both servers' plan caches.
    run_server(&server_1);
    run_server(&server_n);

    let serve_floors_ok = |warm_speedup: f64, multi_speedup: f64| {
        warm_speedup >= 2.0 && (cores < 2 || multi_speedup >= 0.95)
    };
    let (mut serve_cold, mut serve_warm, mut serve_srv1, mut serve_srvn) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for attempt in 1..=3 {
        let (mut cold, mut warm, mut s1, mut sn) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..8 {
            cold = cold.min(once(&mut || {
                run_cold(&SnapshotCatalog::new(serve_catalog(SERVE_ROWS)));
            }));
            warm = warm.min(once(&mut || {
                run_warm(&SnapshotCatalog::new(serve_catalog(SERVE_ROWS)));
            }));
            s1 = s1.min(once(&mut || run_server(&server_1)));
            sn = sn.min(once(&mut || run_server(&server_n)));
        }
        (serve_cold, serve_warm, serve_srv1, serve_srvn) = (cold, warm, s1, sn);
        if serve_floors_ok(cold / warm, s1 / sn) {
            break;
        }
        eprintln!(
            "bench_smoke: serving series below floor on pass {attempt} \
             (warm {:.2}x, multi {:.2}x), re-measuring",
            cold / warm,
            s1 / sn
        );
    }
    let qps_of = |ns: f64| SERVE_TRACE_LEN as f64 / (ns * 1e-9);
    let (qps_cold, qps_warm, qps_srv1, qps_srvn) = (
        qps_of(serve_cold),
        qps_of(serve_warm),
        qps_of(serve_srv1),
        qps_of(serve_srvn),
    );
    let speedup_warm_cache = serve_cold / serve_warm;
    let speedup_server_multi = serve_srv1 / serve_srvn;
    server_1.shutdown();
    server_n.shutdown();

    // Catalog-leaf-reuse series: before Arc-shared catalog leaves, the
    // c-/pc-table `run_catalog` paths deep-cloned every referenced
    // relation per query. "before_emulated" re-adds exactly that clone
    // to today's execution; "after" is the shipping path, which borrows
    // the leaf out of the snapshot. The floor pins the bugfix: the
    // clone-free path must stay comfortably ahead.
    const LEAF_ROWS: usize = 8192;
    let leaf_sch = ipdb_engine::Schema::new([("C", 2)]).expect("one name");
    let leaf_stmt = Engine::new()
        .prepare_text_schema("pi[0](sigma[#0=3](C))", &leaf_sch)
        .expect("well-typed");
    let mut leaf_cat = Catalog::new();
    leaf_cat.insert("C", leaf_reuse_ctable(LEAF_ROWS));
    let (mut leaf_before, mut leaf_after) = (f64::INFINITY, f64::INFINITY);
    for attempt in 1..=3 {
        let (mut before, mut after) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..8 {
            before = before.min(once(&mut || {
                // The per-query deep clone the old leaf execution paid.
                std::hint::black_box(leaf_cat.get("C").unwrap().clone());
                leaf_stmt.execute_catalog(&leaf_cat).unwrap();
            }));
            after = after.min(once(&mut || {
                leaf_stmt.execute_catalog(&leaf_cat).unwrap();
            }));
        }
        (leaf_before, leaf_after) = (before, after);
        if before / after >= 1.15 {
            break;
        }
        eprintln!(
            "bench_smoke: leaf-reuse series below floor on pass {attempt} \
             ({:.2}x), re-measuring",
            before / after
        );
    }
    let speedup_leaf = leaf_before / leaf_after;

    // Metrics snapshot: one instrumented pass over the parallel join
    // plus a short serving burst with the global flag up, exported
    // alongside the timing figures.
    ipdb_obs::reset();
    ipdb_obs::set_enabled(true);
    par_stmt.execute_catalog_with(&par_cat, &cfg_on).unwrap();
    chain_stmt.answer_dist_catalog_analyzed(&chain_pc).unwrap();
    {
        let server =
            Server::<Instance>::start(serve_catalog(SERVE_ROWS), ServerConfig::with_threads(2));
        for text in pool.iter().take(4) {
            server.query(text).expect("burst query");
            server.query(text).expect("burst query");
        }
        server
            .install("Z0", serve_relation(SERVE_ROWS, 9))
            .expect("burst install");
        server.shutdown();
    }
    ipdb_obs::set_enabled(false);
    let snapshot = ipdb_obs::snapshot();
    assert!(
        snapshot.to_json().contains("exec.morsels"),
        "instrumented run must record morsel counters"
    );
    for key in [
        "serve.requests",
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.snapshot.installs",
    ] {
        assert!(
            snapshot.to_json().contains(key),
            "instrumented serving burst must record {key}"
        );
    }
    std::fs::write("BENCH_metrics.json", snapshot.to_json()).expect("write BENCH_metrics.json");

    let speedup_inst = inst_naive / inst_join;
    let speedup_ct = ct_naive / ct_join;
    let speedup_prob = prob_enum / prob_bdd;
    let speedup_chain = chain_naive / chain_join;
    let speedup_chain_prob = chain_prob_enum / chain_prob_bdd;
    let speedup_columnar = par_row / par_columnar;
    let speedup_parallel = par_columnar / par_parallel;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"engine\",");
    let _ = writeln!(out, "  \"mode\": \"quick-smoke\",");
    let _ = writeln!(out, "  \"unit\": \"ns_per_iter\",");
    let _ = writeln!(out, "  \"workload\": \"{PRODUCT_HEAVY}\",");
    let _ = writeln!(out, "  \"instance_256\": {{");
    let _ = writeln!(out, "    \"naive\": {inst_naive:.0},");
    let _ = writeln!(out, "    \"pushdown\": {inst_pushdown:.0},");
    let _ = writeln!(out, "    \"join\": {inst_join:.0},");
    let _ = writeln!(out, "    \"speedup_naive_over_join\": {speedup_inst:.2}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"ctable_64\": {{");
    let _ = writeln!(out, "    \"naive\": {ct_naive:.0},");
    let _ = writeln!(out, "    \"join\": {ct_join:.0},");
    let _ = writeln!(out, "    \"speedup_naive_over_join\": {speedup_ct:.2}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"pctable_prob_{PROB_NVARS}var\": {{");
    let _ = writeln!(out, "    \"workload\": \"{PROB_SMOKE_QUERY}\",");
    let _ = writeln!(out, "    \"enum\": {prob_enum:.0},");
    let _ = writeln!(out, "    \"bdd\": {prob_bdd:.0},");
    let _ = writeln!(out, "    \"speedup_enum_over_bdd\": {speedup_prob:.2}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"catalog_chain_instance_{CHAIN_ROWS}\": {{");
    let _ = writeln!(out, "    \"workload\": \"{ENGINE_CHAIN_NAIVE}\",");
    let _ = writeln!(out, "    \"naive\": {chain_naive:.0},");
    let _ = writeln!(out, "    \"join\": {chain_join:.0},");
    let _ = writeln!(out, "    \"speedup_naive_over_join\": {speedup_chain:.2}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"catalog_chain_pctable_{chain_nvars}var\": {{");
    let _ = writeln!(out, "    \"workload\": \"{ENGINE_CHAIN_NAIVE}\",");
    let _ = writeln!(out, "    \"enum\": {chain_prob_enum:.0},");
    let _ = writeln!(out, "    \"bdd\": {chain_prob_bdd:.0},");
    let _ = writeln!(
        out,
        "    \"speedup_enum_over_bdd\": {speedup_chain_prob:.2}"
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"parallel_join_{PAR_PROBE}\": {{");
    let _ = writeln!(out, "    \"workload\": \"{ENGINE_PARALLEL_JOIN}\",");
    let _ = writeln!(out, "    \"build_rows\": {PAR_BUILD},");
    let _ = writeln!(out, "    \"probe_rows\": {PAR_PROBE},");
    let _ = writeln!(out, "    \"threads\": {cores},");
    let _ = writeln!(out, "    \"row_at_a_time\": {par_row:.0},");
    let _ = writeln!(out, "    \"columnar_1thread\": {par_columnar:.0},");
    let _ = writeln!(out, "    \"columnar_parallel\": {par_parallel:.0},");
    let _ = writeln!(
        out,
        "    \"speedup_columnar_over_rows\": {speedup_columnar:.2},"
    );
    let _ = writeln!(
        out,
        "    \"speedup_parallel_over_serial\": {speedup_parallel:.2}"
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"serve_traffic\": {{");
    let _ = writeln!(out, "    \"unit\": \"qps\",");
    let _ = writeln!(out, "    \"relations\": {},", ipdb_bench::SERVE_RELS);
    let _ = writeln!(out, "    \"rows_per_relation\": {SERVE_ROWS},");
    let _ = writeln!(out, "    \"query_pool\": {SERVE_POOL},");
    let _ = writeln!(out, "    \"trace_len\": {SERVE_TRACE_LEN},");
    let _ = writeln!(out, "    \"threads\": {cores},");
    let _ = writeln!(out, "    \"qps_cold_1thread\": {qps_cold:.0},");
    let _ = writeln!(out, "    \"qps_warm_1thread\": {qps_warm:.0},");
    let _ = writeln!(out, "    \"qps_server_1thread\": {qps_srv1:.0},");
    let _ = writeln!(out, "    \"qps_server_multithread\": {qps_srvn:.0},");
    let _ = writeln!(
        out,
        "    \"speedup_warm_over_cold\": {speedup_warm_cache:.2},"
    );
    let _ = writeln!(
        out,
        "    \"speedup_multi_over_single\": {speedup_server_multi:.2}"
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"catalog_leaf_reuse_{LEAF_ROWS}\": {{");
    let _ = writeln!(out, "    \"workload\": \"pi[0](sigma[#0=3](C))\",");
    let _ = writeln!(out, "    \"before_emulated\": {leaf_before:.0},");
    let _ = writeln!(out, "    \"after\": {leaf_after:.0},");
    let _ = writeln!(out, "    \"speedup_after_over_before\": {speedup_leaf:.2}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"metrics_overhead\": {{");
    let _ = writeln!(out, "    \"workload\": \"{ENGINE_PARALLEL_JOIN}\",");
    let _ = writeln!(out, "    \"probe_rows\": {PAR_PROBE},");
    let _ = writeln!(out, "    \"metrics_off\": {met_off:.0},");
    let _ = writeln!(out, "    \"metrics_on\": {met_on:.0},");
    let _ = writeln!(out, "    \"ratio_on_over_off\": {metrics_overhead:.3}");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    std::fs::write("BENCH_engine.json", &out).expect("write BENCH_engine.json");
    print!("{out}");

    assert!(
        speedup_inst >= 10.0,
        "join path must be >= 10x the naive nested loop on the 256-row \
         instance self-join, measured {speedup_inst:.2}x"
    );
    assert!(
        speedup_ct > 1.0,
        "join path must improve the c-table case, measured {speedup_ct:.2}x"
    );
    assert!(
        speedup_prob >= 10.0,
        "BDD probability path must be >= 10x valuation enumeration on the \
         {PROB_NVARS}-variable pc-table workload, measured {speedup_prob:.2}x"
    );
    assert!(
        speedup_chain >= 10.0,
        "catalog hash joins must be >= 10x the naive product walk on the \
         {CHAIN_ROWS}-row 3-relation chain join, measured {speedup_chain:.2}x"
    );
    assert!(
        speedup_chain_prob >= 3.0,
        "catalog BDD path must be >= 3x valuation enumeration on the \
         {chain_nvars}-variable chain pc-catalog, measured {speedup_chain_prob:.2}x"
    );
    assert!(
        speedup_columnar >= 1.0,
        "columnar execution must not lose to the row-at-a-time evaluator on \
         the {PAR_PROBE}-row probe join, measured {speedup_columnar:.2}x"
    );
    // Morsel fan-out floor: the full >= 2x bar applies once the machine
    // has >= 4 cores; on 2-3 core hosts the honest expectation is "does
    // not lose" (Amdahl plus shared memory bandwidth bound the best
    // case well below 2x), asserted with a 5% measurement tolerance.
    if cores >= 4 {
        assert!(
            speedup_parallel >= 2.0,
            "morsel fan-out must be >= 2x single-thread with {cores} cores \
             on the {PAR_PROBE}-row probe join, measured {speedup_parallel:.2}x"
        );
    } else if cores >= 2 {
        assert!(
            speedup_parallel >= 0.95,
            "morsel fan-out must at least break even with {cores} cores on \
             the {PAR_PROBE}-row probe join, measured {speedup_parallel:.2}x"
        );
    }
    assert!(
        metrics_overhead <= 1.05,
        "metrics-on execution must stay within 5% of metrics-off on the \
         {PAR_PROBE}-row probe join, measured {metrics_overhead:.3}x"
    );
    assert!(
        speedup_warm_cache >= 2.0,
        "a warm plan cache must serve the Zipf trace at >= 2x cold qps, \
         measured {speedup_warm_cache:.2}x ({qps_cold:.0} -> {qps_warm:.0} qps)"
    );
    if cores >= 2 {
        assert!(
            speedup_server_multi >= 0.95,
            "the {cores}-worker server must at least break even with the \
             1-worker server on the Zipf trace, measured \
             {speedup_server_multi:.2}x ({qps_srv1:.0} -> {qps_srvn:.0} qps)"
        );
    }
    assert!(
        speedup_leaf >= 1.15,
        "Arc-shared catalog leaves must beat the emulated per-query deep \
         clone on the {LEAF_ROWS}-row c-table, measured {speedup_leaf:.2}x"
    );
    println!(
        "bench_smoke: ok (instance {speedup_inst:.1}x, c-table {speedup_ct:.1}x, \
         pc-table prob {speedup_prob:.1}x, chain {speedup_chain:.1}x, \
         chain prob {speedup_chain_prob:.1}x, columnar {speedup_columnar:.1}x, \
         parallel {speedup_parallel:.1}x @ {cores} threads, metrics overhead \
         {metrics_overhead:.3}x, warm cache {speedup_warm_cache:.1}x, \
         server multi {speedup_server_multi:.2}x, leaf reuse {speedup_leaf:.1}x) \
         -> BENCH_engine.json + BENCH_metrics.json"
    );
}
