//! Quick-mode wall-clock smoke gate: the engine's floors that only a
//! clock can check. Work-count floors (plan quality, enumeration vs BDD,
//! leaf reuse, `EXPLAIN ANALYZE` consistency) are deterministic tests
//! instead: `crates/bench/tests/{floors,report_metrics}.rs` and the
//! `ipdb-engine` backend unit tests.
//!
//! Run with `cargo run --release -p ipdb-bench --bin bench_smoke`. It
//! takes a few seconds, prints its figures to stdout, writes no file,
//! and asserts five floors:
//!
//! * on the 100k-row probe join ([`ENGINE_PARALLEL_PROBE`]), columnar
//!   execution at least matches the row-at-a-time evaluator;
//! * morsel fan-out is ≥ 2× single-thread on 4+ cores and breaks even
//!   on 2–3 (which floor ran is printed, so a log shows it);
//! * metrics on stay within 5% of metrics off on the same join;
//! * a warm plan cache serves a Zipf trace at ≥ 2× the qps of
//!   prepare-per-request;
//! * a multi-threaded server at least breaks even with one worker.

use std::collections::BTreeMap;
use std::time::Instant;

use ipdb_bench::{
    parallel_build_side, parallel_probe_side, parallel_schema, serve_catalog, serve_query_pool,
    serve_relation, serve_trace, ServeOp, ENGINE_PARALLEL_PROBE,
};
use ipdb_engine::{
    Catalog, Engine, ExecConfig, PlanCache, Request, Server, ServerConfig, Snapshot,
    SnapshotCatalog,
};
use ipdb_rel::Instance;

/// Interleaved best-of-`rounds` timing: one run of each path per round,
/// keeping each path's minimum in ns. The minimum approximates the
/// uncontended cost of a path, which is the right statistic on hosts
/// with noisy neighbors (a median would compare how often each path got
/// preempted). A burst of preemption can still poison every sample of
/// one path in a single pass, so the measurement re-runs (up to three
/// passes) until `ok` holds; the last pass is returned.
fn best_of<const N: usize>(
    what: &str,
    rounds: usize,
    paths: &mut [&mut dyn FnMut(); N],
    ok: impl Fn(&[f64; N]) -> bool,
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for pass in 1..=3 {
        best = [f64::INFINITY; N];
        for _ in 0..rounds {
            for (path, min) in paths.iter_mut().zip(&mut best) {
                let t0 = Instant::now();
                path();
                *min = min.min(t0.elapsed().as_nanos() as f64);
            }
        }
        if ok(&best) {
            break;
        }
        eprintln!("bench_smoke: {what} below floor on pass {pass}, re-measuring");
    }
    best
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Columnar / morsel-parallel series: an asymmetric hash join — a
    // small build relation R probed by a 100k-row scan of S — run by the
    // row-at-a-time evaluator (`Query::eval_catalog`), the columnar
    // executor pinned to one thread, and the columnar executor on every
    // core. The probe side is a selection of S that keeps every row: a
    // join over the stored S itself would probe S's cached index with
    // R's rows, one morsel, and time no fan-out. `report_metrics.rs`
    // checks that all three agree.
    const PAR_PROBE: usize = 100_000;
    let par_stmt = Engine::new()
        .prepare_text_schema(ENGINE_PARALLEL_PROBE, &parallel_schema())
        .expect("well-typed");
    let (r, s) = (parallel_build_side(1024), parallel_probe_side(PAR_PROBE));
    let par_map: BTreeMap<String, Instance> =
        [("R".to_string(), r.clone()), ("S".to_string(), s.clone())]
            .into_iter()
            .collect();
    let mut par_cat = Catalog::new();
    par_cat.insert("R", r);
    par_cat.insert("S", s);
    let run_par = |cfg: &ExecConfig| {
        par_stmt.execute_catalog_cfg(&par_cat, cfg).unwrap();
    };
    let (serial_cfg, fanout_cfg) = (ExecConfig::serial(), ExecConfig::with_threads(cores));
    // Morsel fan-out floor: the full ≥ 2× bar applies from 4 cores; on
    // 2–3 cores the honest expectation is "does not lose" (Amdahl plus
    // shared memory bandwidth bound the best case well below 2×), with
    // a 5% measurement tolerance.
    let (fanout_floor, fanout_label) = match cores {
        4.. => (2.0, format!(">=2x @ {cores} cores")),
        2..=3 => (0.95, format!("break-even @ {cores} cores")),
        _ => (0.0, "none (1 core)".to_string()),
    };
    let [par_row, par_columnar, par_parallel] = best_of(
        "parallel series",
        16,
        &mut [
            &mut || {
                par_stmt.query().eval_catalog(&par_map).unwrap();
            },
            &mut || run_par(&serial_cfg),
            &mut || run_par(&fanout_cfg),
        ],
        |[row, columnar, parallel]| row / columnar >= 1.0 && columnar / parallel >= fanout_floor,
    );
    let speedup_columnar = par_row / par_columnar;
    let speedup_parallel = par_columnar / par_parallel;

    // Metrics-overhead series: the same join with the observability
    // layer fully off vs fully on (global flag plus the per-config
    // knob). Every instrumented call site gates on one relaxed atomic
    // load or a config bool, so on must stay within 5% of off.
    let cfg_off = ExecConfig {
        metrics: false,
        ..fanout_cfg.clone()
    };
    let cfg_on = ExecConfig {
        metrics: true,
        ..fanout_cfg.clone()
    };
    let [met_off, met_on] = best_of(
        "metrics overhead",
        16,
        &mut [
            &mut || {
                ipdb_obs::set_enabled(false);
                run_par(&cfg_off);
            },
            &mut || {
                ipdb_obs::set_enabled(true);
                run_par(&cfg_on);
                ipdb_obs::set_enabled(false);
            },
        ],
        |[off, on]| on / off <= 1.05,
    );
    let metrics_overhead = met_on / met_off;

    // Serving series: a Zipf-skewed ~90/10 read/write trace over 8
    // small relations. "Cold" prepares every read from scratch (serving
    // without a cache), "warm" serves the same trace from a primed
    // `PlanCache`, both on one thread; the server pair runs the full
    // queue + worker machinery at one vs all-cores workers. Requests
    // execute serially, as the server runs them: parallelism comes from
    // concurrent workers. `floors.rs` checks that cached and fresh plans
    // answer alike.
    const SERVE_ROWS: usize = 16;
    const SERVE_POOL: usize = 48;
    const SERVE_TRACE_LEN: usize = 384;
    let pool = serve_query_pool(SERVE_POOL, 0x21F);
    let trace = serve_trace(SERVE_POOL, SERVE_TRACE_LEN, 0x7AFF);
    let serve_engine = Engine::new();
    let warm_cache = PlanCache::new(SERVE_POOL * 2);
    // Replays the trace on a fresh catalog, answering each read with
    // `read(text, snapshot)`.
    let run_trace = |read: &dyn Fn(&str, &Snapshot<Instance>)| {
        let snaps = SnapshotCatalog::new(serve_catalog(SERVE_ROWS));
        for op in &trace {
            match op {
                ServeOp::Read(i) => read(&pool[*i], &snaps.snapshot()),
                ServeOp::Write { rel, shift } => {
                    snaps.update(|c| {
                        c.insert(format!("Z{rel}"), serve_relation(SERVE_ROWS, *shift));
                    });
                }
            }
        }
    };
    let cold = |text: &str, snap: &Snapshot<Instance>| {
        serve_engine
            .prepare_text_schema(text, snap.schema())
            .unwrap()
            .execute_catalog_cfg(snap.catalog(), &serial_cfg)
            .unwrap();
    };
    let warm = |text: &str, snap: &Snapshot<Instance>| {
        warm_cache
            .prepare_text(&serve_engine, text, snap.schema())
            .unwrap()
            .execute_catalog_cfg(snap.catalog(), &serial_cfg)
            .unwrap();
    };
    let server_1 =
        Server::<Instance>::start(serve_catalog(SERVE_ROWS), ServerConfig::with_threads(1));
    let server_n =
        Server::<Instance>::start(serve_catalog(SERVE_ROWS), ServerConfig::with_threads(cores));
    let run_server = |server: &Server<Instance>| {
        let tickets: Vec<_> = trace
            .iter()
            .map(|op| {
                server.submit(match op {
                    ServeOp::Read(i) => Request::Query(pool[*i].clone()),
                    ServeOp::Write { rel, shift } => Request::Install {
                        name: format!("Z{rel}"),
                        rel: serve_relation(SERVE_ROWS, *shift),
                    },
                })
            })
            .collect();
        for t in tickets {
            t.wait().expect("trace request failed");
        }
    };
    // Prime the warm cache and both servers' plan caches.
    run_trace(&warm);
    run_server(&server_1);
    run_server(&server_n);
    let [serve_cold, serve_warm, serve_srv1, serve_srvn] = best_of(
        "serving series",
        8,
        &mut [
            &mut || run_trace(&cold),
            &mut || run_trace(&warm),
            &mut || run_server(&server_1),
            &mut || run_server(&server_n),
        ],
        |[cold, warm, s1, sn]| cold / warm >= 2.0 && (cores < 2 || s1 / sn >= 0.95),
    );
    server_1.shutdown();
    server_n.shutdown();
    let qps_of = |ns: f64| SERVE_TRACE_LEN as f64 / (ns * 1e-9);
    let (qps_cold, qps_warm) = (qps_of(serve_cold), qps_of(serve_warm));
    let (qps_srv1, qps_srvn) = (qps_of(serve_srv1), qps_of(serve_srvn));
    let speedup_warm_cache = serve_cold / serve_warm;
    let speedup_server_multi = serve_srv1 / serve_srvn;

    let ms = |ns: f64| ns / 1e6;
    println!("bench_smoke: {PAR_PROBE}-row probe join ({ENGINE_PARALLEL_PROBE}), {cores} threads");
    println!(
        "  row-at-a-time {:.2} ms, columnar {:.2} ms, parallel {:.2} ms",
        ms(par_row),
        ms(par_columnar),
        ms(par_parallel)
    );
    println!(
        "  metrics off {:.2} ms, on {:.2} ms",
        ms(met_off),
        ms(met_on)
    );
    println!("bench_smoke: serving trace ({SERVE_TRACE_LEN} ops, {SERVE_POOL} templates)");
    println!(
        "  cold {qps_cold:.0} qps, warm {qps_warm:.0} qps, server 1 thread \
         {qps_srv1:.0} qps, server {cores} threads {qps_srvn:.0} qps"
    );
    println!("bench_smoke: fan-out floor asserted: {fanout_label}");

    assert!(
        speedup_columnar >= 1.0,
        "columnar execution must not lose to the row-at-a-time evaluator on \
         the {PAR_PROBE}-row probe join, measured {speedup_columnar:.2}x"
    );
    assert!(
        speedup_parallel >= fanout_floor,
        "morsel fan-out floor {fanout_label} on the {PAR_PROBE}-row probe \
         join, measured {speedup_parallel:.2}x"
    );
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
    println!(
        "bench_smoke: ok (columnar {speedup_columnar:.2}x, parallel \
         {speedup_parallel:.2}x, metrics overhead {metrics_overhead:.3}x, \
         warm cache {speedup_warm_cache:.2}x, server multi {speedup_server_multi:.2}x)"
    );
}
