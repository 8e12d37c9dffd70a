//! `EXPLAIN ANALYZE` and the metrics registry on the probe-join
//! workload.
//!
//! The `ipdb-obs` registry and its enable flag are process-global —
//! `reset()` zeroes every counter — so these tests live in their own
//! binary and each holds one lock for its whole body.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use ipdb_bench::{
    chain_pc_catalog, chain_schema, parallel_build_side, parallel_probe_side, parallel_schema,
    serve_catalog, serve_query_pool, serve_relation, ENGINE_CHAIN_NAIVE, ENGINE_PARALLEL_JOIN,
    ENGINE_PARALLEL_PROBE,
};
use ipdb_engine::{Catalog, Engine, ExecConfig, JoinBuild, Prepared, Server, ServerConfig};
use ipdb_rel::Instance;

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    GLOBAL_STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Rows of the build side `R`.
const PAR_BUILD: usize = 1024;

/// Rows of the probe side `S`.
const PAR_PROBE: usize = 100_000;

/// [`ENGINE_PARALLEL_JOIN`] prepared over its catalog.
fn probe_join() -> (Prepared, Catalog<Instance>) {
    prepared_over_catalog(ENGINE_PARALLEL_JOIN)
}

/// `text` prepared over the probe-join catalog.
fn prepared_over_catalog(text: &str) -> (Prepared, Catalog<Instance>) {
    let stmt = Engine::new()
        .prepare_text_schema(text, &parallel_schema())
        .expect("well-typed");
    let mut cat = Catalog::new();
    cat.insert("R", parallel_build_side(PAR_BUILD));
    cat.insert("S", parallel_probe_side(PAR_PROBE));
    (stmt, cat)
}

/// A config with per-run metrics on or off, whatever the global flag.
fn metered(threads: usize, metrics: bool) -> ExecConfig {
    ExecConfig {
        metrics,
        ..ExecConfig::with_threads(threads)
    }
}

/// Both spellings of the probe join: over the stored `S` the join
/// builds `S`'s cached index and probes it with `σ(R)`'s rows; over a
/// selection of `S` (the `bench_smoke` series) it builds `σ(R)` afresh
/// and probes all of `S`. Each tuple: text, expected build, and the
/// rows probed.
const PROBE_JOINS: [(&str, JoinBuild, u64); 2] = [
    (
        ENGINE_PARALLEL_JOIN,
        JoinBuild {
            left: false,
            reused: true,
        },
        (PAR_BUILD - 1) as u64,
    ),
    (
        ENGINE_PARALLEL_PROBE,
        JoinBuild {
            left: true,
            reused: false,
        },
        PAR_PROBE as u64,
    ),
];

#[test]
fn explain_analyze_reports_the_probe_join_consistently() {
    let _g = serialized();
    for (text, build, probed) in PROBE_JOINS {
        check_probe_join(text, build, probed);
    }
}

fn check_probe_join(text: &str, build: JoinBuild, probed: u64) {
    let (stmt, cat) = prepared_over_catalog(text);
    assert!(
        stmt.explain().contains("join["),
        "the probe join must plan to a hash join:\n{}",
        stmt.explain()
    );
    let rels: BTreeMap<String, Instance> = cat
        .iter()
        .map(|(name, rel)| (name.to_string(), rel.clone()))
        .collect();
    let rows = stmt.query().eval_catalog(&rels).unwrap();
    // The join keeps the |R| probe keys that hit; the residual and the
    // pushed-down selection drop exactly k ∈ {0, 1, 2}.
    assert_eq!(rows.len(), PAR_BUILD - 3);
    for threads in [1, 4] {
        let cfg = metered(threads, false);
        assert_eq!(stmt.execute_catalog_cfg(&cat, &cfg).unwrap(), rows);
        let (out, report) = stmt.execute_catalog_analyzed(&cat, &cfg).unwrap();
        assert_eq!(out, rows, "analyzed run must match plain");
        assert_eq!(report.root.rows_out, (PAR_BUILD - 3) as u64);
        assert_eq!(
            report.root.total_exclusive_ns(),
            report.root.ns,
            "per-operator exclusive times must sum to the root's inclusive time"
        );
        assert!(
            report.root.ns <= report.total_ns,
            "operator tree time must fit inside the measured total"
        );
        // The root is the join; the plain run before it built any
        // stored index it needed, so this run reuses it.
        let join = &report.root;
        assert_eq!(join.build, Some(build), "{text}\n{}", report.render());
        let probe = &join.children[usize::from(build.left)];
        assert_eq!(probe.rows_out, probed, "{text}\n{}", report.render());
        let side = if build.left { "left" } else { "right" };
        let how = if build.reused { "stored" } else { "built" };
        assert!(report.render().contains(&format!("build={side} ({how})")));
    }
}

#[test]
fn metered_runs_record_exec_and_serving_counters() {
    let _g = serialized();
    let was = ipdb_obs::enabled();
    ipdb_obs::reset();
    ipdb_obs::set_enabled(true);
    let (stmt, cat) = probe_join();
    stmt.execute_catalog_cfg(&cat, &metered(2, true)).unwrap();
    Engine::new()
        .prepare_text_schema(ENGINE_CHAIN_NAIVE, &chain_schema())
        .unwrap()
        .answer_dist_catalog_analyzed(&chain_pc_catalog(5, 4, 0xBDD2))
        .unwrap();
    let server = Server::<Instance>::start(serve_catalog(16), ServerConfig::with_threads(2));
    for text in serve_query_pool(48, 0x21F).iter().take(4) {
        server.query(text).expect("burst query");
        server.query(text).expect("burst query");
    }
    server
        .install("Z0", serve_relation(16, 9))
        .expect("burst install");
    server.shutdown();
    ipdb_obs::set_enabled(was);
    let snapshot = ipdb_obs::snapshot();
    for key in [
        "exec.morsels",
        "serve.requests",
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.snapshot.installs",
    ] {
        assert!(
            snapshot.to_json().contains(key) && snapshot.get(key) > Some(0),
            "the metered runs must record {key}:\n{snapshot}"
        );
    }
}

#[test]
fn thread_names_with_control_characters_export_as_valid_json() {
    let _g = serialized();
    let (stmt, cat) = probe_join();
    // Small morsels, so the calling thread drains some of every stage
    // and reports under its own name.
    let cfg = ExecConfig {
        morsel_rows: 64,
        ..metered(2, true)
    };
    std::thread::Builder::new()
        .name("a\nb".to_string())
        .spawn(move || stmt.execute_catalog_cfg(&cat, &cfg).unwrap())
        .unwrap()
        .join()
        .unwrap();
    let snapshot = ipdb_obs::snapshot();
    assert!(snapshot.get("pool.drained.a\nb") > Some(0));
    let json = snapshot.to_json();
    assert!(json.contains("\"pool.drained.a\\u000ab\": "), "{json}");
    assert!(
        !json.chars().any(|c| c.is_control() && c != '\n'),
        "only the line breaks between entries may be raw control characters:\n{json}"
    );
}
