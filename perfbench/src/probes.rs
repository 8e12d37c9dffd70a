//! The traced per-layer run: fixed-size probes that make, one at a time,
//! the calls a layer's caller makes, each inside a span. Operation counts
//! are fixed, so the cache, optimizer, executor and BDD counts repeat
//! exactly for a given seed; only timings vary.

use ipdb_bench::{serve_catalog, ServeOp, SERVE_RELS};

use crate::adapter::{self, BddStats};
use crate::stats::{handoff, median, Samples};
use crate::trace::Tracer;
use crate::workloads::{rel_name, PcRig, ScanRig, ServeInputs, ServeRig, SERVE_ROWS};

/// Requests in the serve probe, per path.
const SERVE_PROBE_REQUESTS: usize = 4000;
/// Installs in the serve probe: enough for 20 samples beyond p99.
const SERVE_PROBE_INSTALLS: usize = 2000;
/// Churn-trace operations replayed to fill the cache, then measured.
const CHURN_PROBE_OPS: usize = 4096;
/// Alternating serial/parallel executions in the morsel probe.
const MORSEL_PROBE_RUNS: usize = 15;
/// Closure + marginals repetitions in the pc probe.
const PC_PROBE_RUNS: usize = 10;

/// A named per-layer value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What the probes measured, and how many probe answers were wrong.
#[derive(Debug, Default)]
pub struct ProbeReport {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable bases and sample counts.
    pub notes: Vec<String>,
}

impl ProbeReport {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn answer(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// `engine::serve`, the cache hit path and served execution, on the warm
/// `serve_hot` server: the same read through the queue and through the
/// calls a worker makes, alternating; then installs with nothing else
/// outstanding.
pub fn serve(rig: &mut ServeRig, tracer: &mut Tracer, out: &mut ProbeReport) {
    let reads: Vec<usize> = rig
        .inputs
        .trace
        .iter()
        .filter_map(|op| match op {
            ServeOp::Read(i) => Some(*i),
            ServeOp::Write { .. } => None,
        })
        .take(SERVE_PROBE_REQUESTS)
        .collect();
    let (mut roundtrip, mut direct) = (Vec::new(), Vec::new());
    for (k, &i) in reads.iter().enumerate() {
        let text = &rig.inputs.pool[i];
        let request = k as u64;
        let span = tracer.open("serve.roundtrip", None, request);
        let served = adapter::wait(adapter::submit_query(&rig.server, text));
        roundtrip.push(tracer.close(span) as f64 / 1e3);

        let root = tracer.open("serve.direct", None, request);
        let snap = tracer.record("serve.snapshot", Some(root), request, || {
            adapter::server_snapshot(&rig.server)
        });
        let cache = adapter::server_cache(&rig.server);
        let stmt = tracer.record("cache.hit", Some(root), request, || {
            adapter::cached_prepare(cache, text, adapter::snapshot_schema(&snap))
        });
        let answer = tracer.record("exec.serve_query", Some(root), request, || {
            stmt.and_then(|s| adapter::run_served(&s, &snap))
        });
        direct.push(tracer.close(root) as f64 / 1e3);
        let same = match (served, answer) {
            (adapter::Outcome::Answer(a), Ok(b)) => a == b,
            _ => false,
        };
        out.answer(same);
    }
    let mut installs = Vec::new();
    for k in 0..SERVE_PROBE_INSTALLS {
        let span = tracer.open("serve.install", None, (SERVE_PROBE_REQUESTS + k) as u64);
        let ok = rig.install_once(k % SERVE_RELS, k % 31 + 1);
        installs.push(tracer.close(span) as f64 / 1e3);
        out.answer(ok);
    }
    let snapshot_ns: Vec<f64> = tracer
        .durations_us("serve.snapshot")
        .iter()
        .map(|us| us * 1e3)
        .collect();
    out.push("serve.roundtrip_p50_us", median(&roundtrip), "us");
    out.push("serve.direct_p50_us", median(&direct), "us");
    out.push("serve.handoff_p50_us", handoff(&roundtrip, &direct), "us");
    out.push("serve.snapshot_p50_ns", median(&snapshot_ns), "ns");
    let installs = Samples::new(installs);
    out.push(
        "serve.install_p50_us",
        installs.median().unwrap_or(f64::NAN),
        "us",
    );
    let tail = installs.tail(0.99);
    out.push(
        "serve.install_p99_us",
        tail.map_or(f64::NAN, |t| t.value),
        "us",
    );
    if let Some(t) = tail {
        out.notes.push(format!(
            "serve.install_p99_us is p{:.2} of {} installs ({} beyond)",
            t.percentile, t.n, t.beyond
        ));
    }
    out.push(
        "cache.hit_p50_us",
        median(&tracer.durations_us("cache.hit")),
        "us",
    );
    out.push(
        "exec.serve_query_p50_us",
        median(&tracer.durations_us("exec.serve_query")),
        "us",
    );
    out.notes.push(format!(
        "serve probe: {} requests per path, {} installs",
        reads.len(),
        SERVE_PROBE_INSTALLS
    ));
}

/// `engine::cache`, `engine::parser` and `engine::optimize` on the
/// `serve_churn` trace: a fresh default-sized cache is filled by replaying
/// the trace prefix, then the next stretch is replayed one request at a
/// time through the calls a worker makes. Each miss is then re-done as a
/// bare parse and a bare plan + optimize + lower.
pub fn churn(inputs: &ServeInputs, tracer: &mut Tracer, out: &mut ProbeReport) {
    let snaps = adapter::new_snapshots(serve_catalog(SERVE_ROWS));
    let cache = adapter::new_cache(adapter::default_cache_capacity());
    let install = |rel: usize, shift: i64| {
        let rel_data = inputs.variants[shift as usize - 1].clone();
        adapter::install_into(&snaps, &rel_name(rel), rel_data);
    };
    let mut ops = inputs.trace.iter().cycle();
    for op in ops.by_ref().take(CHURN_PROBE_OPS) {
        match *op {
            ServeOp::Write { rel, shift } => install(rel, shift),
            ServeOp::Read(i) => {
                let snap = adapter::take_snapshot(&snaps);
                let ok = adapter::cached_prepare(
                    &cache,
                    &inputs.pool[i],
                    adapter::snapshot_schema(&snap),
                )
                .and_then(|s| adapter::run_served(&s, &snap))
                .is_ok();
                out.answer(ok);
            }
        }
    }
    let (hits0, misses0, len0) = adapter::cache_counts(&cache);
    let (mut miss_us, mut passes) = (Vec::new(), Vec::new());
    for (k, op) in ops.take(CHURN_PROBE_OPS).enumerate() {
        let i = match *op {
            ServeOp::Write { rel, shift } => {
                install(rel, shift);
                continue;
            }
            ServeOp::Read(i) => i,
        };
        let (text, request) = (&inputs.pool[i], k as u64);
        let snap = adapter::take_snapshot(&snaps);
        let schema = adapter::snapshot_schema(&snap);
        let (_, misses_before, _) = adapter::cache_counts(&cache);
        let root = tracer.open("cache.request", None, request);
        let span = tracer.open("cache.lookup", Some(root), request);
        let stmt = adapter::cached_prepare(&cache, text, schema);
        let lookup_us = tracer.close(span) as f64 / 1e3;
        let answer = tracer.record("churn.execute", Some(root), request, || {
            stmt.and_then(|s| adapter::run_served(&s, &snap))
        });
        tracer.close(root);
        if adapter::cache_counts(&cache).1 == misses_before {
            out.answer(answer.is_ok());
            continue;
        }
        // A miss: re-do it as a bare parse and a bare prepare, and check
        // the cached plan's answer against the fresh one.
        miss_us.push(lookup_us);
        let fresh = tracer
            .record("parser.parse", None, request, || adapter::parse(text))
            .and_then(|q| {
                tracer.record("optimize.prepare", None, request, || {
                    adapter::prepare_parsed(&q, schema)
                })
            });
        let ok = match (fresh, &answer) {
            (Ok(f), Ok(a)) => {
                passes.push(adapter::optimizer_passes(&f));
                adapter::run_served(&f, &snap).is_ok_and(|b| &b == a)
            }
            _ => false,
        };
        out.answer(ok);
    }
    let (hits1, misses1, len1) = adapter::cache_counts(&cache);
    let (hits, misses) = (hits1 - hits0, misses1 - misses0);
    let evictions = misses - (len1 as u64 - len0 as u64);
    out.push(
        "cache.hit_ratio",
        hits as f64 / (hits + misses) as f64,
        "ratio",
    );
    out.push("cache.hits", hits as f64, "count");
    out.push("cache.misses", misses as f64, "count");
    out.push("cache.miss_p50_us", median(&miss_us), "us");
    out.push("cache.evictions", evictions as f64, "count");
    out.push(
        "parser.parse_p50_us",
        median(&tracer.durations_us("parser.parse")),
        "us",
    );
    out.push(
        "optimize.prepare_p50_us",
        median(&tracer.durations_us("optimize.prepare")),
        "us",
    );
    out.push(
        "optimize.passes_mean",
        passes.iter().sum::<usize>() as f64 / passes.len().max(1) as f64,
        "count",
    );
    out.notes.push(format!(
        "churn probe: {CHURN_PROBE_OPS} ops after {CHURN_PROBE_OPS} warm-up ops; \
         {hits} hits / {} lookups; {} misses re-prepared",
        hits + misses,
        passes.len()
    ));
}

/// `engine::morsel` and `rel::columnar`: the scan join at `nproc` workers
/// and at one, alternating.
pub fn morsel(rig: &ScanRig, tracer: &mut Tracer, out: &mut ProbeReport) {
    for k in 0..MORSEL_PROBE_RUNS {
        let request = k as u64;
        let par = tracer.record("morsel.parallel", None, request, || {
            adapter::run_morsel(&rig.stmt, &rig.cat, rig.threads)
        });
        let ser = tracer.record("morsel.serial", None, request, || {
            adapter::run_morsel(&rig.stmt, &rig.cat, 1)
        });
        out.answer(par.is_ok_and(|a| a == rig.oracle));
        out.answer(ser.is_ok_and(|a| a == rig.oracle));
    }
    let par_ms = median(&tracer.durations_us("morsel.parallel")) / 1e3;
    let ser_ms = median(&tracer.durations_us("morsel.serial")) / 1e3;
    out.push("morsel.parallel_p50_ms", par_ms, "ms");
    out.push("morsel.serial_p50_ms", ser_ms, "ms");
    out.push("morsel.parallel_speedup", ser_ms / par_ms, "ratio");
    out.push("exec.rows_out", rig.oracle.len() as f64, "count");
    out.notes.push(format!(
        "morsel probe: {MORSEL_PROBE_RUNS} runs per side, {} threads vs 1; \
         speedup = serial {ser_ms:.3} ms / parallel {par_ms:.3} ms",
        rig.threads
    ));
}

/// The c-table closure (`engine::backend`, `prob`) and BDD + WMC (`bdd`)
/// of the pc-table answer, as two separate calls.
pub fn pc(rig: &PcRig, tracer: &mut Tracer, out: &mut ProbeReport) {
    let mut last: Option<(usize, BddStats)> = None;
    for k in 0..PC_PROBE_RUNS {
        let request = k as u64;
        let root = tracer.open("pc.answer", None, request);
        let answered = tracer.record("prob.closure", Some(root), request, || {
            adapter::closure(&rig.stmt, &rig.cat)
        });
        let dist = answered.as_ref().map_err(Clone::clone).and_then(|a| {
            tracer.record("bdd.marginals", Some(root), request, || {
                adapter::marginals(a)
            })
        });
        tracer.close(root);
        match (answered, dist) {
            (Ok(a), Ok((d, stats))) => {
                out.answer(d == rig.oracle);
                last = Some((adapter::answer_rows(&a), stats));
            }
            _ => out.answer(false),
        }
    }
    out.push(
        "prob.closure_p50_ms",
        median(&tracer.durations_us("prob.closure")) / 1e3,
        "ms",
    );
    out.push(
        "bdd.marginals_p50_ms",
        median(&tracer.durations_us("bdd.marginals")) / 1e3,
        "ms",
    );
    let (rows, s) = last.unwrap_or_default();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    out.push("prob.answer_rows", rows as f64, "count");
    out.push("bdd.nodes_allocated", s.nodes_allocated as f64, "count");
    out.push(
        "bdd.unique_hit_ratio",
        ratio(s.unique_hits, s.unique_misses),
        "ratio",
    );
    out.push("bdd.unique_hits", s.unique_hits as f64, "count");
    out.push("bdd.unique_misses", s.unique_misses as f64, "count");
    out.push(
        "bdd.apply_cache_hit_ratio",
        ratio(s.apply_cache_hits, s.apply_cache_misses),
        "ratio",
    );
    out.push("bdd.apply_cache_hits", s.apply_cache_hits as f64, "count");
    out.push(
        "bdd.apply_cache_misses",
        s.apply_cache_misses as f64,
        "count",
    );
    out.push("bdd.wmc_calls", s.wmc_calls as f64, "count");
}
