//! The repository benchmark. See README.md for the workloads, the metrics
//! and the layer map.
//!
//! ```text
//! ipdb-perfbench --workload <serve_hot|serve_churn|scan_join|pc_answer|all>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).

#![forbid(unsafe_code)]

mod adapter;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probes::{Metric, ProbeReport};
use stats::{median, Samples};
use trace::Tracer;
use workloads::{alternate, run_sync_for, PcRig, ScanRig, ServeMix, ServeRig};

const WORKLOADS: [&str; 4] = ["serve_hot", "serve_churn", "scan_join", "pc_answer"];
/// Set-ups per untraced run: at least `MIN`, and more (up to `MAX`) while
/// they have taken less than `SETUP_BUDGET`; `setup_s` is their median.
const SETUP_REPS: (usize, usize) = (3, 9);
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// End-to-end metrics printed but left out of the result line (and of
/// `BENCHMARK.json`). `error_ratio` is 0 on a correct run and travels as
/// `failed` / `attempted`. `latency_p99_us` sits where the host's
/// preemptions start: its run-to-run spread on a 2-core guest (28% on
/// `serve_hot`, 36% on `scan_join` over ten 20 s runs) exceeds any bound
/// the benchmark may set.
const PRINTED_ONLY: [&str; 2] = ["error_ratio", "latency_p99_us"];
/// Length of one side's slice when two variants alternate.
const SLICE: Duration = Duration::from_millis(500);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// One workload's outcome: metrics by name, answer counts, notes.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A set-up built several times (see [`SETUP_REPS`]); the last one is
/// kept, and the median time reported.
fn timed_setup<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let (min_reps, max_reps) = SETUP_REPS;
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let built = setup();
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= max_reps
            || (times.len() >= min_reps && started.elapsed() >= SETUP_BUDGET);
        if enough {
            return (built, median(&times));
        }
        discard(built);
    }
}

/// The end-to-end run: set up, run the closed loop for `seconds`, check.
fn end_to_end(workload: &str, seed: u64, seconds: u64) -> Outcome {
    let window = Duration::from_secs(seconds);
    let n = nproc();
    let mut notes = Vec::new();
    // `peak_rss_mb` is read right after the window, before the answer
    // checks allocate their oracles.
    let (mut result, setup_s, peak_rss_mb, checks) = match workload {
        "serve_hot" | "serve_churn" => {
            let mix = if workload == "serve_hot" {
                ServeMix::Hot
            } else {
                ServeMix::Churn
            };
            let (mut rig, setup_s) =
                timed_setup(|| ServeRig::setup(mix, seed, n, false), ServeRig::shutdown);
            notes.push(format!(
                "{} templates, write share {:.3}, {n} workers, {n} outstanding",
                mix.pool_size(),
                rig.inputs.write_share()
            ));
            let (hits0, misses0, _) = adapter::cache_counts(adapter::server_cache(&rig.server));
            let result = rig.run_for(window, None);
            let rss = stats::peak_rss_mb();
            let (hits1, misses1, _) = adapter::cache_counts(adapter::server_cache(&rig.server));
            notes.push(format!(
                "plan cache during the window: {} hits / {} lookups",
                hits1 - hits0,
                hits1 - hits0 + misses1 - misses0
            ));
            let checks = rig.verify();
            rig.shutdown();
            (result, setup_s, rss, checks)
        }
        "scan_join" => {
            let (rig, setup_s) = timed_setup(|| ScanRig::setup(n), drop);
            let result = run_sync_for(window, || rig.once());
            notes.push(format!("{n} morsel threads, every answer checked"));
            (result, setup_s, stats::peak_rss_mb(), (0, 0))
        }
        _ => {
            let (rig, setup_s) = timed_setup(|| PcRig::setup(seed), drop);
            let result = run_sync_for(window, || rig.once());
            notes.push("every distribution checked".to_string());
            (result, setup_s, stats::peak_rss_mb(), (0, 0))
        }
    };
    let (checked, mismatches) = checks;
    if checked > 0 {
        notes.push(format!(
            "{checked} replies checked against direct execution, {mismatches} mismatched"
        ));
    }
    result.failed += mismatches;
    let lat = Samples::new(std::mem::take(&mut result.latencies_us));
    let tail = lat.tail(0.99);
    if let Some(t) = tail {
        notes.push(format!(
            "latency: {} samples; latency_p99_us is p{:.2} ({} beyond)",
            t.n, t.percentile, t.beyond
        ));
    }
    let completed = lat.len() as f64;
    let metrics = vec![
        ("ops_per_s", completed / result.elapsed_s, "1/s"),
        ("latency_p50_us", lat.median().unwrap_or(f64::NAN), "us"),
        ("latency_p99_us", tail.map_or(f64::NAN, |t| t.value), "us"),
        (
            "error_ratio",
            result.failed as f64 / result.attempted.max(1) as f64,
            "ratio",
        ),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb.unwrap_or(f64::NAN), "MB"),
    ];
    Outcome {
        metrics,
        attempted: result.attempted,
        failed: result.failed,
        notes,
    }
}

/// The traced run: trace overhead on the chosen workload, metrics on/off
/// on `serve_hot`, then every layer probe. Writes the spans when done.
fn traced(workload: &str, seed: u64, seconds: u64) -> Outcome {
    let half = Duration::from_secs(seconds) / 2;
    let n = nproc();
    let mut hot = ServeRig::setup(ServeMix::Hot, seed, n, false);
    let mut churn = ServeRig::setup(ServeMix::Churn, seed, n, false);
    let scan = ScanRig::setup(n);
    let pc = PcRig::setup(seed);
    let mut tracer = Tracer::new();
    let mut report = ProbeReport::default();

    // Untraced against traced, alternating slices of the chosen workload.
    let (plain, traced) = match workload {
        "serve_hot" | "serve_churn" => {
            let rig = if workload == "serve_hot" {
                &mut hot
            } else {
                &mut churn
            };
            alternate(half, SLICE, |on, slice| {
                rig.run_for(slice, if on { Some(&mut tracer) } else { None })
            })
        }
        "scan_join" => alternate(half, SLICE, |on, slice| {
            if !on {
                return run_sync_for(slice, || scan.once());
            }
            let mut request = 0;
            run_sync_for(slice, || {
                request += 1;
                let root = tracer.open("loop.op", None, request);
                let ok = tracer.record("loop.morsel.execute", Some(root), request, || scan.once());
                tracer.close(root);
                ok
            })
        }),
        _ => alternate(half, SLICE, |on, slice| {
            if !on {
                return run_sync_for(slice, || pc.once());
            }
            let mut request = 0;
            run_sync_for(slice, || {
                request += 1;
                let root = tracer.open("loop.op", None, request);
                let answered = tracer.record("loop.prob.closure", Some(root), request, || {
                    adapter::closure(&pc.stmt, &pc.cat)
                });
                let ok = answered.is_ok_and(|a| {
                    tracer.record("loop.bdd.marginals", Some(root), request, || {
                        adapter::marginals(&a).is_ok_and(|(d, _)| d == pc.oracle)
                    })
                });
                tracer.close(root);
                ok
            })
        }),
    };
    let loop_spans = tracer.spans().len();

    // Metrics registry off against on, on `serve_hot`.
    let mut hot_on = ServeRig::setup(ServeMix::Hot, seed, n, true);
    let (off, on) = alternate(half, SLICE, |on, slice| {
        adapter::set_metrics(on);
        let r = if on {
            hot_on.run_for(slice, None)
        } else {
            hot.run_for(slice, None)
        };
        adapter::set_metrics(false);
        r
    });

    probes::serve(&mut hot, &mut tracer, &mut report);
    probes::churn(&churn.inputs, &mut tracer, &mut report);
    probes::morsel(&scan, &mut tracer, &mut report);
    probes::pc(&pc, &mut tracer, &mut report);

    let mut failed = report.failed + plain.failed + traced.failed + off.failed + on.failed;
    let mut attempted =
        report.attempted + plain.attempted + traced.attempted + off.attempted + on.attempted;
    for rig in [hot, churn, hot_on] {
        let (checked, mismatches) = rig.verify();
        attempted += checked;
        failed += mismatches;
        rig.shutdown();
    }

    let mut metrics = report.metrics;
    metrics.push((
        "obs.qps_on_over_off",
        on.ops_per_s() / off.ops_per_s(),
        "ratio",
    ));
    metrics.push(("obs.qps_metrics_on", on.ops_per_s(), "1/s"));
    metrics.push(("obs.qps_metrics_off", off.ops_per_s(), "1/s"));
    metrics.push((
        "trace.overhead_ratio",
        plain.ops_per_s() / traced.ops_per_s(),
        "ratio",
    ));
    metrics.push(("trace.ops_per_s_untraced", plain.ops_per_s(), "1/s"));
    metrics.push(("trace.ops_per_s_traced", traced.ops_per_s(), "1/s"));

    let mut notes = report.notes;
    notes.push(format!(
        "{workload}: {} untraced / {} traced ops in alternating {} ms slices, {loop_spans} spans",
        plain.latencies_us.len(),
        traced.latencies_us.len(),
        SLICE.as_millis()
    ));
    notes.extend(self_time_table(&tracer));
    match write_spans(workload, &tracer) {
        Ok(path) => notes.push(format!("spans written to {path}")),
        Err(e) => notes.push(format!("could not write spans: {e}")),
    }
    Outcome {
        metrics,
        attempted,
        failed,
        notes,
    }
}

/// Per span name: count, total and self time (ms).
fn self_time_table(tracer: &Tracer) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<20} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    )];
    for (name, (count, total, own)) in tracer.summary() {
        lines.push(format!(
            "{name:<20} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    lines
}

fn write_spans(workload: &str, tracer: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.tsv"));
    std::fs::write(&path, tracer.to_tsv())?;
    Ok(path.display().to_string())
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ipdb-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed, mut all_finite) = (0, 0, true);
    let mut metrics = Vec::new();
    for w in &selected {
        let out = if args.trace {
            traced(w, args.seed, args.seconds)
        } else {
            end_to_end(w, args.seed, args.seconds)
        };
        println!(
            "== {w} (seed {}, trace {})",
            args.seed,
            u8::from(args.trace)
        );
        for note in &out.notes {
            println!("   {note}");
        }
        for (name, value, unit) in &out.metrics {
            println!("   {name:<28} {value:>16.4} {unit}");
            all_finite &= value.is_finite();
            if PRINTED_ONLY.contains(name) {
                continue;
            }
            let key = if selected.len() == 1 {
                name.to_string()
            } else {
                format!("{w}.{name}")
            };
            metrics.push((key, if value.is_finite() { *value } else { 0.0 }, *unit));
        }
        attempted += out.attempted;
        failed += out.failed;
    }
    let correct = failed == 0 && attempted > 0 && all_finite;
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
    ExitCode::SUCCESS
}
