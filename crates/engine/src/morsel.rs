//! Morsel-driven parallel execution for the [`Instance`] backend.
//!
//! The engine evaluates instance queries over `ipdb-rel`'s columnar
//! batches ([`ColumnarInstance`]) and parallelizes the data-intensive
//! kernels morsel-wise (Leis et al.'s morsel-driven model, scoped to
//! `std::thread` — no crates.io dependencies):
//!
//! * the probe side of a hash join, the predicate masks of selections
//!   and join residuals, and the final row materialization are split
//!   into fixed-size row ranges (*morsels*, [`ExecConfig::morsel_rows`]);
//! * the calling thread plus a process-wide pool of persistent workers
//!   (spawned once, parked between stages — thread creation is far too
//!   slow on some hosts to pay per stage) pull morsels from a shared
//!   atomic counter, so scheduling is dynamic but each morsel's output
//!   depends only on its input rows;
//! * per-morsel outputs are merged back **in morsel order** and the
//!   final result is an [`Instance`] — a canonical `BTreeSet` — so the
//!   answer is *bit-identical for every thread count and morsel size*.
//!   Determinism is structural, not incidental: kernels never branch on
//!   scheduling, and set semantics make the merge order-insensitive
//!   anyway.
//!
//! The worker count comes from [`ExecConfig::from_env`]:
//! `IPDB_THREADS` if set (a positive integer), otherwise
//! [`std::thread::available_parallelism`]. `IPDB_THREADS=1` forces
//! serial execution (CI runs the tier-1 suite both ways).
//!
//! Set operations (`∪`, `−`, `∩`) and leaf lookups convert through row
//! form — they are cheap relative to the join/select kernels and their
//! `BTreeSet` implementations are already canonical.
//!
//! There is one evaluator, generic over a [`TraceSink`] and reading its
//! leaves from a [`Source`] (a single input bound to `V`, or a named
//! catalog). Plain execution monomorphizes it with the no-op sink;
//! `EXPLAIN ANALYZE` passes a sink that records each operator's
//! cardinalities, build side and inclusive time — once per operator,
//! never per morsel.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use ipdb_rel::{
    ColumnarInstance, Instance, JoinIndex, Pred, Query, RelError, Schema, Tuple, Value,
};

use crate::backend::Source;
use crate::error::EngineError;
use crate::report::TraceSink;

/// Default morsel size (rows per scheduling unit).
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Execution knobs for the morsel-parallel instance executor.
///
/// Results are identical for every configuration (see the module docs);
/// the knobs trade scheduling overhead against parallelism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker count for morsel fan-out; `1` means fully serial.
    pub threads: usize,
    /// Rows per morsel (clamped to at least 1).
    pub morsel_rows: usize,
    /// Record per-stage/per-worker metrics into the [`ipdb_obs`]
    /// registry. Constructors default this to the global
    /// [`ipdb_obs::enabled`] flag (`IPDB_METRICS`); flip it per config
    /// to instrument one run without touching the process flag.
    pub metrics: bool,
}

impl ExecConfig {
    /// Serial execution (one worker, default morsel size).
    pub fn serial() -> ExecConfig {
        ExecConfig {
            threads: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            metrics: ipdb_obs::enabled(),
        }
    }

    /// `threads` workers with the default morsel size.
    pub fn with_threads(threads: usize) -> ExecConfig {
        ExecConfig {
            threads: threads.max(1),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            metrics: ipdb_obs::enabled(),
        }
    }

    /// The environment-driven default: `IPDB_THREADS` if set to a
    /// positive integer, otherwise [`std::thread::available_parallelism`].
    ///
    /// A set-but-unusable `IPDB_THREADS` (empty, `0`, non-numeric, or
    /// overflowing `usize`) is **not** silently ignored: it falls back
    /// to the detected parallelism and prints one `ipdb: warning:` line
    /// to stderr, once per process. Values above the executor's worker
    /// clamp (64) are accepted as-is — `run_morsels` clamps them.
    pub fn from_env() -> ExecConfig {
        let raw = std::env::var("IPDB_THREADS").ok();
        let (parsed, warning) = parse_threads_env(raw.as_deref());
        if let Some(w) = warning {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| eprintln!("ipdb: warning: {w}"));
        }
        let threads = parsed.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        ExecConfig::with_threads(threads)
    }
}

/// The `IPDB_THREADS` parser behind [`ExecConfig::from_env`], split out
/// so the fallback policy is unit-testable without touching the process
/// environment: `(thread count if usable, warning if the value was set
/// but unusable)`. An unset variable is not an error — `(None, None)`.
fn parse_threads_env(raw: Option<&str>) -> (Option<usize>, Option<String>) {
    let Some(raw) = raw else {
        return (None, None);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return (
            None,
            Some("IPDB_THREADS is set but empty; using detected parallelism".to_string()),
        );
    }
    match trimmed.parse::<usize>() {
        Ok(0) => (
            None,
            Some(
                "IPDB_THREADS=0 is invalid (need a positive integer); \
                 using detected parallelism"
                    .to_string(),
            ),
        ),
        Ok(t) => (Some(t), None),
        Err(_) => (
            None,
            Some(format!(
                "IPDB_THREADS={trimmed:?} is not a positive integer; \
                 using detected parallelism"
            )),
        ),
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::from_env()
    }
}

/// Runs `f(lo, hi)` over every morsel of `0..rows` and returns the
/// outputs in morsel order. Serial when one worker (or one morsel)
/// suffices; otherwise the calling thread and up to `threads - 1` pool
/// workers pull morsel indexes from a shared atomic counter. The pool,
/// the completion latch, and the lifetime erasure that lets borrowed
/// closures run on `'static` workers all live in [`crate::erase`] —
/// this module stays unsafe-free.
fn run_morsels<T, F>(rows: usize, cfg: &ExecConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let morsel = cfg.morsel_rows.max(1);
    let n_morsels = rows.div_ceil(morsel);
    let span = |k: usize| (k * morsel, ((k + 1) * morsel).min(rows));
    // Hard worker clamp: more fan-out than morsels is useless, and the
    // pool should stay a bounded resource however `IPDB_THREADS` is set.
    let threads = cfg.threads.max(1).min(n_morsels.max(1)).min(64);
    // Metrics are recorded once per stage / per participating thread —
    // never per morsel, and never at all when `cfg.metrics` is off —
    // which is what keeps the metrics-off overhead unmeasurable.
    if cfg.metrics {
        ipdb_obs::incr("exec.stages");
        ipdb_obs::add("exec.morsels", n_morsels as u64);
    }
    if threads <= 1 || n_morsels <= 1 {
        return (0..n_morsels)
            .map(|k| {
                let (lo, hi) = span(k);
                f(lo, hi)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n_morsels).map(|_| None).collect());
    // The calling thread and every pool worker run the same drain loop;
    // results land keyed by morsel index, so the merge is deterministic
    // regardless of which thread claimed what.
    let drive = || {
        let mut local: Vec<(usize, T)> = Vec::new();
        loop {
            // ORDERING: Relaxed suffices — the counter's only job is to
            // hand out each morsel index exactly once, which the atomic
            // RMW guarantees under any ordering; every morsel *result*
            // is published through the `slots` mutex below, which
            // provides the happens-before edge to the reading thread.
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= n_morsels {
                break;
            }
            let (lo, hi) = span(k);
            local.push((k, f(lo, hi)));
        }
        // One registry touch per participating thread per stage: how
        // many morsels this worker drained, keyed by its thread name
        // (the calling thread reports as "caller").
        if cfg.metrics && !local.is_empty() {
            let who = std::thread::current();
            let name = who.name().unwrap_or("caller");
            ipdb_obs::add(&format!("pool.drained.{name}"), local.len() as u64);
        }
        // Poison recovery: a panic in `f` never leaves this mutex held
        // mid-write (slots are filled one whole `Some` at a time), so
        // the map is sound for whichever thread locks it next.
        let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
        for (k, out) in local {
            slots[k] = Some(out);
        }
    };
    crate::erase::fan_out(threads - 1, &drive);
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        // ipdb-lint: allow(no-panic-on-serve-paths) reason="fan_out returns normally only after every invocation completed, and the drain loop claims every index below n_morsels before stopping"
        .map(|t| t.expect("every morsel index was claimed exactly once"))
        .collect()
}

/// Parallel `σ_p`: the mask is evaluated morsel-wise, then the kept row
/// ids (already in ascending order) become one selection vector.
fn par_select(
    ci: &ColumnarInstance,
    p: &Pred,
    cfg: &ExecConfig,
) -> Result<ColumnarInstance, RelError> {
    p.validate(ci.arity())?;
    let chunks = run_morsels(ci.len(), cfg, |lo, hi| {
        ci.eval_mask_range(p, lo, hi)
            // ipdb-lint: allow(no-panic-on-serve-paths) reason="p.validate(ci.arity()) ran at fn entry; eval_mask_range only fails on arity/column errors that validation rules out"
            .expect("predicate validated above")
            .into_iter()
            .enumerate()
            .filter_map(|(k, keep)| keep.then_some(lo + k))
            .collect::<Vec<usize>>()
    });
    let keep: Vec<usize> = chunks.into_iter().flatten().collect();
    Ok(ci.gather_rows(&keep))
}

/// Parallel hash equijoin: serial build on the smaller side, morsel-
/// parallel probe, serial gather, parallel residual mask. Key
/// normalization is the shared [`ipdb_rel::normalize_join_keys`], so
/// this can never classify keys differently from the row path. Also
/// returns the build side for `EXPLAIN ANALYZE`: `Some(build_left)` on
/// the hash path, `None` when empty keys degrade the join to product +
/// filter.
fn par_join(
    left: &ColumnarInstance,
    right: &ColumnarInstance,
    on: &[(usize, usize)],
    residual: Option<&Pred>,
    cfg: &ExecConfig,
) -> Result<(ColumnarInstance, Option<bool>), RelError> {
    let total = left.arity() + right.arity();
    let (keys, extra) = ipdb_rel::normalize_join_keys(on, left.arity(), total)?;
    if let Some(p) = residual {
        p.validate(total)?;
    }
    let filter = Pred::conj_all(extra.into_iter().chain(residual.cloned()));
    if keys.is_empty() {
        let prod = left.product(right);
        return if filter == Pred::True {
            Ok((prod, None))
        } else {
            par_select(&prod, &filter, cfg).map(|out| (out, None))
        };
    }
    let build_left = left.len() <= right.len();
    let (build, probe) = if build_left {
        (left, right)
    } else {
        (right, left)
    };
    let (build_cols, probe_cols): (Vec<usize>, Vec<usize>) = if build_left {
        keys.iter().copied().unzip()
    } else {
        keys.iter().map(|&(i, j)| (j, i)).unzip()
    };
    let index = JoinIndex::build(build, build_cols);
    // Each morsel probes AND gathers its own output batch, so the value
    // copies of the join result happen in parallel; the batches then
    // stack by moving column storage (`vstack`), preserving morsel
    // order.
    let batches = run_morsels(probe.len(), cfg, |lo, hi| {
        let mut pairs = Vec::new();
        index.probe_range(build, probe, &probe_cols, lo, hi, &mut pairs);
        if !build_left {
            for p in &mut pairs {
                *p = (p.1, p.0);
            }
        }
        ColumnarInstance::concat_pairs(left, right, &pairs)
    });
    let joined = ColumnarInstance::vstack(total, batches)?;
    let out = if filter == Pred::True {
        joined
    } else {
        par_select(&joined, &filter, cfg)?
    };
    Ok((out, Some(build_left)))
}

/// Parallel row→column conversion for leaf relations: the tuple
/// pointers are collected serially (cheap), the value clones — the
/// expensive part of a scan — happen morsel-wise, and the per-morsel
/// batches stack by moving their columns.
fn from_rows_par(i: &Instance, cfg: &ExecConfig) -> ColumnarInstance {
    let arity = i.arity();
    let tuples: Vec<&Tuple> = i.iter().collect();
    let batches = run_morsels(tuples.len(), cfg, |lo, hi| {
        let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(hi - lo)).collect();
        for t in &tuples[lo..hi] {
            for (c, v) in t.values().iter().enumerate() {
                cols[c].push(v.clone());
            }
        }
        // ipdb-lint: allow(no-panic-on-serve-paths) reason="the loop above pushes exactly hi-lo values onto each of the arity columns"
        ColumnarInstance::from_columns(cols, hi - lo).expect("columns match the chunk length")
    });
    // ipdb-lint: allow(no-panic-on-serve-paths) reason="every batch was built from tuples of one Instance, whose arity is fixed"
    ColumnarInstance::vstack(arity, batches).expect("chunks share the relation's arity")
}

/// Parallel row materialization: each morsel builds and *sorts* its
/// tuples, then the chunks feed the bulk set constructor — whose stable
/// sort merges the presorted runs cheaply — giving the canonical
/// `BTreeSet` (set semantics make chunking invisible in the result).
fn to_rows_par(ci: &ColumnarInstance, cfg: &ExecConfig) -> Instance {
    let chunks = run_morsels(ci.len(), cfg, |lo, hi| {
        let mut tuples: Vec<Tuple> = (lo..hi).map(|r| ci.tuple_at(r)).collect();
        tuples.sort_unstable();
        tuples
    });
    let total = chunks.iter().map(Vec::len).sum();
    let mut all: Vec<Tuple> = Vec::with_capacity(total);
    for c in chunks {
        all.extend(c);
    }
    // ipdb-lint: allow(no-panic-on-serve-paths) reason="every tuple came from ci.tuple_at, so its arity is ci.arity() by construction"
    Instance::from_tuple_batch(ci.arity(), all).expect("columnar rows share the batch arity")
}

/// Runs `q` on the [`Instance`] backend: the columnar evaluator, then
/// one parallel materialization of the answer rows.
pub(crate) fn execute<S: TraceSink>(
    src: Source<'_, Instance>,
    q: &Query,
    cfg: &ExecConfig,
    sink: &mut S,
) -> Result<Instance, EngineError> {
    Ok(to_rows_par(&eval_columnar(src, q, cfg, sink)?, cfg))
}

/// The columnar/morsel evaluator; mirrors `Query::eval`'s structure (and
/// errors) operator by operator, reporting each operator to `sink`.
/// Tracing costs one sink call pair per *operator*, never per row.
fn eval_columnar<S: TraceSink>(
    src: Source<'_, Instance>,
    q: &Query,
    cfg: &ExecConfig,
    sink: &mut S,
) -> Result<ColumnarInstance, RelError> {
    let mark = sink.enter();
    let mut build_left = None;
    let out = match q {
        Query::Input => from_rows_par(src.get(Schema::INPUT)?, cfg),
        Query::Second => from_rows_par(src.get(Schema::SECOND)?, cfg),
        Query::Rel(name) => from_rows_par(src.get(name)?, cfg),
        Query::Lit(i) => ColumnarInstance::from_rows(i),
        Query::Project(cols, q) => eval_columnar(src, q, cfg, sink)?.project(cols)?,
        Query::Select(p, q) => par_select(&eval_columnar(src, q, cfg, sink)?, p, cfg)?,
        Query::Product(a, b) => {
            let a = eval_columnar(src, a, cfg, sink)?;
            a.product(&eval_columnar(src, b, cfg, sink)?)
        }
        Query::Join {
            on,
            residual,
            left,
            right,
        } => {
            let l = eval_columnar(src, left, cfg, sink)?;
            let r = eval_columnar(src, right, cfg, sink)?;
            let (joined, bl) = par_join(&l, &r, on, residual.as_ref(), cfg)?;
            build_left = bl;
            joined
        }
        // Set operations go through canonical row form; their BTreeSet
        // implementations are the deterministic merge.
        Query::Union(a, b) | Query::Diff(a, b) | Query::Intersect(a, b) => {
            let a = to_rows_par(&eval_columnar(src, a, cfg, sink)?, cfg);
            let b = to_rows_par(&eval_columnar(src, b, cfg, sink)?, cfg);
            let rows = match q {
                Query::Union(..) => a.union(&b)?,
                Query::Diff(..) => a.difference(&b)?,
                _ => a.intersect(&b)?,
            };
            ColumnarInstance::from_rows(&rows)
        }
    };
    sink.exit(mark, q, out.arity(), out.len() as u64, 0, build_left);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{NoTrace, OpReport, ReportSink};
    use crate::Catalog;
    use ipdb_rel::instance;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn run_instance(i: &Instance, q: &Query, cfg: &ExecConfig) -> Result<Instance, EngineError> {
        execute(Source::Input(i), q, cfg, &mut NoTrace)
    }

    fn run_instance_traced(
        i: &Instance,
        q: &Query,
        cfg: &ExecConfig,
    ) -> Result<(Instance, OpReport), EngineError> {
        let mut sink = ReportSink::default();
        let out = execute(Source::Input(i), q, cfg, &mut sink)?;
        Ok((out, sink.finish()))
    }

    fn chain_query() -> Query {
        // σ_{#1=#2 ∧ #0≠#3}(V × V), exercising join extraction shape
        // plus residual; written directly as the join node.
        Query::join(
            Query::Input,
            Query::Input,
            [(1, 2)],
            Some(Pred::neq_cols(0, 3)),
        )
    }

    #[test]
    fn from_env_honors_ipdb_threads_format() {
        // Pure parser-side checks (no env mutation: other tests run in
        // parallel in this process).
        assert_eq!(ExecConfig::with_threads(0).threads, 1);
        assert_eq!(ExecConfig::serial().threads, 1);
        assert!(ExecConfig::from_env().threads >= 1);
    }

    #[test]
    fn threads_env_parser_warns_on_unusable_values() {
        // Unset: no thread count, no warning.
        assert_eq!(parse_threads_env(None), (None, None));
        // Usable values parse (whitespace trimmed), no warning.
        assert_eq!(parse_threads_env(Some("8")), (Some(8), None));
        assert_eq!(parse_threads_env(Some(" 4 ")), (Some(4), None));
        assert_eq!(parse_threads_env(Some("1")), (Some(1), None));
        // Values past the worker clamp are *kept* — run_morsels clamps
        // fan-out to 64, so a huge-but-parseable count is not an error.
        assert_eq!(parse_threads_env(Some("1000000")), (Some(1_000_000), None));
        // Set-but-unusable values all fall back WITH a warning.
        for bad in [
            "",
            "   ",
            "0",
            "four",
            "8x",
            "-2",
            "3.5",
            "99999999999999999999999999",
        ] {
            let (threads, warning) = parse_threads_env(Some(bad));
            assert_eq!(threads, None, "IPDB_THREADS={bad:?} should not parse");
            let warning = warning.unwrap_or_else(|| {
                panic!("IPDB_THREADS={bad:?} should warn, not be silently ignored")
            });
            assert!(
                warning.contains("IPDB_THREADS") && warning.contains("detected parallelism"),
                "warning should name the variable and the fallback: {warning}"
            );
        }
    }

    #[test]
    fn traced_executor_matches_untraced_and_times_nest() {
        // First column unique → exactly 60 distinct rows survive the set.
        let i = Instance::from_rows(2, (0..60i64).map(|x| [x, x % 5])).unwrap();
        let q = Query::union(chain_query(), Query::product(Query::Input, Query::Input));
        let expected = run_instance(&i, &q, &ExecConfig::serial()).unwrap();
        for threads in [1usize, 4] {
            let cfg = ExecConfig {
                threads,
                morsel_rows: 16,
                metrics: false,
            };
            let (out, report) = run_instance_traced(&i, &q, &cfg).unwrap();
            assert_eq!(out, expected, "threads={threads}");
            // The report mirrors the query tree: union over (join, x).
            assert_eq!(report.label, "union");
            assert_eq!(report.children.len(), 2);
            assert!(report.children[0].label.starts_with("join["));
            assert_eq!(report.children[0].build_left, Some(true));
            assert_eq!(report.children[1].label, "x");
            assert_eq!(report.node_count(), 7);
            // Cardinalities are real: the union's input is its children's
            // output, and every node's output count is exact.
            assert_eq!(report.rows_out, expected.len() as u64);
            assert_eq!(
                report.rows_in,
                report.children[0].rows_out + report.children[1].rows_out
            );
            assert_eq!(report.children[1].rows_out, (60 * 60) as u64);
            // Inclusive timing: parents cover their children, and the
            // exclusive times sum back to the root's inclusive time.
            for c in &report.children {
                assert!(c.ns <= report.ns, "child clock exceeds parent");
            }
            assert_eq!(report.total_exclusive_ns(), report.ns);
        }
    }

    #[test]
    fn traced_executor_mirrors_untraced_errors() {
        let i = instance![[1, 2]];
        let cfg = ExecConfig::serial();
        let q = Query::rel("R");
        assert!(matches!(
            run_instance_traced(&i, &q, &cfg),
            Err(EngineError::Rel(RelError::UnknownRelation { .. }))
        ));
        let q = Query::select(Query::Input, Pred::eq_cols(0, 9));
        assert_eq!(
            run_instance_traced(&i, &q, &cfg).map(|(out, _)| out),
            Err(EngineError::Rel(RelError::ColumnOutOfRange {
                col: 9,
                arity: 2
            }))
        );
    }

    #[test]
    fn metrics_flow_into_registry_when_config_asks() {
        // Per-config opt-in, not the global flag: a metrics:true config
        // records stage/morsel counters even with the flag off.
        let before = ipdb_obs::counter("exec.stages").get();
        let before_morsels = ipdb_obs::counter("exec.morsels").get();
        let cfg = ExecConfig {
            threads: 1,
            morsel_rows: 4,
            metrics: true,
        };
        let out = run_morsels(16, &cfg, |lo, hi| hi - lo);
        assert_eq!(out.iter().sum::<usize>(), 16);
        assert_eq!(ipdb_obs::counter("exec.stages").get(), before + 1);
        assert_eq!(ipdb_obs::counter("exec.morsels").get(), before_morsels + 4);
        // And a metrics:false config records nothing.
        let cfg_off = ExecConfig {
            metrics: false,
            ..cfg
        };
        run_morsels(16, &cfg_off, |lo, hi| hi - lo);
        assert_eq!(ipdb_obs::counter("exec.stages").get(), before + 1);
        assert_eq!(ipdb_obs::counter("exec.morsels").get(), before_morsels + 4);
    }

    #[test]
    fn run_morsels_is_order_deterministic() {
        let cfg = ExecConfig {
            threads: 8,
            morsel_rows: 3,
            ..ExecConfig::serial()
        };
        let out = run_morsels(25, &cfg, |lo, hi| (lo, hi));
        let expected: Vec<(usize, usize)> =
            (0..9).map(|k| (k * 3, ((k + 1) * 3).min(25))).collect();
        // The 8-thread run returns spans in morsel order, whatever order
        // the workers claimed them in.
        assert_eq!(out, expected);
        let serial = run_morsels(25, &ExecConfig::serial(), |lo, hi| (lo, hi));
        assert_eq!(serial, vec![(0, 25)]);
        // Zero rows → no morsels.
        assert!(run_morsels(0, &cfg, |lo, hi| (lo, hi)).is_empty());
    }

    #[test]
    fn run_morsels_survives_payload_panics() {
        let cfg = ExecConfig {
            threads: 4,
            morsel_rows: 1,
            ..ExecConfig::serial()
        };
        // A panicking morsel payload propagates (whichever thread ran
        // it) without deadlocking the caller...
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_morsels(16, &cfg, |lo, _| {
                assert!(lo != 7, "boom");
                lo
            })
        }));
        assert!(result.is_err());
        // ...and leaves the worker pool usable for the next stage.
        let ok = run_morsels(16, &cfg, |lo, _| lo);
        assert_eq!(ok, (0..16).collect::<Vec<usize>>());
    }

    #[test]
    fn executor_matches_row_path_across_configs() {
        let i = Instance::from_rows(2, (0..40i64).map(|x| [x % 6, x % 4])).unwrap();
        let q = chain_query();
        let expected = q.eval(&i).unwrap();
        for threads in [1usize, 2, 8] {
            for morsel_rows in [1usize, 7, 1024] {
                let cfg = ExecConfig {
                    threads,
                    morsel_rows,
                    ..ExecConfig::serial()
                };
                assert_eq!(
                    run_instance(&i, &q, &cfg).unwrap(),
                    expected,
                    "threads={threads} morsel={morsel_rows}"
                );
            }
        }
    }

    #[test]
    fn executor_mirrors_row_path_errors() {
        let i = instance![[1, 2]];
        let cfg = ExecConfig::serial();
        // Missing second input.
        let q = Query::product(Query::Input, Query::Second);
        assert!(matches!(
            run_instance(&i, &q, &cfg),
            Err(EngineError::Rel(RelError::NoSecondInput))
        ));
        // Unknown relation.
        let q = Query::rel("R");
        assert!(matches!(
            run_instance(&i, &q, &cfg),
            Err(EngineError::Rel(RelError::UnknownRelation { .. }))
        ));
        // Out-of-range selection column.
        let q = Query::select(Query::Input, Pred::eq_cols(0, 9));
        assert_eq!(
            run_instance(&i, &q, &cfg),
            Err(EngineError::Rel(RelError::ColumnOutOfRange {
                col: 9,
                arity: 2
            }))
        );
        // Set-op arity mismatch.
        let q = Query::union(Query::Input, Query::Lit(instance![[1]]));
        assert!(run_instance(&i, &q, &cfg).is_err());
    }

    #[test]
    #[ignore = "manual stage profiling; run with --release --nocapture"]
    fn profile_parallel_stages() {
        use std::time::Instant;
        let build_rows = 1024usize;
        let probe_rows = 100_000usize;
        let r = Instance::from_rows(2, (0..build_rows as i64).map(|k| [k, k])).unwrap();
        let i = Instance::from_rows(2, (0..probe_rows as i64).map(|j| [j, j % 3])).unwrap();
        let rels: Catalog<Instance> = [("R", r.clone()), ("S", i.clone())].into_iter().collect();
        let q = Query::join(
            Query::select(Query::rel("R"), Pred::neq_const(1, Value::from(0i64))),
            Query::rel("S"),
            [(1, 2)],
            Some(Pred::neq_cols(0, 3)),
        );
        fn med(mut f: impl FnMut()) -> f64 {
            let mut s: Vec<f64> = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[2]
        }
        for threads in [1usize, 2] {
            let cfg = ExecConfig::with_threads(threads);
            let left = from_rows_par(&r, &cfg);
            let right = from_rows_par(&i, &cfg);
            let t_from = med(|| {
                from_rows_par(&i, &cfg);
            });
            let index = JoinIndex::build(&left, vec![1]);
            let t_build = med(|| {
                JoinIndex::build(&left, vec![1]);
            });
            let probe = || {
                run_morsels(right.len(), &cfg, |lo, hi| {
                    let mut pairs = Vec::new();
                    index.probe_range(&left, &right, &[0], lo, hi, &mut pairs);
                    ColumnarInstance::concat_pairs(&left, &right, &pairs)
                })
            };
            let t_probe = med(|| {
                probe();
            });
            let joined = ColumnarInstance::vstack(4, probe()).unwrap();
            let t_vstack = med(|| {
                ColumnarInstance::vstack(4, probe()).unwrap();
            }) - t_probe;
            let filter = Pred::neq_cols(0, 3);
            let filtered = par_select(&joined, &filter, &cfg).unwrap();
            let t_select = med(|| {
                par_select(&joined, &filter, &cfg).unwrap();
            });
            let out = to_rows_par(&filtered, &cfg);
            let t_rows = med(|| {
                to_rows_par(&filtered, &cfg);
            });
            let t_whole = med(|| {
                execute(Source::Catalog(&rels), &q, &cfg, &mut NoTrace).unwrap();
            });
            eprintln!(
                "threads={threads}: from_rows(S) {t_from:.1}ms build {t_build:.1}ms \
                 probe+gather {t_probe:.1}ms vstack {t_vstack:.1}ms select {t_select:.1}ms \
                 to_rows {t_rows:.1}ms | whole {t_whole:.1}ms ({} rows probed->{} out)",
                right.len(),
                out.len()
            );
        }
    }

    #[test]
    fn catalog_map_resolves_reserved_names() {
        let rels: Catalog<Instance> = [("V", instance![[1], [2]]), ("R", instance![[2], [3]])]
            .into_iter()
            .collect();
        let map = rels
            .iter()
            .map(|(n, i)| (n.to_string(), i.clone()))
            .collect();
        let q = Query::intersect(Query::Input, Query::rel("R"));
        let cfg = ExecConfig::serial();
        assert_eq!(
            execute(Source::Catalog(&rels), &q, &cfg, &mut NoTrace).unwrap(),
            q.eval_catalog(&map).unwrap()
        );
    }
}
