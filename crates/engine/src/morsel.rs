//! Morsel-driven parallel execution for the [`Instance`] backend.
//!
//! The engine evaluates instance queries over `ipdb-rel`'s columnar
//! batches ([`ColumnarInstance`]) and parallelizes the data-intensive
//! kernels morsel-wise (Leis et al.'s morsel-driven model, scoped to
//! `std::thread` — no crates.io dependencies):
//!
//! * the probe side of a hash join (with the gather of its output rows)
//!   and the predicate masks of selections and join residuals are split
//!   into fixed-size row ranges (*morsels*, [`ExecConfig::morsel_rows`]);
//! * the calling thread plus a process-wide pool of persistent workers
//!   (spawned once, parked between stages — thread creation is far too
//!   slow on some hosts to pay per stage) pull morsels from a shared
//!   atomic counter, so scheduling is dynamic but each morsel's output
//!   depends only on its input rows;
//! * per-morsel outputs are merged back **in morsel order**, and the
//!   last batch becomes the answer [`Instance`] under a canonical
//!   selection vector ([`Instance::from_columnar`]): its distinct rows in
//!   full-row order, over the batch's own columns. No value is copied to
//!   materialize the answer; its `BTreeSet` of tuples is built only if a
//!   consumer reads it row-wise. The answer is *bit-identical for every
//!   thread count and morsel size*. Determinism is structural, not
//!   incidental: kernels never branch on scheduling, and the canonical
//!   order of a set of rows is unique, so whatever order the merge left
//!   the rows in, the answer lists them the same way.
//!
//! The worker count comes from [`ExecConfig::from_env`]:
//! `IPDB_THREADS` if set (a positive integer), otherwise
//! [`std::thread::available_parallelism`], detected once per process.
//! `IPDB_THREADS=1` forces serial execution (CI runs the tier-1 suite
//! both ways).
//!
//! Leaves (`V`, `W`, named relations and relation literals) read the
//! columnar form each [`Instance`] caches ([`Instance::columnar`]): it is
//! built on the first query after the relation is created or changed and
//! shared, column storage and all, by every later query — so a catalog
//! leaf is never re-converted per query. That stored form also keeps its
//! join indexes, one per key-column list
//! ([`ColumnarInstance::join_index`]), so a hash join whose build side is
//! a leaf indexes it once per relation version, not once per query. The
//! build side is the one that minimizes rows indexed plus rows probed,
//! where a leaf indexes none (see `par_join`); a batch a kernel derived
//! (a selection, projection or join output) always builds afresh. Set
//! operations (`∪`, `−`, `∩`) reach rows through
//! [`Instance::from_columnar`] and its lazily built row set — they are
//! cheap relative to the join/select kernels and their `BTreeSet`
//! implementations are already canonical.
//!
//! There is one evaluator, generic over a [`TraceSink`] and reading its
//! leaves from a [`Catalog`] (a single input is the catalog `{V: input}`).
//! Plain execution monomorphizes it with the no-op sink;
//! `EXPLAIN ANALYZE` passes a sink that records each operator's
//! cardinalities, build side (and whether its index was reused) and
//! inclusive time — once per operator, never per morsel.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use ipdb_obs::Counter;
use ipdb_rel::{ColumnarInstance, Instance, Pred, Query, RelError, Schema};

use crate::backend::Catalog;
use crate::error::EngineError;
use crate::report::{JoinBuild, TraceSink};

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
    /// `IPDB_THREADS` is read on every call; the host's parallelism is
    /// detected on the first call only, since detection reads cgroup
    /// files and can cost more than running a small query.
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
        ExecConfig::with_threads(parsed.unwrap_or_else(detected_parallelism))
    }
}

/// [`std::thread::available_parallelism`] (1 if it cannot be told),
/// detected on the first call and remembered for the process. Shared by
/// [`ExecConfig::from_env`] and the server's default worker count.
pub(crate) fn detected_parallelism() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
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
    // which is what keeps the metrics-off overhead unmeasurable. The
    // counters are resolved once per process, so a stage never takes
    // the registry mutex.
    if cfg.metrics {
        static STAGES: OnceLock<&'static Counter> = OnceLock::new();
        static MORSELS: OnceLock<&'static Counter> = OnceLock::new();
        STAGES
            .get_or_init(|| ipdb_obs::counter("exec.stages"))
            .incr();
        MORSELS
            .get_or_init(|| ipdb_obs::counter("exec.morsels"))
            .add(n_morsels as u64);
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
        // One counter bump per participating thread per stage: how many
        // morsels this worker drained, keyed by its thread name (the
        // calling thread reports as "caller").
        if cfg.metrics && !local.is_empty() {
            DRAINED.with(|c| c.add(local.len() as u64));
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

thread_local! {
    /// This thread's `pool.drained.<thread name>` counter, looked up in
    /// the registry on the thread's first metered stage only. A thread's
    /// name never changes, so the handle stays the right one.
    static DRAINED: &'static Counter = ipdb_obs::counter(&format!(
        "pool.drained.{}",
        std::thread::current().name().unwrap_or("caller")
    ));
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
    // `concat` allocates the summed morsel lengths once, then copies.
    Ok(ci.gather_rows(&chunks.concat()))
}

/// Parallel hash equijoin: serial build, morsel-parallel probe,
/// gather within each morsel, parallel residual mask. The build side is
/// the one that minimizes rows indexed plus rows probed; a stored
/// relation's side ([`ColumnarInstance::is_stored`]) indexes no rows,
/// since its index is built once per relation version and then reused
/// ([`ColumnarInstance::join_index`]). On a tie the smaller side is
/// built. Key normalization is the shared
/// [`ipdb_rel::normalize_join_keys`], so this can never classify keys
/// differently from the row path. Also returns what was built for
/// `EXPLAIN ANALYZE`: `Some` on the hash path, `None` when empty keys
/// degrade the join to product + filter.
fn par_join(
    left: &ColumnarInstance,
    right: &ColumnarInstance,
    on: &[(usize, usize)],
    residual: Option<&Pred>,
    cfg: &ExecConfig,
) -> Result<(ColumnarInstance, Option<JoinBuild>), RelError> {
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
    let cost = |build: &ColumnarInstance, probe: &ColumnarInstance| {
        probe.len() + if build.is_stored() { 0 } else { build.len() }
    };
    let (cost_left, cost_right) = (cost(left, right), cost(right, left));
    let build_left =
        cost_left < cost_right || (cost_left == cost_right && left.len() <= right.len());
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
    let (index, reused) = build.join_index(build_cols);
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
    Ok((
        out,
        Some(JoinBuild {
            left: build_left,
            reused,
        }),
    ))
}

/// Runs `q` on the [`Instance`] backend: the columnar evaluator, whose
/// last batch becomes the answer under a canonical selection vector
/// ([`Instance::from_columnar`]) — no value is copied until a consumer
/// reads the answer row-wise.
pub(crate) fn execute<S: TraceSink>(
    cat: &Catalog<Instance>,
    q: &Query,
    cfg: &ExecConfig,
    sink: &mut S,
) -> Result<Instance, EngineError> {
    Ok(Instance::from_columnar(&eval_columnar(cat, q, cfg, sink)?))
}

/// The columnar/morsel evaluator; mirrors `Query::eval`'s structure (and
/// errors) operator by operator, reporting each operator to `sink`.
/// Tracing costs one sink call pair per *operator*, never per row.
fn eval_columnar<S: TraceSink>(
    cat: &Catalog<Instance>,
    q: &Query,
    cfg: &ExecConfig,
    sink: &mut S,
) -> Result<ColumnarInstance, RelError> {
    let mark = sink.enter();
    let mut build = None;
    let out = match q {
        // Leaves clone the relation's cached columnar form: `Arc`s only,
        // after the first query of each relation version.
        Query::Input => cat.resolve(Schema::INPUT)?.columnar().clone(),
        Query::Second => cat.resolve(Schema::SECOND)?.columnar().clone(),
        Query::Rel(name) => cat.resolve(name)?.columnar().clone(),
        Query::Lit(i) => i.columnar().clone(),
        Query::Project(cols, q) => eval_columnar(cat, q, cfg, sink)?.project(cols)?,
        Query::Select(p, q) => par_select(&eval_columnar(cat, q, cfg, sink)?, p, cfg)?,
        Query::Product(a, b) => {
            let a = eval_columnar(cat, a, cfg, sink)?;
            a.product(&eval_columnar(cat, b, cfg, sink)?)
        }
        Query::Join {
            on,
            residual,
            left,
            right,
        } => {
            let l = eval_columnar(cat, left, cfg, sink)?;
            let r = eval_columnar(cat, right, cfg, sink)?;
            let (joined, b) = par_join(&l, &r, on, residual.as_ref(), cfg)?;
            build = b;
            joined
        }
        // Set operations go through the operands' row sets; their
        // BTreeSet implementations are the deterministic merge.
        Query::Union(a, b) | Query::Diff(a, b) | Query::Intersect(a, b) => {
            let a = Instance::from_columnar(&eval_columnar(cat, a, cfg, sink)?);
            let b = Instance::from_columnar(&eval_columnar(cat, b, cfg, sink)?);
            let rows = match q {
                Query::Union(..) => a.union(&b)?,
                Query::Diff(..) => a.difference(&b)?,
                _ => a.intersect(&b)?,
            };
            ColumnarInstance::from_rows(&rows)
        }
    };
    sink.exit(mark, q, out.arity(), out.len() as u64, build);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{NoTrace, OpReport, ReportSink};
    use ipdb_rel::{instance, tuple, JoinIndex};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn run_instance(i: &Instance, q: &Query, cfg: &ExecConfig) -> Result<Instance, EngineError> {
        execute(&Catalog::single(i.clone()), q, cfg, &mut NoTrace)
    }

    fn run_instance_traced(
        i: &Instance,
        q: &Query,
        cfg: &ExecConfig,
    ) -> Result<(Instance, OpReport), EngineError> {
        let mut sink = ReportSink::default();
        let out = execute(&Catalog::single(i.clone()), q, cfg, &mut sink)?;
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
            assert_eq!(report.children[0].build.map(|b| b.left), Some(true));
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

    /// `par_join` configs at one and four threads, with morsels small
    /// enough that the four-thread probe fans out.
    fn join_configs() -> [ExecConfig; 2] {
        [1, 4].map(|threads| ExecConfig {
            threads,
            morsel_rows: 2,
            metrics: false,
        })
    }

    #[test]
    fn equijoin_matches_row_path() {
        let l = instance![[1, 10], [2, 20], [3, 10]];
        let r = instance![[10, 7], [20, 8], [40, 9]];
        let (cl, cr) = (l.columnar(), r.columnar());
        type JoinCase<'a> = (&'a [(usize, usize)], Option<Pred>);
        let cases: &[JoinCase] = &[
            (&[(1, 2)], None),
            (&[(1, 2)], Some(Pred::neq_const(0, 3))),
            (&[(2, 1)], None),
            (&[], None),
            (&[], Some(Pred::eq_cols(1, 2))),
            (&[(0, 1)], None), // non-spanning → filter
        ];
        for cfg in join_configs() {
            for (on, residual) in cases {
                let row = l.equijoin(&r, on, residual.as_ref()).unwrap();
                let (col, _) = par_join(cl, cr, on, residual.as_ref(), &cfg).unwrap();
                assert_eq!(col.to_rows(), row, "on {on:?}, threads {}", cfg.threads);
            }
            // Errors mirror the row path.
            assert!(par_join(cl, cr, &[(0, 9)], None, &cfg).is_err());
            assert!(par_join(cl, cr, &[(1, 2)], Some(&Pred::eq_cols(0, 9)), &cfg).is_err());
        }
    }

    /// Each operand as its stored form (`true`) or as a fresh batch of
    /// the same rows (`false`).
    fn operand(i: &Instance, stored: bool) -> ColumnarInstance {
        if stored {
            i.columnar().clone()
        } else {
            ColumnarInstance::from_rows(i)
        }
    }

    const STORED_OR_FRESH: [(bool, bool); 4] =
        [(true, true), (true, false), (false, true), (false, false)];

    #[test]
    fn equijoin_build_side_is_size_independent() {
        let small = Instance::from_rows(2, (0..3i64).map(|i| [i, i])).unwrap();
        let big = Instance::from_rows(2, (0..40i64).map(|i| [i % 5, i])).unwrap();
        for cfg in join_configs() {
            for (l, r) in [(&small, &big), (&big, &small)] {
                let row = l.equijoin(r, &[(0, 2)], None).unwrap();
                for (l_stored, r_stored) in STORED_OR_FRESH {
                    let (cl, cr) = (operand(l, l_stored), operand(r, r_stored));
                    let (col, build) = par_join(&cl, &cr, &[(0, 2)], None, &cfg).unwrap();
                    assert_eq!(col.to_rows(), row);
                    // A stored side is built whatever its size; with both
                    // stored, the smaller one is probed; with neither, the
                    // smaller one is built.
                    let build_left = match (l_stored, r_stored) {
                        (true, false) => true,
                        (false, true) => false,
                        (true, true) => l.len() >= r.len(),
                        (false, false) => l.len() <= r.len(),
                    };
                    assert_eq!(build.map(|b| b.left), Some(build_left));
                }
            }
        }
    }

    #[test]
    fn stored_and_fresh_indexes_join_like_the_row_path() {
        let small = Instance::from_rows(2, (0..4i64).map(|i| [i, i * 10])).unwrap();
        let big = Instance::from_rows(2, (0..40i64).map(|i| [i % 6, i])).unwrap();
        let residual = Pred::neq_cols(1, 3);
        for cfg in join_configs() {
            for (l, r) in [(&small, &big), (&big, &small)] {
                for on in [vec![(0, 2)], vec![(2, 0), (1, 3)]] {
                    for resid in [None, Some(&residual)] {
                        let row = l.equijoin(r, &on, resid).unwrap();
                        for (l_stored, r_stored) in STORED_OR_FRESH {
                            let (cl, cr) = (operand(l, l_stored), operand(r, r_stored));
                            // Twice: a stored side's index is built at the
                            // latest by the first run and reused by the
                            // second; a fresh side's is never reused.
                            for run in 0..2 {
                                let (col, build) = par_join(&cl, &cr, &on, resid, &cfg).unwrap();
                                assert_eq!(col.to_rows(), row, "on {on:?}, run {run}");
                                let b = build.unwrap();
                                let stored = if b.left { l_stored } else { r_stored };
                                assert!(!b.reused || stored);
                                assert!(run == 0 || b.reused == stored);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn selected_inputs_never_use_a_stored_index() {
        let s = Instance::from_rows(2, (0..20i64).map(|i| [i % 5, i])).unwrap();
        let stored = s.columnar();
        let all = stored.gather_rows(&(0..stored.len()).collect::<Vec<_>>());
        let kept = par_select(stored, &Pred::neq_const(0, 1), &ExecConfig::serial()).unwrap();
        for cfg in join_configs() {
            for side in [&all, &kept] {
                assert!(!side.is_stored());
                let row = side.to_rows().equijoin(&side.to_rows(), &[(0, 2)], None);
                for _ in 0..2 {
                    let (col, build) = par_join(side, side, &[(0, 2)], None, &cfg).unwrap();
                    assert_eq!(col.to_rows(), row.clone().unwrap());
                    assert!(!build.unwrap().reused);
                }
            }
        }
        // Nor did they fill the stored form's cache.
        assert!(!stored.join_index(vec![0]).1);
    }

    #[test]
    fn a_join_after_insert_sees_the_new_row() {
        let probe = instance![[9, 0], [3, 1]];
        for cfg in join_configs() {
            let mut s = Instance::from_rows(2, (0..8i64).map(|i| [i, i])).unwrap();
            let join = |s: &Instance| {
                let (col, build) =
                    par_join(probe.columnar(), s.columnar(), &[(0, 2)], None, &cfg).unwrap();
                assert_eq!(col.to_rows(), probe.equijoin(s, &[(0, 2)], None).unwrap());
                (col.to_rows(), build.unwrap())
            };
            let (before, _) = join(&s);
            assert_eq!(before, instance![[3, 1, 3, 3]]);
            assert!(join(&s).1.reused);
            assert!(s.insert(tuple![9, 90]).unwrap());
            let (after, build) = join(&s);
            assert!(!build.reused, "the new version builds its own index");
            assert_eq!(after, instance![[3, 1, 3, 3], [9, 0, 9, 90]]);
        }
    }

    #[test]
    fn equijoin_of_selected_inputs_matches_row_join() {
        let l = Instance::from_rows(2, (0..30i64).map(|x| [x % 7, x])).unwrap();
        let r = Instance::from_rows(3, (0..25i64).map(|x| [x, x % 5, x % 7])).unwrap();
        let (cl, cr) = (l.columnar(), r.columnar());
        // Selection vectors on both sides, the right one out of
        // physical order.
        let sl = par_select(cl, &Pred::neq_const(0, 3), &ExecConfig::serial()).unwrap();
        let sr = cr.gather_rows(
            &(0..cr.len())
                .rev()
                .filter(|x| x % 4 != 1)
                .collect::<Vec<_>>(),
        );
        let (rl, rr) = (sl.to_rows(), sr.to_rows());
        for cfg in join_configs() {
            for on in [vec![(0, 4)], vec![(0, 4), (1, 2)], vec![(1, 2), (0, 4)]] {
                let expected = rl.equijoin(&rr, &on, None).unwrap();
                assert!(!expected.is_empty());
                let (joined, _) = par_join(&sl, &sr, &on, None, &cfg).unwrap();
                assert_eq!(joined.to_rows(), expected);
                // The other build side, with the operands swapped.
                let swapped: Vec<(usize, usize)> =
                    on.iter().map(|&(i, j)| (j - 2, i + 3)).collect();
                let flipped = rr.equijoin(&rl, &swapped, None).unwrap();
                let (joined, _) = par_join(&sr, &sl, &swapped, None, &cfg).unwrap();
                assert_eq!(joined.to_rows(), flipped);
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
        // `#1!=5` keeps every row of S but makes the probe side a
        // selection rather than the stored relation, whose cached index
        // would otherwise be built once and probed with R's 1023 rows.
        let keep_all = Pred::neq_const(1, 5);
        let q = Query::join(
            Query::select(Query::rel("R"), Pred::neq_const(1, 0)),
            Query::select(Query::rel("S"), keep_all.clone()),
            [(1, 2)],
            Some(Pred::neq_cols(0, 3)),
        );
        fn med(mut f: impl FnMut()) -> f64 {
            let mut s: Vec<f64> = (0..21)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[10]
        }
        // Leaf conversion: the first build of S's columnar form (what
        // the first query after an install pays) versus the cached form
        // every later query clones.
        let t_first = med(|| {
            std::hint::black_box(ColumnarInstance::from_rows(&i));
        });
        let t_cached = med(|| {
            std::hint::black_box(i.columnar().clone());
        });
        eprintln!("leaf S: first build {t_first:.2}ms, cached {t_cached:.4}ms");
        for threads in [1usize, 2] {
            let cfg = ExecConfig::with_threads(threads);
            let left = r.columnar().clone();
            let right = par_select(i.columnar(), &keep_all, &ExecConfig::serial()).unwrap();
            let index = JoinIndex::build(&left, vec![1]);
            let t_build = med(|| {
                JoinIndex::build(&left, vec![1]);
            });
            // The probe stage split three ways, each morsel-parallel:
            // hashing S's key column alone, hashing plus index lookups
            // (`probe_range`), and that plus the gather.
            let t_hash = med(|| {
                run_morsels(right.len(), &cfg, |lo, hi| right.key_hashes(&[0], lo, hi));
            });
            let t_lookup = med(|| {
                run_morsels(right.len(), &cfg, |lo, hi| {
                    let mut pairs = Vec::new();
                    index.probe_range(&left, &right, &[0], lo, hi, &mut pairs);
                    pairs
                });
            }) - t_hash;
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
            let out = Instance::from_columnar(&filtered);
            let t_rows = med(|| {
                Instance::from_columnar(&filtered);
            });
            let t_whole = med(|| {
                execute(&rels, &q, &cfg, &mut NoTrace).unwrap();
            });
            eprintln!(
                "threads={threads}: build {t_build:.3}ms \
                 probe+gather {t_probe:.3}ms (hash {t_hash:.3}ms, lookup {t_lookup:.3}ms) \
                 vstack {t_vstack:.3}ms select {t_select:.3}ms \
                 from_columnar {t_rows:.3}ms | whole {t_whole:.3}ms ({} rows probed->{} out)",
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
            execute(&rels, &q, &cfg, &mut NoTrace).unwrap(),
            q.eval_catalog(&map).unwrap()
        );
    }
}
