//! The four workloads: inputs generated from the seed, set-up (server boot,
//! cache warm-up, oracles), a closed measurement loop, and answer checks.
//!
//! Every loop is closed: one generator thread keeps at most `nproc`
//! operations outstanding and sends the next only when one completes, so a
//! slower engine receives less load instead of building a queue.

use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::{Duration, Instant};

use ipdb_bench::{
    chain_pc_catalog, chain_schema, parallel_build_side, parallel_probe_side, parallel_schema,
    serve_catalog, serve_query_pool, serve_relation, serve_schema, serve_trace, ServeOp,
    ENGINE_CHAIN_NAIVE, ENGINE_PARALLEL_JOIN, SERVE_RELS,
};
use ipdb_logic::{Condition, Term, Var};
use ipdb_rel::{Tuple, Value};
use ipdb_tables::{CRow, CTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adapter::{
    self, Catalog, Dist, Instance, Outcome, PcTable, Prepared, Rat, Server, Ticket,
};
use crate::trace::{SpanId, Tracer};

/// A sub-seed for one generator, so the inputs of one run depend only on
/// `--seed` and the generator's tag.
fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Serving loops complete fewer operations per second than this; sync
/// loops fewer than [`SYNC_RATE_CAP`]. Buffers are sized from them.
const SERVE_RATE_CAP: f64 = 60_000.0;
const SYNC_RATE_CAP: f64 = 5_000.0;

/// Grows `v`'s capacity by `extra` and touches the new memory, so that
/// recording during a measured window neither reallocates nor faults in
/// pages: the benchmark's own bookkeeping stays out of `peak_rss_mb`'s
/// run-to-run spread.
fn reserve_touched<T: Clone + Default>(v: &mut Vec<T>, extra: usize) {
    let len = v.len();
    v.reserve_exact(extra);
    v.resize(len + extra, T::default());
    v.truncate(len);
}

fn capacity_for(window: Duration, rate_cap: f64) -> usize {
    (window.as_secs_f64() * rate_cap) as usize + 1024
}

/// What one measured loop did.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub attempted: u64,
    pub failed: u64,
    /// One latency (µs) per completed operation.
    pub latencies_us: Vec<f64>,
    pub elapsed_s: f64,
}

impl LoopResult {
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_us.len() as f64 / self.elapsed_s
    }

    fn merge(&mut self, other: LoopResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_us.extend(other.latencies_us);
        self.elapsed_s += other.elapsed_s;
    }
}

// ---------------------------------------------------------------------
// serve_hot / serve_churn
// ---------------------------------------------------------------------

pub const SERVE_ROWS: usize = 16;
/// Every write installs one of these link shifts (`serve_trace`'s range).
const SHIFTS: usize = 31;
/// Replies whose answers are recorded for the oracle: every `CHECK_STRIDE`th.
const CHECK_STRIDE: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMix {
    /// 48 templates that fit the plan cache; ~10% writes.
    Hot,
    /// 2048 templates against the 256-entry cache; ~25% writes.
    Churn,
}

impl ServeMix {
    pub fn pool_size(self) -> usize {
        match self {
            ServeMix::Hot => 48,
            ServeMix::Churn => 2048,
        }
    }

    fn trace_len(self) -> usize {
        // `serve_trace` samples Zipf ranks in O(pool) each, so the large
        // pool gets a shorter trace; both are replayed cyclically.
        match self {
            ServeMix::Hot => 1 << 16,
            ServeMix::Churn => 8192,
        }
    }

    /// Extra share of reads turned into writes: 0.1 + 0.9 · 1/6 = 0.25.
    fn promote_one_in(self) -> Option<u32> {
        match self {
            ServeMix::Hot => None,
            ServeMix::Churn => Some(6),
        }
    }
}

/// The serving-traffic inputs of one seed.
pub struct ServeInputs {
    pub pool: Vec<String>,
    /// Relation indexes each template reads, sorted and distinct.
    pub reads: Vec<Vec<usize>>,
    pub trace: Vec<ServeOp>,
    /// `variants[s - 1]` is the relation installed by a write of shift `s`.
    pub variants: Vec<Instance>,
    /// The initial catalog's relations, by index.
    initial: Vec<Instance>,
}

impl ServeInputs {
    pub fn generate(mix: ServeMix, seed: u64) -> ServeInputs {
        let pool = serve_query_pool(mix.pool_size(), sub_seed(seed, 1));
        let mut trace = serve_trace(mix.pool_size(), mix.trace_len(), sub_seed(seed, 2));
        if let Some(one_in) = mix.promote_one_in() {
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
            for (k, op) in trace.iter_mut().enumerate() {
                if matches!(op, ServeOp::Read(_)) && rng.gen_range(0..one_in) == 0 {
                    *op = ServeOp::Write {
                        rel: rng.gen_range(0..SERVE_RELS),
                        shift: k as i64 % SHIFTS as i64 + 1,
                    };
                }
            }
        }
        let reads = pool.iter().map(|text| relations_read(text)).collect();
        let variants = (1..=SHIFTS as i64).map(write_variant).collect();
        let initial = (0..SERVE_RELS)
            .map(|r| serve_relation(SERVE_ROWS, r as i64 + 1))
            .collect();
        ServeInputs {
            pool,
            reads,
            trace,
            variants,
            initial,
        }
    }

    pub fn write_share(&self) -> f64 {
        let writes = self
            .trace
            .iter()
            .filter(|op| matches!(op, ServeOp::Write { .. }))
            .count();
        writes as f64 / self.trace.len() as f64
    }
}

/// The relation a write of shift `s` installs: the link permutation with
/// that shift, minus the row keyed `s mod rows`. Every chain through it
/// loses that key, so a template's answer depends on which writes its
/// snapshot had seen, and the answer check can tell versions apart.
fn write_variant(shift: i64) -> Instance {
    let n = SERVE_ROWS as i64;
    let full = serve_relation(SERVE_ROWS, shift);
    let missing = Tuple::new([Value::from(shift % n), Value::from((shift % n + shift) % n)]);
    assert!(
        full.contains(&missing),
        "the removed row is a link of the relation"
    );
    Instance::from_tuples(2, full.iter().filter(|t| **t != missing).cloned())
        .expect("binary tuples")
}

/// The `Z<r>` relations a template names.
fn relations_read(text: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out: Vec<usize> = bytes
        .windows(2)
        .filter(|w| w[0] == b'Z' && w[1].is_ascii_digit())
        .map(|w| usize::from(w[1] - b'0'))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

pub fn rel_name(r: usize) -> String {
    format!("Z{r}")
}

/// Per relation, the shift of the last write to it (0: never written),
/// per installed snapshot version.
type ShiftState = [u8; SERVE_RELS];

/// One recorded read reply, checked after the measured window.
#[derive(Debug, Clone, Copy, Default)]
struct Check {
    template: u32,
    /// Writes acknowledged when the read was sent: the oldest version it
    /// can have seen.
    lo: u32,
    /// Writes sent when the reply arrived: the newest version it can have
    /// seen.
    hi: u32,
    answer: u64,
}

enum Pending {
    Read {
        template: usize,
        lo: u32,
        check: bool,
    },
    Write {
        version: u64,
    },
}

/// When a closed loop stops sending.
#[derive(Debug, Clone, Copy)]
enum Budget {
    Window(Duration),
    Ops(u64),
}

struct InFlight {
    ticket: Ticket<Instance>,
    request: u64,
    sent: Instant,
    pending: Pending,
    span: Option<SpanId>,
}

/// A booted server with its traffic, version history and recorded checks.
pub struct ServeRig {
    pub inputs: ServeInputs,
    pub server: Server<Instance>,
    pub nproc: usize,
    pos: usize,
    /// `history[v]` = shifts of snapshot version `v`.
    history: Vec<ShiftState>,
    acked_writes: u32,
    write_in_flight: bool,
    reads_sent: u64,
    checks: Vec<Check>,
    next_request: u64,
}

fn answer_hash(answer: &Instance) -> u64 {
    let mut h = DefaultHasher::new();
    answer.hash(&mut h);
    h.finish()
}

impl ServeRig {
    /// Generates the inputs, boots the server and warms its plan cache by
    /// replaying the start of the trace.
    pub fn setup(mix: ServeMix, seed: u64, nproc: usize, metrics: bool) -> ServeRig {
        let inputs = ServeInputs::generate(mix, seed);
        let server = adapter::start_server(
            serve_catalog(SERVE_ROWS),
            nproc,
            adapter::default_cache_capacity(),
            metrics,
        );
        let mut rig = ServeRig {
            inputs,
            server,
            nproc,
            pos: 0,
            history: vec![[0; SERVE_RELS]],
            acked_writes: 0,
            write_in_flight: false,
            reads_sent: 0,
            checks: Vec::new(),
            next_request: 0,
        };
        // Every template once, then one pass of the trace prefix.
        for i in 0..rig.inputs.pool.len() {
            let text = &rig.inputs.pool[i];
            if let Outcome::Failed(e) = adapter::wait(adapter::submit_query(&rig.server, text)) {
                panic!("warm-up query failed: {e}");
            }
        }
        let warm_ops = 2 * rig.inputs.pool.len().max(2048);
        let warm = rig.run_ops(warm_ops);
        assert_eq!(warm.failed, 0, "warm-up operations failed");
        rig.checks.clear();
        rig
    }

    /// Runs the closed loop for `window`.
    pub fn run_for(&mut self, window: Duration, tracer: Option<&mut Tracer>) -> LoopResult {
        self.run_loop(Budget::Window(window), tracer)
    }

    fn run_ops(&mut self, ops: usize) -> LoopResult {
        self.run_loop(Budget::Ops(ops as u64), None)
    }

    /// The closed loop: keep `nproc` requests outstanding until the budget
    /// is spent, then drain.
    fn run_loop(&mut self, budget: Budget, mut tracer: Option<&mut Tracer>) -> LoopResult {
        let max_ops = match budget {
            Budget::Window(w) => capacity_for(w, SERVE_RATE_CAP),
            Budget::Ops(n) => n as usize,
        };
        let mut out = LoopResult::default();
        reserve_touched(&mut out.latencies_us, max_ops);
        reserve_touched(&mut self.checks, max_ops / CHECK_STRIDE as usize);
        reserve_touched(&mut self.history, max_ops / 4);
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(self.nproc);
        let start = Instant::now();
        let spent = |sent: u64| match budget {
            Budget::Window(w) => start.elapsed() >= w,
            Budget::Ops(n) => sent >= n,
        };
        loop {
            while inflight.len() < self.nproc && !spent(out.attempted) {
                let op = self.inputs.trace[self.pos % self.inputs.trace.len()];
                // Writes are serialized by the client, so versions are
                // installed in the order they were sent.
                if matches!(op, ServeOp::Write { .. }) && self.write_in_flight {
                    break;
                }
                self.pos += 1;
                out.attempted += 1;
                inflight.push_back(self.send(op, tracer.as_deref_mut()));
            }
            let Some(f) = inflight.pop_front() else { break };
            let wait_span = tracer
                .as_deref_mut()
                .map(|t| t.open("loop.serve.wait", f.span, f.request));
            let outcome = adapter::wait(f.ticket);
            let latency = f.sent.elapsed();
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), wait_span) {
                t.close(id);
                if let Some(op_span) = f.span {
                    t.close(op_span);
                }
            }
            out.latencies_us.push(latency.as_secs_f64() * 1e6);
            if !self.settle(f.pending, outcome) {
                out.failed += 1;
            }
        }
        out.elapsed_s = start.elapsed().as_secs_f64();
        out
    }

    fn send(&mut self, op: ServeOp, tracer: Option<&mut Tracer>) -> InFlight {
        self.next_request += 1;
        let request = self.next_request;
        let mut tracer = tracer;
        let op_span = tracer
            .as_deref_mut()
            .map(|t| t.open("loop.op", None, request));
        let submit_span = tracer
            .as_deref_mut()
            .map(|t| t.open("loop.serve.submit", op_span, request));
        let sent = Instant::now();
        let (ticket, pending) = match op {
            ServeOp::Read(i) => {
                self.reads_sent += 1;
                let pending = Pending::Read {
                    template: i,
                    lo: self.acked_writes,
                    check: self.reads_sent.is_multiple_of(CHECK_STRIDE),
                };
                (
                    adapter::submit_query(&self.server, &self.inputs.pool[i]),
                    pending,
                )
            }
            ServeOp::Write { rel, shift } => {
                let mut next = *self.history.last().expect("version 0 exists");
                next[rel] = shift as u8;
                self.history.push(next);
                self.write_in_flight = true;
                let rel_data = self.inputs.variants[shift as usize - 1].clone();
                let pending = Pending::Write {
                    version: self.history.len() as u64 - 1,
                };
                (
                    adapter::submit_install(&self.server, &rel_name(rel), rel_data),
                    pending,
                )
            }
        };
        if let (Some(t), Some(id)) = (tracer, submit_span) {
            t.close(id);
        }
        InFlight {
            ticket,
            request,
            sent,
            pending,
            span: op_span,
        }
    }

    /// Books a reply; `false` when it failed or installed the wrong version.
    fn settle(&mut self, pending: Pending, outcome: Outcome) -> bool {
        match (pending, outcome) {
            (
                Pending::Read {
                    template,
                    lo,
                    check,
                },
                Outcome::Answer(answer),
            ) => {
                if check {
                    self.checks.push(Check {
                        template: template as u32,
                        lo,
                        hi: self.history.len() as u32 - 1,
                        answer: answer_hash(&answer),
                    });
                }
                true
            }
            (Pending::Write { version }, Outcome::Installed(got)) => {
                self.write_in_flight = false;
                self.acked_writes += 1;
                got == version
            }
            (Pending::Write { .. }, _) => {
                self.write_in_flight = false;
                self.acked_writes += 1;
                false
            }
            _ => false,
        }
    }

    /// Installs through the server with nothing else outstanding, keeping
    /// the version history; `false` when the install failed.
    pub fn install_once(&mut self, rel: usize, shift: usize) -> bool {
        let op = ServeOp::Write {
            rel,
            shift: shift as i64,
        };
        let f = self.send(op, None);
        let outcome = adapter::wait(f.ticket);
        self.settle(f.pending, outcome)
    }

    /// Checks every recorded reply against direct row-at-a-time execution
    /// of its template on each snapshot version the reply can have seen.
    /// Returns (replies checked, mismatches).
    pub fn verify(&self) -> (u64, u64) {
        let schema = serve_schema();
        let mut stmts: HashMap<usize, Prepared> = HashMap::new();
        let mut oracle: HashMap<(usize, Vec<u8>), u64> = HashMap::new();
        let mut mismatches = 0;
        for c in &self.checks {
            let t = c.template as usize;
            let reads = &self.inputs.reads[t];
            let ok = (c.lo..=c.hi).any(|v| {
                let state = &self.history[v as usize];
                let key = (t, reads.iter().map(|&r| state[r]).collect::<Vec<u8>>());
                let expected = *oracle.entry(key).or_insert_with(|| {
                    let stmt = stmts
                        .entry(t)
                        .or_insert_with(|| adapter::prepare(&self.inputs.pool[t], &schema));
                    let cat = adapter::catalog((0..SERVE_RELS).map(|r| {
                        let rel = match state[r] {
                            0 => &self.inputs.initial[r],
                            s => &self.inputs.variants[usize::from(s) - 1],
                        };
                        (rel_name(r), rel.clone())
                    }));
                    adapter::run_rows(stmt, &cat).map_or(0, |a| answer_hash(&a))
                });
                expected == c.answer
            });
            if !ok {
                mismatches += 1;
            }
        }
        (self.checks.len() as u64, mismatches)
    }

    pub fn shutdown(self) {
        adapter::shutdown(self.server);
    }
}

// ---------------------------------------------------------------------
// scan_join
// ---------------------------------------------------------------------

const SCAN_BUILD: usize = 1024;
const SCAN_PROBE: usize = 100_000;

/// `ENGINE_PARALLEL_JOIN` prepared once, with its row-at-a-time oracle.
/// The inputs are fixed by construction (the `build − 3` cardinality
/// depends on it), so the seed does not change them.
pub struct ScanRig {
    pub stmt: Prepared,
    pub cat: Catalog<Instance>,
    pub oracle: Instance,
    pub threads: usize,
}

impl ScanRig {
    pub fn setup(nproc: usize) -> ScanRig {
        let stmt = adapter::prepare(ENGINE_PARALLEL_JOIN, &parallel_schema());
        let cat = adapter::catalog([
            ("R".to_string(), parallel_build_side(SCAN_BUILD)),
            ("S".to_string(), parallel_probe_side(SCAN_PROBE)),
        ]);
        let oracle = adapter::run_rows(&stmt, &cat).expect("row-at-a-time oracle runs");
        assert_eq!(oracle.len(), SCAN_BUILD - 3, "scan_join oracle cardinality");
        let rig = ScanRig {
            stmt,
            cat,
            oracle,
            threads: nproc,
        };
        assert!(
            rig.once(),
            "scan_join warm-up answer differs from the oracle"
        );
        rig
    }

    /// One operation; `true` when the answer equals the oracle.
    pub fn once(&self) -> bool {
        adapter::run_morsel(&self.stmt, &self.cat, self.threads).is_ok_and(|a| a == self.oracle)
    }
}

// ---------------------------------------------------------------------
// pc_answer
// ---------------------------------------------------------------------

const CHAIN_VARS_PER_REL: u32 = 5;
const CHAIN_KEYS: i64 = 4;
/// Mostly-ground filler rows per relation; sized so the c-table closure
/// and BDD + WMC each take a substantial share of an answer.
const PC_FILLER_ROWS: usize = 6000;
/// One filler row in this many carries a condition on a chain variable.
const PC_FILLER_CONDITIONED_ONE_IN: u32 = 8;

/// The 13-variable chain pc-catalog with filler, its prepared chain query,
/// and the enumeration oracle.
pub struct PcRig {
    pub stmt: Prepared,
    pub cat: Catalog<PcTable<Rat>>,
    pub oracle: Dist,
}

impl PcRig {
    pub fn setup(seed: u64) -> PcRig {
        let chain = chain_pc_catalog(CHAIN_VARS_PER_REL, CHAIN_KEYS, sub_seed(seed, 4));
        let stmt = adapter::prepare(ENGINE_CHAIN_NAIVE, &chain_schema());
        // The filler never completes a chain (see `with_filler`), so the
        // answer is the chain's own: enumerate valuations over the small
        // chain-only catalog with the naive plan.
        let oracle = adapter::answer_dist_enum(&stmt, &chain).expect("enumeration oracle runs");
        let cat = with_filler(&chain, sub_seed(seed, 5));
        let rig = PcRig { stmt, cat, oracle };
        assert!(
            rig.once(),
            "pc_answer warm-up answer differs from the oracle"
        );
        rig
    }

    /// One operation; `true` when the distribution equals the oracle.
    pub fn once(&self) -> bool {
        adapter::answer_dist(&self.stmt, &self.cat).is_ok_and(|d| d == self.oracle)
    }
}

/// Adds [`PC_FILLER_ROWS`] mostly-ground rows to each chain relation. Their
/// keys lie far outside the chain's `0..CHAIN_KEYS`: `R` and `S` filler
/// share one key range, so some pairs join at the first step, while `T`
/// filler keys lie in a range no `S` row reaches, so no filler row survives
/// to the answer.
fn with_filler(chain: &Catalog<PcTable<Rat>>, seed: u64) -> Catalog<PcTable<Rat>> {
    const SPAN: i64 = 1 << 16;
    const RS_KEYS: i64 = 1_000;
    const S_OUT: i64 = 1_000_000;
    const T_KEYS: i64 = 5_000_000;
    let mut rng = StdRng::seed_from_u64(seed);
    let rels = adapter::pc_entries(chain).into_iter().map(|(name, pc)| {
        let (mut rows, dists) = adapter::pc_parts(pc);
        let vars: Vec<Var> = dists.iter().map(|(v, _)| *v).collect();
        for _ in 0..PC_FILLER_ROWS {
            let (a, b) = match name.as_str() {
                "R" => (rng.gen_range(0..SPAN), RS_KEYS + rng.gen_range(0..SPAN)),
                "S" => (
                    RS_KEYS + rng.gen_range(0..SPAN),
                    S_OUT + rng.gen_range(0..SPAN),
                ),
                _ => (T_KEYS + rng.gen_range(0..SPAN), rng.gen_range(0..SPAN)),
            };
            let cond = if rng.gen_range(0..PC_FILLER_CONDITIONED_ONE_IN) == 0 {
                Condition::eq_vc(vars[rng.gen_range(0..vars.len())], 1)
            } else {
                Condition::True
            };
            rows.push(CRow::new([Term::constant(a), Term::constant(b)], cond));
        }
        let table = CTable::new(2, rows).expect("binary rows");
        (name, adapter::pc_table(table, dists))
    });
    adapter::catalog(rels.collect::<Vec<_>>())
}

// ---------------------------------------------------------------------
// Synchronous closed loop (one operation outstanding).
// ---------------------------------------------------------------------

/// Repeats `op` for `window`; `op` returns whether its answer was correct.
pub fn run_sync_for(window: Duration, mut op: impl FnMut() -> bool) -> LoopResult {
    let mut out = LoopResult::default();
    reserve_touched(&mut out.latencies_us, capacity_for(window, SYNC_RATE_CAP));
    let start = Instant::now();
    while start.elapsed() < window || out.attempted == 0 {
        let t0 = Instant::now();
        let ok = op();
        out.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        if !ok {
            out.failed += 1;
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Alternates `f(false, slice)` and `f(true, slice)` until `window` is
/// spent, so drift on the host lands on both sides; returns both sides'
/// totals, `false` side first.
pub fn alternate(
    window: Duration,
    slice: Duration,
    mut f: impl FnMut(bool, Duration) -> LoopResult,
) -> (LoopResult, LoopResult) {
    let (mut off, mut on) = (LoopResult::default(), LoopResult::default());
    let start = Instant::now();
    while start.elapsed() < window {
        off.merge(f(false, slice));
        on.merge(f(true, slice));
    }
    (off, on)
}
