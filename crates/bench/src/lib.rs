//! Shared workload generators for the benches and the experiments
//! harness.
//!
//! Everything is seeded (`StdRng::seed_from_u64`) so benchmark inputs
//! and experiment rows are reproducible run to run.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use ipdb_engine::{Catalog, Schema};
use ipdb_logic::{Condition, Term, Var};
use ipdb_prob::{BooleanPcTable, FiniteSpace, PcTable, Rat};
use ipdb_rel::{Domain, IDatabase, Instance, Tuple, Value};
use ipdb_tables::{BooleanCTable, CRow, CTable};

/// A random c-table: `rows` rows of the given arity over `nvars`
/// variables and constants `0..const_pool`, each row guarded by a random
/// small condition.
pub fn random_ctable(rows: usize, arity: usize, nvars: u32, const_pool: i64, seed: u64) -> CTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let tuple: Vec<Term> = (0..arity)
            .map(|_| {
                if rng.gen_bool(0.5) && nvars > 0 {
                    Term::Var(Var(rng.gen_range(0..nvars)))
                } else {
                    Term::constant(rng.gen_range(0..const_pool))
                }
            })
            .collect();
        out.push(CRow::new(
            tuple,
            random_condition(&mut rng, nvars, const_pool, 2),
        ));
    }
    CTable::new(arity, out).expect("arity fixed")
}

/// A random finite-domain c-table: [`random_ctable`] plus the domain
/// `{0..domain_size}` on every variable.
pub fn random_finite_ctable(
    rows: usize,
    arity: usize,
    nvars: u32,
    domain_size: i64,
    seed: u64,
) -> CTable {
    let t = random_ctable(rows, arity, nvars, domain_size, seed);
    let domains = t
        .vars()
        .into_iter()
        .map(|v| (v, Domain::ints(0..domain_size)))
        .collect();
    CTable::with_domains(t.arity(), t.rows().to_vec(), domains).expect("valid domains")
}

fn random_condition(rng: &mut StdRng, nvars: u32, const_pool: i64, depth: u32) -> Condition {
    if depth == 0 || nvars == 0 || rng.gen_bool(0.4) {
        if nvars == 0 {
            return Condition::True;
        }
        let x = Var(rng.gen_range(0..nvars));
        let atom = if rng.gen_bool(0.5) {
            Condition::eq_vc(x, rng.gen_range(0..const_pool))
        } else {
            Condition::neq_vc(x, rng.gen_range(0..const_pool))
        };
        return atom;
    }
    let l = random_condition(rng, nvars, const_pool, depth - 1);
    let r = random_condition(rng, nvars, const_pool, depth - 1);
    if rng.gen_bool(0.5) {
        Condition::and([l, r])
    } else {
        Condition::or([l, r])
    }
}

/// A random boolean condition over `nvars` variables (for event
/// expressions).
pub fn random_boolean_condition(rng: &mut StdRng, nvars: u32, depth: u32) -> Condition {
    if depth == 0 || rng.gen_bool(0.35) {
        let x = Var(rng.gen_range(0..nvars.max(1)));
        return if rng.gen_bool(0.5) {
            Condition::bvar(x)
        } else {
            Condition::nbvar(x)
        };
    }
    let l = random_boolean_condition(rng, nvars, depth - 1);
    let r = random_boolean_condition(rng, nvars, depth - 1);
    if rng.gen_bool(0.5) {
        Condition::and([l, r])
    } else {
        Condition::or([l, r])
    }
}

/// A random boolean pc-table over `nvars` Bernoulli variables with
/// dyadic probabilities.
pub fn random_boolean_pctable(
    rows: usize,
    arity: usize,
    nvars: u32,
    seed: u64,
) -> BooleanPcTable<Rat> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = BooleanCTable::new(arity);
    for _ in 0..rows {
        let tuple: Tuple = (0..arity)
            .map(|_| Value::from(rng.gen_range(0..64i64)))
            .collect();
        let cond = random_boolean_condition(&mut rng, nvars, 3);
        t.push(tuple, cond).expect("boolean by construction");
    }
    let probs: Vec<(Var, Rat)> = t
        .vars()
        .into_iter()
        .map(|v| (v, Rat::new(rng.gen_range(1..=7), 8)))
        .collect();
    BooleanPcTable::new(t, probs).expect("valid probabilities")
}

/// A random pc-table over `nvars` finite-domain variables with uniform
/// distributions.
pub fn random_pctable(
    rows: usize,
    arity: usize,
    nvars: u32,
    domain_size: i64,
    seed: u64,
) -> PcTable<Rat> {
    let t = random_finite_ctable(rows, arity, nvars, domain_size, seed);
    let dists: Vec<(Var, FiniteSpace<Value, Rat>)> = t
        .vars()
        .into_iter()
        .map(|v| {
            let d = FiniteSpace::new(
                (0..domain_size).map(|i| (Value::from(i), Rat::new(1, domain_size as i128))),
            )
            .expect("uniform");
            (v, d)
        })
        .collect();
    PcTable::new(t, dists).expect("all vars covered")
}

/// A random non-empty finite i-database: `worlds` instances of the given
/// arity with at most `max_tuples` tuples each.
pub fn random_idb(
    worlds: usize,
    arity: usize,
    max_tuples: usize,
    const_pool: i64,
    seed: u64,
) -> IDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = IDatabase::empty(arity);
    while db.len() < worlds {
        let ntup = rng.gen_range(0..=max_tuples);
        let mut inst = Instance::empty(arity);
        for _ in 0..ntup {
            let t: Tuple = (0..arity)
                .map(|_| Value::from(rng.gen_range(0..const_pool)))
                .collect();
            inst.insert(t).expect("arity fixed");
        }
        db.insert(inst).expect("arity fixed");
    }
    db
}

/// The engine benches' σ(×) self-join workload, shared by
/// `bench_engine` and the plan-quality floors in `tests/floors.rs` so
/// the two always measure the same query: `#0=1` prunes the left factor
/// to ~1/8 of its rows, `#2=2` the right factor likewise, and `#1=#3`
/// spans the product — the optimizer turns it into a hash join key.
pub const ENGINE_PRODUCT_HEAVY: &str = "pi[1](sigma[and(#0=1, #2=2, #1=#3)](V x V))";

/// The pushdown-only strategy for [`ENGINE_PRODUCT_HEAVY`], written out
/// by hand and meant to be prepared with the optimizer *off*: factors
/// pre-filtered (right-side conjunct re-based), the spanning equality
/// left as a selection above the product — what the optimizer produced
/// before it learned to build joins.
pub const ENGINE_PRODUCT_HEAVY_PUSHED: &str =
    "pi[1](sigma[#1=#3](sigma[#0=1](V) x sigma[#0=2](V)))";

/// The pc-table probability workload of `bench_probability` and the
/// enumeration-vs-BDD floor in `tests/floors.rs`: a query whose answer
/// distribution both paths compute — enumeration walks the valuation
/// product space of the answered table, the BDD path counts models of
/// the per-tuple presence conditions.
pub const PROB_SMOKE_QUERY: &str = "sigma[#0!=0](V union {(7)})";

/// A pc-table for the [`PROB_SMOKE_QUERY`] workload: exactly `nvars` binary
/// variables, **every one appearing** (so valuation enumeration really
/// visits `2^nvars` outcomes), one row per variable whose condition
/// couples it with its ring neighbor, plus skewed dyadic marginals.
pub fn prob_smoke_pctable(nvars: u32, seed: u64) -> PcTable<Rat> {
    assert!(nvars >= 2, "need at least two variables to couple");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CTable::builder(1);
    for i in 0..nvars {
        let x = Var(i);
        let y = Var((i + 1) % nvars);
        let cond = if rng.gen_bool(0.5) {
            Condition::or([
                Condition::eq_vc(x, 1),
                Condition::and([Condition::eq_vc(y, 0), Condition::neq_vv(x, y)]),
            ])
        } else {
            Condition::and([
                Condition::neq_vc(x, 0),
                Condition::or([Condition::eq_vv(x, y), Condition::neq_vc(y, 1)]),
            ])
        };
        b = b.row([Term::constant(i as i64 % 3 + 1)], cond);
        b = b.row([Term::Var(x)], Condition::neq_vv(x, y));
    }
    let t = b.build().expect("arity fixed");
    let dists: Vec<(Var, FiniteSpace<Value, Rat>)> = (0..nvars)
        .map(|i| {
            let p = Rat::new(rng.gen_range(1..=7), 8);
            let d = FiniteSpace::new([(Value::from(1), p), (Value::from(0), Rat::ONE - p)])
                .expect("dyadic mass");
            (Var(i), d)
        })
        .collect();
    let pc = PcTable::new(t, dists).expect("all vars covered");
    assert_eq!(
        pc.table().vars().len(),
        nvars as usize,
        "workload must use every variable"
    );
    pc
}

/// `rows` distinct tuples `(i mod 8, i div 8)` — 8 join-key groups, so
/// each pushed-down selection of [`ENGINE_PRODUCT_HEAVY`] keeps rows/8
/// tuples.
pub fn skewed_instance(rows: usize) -> Instance {
    Instance::from_tuples(
        2,
        (0..rows).map(|i| Tuple::new([Value::from((i % 8) as i64), Value::from((i / 8) as i64)])),
    )
    .expect("fixed arity")
}

/// The morsel-executor scaling workload: an asymmetric equijoin of a
/// small build relation `R` against a ≥100k-row probe relation `S`,
/// written as σ(×) so the optimizer extracts the hash join on `#1=#2`,
/// pushes `#1!=0` onto `R`, and leaves `#0!=#3` as a vectorized
/// residual. The probe scan dominates the runtime, which is exactly the
/// shape morsel fan-out parallelizes.
pub const ENGINE_PARALLEL_JOIN: &str = "sigma[and(#1=#2, #0!=#3, #1!=0)](R x S)";

/// The schema of the scaling workload: build side `R`, probe side `S`.
pub fn parallel_schema() -> Schema {
    Schema::new([("R", 2), ("S", 2)]).expect("distinct names")
}

/// The [`ENGINE_PARALLEL_JOIN`] build side: `rows` key pairs `(k, k)`.
pub fn parallel_build_side(rows: usize) -> Instance {
    Instance::from_tuples(
        2,
        (0..rows).map(|k| Tuple::new([Value::from(k as i64), Value::from(k as i64)])),
    )
    .expect("fixed arity")
}

/// The [`ENGINE_PARALLEL_JOIN`] probe side: `rows` tuples `(j, j mod 3)`.
/// Joining `R.#1 = S.#0` hashes every one of the `rows` probe keys but
/// only the `|R|` smallest hit, so the output (and its set-semantics
/// materialization) stays small while the parallelizable probe scan does
/// the work.
pub fn parallel_probe_side(rows: usize) -> Instance {
    Instance::from_tuples(
        2,
        (0..rows).map(|j| Tuple::new([Value::from(j as i64), Value::from(j as i64 % 3)])),
    )
    .expect("fixed arity")
}

/// The 3-relation chain-join catalog workload (`R(a,b) ⋈ S(b,c) ⋈
/// T(c,d)`) in its naive σ(×) spelling; prepared with the optimizer on,
/// it plans to two stacked hash joins over the named relations.
pub const ENGINE_CHAIN_NAIVE: &str = "sigma[and(#1=#2,#3=#4)]((R x S) x T)";

/// The schema of the chain-join workload: three binary relations.
pub fn chain_schema() -> Schema {
    Schema::new([("R", 2), ("S", 2), ("T", 2)]).expect("distinct names")
}

/// A seeded instance catalog for [`ENGINE_CHAIN_NAIVE`]: three `rows`-row
/// binary relations with keys drawn from `0..keys`, so each hash join
/// keeps roughly `rows²/keys` pairs while the naive product walks
/// `rows³` concatenations.
pub fn random_chain_catalog(rows: usize, keys: i64, seed: u64) -> Catalog<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    for name in ["R", "S", "T"] {
        let inst = Instance::from_tuples(
            2,
            (0..rows).map(|_| {
                Tuple::new([
                    Value::from(rng.gen_range(0..keys)),
                    Value::from(rng.gen_range(0..keys)),
                ])
            }),
        )
        .expect("fixed arity");
        cat.insert(name, inst);
    }
    cat
}

// ---------------------------------------------------------------------
// Serving-layer traffic workload: a small star of relations, a pool of
// distinct read templates with Zipf-skewed popularity, and a ~90/10
// read/write trace — the shape a plan cache and snapshot catalogs are
// built for.
// ---------------------------------------------------------------------

/// Number of relations in the serving-traffic workload (`Z0`..`Z7`).
pub const SERVE_RELS: usize = 8;

/// The serving-traffic schema: [`SERVE_RELS`] binary relations.
pub fn serve_schema() -> Schema {
    Schema::new((0..SERVE_RELS).map(|r| (format!("Z{r}"), 2))).expect("distinct names")
}

/// One serving relation: `rows` tuples `(i, (i + shift) mod rows)` — a
/// shifted permutation in the second column, so the chain joins of
/// [`serve_query_pool`] match exactly one row per probe and answers stay
/// `O(rows)` regardless of which relations a template picks.
pub fn serve_relation(rows: usize, shift: i64) -> Instance {
    let n = rows as i64;
    Instance::from_tuples(
        2,
        (0..n).map(|i| Tuple::new([Value::from(i), Value::from((i + shift).rem_euclid(n))])),
    )
    .expect("fixed arity")
}

/// The serving-traffic base catalog: `Z{r}` is [`serve_relation`] with
/// shift `r + 1`.
pub fn serve_catalog(rows: usize) -> Catalog<Instance> {
    (0..SERVE_RELS)
        .map(|r| (format!("Z{r}"), serve_relation(rows, r as i64 + 1)))
        .collect()
}

/// `n` distinct read templates over the serving schema, written the way
/// machines write queries: a 4-relation chain join in its verbose σ(×)
/// spelling, wrapped in redundant projection/selection layers whose
/// wide always-true guards (8 conjuncts each) the optimizer has to
/// fuse, push down, and prune on every prepare. The optimizer collapses
/// each template to a small 3-join plan, so execution is cheap while
/// preparation is the dominant per-request cost — exactly the workload
/// a plan cache amortizes. The guard constants embed the template index
/// `i`, so every template is a distinct text, the plan cache's key: a
/// cold cache misses once per template, never by accident twice.
pub fn serve_query_pool(n: usize, seed: u64) -> Vec<String> {
    use std::fmt::Write as _;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let a = zipf_index(&mut rng, SERVE_RELS);
            let b = zipf_index(&mut rng, SERVE_RELS);
            let c = zipf_index(&mut rng, SERVE_RELS);
            let d = zipf_index(&mut rng, SERVE_RELS);
            // Always-true guards: relation values stay far below 9e6,
            // and `i` keeps the texts template-unique.
            let guard = |col: usize, base: i64| {
                let mut g = String::new();
                for k in 0..8 {
                    if k > 0 {
                        g.push_str(", ");
                    }
                    let _ = write!(g, "#{col}!={}", base + 10 * i as i64 + k);
                }
                g
            };
            let (g0, g1) = (guard(0, 9_000_001), guard(1, 9_100_001));
            format!(
                "pi[0](sigma[and({g0})](pi[0](sigma[and({g1})](pi[0,1](\
                 sigma[and(#1=#2, #3=#4, #5=#6)](((pi[0,1](sigma[and({g0})](Z{a})) x \
                 pi[0,1](sigma[and({g1})](Z{b}))) x Z{c}) x pi[0,1](Z{d})))))))"
            )
        })
        .collect()
}

/// One operation of the serving-traffic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Execute read template `i` of the pool.
    Read(usize),
    /// Reinstall relation `Z{rel}` as [`serve_relation`] with this shift.
    Write {
        /// Relation index in `0..SERVE_RELS`.
        rel: usize,
        /// The new relation's link shift.
        shift: i64,
    },
}

/// A `len`-operation trace over a `pool`-template read set: ~90% reads
/// with Zipf-skewed template popularity (the workload a warm plan cache
/// serves out of its hottest entries), ~10% single-relation reinstalls.
pub fn serve_trace(pool: usize, len: usize, seed: u64) -> Vec<ServeOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|k| {
            if rng.gen_bool(0.1) {
                ServeOp::Write {
                    rel: rng.gen_range(0..SERVE_RELS),
                    shift: k as i64 % 31 + 1,
                }
            } else {
                ServeOp::Read(zipf_index(&mut rng, pool))
            }
        })
        .collect()
}

/// A Zipf(s = 1.1) rank in `0..n` (rank 0 the most popular), sampled by
/// inverse CDF over the finite harmonic weights `1/(k+1)^1.1`.
fn zipf_index(rng: &mut StdRng, n: usize) -> usize {
    let weight = |k: usize| 1.0 / ((k + 1) as f64).powf(1.1);
    let total: f64 = (0..n).map(weight).sum();
    // A uniform in [0, 1) from 53 mantissa bits (the vendored rand has
    // no float sampling).
    let uniform = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let mut u = uniform * total;
    for k in 0..n {
        u -= weight(k);
        if u <= 0.0 {
            return k;
        }
    }
    n - 1
}

/// A seeded pc-table catalog for [`ENGINE_CHAIN_NAIVE`]: three binary
/// pc-relations over **one shared variable namespace** — relation `j`
/// uses variables `j·(k−1) ..= (j+1)·(k−1)`, so each consecutive pair
/// shares a boundary variable (`3k − 2` variables in total, all binary:
/// the enumeration path walks `2^(3k−2)` valuations). Ground join-key
/// columns keep the chain joins hash-executed; the conditions carry the
/// variables through to the answer.
pub fn chain_pc_catalog(vars_per_rel: u32, keys: i64, seed: u64) -> Catalog<PcTable<Rat>> {
    assert!(
        vars_per_rel >= 2,
        "need at least two variables per relation"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let total_vars = 3 * (vars_per_rel - 1) + 1;
    // One distribution per variable, fixed up front so relations sharing
    // a boundary variable agree exactly (the catalog contract).
    let dists: Vec<(Var, FiniteSpace<Value, Rat>)> = (0..total_vars)
        .map(|i| {
            let p = Rat::new(rng.gen_range(1..=7), 8);
            let d = FiniteSpace::new([(Value::from(1), p), (Value::from(0), Rat::ONE - p)])
                .expect("dyadic mass");
            (Var(i), d)
        })
        .collect();
    let mut cat = Catalog::new();
    for (j, name) in ["R", "S", "T"].into_iter().enumerate() {
        let lo = j as u32 * (vars_per_rel - 1);
        let vars: Vec<Var> = (lo..lo + vars_per_rel).map(Var).collect();
        let mut b = CTable::builder(2);
        for (i, w) in vars.windows(2).enumerate() {
            let (x, y) = (w[0], w[1]);
            let key = (i as i64 + j as i64) % keys;
            b = b.ground_row(
                [key, (key + 1) % keys],
                Condition::or([Condition::eq_vc(x, 1), Condition::eq_vv(x, y)]),
            );
            b = b.ground_row(
                [(key + 1) % keys, key],
                Condition::and([Condition::neq_vc(y, 0), Condition::neq_vv(x, y)]),
            );
        }
        let t = b.build().expect("arity fixed");
        let mine: Vec<_> = dists
            .iter()
            .filter(|(v, _)| vars.contains(v))
            .cloned()
            .collect();
        cat.insert(name, PcTable::new(t, mine).expect("all vars covered"));
    }
    cat
}
