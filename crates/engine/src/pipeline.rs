//! The front door: parse/plan/optimize once, execute anywhere.
//!
//! [`Engine::prepare`] (or [`Engine::prepare_text`] for the surface
//! syntax) runs the first three pipeline stages — parse, plan,
//! optimize — and returns a [`Prepared`] statement holding both the
//! naive and the optimized plan. [`Prepared::explain`] shows what the
//! optimizer did. Multi-relation queries prepare against a named
//! [`Schema`] ([`Engine::prepare_schema`] /
//! [`Engine::prepare_text_schema`]).
//!
//! Every execution method is a short call into the one evaluator of
//! its [`Backend`] ([`Backend::execute`]): it checks the input against
//! the prepared schema, picks the optimized or naive query, a relation
//! [`Source`] (a single input bound to `V`, or a [`Catalog`]), an
//! [`ExecConfig`] and a trace sink. Plain methods pass [`NoTrace`]; the
//! `_analyzed` ones pass a [`ReportSink`] and return a [`QueryReport`]
//! (`EXPLAIN ANALYZE`; render it with [`QueryReport::render`]). The
//! `answer_dist*` methods add BDD compilation or valuation enumeration
//! after the pc-table closure.

use std::time::Instant;

use ipdb_prob::{PcTable, Weight};
use ipdb_rel::{Instance, Query, Schema, Tuple};

use crate::backend::{Backend, Catalog, Source};
use crate::error::EngineError;
use crate::morsel::ExecConfig;
use crate::optimize::{optimize_plan_stats, OptimizeStats};
use crate::parser;
use crate::plan::Plan;
use crate::report::{NoTrace, QueryReport, ReportSink, TraceSink};

/// The query pipeline: parse, plan, optimize. Every [`Prepared`]
/// statement keeps its naive plan too ([`Prepared::naive_plan`],
/// [`Prepared::execute_naive`]), so there is nothing to configure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine;

impl Engine {
    /// The engine.
    pub fn new() -> Engine {
        Engine
    }

    /// Plans and optimizes a query for inputs of the given arity.
    pub fn prepare(&self, q: &Query, input_arity: usize) -> Result<Prepared, EngineError> {
        self.prepare_schema(q, &Schema::single(input_arity))
    }

    /// Plans and optimizes a query over an arbitrary named [`Schema`].
    pub fn prepare_schema(&self, q: &Query, schema: &Schema) -> Result<Prepared, EngineError> {
        let naive = Plan::from_query_schema(q, schema)?;
        let (optimized, optimize_stats) = optimize_plan_stats(&naive);
        // Same invariant `optimize_plan` pins: the pass bound must have
        // sufficed (see `crate::optimize`).
        debug_assert!(
            optimize_stats.converged,
            "optimizer exhausted its fixpoint bound without converging \
             ({} passes on a depth-{} plan)",
            optimize_stats.passes,
            naive.depth()
        );
        // Lower both plans once here so repeated `execute` calls don't
        // pay a per-call plan-to-AST conversion.
        let naive_query = naive.to_query();
        let optimized_query = optimized.to_query();
        Ok(Prepared {
            schema: schema.clone(),
            naive,
            optimized,
            naive_query,
            optimized_query,
            optimize_stats,
        })
    }

    /// Parses the surface syntax, then plans and optimizes.
    pub fn prepare_text(&self, src: &str, input_arity: usize) -> Result<Prepared, EngineError> {
        self.prepare(&parser::parse(src)?, input_arity)
    }

    /// Parses the surface syntax, then plans and optimizes over a named
    /// [`Schema`].
    pub fn prepare_text_schema(&self, src: &str, schema: &Schema) -> Result<Prepared, EngineError> {
        self.prepare_schema(&parser::parse(src)?, schema)
    }
}

/// A planned (and possibly optimized) query, ready to execute on any
/// backend whose input arity matches (or any catalog implementing the
/// prepared schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepared {
    schema: Schema,
    naive: Plan,
    optimized: Plan,
    naive_query: Query,
    optimized_query: Query,
    optimize_stats: OptimizeStats,
}

impl Prepared {
    /// The schema the statement was prepared over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The arity of the reserved input relation `V` in the prepared
    /// schema — the classic single-input convention. `None` when the
    /// schema declares no `V` at all (purely named schemas), which is
    /// distinct from `Some(0)`, a declared nullary input: conflating
    /// the two is what let schema-validation paths misclassify named
    /// statements as nullary single-input ones.
    pub fn input_arity(&self) -> Option<usize> {
        self.schema.arity_of(Schema::INPUT)
    }

    /// Whether the prepared schema declares the reserved input `V` —
    /// i.e. whether [`Prepared::execute`]-style single-input calls can
    /// apply at all.
    pub fn has_input(&self) -> bool {
        self.schema.arity_of(Schema::INPUT).is_some()
    }

    /// The plan as written (arity-annotated, unoptimized).
    pub fn naive_plan(&self) -> &Plan {
        &self.naive
    }

    /// The optimized plan.
    pub fn plan(&self) -> &Plan {
        &self.optimized
    }

    /// The optimized query, lowered back to the executable AST (cached
    /// at `prepare` time).
    pub fn query(&self) -> &Query {
        &self.optimized_query
    }

    /// The original query, lowered back without optimization.
    pub fn naive_query(&self) -> &Query {
        &self.naive_query
    }

    /// Output arity of the statement.
    pub fn output_arity(&self) -> usize {
        self.optimized.arity
    }

    /// Before/after plan trees, for humans.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str("naive plan:\n");
        out.push_str(&self.naive.render_tree());
        if self.optimized == self.naive {
            out.push_str("optimized plan: (unchanged)\n");
        } else {
            out.push_str("optimized plan:\n");
            out.push_str(&self.optimized.render_tree());
        }
        out
    }

    /// Executes the optimized plan against a single input bound to `V`.
    pub fn execute<B: Backend>(&self, input: &B) -> Result<B::Output, EngineError> {
        let cfg = ExecConfig::from_env();
        self.run(
            Source::Input(input),
            &self.optimized_query,
            &cfg,
            &mut NoTrace,
        )
    }

    /// Executes the *unoptimized* plan (the differential baseline for
    /// [`Prepared::execute`]).
    pub fn execute_naive<B: Backend>(&self, input: &B) -> Result<B::Output, EngineError> {
        let cfg = ExecConfig::from_env();
        self.run(Source::Input(input), &self.naive_query, &cfg, &mut NoTrace)
    }

    /// The full answer distribution over a pc-table backend — every
    /// possible answer tuple with its exact probability — via the **BDD
    /// fast path**: the optimized plan runs through the pruning c-table
    /// executor (Thm 9 closure), then every answer tuple's presence
    /// condition is compiled under the finite-domain one-hot encoding
    /// and weighted-model-counted with one shared `BddManager`
    /// ([`PcTable::marginals_bdd`]). No walk over the §8 valuation
    /// product space.
    pub fn answer_dist<W: Weight>(&self, pc: &PcTable<W>) -> Result<Vec<(Tuple, W)>, EngineError> {
        Ok(self.execute(pc)?.marginals_bdd()?)
    }

    /// The same answer distribution by full valuation enumeration over
    /// the *naive* plan's result — exponential in the number of
    /// variables. Kept reachable as the differential oracle for
    /// [`Prepared::answer_dist`] (see `tests/prob_oracle.rs` and the
    /// `bench_smoke` pc-table series).
    pub fn answer_dist_enum<W: Weight>(
        &self,
        pc: &PcTable<W>,
    ) -> Result<Vec<(Tuple, W)>, EngineError> {
        Ok(self.execute_naive(pc)?.mod_space()?.marginals())
    }

    /// Executes the optimized plan against a named catalog. The catalog
    /// must supply every relation the prepared schema declares, at the
    /// declared arity ([`EngineError::MissingRelation`] /
    /// [`EngineError::RelationArity`] otherwise).
    pub fn execute_catalog<B: Backend>(&self, cat: &Catalog<B>) -> Result<B::Output, EngineError> {
        self.execute_catalog_cfg(cat, &ExecConfig::from_env())
    }

    /// Executes the *unoptimized* plan against a named catalog (the
    /// differential baseline for [`Prepared::execute_catalog`]).
    pub fn execute_catalog_naive<B: Backend>(
        &self,
        cat: &Catalog<B>,
    ) -> Result<B::Output, EngineError> {
        let cfg = ExecConfig::from_env();
        self.run(Source::Catalog(cat), &self.naive_query, &cfg, &mut NoTrace)
    }

    /// [`Prepared::execute_catalog`] with an explicit [`ExecConfig`]
    /// instead of [`ExecConfig::from_env`] — how a server worker runs
    /// each request with its configured parallelism, and how benchmarks
    /// and determinism oracles pin thread count and morsel size. Run a
    /// single input as the `{V: input}` catalog.
    pub fn execute_catalog_cfg<B: Backend>(
        &self,
        cat: &Catalog<B>,
        cfg: &ExecConfig,
    ) -> Result<B::Output, EngineError> {
        self.run(
            Source::Catalog(cat),
            &self.optimized_query,
            cfg,
            &mut NoTrace,
        )
    }

    /// [`Prepared::execute_catalog_cfg`] on the [`Instance`] backend,
    /// kept for the benchmark adapter.
    pub fn execute_catalog_with(
        &self,
        cat: &Catalog<Instance>,
        cfg: &ExecConfig,
    ) -> Result<Instance, EngineError> {
        self.execute_catalog_cfg(cat, cfg)
    }

    /// The full answer distribution over a pc-table **catalog**: the
    /// optimized plan runs through the pruning executor across all
    /// pc-relations (one shared variable namespace — see
    /// [`Backend::execute`] for [`PcTable`]), then the answer's
    /// presence conditions are compiled and counted with **one**
    /// `BddManager` shared across all answer tuples
    /// ([`PcTable::marginals_bdd`]).
    pub fn answer_dist_catalog<W: Weight>(
        &self,
        cat: &Catalog<PcTable<W>>,
    ) -> Result<Vec<(Tuple, W)>, EngineError> {
        Ok(self.execute_catalog(cat)?.marginals_bdd()?)
    }

    /// The same catalog answer distribution by full valuation
    /// enumeration over the naive plan — the differential oracle for
    /// [`Prepared::answer_dist_catalog`].
    pub fn answer_dist_catalog_enum<W: Weight>(
        &self,
        cat: &Catalog<PcTable<W>>,
    ) -> Result<Vec<(Tuple, W)>, EngineError> {
        Ok(self.execute_catalog_naive(cat)?.mod_space()?.marginals())
    }

    /// [`Prepared::execute_catalog_cfg`] with **`EXPLAIN ANALYZE`
    /// instrumentation**: the identical output, plus a [`QueryReport`]
    /// recording what every operator of the optimized plan did —
    /// cardinalities, selectivity, inclusive/exclusive timings, the
    /// hash join's build side, and (on the c-/pc-table backends) rows
    /// pruned by condition simplification.
    pub fn execute_catalog_analyzed<B: Backend>(
        &self,
        cat: &Catalog<B>,
        cfg: &ExecConfig,
    ) -> Result<(B::Output, QueryReport), EngineError> {
        let t0 = Instant::now();
        let mut sink = ReportSink::default();
        let out = self.run(Source::Catalog(cat), &self.optimized_query, cfg, &mut sink)?;
        Ok((out, self.report::<B>(sink, t0)))
    }

    /// [`Prepared::answer_dist_catalog`] with `EXPLAIN ANALYZE`
    /// instrumentation: the identical distribution, plus a
    /// [`QueryReport`] whose operator tree covers the pruning c-table
    /// execution and whose [`QueryReport::bdd`] reports the shared
    /// `BddManager`'s counters from the WMC phase (node allocations,
    /// unique-table and apply-cache hit rates, WMC call count).
    pub fn answer_dist_catalog_analyzed<W: Weight>(
        &self,
        cat: &Catalog<PcTable<W>>,
    ) -> Result<(Vec<(Tuple, W)>, QueryReport), EngineError> {
        let t0 = Instant::now();
        let mut sink = ReportSink::default();
        let cfg = ExecConfig::from_env();
        let answer = self.run(Source::Catalog(cat), &self.optimized_query, &cfg, &mut sink)?;
        let (dist, bdd) = answer.marginals_bdd_traced()?;
        let mut report = self.report::<PcTable<W>>(sink, t0);
        report.bdd = Some(bdd);
        Ok((dist, report))
    }

    /// What the optimizer's fixpoint loop did when this statement was
    /// prepared (pass count, convergence).
    pub fn optimize_stats(&self) -> OptimizeStats {
        self.optimize_stats
    }

    /// The one execution path: checks `src` against the prepared schema,
    /// then runs `q` through the backend's evaluator.
    fn run<B: Backend, S: TraceSink>(
        &self,
        src: Source<'_, B>,
        q: &Query,
        cfg: &ExecConfig,
        sink: &mut S,
    ) -> Result<B::Output, EngineError> {
        match src {
            Source::Input(input) => self.check_arity(input)?,
            Source::Catalog(cat) => self.check_catalog(cat)?,
        }
        B::execute(src, q, cfg, sink)
    }

    /// Wraps an executed operator tree into a [`QueryReport`] with this
    /// statement's context.
    fn report<B: Backend>(&self, sink: ReportSink, started: Instant) -> QueryReport {
        QueryReport {
            backend: B::NAME,
            root: sink.finish(),
            total_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            optimize: self.optimize_stats,
            bdd: None,
        }
    }

    fn check_arity<B: Backend>(&self, input: &B) -> Result<(), EngineError> {
        let expected = match self.schema.arity_of(Schema::INPUT) {
            Some(a) => a,
            // Prepared over a purely named schema: a bare input has no
            // name to bind to — same error a `V` leaf would report.
            None => {
                return Err(EngineError::Rel(ipdb_rel::RelError::UnknownRelation {
                    name: Schema::INPUT.to_string(),
                }))
            }
        };
        let got = input.input_arity();
        if got != expected {
            return Err(EngineError::InputArityMismatch { expected, got });
        }
        Ok(())
    }

    fn check_catalog<B: Backend>(&self, cat: &Catalog<B>) -> Result<(), EngineError> {
        for (name, expected) in self.schema.iter() {
            match cat.get(name) {
                None => {
                    return Err(EngineError::MissingRelation {
                        name: name.to_string(),
                    })
                }
                Some(rel) if rel.input_arity() != expected => {
                    return Err(EngineError::RelationArity {
                        name: name.to_string(),
                        expected,
                        got: rel.input_arity(),
                    })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipdb_rel::{instance, Instance};

    #[test]
    fn prepare_text_and_execute() {
        let engine = Engine::new();
        let stmt = engine
            .prepare_text("pi[1](sigma[and(#0=1,#1=#3)](V x V))", 2)
            .unwrap();
        assert_eq!(stmt.input_arity(), Some(2));
        assert!(stmt.has_input());
        assert_eq!(stmt.output_arity(), 1);
        let i = instance![[1, 10], [2, 10], [2, 20]];
        let out = stmt.execute(&i).unwrap();
        assert_eq!(out, instance![[10]]);
        assert_eq!(out, stmt.execute_naive(&i).unwrap());
    }

    #[test]
    fn explain_shows_both_plans() {
        let stmt = Engine::new()
            .prepare_text("sigma[#0=1](sigma[#1=2](V))", 2)
            .unwrap();
        let text = stmt.explain();
        assert!(text.contains("naive plan:"));
        assert!(text.contains("optimized plan:"));
        assert!(text.contains("and(#1=2,#0=1)"));
        // The fused plan is strictly shallower.
        assert!(stmt.plan().depth() < stmt.naive_plan().depth());
    }

    #[test]
    fn sigma_product_prepares_to_a_hash_join() {
        // The acceptance-criterion shape: σ_{#0=#2}(R × S) must show a
        // Join node in explain() and execute identically to the naive
        // filtered product.
        let stmt = Engine::new()
            .prepare_text("sigma[#0=#2](V x V)", 2)
            .unwrap();
        let text = stmt.explain();
        assert!(text.contains("join[#0=#2]"), "explain was:\n{text}");
        assert!(!format!("{:?}", stmt.plan()).contains("Product"));
        let i = instance![[1, 10], [2, 20], [1, 30]];
        assert_eq!(stmt.execute(&i).unwrap(), stmt.execute_naive(&i).unwrap());
        assert_eq!(stmt.execute(&i).unwrap().len(), 5);
    }

    #[test]
    fn explain_notes_unchanged_plans() {
        let stmt = Engine::new().prepare_text("V", 2).unwrap();
        assert!(stmt.explain().contains("(unchanged)"));
    }

    #[test]
    fn arity_mismatch_is_rejected_at_execute() {
        let stmt = Engine::new().prepare_text("V", 2).unwrap();
        let narrow = Instance::empty(1);
        assert_eq!(
            stmt.execute(&narrow),
            Err(EngineError::InputArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn prepare_rejects_ill_typed_text() {
        assert!(Engine::new().prepare_text("pi[4](V)", 2).is_err());
        assert!(Engine::new().prepare_text("pi[4(V)", 2).is_err());
    }

    #[test]
    fn prepare_schema_and_execute_catalog() {
        let schema = Schema::new([("R", 2), ("S", 2)]).unwrap();
        let stmt = Engine::new()
            .prepare_text_schema("join[#0=#2](R, S)", &schema)
            .unwrap();
        assert_eq!(stmt.schema(), &schema);
        assert_eq!(stmt.output_arity(), 4);
        // No V in this schema: the classic accessor says so (`None`,
        // not a fake arity 0) and single-input execution errors
        // gracefully.
        assert_eq!(stmt.input_arity(), None);
        assert!(!stmt.has_input());
        // ... whereas a genuinely declared nullary `V` is `Some(0)`.
        let nullary = Engine::new()
            .prepare_schema(&Query::Input, &Schema::single(0))
            .unwrap();
        assert_eq!(nullary.input_arity(), Some(0));
        assert!(nullary.has_input());
        assert!(matches!(
            stmt.execute(&instance![[1, 2]]),
            Err(EngineError::Rel(ipdb_rel::RelError::UnknownRelation { .. }))
        ));

        let cat: Catalog<Instance> = [
            ("R", instance![[1, 2], [5, 6]]),
            ("S", instance![[1, 9], [6, 0]]),
        ]
        .into_iter()
        .collect();
        let out = stmt.execute_catalog(&cat).unwrap();
        assert_eq!(out, instance![[1, 2, 1, 9]]);
        assert_eq!(out, stmt.execute_catalog_naive(&cat).unwrap());

        // Round-trip of the named surface text.
        let text = parser::render(stmt.naive_query());
        assert_eq!(parser::parse(&text).unwrap(), *stmt.naive_query());

        // Catalog checks: missing relation, wrong arity.
        let missing: Catalog<Instance> = [("R", instance![[1, 2]])].into_iter().collect();
        assert_eq!(
            stmt.execute_catalog(&missing),
            Err(EngineError::MissingRelation { name: "S".into() })
        );
        let narrow: Catalog<Instance> = [("R", instance![[1, 2]]), ("S", instance![[9]])]
            .into_iter()
            .collect();
        assert_eq!(
            stmt.execute_catalog(&narrow),
            Err(EngineError::RelationArity {
                name: "S".into(),
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn classic_prepare_runs_against_a_v_catalog() {
        // Single-input statements are the special case of catalogs keyed
        // by the reserved name V — the alias claim end to end.
        let stmt = Engine::new()
            .prepare_text("sigma[#0=#1](V x V)", 1)
            .unwrap();
        let i = instance![[1], [2]];
        let cat: Catalog<Instance> = [("V", i.clone())].into_iter().collect();
        assert_eq!(
            stmt.execute_catalog(&cat).unwrap(),
            stmt.execute(&i).unwrap()
        );
    }

    #[test]
    fn prepare_schema_rejects_bad_relation_names() {
        let schema = Schema::new([("R", 1)]).unwrap();
        // Reserved word as a Rel leaf (constructed, not parsed).
        let q = Query::Rel("pi".into());
        assert_eq!(
            Engine::new().prepare_schema(&q, &schema),
            Err(EngineError::BadRelationName { name: "pi".into() })
        );
        // Non-identifier name.
        let q = Query::Rel("not ident".into());
        assert!(matches!(
            Engine::new().prepare_schema(&q, &schema),
            Err(EngineError::BadRelationName { .. })
        ));
        // Non-canonical alias spelling is rejected too (use Query::rel).
        let q = Query::Rel("V".into());
        assert!(matches!(
            Engine::new().prepare_schema(&q, &schema),
            Err(EngineError::BadRelationName { .. })
        ));
    }

    #[test]
    fn rat_overflow_surfaces_as_error_from_answer_dist() {
        use ipdb_logic::{Condition, VarGen};
        use ipdb_prob::{FiniteSpace, PcTable, ProbError, Rat};
        use ipdb_rel::Value;
        use ipdb_tables::{t_const, t_var, CTable};

        // Adversarial denominators (~1e18 each) push the WMC and the
        // enumeration normalization past i128: both public engine entry
        // points must return ProbError::Overflow, never panic.
        let mut g = VarGen::new();
        let (x, y, z) = (g.fresh(), g.fresh(), g.fresh());
        const D: i128 = 1_000_000_000_000_000_003;
        let dist = || {
            FiniteSpace::new([
                (Value::from(0), Rat::new(1, D)),
                (Value::from(1), Rat::new(D - 1, D)),
            ])
            .unwrap()
        };
        let t = CTable::builder(1)
            .row(
                [t_var(x)],
                Condition::and([Condition::eq_vc(y, 0), Condition::eq_vc(z, 0)]),
            )
            .row([t_const(9)], Condition::eq_vc(x, 0))
            .build()
            .unwrap();
        let pc = PcTable::new(t, [(x, dist()), (y, dist()), (z, dist())]).unwrap();
        let stmt = Engine::new().prepare_text("sigma[#0!=1](V)", 1).unwrap();
        assert_eq!(
            stmt.answer_dist(&pc),
            Err(EngineError::Prob(ProbError::Overflow))
        );
        assert_eq!(
            stmt.answer_dist_enum(&pc),
            Err(EngineError::Prob(ProbError::Overflow))
        );
    }

    #[test]
    fn answer_dist_catalog_matches_enumeration() {
        use ipdb_logic::{Condition, VarGen};
        use ipdb_prob::{rat, FiniteSpace, PcTable, Rat};
        use ipdb_rel::Value;
        use ipdb_tables::{t_var, CTable};

        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let uniform =
            |n: i64| FiniteSpace::new((0..n).map(|i| (Value::from(i), rat!(1, n)))).unwrap();
        let r = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .build()
            .unwrap();
        let s = CTable::builder(1)
            .row([t_var(y)], Condition::neq_vv(x, y))
            .build()
            .unwrap();
        let cat: Catalog<PcTable<Rat>> = [
            ("R", PcTable::new(r, [(x, uniform(2))]).unwrap()),
            (
                "S",
                PcTable::new(s, [(x, uniform(2)), (y, uniform(2))]).unwrap(),
            ),
        ]
        .into_iter()
        .collect();
        let schema = Schema::new([("R", 1), ("S", 1)]).unwrap();
        let stmt = Engine::new()
            .prepare_text_schema("R intersect S", &schema)
            .unwrap();
        let bdd = stmt.answer_dist_catalog(&cat).unwrap();
        assert_eq!(bdd, stmt.answer_dist_catalog_enum(&cat).unwrap());
        // R ∩ S holds t iff x = t ∧ y = t ∧ x ≠ y: impossible.
        assert!(bdd.is_empty());
    }

    #[test]
    fn execute_analyzed_matches_execute_and_reports_consistently() {
        let stmt = Engine::new()
            .prepare_text("pi[1](sigma[and(#0=1,#1=#3)](V x V))", 2)
            .unwrap();
        let i = instance![[1, 10], [2, 10], [2, 20]];
        let cat: Catalog<Instance> = [("V", i.clone())].into_iter().collect();
        let (out, report) = stmt
            .execute_catalog_analyzed(&cat, &ExecConfig::from_env())
            .unwrap();
        assert_eq!(out, stmt.execute(&i).unwrap());
        assert_eq!(report.backend, "instance");
        // The caller's clock wraps the operator tree's.
        assert!(report.root.ns <= report.total_ns);
        assert_eq!(report.root.total_exclusive_ns(), report.root.ns);
        assert_eq!(report.root.rows_out, out.len() as u64);
        // Optimizer context rides along.
        assert_eq!(report.optimize, stmt.optimize_stats());
        assert!(report.optimize.converged);
        assert!(report.optimize.passes >= 1);
        // And the rendered form carries the header + annotated tree.
        let text = report.render();
        assert!(
            text.contains("EXPLAIN ANALYZE (backend: instance"),
            "{text}"
        );
        assert!(text.contains("rows:"), "{text}");

        // Arity mismatches reject before any execution, as in execute.
        let narrow: Catalog<Instance> = [("V", Instance::empty(1))].into_iter().collect();
        assert!(matches!(
            stmt.execute_catalog_analyzed(&narrow, &ExecConfig::serial()),
            Err(EngineError::RelationArity { .. })
        ));
    }

    #[test]
    fn analyzed_catalog_and_config_variants_agree() {
        let schema = Schema::new([("R", 2), ("S", 2)]).unwrap();
        let stmt = Engine::new()
            .prepare_text_schema("join[#0=#2](R, S)", &schema)
            .unwrap();
        let cat: Catalog<Instance> = [
            ("R", instance![[1, 2], [5, 6]]),
            ("S", instance![[1, 9], [6, 0]]),
        ]
        .into_iter()
        .collect();
        let expected = stmt.execute_catalog(&cat).unwrap();
        let (out, report) = stmt
            .execute_catalog_analyzed(&cat, &ExecConfig::serial())
            .unwrap();
        assert_eq!(out, expected);
        assert!(report.root.label.starts_with("join["));
        assert_eq!(report.root.build_left, Some(true));
        let cfg = ExecConfig {
            threads: 2,
            morsel_rows: 1,
            metrics: false,
        };
        let (out2, report2) = stmt.execute_catalog_analyzed(&cat, &cfg).unwrap();
        assert_eq!(out2, expected);
        assert_eq!(report2.root.rows_out, report.root.rows_out);
        assert!(report2.render().contains("EXPLAIN ANALYZE"));
    }

    #[test]
    fn answer_dist_analyzed_matches_and_reports_bdd_stats() {
        use ipdb_logic::{Condition, VarGen};
        use ipdb_prob::{rat, FiniteSpace, PcTable, Rat};
        use ipdb_rel::Value;
        use ipdb_tables::{t_const, t_var, CTable};

        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let t = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .row([t_const(9)], Condition::eq_vv(x, y))
            .build()
            .unwrap();
        let uniform =
            |n: i64| FiniteSpace::new((0..n).map(|i| (Value::from(i), rat!(1, n)))).unwrap();
        let pc = PcTable::new(t, [(x, uniform(3)), (y, uniform(3))]).unwrap();
        let stmt = Engine::new()
            .prepare_text("sigma[#0!=1](V union {(9)})", 1)
            .unwrap();
        let cat: Catalog<PcTable<Rat>> = [("V", pc.clone())].into_iter().collect();
        let (dist, report) = stmt.answer_dist_catalog_analyzed(&cat).unwrap();
        assert_eq!(dist, stmt.answer_dist(&pc).unwrap());
        assert_eq!(report.backend, "pc-table");
        let bdd = report.bdd.expect("probabilistic reports carry BDD stats");
        assert!(bdd.nodes_allocated > 0);
        assert!(bdd.wmc_calls > 0);
        assert!(report.render().contains("bdd:"), "{}", report.render());
    }

    #[test]
    fn answer_dist_bdd_path_matches_enumeration() {
        use ipdb_logic::{Condition, VarGen};
        use ipdb_prob::{rat, FiniteSpace, PcTable};
        use ipdb_rel::{tuple, Value};
        use ipdb_tables::{t_const, t_var, CTable};

        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let t = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .row([t_const(9)], Condition::eq_vv(x, y))
            .build()
            .unwrap();
        let uniform =
            |n: i64| FiniteSpace::new((0..n).map(|i| (Value::from(i), rat!(1, n)))).unwrap();
        let pc = PcTable::new(t, [(x, uniform(3)), (y, uniform(3))]).unwrap();
        let stmt = Engine::new()
            .prepare_text("sigma[#0!=1](V union {(9)})", 1)
            .unwrap();
        let bdd = stmt.answer_dist(&pc).unwrap();
        assert_eq!(bdd, stmt.answer_dist_enum(&pc).unwrap());
        // (9) is certain via the literal; (0) and (2) carry P[x=i] = 1/3.
        assert!(bdd.contains(&(tuple![9], rat!(1))));
        assert!(bdd.contains(&(tuple![0], rat!(1, 3))));
        // Arity mismatches are caught before any compilation.
        let stmt2 = Engine::new().prepare_text("V", 2).unwrap();
        assert!(matches!(
            stmt2.answer_dist(&pc),
            Err(EngineError::InputArityMismatch { .. })
        ));
    }
}
