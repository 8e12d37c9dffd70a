//! The front door: parse/check/optimize once, execute anywhere.
//!
//! [`Engine::prepare`] (or [`Engine::prepare_text`] for the surface
//! syntax) runs the first three pipeline stages — parse, check against
//! the schema, optimize — and returns a [`Prepared`] statement holding
//! both the naive and the optimized query. [`Prepared::explain`] shows
//! what the optimizer did. Multi-relation queries prepare against a named
//! [`Schema`] ([`Engine::prepare_schema`] /
//! [`Engine::prepare_text_schema`]).
//!
//! Every execution method takes a [`Catalog`] — a single input runs as
//! [`Catalog::single`], the `{V: input}` catalog — and is a short call
//! into the one evaluator of its [`Backend`] ([`Backend::execute`]): it
//! checks the catalog against the prepared schema, picks the optimized
//! or naive query, an [`ExecConfig`] and a trace sink. Plain methods
//! pass [`NoTrace`]; the `_analyzed` ones pass a [`ReportSink`] and
//! return a [`QueryReport`] (`EXPLAIN ANALYZE`; render it with
//! [`QueryReport::render`]). The `answer_dist_catalog*` methods add BDD
//! compilation or valuation enumeration after the pc-table closure.
//! The naive query stays reachable as a differential baseline through
//! [`Backend::run_catalog`] on [`Prepared::naive_query`].

use std::time::Instant;

use ipdb_prob::{PcTable, Weight};
use ipdb_rel::{Instance, Query, Schema, Tuple};

use crate::backend::{Backend, Catalog};
use crate::error::EngineError;
use crate::morsel::ExecConfig;
use crate::optimize::{check_and_optimize, OptimizeStats};
use crate::parser;
use crate::report::{render_tree, NoTrace, QueryReport, ReportSink, TraceSink};

/// The query pipeline: parse, check, optimize. Every [`Prepared`]
/// statement keeps its naive query too ([`Prepared::naive_query`]), so
/// there is nothing to configure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine;

impl Engine {
    /// The engine.
    pub fn new() -> Engine {
        Engine
    }

    /// Checks and optimizes a query for inputs of the given arity.
    pub fn prepare(&self, q: &Query, input_arity: usize) -> Result<Prepared, EngineError> {
        self.prepare_schema(q, &Schema::single(input_arity))
    }

    /// Checks and optimizes a query over an arbitrary named [`Schema`]
    /// (see [`mod@crate::optimize`] for what the check rejects).
    pub fn prepare_schema(&self, q: &Query, schema: &Schema) -> Result<Prepared, EngineError> {
        let (naive, output_arity, optimized, optimize_stats) = check_and_optimize(q, schema)?;
        Ok(Prepared {
            schema: schema.clone(),
            naive,
            optimized,
            output_arity,
            optimize_stats,
        })
    }

    /// Parses the surface syntax, then checks and optimizes.
    pub fn prepare_text(&self, src: &str, input_arity: usize) -> Result<Prepared, EngineError> {
        self.prepare(&parser::parse(src)?, input_arity)
    }

    /// Parses the surface syntax, then checks and optimizes over a named
    /// [`Schema`].
    pub fn prepare_text_schema(&self, src: &str, schema: &Schema) -> Result<Prepared, EngineError> {
        self.prepare_schema(&parser::parse(src)?, schema)
    }
}

/// A checked (and possibly optimized) query, ready to execute on any
/// backend's catalog implementing the prepared schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepared {
    schema: Schema,
    naive: Query,
    optimized: Query,
    output_arity: usize,
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

    /// The optimized query.
    pub fn query(&self) -> &Query {
        &self.optimized
    }

    /// The query as written, checked but not optimized (join key pairs
    /// normalized).
    pub fn naive_query(&self) -> &Query {
        &self.naive
    }

    /// Output arity of the statement.
    pub fn output_arity(&self) -> usize {
        self.output_arity
    }

    /// Before/after operator trees with each node's arity, for humans.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str("naive plan:\n");
        out.push_str(&render_tree(&self.naive, &self.schema));
        if self.optimized == self.naive {
            out.push_str("optimized plan: (unchanged)\n");
        } else {
            out.push_str("optimized plan:\n");
            out.push_str(&render_tree(&self.optimized, &self.schema));
        }
        out
    }

    /// Executes the optimized plan against a named catalog. The catalog
    /// must supply every relation the prepared schema declares, at the
    /// declared arity ([`EngineError::MissingRelation`] /
    /// [`EngineError::RelationArity`] otherwise).
    pub fn execute_catalog<B: Backend>(&self, cat: &Catalog<B>) -> Result<B::Output, EngineError> {
        self.execute_catalog_cfg(cat, &ExecConfig::from_env())
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
        self.run(cat, &self.optimized, cfg, &mut NoTrace)
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

    /// The full answer distribution over a pc-table **catalog** — every
    /// possible answer tuple with its exact probability — via the **BDD
    /// fast path**: the optimized plan runs through the c-table executor
    /// across all pc-relations (Thm 9 closure, one shared variable
    /// namespace — see [`Backend::execute`] for [`PcTable`]), then every
    /// answer tuple's presence condition is compiled under the
    /// finite-domain ladder encoding and weighted-model-counted with
    /// **one** `BddManager` shared across all answer tuples
    /// ([`PcTable::marginals_bdd`]). No walk over the §8 valuation
    /// product space.
    pub fn answer_dist_catalog<W: Weight>(
        &self,
        cat: &Catalog<PcTable<W>>,
    ) -> Result<Vec<(Tuple, W)>, EngineError> {
        Ok(self.execute_catalog(cat)?.marginals_bdd()?)
    }

    /// The same answer distribution by full valuation enumeration over
    /// the *naive* plan's result — exponential in the number of
    /// variables. Kept reachable as the differential oracle for
    /// [`Prepared::answer_dist_catalog`] (see `tests/prob_oracle.rs` and
    /// the enumeration-vs-BDD floors in `crates/bench/tests/floors.rs`).
    pub fn answer_dist_catalog_enum<W: Weight>(
        &self,
        cat: &Catalog<PcTable<W>>,
    ) -> Result<Vec<(Tuple, W)>, EngineError> {
        let cfg = ExecConfig::from_env();
        let answer = self.run(cat, &self.naive, &cfg, &mut NoTrace)?;
        Ok(answer.mod_space()?.marginals())
    }

    /// [`Prepared::execute_catalog_cfg`] with **`EXPLAIN ANALYZE`
    /// instrumentation**: the identical output, plus a [`QueryReport`]
    /// recording what every operator of the optimized plan did —
    /// cardinalities, selectivity, inclusive/exclusive timings and the
    /// hash join's build side, with whether its index was reused.
    pub fn execute_catalog_analyzed<B: Backend>(
        &self,
        cat: &Catalog<B>,
        cfg: &ExecConfig,
    ) -> Result<(B::Output, QueryReport), EngineError> {
        let t0 = Instant::now();
        let mut sink = ReportSink::default();
        let out = self.run(cat, &self.optimized, cfg, &mut sink)?;
        Ok((out, self.report::<B>(sink, t0)))
    }

    /// [`Prepared::answer_dist_catalog`] with `EXPLAIN ANALYZE`
    /// instrumentation: the identical distribution, plus a
    /// [`QueryReport`] whose operator tree covers the c-table execution
    /// and whose [`QueryReport::bdd`] reports the shared
    /// `BddManager`'s counters from the WMC phase (node allocations,
    /// unique-table and apply-cache hit rates, WMC call count).
    pub fn answer_dist_catalog_analyzed<W: Weight>(
        &self,
        cat: &Catalog<PcTable<W>>,
    ) -> Result<(Vec<(Tuple, W)>, QueryReport), EngineError> {
        let t0 = Instant::now();
        let mut sink = ReportSink::default();
        let cfg = ExecConfig::from_env();
        let answer = self.run(cat, &self.optimized, &cfg, &mut sink)?;
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

    /// The one execution path: checks `cat` against the prepared schema,
    /// then runs `q` through the backend's evaluator.
    fn run<B: Backend, S: TraceSink>(
        &self,
        cat: &Catalog<B>,
        q: &Query,
        cfg: &ExecConfig,
        sink: &mut S,
    ) -> Result<B::Output, EngineError> {
        self.check_catalog(cat)?;
        B::execute(cat, q, cfg, sink)
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
    use ipdb_rel::{instance, Instance, RelError};

    #[test]
    fn prepare_text_and_execute() {
        let engine = Engine::new();
        let stmt = engine
            .prepare_text("pi[1](sigma[and(#0=1,#1=#3)](V x V))", 2)
            .unwrap();
        assert_eq!(stmt.input_arity(), Some(2));
        assert_eq!(stmt.output_arity(), 1);
        let cat = Catalog::single(instance![[1, 10], [2, 10], [2, 20]]);
        let out = stmt.execute_catalog(&cat).unwrap();
        assert_eq!(out, instance![[10]]);
        assert_eq!(
            out,
            Instance::run_catalog(&cat, stmt.naive_query()).unwrap()
        );
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
        // The fused query is strictly shallower.
        assert!(stmt.query().depth() < stmt.naive_query().depth());
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
        assert!(!format!("{:?}", stmt.query()).contains("Product"));
        let cat = Catalog::single(instance![[1, 10], [2, 20], [1, 30]]);
        let out = stmt.execute_catalog(&cat).unwrap();
        assert_eq!(
            out,
            Instance::run_catalog(&cat, stmt.naive_query()).unwrap()
        );
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn explain_tree_shows_arities() {
        // A join, a literal and a selection: every node carries its
        // arity, a literal also its row count.
        let stmt = Engine::new()
            .prepare_text("sigma[#0=1](join[#1=#2](V, {(1),(2)}))", 2)
            .unwrap();
        assert_eq!(
            stmt.explain(),
            "\
naive plan:
sigma[#0=1]  (arity 3)
  join[#1=#2]  (arity 3)
    V  (arity 2)
    lit {(1), (2)}  (arity 1, 2 rows)
optimized plan:
join[#1=#2]  (arity 3)
  sigma[#0=1]  (arity 2)
    V  (arity 2)
  lit {(1), (2)}  (arity 1, 2 rows)
"
        );
    }

    #[test]
    fn join_renders_in_explain_tree() {
        let stmt = Engine::new()
            .prepare_text("join[#1=#2; #0!=3](V, V)", 2)
            .unwrap();
        assert!(
            stmt.explain()
                .starts_with("naive plan:\njoin[#1=#2; #0!=3]  (arity 4)\n"),
            "got:\n{}",
            stmt.explain()
        );
        let bare = Engine::new()
            .prepare_text("join[#0=#2,#1=#3](V, V)", 2)
            .unwrap();
        assert_eq!(
            bare.explain(),
            "\
naive plan:
join[#0=#2,#1=#3]  (arity 4)
  V  (arity 2)
  V  (arity 2)
optimized plan: (unchanged)
"
        );
    }

    #[test]
    fn explain_notes_unchanged_plans() {
        let stmt = Engine::new().prepare_text("V", 2).unwrap();
        assert!(stmt.explain().contains("(unchanged)"));
    }

    /// The one input check, on one backend: `narrow` is an arity-1
    /// relation, run as the `{V}` catalog.
    fn check_single_input<B: Backend>(narrow: B)
    where
        B::Output: std::fmt::Debug,
    {
        let cat = Catalog::single(narrow);
        let wide = Engine::new().prepare_text("V", 2).unwrap();
        assert_eq!(
            wide.execute_catalog(&cat).unwrap_err(),
            EngineError::RelationArity {
                name: "V".into(),
                expected: 2,
                got: 1
            }
        );
        let named = Engine::new()
            .prepare_text_schema("R x S", &Schema::new([("R", 1), ("S", 1)]).unwrap())
            .unwrap();
        assert_eq!(
            named.execute_catalog(&cat).unwrap_err(),
            EngineError::MissingRelation { name: "R".into() }
        );
        // Every backend reports a missing relation the same way.
        assert_eq!(
            B::run_catalog(&cat, &Query::Second).unwrap_err(),
            EngineError::Rel(RelError::NoSecondInput)
        );
    }

    #[test]
    fn arity_mismatch_is_rejected_at_execute() {
        use ipdb_prob::{PcTable, Rat};
        use ipdb_tables::CTable;

        let narrow = instance![[1]];
        let ct = CTable::from_instance(&narrow);
        check_single_input(PcTable::<Rat>::new(ct.clone(), []).unwrap());
        check_single_input(ct);
        check_single_input(narrow);
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
        // not a fake arity 0) and a lone input errors gracefully.
        assert_eq!(stmt.input_arity(), None);
        // ... whereas a genuinely declared nullary `V` is `Some(0)`.
        let nullary = Engine::new()
            .prepare_schema(&Query::Input, &Schema::single(0))
            .unwrap();
        assert_eq!(nullary.input_arity(), Some(0));
        assert_eq!(
            stmt.execute_catalog(&Catalog::single(instance![[1, 2]])),
            Err(EngineError::MissingRelation { name: "R".into() })
        );

        let cat: Catalog<Instance> = [
            ("R", instance![[1, 2], [5, 6]]),
            ("S", instance![[1, 9], [6, 0]]),
        ]
        .into_iter()
        .collect();
        let out = stmt.execute_catalog(&cat).unwrap();
        assert_eq!(out, instance![[1, 2, 1, 9]]);
        assert_eq!(
            out,
            Instance::run_catalog(&cat, stmt.naive_query()).unwrap()
        );

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
        let cat = Catalog::single(i.clone());
        assert_eq!(cat, [("V", i.clone())].into_iter().collect());
        assert_eq!(
            stmt.execute_catalog(&cat).unwrap(),
            stmt.query().eval(&i).unwrap()
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
        let cat = Catalog::single(pc);
        let stmt = Engine::new().prepare_text("sigma[#0!=1](V)", 1).unwrap();
        assert_eq!(
            stmt.answer_dist_catalog(&cat),
            Err(EngineError::Prob(ProbError::Overflow))
        );
        assert_eq!(
            stmt.answer_dist_catalog_enum(&cat),
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
        let cat = Catalog::single(instance![[1, 10], [2, 10], [2, 20]]);
        let (out, report) = stmt
            .execute_catalog_analyzed(&cat, &ExecConfig::from_env())
            .unwrap();
        assert_eq!(out, stmt.execute_catalog(&cat).unwrap());
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
        let narrow = Catalog::single(Instance::empty(1));
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
        assert_eq!(report.root.build.map(|b| b.left), Some(true));
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
        let cat: Catalog<PcTable<Rat>> = Catalog::single(pc);
        let (dist, report) = stmt.answer_dist_catalog_analyzed(&cat).unwrap();
        assert_eq!(dist, stmt.answer_dist_catalog(&cat).unwrap());
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
        let cat = Catalog::single(PcTable::new(t, [(x, uniform(3)), (y, uniform(3))]).unwrap());
        let stmt = Engine::new()
            .prepare_text("sigma[#0!=1](V union {(9)})", 1)
            .unwrap();
        let bdd = stmt.answer_dist_catalog(&cat).unwrap();
        assert_eq!(bdd, stmt.answer_dist_catalog_enum(&cat).unwrap());
        // (9) is certain via the literal; (0) and (2) carry P[x=i] = 1/3.
        assert!(bdd.contains(&(tuple![9], rat!(1))));
        assert!(bdd.contains(&(tuple![0], rat!(1, 3))));
        // Arity mismatches are caught before any compilation.
        let stmt2 = Engine::new().prepare_text("V", 2).unwrap();
        assert!(matches!(
            stmt2.answer_dist_catalog(&cat),
            Err(EngineError::RelationArity { .. })
        ));
    }
}
