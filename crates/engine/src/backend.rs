//! The execution backends: one planned query, three semantics — over
//! a named catalog of relations.
//!
//! [`Backend`] abstracts "something a [`Query`] can run against". The
//! three models the paper relates all implement it:
//!
//! * [`Instance`] — conventional evaluation (§2);
//! * [`CTable`] — the c-table algebra `q̄` of Theorem 4, whose operators
//!   build no row whose condition is `false`;
//! * [`PcTable`] — Theorem 9 closure: `q̄` on the underlying c-table
//!   with the variable distributions carried along.
//!
//! Each backend has exactly one evaluator, [`Backend::execute`], which
//! reads its leaves from a [`Catalog`] and reports each operator to a
//! [`TraceSink`]. For instances it is the columnar executor in
//! [`crate::morsel`]; the c-table and pc-table backends run the one
//! `q̄` evaluator, [`CTable::eval_in`], with the catalog as its lookup
//! (a pc-table leaf lends its underlying c-table). A catalog is the §2
//! footnote's "arbitrary relational schemas" made concrete: a
//! `name → relation` map
//! ([`Backend::run_catalog`] runs one). The reserved names `V`/`W` make the
//! classic one- and two-relation contexts ordinary catalogs
//! ([`Catalog::single`] binds a lone input to `V`), and a
//! pc-table catalog shares **one variable namespace** across all of its
//! relations — a variable appearing in two relations is the *same*
//! random variable (its distributions must agree,
//! [`ProbError::ConflictingDistribution`] otherwise), which is how
//! cross-relation correlation is expressed.
//!
//! Because every optimizer rewrite is a worldwise identity, a plan
//! prepared once executes on any backend with the same meaning — which
//! is the paper's uniformity claim made operational.
//!
//! [`ProbError::ConflictingDistribution`]: ipdb_prob::ProbError::ConflictingDistribution

use std::collections::BTreeMap;
use std::sync::Arc;

use ipdb_prob::{PcTable, Weight};
use ipdb_rel::{Instance, Query, RelError, Schema};
use ipdb_tables::CTable;

use crate::error::EngineError;
use crate::morsel::ExecConfig;
use crate::report::{NoTrace, TraceSink};

/// A named collection of relations of one backend type — the execution
/// input for queries over a multi-relation [`Schema`].
///
/// Names are arbitrary here; the planner is what enforces surface-
/// syntax validity on the names a *query* mentions. Inserting a name
/// twice replaces the previous relation (like a map).
///
/// Relations are `Arc`-shared: cloning a catalog copies the name map
/// but none of the relation data, which is what makes copy-on-write
/// snapshots ([`crate::serve::SnapshotCatalog`]) affordable, and
/// executors borrow leaves out of the `Arc`s instead of deep-cloning a
/// relation per query.
#[derive(Debug, PartialEq)]
pub struct Catalog<B> {
    rels: BTreeMap<String, Arc<B>>,
}

impl<B> Catalog<B> {
    /// An empty catalog.
    pub fn new() -> Catalog<B> {
        Catalog {
            rels: BTreeMap::new(),
        }
    }

    /// The classic one-input context `{V: rel}` — the catalog
    /// counterpart of [`Schema::single`].
    pub fn single(rel: B) -> Catalog<B> {
        [(Schema::INPUT, rel)].into_iter().collect()
    }

    /// Adds (or replaces) a relation; returns the displaced one, if any.
    pub fn insert(&mut self, name: impl Into<String>, rel: B) -> Option<Arc<B>> {
        self.rels.insert(name.into(), Arc::new(rel))
    }

    /// Removes a relation by name; returns it if it was present.
    pub fn remove(&mut self, name: &str) -> Option<Arc<B>> {
        self.rels.remove(name)
    }

    /// Looks up a relation by name.
    pub fn get(&self, name: &str) -> Option<&B> {
        self.rels.get(name).map(Arc::as_ref)
    }

    /// The relation a query leaf named `name` reads
    /// ([`RelError::missing_relation`] when it is absent, so a missing
    /// `W` still reports [`RelError::NoSecondInput`]).
    pub fn resolve(&self, name: &str) -> Result<&B, RelError> {
        self.get(name)
            .ok_or_else(|| RelError::missing_relation(name))
    }

    /// Looks up a relation's shared handle by name (clone it to keep
    /// the relation alive past the catalog).
    pub fn get_shared(&self, name: &str) -> Option<&Arc<B>> {
        self.rels.get(name)
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// Whether the catalog holds no relations.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Iterates over `(name, relation)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &B)> {
        self.rels.iter().map(|(n, b)| (n.as_str(), b.as_ref()))
    }

    /// The relation names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.rels.keys().map(String::as_str)
    }
}

/// Cloning shares every relation (an `Arc` bump per entry, no relation
/// data copied) — which is why no `B: Clone` bound is needed.
impl<B> Clone for Catalog<B> {
    fn clone(&self) -> Self {
        Catalog {
            rels: self.rels.clone(),
        }
    }
}

impl<B> Default for Catalog<B> {
    fn default() -> Self {
        Catalog::new()
    }
}

impl<N: Into<String>, B> FromIterator<(N, B)> for Catalog<B> {
    fn from_iter<I: IntoIterator<Item = (N, B)>>(iter: I) -> Self {
        Catalog {
            rels: iter
                .into_iter()
                .map(|(n, b)| (n.into(), Arc::new(b)))
                .collect(),
        }
    }
}

impl<B: Backend> Catalog<B> {
    /// The schema this catalog implements: every relation name mapped to
    /// its arity.
    pub fn schema(&self) -> Schema {
        Schema::new(self.iter().map(|(n, b)| (n, b.input_arity())))
            // ipdb-lint: allow(no-panic-on-serve-paths) reason="the names come from the catalog's BTreeMap keys, which are unique by construction — the only failure Schema::new checks for"
            .expect("catalog names are unique by construction")
    }
}

/// An input relation a planned query can execute against.
pub trait Backend: Sized {
    /// The result type (each semantics is closed: instances produce
    /// instances, c-tables produce c-tables, pc-tables produce
    /// pc-tables).
    type Output;

    /// Human-readable backend name, shown in `EXPLAIN ANALYZE` headers
    /// (`"instance"`, `"c-table"`, `"pc-table"`).
    const NAME: &'static str;

    /// Arity of this relation (checked against the prepared schema's
    /// declaration for its catalog name before execution).
    fn input_arity(&self) -> usize;

    /// Runs a planned query against `cat`, reporting every operator to
    /// `sink` ([`crate::report::NoTrace`] for plain execution). Backends
    /// without a parallel executor ignore `cfg`; the [`Instance`]
    /// backend routes it into the morsel executor.
    fn execute<S: TraceSink>(
        cat: &Catalog<Self>,
        q: &Query,
        cfg: &ExecConfig,
        sink: &mut S,
    ) -> Result<Self::Output, EngineError>;

    /// Runs a planned query against a named catalog with the
    /// environment's [`ExecConfig`] and no tracing.
    fn run_catalog(cat: &Catalog<Self>, q: &Query) -> Result<Self::Output, EngineError> {
        Self::execute(cat, q, &ExecConfig::from_env(), &mut NoTrace)
    }
}

impl Backend for Instance {
    type Output = Instance;

    const NAME: &'static str = "instance";

    fn input_arity(&self) -> usize {
        self.arity()
    }

    fn execute<S: TraceSink>(
        cat: &Catalog<Instance>,
        q: &Query,
        cfg: &ExecConfig,
        sink: &mut S,
    ) -> Result<Instance, EngineError> {
        // Columnar, morsel-parallel executor; bit-identical to
        // `Query::eval` at every thread count (see [`crate::morsel`]).
        crate::morsel::execute(cat, q, cfg, sink)
    }
}

impl Backend for CTable {
    type Output = CTable;

    const NAME: &'static str = "c-table";

    fn input_arity(&self) -> usize {
        self.arity()
    }

    fn execute<S: TraceSink>(
        cat: &Catalog<CTable>,
        q: &Query,
        _: &ExecConfig,
        sink: &mut S,
    ) -> Result<CTable, EngineError> {
        Ok(CTable::eval_in(&|name| cat.resolve(name), q, sink)?.into_owned())
    }
}

impl<W: Weight> Backend for PcTable<W> {
    type Output = PcTable<W>;

    const NAME: &'static str = "pc-table";

    fn input_arity(&self) -> usize {
        self.arity()
    }

    fn execute<S: TraceSink>(
        cat: &Catalog<PcTable<W>>,
        q: &Query,
        _: &ExecConfig,
        sink: &mut S,
    ) -> Result<PcTable<W>, EngineError> {
        // Theorem 9 closure via the c-table evaluator. All pc-relations
        // of a catalog live in one variable namespace: attach the union
        // of their distributions (conflict-checked across *all* shared
        // variables, cloned only for the survivors). Dropping the
        // variables the answer no longer mentions marginalizes them,
        // which is exactly the image-space semantics (see
        // `PcTable::eval_query`).
        let qt = CTable::eval_in(&|name| cat.resolve(name).map(PcTable::table), q, sink)?;
        let dists =
            PcTable::merged_dists_restricted(cat.rels.values().map(Arc::as_ref), &qt.vars())?;
        Ok(PcTable::new(qt.into_owned(), dists)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{OpReport, ReportSink};
    use ipdb_logic::{Condition, Valuation, VarGen};
    use ipdb_prob::{rat, FiniteSpace, ProbError, Rat};
    use ipdb_rel::{instance, tuple, Pred, Value};
    use ipdb_tables::{t_const, t_var};
    use std::borrow::Cow;

    fn run<B: Backend + Clone>(b: &B, q: &Query) -> Result<B::Output, EngineError> {
        B::execute(
            &Catalog::single(b.clone()),
            q,
            &ExecConfig::serial(),
            &mut NoTrace,
        )
    }

    fn run_analyzed<B: Backend>(
        cat: &Catalog<B>,
        q: &Query,
    ) -> Result<(B::Output, OpReport), EngineError> {
        let mut sink = ReportSink::default();
        let out = B::execute(cat, q, &ExecConfig::serial(), &mut sink)?;
        Ok((out, sink.finish()))
    }

    fn query() -> Query {
        // π₀(σ_{#0=#1}(V × V)) over arity-1 inputs.
        Query::project(
            Query::select(
                Query::product(Query::Input, Query::Input),
                Pred::eq_cols(0, 1),
            ),
            vec![0],
        )
    }

    #[test]
    fn instance_backend_matches_eval() {
        let i = instance![[1], [2]];
        assert_eq!(i.input_arity(), 1);
        assert_eq!(run(&i, &query()).unwrap(), query().eval(&i).unwrap());
    }

    #[test]
    fn ctable_backend_simplifies_conditions() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let t = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .row([t_const(3)], Condition::True)
            .build()
            .unwrap();
        let out = run(&t, &query()).unwrap();
        // Worldwise agreement with conventional evaluation.
        for val in [1i64, 3] {
            let nu = Valuation::from_iter([(x, Value::from(val))]);
            assert_eq!(
                out.apply_valuation(&nu).unwrap(),
                query().eval(&t.apply_valuation(&nu).unwrap()).unwrap()
            );
        }
        // And the composed conditions fold: the self-join of a row with
        // itself gets condition x=x ∧ …, which folds away.
        assert!(out
            .rows()
            .iter()
            .any(|r| r.tuple == vec![t_var(x)] && r.cond == Condition::True));
    }

    #[test]
    fn pctable_backend_carries_distributions() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let t = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .build()
            .unwrap();
        let dist =
            FiniteSpace::new([(Value::from(1), rat!(1, 2)), (Value::from(2), rat!(1, 2))]).unwrap();
        let pc = PcTable::new(t, [(x, dist)]).unwrap();
        let out = run(&pc, &query()).unwrap();
        assert_eq!(out.arity(), 1);
        let lhs = out.mod_space().unwrap();
        let rhs = pc.eval_query(&query()).unwrap().mod_space().unwrap();
        assert!(lhs.same_distribution(&rhs));
        assert_eq!(lhs.tuple_prob(&tuple![1]), Rat::new(1, 2));
    }

    #[test]
    fn pc_run_marginalizes_variables_of_pruned_rows() {
        // x survives; y appears only in the condition of a row whose
        // ground tuple fails the selection, so the executor drops the
        // row AND y's distribution. Dropping must equal
        // summing y out: the answer distribution has to match full
        // valuation enumeration over the *input* pc-table.
        let mut g = VarGen::new();
        let x = g.fresh();
        let y = g.fresh();
        let t = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .row([t_const(7)], Condition::eq(t_var(y), t_const(3)))
            .build()
            .unwrap();
        let dx =
            FiniteSpace::new([(Value::from(1), rat!(1, 2)), (Value::from(2), rat!(1, 2))]).unwrap();
        let dy =
            FiniteSpace::new([(Value::from(3), rat!(1, 4)), (Value::from(4), rat!(3, 4))]).unwrap();
        let pc = PcTable::new(t, [(x, dx), (y, dy)]).unwrap();
        let q = Query::select(Query::Input, Pred::neq_const(0, 7));
        let out = run(&pc, &q).unwrap();
        assert!(out.dists().contains_key(&x));
        assert!(
            !out.dists().contains_key(&y),
            "y's row was pruned, so its distribution must be marginalized out"
        );
        // Exactness oracle: enumerate every (x, y) valuation of the
        // input, apply the query worldwise, and compare distributions.
        let mut worlds = Vec::new();
        for (nu, w) in pc.valuation_space().unwrap() {
            let world = pc.table().apply_valuation(&nu).unwrap();
            worlds.push((q.eval(&world).unwrap(), w));
        }
        let oracle = FiniteSpace::new(worlds).unwrap();
        assert!(out.mod_space().unwrap().space().same_distribution(&oracle));
    }

    #[test]
    fn analyzed_run_matches_plain_and_counts_rows() {
        assert_eq!(Instance::NAME, "instance");
        assert_eq!(CTable::NAME, "c-table");
        assert_eq!(<PcTable<Rat> as Backend>::NAME, "pc-table");

        let i = instance![[1], [2]];
        let q = query();
        let (out, report) = run_analyzed(&Catalog::single(i.clone()), &q).unwrap();
        assert_eq!(out, run(&i, &q).unwrap());
        assert_eq!(report.label, "pi[0]");
        // pi → sigma → x → (V, V): five operators.
        assert_eq!(report.node_count(), 5);

        // c-table: V − {[2]} folds row [2]'s composed condition
        // (¬(2=2)) to false, so `diff_bar` does not build it: three rows
        // in, one out.
        let t = CTable::from_instance(&instance![[1], [2]]);
        let qd = Query::diff(Query::Input, Query::Lit(instance![[2]]));
        let (ct_out, ct_report) = run_analyzed(&Catalog::single(t.clone()), &qd).unwrap();
        assert_eq!(ct_out, run(&t, &qd).unwrap());
        assert_eq!(ct_report.label, "diff");
        assert_eq!(ct_report.rows_in, 3);
        assert_eq!(ct_report.rows_out, 1);
        assert_eq!(ct_report.total_exclusive_ns(), ct_report.ns);

        // pc-table: same answer table as the untraced Theorem 9 run,
        // distributions carried identically.
        let mut g = VarGen::new();
        let x = g.fresh();
        let ct = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .build()
            .unwrap();
        let dist =
            FiniteSpace::new([(Value::from(1), rat!(1, 2)), (Value::from(2), rat!(1, 2))]).unwrap();
        let pc = PcTable::new(ct, [(x, dist)]).unwrap();
        let (pc_out, pc_report) = run_analyzed(&Catalog::single(pc.clone()), &q).unwrap();
        let plain = run(&pc, &q).unwrap();
        assert_eq!(pc_out.table(), plain.table());
        assert_eq!(
            pc_out.dists().keys().collect::<Vec<_>>(),
            plain.dists().keys().collect::<Vec<_>>()
        );
        assert_eq!(pc_report.label, "pi[0]");

        // Catalog variants agree with their untraced twins too.
        let cat: Catalog<Instance> = [("R", instance![[1, 2], [3, 4]])].into_iter().collect();
        let qr = Query::select(Query::rel("R"), Pred::eq_cols(0, 0));
        let (cat_out, cat_report) = run_analyzed(&cat, &qr).unwrap();
        assert_eq!(cat_out, Instance::run_catalog(&cat, &qr).unwrap());
        assert_eq!(cat_report.children[0].label, "R");
    }

    #[test]
    fn rel_leaves_borrow_the_catalog_relation() {
        // A `Rel` leaf resolves to the catalog's own `Arc`-shared
        // relation, never a per-query copy, through the same lookups the
        // c-table and pc-table backends pass to `CTable::eval_in`.
        let t = CTable::from_instance(&instance![[1, 2], [3, 4]]);
        let leaf = Query::rel("R");
        let ct: Catalog<CTable> = [("R", t.clone())].into_iter().collect();
        let out = CTable::eval_in(&|name| ct.resolve(name), &leaf, &mut NoTrace).unwrap();
        assert!(
            matches!(out, Cow::Borrowed(got) if std::ptr::eq(got, ct.get("R").unwrap())),
            "c-table leaf was copied"
        );
        let pc: Catalog<PcTable<Rat>> = [("R", PcTable::new(t, []).unwrap())].into_iter().collect();
        let out = CTable::eval_in(
            &|name| pc.resolve(name).map(PcTable::table),
            &leaf,
            &mut NoTrace,
        )
        .unwrap();
        assert!(
            matches!(out, Cow::Borrowed(got) if std::ptr::eq(got, pc.get("R").unwrap().table())),
            "pc-table leaf was copied"
        );
    }

    #[test]
    fn catalog_basics_and_schema() {
        let mut cat: Catalog<Instance> = Catalog::default();
        assert!(cat.is_empty());
        cat.insert("R", instance![[1, 2]]);
        cat.insert("S", instance![[2]]);
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.get("R").unwrap().arity(), 2);
        assert!(cat.get("T").is_none());
        assert_eq!(cat.names().collect::<Vec<_>>(), vec!["R", "S"]);
        let schema = cat.schema();
        assert_eq!(schema.arity_of("R"), Some(2));
        assert_eq!(schema.arity_of("S"), Some(1));
        // `single` mirrors `Schema::single`: the input bound to `V`.
        assert_eq!(Catalog::single(instance![[1]]).schema(), Schema::single(1));
        // FromIterator builds the same catalog.
        let cat2: Catalog<Instance> = [("R", instance![[1, 2]]), ("S", instance![[2]])]
            .into_iter()
            .collect();
        assert_eq!(cat, cat2);
    }

    #[test]
    fn instance_catalog_executes_named_queries() {
        let cat: Catalog<Instance> = [
            ("R", instance![[1, 2], [3, 4]]),
            ("S", instance![[2, 9], [7, 7]]),
        ]
        .into_iter()
        .collect();
        let q = Query::join(Query::rel("R"), Query::rel("S"), [(1, 2)], None);
        assert_eq!(
            Instance::run_catalog(&cat, &q).unwrap(),
            instance![[1, 2, 2, 9]]
        );
        // Missing relations error gracefully.
        let bad = Query::rel("T");
        assert_eq!(
            Instance::run_catalog(&cat, &bad),
            Err(EngineError::Rel(RelError::UnknownRelation {
                name: "T".into()
            }))
        );
        // `V` lookups against a V-less catalog are unknown relations; a
        // missing `W` keeps its classic error.
        assert!(matches!(
            Instance::run_catalog(&cat, &Query::Input),
            Err(EngineError::Rel(RelError::UnknownRelation { .. }))
        ));
        assert_eq!(
            Instance::run_catalog(&cat, &Query::Second),
            Err(EngineError::Rel(RelError::NoSecondInput))
        );
    }

    #[test]
    fn ctable_catalog_agrees_with_per_world_eval() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let r = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .build()
            .unwrap();
        let s = CTable::builder(1)
            .row([t_const(1)], Condition::neq_vc(x, 2))
            .build()
            .unwrap();
        let cat: Catalog<CTable> = [("R", r.clone()), ("S", s.clone())].into_iter().collect();
        // R ∩ S mixes conditions across the two relations — the shared
        // variable namespace at work.
        let q = Query::intersect(Query::rel("R"), Query::rel("S"));
        let out = CTable::run_catalog(&cat, &q).unwrap();
        for val in [1i64, 2, 3] {
            let nu = Valuation::from_iter([(x, Value::from(val))]);
            let world_r = r.apply_valuation(&nu).unwrap();
            let world_s = s.apply_valuation(&nu).unwrap();
            assert_eq!(
                out.apply_valuation(&nu).unwrap(),
                world_r.intersect(&world_s).unwrap(),
                "valuation x={val}"
            );
        }
    }

    #[test]
    fn pctable_catalog_shares_the_variable_namespace() {
        // x appears in both relations with the *same* distribution: the
        // catalog treats it as one random variable, so R ∩ S is
        // perfectly correlated, not independent.
        let mut g = VarGen::new();
        let x = g.fresh();
        let dist = || {
            FiniteSpace::new([(Value::from(1), rat!(1, 4)), (Value::from(2), rat!(3, 4))]).unwrap()
        };
        let r = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .build()
            .unwrap();
        let s = CTable::builder(1)
            .row([t_const(1)], Condition::eq_vc(x, 1))
            .build()
            .unwrap();
        let cat: Catalog<PcTable<Rat>> = [
            ("R", PcTable::new(r, [(x, dist())]).unwrap()),
            ("S", PcTable::new(s, [(x, dist())]).unwrap()),
        ]
        .into_iter()
        .collect();
        let q = Query::intersect(Query::rel("R"), Query::rel("S"));
        let out = PcTable::run_catalog(&cat, &q).unwrap();
        let m = out.mod_space().unwrap();
        // P[{1}] = P[x=1] = 1/4 (fully correlated), not 1/16.
        assert_eq!(m.tuple_prob(&tuple![1]), rat!(1, 4));

        // Conflicting distributions for the shared variable are rejected.
        let s2 = CTable::builder(1)
            .row([t_const(1)], Condition::eq_vc(x, 1))
            .build()
            .unwrap();
        let half =
            FiniteSpace::new([(Value::from(1), rat!(1, 2)), (Value::from(2), rat!(1, 2))]).unwrap();
        let mut conflicted = cat.clone();
        conflicted.insert("S", PcTable::new(s2, [(x, half)]).unwrap());
        assert_eq!(
            PcTable::run_catalog(&conflicted, &q),
            Err(EngineError::Prob(ProbError::ConflictingDistribution(x)))
        );
    }
}
