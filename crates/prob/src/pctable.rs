//! Probabilistic c-tables (paper Definition 13) — the paper's new model.
//!
//! A pc-table is a c-table together with a finite probability space
//! `dom(x)` for each variable. The semantics (§8) is the image of the
//! product space `V = Π_x dom(x)` — whose outcomes "are in fact the
//! valuations for the c-table T!" — under `g(ν) = ν(T)`.
//!
//! Closure (Thm 9): `q(Mod(T))` *as a distribution* equals
//! `Mod(q̄(T))` with the same variable distributions — the same c-table
//! algebra of Theorem 4 does all the work. [`PcTable::eval_query`]
//! implements it; the equality is property-tested.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ipdb_bdd::{BddManager, BddStats, Weight};
use ipdb_logic::{Condition, Valuation, Var};
use ipdb_rel::{Domain, Query, Tuple, Value};
use ipdb_tables::{BooleanCTable, CTable};

use crate::answering::{bdd_ctx, candidate_tuples, presence_condition, prob_of_condition};
use crate::error::ProbError;
use crate::pdb::PDatabase;
use crate::space::FiniteSpace;

/// A probabilistic c-table: a c-table whose variables carry independent
/// finite distributions.
///
/// ```
/// use ipdb_logic::{Condition, Var, VarGen};
/// use ipdb_prob::{rat, FiniteSpace, PcTable, Rat};
/// use ipdb_rel::Value;
/// use ipdb_tables::{t_const, t_var, CTable};
///
/// // One row (x) with x uniform on {1, 2}.
/// let mut g = VarGen::new();
/// let x = g.fresh();
/// let t = CTable::builder(1).row([t_var(x)], Condition::True).build().unwrap();
/// let dist = FiniteSpace::new([
///     (Value::from(1), rat!(1, 2)),
///     (Value::from(2), rat!(1, 2)),
/// ]).unwrap();
/// let pc = PcTable::new(t, [(x, dist)]).unwrap();
/// let m = pc.mod_space().unwrap();
/// assert_eq!(m.tuple_prob(&ipdb_rel::tuple![1]), rat!(1, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PcTable<W> {
    table: CTable,
    dists: BTreeMap<Var, FiniteSpace<Value, W>>,
}

/// A variable-to-distribution assignment, in the list form accepted by
/// [`PcTable::new`] and produced by the `dists_restricted` family.
pub type VarDists<W> = Vec<(Var, FiniteSpace<Value, W>)>;

impl<W: Weight> PcTable<W> {
    /// Builds a pc-table: every variable of `table` must have a
    /// distribution; the table's finite domains are synchronized to the
    /// distributions' supports.
    pub fn new(
        table: CTable,
        dists: impl IntoIterator<Item = (Var, FiniteSpace<Value, W>)>,
    ) -> Result<Self, ProbError> {
        let dists: BTreeMap<Var, FiniteSpace<Value, W>> = dists.into_iter().collect();
        let mut table = table;
        for v in table.vars() {
            let d = dists.get(&v).ok_or(ProbError::MissingDistribution(v))?;
            if d.is_empty() {
                return Err(ProbError::EmptyDistribution);
            }
            let support = Domain::new(d.iter().map(|(val, _)| val.clone()));
            table.set_domain(v, support)?;
        }
        Ok(PcTable { table, dists })
    }

    /// The underlying c-table (domains = distribution supports).
    pub fn table(&self) -> &CTable {
        &self.table
    }

    /// The per-variable distributions.
    pub fn dists(&self) -> &BTreeMap<Var, FiniteSpace<Value, W>> {
        &self.dists
    }

    /// Table arity.
    pub fn arity(&self) -> usize {
        self.table.arity()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The product space of valuations `V = Π_x dom(x)` (§8), as
    /// `(valuation, probability)` pairs. Probability products go through
    /// the checked [`Weight`] multiplication, so adversarial exact
    /// weights report [`ProbError::Overflow`] instead of panicking.
    pub fn valuation_space(&self) -> Result<Vec<(Valuation, W)>, ProbError> {
        let vars: Vec<Var> = self.table.vars().into_iter().collect();
        let mut acc: Vec<(Valuation, W)> = vec![(Valuation::new(), W::one())];
        for v in vars {
            let dist = &self.dists[&v];
            let mut next = Vec::with_capacity(acc.len() * dist.len());
            for (nu, w) in &acc {
                for (val, p) in dist.iter() {
                    let mut nu2 = nu.clone();
                    nu2.bind(v, val.clone());
                    next.push((nu2, w.checked_mul(p).ok_or(ProbError::Overflow)?));
                }
            }
            acc = next;
        }
        Ok(acc)
    }

    /// **Def. 13 semantics**: `Mod(T)` = image of the valuation space
    /// under `g(ν) = ν(T)`.
    pub fn mod_space(&self) -> Result<PDatabase<W>, ProbError> {
        let mut outcomes = Vec::new();
        for (nu, w) in self.valuation_space()? {
            outcomes.push((self.table.apply_valuation(&nu)?, w));
        }
        Ok(PDatabase::from_space(
            self.arity(),
            FiniteSpace::new_unnormalized(outcomes)?,
        ))
    }

    /// The union of several pc-tables' variable distributions — the
    /// shared-namespace contract of catalog execution: a variable
    /// appearing in more than one relation is *one* random variable, so
    /// its distributions must coincide exactly
    /// ([`ProbError::ConflictingDistribution`] otherwise).
    pub fn merged_dists<'a>(
        tables: impl IntoIterator<Item = &'a PcTable<W>>,
    ) -> Result<BTreeMap<Var, FiniteSpace<Value, W>>, ProbError>
    where
        W: 'a,
    {
        let mut out: BTreeMap<Var, FiniteSpace<Value, W>> = BTreeMap::new();
        for t in tables {
            for (v, d) in &t.dists {
                match out.get(v) {
                    None => {
                        out.insert(*v, d.clone());
                    }
                    Some(existing) if existing == d => {}
                    Some(_) => return Err(ProbError::ConflictingDistribution(*v)),
                }
            }
        }
        Ok(out)
    }

    /// The distributions restricted to `keep ∩ dom(dists)` — the
    /// marginalization step of the Theorem 9 closure. A variable absent
    /// from the answered table is independent of every surviving
    /// condition, so dropping its distribution integrates it out
    /// exactly; a variable a selection pruned away *with its row* is
    /// dropped for the same reason (pinned by the `marginalization_*`
    /// regression tests). Walks the smaller of the two sets and clones
    /// only the kept distributions.
    pub fn dists_restricted(&self, keep: &BTreeSet<Var>) -> VarDists<W> {
        if keep.len() <= self.dists.len() {
            keep.iter()
                .filter_map(|v| self.dists.get(v).map(|d| (*v, d.clone())))
                .collect()
        } else {
            self.dists
                .iter()
                .filter(|(v, _)| keep.contains(v))
                .map(|(v, d)| (*v, d.clone()))
                .collect()
        }
    }

    /// [`PcTable::merged_dists`] restricted to `keep`: the conflict
    /// check still covers **every** variable shared between tables (two
    /// relations disagreeing on a marginalized-out variable is still an
    /// inconsistent catalog), but distributions are compared by
    /// reference and only the kept ones are cloned.
    pub fn merged_dists_restricted<'a>(
        tables: impl IntoIterator<Item = &'a PcTable<W>>,
        keep: &BTreeSet<Var>,
    ) -> Result<VarDists<W>, ProbError>
    where
        W: 'a,
    {
        let mut seen: BTreeMap<Var, &'a FiniteSpace<Value, W>> = BTreeMap::new();
        for t in tables {
            for (v, d) in &t.dists {
                match seen.get(v) {
                    None => {
                        seen.insert(*v, d);
                    }
                    Some(existing) if *existing == d => {}
                    Some(_) => return Err(ProbError::ConflictingDistribution(*v)),
                }
            }
        }
        Ok(seen
            .into_iter()
            .filter(|(v, _)| keep.contains(v))
            .map(|(v, d)| (v, d.clone()))
            .collect())
    }

    /// **Theorem 9** (closure): `q̄(T)` with the variable distributions
    /// carried along (restricted to the surviving variables — dropping an
    /// independent variable marginalizes it, which is exactly the image-
    /// space semantics).
    pub fn eval_query(&self, q: &Query) -> Result<PcTable<W>, ProbError> {
        let qt = self.table.eval_query(q)?;
        let dists = self.dists_restricted(&qt.vars());
        PcTable::new(qt, dists)
    }

    /// `P[t ∈ I]` by full world enumeration — the oracle for
    /// [`PcTable::tuple_prob_bdd`].
    pub fn tuple_prob_enum(&self, t: &Tuple) -> Result<W, ProbError> {
        Ok(self.mod_space()?.tuple_prob(t))
    }

    /// `P[t ∈ I]` via BDD + weighted model counting: the probability of
    /// `t`'s presence condition ([`prob_of_condition`]), which encodes
    /// only the variables that condition mentions — no walk over the §8
    /// valuation product space. Exponential only in the worst-case BDD
    /// size, not unconditionally in the number of variables like
    /// [`PcTable::tuple_prob_enum`].
    pub fn tuple_prob_bdd(&self, t: &Tuple) -> Result<W, ProbError> {
        prob_of_condition(&presence_condition(&self.table, t), &self.dists)
    }

    /// The per-tuple marginal distribution of the table itself — every
    /// possible tuple with its probability, computed by BDD + WMC with
    /// **one manager shared across all answer tuples** (hash-consing and
    /// the apply cache make later tuples' compilations reuse earlier
    /// ones). Only the table's own variables are encoded, so the cost
    /// scales with the (answered) table, not with how many variables the
    /// input carried.
    pub fn marginals_bdd(&self) -> Result<Vec<(Tuple, W)>, ProbError> {
        self.marginals_bdd_traced().map(|(out, _)| out)
    }

    /// [`PcTable::marginals_bdd`] with the shared manager's lifetime
    /// counters ([`BddStats`]) returned alongside the distribution —
    /// how the engine's `answer_dist_catalog_analyzed` reports unique-table and
    /// apply-cache behavior. The distribution is computed identically
    /// (same manager, same compilation order).
    pub fn marginals_bdd_traced(&self) -> Result<(Vec<(Tuple, W)>, BddStats), ProbError> {
        let (enc, bw) = bdd_ctx(&self.table.vars(), &self.dists)?;
        let mut mgr = BddManager::new();
        let mut out = Vec::new();
        for t in candidate_tuples(self)? {
            let cond = presence_condition(&self.table, &t);
            let f = enc.compile(&mut mgr, &cond)?;
            let p = mgr.wmc(f, &bw)?;
            if !p.is_zero() {
                out.push((t, p));
            }
        }
        Ok((out, mgr.stats()))
    }

    /// The full answer distribution of `q` — every possible answer tuple
    /// with its exact probability — via the Thm 9 closure followed by
    /// BDD + WMC on the answered table ([`PcTable::marginals_bdd`]).
    ///
    /// This is the fast path for the §8 question; it agrees exactly with
    /// valuation enumeration ([`PcTable::answer_dist_enum`], property-
    /// tested in `ipdb-engine`'s `prob_oracle` suite) while touching the
    /// valuation space only through the conditions' BDDs.
    ///
    /// ```
    /// use ipdb_logic::{Condition, VarGen};
    /// use ipdb_prob::{rat, FiniteSpace, PcTable, Rat};
    /// use ipdb_rel::{tuple, Query, Value};
    /// use ipdb_tables::{t_const, t_var, CTable};
    ///
    /// // The paper's §1/§8 running example: Alice takes course x with
    /// // x ~ {math: .3, phys: .3, chem: .4}; Bob takes x if x ∈ {phys,
    /// // chem}; Theo takes math iff t = 1, with P[t = 1] = .85.
    /// let mut g = VarGen::new();
    /// let (x, t) = (g.fresh(), g.fresh());
    /// let table = CTable::builder(2)
    ///     .row([t_const("Alice"), t_var(x)], Condition::True)
    ///     .row(
    ///         [t_const("Bob"), t_var(x)],
    ///         Condition::or([Condition::eq_vc(x, "phys"), Condition::eq_vc(x, "chem")]),
    ///     )
    ///     .row([t_const("Theo"), t_const("math")], Condition::eq_vc(t, 1))
    ///     .build()
    ///     .unwrap();
    /// let pc = PcTable::new(table, [
    ///     (x, FiniteSpace::new([
    ///         (Value::from("math"), rat!(3, 10)),
    ///         (Value::from("phys"), rat!(3, 10)),
    ///         (Value::from("chem"), rat!(4, 10)),
    ///     ]).unwrap()),
    ///     (t, FiniteSpace::new([
    ///         (Value::from(0), rat!(15, 100)),
    ///         (Value::from(1), rat!(85, 100)),
    ///     ]).unwrap()),
    /// ]).unwrap();
    ///
    /// // §8 asks for the probabilities of tuples in query answers; the
    /// // BDD path computes them by weighted model counting.
    /// let dist = pc.answer_dist_bdd(&Query::Input).unwrap();
    /// assert!(dist.contains(&(tuple!["Theo", "math"], rat!(85, 100))));
    /// assert!(dist.contains(&(tuple!["Bob", "chem"], rat!(4, 10))));
    /// // And it matches the Def. 13 enumeration semantics exactly.
    /// assert_eq!(dist, pc.answer_dist_enum(&Query::Input).unwrap());
    /// ```
    pub fn answer_dist_bdd(&self, q: &Query) -> Result<Vec<(Tuple, W)>, ProbError> {
        self.eval_query(q)?.marginals_bdd()
    }

    /// The same answer distribution by full valuation enumeration
    /// (`Mod` of the answered table) — the §8 baseline, kept as the
    /// differential oracle for [`PcTable::answer_dist_bdd`].
    pub fn answer_dist_enum(&self, q: &Query) -> Result<Vec<(Tuple, W)>, ProbError> {
        Ok(self.eval_query(q)?.mod_space()?.marginals())
    }
}

impl<W: fmt::Debug> fmt::Display for PcTable<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc-{}", self.table)?;
        for (v, d) in &self.dists {
            write!(f, "  {v} ~ {{")?;
            for (i, (val, p)) in d.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{val}: {p:?}")?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

/// A boolean pc-table (§8): ground tuples, boolean conditions, Bernoulli
/// variables. The *complete* probabilistic representation system of
/// Theorem 8. It is answered like any pc-table, through
/// [`BooleanPcTable::as_pctable`].
#[derive(Debug, Clone, PartialEq)]
pub struct BooleanPcTable<W> {
    inner: PcTable<W>,
}

impl<W: Weight> BooleanPcTable<W> {
    /// Builds from a boolean c-table plus `P[x = true]` per variable.
    pub fn new(
        table: BooleanCTable,
        probs: impl IntoIterator<Item = (Var, W)>,
    ) -> Result<Self, ProbError> {
        let dists = probs
            .into_iter()
            .map(|(v, p)| {
                FiniteSpace::bernoulli(Value::Bool(true), Value::Bool(false), p).map(|d| (v, d))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let inner = PcTable::new(table.into_ctable(), dists)?;
        Ok(BooleanPcTable { inner })
    }

    /// Validates a general pc-table as boolean.
    pub fn from_pctable(pc: PcTable<W>) -> Result<Self, ProbError> {
        // Re-validate through BooleanCTable.
        let _check = BooleanCTable::from_ctable(pc.table.clone())?;
        Ok(BooleanPcTable { inner: pc })
    }

    /// The underlying pc-table.
    pub fn as_pctable(&self) -> &PcTable<W> {
        &self.inner
    }

    /// Consumes the wrapper.
    pub fn into_pctable(self) -> PcTable<W> {
        self.inner
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.inner.arity()
    }

    /// `P[x = true]` per variable, in ascending variable order.
    pub fn true_probs(&self) -> Vec<(Var, W)> {
        self.inner
            .dists
            .iter()
            .map(|(v, d)| (*v, d.prob(&Value::Bool(true))))
            .collect()
    }

    /// Row conditions (all boolean).
    pub fn conditions(&self) -> impl Iterator<Item = &Condition> {
        self.inner.table.rows().iter().map(|r| &r.cond)
    }

    /// Def. 13 semantics, inherited.
    pub fn mod_space(&self) -> Result<PDatabase<W>, ProbError> {
        self.inner.mod_space()
    }

    /// Thm 9 closure, inherited. The result of `q̄` on a boolean pc-table
    /// is still a pc-table but not necessarily *boolean* (selections can
    /// introduce constant comparisons), so this returns the general form.
    pub fn eval_query(&self, q: &Query) -> Result<PcTable<W>, ProbError> {
        self.inner.eval_query(q)
    }
}

impl<W: fmt::Debug> fmt::Display for BooleanPcTable<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "boolean {}", self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat;
    use crate::rat::Rat;
    use ipdb_logic::VarGen;
    use ipdb_rel::{instance, tuple, Pred};
    use ipdb_tables::{t_const, t_var};

    /// The running example from §1: Alice's course x ~ {math: .3,
    /// phys: .3, chem: .4}; Bob takes x if x ∈ {phys, chem}; Theo takes
    /// math iff t = 1 with P[t=1] = .85.
    fn running_example() -> PcTable<Rat> {
        let mut g = VarGen::new();
        let x = g.fresh();
        let t = g.fresh();
        let table = CTable::builder(2)
            .row([t_const("Alice"), t_var(x)], Condition::True)
            .row(
                [t_const("Bob"), t_var(x)],
                Condition::or([Condition::eq_vc(x, "phys"), Condition::eq_vc(x, "chem")]),
            )
            .row([t_const("Theo"), t_const("math")], Condition::eq_vc(t, 1))
            .build()
            .unwrap();
        let x_dist = FiniteSpace::new([
            (Value::from("math"), rat!(3, 10)),
            (Value::from("phys"), rat!(3, 10)),
            (Value::from("chem"), rat!(4, 10)),
        ])
        .unwrap();
        let t_dist = FiniteSpace::new([
            (Value::from(0), rat!(15, 100)),
            (Value::from(1), rat!(85, 100)),
        ])
        .unwrap();
        PcTable::new(table, [(x, x_dist), (t, t_dist)]).unwrap()
    }

    #[test]
    fn missing_distribution_rejected() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let t = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .build()
            .unwrap();
        assert_eq!(
            PcTable::<Rat>::new(t, []).unwrap_err(),
            ProbError::MissingDistribution(x)
        );
    }

    #[test]
    fn running_example_worlds() {
        let pc = running_example();
        let m = pc.mod_space().unwrap();
        // x=math (0.3) ∧ t=1 (0.85): {Alice-math, Theo-math} : 0.255
        assert_eq!(
            m.world_prob(&instance![["Alice", "math"], ["Theo", "math"]]),
            rat!(255, 1000)
        );
        // x=phys (0.3) ∧ t=0 (0.15): {Alice-phys, Bob-phys} : 0.045
        assert_eq!(
            m.world_prob(&instance![["Alice", "phys"], ["Bob", "phys"]]),
            rat!(45, 1000)
        );
        assert_eq!(m.space().total_mass(), Rat::ONE);
    }

    #[test]
    fn running_example_marginals() {
        let pc = running_example();
        let m = pc.mod_space().unwrap();
        // P[Bob takes some course] = P[x ∈ {phys, chem}] = 0.7
        assert_eq!(
            m.space()
                .prob_of(|w| w.iter().any(|t| t[0] == Value::from("Bob"))),
            rat!(7, 10)
        );
        assert_eq!(m.tuple_prob(&tuple!["Theo", "math"]), rat!(85, 100));
        assert_eq!(m.tuple_prob(&tuple!["Alice", "chem"]), rat!(4, 10));
    }

    #[test]
    fn restricted_dists_marginalize_without_losing_conflicts() {
        let pc = running_example();
        let all: BTreeSet<Var> = pc.dists().keys().copied().collect();
        // keep = ∅ clones nothing; keep = dom(dists) clones everything.
        assert!(pc.dists_restricted(&BTreeSet::new()).is_empty());
        assert_eq!(pc.dists_restricted(&all).len(), pc.dists().len());
        // A keep-set larger than dom(dists) flips the walk direction and
        // silently ignores the unknown variables.
        let mut g = VarGen::new();
        let x = g.fresh();
        let mut big = all.clone();
        for _ in 0..8 {
            big.insert(g.fresh());
        }
        let from_small = pc.dists_restricted(&all);
        let from_big = pc.dists_restricted(&big);
        assert_eq!(from_small, from_big);

        // merged_dists_restricted: the conflict check covers variables
        // the keep-set drops — two relations disagreeing on a
        // marginalized-out variable is still an inconsistent catalog.
        let t = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .build()
            .unwrap();
        let d1 =
            FiniteSpace::new([(Value::from(1), rat!(1, 2)), (Value::from(2), rat!(1, 2))]).unwrap();
        let d2 =
            FiniteSpace::new([(Value::from(1), rat!(1, 4)), (Value::from(2), rat!(3, 4))]).unwrap();
        let a = PcTable::new(t.clone(), [(x, d1.clone())]).unwrap();
        let b = PcTable::new(t.clone(), [(x, d2)]).unwrap();
        assert_eq!(
            PcTable::merged_dists_restricted([&a, &b], &BTreeSet::new()).unwrap_err(),
            ProbError::ConflictingDistribution(x)
        );
        // Agreeing duplicates merge; restriction keeps only `keep`.
        let c = PcTable::new(t, [(x, d1.clone())]).unwrap();
        let keep: BTreeSet<Var> = [x].into_iter().collect();
        assert_eq!(
            PcTable::merged_dists_restricted([&a, &c], &keep).unwrap(),
            vec![(x, d1)]
        );
        assert!(PcTable::merged_dists_restricted([&a, &c], &BTreeSet::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn theorem9_closure_on_running_example() {
        let pc = running_example();
        // q: who takes the same course as Alice (and isn't Alice)?
        // π₁(σ_{2=4, 1≠'Alice'}(V × σ_{1='Alice'}(V)))
        let q = Query::project(
            Query::select(
                Query::product(
                    Query::Input,
                    Query::select(Query::Input, Pred::eq_const(0, "Alice")),
                ),
                Pred::and([Pred::eq_cols(1, 3), Pred::neq_const(0, "Alice")]),
            ),
            vec![0],
        );
        let lhs = pc.mod_space().unwrap().map_query(&q).unwrap();
        let rhs = pc.eval_query(&q).unwrap().mod_space().unwrap();
        assert!(lhs.same_distribution(&rhs));
        // And the answer is meaningful: Bob matches with prob 0.7.
        assert_eq!(rhs.tuple_prob(&tuple!["Bob"]), rat!(7, 10));
    }

    #[test]
    fn eval_query_drops_vanished_vars() {
        let pc = running_example();
        let q = Query::select(Query::Input, Pred::eq_const(0, "Theo"));
        let out = pc.eval_query(&q).unwrap();
        // Only t survives (Alice/Bob rows keep x though — their
        // conditions still mention it via selection on terms).
        assert!(out.dists().len() <= 2);
        let m = out.mod_space().unwrap();
        assert_eq!(m.tuple_prob(&tuple!["Theo", "math"]), rat!(85, 100));
    }

    #[test]
    fn boolean_pctable_validation_and_probs() {
        let (a, b) = (Var(0), Var(1));
        let mut bt = BooleanCTable::new(1);
        bt.push(tuple![1], Condition::bvar(a)).unwrap();
        bt.push(
            tuple![2],
            Condition::and([Condition::bvar(a), Condition::nbvar(b)]),
        )
        .unwrap();
        let bpc = BooleanPcTable::new(bt, [(a, rat!(1, 2)), (b, rat!(1, 4))]).unwrap();
        let probs = bpc.true_probs();
        assert_eq!(probs, vec![(a, rat!(1, 2)), (b, rat!(1, 4))]);
        let m = bpc.mod_space().unwrap();
        // {1,2}: a ∧ ¬b = 1/2 · 3/4 = 3/8
        assert_eq!(m.world_prob(&instance![[1], [2]]), rat!(3, 8));
        // {1}: a ∧ b = 1/8
        assert_eq!(m.world_prob(&instance![[1]]), rat!(1, 8));
        // {}: ¬a = 1/2
        assert_eq!(m.world_prob(&Instance::empty(1)), rat!(1, 2));
    }

    use ipdb_rel::Instance;

    #[test]
    fn from_pctable_rejects_non_boolean() {
        let pc = running_example();
        assert!(BooleanPcTable::from_pctable(pc).is_err());
    }

    #[test]
    fn bdd_path_ignores_distributions_of_unmentioned_vars() {
        // A distribution may cover variables the table never mentions
        // (e.g. after external marginalization); the BDD path must not
        // encode them — they contribute a factor of exactly 1.
        let mut g = VarGen::new();
        let (x, spare) = (g.fresh(), g.fresh());
        let t = CTable::builder(1)
            .row([t_var(x)], Condition::neq_vc(x, 0))
            .build()
            .unwrap();
        let uniform =
            |n: i64| FiniteSpace::new((0..n).map(|i| (Value::from(i), rat!(1, n)))).unwrap();
        let pc = PcTable::new(t, [(x, uniform(3)), (spare, uniform(4))]).unwrap();
        assert_eq!(pc.tuple_prob_bdd(&tuple![1]).unwrap(), rat!(1, 3));
        let m = pc.marginals_bdd().unwrap();
        assert_eq!(m, vec![(tuple![1], rat!(1, 3)), (tuple![2], rat!(1, 3))]);
        // And it still matches the enumeration oracle.
        assert_eq!(m, pc.answer_dist_enum(&Query::Input).unwrap());
    }

    use ipdb_rel::Query;

    #[test]
    fn adversarial_weights_overflow_gracefully_not_panic() {
        // Regression: three variables with ~1e18 denominators make both
        // answering engines' arithmetic leave i128 (products reach 1e54).
        // Each entry point must report ProbError::Overflow, not panic.
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
                [t_const(7)],
                Condition::and([
                    Condition::eq_vc(x, 0),
                    Condition::eq_vc(y, 0),
                    Condition::eq_vc(z, 0),
                ]),
            )
            .build()
            .unwrap();
        let pc = PcTable::new(t, [(x, dist()), (y, dist()), (z, dist())]).unwrap();
        // BDD + WMC engine.
        assert_eq!(pc.tuple_prob_bdd(&tuple![7]), Err(ProbError::Overflow));
        assert_eq!(pc.marginals_bdd(), Err(ProbError::Overflow));
        assert_eq!(pc.answer_dist_bdd(&Query::Input), Err(ProbError::Overflow));
        // Valuation enumeration (§8 product space).
        assert_eq!(pc.valuation_space(), Err(ProbError::Overflow));
        assert!(matches!(pc.mod_space(), Err(ProbError::Overflow)));
        assert_eq!(pc.answer_dist_enum(&Query::Input), Err(ProbError::Overflow));
        assert_eq!(pc.tuple_prob_enum(&tuple![7]), Err(ProbError::Overflow));
    }

    #[test]
    fn valuation_space_mass_is_one() {
        let pc = running_example();
        let total = pc
            .valuation_space()
            .unwrap()
            .into_iter()
            .fold(Rat::ZERO, |acc, (_, w)| acc + w);
        assert_eq!(total, Rat::ONE);
    }
}
