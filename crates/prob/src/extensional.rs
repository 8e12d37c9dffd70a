//! Extensional (lifted) query evaluation on tuple-independent tables —
//! the paper's §8 discussion of Dalvi–Suciu \[9\].
//!
//! The paper notes that \[9\] characterizes the conjunctive queries whose
//! answer probabilities an *extensional* algorithm (multiplying and
//! independent-or-ing scores, never materializing event expressions)
//! computes correctly on p-`?`-tables. This module reproduces that
//! phenomenon end-to-end on boolean conjunctive queries over a database
//! of independent-tuple relations:
//!
//! * [`BoolCq::is_hierarchical`] — the safety test for self-join-free
//!   CQs (for every two variables, their atom sets are nested or
//!   disjoint);
//! * [`lifted_prob`] — the safe-plan evaluator: independent components
//!   multiply, a *root variable* (one occurring in every atom) is
//!   eliminated by independent-or over its candidate values; errors on
//!   non-hierarchical queries;
//! * [`forced_extensional`] — the same recursion with the safety check
//!   disabled (eliminates the most frequent variable even when unsound):
//!   the "wrong plan" whose divergence from [`exact_prob`] on `H₀` the
//!   experiments harness shows (E20);
//! * [`exact_prob`] — ground the query, build its *lineage* (event
//!   expression over per-tuple Bernoulli variables — §7/§9), and compute
//!   its probability with the BDD engine ([`prob_of_condition`]). Always
//!   correct; exponential in the worst case (as it must be:
//!   non-hierarchical queries are #P-hard \[9\]).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ipdb_bdd::Weight;
use ipdb_logic::{Condition, Var};
use ipdb_rel::{Tuple, Value};

use crate::answering::prob_of_condition;
use crate::error::ProbError;
use crate::ptable::PTable;
use crate::space::FiniteSpace;

/// A conjunctive-query argument: a query variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum CqArg {
    /// A query variable (numbered).
    Var(u32),
    /// A constant.
    Const(Value),
}

impl fmt::Display for CqArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CqArg::Var(v) => write!(f, "X{v}"),
            CqArg::Const(c) => write!(f, "{c}"),
        }
    }
}

/// One atom `R(args…)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CqAtom {
    /// Relation name.
    pub rel: String,
    /// Arguments.
    pub args: Vec<CqArg>,
}

impl CqAtom {
    /// Builds an atom.
    pub fn new(rel: impl Into<String>, args: Vec<CqArg>) -> Self {
        CqAtom {
            rel: rel.into(),
            args,
        }
    }

    fn vars(&self) -> BTreeSet<u32> {
        self.args
            .iter()
            .filter_map(|a| match a {
                CqArg::Var(v) => Some(*v),
                CqArg::Const(_) => None,
            })
            .collect()
    }

    fn substitute(&self, var: u32, val: &Value) -> CqAtom {
        CqAtom {
            rel: self.rel.clone(),
            args: self
                .args
                .iter()
                .map(|a| match a {
                    CqArg::Var(v) if *v == var => CqArg::Const(val.clone()),
                    other => other.clone(),
                })
                .collect(),
        }
    }

    fn is_ground(&self) -> bool {
        self.args.iter().all(|a| matches!(a, CqArg::Const(_)))
    }
}

impl fmt::Display for CqAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.rel)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A boolean conjunctive query `∃X̄. A₁ ∧ … ∧ A_n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoolCq {
    /// The atoms.
    pub atoms: Vec<CqAtom>,
}

impl BoolCq {
    /// Builds a query.
    pub fn new(atoms: Vec<CqAtom>) -> Self {
        BoolCq { atoms }
    }

    /// The classic unsafe query `H₀ = R(x), S(x,y), T(y)` of \[9\].
    pub fn h0() -> Self {
        BoolCq::new(vec![
            CqAtom::new("R", vec![CqArg::Var(0)]),
            CqAtom::new("S", vec![CqArg::Var(0), CqArg::Var(1)]),
            CqAtom::new("T", vec![CqArg::Var(1)]),
        ])
    }

    /// Whether no relation name repeats (self-join-free).
    pub fn is_self_join_free(&self) -> bool {
        let names: BTreeSet<&str> = self.atoms.iter().map(|a| a.rel.as_str()).collect();
        names.len() == self.atoms.len()
    }

    /// The hierarchy test of \[9\] for self-join-free CQs: for every two
    /// variables, the sets of atoms containing them are nested or
    /// disjoint. Hierarchical ⟺ a safe (extensional) plan exists.
    pub fn is_hierarchical(&self) -> bool {
        let vars: BTreeSet<u32> = self.atoms.iter().flat_map(|a| a.vars()).collect();
        let at = |x: u32| -> BTreeSet<usize> {
            self.atoms
                .iter()
                .enumerate()
                .filter(|(_, a)| a.vars().contains(&x))
                .map(|(i, _)| i)
                .collect()
        };
        for &x in &vars {
            for &y in &vars {
                if x >= y {
                    continue;
                }
                let (ax, ay) = (at(x), at(y));
                let nested = ax.is_subset(&ay) || ay.is_subset(&ax);
                let disjoint = ax.is_disjoint(&ay);
                if !nested && !disjoint {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for BoolCq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// A database of named tuple-independent relations.
#[derive(Debug, Clone)]
pub struct ProbDb<W> {
    rels: BTreeMap<String, PTable<W>>,
}

impl<W: Weight + PartialOrd> ProbDb<W> {
    /// An empty database.
    pub fn new() -> Self {
        ProbDb {
            rels: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a relation.
    pub fn insert(&mut self, name: impl Into<String>, table: PTable<W>) {
        self.rels.insert(name.into(), table);
    }

    /// Looks up a relation.
    pub fn get(&self, name: &str) -> Option<&PTable<W>> {
        self.rels.get(name)
    }

    fn table(&self, name: &str) -> Result<&PTable<W>, ProbError> {
        self.rels
            .get(name)
            .ok_or_else(|| ProbError::UnknownRelation(name.to_string()))
    }

    fn check(&self, q: &BoolCq) -> Result<(), ProbError> {
        for a in &q.atoms {
            let t = self.table(&a.rel)?;
            if t.arity() != a.args.len() {
                return Err(ProbError::AtomArity {
                    rel: a.rel.clone(),
                    expected: t.arity(),
                    got: a.args.len(),
                });
            }
        }
        Ok(())
    }

    /// Candidate values for variable `x`: the union, over atoms
    /// containing `x`, of the values in the matching column(s).
    fn candidates(&self, q: &BoolCq, x: u32) -> Result<BTreeSet<Value>, ProbError> {
        let mut out = BTreeSet::new();
        for a in &q.atoms {
            let t = self.table(&a.rel)?;
            for (i, arg) in a.args.iter().enumerate() {
                if *arg == CqArg::Var(x) {
                    for (tup, _) in t.rows() {
                        out.insert(tup[i].clone());
                    }
                }
            }
        }
        Ok(out)
    }
}

impl<W: Weight + PartialOrd> Default for ProbDb<W> {
    fn default() -> Self {
        Self::new()
    }
}

/// The Bernoulli variables of a lineage expression and their
/// distributions.
pub type LineageDists<W> = BTreeMap<Var, FiniteSpace<Value, W>>;

/// The **lineage** of a boolean CQ: its event expression over per-tuple
/// Bernoulli variables, plus the variables' distributions — ready for
/// [`prob_of_condition`]. This is the §7 "event expression" / §9
/// "lineage" made concrete.
pub fn lineage<W: Weight + PartialOrd>(
    q: &BoolCq,
    db: &ProbDb<W>,
) -> Result<(Condition, LineageDists<W>), ProbError> {
    db.check(q)?;
    // Assign a boolean variable to every (relation, tuple-index).
    let mut var_of: BTreeMap<(String, usize), Var> = BTreeMap::new();
    let mut dists = BTreeMap::new();
    let mut next = 0u32;
    for (name, table) in &db.rels {
        for (i, (_, p)) in table.rows().iter().enumerate() {
            let v = Var(next);
            next += 1;
            var_of.insert((name.clone(), i), v);
            dists.insert(
                v,
                FiniteSpace::bernoulli(Value::Bool(true), Value::Bool(false), p.clone())?,
            );
        }
    }
    // Enumerate groundings.
    let vars: Vec<u32> = q
        .atoms
        .iter()
        .flat_map(|a| a.vars())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut disjuncts = Vec::new();
    ground(q, db, &vars, &mut BTreeMap::new(), &var_of, &mut disjuncts)?;
    Ok((Condition::or(disjuncts), dists))
}

fn ground<W: Weight + PartialOrd>(
    q: &BoolCq,
    db: &ProbDb<W>,
    unbound: &[u32],
    bound: &mut BTreeMap<u32, Value>,
    var_of: &BTreeMap<(String, usize), Var>,
    out: &mut Vec<Condition>,
) -> Result<(), ProbError> {
    match unbound.split_first() {
        None => {
            // Fully ground: each atom must match a listed tuple.
            let mut lits = Vec::with_capacity(q.atoms.len());
            for a in &q.atoms {
                let grounded: Tuple = a
                    .args
                    .iter()
                    .map(|arg| match arg {
                        CqArg::Const(c) => c.clone(),
                        CqArg::Var(v) => bound[v].clone(),
                    })
                    .collect();
                let table = db.table(&a.rel)?;
                match table.rows().iter().position(|(t, _)| *t == grounded) {
                    Some(i) => lits.push(Condition::bvar(var_of[&(a.rel.clone(), i)])),
                    None => return Ok(()), // no such tuple: grounding dead
                }
            }
            out.push(Condition::and(lits));
            Ok(())
        }
        Some((&x, rest)) => {
            for val in db.candidates(q, x)? {
                bound.insert(x, val);
                ground(q, db, rest, bound, var_of, out)?;
            }
            bound.remove(&x);
            Ok(())
        }
    }
}

/// Exact `P[q]` via lineage + BDD weighted model counting. Always
/// correct.
pub fn exact_prob<W: Weight + PartialOrd>(q: &BoolCq, db: &ProbDb<W>) -> Result<W, ProbError> {
    let (cond, dists) = lineage(q, db)?;
    prob_of_condition(&cond, &dists)
}

/// The safe-plan (lifted) evaluator: exact on hierarchical self-join-free
/// CQs, rejecting anything else.
pub fn lifted_prob<W: Weight + PartialOrd>(q: &BoolCq, db: &ProbDb<W>) -> Result<W, ProbError> {
    db.check(q)?;
    if !q.is_self_join_free() {
        return Err(ProbError::NonHierarchical(format!("{q} has a self-join")));
    }
    if !q.is_hierarchical() {
        return Err(ProbError::NonHierarchical(q.to_string()));
    }
    lifted_rec(&q.atoms, db, false)
}

/// The same recursion with the safety check disabled: when no root
/// variable exists it eliminates the most frequent variable anyway,
/// silently assuming independence. Correct on hierarchical queries,
/// *wrong* in general — the divergence \[9\] predicts (and `ipdb-bench`
/// measures) on `H₀`.
pub fn forced_extensional<W: Weight + PartialOrd>(
    q: &BoolCq,
    db: &ProbDb<W>,
) -> Result<W, ProbError> {
    db.check(q)?;
    lifted_rec(&q.atoms, db, true)
}

fn lifted_rec<W: Weight + PartialOrd>(
    atoms: &[CqAtom],
    db: &ProbDb<W>,
    forced: bool,
) -> Result<W, ProbError> {
    if atoms.is_empty() {
        return Ok(W::one());
    }
    // Connected components under shared variables multiply (independent
    // relations: self-join-freeness keeps their tuple sets disjoint).
    let components = connected_components(atoms);
    if components.len() > 1 {
        let mut acc = W::one();
        for comp in components {
            acc = acc.mul(&lifted_rec(&comp, db, forced)?);
        }
        return Ok(acc);
    }
    // Single component. Ground atom: base case (a component with a
    // ground atom is that atom alone — it shares no variables).
    if atoms.len() == 1 && atoms[0].is_ground() {
        let a = &atoms[0];
        let grounded: Tuple = a
            .args
            .iter()
            .map(|arg| match arg {
                CqArg::Const(c) => c.clone(),
                CqArg::Var(_) => unreachable!("ground atom"),
            })
            .collect();
        return Ok(db.table(&a.rel)?.prob(&grounded));
    }
    // Root variable: occurs in every atom of the component.
    let all_vars: BTreeSet<u32> = atoms.iter().flat_map(|a| a.vars()).collect();
    let root = all_vars
        .iter()
        .copied()
        .find(|x| atoms.iter().all(|a| a.vars().contains(x)));
    let x = match root {
        Some(x) => x,
        None if forced => {
            // Unsound: pick the variable in the most atoms.
            all_vars
                .iter()
                .copied()
                .max_by_key(|x| atoms.iter().filter(|a| a.vars().contains(x)).count())
                .expect("non-empty component has variables")
        }
        None => {
            return Err(ProbError::NonHierarchical(format!(
                "no root variable in component {}",
                BoolCq::new(atoms.to_vec())
            )))
        }
    };
    // Independent-or over the root variable's candidates:
    // P = 1 − Π_a (1 − P(q[x := a])).
    let q_for_candidates = BoolCq::new(atoms.to_vec());
    let mut none = W::one();
    for val in db.candidates(&q_for_candidates, x)? {
        let sub: Vec<CqAtom> = atoms.iter().map(|a| a.substitute(x, &val)).collect();
        let p = lifted_rec(&sub, db, forced)?;
        none = none.mul(&p.complement());
    }
    Ok(none.complement())
}

fn connected_components(atoms: &[CqAtom]) -> Vec<Vec<CqAtom>> {
    let n = atoms.len();
    let mut comp: Vec<usize> = (0..n).collect();
    fn find(comp: &mut Vec<usize>, i: usize) -> usize {
        if comp[i] != i {
            let r = find(comp, comp[i]);
            comp[i] = r;
        }
        comp[i]
    }
    for (i, atom_i) in atoms.iter().enumerate() {
        for (j, atom_j) in atoms.iter().enumerate().skip(i + 1) {
            if !atom_i.vars().is_disjoint(&atom_j.vars()) {
                let (ri, rj) = (find(&mut comp, i), find(&mut comp, j));
                if ri != rj {
                    comp[ri] = rj;
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<CqAtom>> = BTreeMap::new();
    for (i, atom) in atoms.iter().enumerate() {
        let r = find(&mut comp, i);
        groups.entry(r).or_default().push(atom.clone());
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat;
    use crate::rat::Rat;
    use ipdb_rel::tuple;

    fn db() -> ProbDb<Rat> {
        let mut db = ProbDb::new();
        db.insert(
            "R",
            PTable::from_rows(1, [(tuple![1], rat!(1, 2)), (tuple![2], rat!(1, 3))]).unwrap(),
        );
        db.insert(
            "S",
            PTable::from_rows(
                2,
                [
                    (tuple![1, 10], rat!(1, 4)),
                    (tuple![1, 20], rat!(1, 5)),
                    (tuple![2, 10], rat!(1, 2)),
                ],
            )
            .unwrap(),
        );
        db.insert(
            "T",
            PTable::from_rows(1, [(tuple![10], rat!(2, 3)), (tuple![20], rat!(1, 6))]).unwrap(),
        );
        db
    }

    /// The E20 database of the experiments harness: a four-element chain
    /// where every `x` reaches two `y`s, so `H₀`'s groundings overlap.
    fn e20_db() -> ProbDb<Rat> {
        let mut db = ProbDb::new();
        db.insert(
            "R",
            PTable::from_rows(1, (0..4i64).map(|i| (Tuple::new([i]), rat!(1, 2)))).unwrap(),
        );
        db.insert(
            "S",
            PTable::from_rows(
                2,
                (0..4i64).flat_map(|i| {
                    [
                        (Tuple::new([i, 100 + i]), rat!(1, 2)),
                        (Tuple::new([i, 100 + ((i + 1) % 4)]), rat!(1, 4)),
                    ]
                }),
            )
            .unwrap(),
        );
        db.insert(
            "T",
            PTable::from_rows(1, (100..104i64).map(|i| (Tuple::new([i]), rat!(1, 2)))).unwrap(),
        );
        db
    }

    fn safe_chain() -> BoolCq {
        BoolCq::new(vec![
            CqAtom::new("R", vec![CqArg::Var(0)]),
            CqAtom::new("S", vec![CqArg::Var(0), CqArg::Var(1)]),
        ])
    }

    /// `P[q]` straight from the definition: the sum, over the valuations
    /// of the lineage's Bernoulli variables that satisfy it, of the
    /// product of their probabilities.
    fn brute_force_prob(q: &BoolCq, db: &ProbDb<Rat>) -> Rat {
        let (cond, dists) = lineage(q, db).unwrap();
        let doms: BTreeMap<Var, ipdb_rel::Domain> = cond
            .vars()
            .into_iter()
            .map(|v| (v, ipdb_rel::Domain::bools()))
            .collect();
        let mut total = Rat::ZERO;
        for nu in ipdb_logic::Valuation::all_over(&doms) {
            if cond.eval(&nu).unwrap() {
                let w = doms
                    .keys()
                    .fold(Rat::ONE, |w, v| w * dists[v].prob(nu.get(*v).unwrap()));
                total = total + w;
            }
        }
        total
    }

    #[test]
    fn exact_prob_equals_lineage_enumeration() {
        for db in [db(), e20_db()] {
            for q in [BoolCq::h0(), safe_chain()] {
                assert_eq!(
                    exact_prob(&q, &db).unwrap(),
                    brute_force_prob(&q, &db),
                    "{q}"
                );
            }
        }
    }

    #[test]
    fn hierarchy_classification() {
        // R(x), S(x,y): hierarchical.
        let safe = BoolCq::new(vec![
            CqAtom::new("R", vec![CqArg::Var(0)]),
            CqAtom::new("S", vec![CqArg::Var(0), CqArg::Var(1)]),
        ]);
        assert!(safe.is_hierarchical());
        assert!(safe.is_self_join_free());
        // H0: not hierarchical.
        assert!(!BoolCq::h0().is_hierarchical());
        // Single atoms trivially hierarchical.
        assert!(BoolCq::new(vec![CqAtom::new("R", vec![CqArg::Var(0)])]).is_hierarchical());
    }

    #[test]
    fn lifted_matches_exact_on_safe_queries() {
        let db = db();
        let safe = BoolCq::new(vec![
            CqAtom::new("R", vec![CqArg::Var(0)]),
            CqAtom::new("S", vec![CqArg::Var(0), CqArg::Var(1)]),
        ]);
        let exact = exact_prob(&safe, &db).unwrap();
        let lifted = lifted_prob(&safe, &db).unwrap();
        assert_eq!(exact, lifted);
    }

    #[test]
    fn single_atom_queries() {
        let db = db();
        // ∃x. R(x): 1 − (1−1/2)(1−1/3) = 2/3.
        let q = BoolCq::new(vec![CqAtom::new("R", vec![CqArg::Var(0)])]);
        assert_eq!(lifted_prob(&q, &db).unwrap(), rat!(2, 3));
        assert_eq!(exact_prob(&q, &db).unwrap(), rat!(2, 3));
        // Ground atom: R(1) has probability 1/2.
        let g = BoolCq::new(vec![CqAtom::new("R", vec![CqArg::Const(Value::from(1))])]);
        assert_eq!(lifted_prob(&g, &db).unwrap(), rat!(1, 2));
        assert_eq!(exact_prob(&g, &db).unwrap(), rat!(1, 2));
        // Absent ground atom: probability 0.
        let absent = BoolCq::new(vec![CqAtom::new("R", vec![CqArg::Const(Value::from(9))])]);
        assert_eq!(lifted_prob(&absent, &db).unwrap(), Rat::ZERO);
    }

    #[test]
    fn independent_components_multiply() {
        let db = db();
        // ∃x. R(x) ∧ ∃y. T(y): product of marginals.
        let q = BoolCq::new(vec![
            CqAtom::new("R", vec![CqArg::Var(0)]),
            CqAtom::new("T", vec![CqArg::Var(1)]),
        ]);
        let p_r = rat!(2, 3);
        let p_t = Rat::ONE - (Rat::ONE - rat!(2, 3)) * (Rat::ONE - rat!(1, 6));
        assert_eq!(lifted_prob(&q, &db).unwrap(), p_r * p_t);
        assert_eq!(exact_prob(&q, &db).unwrap(), p_r * p_t);
    }

    #[test]
    fn h0_is_rejected_by_lifted_but_exact_works() {
        let db = db();
        let h0 = BoolCq::h0();
        assert!(matches!(
            lifted_prob(&h0, &db),
            Err(ProbError::NonHierarchical(_))
        ));
        let exact = exact_prob(&h0, &db).unwrap();
        assert!(exact > Rat::ZERO && exact < Rat::ONE);
    }

    #[test]
    fn forced_extensional_diverges_on_h0() {
        let db = db();
        let h0 = BoolCq::h0();
        let exact = exact_prob(&h0, &db).unwrap();
        let forced = forced_extensional(&h0, &db).unwrap();
        assert_ne!(exact, forced, "H0 must expose the unsound plan");
        // But on a hierarchical query the forced plan is exact.
        let safe = BoolCq::new(vec![
            CqAtom::new("R", vec![CqArg::Var(0)]),
            CqAtom::new("S", vec![CqArg::Var(0), CqArg::Var(1)]),
        ]);
        assert_eq!(
            forced_extensional(&safe, &db).unwrap(),
            exact_prob(&safe, &db).unwrap()
        );
    }

    #[test]
    fn self_joins_rejected() {
        let db = db();
        let q = BoolCq::new(vec![
            CqAtom::new("R", vec![CqArg::Var(0)]),
            CqAtom::new("R", vec![CqArg::Var(1)]),
        ]);
        assert!(matches!(
            lifted_prob(&q, &db),
            Err(ProbError::NonHierarchical(_))
        ));
    }

    #[test]
    fn unknown_relation_and_arity_errors() {
        let db = db();
        let q = BoolCq::new(vec![CqAtom::new("Z", vec![CqArg::Var(0)])]);
        assert!(matches!(
            exact_prob(&q, &db),
            Err(ProbError::UnknownRelation(_))
        ));
        let bad = BoolCq::new(vec![CqAtom::new("R", vec![CqArg::Var(0), CqArg::Var(1)])]);
        assert!(matches!(
            exact_prob(&bad, &db),
            Err(ProbError::AtomArity { .. })
        ));
    }

    #[test]
    fn lineage_of_h0_mentions_all_relations() {
        let db = db();
        let (cond, dists) = lineage(&BoolCq::h0(), &db).unwrap();
        // 2 R-tuples + 3 S-tuples + 2 T-tuples = 7 Bernoulli vars.
        assert_eq!(dists.len(), 7);
        assert!(!cond.vars().is_empty());
    }
}
