//! Conditions: boolean combinations of (in)equalities over terms.
//!
//! This is the language decorating c-table tuples (paper §2): atoms are
//! `t₁ = t₂` / `t₁ ≠ t₂` with terms over variables and constants, closed
//! under `¬`, `∧`, `∨`. The smart constructors perform the local
//! simplifications the c-table algebra relies on to stay readable
//! (constant folding, unit laws, flattening, deduplication, complementary
//! literals), and [`Condition::simplify`] applies them bottom-up.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ipdb_rel::Value;

use crate::term::Term;
use crate::valuation::Valuation;
use crate::var::Var;
use crate::LogicError;

/// A c-table condition.
///
/// Invariant-light by design: any shape is a valid condition; the smart
/// constructors ([`Condition::eq`], [`Condition::and`], …) additionally
/// keep things flattened and folded, and are what the rest of the
/// workspace uses.
///
/// ```
/// use ipdb_logic::{Condition, Term, Var};
/// let (x, y) = (Var(0), Var(1));
/// // x = y ∧ x ≠ 2
/// let c = Condition::and([Condition::eq_vv(x, y), Condition::neq_vc(x, 2)]);
/// assert_eq!(c.vars().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Condition {
    /// Always satisfied (the condition of every v-table tuple).
    True,
    /// Never satisfied.
    False,
    /// `t₁ = t₂`.
    Eq(Term, Term),
    /// `t₁ ≠ t₂`.
    Neq(Term, Term),
    /// `¬φ`.
    Not(Box<Condition>),
    /// `φ₁ ∧ … ∧ φₙ` (empty conjunction = `True`).
    And(Vec<Condition>),
    /// `φ₁ ∨ … ∨ φₙ` (empty disjunction = `False`).
    Or(Vec<Condition>),
}

impl Condition {
    // ------------------------------------------------------------------
    // Smart constructors
    // ------------------------------------------------------------------

    /// `l = r`, constant-folding and canonically ordering the operands.
    pub fn eq(l: impl Into<Term>, r: impl Into<Term>) -> Condition {
        let (l, r) = (l.into(), r.into());
        match (&l, &r) {
            (Term::Const(a), Term::Const(b)) => {
                if a == b {
                    Condition::True
                } else {
                    Condition::False
                }
            }
            _ if l == r => Condition::True,
            _ => {
                if l <= r {
                    Condition::Eq(l, r)
                } else {
                    Condition::Eq(r, l)
                }
            }
        }
    }

    /// `l ≠ r`, constant-folding and canonically ordering the operands.
    pub fn neq(l: impl Into<Term>, r: impl Into<Term>) -> Condition {
        match Condition::eq(l, r) {
            Condition::True => Condition::False,
            Condition::False => Condition::True,
            Condition::Eq(a, b) => Condition::Neq(a, b),
            _ => unreachable!("eq returns True/False/Eq"),
        }
    }

    /// `x = y` between variables.
    pub fn eq_vv(x: Var, y: Var) -> Condition {
        Condition::eq(Term::Var(x), Term::Var(y))
    }

    /// `x ≠ y` between variables.
    pub fn neq_vv(x: Var, y: Var) -> Condition {
        Condition::neq(Term::Var(x), Term::Var(y))
    }

    /// `x = c` between a variable and a constant.
    pub fn eq_vc(x: Var, c: impl Into<Value>) -> Condition {
        Condition::eq(Term::Var(x), Term::Const(c.into()))
    }

    /// `x ≠ c` between a variable and a constant.
    pub fn neq_vc(x: Var, c: impl Into<Value>) -> Condition {
        Condition::neq(Term::Var(x), Term::Const(c.into()))
    }

    /// The positive boolean literal `x = true` (boolean c-tables, §3).
    pub fn bvar(x: Var) -> Condition {
        Condition::eq_vc(x, true)
    }

    /// The negative boolean literal `x = false`.
    pub fn nbvar(x: Var) -> Condition {
        Condition::eq_vc(x, false)
    }

    /// Conjunction: flattens nested `And`s, drops `true`, short-circuits
    /// on `false` and on complementary members, deduplicates.
    pub fn and(parts: impl IntoIterator<Item = Condition>) -> Condition {
        let mut set: BTreeSet<Condition> = BTreeSet::new();
        let mut stack: Vec<Condition> = parts.into_iter().collect();
        // Consume left-to-right so nested Ands flatten.
        stack.reverse();
        while let Some(c) = stack.pop() {
            match c {
                Condition::True => {}
                Condition::False => return Condition::False,
                Condition::And(inner) => {
                    for i in inner.into_iter().rev() {
                        stack.push(i);
                    }
                }
                other => {
                    set.insert(other);
                }
            }
        }
        for c in &set {
            if set.contains(&c.clone().negate()) {
                return Condition::False;
            }
        }
        let mut v: Vec<Condition> = set.into_iter().collect();
        match v.len() {
            0 => Condition::True,
            1 => v.pop().expect("len checked"),
            _ => Condition::And(v),
        }
    }

    /// Disjunction: dual of [`Condition::and`].
    pub fn or(parts: impl IntoIterator<Item = Condition>) -> Condition {
        let mut set: BTreeSet<Condition> = BTreeSet::new();
        let mut stack: Vec<Condition> = parts.into_iter().collect();
        stack.reverse();
        while let Some(c) = stack.pop() {
            match c {
                Condition::False => {}
                Condition::True => return Condition::True,
                Condition::Or(inner) => {
                    for i in inner.into_iter().rev() {
                        stack.push(i);
                    }
                }
                other => {
                    set.insert(other);
                }
            }
        }
        for c in &set {
            if set.contains(&c.clone().negate()) {
                return Condition::True;
            }
        }
        let mut v: Vec<Condition> = set.into_iter().collect();
        match v.len() {
            0 => Condition::False,
            1 => v.pop().expect("len checked"),
            _ => Condition::Or(v),
        }
    }

    /// Negation with local folding: `¬true = false`, `¬(t₁=t₂) = t₁≠t₂`,
    /// `¬¬φ = φ`. Compound negations stay as `Not` (see
    /// [`Condition::nnf`] for full pushing).
    pub fn negate(self) -> Condition {
        match self {
            Condition::True => Condition::False,
            Condition::False => Condition::True,
            Condition::Eq(a, b) => Condition::Neq(a, b),
            Condition::Neq(a, b) => Condition::Eq(a, b),
            Condition::Not(c) => *c,
            other => Condition::Not(Box::new(other)),
        }
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// The variables occurring in the condition.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    /// Accumulates variables into `out` (avoids re-allocating sets when
    /// scanning whole tables).
    pub fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            Condition::True | Condition::False => {}
            Condition::Eq(a, b) | Condition::Neq(a, b) => {
                if let Term::Var(v) = a {
                    out.insert(*v);
                }
                if let Term::Var(v) = b {
                    out.insert(*v);
                }
            }
            Condition::Not(c) => c.collect_vars(out),
            Condition::And(cs) | Condition::Or(cs) => {
                for c in cs {
                    c.collect_vars(out);
                }
            }
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Condition::True | Condition::False | Condition::Eq(..) | Condition::Neq(..) => 1,
            Condition::Not(c) => 1 + c.size(),
            Condition::And(cs) | Condition::Or(cs) => {
                1 + cs.iter().map(Condition::size).sum::<usize>()
            }
        }
    }

    /// Whether this condition is *boolean*: every atom compares a
    /// variable with a boolean constant. These are the conditions of
    /// boolean c-tables (§3) and boolean pc-tables (§8); only they can be
    /// compiled to BDDs directly.
    pub fn is_boolean(&self) -> bool {
        match self {
            Condition::True | Condition::False => true,
            Condition::Eq(a, b) | Condition::Neq(a, b) => matches!(
                (a, b),
                (Term::Var(_), Term::Const(Value::Bool(_)))
                    | (Term::Const(Value::Bool(_)), Term::Var(_))
            ),
            Condition::Not(c) => c.is_boolean(),
            Condition::And(cs) | Condition::Or(cs) => cs.iter().all(Condition::is_boolean),
        }
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Evaluates under a total valuation (errors on unbound variables).
    pub fn eval(&self, nu: &Valuation) -> Result<bool, LogicError> {
        Ok(match self {
            Condition::True => true,
            Condition::False => false,
            Condition::Eq(a, b) => a.eval(nu)? == b.eval(nu)?,
            Condition::Neq(a, b) => a.eval(nu)? != b.eval(nu)?,
            Condition::Not(c) => !c.eval(nu)?,
            Condition::And(cs) => {
                for c in cs {
                    if !c.eval(nu)? {
                        return Ok(false);
                    }
                }
                true
            }
            Condition::Or(cs) => {
                for c in cs {
                    if c.eval(nu)? {
                        return Ok(true);
                    }
                }
                false
            }
        })
    }

    /// Residual evaluation under a partial valuation: bound variables are
    /// substituted and the result folded through the smart constructors.
    ///
    /// `c.partial_eval(ν) == True/False` exactly when every completion of
    /// `ν` (over any domain) agrees — this is what makes backtracking
    /// satisfiability prune ([`crate::sat`]).
    pub fn partial_eval(&self, nu: &Valuation) -> Condition {
        match self {
            Condition::True => Condition::True,
            Condition::False => Condition::False,
            Condition::Eq(a, b) => Condition::eq(a.partial_eval(nu), b.partial_eval(nu)),
            Condition::Neq(a, b) => Condition::neq(a.partial_eval(nu), b.partial_eval(nu)),
            Condition::Not(c) => c.partial_eval(nu).negate(),
            Condition::And(cs) => Condition::and(cs.iter().map(|c| c.partial_eval(nu))),
            Condition::Or(cs) => Condition::or(cs.iter().map(|c| c.partial_eval(nu))),
        }
    }

    /// Bottom-up re-application of the smart constructors. Sound
    /// (`simplify(c)` is logically equivalent to `c` — property-tested)
    /// but not canonical: equivalence is still checked semantically.
    pub fn simplify(&self) -> Condition {
        match self {
            Condition::True => Condition::True,
            Condition::False => Condition::False,
            Condition::Eq(a, b) => Condition::eq(a.clone(), b.clone()),
            Condition::Neq(a, b) => Condition::neq(a.clone(), b.clone()),
            Condition::Not(c) => c.simplify().negate(),
            Condition::And(cs) => Condition::and(cs.iter().map(Condition::simplify)),
            Condition::Or(cs) => Condition::or(cs.iter().map(Condition::simplify)),
        }
    }

    /// Negation normal form: `¬` pushed onto atoms (which absorb it as
    /// `≠`/`=`), so the result contains no `Not` nodes at all.
    pub fn nnf(&self) -> Condition {
        fn pos(c: &Condition) -> Condition {
            match c {
                Condition::True => Condition::True,
                Condition::False => Condition::False,
                Condition::Eq(a, b) => Condition::eq(a.clone(), b.clone()),
                Condition::Neq(a, b) => Condition::neq(a.clone(), b.clone()),
                Condition::Not(c) => neg(c),
                Condition::And(cs) => Condition::and(cs.iter().map(pos)),
                Condition::Or(cs) => Condition::or(cs.iter().map(pos)),
            }
        }
        fn neg(c: &Condition) -> Condition {
            match c {
                Condition::True => Condition::False,
                Condition::False => Condition::True,
                Condition::Eq(a, b) => Condition::neq(a.clone(), b.clone()),
                Condition::Neq(a, b) => Condition::eq(a.clone(), b.clone()),
                Condition::Not(c) => pos(c),
                Condition::And(cs) => Condition::or(cs.iter().map(neg)),
                Condition::Or(cs) => Condition::and(cs.iter().map(neg)),
            }
        }
        pos(self)
    }

    /// Applies a substitution `Var → Term` simultaneously.
    pub fn substitute(&self, map: &BTreeMap<Var, Term>) -> Condition {
        let sub_term = |t: &Term| match t {
            Term::Var(v) => map.get(v).cloned().unwrap_or_else(|| t.clone()),
            Term::Const(_) => t.clone(),
        };
        match self {
            Condition::True => Condition::True,
            Condition::False => Condition::False,
            Condition::Eq(a, b) => Condition::eq(sub_term(a), sub_term(b)),
            Condition::Neq(a, b) => Condition::neq(sub_term(a), sub_term(b)),
            Condition::Not(c) => c.substitute(map).negate(),
            Condition::And(cs) => Condition::and(cs.iter().map(|c| c.substitute(map))),
            Condition::Or(cs) => Condition::or(cs.iter().map(|c| c.substitute(map))),
        }
    }

    /// Renames variables (injective renamings preserve semantics; used to
    /// keep the two operands of a c-table product variable-disjoint when
    /// callers want fresh copies).
    pub fn rename(&self, map: &BTreeMap<Var, Var>) -> Condition {
        let term_map: BTreeMap<Var, Term> = map.iter().map(|(k, v)| (*k, Term::Var(*v))).collect();
        self.substitute(&term_map)
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(c: &Condition, f: &mut fmt::Formatter<'_>, parent_compound: bool) -> fmt::Result {
            match c {
                Condition::True => write!(f, "true"),
                Condition::False => write!(f, "false"),
                Condition::Eq(a, b) => write!(f, "{a}={b}"),
                Condition::Neq(a, b) => write!(f, "{a}≠{b}"),
                Condition::Not(inner) => {
                    write!(f, "¬(")?;
                    rec(inner, f, false)?;
                    write!(f, ")")
                }
                Condition::And(cs) => {
                    if parent_compound {
                        write!(f, "(")?;
                    }
                    for (i, c) in cs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ∧ ")?;
                        }
                        rec(c, f, true)?;
                    }
                    if parent_compound {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Condition::Or(cs) => {
                    if parent_compound {
                        write!(f, "(")?;
                    }
                    for (i, c) in cs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ∨ ")?;
                        }
                        rec(c, f, true)?;
                    }
                    if parent_compound {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
            }
        }
        rec(self, f, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Var {
        Var(0)
    }
    fn y() -> Var {
        Var(1)
    }

    #[test]
    fn eq_constant_folds() {
        assert_eq!(
            Condition::eq(Term::constant(1), Term::constant(1)),
            Condition::True
        );
        assert_eq!(
            Condition::eq(Term::constant(1), Term::constant(2)),
            Condition::False
        );
        assert_eq!(
            Condition::eq(Term::var(x()), Term::var(x())),
            Condition::True
        );
        assert_eq!(
            Condition::neq(Term::constant(1), Term::constant(2)),
            Condition::True
        );
    }

    #[test]
    fn eq_orders_operands() {
        let a = Condition::eq(Term::constant(5), Term::var(x()));
        let b = Condition::eq(Term::var(x()), Term::constant(5));
        assert_eq!(a, b);
    }

    #[test]
    fn and_or_unit_laws() {
        let c = Condition::eq_vv(x(), y());
        assert_eq!(Condition::and([Condition::True, c.clone()]), c);
        assert_eq!(
            Condition::and([Condition::False, c.clone()]),
            Condition::False
        );
        assert_eq!(Condition::or([Condition::False, c.clone()]), c);
        assert_eq!(Condition::or([Condition::True, c.clone()]), Condition::True);
        assert_eq!(Condition::and([]), Condition::True);
        assert_eq!(Condition::or([]), Condition::False);
    }

    #[test]
    fn and_flattens_and_dedupes() {
        let c = Condition::eq_vv(x(), y());
        let nested = Condition::and([
            Condition::and([c.clone(), c.clone()]),
            c.clone(),
            Condition::neq_vc(x(), 3),
        ]);
        match nested {
            Condition::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn complementary_literals_short_circuit() {
        let c = Condition::eq_vv(x(), y());
        assert_eq!(
            Condition::and([c.clone(), c.clone().negate()]),
            Condition::False
        );
        assert_eq!(Condition::or([c.clone(), c.negate()]), Condition::True);
    }

    #[test]
    fn negate_folds_atoms() {
        assert_eq!(Condition::True.negate(), Condition::False);
        let e = Condition::eq_vv(x(), y());
        assert_eq!(e.clone().negate(), Condition::neq_vv(x(), y()));
        assert_eq!(e.clone().negate().negate(), e);
        let compound = Condition::and([Condition::eq_vc(x(), 1), Condition::eq_vc(y(), 2)]);
        assert!(matches!(compound.negate(), Condition::Not(_)));
    }

    #[test]
    fn vars_collects_all() {
        let c = Condition::and([Condition::eq_vv(x(), y()), Condition::neq_vc(Var(5), 2)]);
        let vs = c.vars();
        assert_eq!(vs.len(), 3);
        assert!(vs.contains(&Var(5)));
    }

    #[test]
    fn eval_total() {
        let c = Condition::and([Condition::eq_vv(x(), y()), Condition::neq_vc(x(), 9)]);
        let nu = Valuation::from_iter([(x(), Value::from(3)), (y(), Value::from(3))]);
        assert!(c.eval(&nu).unwrap());
        let nu2 = Valuation::from_iter([(x(), Value::from(9)), (y(), Value::from(9))]);
        assert!(!c.eval(&nu2).unwrap());
        let empty = Valuation::new();
        assert_eq!(c.eval(&empty), Err(LogicError::UnboundVar(x())));
    }

    #[test]
    fn partial_eval_folds_bound_parts() {
        let c = Condition::or([Condition::eq_vc(x(), 1), Condition::eq_vc(y(), 2)]);
        let nu = Valuation::from_iter([(x(), Value::from(1))]);
        assert_eq!(c.partial_eval(&nu), Condition::True);
        let nu2 = Valuation::from_iter([(x(), Value::from(0))]);
        assert_eq!(c.partial_eval(&nu2), Condition::eq_vc(y(), 2));
    }

    #[test]
    fn nnf_removes_nots() {
        let c = Condition::Not(Box::new(Condition::And(vec![
            Condition::eq_vv(x(), y()),
            Condition::Not(Box::new(Condition::neq_vc(x(), 1))),
        ])));
        let n = c.nnf();
        fn has_not(c: &Condition) -> bool {
            match c {
                Condition::Not(_) => true,
                Condition::And(cs) | Condition::Or(cs) => cs.iter().any(has_not),
                _ => false,
            }
        }
        assert!(!has_not(&n));
        // ¬(x=y ∧ ¬(x≠1)) = x≠y ∨ x≠1
        assert_eq!(
            n,
            Condition::or([Condition::neq_vv(x(), y()), Condition::neq_vc(x(), 1)])
        );
    }

    #[test]
    fn substitution() {
        let c = Condition::eq_vv(x(), y());
        let map = BTreeMap::from([(x(), Term::constant(3))]);
        assert_eq!(c.substitute(&map), Condition::eq_vc(y(), 3));
        let map2 = BTreeMap::from([(x(), Term::constant(3)), (y(), Term::constant(3))]);
        assert_eq!(c.substitute(&map2), Condition::True);
    }

    #[test]
    fn rename() {
        let c = Condition::eq_vv(x(), y());
        let map = BTreeMap::from([(x(), Var(10)), (y(), Var(11))]);
        assert_eq!(c.rename(&map), Condition::eq_vv(Var(10), Var(11)));
    }

    #[test]
    fn is_boolean() {
        assert!(Condition::bvar(x()).is_boolean());
        assert!(Condition::and([Condition::bvar(x()), Condition::nbvar(y())]).is_boolean());
        assert!(!Condition::eq_vc(x(), 3).is_boolean());
        assert!(!Condition::eq_vv(x(), y()).is_boolean());
        assert!(Condition::True.is_boolean());
    }

    #[test]
    fn size_counts_nodes() {
        let c = Condition::and([Condition::eq_vv(x(), y()), Condition::neq_vc(x(), 1)]);
        assert_eq!(c.size(), 3);
        assert_eq!(Condition::True.size(), 1);
    }

    #[test]
    fn display_paper_style() {
        let c = Condition::And(vec![
            Condition::eq_vv(x(), y()),
            Condition::Or(vec![Condition::neq_vc(x(), 1), Condition::eq_vc(y(), 2)]),
        ]);
        assert_eq!(c.to_string(), "x0=x1 ∧ (x0≠1 ∨ x1=2)");
    }

    #[test]
    fn simplify_is_idempotent_on_examples() {
        let c = Condition::And(vec![
            Condition::True,
            Condition::Or(vec![Condition::False, Condition::eq_vv(x(), y())]),
            Condition::Eq(Term::constant(2), Term::constant(2)),
        ]);
        let s = c.simplify();
        assert_eq!(s, Condition::eq_vv(x(), y()));
        assert_eq!(s.simplify(), s);
    }
}
