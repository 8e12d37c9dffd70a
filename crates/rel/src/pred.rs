//! Selection predicates.
//!
//! The paper's selections (`σ_c`) use boolean combinations of equalities
//! and inequalities between columns and constants — e.g. Example 4's
//! `σ_{2=3, 4≠'2'}` and the proof of Prop. 4's `σ_{1≠n+1 ∨ … ∨ n≠2n}`.
//! [`Pred`] is that language. Positivity (no negation, no `≠`) is tracked
//! because Theorem 6 distinguishes the `S⁺` fragment.

use std::fmt;

use crate::error::RelError;
use crate::value::Value;

/// One side of a comparison: a column of the input tuple or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operand {
    /// 0-based column index.
    Col(usize),
    /// A constant value.
    Const(Value),
}

impl Operand {
    /// Constant operand helper.
    pub fn val(v: impl Into<Value>) -> Self {
        Operand::Const(v.into())
    }

    fn eval<'a>(&'a self, t: &'a [Value]) -> Result<&'a Value, RelError> {
        match self {
            Operand::Col(c) => t.get(*c).ok_or(RelError::ColumnOutOfRange {
                col: *c,
                arity: t.len(),
            }),
            Operand::Const(v) => Ok(v),
        }
    }

    fn max_col(&self) -> Option<usize> {
        match self {
            Operand::Col(c) => Some(*c),
            Operand::Const(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // 1-based in display to match the paper's π/σ subscripts.
            Operand::Col(c) => write!(f, "#{}", c + 1),
            Operand::Const(v) => write!(f, "{v}"),
        }
    }
}

/// Comparison operator. The paper's condition language uses only equality
/// and its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Neq,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmpOp::Eq => write!(f, "="),
            CmpOp::Neq => write!(f, "≠"),
        }
    }
}

/// A selection predicate: boolean combination of (in)equalities between
/// columns and constants.
///
/// ```
/// use ipdb_rel::{Pred, Value};
/// // σ_{1=2 ∧ 3≠'a'} in the paper's 1-based notation:
/// let p = Pred::and([Pred::eq_cols(0, 1), Pred::neq_const(2, "a")]);
/// assert!(p.eval(&[Value::from(5), Value::from(5), Value::from("b")]).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pred {
    /// Always true (the trivial selection).
    True,
    /// Always false.
    False,
    /// `lhs op rhs`.
    Cmp(CmpOp, Operand, Operand),
    /// Conjunction; empty conjunction is `True`.
    And(Vec<Pred>),
    /// Disjunction; empty disjunction is `False`.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// `#i = #j` (0-based columns).
    pub fn eq_cols(i: usize, j: usize) -> Pred {
        Pred::Cmp(CmpOp::Eq, Operand::Col(i), Operand::Col(j))
    }

    /// `#i ≠ #j`.
    pub fn neq_cols(i: usize, j: usize) -> Pred {
        Pred::Cmp(CmpOp::Neq, Operand::Col(i), Operand::Col(j))
    }

    /// `#i = v`.
    pub fn eq_const(i: usize, v: impl Into<Value>) -> Pred {
        Pred::Cmp(CmpOp::Eq, Operand::Col(i), Operand::Const(v.into()))
    }

    /// `#i ≠ v`.
    pub fn neq_const(i: usize, v: impl Into<Value>) -> Pred {
        Pred::Cmp(CmpOp::Neq, Operand::Col(i), Operand::Const(v.into()))
    }

    /// n-ary conjunction.
    pub fn and(preds: impl IntoIterator<Item = Pred>) -> Pred {
        Pred::And(preds.into_iter().collect())
    }

    /// n-ary disjunction.
    pub fn or(preds: impl IntoIterator<Item = Pred>) -> Pred {
        Pred::Or(preds.into_iter().collect())
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(p: Pred) -> Pred {
        Pred::Not(Box::new(p))
    }

    /// Binary conjunction with on-the-fly simplification: `True` is the
    /// unit, `False` absorbs, and [`Pred::And`]s are flattened *deeply*
    /// (nested `And`s at any depth of the conjunction spine unfold,
    /// preserving left-to-right conjunct order, so short-circuit
    /// evaluation order is unchanged).
    ///
    /// This is the conjunction predicate fusion needs: fusing
    /// `σ_p(σ_q(e))` into `σ_{q ∧ p}(e)` repeatedly must not pile up
    /// nested `And` wrappers. Deep flattening is what makes
    /// [`Pred::conj_all`] associative — `a.conj(b).conj(c)` and
    /// `a.conj(b.conj(c))` produce the *same* conjunct list — which in
    /// turn makes [`Pred::split_equijoin`] extraction deterministic: the
    /// order join keys are discovered in never depends on how the
    /// conjunction was assembled. (The `True`/`False` arms short-circuit
    /// *before* flattening, returning the other operand unchanged; see
    /// the caveat on [`Pred::conj_all`].)
    ///
    /// ```
    /// use ipdb_rel::Pred;
    /// let p = Pred::eq_cols(0, 1).conj(Pred::eq_const(2, 7));
    /// assert_eq!(p, Pred::and([Pred::eq_cols(0, 1), Pred::eq_const(2, 7)]));
    /// assert_eq!(Pred::True.conj(Pred::eq_cols(0, 1)), Pred::eq_cols(0, 1));
    /// assert_eq!(Pred::eq_cols(0, 1).conj(Pred::False), Pred::False);
    /// ```
    pub fn conj(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::True, p) | (p, Pred::True) => p,
            (Pred::False, _) | (_, Pred::False) => Pred::False,
            (a, b) => {
                let mut out = Vec::new();
                if !Pred::flatten_into(a, &mut out) || !Pred::flatten_into(b, &mut out) {
                    return Pred::False;
                }
                Pred::from_flat(out)
            }
        }
    }

    /// Appends the deep-flattened conjuncts of `p` to `out`, dropping
    /// `True` units; returns `false` iff a `False` conjunct was hit (the
    /// whole conjunction is absorbed).
    fn flatten_into(p: Pred, out: &mut Vec<Pred>) -> bool {
        match p {
            Pred::True => true,
            Pred::False => false,
            Pred::And(ps) => ps.into_iter().all(|q| Pred::flatten_into(q, out)),
            q => {
                out.push(q);
                true
            }
        }
    }

    /// Conjunction of several predicates: exactly
    /// `preds.fold(Pred::True, Pred::conj)`, so the result is flat and
    /// `True`/`False` fold away; `True` if empty.
    ///
    /// Associative and order-preserving *as a conjunct sequence*:
    /// whenever two non-trivial predicates actually combine, their
    /// conjunct lists deep-flatten and concatenate, so every way of
    /// assembling the same conjuncts yields the same `And` list. The one
    /// caveat is the `True` unit fast path: conjoining with `True`
    /// returns the other operand *verbatim*, so a predicate that already
    /// contains nested `And`s passes through unnormalized. Callers that
    /// need the canonical flat list regardless of input shape should read
    /// it via [`Pred::conjuncts`] (as [`Pred::split_equijoin`] does), or
    /// normalize with [`Pred::into_flat`].
    ///
    /// Runs in one pass that appends every conjunct to a single `Vec`.
    pub fn conj_all(preds: impl IntoIterator<Item = Pred>) -> Pred {
        // The fold's accumulator is `True`, a lone operand it holds
        // verbatim (`held`), or the flat list two non-trivial operands
        // flattened into (`out`, non-empty).
        let mut held: Option<Pred> = None;
        let mut out = Vec::new();
        for p in preds {
            match p {
                Pred::True => {}
                Pred::False => return Pred::False,
                p if held.is_none() && out.is_empty() => held = Some(p),
                p => {
                    if let Some(h) = held.take() {
                        if !Pred::flatten_into(h, &mut out) {
                            return Pred::False;
                        }
                    }
                    if !Pred::flatten_into(p, &mut out) {
                        return Pred::False;
                    }
                }
            }
        }
        held.unwrap_or_else(|| Pred::from_flat(out))
    }

    /// `True` for no conjuncts, the conjunct itself for one, `And`
    /// otherwise.
    fn from_flat(mut out: Vec<Pred>) -> Pred {
        match out.len() {
            0 => Pred::True,
            1 => out.pop().expect("length checked"),
            _ => Pred::And(out),
        }
    }

    /// Whether this predicate is already a flat conjunction — the form
    /// [`Pred::into_flat`] produces. Every predicate that is not an `And`
    /// is; an `And` is flat when it has at least two members and none of
    /// them is `true`, `false` or another `And`.
    pub fn is_flat(&self) -> bool {
        match self {
            Pred::And(ps) => {
                ps.len() >= 2
                    && ps
                        .iter()
                        .all(|p| !matches!(p, Pred::True | Pred::False | Pred::And(_)))
            }
            _ => true,
        }
    }

    /// Normalizes the conjunction structure by value: `and()` becomes
    /// `true`, `and(p)` becomes `p`, nested `and`s flatten in order and
    /// `false` absorbs. Equal to `Pred::conj_all(self.conjuncts())`, but
    /// moves the conjuncts instead of cloning them, and returns a
    /// predicate that [`Pred::is_flat`] accepts as it is.
    pub fn into_flat(self) -> Pred {
        if self.is_flat() {
            return self;
        }
        let mut out = Vec::new();
        if Pred::flatten_into(self, &mut out) {
            Pred::from_flat(out)
        } else {
            Pred::False
        }
    }

    /// The deep-flattened top-level conjunct list of this predicate:
    /// `True` yields `[]`, a non-`And` predicate yields `[self]`, and
    /// nested `And`s unfold in left-to-right order. (`False` yields
    /// `[False]` so the absorbing element is not lost.)
    pub fn conjuncts(&self) -> Vec<Pred> {
        fn walk(p: &Pred, out: &mut Vec<Pred>) {
            match p {
                Pred::True => {}
                Pred::And(ps) => ps.iter().for_each(|q| walk(q, out)),
                q => out.push(q.clone()),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Splits this predicate, viewed as a selection over the product of a
    /// left factor of arity `split` and a right factor, into **equijoin
    /// keys** and a **residual**.
    ///
    /// A top-level conjunct of the form `#i = #j` with one column in each
    /// factor (after normalizing so `i < j`: `i < split ≤ j`) becomes a
    /// key pair `(i, j)`; duplicates are dropped. Every other conjunct —
    /// constant comparisons, one-sided equalities, disjunctions,
    /// negations — is folded back into the residual with
    /// [`Pred::conj_all`].
    ///
    /// Extraction order is deterministic: pairs appear in the order their
    /// conjuncts occur in [`Pred::conjuncts`], which deep flattening
    /// makes independent of how the conjunction was built.
    ///
    /// ```
    /// use ipdb_rel::Pred;
    /// let p = Pred::and([Pred::eq_cols(0, 2), Pred::neq_const(1, 7)]);
    /// let (on, residual) = p.split_equijoin(2);
    /// assert_eq!(on, vec![(0, 2)]);
    /// assert_eq!(residual, Pred::neq_const(1, 7));
    /// ```
    pub fn split_equijoin(&self, split: usize) -> (Vec<(usize, usize)>, Pred) {
        let mut on: Vec<(usize, usize)> = Vec::new();
        let mut residual = Vec::new();
        for c in self.conjuncts() {
            if let Pred::Cmp(CmpOp::Eq, Operand::Col(i), Operand::Col(j)) = &c {
                let (lo, hi) = (*i.min(j), *i.max(j));
                if lo < split && hi >= split {
                    if !on.contains(&(lo, hi)) {
                        on.push((lo, hi));
                    }
                    continue;
                }
            }
            residual.push(c);
        }
        (on, Pred::conj_all(residual))
    }

    /// Evaluates the predicate on a tuple.
    pub fn eval(&self, t: &[Value]) -> Result<bool, RelError> {
        Ok(match self {
            Pred::True => true,
            Pred::False => false,
            Pred::Cmp(op, l, r) => {
                let l = l.eval(t)?;
                let r = r.eval(t)?;
                match op {
                    CmpOp::Eq => l == r,
                    CmpOp::Neq => l != r,
                }
            }
            Pred::And(ps) => {
                for p in ps {
                    if !p.eval(t)? {
                        return Ok(false);
                    }
                }
                true
            }
            Pred::Or(ps) => {
                for p in ps {
                    if p.eval(t)? {
                        return Ok(true);
                    }
                }
                false
            }
            Pred::Not(p) => !p.eval(t)?,
        })
    }

    /// Greatest column index referenced, if any.
    pub fn max_col(&self) -> Option<usize> {
        match self {
            Pred::True | Pred::False => None,
            Pred::Cmp(_, l, r) => match (l.max_col(), r.max_col()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            Pred::And(ps) | Pred::Or(ps) => ps.iter().filter_map(Pred::max_col).max(),
            Pred::Not(p) => p.max_col(),
        }
    }

    /// Least column index referenced, if any (dual of
    /// [`Pred::max_col`]; a query planner uses the pair to decide which
    /// factor of a product a predicate can move onto).
    pub fn min_col(&self) -> Option<usize> {
        fn operand(o: &Operand) -> Option<usize> {
            match o {
                Operand::Col(c) => Some(*c),
                Operand::Const(_) => None,
            }
        }
        match self {
            Pred::True | Pred::False => None,
            Pred::Cmp(_, l, r) => match (operand(l), operand(r)) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            Pred::And(ps) | Pred::Or(ps) => ps.iter().filter_map(Pred::min_col).min(),
            Pred::Not(p) => p.min_col(),
        }
    }

    /// Every column index referenced by this predicate.
    ///
    /// The columnar executor uses this to decide whether a predicate
    /// touches only the *ground* columns of a c-table (see
    /// `ipdb-tables`), in which case it can be evaluated as a vectorized
    /// mask instead of being instantiated row by row.
    pub fn referenced_cols(&self) -> std::collections::BTreeSet<usize> {
        fn walk(p: &Pred, out: &mut std::collections::BTreeSet<usize>) {
            match p {
                Pred::True | Pred::False => {}
                Pred::Cmp(_, l, r) => {
                    for o in [l, r] {
                        if let Operand::Col(c) = o {
                            out.insert(*c);
                        }
                    }
                }
                Pred::And(ps) | Pred::Or(ps) => ps.iter().for_each(|q| walk(q, out)),
                Pred::Not(p) => walk(p, out),
            }
        }
        let mut out = std::collections::BTreeSet::new();
        walk(self, &mut out);
        out
    }

    /// Rewrites every column reference through `f`: an arbitrary
    /// renumbering, e.g. shifting a predicate across a product with
    /// `|c| c + delta` or compacting it onto a gathered subset of
    /// columns.
    pub fn map_cols(&self, f: impl Fn(usize) -> usize + Copy) -> Pred {
        let operand = |o: &Operand| match o {
            Operand::Col(c) => Operand::Col(f(*c)),
            Operand::Const(v) => Operand::Const(v.clone()),
        };
        match self {
            Pred::True => Pred::True,
            Pred::False => Pred::False,
            Pred::Cmp(op, l, r) => Pred::Cmp(*op, operand(l), operand(r)),
            Pred::And(ps) => Pred::And(ps.iter().map(|p| p.map_cols(f)).collect()),
            Pred::Or(ps) => Pred::Or(ps.iter().map(|p| p.map_cols(f)).collect()),
            Pred::Not(p) => Pred::Not(Box::new(p.map_cols(f))),
        }
    }

    /// Checks all column references are `< arity`.
    pub fn validate(&self, arity: usize) -> Result<(), RelError> {
        match self.max_col() {
            Some(c) if c >= arity => Err(RelError::ColumnOutOfRange { col: c, arity }),
            _ => Ok(()),
        }
    }

    /// Whether the predicate is *positive*: built from `True`, equality
    /// atoms, `∧`, `∨` only (no `¬`, no `≠`, no `False`).
    ///
    /// This is the `S⁺` selection class of Theorem 6.
    pub fn is_positive(&self) -> bool {
        match self {
            Pred::True => true,
            Pred::False => false,
            Pred::Cmp(CmpOp::Eq, _, _) => true,
            Pred::Cmp(CmpOp::Neq, _, _) => false,
            Pred::And(ps) | Pred::Or(ps) => ps.iter().all(Pred::is_positive),
            Pred::Not(_) => false,
        }
    }

    /// Whether the predicate is a conjunction of column–column
    /// equalities (possibly `True`).
    ///
    /// These are the selections implicit in *natural join*: the `J` of
    /// the unnamed algebra is `π(σ_{cols=cols}(… × …))`, so the paper's
    /// `PJ` fragment admits exactly this selection class.
    pub fn is_col_eq_conjunction(&self) -> bool {
        match self {
            Pred::True => true,
            Pred::Cmp(CmpOp::Eq, Operand::Col(_), Operand::Col(_)) => true,
            Pred::And(ps) => ps.iter().all(Pred::is_col_eq_conjunction),
            _ => false,
        }
    }

    /// Re-bases every column reference *downward* by `delta` — the
    /// inverse of `map_cols(|c| c + delta)`, used when moving a predicate
    /// onto the right factor of a product.
    ///
    /// Every referenced column must be `≥ delta` (i.e.
    /// `self.min_col() >= Some(delta)` or `None`); panics otherwise.
    pub fn unshift_cols(&self, delta: usize) -> Pred {
        let operand = |o: &Operand| match o {
            Operand::Col(c) => Operand::Col(
                c.checked_sub(delta)
                    .expect("unshift_cols: column reference below delta"),
            ),
            Operand::Const(v) => Operand::Const(v.clone()),
        };
        match self {
            Pred::True => Pred::True,
            Pred::False => Pred::False,
            Pred::Cmp(op, l, r) => Pred::Cmp(*op, operand(l), operand(r)),
            Pred::And(ps) => Pred::And(ps.iter().map(|p| p.unshift_cols(delta)).collect()),
            Pred::Or(ps) => Pred::Or(ps.iter().map(|p| p.unshift_cols(delta)).collect()),
            Pred::Not(p) => Pred::Not(Box::new(p.unshift_cols(delta))),
        }
    }
}

/// Hash keys `(left col, right-local col)` and unhashable equality
/// filters, as returned by [`normalize_join_keys`].
pub type JoinKeys = (Vec<(usize, usize)>, Vec<Pred>);

/// Normalizes an equijoin's key pairs against a product split
/// `split | total − split` — the one normalization every backend's join
/// executor shares, so instance and c-table hashing can never diverge.
///
/// Each `(i, j)` pair (in either order) is classified:
///
/// * **spanning** (`min < split ≤ max < total`) — becomes a hash key
///   `(left col, right-local col)`, deduplicated in first-seen order;
/// * **one-sided and distinct** — unhashable but sound: returned as an
///   equality filter predicate over the combined tuple;
/// * **self-pair** (`i == j`) — trivially true, dropped;
/// * any column `≥ total` — [`RelError::ColumnOutOfRange`].
pub fn normalize_join_keys(
    on: &[(usize, usize)],
    split: usize,
    total: usize,
) -> Result<JoinKeys, RelError> {
    let mut keys: Vec<(usize, usize)> = Vec::new();
    let mut filters: Vec<Pred> = Vec::new();
    for &(i, j) in on {
        let (lo, hi) = (i.min(j), i.max(j));
        if hi >= total {
            return Err(RelError::ColumnOutOfRange {
                col: hi,
                arity: total,
            });
        }
        if lo < split && hi >= split {
            let key = (lo, hi - split);
            if !keys.contains(&key) {
                keys.push(key);
            }
        } else if lo != hi {
            filters.push(Pred::eq_cols(lo, hi));
        }
    }
    Ok((keys, filters))
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::False => write!(f, "false"),
            Pred::Cmp(op, l, r) => write!(f, "{l}{op}{r}"),
            Pred::And(ps) => {
                if ps.is_empty() {
                    return write!(f, "true");
                }
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Pred::Or(ps) => {
                if ps.is_empty() {
                    return write!(f, "false");
                }
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Pred::Not(p) => write!(f, "¬{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::from(v)).collect()
    }

    #[test]
    fn atoms_evaluate() {
        assert!(Pred::eq_cols(0, 1).eval(&t(&[3, 3])).unwrap());
        assert!(!Pred::eq_cols(0, 1).eval(&t(&[3, 4])).unwrap());
        assert!(Pred::neq_cols(0, 1).eval(&t(&[3, 4])).unwrap());
        assert!(Pred::eq_const(0, 3).eval(&t(&[3])).unwrap());
        assert!(Pred::neq_const(0, 9).eval(&t(&[3])).unwrap());
    }

    #[test]
    fn out_of_range_column_errors() {
        let err = Pred::eq_cols(0, 5).eval(&t(&[1])).unwrap_err();
        assert_eq!(err, RelError::ColumnOutOfRange { col: 5, arity: 1 });
    }

    #[test]
    fn boolean_connectives() {
        let p = Pred::and([Pred::eq_const(0, 1), Pred::neq_const(1, 2)]);
        assert!(p.eval(&t(&[1, 3])).unwrap());
        assert!(!p.eval(&t(&[1, 2])).unwrap());
        let q = Pred::or([Pred::eq_const(0, 9), Pred::eq_const(1, 3)]);
        assert!(q.eval(&t(&[1, 3])).unwrap());
        assert!(!Pred::not(q).eval(&t(&[1, 3])).unwrap());
        assert!(Pred::and([]).eval(&t(&[])).unwrap());
        assert!(!Pred::or([]).eval(&t(&[])).unwrap());
    }

    #[test]
    fn short_circuit_does_not_mask_errors_on_taken_path() {
        // And short-circuits on first false, so later out-of-range atoms
        // are not touched.
        let p = Pred::and([Pred::False, Pred::eq_cols(0, 99)]);
        assert!(!p.eval(&t(&[1])).unwrap());
    }

    #[test]
    fn conj_flattens_and_simplifies() {
        let a = Pred::eq_cols(0, 1);
        let b = Pred::eq_const(1, 2);
        let c = Pred::neq_cols(0, 2);
        // Unit and absorbing elements.
        assert_eq!(Pred::True.conj(a.clone()), a);
        assert_eq!(a.clone().conj(Pred::True), a);
        assert_eq!(Pred::False.conj(a.clone()), Pred::False);
        assert_eq!(a.clone().conj(Pred::False), Pred::False);
        // Flattening on both sides, order preserved.
        let ab = a.clone().conj(b.clone());
        assert_eq!(ab, Pred::And(vec![a.clone(), b.clone()]));
        assert_eq!(
            ab.clone().conj(c.clone()),
            Pred::And(vec![a.clone(), b.clone(), c.clone()])
        );
        assert_eq!(
            c.clone().conj(ab.clone()),
            Pred::And(vec![c.clone(), a.clone(), b.clone()])
        );
        assert_eq!(
            ab.clone().conj(Pred::And(vec![c.clone()])),
            Pred::And(vec![a.clone(), b.clone(), c.clone()])
        );
        // Evaluation agrees with the unfused pair.
        let t = t(&[5, 2, 9]);
        assert_eq!(
            ab.eval(&t).unwrap(),
            a.eval(&t).unwrap() && b.eval(&t).unwrap()
        );
    }

    #[test]
    fn conj_all_folds() {
        assert_eq!(Pred::conj_all([]), Pred::True);
        assert_eq!(Pred::conj_all([Pred::True, Pred::True]), Pred::True);
        let a = Pred::eq_cols(0, 1);
        assert_eq!(Pred::conj_all([Pred::True, a.clone()]), a);
        assert_eq!(
            Pred::conj_all([a.clone(), Pred::False, Pred::eq_const(0, 1)]),
            Pred::False
        );
        assert_eq!(
            Pred::conj_all([a.clone(), Pred::eq_const(0, 1)]),
            Pred::And(vec![a, Pred::eq_const(0, 1)])
        );
    }

    #[test]
    fn conj_all_is_associative_and_order_preserving() {
        let a = Pred::eq_cols(0, 2);
        let b = Pred::neq_const(1, 7);
        let c = Pred::eq_cols(1, 3);
        // Every way of assembling a ∧ b ∧ c yields the same flat list —
        // this is what makes split_equijoin extraction deterministic.
        let flat = Pred::And(vec![a.clone(), b.clone(), c.clone()]);
        assert_eq!(Pred::conj_all([a.clone(), b.clone(), c.clone()]), flat);
        assert_eq!(a.clone().conj(b.clone()).conj(c.clone()), flat);
        assert_eq!(a.clone().conj(b.clone().conj(c.clone())), flat);
        assert_eq!(
            Pred::and([a.clone(), b.clone()]).conj(c.clone()),
            flat,
            "left-nested And flattens"
        );
        assert_eq!(
            a.clone().conj(Pred::and([b.clone(), c.clone()])),
            flat,
            "right-nested And flattens"
        );
        // Deep nesting flattens too (the pre-fix instability: an And
        // inside an And survived one level of conj). `True` short-circuits
        // without normalizing, so conjoin with a real predicate.
        let deep = Pred::And(vec![Pred::And(vec![a.clone()]), b.clone()]);
        assert_eq!(deep.conj(c.clone()), flat);
        assert_eq!(
            Pred::conj_all([
                Pred::And(vec![Pred::And(vec![a.clone()]), b.clone()]),
                c.clone()
            ]),
            flat
        );
    }

    #[test]
    fn conjuncts_deep_flattens_in_order() {
        let a = Pred::eq_cols(0, 1);
        let b = Pred::neq_const(1, 2);
        let c = Pred::or([Pred::eq_const(0, 1)]);
        let p = Pred::And(vec![
            Pred::And(vec![a.clone(), Pred::True]),
            b.clone(),
            Pred::And(vec![c.clone()]),
        ]);
        assert_eq!(p.conjuncts(), vec![a.clone(), b.clone(), c.clone()]);
        assert_eq!(Pred::True.conjuncts(), Vec::<Pred>::new());
        assert_eq!(Pred::False.conjuncts(), vec![Pred::False]);
        assert_eq!(a.conjuncts(), vec![Pred::eq_cols(0, 1)]);
        // Or is a leaf from the conjunction's point of view.
        assert_eq!(c.conjuncts(), vec![Pred::or([Pred::eq_const(0, 1)])]);
    }

    #[test]
    fn split_equijoin_extracts_spanning_equalities() {
        // Over a product split 2 | 2: #0,#1 left; #2,#3 right.
        let p = Pred::and([
            Pred::eq_cols(0, 2),  // spanning → key
            Pred::eq_cols(3, 1),  // spanning, reversed → normalized key (1,3)
            Pred::eq_cols(0, 1),  // left-only → residual
            Pred::neq_cols(1, 2), // inequality → residual
            Pred::eq_const(2, 9), // column-constant → residual
            Pred::eq_cols(0, 2),  // duplicate key → deduped
        ]);
        let (on, residual) = p.split_equijoin(2);
        assert_eq!(on, vec![(0, 2), (1, 3)]);
        assert_eq!(
            residual,
            Pred::and([
                Pred::eq_cols(0, 1),
                Pred::neq_cols(1, 2),
                Pred::eq_const(2, 9),
            ])
        );
        // No spanning atoms → everything is residual, keys empty.
        let (on, residual) = Pred::eq_cols(0, 1).split_equijoin(2);
        assert!(on.is_empty());
        assert_eq!(residual, Pred::eq_cols(0, 1));
        // A lone spanning atom (not wrapped in And) is extracted.
        let (on, residual) = Pred::eq_cols(1, 2).split_equijoin(2);
        assert_eq!(on, vec![(1, 2)]);
        assert_eq!(residual, Pred::True);
        // Self-equality #2=#2 never spans.
        let (on, _) = Pred::eq_cols(2, 2).split_equijoin(2);
        assert!(on.is_empty());
        // Extraction is stable under re-association of the conjunction.
        let q1 = Pred::eq_cols(0, 2).conj(Pred::eq_cols(1, 3).conj(Pred::neq_const(0, 5)));
        let q2 = Pred::eq_cols(0, 2)
            .conj(Pred::eq_cols(1, 3))
            .conj(Pred::neq_const(0, 5));
        assert_eq!(q1.split_equijoin(2), q2.split_equijoin(2));
    }

    #[test]
    fn positivity() {
        assert!(Pred::eq_cols(0, 1).is_positive());
        assert!(Pred::and([Pred::eq_const(0, 1), Pred::True]).is_positive());
        assert!(!Pred::neq_cols(0, 1).is_positive());
        assert!(!Pred::not(Pred::eq_cols(0, 1)).is_positive());
        assert!(!Pred::or([Pred::False]).is_positive());
    }

    #[test]
    fn max_col_and_validate() {
        let p = Pred::and([Pred::eq_cols(0, 3), Pred::eq_const(1, 5)]);
        assert_eq!(p.max_col(), Some(3));
        assert!(p.validate(4).is_ok());
        assert!(p.validate(3).is_err());
        assert_eq!(Pred::True.max_col(), None);
        assert!(Pred::True.validate(0).is_ok());
    }

    #[test]
    fn shift_cols() {
        // Shifting across a product is `map_cols(|c| c + delta)`.
        let p = Pred::eq_cols(0, 1).map_cols(|c| c + 2);
        assert_eq!(p, Pred::eq_cols(2, 3));
        let q = Pred::eq_const(0, 7).map_cols(|c| c + 1);
        assert!(q.eval(&t(&[0, 7])).unwrap());
    }

    #[test]
    fn min_col_is_dual_of_max_col() {
        let p = Pred::and([Pred::eq_cols(2, 3), Pred::neq_const(1, 5)]);
        assert_eq!(p.min_col(), Some(1));
        assert_eq!(p.max_col(), Some(3));
        assert_eq!(Pred::True.min_col(), None);
        assert_eq!(Pred::eq_const(4, 1).min_col(), Some(4));
        assert_eq!(
            Pred::not(Pred::or([Pred::eq_cols(3, 2)])).min_col(),
            Some(2)
        );
        let consts = Pred::Cmp(CmpOp::Eq, Operand::val(1), Operand::val(2));
        assert_eq!(consts.min_col(), None);
    }

    #[test]
    fn unshift_cols_inverts_shift_cols() {
        let p = Pred::and([Pred::eq_cols(1, 3), Pred::neq_const(2, 9)]);
        assert_eq!(p.map_cols(|c| c + 4).unshift_cols(4), p);
        assert_eq!(
            Pred::not(Pred::eq_cols(2, 3)).unshift_cols(2),
            Pred::not(Pred::eq_cols(0, 1))
        );
        assert_eq!(Pred::True.unshift_cols(7), Pred::True);
    }

    #[test]
    #[should_panic(expected = "below delta")]
    fn unshift_cols_rejects_underflow() {
        let _ = Pred::eq_cols(0, 5).unshift_cols(1);
    }

    #[test]
    fn referenced_cols_collects_every_column() {
        let p = Pred::and([
            Pred::eq_cols(0, 3),
            Pred::not(Pred::or([Pred::neq_const(2, 7)])),
        ]);
        assert_eq!(
            p.referenced_cols().into_iter().collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        assert!(Pred::True.referenced_cols().is_empty());
        let consts = Pred::Cmp(CmpOp::Eq, Operand::val(1), Operand::val(2));
        assert!(consts.referenced_cols().is_empty());
    }

    #[test]
    fn map_cols_renumbers_arbitrarily() {
        let p = Pred::and([Pred::eq_cols(2, 5), Pred::neq_const(5, 9)]);
        let q = p.map_cols(|c| if c == 2 { 0 } else { 1 });
        assert_eq!(q, Pred::and([Pred::eq_cols(0, 1), Pred::neq_const(1, 9)]));
        assert_eq!(
            Pred::not(Pred::eq_const(1, 4)).map_cols(|c| c * 2),
            Pred::not(Pred::eq_const(2, 4))
        );
    }

    #[test]
    fn display_matches_paper_style() {
        let p = Pred::and([Pred::eq_cols(1, 2), Pred::neq_const(3, 2)]);
        assert_eq!(p.to_string(), "(#2=#3 ∧ #4≠2)");
    }

    #[test]
    fn into_flat_normalizes_every_spelling() {
        let a = Pred::eq_cols(0, 1);
        let b = Pred::neq_const(1, 2);
        // Already flat: returned as is.
        for p in [
            Pred::True,
            Pred::False,
            a.clone(),
            Pred::and([a.clone(), b.clone()]),
        ] {
            assert!(p.is_flat(), "{p:?}");
            assert_eq!(p.clone().into_flat(), p);
        }
        // Not flat: `and()`, `and(p)`, nested `and`, `true`/`false`
        // members.
        for (p, flat) in [
            (Pred::and([]), Pred::True),
            (Pred::and([a.clone()]), a.clone()),
            (
                Pred::and([a.clone(), Pred::and([b.clone()])]),
                Pred::and([a.clone(), b.clone()]),
            ),
            (Pred::and([a.clone(), Pred::True]), a.clone()),
            (Pred::and([a.clone(), Pred::False, b.clone()]), Pred::False),
        ] {
            assert!(!p.is_flat(), "{p:?}");
            assert_eq!(p.clone().into_flat(), flat, "{p:?}");
        }
    }

    /// `conj_all` against the fold it replaces, kept here as the
    /// reference, and `into_flat` against `conj_all` of the conjuncts.
    #[cfg(feature = "strategies")]
    mod conj_props {
        use super::super::*;
        use proptest::prelude::*;

        /// Predicates whose conjunction structure varies: atoms, `true`,
        /// `false`, `or`, and `and`s of 0–3 members nested up to three
        /// deep.
        fn arb_conj_member() -> BoxedStrategy<Pred> {
            let leaf = prop_oneof![
                6 => (0usize..3, 0i64..3).prop_map(|(c, v)| Pred::eq_const(c, v)),
                2 => (0usize..3, 0usize..3).prop_map(|(i, j)| Pred::neq_cols(i, j)),
                1 => Just(Pred::True),
                1 => Just(Pred::False),
            ];
            leaf.prop_recursive(3, 16, 3, |inner| {
                prop_oneof![
                    3 => proptest::collection::vec(inner.clone(), 0..=3).prop_map(Pred::And),
                    1 => proptest::collection::vec(inner, 1..=2).prop_map(Pred::Or),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn conj_all_matches_the_fold(
                ps in proptest::collection::vec(arb_conj_member(), 0..=10)
            ) {
                let reference = ps.clone().into_iter().fold(Pred::True, Pred::conj);
                prop_assert_eq!(Pred::conj_all(ps), reference);
            }

            #[test]
            fn into_flat_matches_conj_all_of_conjuncts(p in arb_conj_member()) {
                let flat = p.clone().into_flat();
                prop_assert_eq!(&flat, &Pred::conj_all(p.conjuncts()));
                prop_assert!(flat.is_flat());
                prop_assert_eq!(p.is_flat(), flat == p);
            }
        }
    }
}
