//! Finite probability spaces, product spaces, image spaces.
//!
//! §6 of the paper builds every probabilistic semantics from two textbook
//! constructions: the **product** of finite spaces (Def. 12 — independent
//! components, used for p-`?`-tables via Prop. 2–3 and for pc-tables'
//! variables) and the **image** of a space under a function (Def. 10 —
//! how a query maps a distribution over instances to a distribution over
//! answers, Def. 11). [`FiniteSpace`] implements both, generic over the
//! outcome type and the [`Weight`] (exact `Rat` or `f64`).

use std::collections::BTreeMap;
use std::fmt;

use ipdb_bdd::Weight;

use crate::error::ProbError;

/// A finite probability space `(Ω, p)`: outcomes with probabilities
/// summing to 1.
///
/// Duplicate outcomes are merged (probabilities added) on construction,
/// and zero-probability outcomes are dropped, so equality of spaces is
/// equality of distributions.
///
/// ```
/// use ipdb_prob::{rat, FiniteSpace, Rat};
/// let coin = FiniteSpace::new([("h", rat!(1, 2)), ("t", rat!(1, 2))]).unwrap();
/// let two = coin.product(&coin);
/// assert_eq!(two.prob_of(|(a, b)| a == b), rat!(1, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiniteSpace<T, W> {
    outcomes: BTreeMap<T, W>,
}

impl<T, W> FiniteSpace<T, W> {
    /// Number of (non-zero) outcomes.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the space has no outcomes (only possible for
    /// unnormalized spaces).
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Iterates over `(outcome, probability)` in outcome order.
    pub fn iter(&self) -> std::collections::btree_map::Iter<'_, T, W> {
        self.outcomes.iter()
    }
}

impl<T: Ord + Clone, W: Weight> FiniteSpace<T, W> {
    /// Builds a space, merging duplicates, dropping zeros, and checking
    /// that no weight is negative and the total mass is exactly `1`.
    pub fn new(outcomes: impl IntoIterator<Item = (T, W)>) -> Result<Self, ProbError> {
        let space = Self::new_unnormalized(outcomes)?;
        let mass = space.checked_total_mass()?;
        if mass != W::one() {
            return Err(ProbError::MassNotOne(format!("total mass {mass:?}")));
        }
        Ok(space)
    }

    /// Builds a sub-probability space (no mass check); used internally by
    /// constructions that assemble mass incrementally. A negative weight
    /// is [`ProbError::InvalidProbability`]. Duplicate merging uses
    /// checked addition, surfacing [`ProbError::Overflow`] on exact
    /// weights that leave their representable range.
    pub fn new_unnormalized(outcomes: impl IntoIterator<Item = (T, W)>) -> Result<Self, ProbError> {
        let mut map: BTreeMap<T, W> = BTreeMap::new();
        for (t, w) in outcomes {
            if w.is_below_zero() {
                return Err(ProbError::InvalidProbability(format!(
                    "negative weight {w:?}"
                )));
            }
            match map.get_mut(&t) {
                Some(acc) => *acc = acc.checked_add(&w).ok_or(ProbError::Overflow)?,
                None => {
                    map.insert(t, w);
                }
            }
        }
        map.retain(|_, w| !w.is_zero());
        Ok(FiniteSpace { outcomes: map })
    }

    /// The single-outcome (Dirac) space.
    pub fn dirac(t: T) -> Self {
        FiniteSpace {
            outcomes: BTreeMap::from_iter([(t, W::one())]),
        }
    }

    /// A Bernoulli-style two-outcome space; `p` is the probability of
    /// `yes`. `yes` and `no` must differ.
    pub fn bernoulli(yes: T, no: T, p: W) -> Result<Self, ProbError> {
        FiniteSpace::new([(yes, p.clone()), (no, p.complement())])
    }

    /// The probability of a specific outcome (zero if absent).
    pub fn prob(&self, t: &T) -> W {
        self.outcomes.get(t).cloned().unwrap_or_else(W::zero)
    }

    /// `P[A]` for the event `A = {ω | pred(ω)}`.
    pub fn prob_of(&self, mut pred: impl FnMut(&T) -> bool) -> W {
        let mut acc = W::zero();
        for (t, w) in &self.outcomes {
            if pred(t) {
                acc = acc.add(w);
            }
        }
        acc
    }

    /// Total mass (1 for checked spaces). Uses the panicking weight
    /// addition — fine on spaces that already passed construction; use
    /// [`FiniteSpace::checked_total_mass`] where adversarial weights
    /// can reach the sum.
    pub fn total_mass(&self) -> W {
        let mut acc = W::zero();
        for w in self.outcomes.values() {
            acc = acc.add(w);
        }
        acc
    }

    /// Total mass via checked addition: [`ProbError::Overflow`] instead
    /// of a panic when exact weights leave their representable range —
    /// the summation [`FiniteSpace::new`] validates mass with.
    pub fn checked_total_mass(&self) -> Result<W, ProbError> {
        let mut acc = W::zero();
        for w in self.outcomes.values() {
            acc = acc.checked_add(w).ok_or(ProbError::Overflow)?;
        }
        Ok(acc)
    }

    /// **Image space** (paper Def. 10): push the distribution forward
    /// through `f`, merging collided outcomes.
    pub fn image<U: Ord + Clone>(&self, mut f: impl FnMut(&T) -> U) -> FiniteSpace<U, W> {
        let mut map: BTreeMap<U, W> = BTreeMap::new();
        for (t, w) in &self.outcomes {
            let u = f(t);
            match map.get_mut(&u) {
                Some(acc) => *acc = acc.add(w),
                None => {
                    map.insert(u, w.clone());
                }
            }
        }
        FiniteSpace { outcomes: map }
    }

    /// Fallible image (for functions that can error, e.g. query
    /// evaluation).
    pub fn try_image<U: Ord + Clone, E>(
        &self,
        mut f: impl FnMut(&T) -> Result<U, E>,
    ) -> Result<FiniteSpace<U, W>, E> {
        let mut map: BTreeMap<U, W> = BTreeMap::new();
        for (t, w) in &self.outcomes {
            let u = f(t)?;
            match map.get_mut(&u) {
                Some(acc) => *acc = acc.add(w),
                None => {
                    map.insert(u, w.clone());
                }
            }
        }
        Ok(FiniteSpace { outcomes: map })
    }

    /// **Product space** (paper Def. 12): pairs of outcomes with
    /// multiplied probabilities — the model of non-interfering
    /// components (Prop. 3).
    pub fn product<U: Ord + Clone>(&self, other: &FiniteSpace<U, W>) -> FiniteSpace<(T, U), W> {
        let mut map = BTreeMap::new();
        for (a, wa) in &self.outcomes {
            for (b, wb) in &other.outcomes {
                map.insert((a.clone(), b.clone()), wa.mul(wb));
            }
        }
        FiniteSpace { outcomes: map }
    }

    /// n-ary product: the space over vectors of one outcome per factor
    /// (`Π_i Ω_i`), probabilities multiplied.
    pub fn product_all(factors: &[FiniteSpace<T, W>]) -> FiniteSpace<Vec<T>, W> {
        let mut acc: FiniteSpace<Vec<T>, W> = FiniteSpace::dirac(Vec::new());
        for f in factors {
            let mut map = BTreeMap::new();
            for (prefix, wp) in &acc.outcomes {
                for (t, wt) in &f.outcomes {
                    let mut v = prefix.clone();
                    v.push(t.clone());
                    map.insert(v, wp.mul(wt));
                }
            }
            acc = FiniteSpace { outcomes: map };
        }
        acc
    }

    /// Whether two spaces are the same distribution. (Zero outcomes were
    /// dropped and duplicates merged at construction, so this is plain
    /// equality of the maps.)
    pub fn same_distribution(&self, other: &Self) -> bool
    where
        W: PartialEq,
    {
        self.outcomes == other.outcomes
    }
}

impl<T: fmt::Display, W: fmt::Debug> fmt::Display for FiniteSpace<T, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for (t, w) in &self.outcomes {
            writeln!(f, "  {t} : {w:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat;
    use crate::rat::Rat;

    #[test]
    fn mass_checked() {
        assert!(FiniteSpace::new([(1, rat!(1, 2)), (2, rat!(1, 4))]).is_err());
        let ok = FiniteSpace::new([(1, rat!(1, 2)), (2, rat!(1, 2))]).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn negative_weights_rejected() {
        // Regression: only the total mass was checked, so this signed
        // "distribution" was accepted and answered with P = -1/2.
        let signed = FiniteSpace::new([(1, rat!(1)), (2, rat!(1, 2)), (3, rat!(-1, 2))]);
        assert!(matches!(signed, Err(ProbError::InvalidProbability(_))));
        let signed = FiniteSpace::new([(1, 1.5f64), (2, -0.5)]);
        assert!(matches!(signed, Err(ProbError::InvalidProbability(_))));
        // A negative outcome is rejected even where duplicates would
        // merge it into a non-negative one.
        let merged = FiniteSpace::new([(1, rat!(1)), (1, rat!(1, 2)), (1, rat!(-1, 2))]);
        assert!(matches!(merged, Err(ProbError::InvalidProbability(_))));
    }

    #[test]
    fn duplicates_merge_zeros_drop() {
        let s = FiniteSpace::new([(1, rat!(1, 2)), (1, rat!(1, 2)), (2, Rat::ZERO)]).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.prob(&1), Rat::ONE);
        assert_eq!(s.prob(&2), Rat::ZERO);
    }

    #[test]
    fn dirac_and_bernoulli() {
        let d: FiniteSpace<i32, Rat> = FiniteSpace::dirac(7);
        assert_eq!(d.prob(&7), Rat::ONE);
        let b = FiniteSpace::bernoulli(true, false, rat!(3, 10)).unwrap();
        assert_eq!(b.prob(&true), rat!(3, 10));
        assert_eq!(b.prob(&false), rat!(7, 10));
    }

    #[test]
    fn prob_of_event() {
        let s = FiniteSpace::new([(1, rat!(1, 4)), (2, rat!(1, 4)), (3, rat!(1, 2))]).unwrap();
        assert_eq!(s.prob_of(|x| *x >= 2), rat!(3, 4));
        assert_eq!(s.prob_of(|_| false), Rat::ZERO);
    }

    #[test]
    fn image_merges_collisions() {
        let s = FiniteSpace::new([(1, rat!(1, 4)), (2, rat!(1, 4)), (3, rat!(1, 2))]).unwrap();
        let img = s.image(|x| x % 2);
        assert_eq!(img.prob(&0), rat!(1, 4));
        assert_eq!(img.prob(&1), rat!(3, 4));
        assert_eq!(img.total_mass(), Rat::ONE);
    }

    #[test]
    fn product_multiplies_and_is_independent() {
        let a = FiniteSpace::new([(0, rat!(1, 3)), (1, rat!(2, 3))]).unwrap();
        let b = FiniteSpace::new([(0, rat!(1, 2)), (1, rat!(1, 2))]).unwrap();
        let p = a.product(&b);
        assert_eq!(p.prob(&(1, 0)), rat!(1, 3));
        assert_eq!(p.total_mass(), Rat::ONE);
        // Prop. 3: marginal of the first component equals `a`.
        let m = p.image(|(x, _)| *x);
        assert!(m.same_distribution(&a));
    }

    #[test]
    fn product_all_of_three_coins() {
        let coin = FiniteSpace::bernoulli(1, 0, rat!(1, 2)).unwrap();
        let all = FiniteSpace::product_all(&[coin.clone(), coin.clone(), coin]);
        assert_eq!(all.len(), 8);
        assert_eq!(all.prob(&vec![1, 1, 1]), rat!(1, 8));
        let heads = all.image(|v| v.iter().sum::<i32>());
        assert_eq!(heads.prob(&2), rat!(3, 8));
    }

    #[test]
    fn product_all_empty_is_dirac_empty() {
        let all: FiniteSpace<Vec<i32>, Rat> = FiniteSpace::product_all(&[]);
        assert_eq!(all.len(), 1);
        assert_eq!(all.prob(&vec![]), Rat::ONE);
    }

    #[test]
    fn try_image_propagates_errors() {
        let s = FiniteSpace::new([(1, rat!(1, 2)), (2, rat!(1, 2))]).unwrap();
        let ok: Result<FiniteSpace<i32, Rat>, &str> = s.try_image(|x| Ok(x * 10));
        assert_eq!(ok.unwrap().prob(&10), rat!(1, 2));
        let err: Result<FiniteSpace<i32, Rat>, &str> =
            s.try_image(|x| if *x == 2 { Err("boom") } else { Ok(*x) });
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn f64_spaces_work_too() {
        let s = FiniteSpace::new([(1, 0.25f64), (2, 0.75f64)]).unwrap();
        assert_eq!(s.prob_of(|x| *x == 2), 0.75);
    }
}
