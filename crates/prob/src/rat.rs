//! Exact rational arithmetic.
//!
//! The completeness and closure theorems for probabilistic tables
//! (Thms 8–9) assert *equalities of probability distributions*; testing
//! them with floating point would need tolerances and could mask real
//! defects. [`Rat`] is a small exact rational over `i128` (always
//! reduced, positive denominator). Probabilities in examples and tests
//! have denominators like 10, 20, 256 — products of dozens of such
//! factors stay far inside `i128`. The operator forms panic loudly on
//! overflow rather than silently wrapping; the checked forms
//! ([`Rat::checked_add`] & co., wired into the [`Weight`] trait's
//! checked operations) return `None`, so the model-counting and
//! normalization hot paths surface
//! [`ProbError::Overflow`](crate::ProbError::Overflow) instead of
//! panicking on adversarial weights.

use std::cmp::Ordering;
use std::fmt;

use ipdb_bdd::Weight;

/// An exact rational number `num/den`, reduced, `den > 0`.
///
/// ```
/// use ipdb_prob::Rat;
/// let a = Rat::new(3, 10);
/// let b = Rat::new(7, 10);
/// assert_eq!(a + b, Rat::ONE);
/// assert_eq!(a * b, Rat::new(21, 100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128, // invariant: den > 0, gcd(|num|, den) == 1
}

const fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a < 0 {
        -a
    } else {
        a
    }
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Builds `num/den`, reducing; panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let (num, den) = (num * sign, den * sign);
        let g = gcd(num, den);
        if g == 0 {
            return Rat::ZERO;
        }
        Rat {
            num: num / g,
            den: den / g,
        }
    }

    /// The integer `n`.
    pub const fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Numerator (sign carrier).
    pub const fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub const fn denom(&self) -> i128 {
        self.den
    }

    /// Whether the value lies in `\[0, 1\]` (a valid probability).
    pub fn is_probability(&self) -> bool {
        self.num >= 0 && self.num <= self.den
    }

    /// Nearest `f64` (for reporting; arithmetic stays exact).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// `num/den` reduced, or `None` when `den == 0` or the sign
    /// normalization itself overflows.
    fn checked_make(num: i128, den: i128) -> Option<Rat> {
        if den == 0 {
            return None;
        }
        let (num, den) = if den < 0 {
            (num.checked_neg()?, den.checked_neg()?)
        } else {
            (num, den)
        };
        // den > 0, so gcd(|num|, den) ≥ 1.
        let g = gcd(num, den);
        Some(Rat {
            num: num / g,
            den: den / g,
        })
    }

    /// Checked addition: `None` when the exact result does not fit.
    pub fn checked_add(self, o: Rat) -> Option<Rat> {
        // a/b + c/d = (ad + cb) / bd, with a pre-reduction through
        // gcd(b, d) to delay overflow.
        let g = gcd(self.den, o.den);
        let (b, d) = (self.den / g, o.den / g);
        let num = self
            .num
            .checked_mul(d)?
            .checked_add(o.num.checked_mul(b)?)?;
        Rat::checked_make(num, self.den.checked_mul(d)?)
    }

    /// Checked subtraction: `None` when the exact result does not fit.
    pub fn checked_sub(self, o: Rat) -> Option<Rat> {
        // Negating a reduced rational keeps it reduced.
        self.checked_add(Rat {
            num: o.num.checked_neg()?,
            den: o.den,
        })
    }

    /// Checked multiplication: `None` when the exact result does not
    /// fit.
    pub fn checked_mul(self, o: Rat) -> Option<Rat> {
        // Cross-reduce before multiplying.
        let g1 = gcd(self.num, o.den);
        let g2 = gcd(o.num, self.den);
        let g1 = if g1 == 0 { 1 } else { g1 };
        let g2 = if g2 == 0 { 1 } else { g2 };
        let num = (self.num / g1).checked_mul(o.num / g2)?;
        Rat::checked_make(num, (self.den / g2).checked_mul(o.den / g1)?)
    }

    /// Checked division: `None` on a zero divisor or when the exact
    /// result does not fit.
    pub fn checked_div(self, o: Rat) -> Option<Rat> {
        if o.num == 0 {
            return None;
        }
        self.checked_mul(Rat::checked_make(o.den, o.num)?)
    }
}

impl std::ops::Add for Rat {
    type Output = Rat;
    fn add(self, o: Rat) -> Rat {
        self.checked_add(o)
            .unwrap_or_else(|| panic!("rational overflow in add"))
    }
}

impl std::ops::Sub for Rat {
    type Output = Rat;
    fn sub(self, o: Rat) -> Rat {
        self.checked_sub(o)
            .unwrap_or_else(|| panic!("rational overflow in sub"))
    }
}

impl std::ops::Mul for Rat {
    type Output = Rat;
    fn mul(self, o: Rat) -> Rat {
        self.checked_mul(o)
            .unwrap_or_else(|| panic!("rational overflow in mul"))
    }
}

impl std::ops::Div for Rat {
    type Output = Rat;
    fn div(self, o: Rat) -> Rat {
        assert!(o.num != 0, "division by zero rational");
        self.checked_div(o)
            .unwrap_or_else(|| panic!("rational overflow in div"))
    }
}

impl std::ops::Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, o: &Rat) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl Ord for Rat {
    fn cmp(&self, o: &Rat) -> Ordering {
        // a/b vs c/d (b,d > 0): compare ad vs cb in i128 (values in this
        // workspace are far from the overflow boundary; reduce first).
        let g = gcd(self.den, o.den);
        let (b, d) = (self.den / g, o.den / g);
        (self.num * d).cmp(&(o.num * b))
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n as i128)
    }
}

impl Weight for Rat {
    fn zero() -> Self {
        Rat::ZERO
    }
    fn one() -> Self {
        Rat::ONE
    }
    fn add(&self, other: &Self) -> Self {
        *self + *other
    }
    fn sub(&self, other: &Self) -> Self {
        *self - *other
    }
    fn mul(&self, other: &Self) -> Self {
        *self * *other
    }
    fn div(&self, other: &Self) -> Self {
        *self / *other
    }
    fn checked_add(&self, other: &Self) -> Option<Self> {
        Rat::checked_add(*self, *other)
    }
    fn checked_sub(&self, other: &Self) -> Option<Self> {
        Rat::checked_sub(*self, *other)
    }
    fn checked_mul(&self, other: &Self) -> Option<Self> {
        Rat::checked_mul(*self, *other)
    }
    fn checked_div(&self, other: &Self) -> Option<Self> {
        Rat::checked_div(*self, *other)
    }
    fn is_below_zero(&self) -> bool {
        self.num < 0
    }
}

/// Shorthand: `rat!(3, 10)` is `Rat::new(3, 10)`; `rat!(2)` is the
/// integer 2.
#[macro_export]
macro_rules! rat {
    ($n:expr) => {
        $crate::Rat::int($n as i128)
    };
    ($n:expr, $d:expr) => {
        $crate::Rat::new($n as i128, $d as i128)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 5), Rat::ZERO);
        assert_eq!(Rat::new(3, 1).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = rat!(1, 6);
        let b = rat!(1, 3);
        assert_eq!(a + b, rat!(1, 2));
        assert_eq!(b - a, rat!(1, 6));
        assert_eq!(a * b, rat!(1, 18));
        assert_eq!(a / b, rat!(1, 2));
        assert_eq!(-a, rat!(-1, 6));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = rat!(1) / Rat::ZERO;
    }

    #[test]
    fn ordering() {
        assert!(rat!(1, 3) < rat!(1, 2));
        assert!(rat!(-1, 2) < Rat::ZERO);
        assert_eq!(rat!(2, 4).cmp(&rat!(1, 2)), Ordering::Equal);
    }

    #[test]
    fn probability_range() {
        assert!(rat!(3, 10).is_probability());
        assert!(Rat::ZERO.is_probability());
        assert!(Rat::ONE.is_probability());
        assert!(!rat!(11, 10).is_probability());
        assert!(!rat!(-1, 10).is_probability());
    }

    #[test]
    fn weight_impl() {
        let p = rat!(3, 10);
        assert_eq!(p.complement(), rat!(7, 10));
        assert_eq!(Weight::mul(&p, &rat!(1, 3)), rat!(1, 10));
        assert!(Rat::ZERO.is_zero());
    }

    #[test]
    fn display() {
        assert_eq!(rat!(3, 10).to_string(), "3/10");
        assert_eq!(rat!(4).to_string(), "4");
        assert_eq!(rat!(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn to_f64() {
        assert!((rat!(1, 4).to_f64() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn long_products_stay_exact() {
        // 30 factors of 3/10 and back (denominator 10³⁰ ≪ i128::MAX;
        // ~38 decimal digits is the documented envelope).
        let mut acc = Rat::ONE;
        for _ in 0..30 {
            acc = acc * rat!(3, 10);
        }
        for _ in 0..30 {
            acc = acc / rat!(3, 10);
        }
        assert_eq!(acc, Rat::ONE);
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn overflow_panics_loudly() {
        let mut acc = Rat::ONE;
        for _ in 0..50 {
            acc = acc * rat!(3, 10);
        }
    }

    #[test]
    fn checked_ops_match_operators_in_range() {
        assert_eq!(rat!(1, 6).checked_add(rat!(1, 3)), Some(rat!(1, 2)));
        assert_eq!(rat!(1, 3).checked_sub(rat!(1, 6)), Some(rat!(1, 6)));
        assert_eq!(rat!(1, 6).checked_mul(rat!(1, 3)), Some(rat!(1, 18)));
        assert_eq!(rat!(1, 6).checked_div(rat!(1, 3)), Some(rat!(1, 2)));
    }

    #[test]
    fn checked_ops_report_overflow_as_none() {
        let tiny = Rat::new(1, i128::MAX / 3);
        assert_eq!(tiny.checked_mul(tiny), None);
        let big = Rat::int(i128::MAX);
        assert_eq!(big.checked_add(Rat::ONE), None);
        assert_eq!(Rat::int(i128::MIN).checked_sub(Rat::ONE), None);
        assert_eq!(tiny.checked_div(big), None);
        // Division by zero is `None`, not a panic, in checked form.
        assert_eq!(Rat::ONE.checked_div(Rat::ZERO), None);
        // The Weight-trait checked ops route through the same paths.
        assert_eq!(Weight::checked_mul(&tiny, &tiny), None);
        assert_eq!(Weight::checked_add(&big, &Rat::ONE), None);
        assert_eq!(
            Weight::checked_add(&rat!(1, 4), &rat!(1, 4)),
            Some(rat!(1, 2))
        );
    }
}
