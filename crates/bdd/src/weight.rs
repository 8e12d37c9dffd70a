//! The numeric abstraction for weighted model counting.
//!
//! Probability computations in this workspace run either on `f64` (fast,
//! benchmarkable) or on exact rationals (`ipdb-prob::Rat`, so the
//! distribution-equality theorems — Thms 8/9 — are testable without
//! tolerances). [`Weight`] is the small commutative-semiring-with-
//! subtraction interface both satisfy; both probability engines (BDD
//! WMC and valuation enumeration) are generic over it.

/// A weight type for model counting: a commutative semiring with
/// subtraction and division (a field restricted to the operations WMC
/// needs).
pub trait Weight: Clone + PartialEq + std::fmt::Debug {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Addition.
    fn add(&self, other: &Self) -> Self;
    /// Subtraction (used for complements `1 − p`).
    fn sub(&self, other: &Self) -> Self;
    /// Multiplication.
    fn mul(&self, other: &Self) -> Self;
    /// Division (used for conditioning / normalization; callers never
    /// divide by zero).
    fn div(&self, other: &Self) -> Self;

    /// `1 − self`, the complement of a probability.
    fn complement(&self) -> Self {
        Self::one().sub(self)
    }

    /// Whether this equals the additive identity.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// Whether this is below zero — no probability or weight of a
    /// distribution may be.
    fn is_below_zero(&self) -> bool;

    /// Checked addition: `None` when the result leaves the type's
    /// representable range. The default forwards to [`Weight::add`] —
    /// right for types that saturate or lose precision instead of
    /// overflowing (`f64`); exact types (`Rat`) override it so model
    /// counting and normalization can report
    /// overflow instead of panicking.
    fn checked_add(&self, other: &Self) -> Option<Self> {
        Some(self.add(other))
    }

    /// Checked subtraction (see [`Weight::checked_add`]).
    fn checked_sub(&self, other: &Self) -> Option<Self> {
        Some(self.sub(other))
    }

    /// Checked multiplication (see [`Weight::checked_add`]).
    fn checked_mul(&self, other: &Self) -> Option<Self> {
        Some(self.mul(other))
    }

    /// Checked division. Exact types override this to return `None` on
    /// overflow *or* a zero divisor; the default forwards to
    /// [`Weight::div`], so lossy types (`f64`) keep their own division
    /// semantics (`Some(inf)`/`Some(NaN)` rather than `None`).
    fn checked_div(&self, other: &Self) -> Option<Self> {
        Some(self.div(other))
    }
}

impl Weight for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn sub(&self, other: &Self) -> Self {
        self - other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn div(&self, other: &Self) -> Self {
        self / other
    }
    fn is_below_zero(&self) -> bool {
        *self < 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_weight_ops() {
        let a = 0.25f64;
        assert_eq!(a.add(&0.5), 0.75);
        assert_eq!(a.mul(&2.0), 0.5);
        assert_eq!(a.sub(&0.25), 0.0);
        assert_eq!(a.div(&0.5), 0.5);
        assert_eq!(a.complement(), 0.75);
        assert!(f64::zero().is_zero());
        assert!(!f64::one().is_zero());
        assert!((-0.25f64).is_below_zero());
        assert!(!0.0f64.is_below_zero() && !(-0.0f64).is_below_zero());
    }
}
