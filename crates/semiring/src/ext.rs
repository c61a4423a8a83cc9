//! Semiring combinators and "non-semiring aggregates as semirings" tricks.
//!
//! Paper Appendix B observes that several useful aggregates that are not
//! semiring additions on their face become semiring additions after lifting
//! the carrier. The classic example is `average`, which is a projection of the
//! `(sum, count)` pair semiring. This module provides:
//!
//! * [`PairSemiring`] — the product of two semirings, component-wise;
//! * [`AvgPair`] / [`avg_of`] — the average-as-semiring lifting.

use crate::{Semiring, SemiringElem};

/// The product semiring `S × T` with component-wise operations.
///
/// If `(D₁, ⊕₁, ⊗₁)` and `(D₂, ⊕₂, ⊗₂)` are commutative semirings then so is
/// `(D₁ × D₂, ⊕, ⊗)` with both operations applied component-wise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairSemiring<S, T> {
    /// Left component semiring.
    pub left: S,
    /// Right component semiring.
    pub right: T,
}

impl<S: Semiring, T: Semiring> PairSemiring<S, T> {
    /// Build the product of two semirings.
    pub fn new(left: S, right: T) -> Self {
        PairSemiring { left, right }
    }
}

impl<S: Semiring, T: Semiring> Semiring for PairSemiring<S, T>
where
    (S::E, T::E): SemiringElem,
{
    type E = (S::E, T::E);

    fn zero(&self) -> Self::E {
        (self.left.zero(), self.right.zero())
    }
    fn one(&self) -> Self::E {
        (self.left.one(), self.right.one())
    }
    fn add(&self, a: &Self::E, b: &Self::E) -> Self::E {
        (self.left.add(&a.0, &b.0), self.right.add(&a.1, &b.1))
    }
    fn mul(&self, a: &Self::E, b: &Self::E) -> Self::E {
        (self.left.mul(&a.0, &b.0), self.right.mul(&a.1, &b.1))
    }
}

/// `(sum, count)` pairs: the lifting that turns `average` into a semiring
/// aggregate (paper Appendix B).
pub type AvgPair = (f64, f64);

/// Project an accumulated `(sum, count)` pair to the average it represents.
///
/// Returns `None` for an empty aggregate (count 0).
pub fn avg_of(pair: &AvgPair) -> Option<f64> {
    if pair.1 == 0.0 {
        None
    } else {
        Some(pair.0 / pair.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semirings::{CountSumProd, F64SumProd};

    #[test]
    fn pair_semiring_componentwise() {
        let s = PairSemiring::new(F64SumProd, CountSumProd);
        let a = (2.0, 3u64);
        let b = (5.0, 7u64);
        assert_eq!(s.add(&a, &b), (7.0, 10));
        assert_eq!(s.mul(&a, &b), (10.0, 21));
        assert_eq!(s.zero(), (0.0, 0));
        assert_eq!(s.one(), (1.0, 1));
    }

    #[test]
    fn average_via_pair() {
        let s = PairSemiring::new(F64SumProd, F64SumProd);
        // "average of {2, 4, 9}" accumulated as (sum, count) pairs.
        let acc =
            [(2.0, 1.0), (4.0, 1.0), (9.0, 1.0)].iter().fold(s.zero(), |acc, x| s.add(&acc, x));
        assert_eq!(avg_of(&acc), Some(5.0));
        assert_eq!(avg_of(&s.zero()), None);
    }
}
