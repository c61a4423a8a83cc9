//! Commutative semirings and multi-aggregate domains for FAQ queries.
//!
//! The FAQ problem (Abo Khamis, Ngo, Rudra — PODS 2016, §1.2) is defined over a
//! fixed domain `D` carrying one *product* operator `⊗` and, for every bound
//! variable, either `⊗` itself or a semiring "addition" `⊕⁽ⁱ⁾` such that
//! `(D, ⊕⁽ⁱ⁾, ⊗)` is a commutative semiring. All semirings share the same
//! additive identity `0` (which annihilates `⊗`) and multiplicative identity `1`.
//!
//! This crate provides:
//!
//! * [`Semiring`] — a single commutative semiring `(D, ⊕, ⊗)`, used by the
//!   FAQ-SS ("single semiring") fast path and by substrate algorithms.
//! * [`AggDomain`] — a domain with one `⊗` and *several* named `⊕` operators,
//!   used by the general mixed-aggregate FAQ engine (max/sum/product queries,
//!   `#QCQ`, …).
//! * A library of concrete semirings: Boolean, counting, real sum-product,
//!   max-product ("Viterbi"), tropical min-plus/max-plus, the `01-OR` output
//!   semiring of §5.2.3, the set semiring, complex sum-product (for the DFT),
//!   modular arithmetic, and product-of-semirings combinators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod complex;
mod domains;
pub mod ext;
mod instrument;
mod provenance;
mod semirings;

pub use complex::Complex64;
pub use domains::{
    AggDesc, AggDomain, AggId, BoolDomain, CountDomain, RealDomain, SingleSemiringDomain,
};
pub use instrument::{InstrumentedDomain, OpCounters};
pub use provenance::{Polynomial, ProvenanceSemiring};
pub use semirings::{
    BoolSemiring, ComplexSumProd, CountSumProd, F64MaxProd, F64SumProd, MaxPlus, MinPlus,
    ModularSumProd, Or01, SetSemiring,
};

use std::fmt::Debug;

/// Marker bound for semiring element types.
///
/// Everything the engine stores in factors must be cloneable, comparable (to
/// detect explicit zeros) and debuggable (for diagnostics). Elements must
/// also be `Send + Sync`: the parallel InsideOut engine shares factors across
/// a scoped worker pool and sends per-chunk results back to the coordinator.
/// All carrier types in this crate (`bool`, `u64`, `f64`, `u8`, `Complex64`,
/// `BTreeSet<u32>`, pairs, [`Polynomial`]) are plain data and satisfy the
/// bound automatically.
pub trait SemiringElem: Clone + PartialEq + Debug + Send + Sync {}
impl<T: Clone + PartialEq + Debug + Send + Sync> SemiringElem for T {}

/// A commutative semiring `(D, ⊕, ⊗)`.
///
/// Laws (checked by the property tests in this crate):
///
/// * `(D, ⊕)` is a commutative monoid with identity [`Semiring::zero`];
/// * `(D, ⊗)` is a commutative monoid with identity [`Semiring::one`];
/// * `⊗` distributes over `⊕`;
/// * `zero ⊗ e = e ⊗ zero = zero` for every `e`.
///
/// Operations take `&self` so that stateful semirings (e.g. the set semiring,
/// which carries its universe) can be expressed.
pub trait Semiring {
    /// The carrier type of the semiring.
    type E: SemiringElem;

    /// The additive identity `0` (also the annihilator of `⊗`).
    fn zero(&self) -> Self::E;
    /// The multiplicative identity `1`.
    fn one(&self) -> Self::E;
    /// The semiring addition `⊕`.
    fn add(&self, a: &Self::E, b: &Self::E) -> Self::E;
    /// The semiring multiplication `⊗`.
    fn mul(&self, a: &Self::E, b: &Self::E) -> Self::E;

    /// Whether `a` is the additive identity. Listing-representation factors drop
    /// explicit zeros, so the engine consults this after every combination step.
    fn is_zero(&self, a: &Self::E) -> bool {
        *a == self.zero()
    }

    /// `a^k` under `⊗` by repeated squaring (`a^0 = 1`).
    ///
    /// Used when a product aggregate "passes through" a factor that does not
    /// contain the eliminated variable (paper eq. (8)).
    fn pow(&self, a: &Self::E, mut k: u64) -> Self::E {
        let mut base = a.clone();
        let mut acc = self.one();
        while k > 0 {
            if k & 1 == 1 {
                acc = self.mul(&acc, &base);
            }
            k >>= 1;
            if k > 0 {
                base = self.mul(&base, &base);
            }
        }
        acc
    }

    /// Fold an iterator with `⊕`, starting from `0`.
    fn sum<'a, I: IntoIterator<Item = &'a Self::E>>(&self, iter: I) -> Self::E
    where
        Self::E: 'a,
    {
        iter.into_iter().fold(self.zero(), |acc, x| self.add(&acc, x))
    }

    /// Fold an iterator with `⊗`, starting from `1`.
    fn product<'a, I: IntoIterator<Item = &'a Self::E>>(&self, iter: I) -> Self::E
    where
        Self::E: 'a,
    {
        iter.into_iter().fold(self.one(), |acc, x| self.mul(&acc, x))
    }

    /// Whether `e ⊗ e = e` (an idempotent element of the product monoid).
    ///
    /// Idempotent product aggregates (paper Definition 5.2) let InsideOut skip
    /// the `|Dom(X_k)|`-th powering step.
    fn is_mul_idempotent(&self, e: &Self::E) -> bool {
        self.mul(e, e) == *e
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn pow_matches_iterated_mul() {
        let s = CountSumProd;
        for base in 0u64..5 {
            let mut expect = 1u64;
            for k in 0u64..8 {
                assert_eq!(s.pow(&base, k), expect, "{base}^{k}");
                expect *= base;
            }
        }
    }

    #[test]
    fn sum_and_product_fold() {
        let s = CountSumProd;
        let xs = [1u64, 2, 3, 4];
        assert_eq!(s.sum(xs.iter()), 10);
        assert_eq!(s.product(xs.iter()), 24);
        let empty: [u64; 0] = [];
        assert_eq!(s.sum(empty.iter()), 0);
        assert_eq!(s.product(empty.iter()), 1);
    }

    #[test]
    fn idempotence_detection() {
        let b = BoolSemiring;
        assert!(b.is_mul_idempotent(&true));
        assert!(b.is_mul_idempotent(&false));
        let c = CountSumProd;
        assert!(c.is_mul_idempotent(&0));
        assert!(c.is_mul_idempotent(&1));
        assert!(!c.is_mul_idempotent(&2));
    }
}
