//! A library of concrete commutative semirings.
//!
//! Each semiring corresponds to a family of FAQ applications (paper Appendix A):
//!
//! | semiring | applications |
//! |---|---|
//! | [`BoolSemiring`] `({0,1}, ∨, ∧)` | SAT, BCQ, CSP, joins |
//! | [`CountSumProd`] `(ℕ, +, ×)` | #SAT, #CQ, triangle counting, permanent |
//! | [`F64SumProd`] `(ℝ, +, ×)` | PGM marginals, partition functions |
//! | [`F64MaxProd`] `(ℝ₊, max, ×)` | MAP / MPE inference |
//! | [`MinPlus`] / [`MaxPlus`] | shortest paths, log-space Viterbi |
//! | [`Or01`] `({0,1}, 01-OR, ⊗)` | the output/"freeness" semiring of §5.2.3 |
//! | [`SetSemiring`] `(2^U, ∪, ∩)` | provenance-style reasoning |
//! | [`ComplexSumProd`] `(ℂ, +, ×)` | DFT/FFT (Table 1 row DFT) |
//! | [`ModularSumProd`] `(ℤ_m, +, ×)` | counting modulo m |

use crate::complex::Complex64;
use crate::Semiring;
use std::collections::BTreeSet;

/// The Boolean semiring `({false,true}, ∨, ∧)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoolSemiring;

impl Semiring for BoolSemiring {
    type E = bool;
    fn zero(&self) -> bool {
        false
    }
    fn one(&self) -> bool {
        true
    }
    fn add(&self, a: &bool, b: &bool) -> bool {
        *a || *b
    }
    fn mul(&self, a: &bool, b: &bool) -> bool {
        *a && *b
    }
}

/// The counting semiring `(u64, +, ×)`.
///
/// Used for exact model counting; panics on overflow in debug builds (standard
/// Rust semantics), which the tests rely on to catch unexpectedly large counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountSumProd;

impl Semiring for CountSumProd {
    type E = u64;
    fn zero(&self) -> u64 {
        0
    }
    fn one(&self) -> u64 {
        1
    }
    fn add(&self, a: &u64, b: &u64) -> u64 {
        a + b
    }
    fn mul(&self, a: &u64, b: &u64) -> u64 {
        a * b
    }
}

/// The real sum-product semiring `(f64, +, ×)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct F64SumProd;

impl Semiring for F64SumProd {
    type E = f64;
    fn zero(&self) -> f64 {
        0.0
    }
    fn one(&self) -> f64 {
        1.0
    }
    fn add(&self, a: &f64, b: &f64) -> f64 {
        a + b
    }
    fn mul(&self, a: &f64, b: &f64) -> f64 {
        a * b
    }
}

/// The max-product semiring `(ℝ₊, max, ×)` over non-negative reals.
///
/// The canonical MAP/MPE inference semiring (paper Example 1.2). The carrier is
/// `f64` restricted to non-negative values; `0` is both the additive identity
/// and the product annihilator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct F64MaxProd;

impl Semiring for F64MaxProd {
    type E = f64;
    fn zero(&self) -> f64 {
        0.0
    }
    fn one(&self) -> f64 {
        1.0
    }
    fn add(&self, a: &f64, b: &f64) -> f64 {
        a.max(*b)
    }
    fn mul(&self, a: &f64, b: &f64) -> f64 {
        a * b
    }
}

/// The tropical min-plus semiring `(ℝ ∪ {∞}, min, +)`.
///
/// `zero = +∞`, `one = 0`. Useful for shortest-path-style dynamic programs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MinPlus;

impl Semiring for MinPlus {
    type E = f64;
    fn zero(&self) -> f64 {
        f64::INFINITY
    }
    fn one(&self) -> f64 {
        0.0
    }
    fn add(&self, a: &f64, b: &f64) -> f64 {
        a.min(*b)
    }
    fn mul(&self, a: &f64, b: &f64) -> f64 {
        a + b
    }
}

/// The tropical max-plus semiring `(ℝ ∪ {−∞}, max, +)` — MAP in log space.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaxPlus;

impl Semiring for MaxPlus {
    type E = f64;
    fn zero(&self) -> f64 {
        f64::NEG_INFINITY
    }
    fn one(&self) -> f64 {
        0.0
    }
    fn add(&self, a: &f64, b: &f64) -> f64 {
        a.max(*b)
    }
    fn mul(&self, a: &f64, b: &f64) -> f64 {
        a + b
    }
}

/// The `01-OR` output semiring of paper Definition 5.3, specialized to `{0,1} ⊆ u8`.
///
/// `(01-OR, ⊗)` over `{0,1}`: `a 01 b = 0` iff `a = b = 0`. InsideOut uses this
/// semiring to eliminate *free* variables, turning "freeness" into a semiring
/// aggregate and recovering Yannakakis' algorithm (paper §5.2.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Or01;

impl Semiring for Or01 {
    type E = u8;
    fn zero(&self) -> u8 {
        0
    }
    fn one(&self) -> u8 {
        1
    }
    fn add(&self, a: &u8, b: &u8) -> u8 {
        if *a == 0 && *b == 0 {
            0
        } else {
            1
        }
    }
    fn mul(&self, a: &u8, b: &u8) -> u8 {
        if *a == 0 || *b == 0 {
            0
        } else {
            1
        }
    }
}

/// The set semiring `(2^U, ∪, ∩)` for a universe `{0, 1, …, universe−1}`.
///
/// `zero = ∅` and `one = U`. A stateful semiring: the universe travels with the
/// instance, demonstrating why [`Semiring`] methods take `&self`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetSemiring {
    universe: u32,
}

impl SetSemiring {
    /// A set semiring over the universe `{0, …, universe−1}`.
    pub fn new(universe: u32) -> Self {
        SetSemiring { universe }
    }

    /// The full universe as an element.
    pub(crate) fn universe_set(&self) -> BTreeSet<u32> {
        (0..self.universe).collect()
    }
}

impl Semiring for SetSemiring {
    type E = BTreeSet<u32>;
    fn zero(&self) -> BTreeSet<u32> {
        BTreeSet::new()
    }
    fn one(&self) -> BTreeSet<u32> {
        self.universe_set()
    }
    fn add(&self, a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> BTreeSet<u32> {
        a.union(b).copied().collect()
    }
    fn mul(&self, a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> BTreeSet<u32> {
        a.intersection(b).copied().collect()
    }
    fn is_zero(&self, a: &BTreeSet<u32>) -> bool {
        a.is_empty()
    }
}

/// The complex sum-product semiring `(ℂ, +, ×)` — a field, used for the DFT.
///
/// `is_zero` uses a small tolerance so that floating-point cancellation noise
/// does not blow up intermediate listing representations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplexSumProd {
    /// Magnitudes below this threshold are treated as the additive identity.
    pub eps: f64,
}

impl Default for ComplexSumProd {
    fn default() -> Self {
        ComplexSumProd { eps: 0.0 }
    }
}

impl Semiring for ComplexSumProd {
    type E = Complex64;
    fn zero(&self) -> Complex64 {
        Complex64::ZERO
    }
    fn one(&self) -> Complex64 {
        Complex64::ONE
    }
    fn add(&self, a: &Complex64, b: &Complex64) -> Complex64 {
        *a + *b
    }
    fn mul(&self, a: &Complex64, b: &Complex64) -> Complex64 {
        *a * *b
    }
    fn is_zero(&self, a: &Complex64) -> bool {
        if self.eps == 0.0 {
            *a == Complex64::ZERO
        } else {
            a.abs() <= self.eps
        }
    }
}

/// Sum-product arithmetic modulo `m`: `(ℤ_m, +, ×)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModularSumProd {
    modulus: u64,
}

impl ModularSumProd {
    /// Arithmetic modulo `modulus` (must be ≥ 2).
    pub fn new(modulus: u64) -> Self {
        assert!(modulus >= 2, "modulus must be at least 2");
        ModularSumProd { modulus }
    }
}

impl Semiring for ModularSumProd {
    type E = u64;
    fn zero(&self) -> u64 {
        0
    }
    fn one(&self) -> u64 {
        1 % self.modulus
    }
    fn add(&self, a: &u64, b: &u64) -> u64 {
        (a + b) % self.modulus
    }
    fn mul(&self, a: &u64, b: &u64) -> u64 {
        (a * b) % self.modulus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Check the semiring laws on a slice of sample elements.
    fn check_laws<S: Semiring>(s: &S, samples: &[S::E]) {
        let zero = s.zero();
        let one = s.one();
        for a in samples {
            assert_eq!(s.add(a, &zero), *a, "additive identity");
            assert_eq!(s.mul(a, &one), *a, "multiplicative identity");
            assert_eq!(s.mul(a, &zero), zero, "annihilation");
            for b in samples {
                assert_eq!(s.add(a, b), s.add(b, a), "⊕ commutativity");
                assert_eq!(s.mul(a, b), s.mul(b, a), "⊗ commutativity");
                for c in samples {
                    assert_eq!(s.add(&s.add(a, b), c), s.add(a, &s.add(b, c)), "⊕ associativity");
                    assert_eq!(s.mul(&s.mul(a, b), c), s.mul(a, &s.mul(b, c)), "⊗ associativity");
                    assert_eq!(
                        s.mul(a, &s.add(b, c)),
                        s.add(&s.mul(a, b), &s.mul(a, c)),
                        "distributivity"
                    );
                }
            }
        }
    }

    #[test]
    fn bool_laws() {
        check_laws(&BoolSemiring, &[false, true]);
    }

    #[test]
    fn count_laws() {
        check_laws(&CountSumProd, &[0, 1, 2, 3, 7]);
    }

    #[test]
    fn f64_sum_prod_laws() {
        check_laws(&F64SumProd, &[0.0, 1.0, 2.0, 0.5]);
    }

    #[test]
    fn max_prod_laws() {
        check_laws(&F64MaxProd, &[0.0, 1.0, 2.0, 0.5]);
    }

    #[test]
    fn min_plus_laws() {
        check_laws(&MinPlus, &[f64::INFINITY, 0.0, 1.0, 2.5, -3.0]);
    }

    #[test]
    fn max_plus_laws() {
        check_laws(&MaxPlus, &[f64::NEG_INFINITY, 0.0, 1.0, 2.5, -3.0]);
    }

    #[test]
    fn or01_laws() {
        check_laws(&Or01, &[0, 1]);
    }

    #[test]
    fn set_laws() {
        let s = SetSemiring::new(4);
        let samples: Vec<BTreeSet<u32>> = vec![
            BTreeSet::new(),
            [0u32].into_iter().collect(),
            [1u32, 2].into_iter().collect(),
            [0u32, 1, 2, 3].into_iter().collect(),
        ];
        check_laws(&s, &samples);
    }

    #[test]
    fn modular_laws() {
        check_laws(&ModularSumProd::new(7), &[0, 1, 2, 3, 6]);
    }

    #[test]
    fn complex_identities() {
        let s = ComplexSumProd::default();
        let a = Complex64::new(1.5, -0.5);
        assert_eq!(s.add(&a, &s.zero()), a);
        assert_eq!(s.mul(&a, &s.one()), a);
        assert_eq!(s.mul(&a, &s.zero()), s.zero());
        assert!(ComplexSumProd { eps: 1e-9 }.is_zero(&Complex64::new(1e-12, -1e-12)));
    }

    #[test]
    fn or01_matches_definition_5_3() {
        let s = Or01;
        assert_eq!(s.add(&0, &0), 0);
        assert_eq!(s.add(&0, &1), 1);
        assert_eq!(s.add(&1, &0), 1);
        assert_eq!(s.add(&1, &1), 1);
    }

    #[test]
    fn modular_one_is_reduced() {
        let s = ModularSumProd::new(2);
        assert_eq!(s.one(), 1);
        assert_eq!(s.add(&1, &1), 0);
    }
}
