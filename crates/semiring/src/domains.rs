//! Multi-aggregate domains: one `⊗` plus several named semiring `⊕` operators.
//!
//! The general FAQ expression (paper eq. (1)) attaches one aggregate to every
//! bound variable. Different variables may use *different* semiring additions
//! (e.g. `Σ` and `max` in `#QCQ`), but they must all share the same product
//! `⊗`, additive identity `0` and multiplicative identity `1`.
//! [`AggDomain`] captures exactly that structure.

use crate::{Semiring, SemiringElem};

/// Identifier of a semiring addition operator within an [`AggDomain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AggId(pub u32);

impl AggId {
    /// Index into the domain's operator table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Static description of an aggregate operator, used for diagnostics and for
/// the "identical aggregates" analysis of paper §6.1.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggDesc {
    /// Human-readable name, e.g. `"sum"` or `"max"`.
    pub name: &'static str,
}

/// A domain `D` with one product `⊗` and several semiring additions `⊕⁽ᵒᵖ⁾`.
///
/// Requirements mirroring paper §1.2 (validated by property tests):
///
/// * every `(D, ⊕⁽ᵒᵖ⁾, ⊗)` is a commutative semiring;
/// * all operators share the same `0` and `1`;
/// * `0 ⊗ e = 0` for all `e`.
pub trait AggDomain {
    /// The carrier type.
    type E: SemiringElem;

    /// Shared additive identity `0`.
    fn zero(&self) -> Self::E;
    /// Shared multiplicative identity `1`.
    fn one(&self) -> Self::E;
    /// The product `⊗`.
    fn mul(&self, a: &Self::E, b: &Self::E) -> Self::E;
    /// The semiring addition for operator `op`.
    fn add(&self, op: AggId, a: &Self::E, b: &Self::E) -> Self::E;
    /// Number of distinct addition operators.
    fn num_ops(&self) -> usize;
    /// Description of operator `op`.
    fn op_desc(&self, op: AggId) -> AggDesc;

    /// Whether two addition operators are *functionally identical* on `D`
    /// (paper Definition 6.4). Identical aggregates commute and can be merged
    /// into one tag block; different semiring aggregates never commute
    /// (Proposition 6.6).
    fn ops_identical(&self, a: AggId, b: AggId) -> bool {
        a == b
    }

    /// Whether `a` is the shared additive identity.
    fn is_zero(&self, a: &Self::E) -> bool {
        *a == self.zero()
    }

    /// Whether `e ⊗ e = e`.
    fn is_mul_idempotent(&self, e: &Self::E) -> bool {
        self.mul(e, e) == *e
    }

    /// Whether `⊗` is idempotent on the *whole* domain.
    ///
    /// When it is not, the expression-tree construction must fall back to the
    /// general transformation of paper Definition 6.30 (extend every hyperedge
    /// with all product variables).
    fn mul_idempotent_domain(&self) -> bool {
        false
    }

    /// Whether `⊕⁽ᵒᵖ⁾` is *closed* on the `⊗`-idempotent elements `D_I`
    /// (paper §6.2: `a ⊕ b ∈ D_I` whenever `a, b ∈ D_I`).
    ///
    /// Closed aggregates keep sub-expression values idempotent, so product
    /// aggregates commute with them under the `F(D_I)` input promise;
    /// non-closed aggregates (e.g. `Σ` over `ℕ` with `D_I = {0,1}`) must keep
    /// their original order relative to every product variable. The default
    /// is conservative (`false`).
    fn op_closed_under_idempotents(&self, _op: AggId) -> bool {
        false
    }

    /// `a^k` under `⊗` by repeated squaring.
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
}

/// View a single [`Semiring`] as an [`AggDomain`] with one addition operator.
///
/// This is the FAQ-SS ("single semiring") embedding: `SumProd`, joins, PGM
/// marginals etc. all run through the same engine via this adapter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SingleSemiringDomain<S> {
    semiring: S,
}

impl<S: Semiring> SingleSemiringDomain<S> {
    /// Wrap a semiring.
    pub fn new(semiring: S) -> Self {
        SingleSemiringDomain { semiring }
    }

    /// The identifier of the unique addition operator.
    pub const OP: AggId = AggId(0);
}

impl<S: Semiring> AggDomain for SingleSemiringDomain<S> {
    type E = S::E;

    fn zero(&self) -> S::E {
        self.semiring.zero()
    }
    fn one(&self) -> S::E {
        self.semiring.one()
    }
    fn mul(&self, a: &S::E, b: &S::E) -> S::E {
        self.semiring.mul(a, b)
    }
    fn add(&self, op: AggId, a: &S::E, b: &S::E) -> S::E {
        debug_assert_eq!(op, Self::OP);
        self.semiring.add(a, b)
    }
    fn num_ops(&self) -> usize {
        1
    }
    fn op_desc(&self, _op: AggId) -> AggDesc {
        AggDesc { name: "add" }
    }
    fn is_zero(&self, a: &S::E) -> bool {
        self.semiring.is_zero(a)
    }
    fn is_mul_idempotent(&self, e: &S::E) -> bool {
        self.semiring.is_mul_idempotent(e)
    }
}

/// Non-negative reals with additions `Σ` (op 0) and `max` (op 1), product `×`.
///
/// The workhorse mixed-aggregate domain: marginal-MAP queries, Example 5.6,
/// Example 6.2. Both `(ℝ₊, +, ×)` and `(ℝ₊, max, ×)` are commutative semirings
/// sharing `0` and `1`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RealDomain;

impl RealDomain {
    /// `Σ` aggregate.
    pub const SUM: AggId = AggId(0);
    /// `max` aggregate.
    pub const MAX: AggId = AggId(1);
}

impl AggDomain for RealDomain {
    type E = f64;

    fn zero(&self) -> f64 {
        0.0
    }
    fn one(&self) -> f64 {
        1.0
    }
    fn mul(&self, a: &f64, b: &f64) -> f64 {
        a * b
    }
    fn add(&self, op: AggId, a: &f64, b: &f64) -> f64 {
        match op {
            RealDomain::SUM => a + b,
            RealDomain::MAX => a.max(*b),
            _ => panic!("RealDomain has 2 ops, got {op:?}"),
        }
    }
    fn num_ops(&self) -> usize {
        2
    }
    fn op_desc(&self, op: AggId) -> AggDesc {
        match op {
            RealDomain::SUM => AggDesc { name: "sum" },
            RealDomain::MAX => AggDesc { name: "max" },
            _ => panic!("RealDomain has 2 ops, got {op:?}"),
        }
    }
    fn op_closed_under_idempotents(&self, op: AggId) -> bool {
        // D_I = {0, 1}: max is closed, + is not (1 + 1 = 2 ∉ D_I).
        op == RealDomain::MAX
    }
}

/// Unsigned counters with additions `Σ` (op 0) and `max` (op 1), product `×`.
///
/// The `#QCQ` domain (paper Example 1.3): input factors are `{0,1}`-valued,
/// `∃` becomes `max`, `∀` becomes `×`, and the counting head is `Σ` over `ℕ`.
///
/// Arithmetic saturates at `u64::MAX`. Saturation keeps `(D, Σ, ×)` and
/// `(D, max, ×)` commutative semirings (every operator is monotone, so any
/// sub-expression that exceeds the cap evaluates to the cap no matter how the
/// expression is re-associated), which InsideOut relies on: its product-
/// elimination steps power intermediates (paper eq. (8)) that can
/// legitimately exceed `u64` even when later factors shrink the final result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountDomain;

impl CountDomain {
    /// `Σ` aggregate.
    pub const SUM: AggId = AggId(0);
    /// `max` aggregate.
    pub const MAX: AggId = AggId(1);
}

impl AggDomain for CountDomain {
    type E = u64;

    fn zero(&self) -> u64 {
        0
    }
    fn one(&self) -> u64 {
        1
    }
    fn mul(&self, a: &u64, b: &u64) -> u64 {
        a.saturating_mul(*b)
    }
    fn add(&self, op: AggId, a: &u64, b: &u64) -> u64 {
        match op {
            CountDomain::SUM => a.saturating_add(*b),
            CountDomain::MAX => (*a).max(*b),
            _ => panic!("CountDomain has 2 ops, got {op:?}"),
        }
    }
    fn num_ops(&self) -> usize {
        2
    }
    fn op_desc(&self, op: AggId) -> AggDesc {
        match op {
            CountDomain::SUM => AggDesc { name: "sum" },
            CountDomain::MAX => AggDesc { name: "max" },
            _ => panic!("CountDomain has 2 ops, got {op:?}"),
        }
    }
    fn op_closed_under_idempotents(&self, op: AggId) -> bool {
        // D_I = {0, 1}: max is closed, + is not.
        op == CountDomain::MAX
    }
}

/// Booleans with one addition `∨` (op 0) and product `∧`.
///
/// The QCQ domain: `∃` is the semiring aggregate `∨`, `∀` is the product `∧`.
/// `∧` is idempotent on all of `{false,true}`, so QCQ instances never need the
/// powering step and qualify for the idempotent expression-tree construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoolDomain;

impl BoolDomain {
    /// `∨` aggregate.
    pub const OR: AggId = AggId(0);
}

impl AggDomain for BoolDomain {
    type E = bool;

    fn zero(&self) -> bool {
        false
    }
    fn one(&self) -> bool {
        true
    }
    fn mul(&self, a: &bool, b: &bool) -> bool {
        *a && *b
    }
    fn add(&self, op: AggId, a: &bool, b: &bool) -> bool {
        debug_assert_eq!(op, BoolDomain::OR);
        *a || *b
    }
    fn num_ops(&self) -> usize {
        1
    }
    fn op_desc(&self, _op: AggId) -> AggDesc {
        AggDesc { name: "or" }
    }
    fn mul_idempotent_domain(&self) -> bool {
        true
    }
    fn op_closed_under_idempotents(&self, _op: AggId) -> bool {
        true // ∨ on {false, true} = D_I
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semirings::CountSumProd;

    fn check_domain_laws<D: AggDomain>(d: &D, samples: &[D::E]) {
        let zero = d.zero();
        let one = d.one();
        for op_idx in 0..d.num_ops() {
            let op = AggId(op_idx as u32);
            for a in samples {
                assert_eq!(d.add(op, a, &zero), *a, "additive identity for op {op:?}");
                assert_eq!(d.mul(a, &one), *a);
                assert_eq!(d.mul(a, &zero), zero);
                for b in samples {
                    assert_eq!(d.add(op, a, b), d.add(op, b, a));
                    for c in samples {
                        assert_eq!(d.add(op, &d.add(op, a, b), c), d.add(op, a, &d.add(op, b, c)));
                        assert_eq!(
                            d.mul(a, &d.add(op, b, c)),
                            d.add(op, &d.mul(a, b), &d.mul(a, c)),
                            "distributivity for op {op:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn real_domain_laws() {
        check_domain_laws(&RealDomain, &[0.0, 1.0, 0.5, 2.0, 4.0]);
    }

    #[test]
    fn count_domain_laws() {
        check_domain_laws(&CountDomain, &[0, 1, 2, 5]);
    }

    #[test]
    fn bool_domain_laws() {
        check_domain_laws(&BoolDomain, &[false, true]);
        assert!(BoolDomain.mul_idempotent_domain());
    }

    #[test]
    fn single_semiring_adapter() {
        let d = SingleSemiringDomain::new(CountSumProd);
        check_domain_laws(&d, &[0, 1, 2, 3]);
        assert_eq!(d.num_ops(), 1);
        assert_eq!(d.add(SingleSemiringDomain::<CountSumProd>::OP, &2, &3), 5);
    }

    #[test]
    fn pow_by_squaring() {
        let d = RealDomain;
        assert_eq!(d.pow(&2.0, 10), 1024.0);
        assert_eq!(d.pow(&3.0, 0), 1.0);
        let c = CountDomain;
        assert_eq!(c.pow(&2, 16), 65536);
    }

    #[test]
    fn ops_identical_is_reflexive_only_by_default() {
        let d = RealDomain;
        assert!(d.ops_identical(RealDomain::SUM, RealDomain::SUM));
        assert!(!d.ops_identical(RealDomain::SUM, RealDomain::MAX));
    }
}
