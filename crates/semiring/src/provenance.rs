//! Provenance polynomials: the free commutative semiring `ℕ[X]`.
//!
//! Annotating each input tuple with an indeterminate and evaluating a FAQ
//! query over `ℕ[X]` yields, for every output tuple, the polynomial recording
//! *how* it was derived (which input tuples, combined how many ways) — the
//! classical `ℕ[X]` provenance of Green–Karvounarakis–Tannen, and the
//! algebraic face of the factorized representations the paper relates to
//! (§2.2, §8.4). Because `ℕ[X]` is the free commutative semiring, any
//! semiring-homomorphic question (counting, Boolean, cost) can be answered
//! after the fact by evaluating the polynomial.

use crate::Semiring;
use std::collections::BTreeMap;
use std::fmt;

/// A monomial: indeterminate id → exponent (empty = the constant monomial).
pub(crate) type Monomial = BTreeMap<u32, u32>;

/// A polynomial in `ℕ[x₀, x₁, …]` with `u64` coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Polynomial {
    /// monomial → coefficient (no zero coefficients stored).
    terms: BTreeMap<Monomial, u64>,
}

impl Polynomial {
    /// The zero polynomial.
    pub fn zero() -> Polynomial {
        Polynomial::default()
    }

    /// The constant 1.
    pub(crate) fn one() -> Polynomial {
        Polynomial::constant(1)
    }

    /// A constant polynomial.
    pub(crate) fn constant(c: u64) -> Polynomial {
        let mut terms = BTreeMap::new();
        if c != 0 {
            terms.insert(Monomial::new(), c);
        }
        Polynomial { terms }
    }

    /// The indeterminate `x_id`.
    pub fn var(id: u32) -> Polynomial {
        let mut m = Monomial::new();
        m.insert(id, 1);
        let mut terms = BTreeMap::new();
        terms.insert(m, 1);
        Polynomial { terms }
    }

    /// Number of monomials.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Whether this is the zero polynomial.
    pub(crate) fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Total degree (0 for constants and zero).
    pub fn degree(&self) -> u32 {
        self.terms.keys().map(|m| m.values().sum::<u32>()).max().unwrap_or(0)
    }

    /// Evaluate under an assignment of the indeterminates (missing ids → the
    /// provided default). Evaluation is the semiring homomorphism `ℕ[X] → ℕ`.
    pub fn eval(&self, assignment: &BTreeMap<u32, u64>, default: u64) -> u64 {
        let mut total = 0u64;
        for (m, &c) in &self.terms {
            let mut term = c;
            for (&id, &e) in m {
                let base = assignment.get(&id).copied().unwrap_or(default);
                for _ in 0..e {
                    term = term.saturating_mul(base);
                }
            }
            total = total.saturating_add(term);
        }
        total
    }

    fn add(&self, other: &Polynomial) -> Polynomial {
        let mut terms = self.terms.clone();
        for (m, &c) in &other.terms {
            let entry = terms.entry(m.clone()).or_insert(0);
            *entry += c;
        }
        terms.retain(|_, c| *c != 0);
        Polynomial { terms }
    }

    fn mul(&self, other: &Polynomial) -> Polynomial {
        let mut terms: BTreeMap<Monomial, u64> = BTreeMap::new();
        for (ma, &ca) in &self.terms {
            for (mb, &cb) in &other.terms {
                let mut m = ma.clone();
                for (&id, &e) in mb {
                    *m.entry(id).or_insert(0) += e;
                }
                *terms.entry(m).or_insert(0) += ca * cb;
            }
        }
        terms.retain(|_, c| *c != 0);
        Polynomial { terms }
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        let rendered: Vec<String> = self
            .terms
            .iter()
            .map(|(m, c)| {
                let mut parts: Vec<String> = Vec::new();
                if *c != 1 || m.is_empty() {
                    parts.push(c.to_string());
                }
                for (id, e) in m {
                    if *e == 1 {
                        parts.push(format!("x{id}"));
                    } else {
                        parts.push(format!("x{id}^{e}"));
                    }
                }
                parts.join("·")
            })
            .collect();
        write!(f, "{}", rendered.join(" + "))
    }
}

/// The provenance semiring `(ℕ[X], +, ×)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProvenanceSemiring;

impl Semiring for ProvenanceSemiring {
    type E = Polynomial;
    fn zero(&self) -> Polynomial {
        Polynomial::zero()
    }
    fn one(&self) -> Polynomial {
        Polynomial::one()
    }
    fn add(&self, a: &Polynomial, b: &Polynomial) -> Polynomial {
        a.add(b)
    }
    fn mul(&self, a: &Polynomial, b: &Polynomial) -> Polynomial {
        a.mul(b)
    }
    fn is_zero(&self, a: &Polynomial) -> bool {
        a.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semiring_laws_on_samples() {
        let s = ProvenanceSemiring;
        let samples = [
            Polynomial::zero(),
            Polynomial::one(),
            Polynomial::var(0),
            Polynomial::var(1),
            Polynomial::var(0).add(&Polynomial::var(1)),
            Polynomial::var(0).mul(&Polynomial::var(0)),
            Polynomial::constant(3),
        ];
        for a in &samples {
            assert_eq!(s.add(a, &s.zero()), *a);
            assert_eq!(s.mul(a, &s.one()), *a);
            assert_eq!(s.mul(a, &s.zero()), s.zero());
            for b in &samples {
                assert_eq!(s.add(a, b), s.add(b, a));
                assert_eq!(s.mul(a, b), s.mul(b, a));
                for c in &samples {
                    assert_eq!(s.mul(a, &s.add(b, c)), s.add(&s.mul(a, b), &s.mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn polynomial_arithmetic() {
        // (x0 + x1)² = x0² + 2·x0·x1 + x1².
        let p = Polynomial::var(0).add(&Polynomial::var(1));
        let sq = p.mul(&p);
        assert_eq!(sq.num_terms(), 3);
        assert_eq!(sq.degree(), 2);
        let mut assign = BTreeMap::new();
        assign.insert(0, 2u64);
        assign.insert(1, 3u64);
        assert_eq!(sq.eval(&assign, 0), 25);
    }

    #[test]
    fn evaluation_is_homomorphic() {
        // eval(a + b) = eval(a) + eval(b); eval(a·b) = eval(a)·eval(b).
        let a = Polynomial::var(0).add(&Polynomial::constant(2));
        let b = Polynomial::var(1).mul(&Polynomial::var(0));
        let mut env = BTreeMap::new();
        env.insert(0, 5u64);
        env.insert(1, 7u64);
        assert_eq!(a.add(&b).eval(&env, 0), a.eval(&env, 0) + b.eval(&env, 0));
        assert_eq!(a.mul(&b).eval(&env, 0), a.eval(&env, 0) * b.eval(&env, 0));
    }

    #[test]
    fn display_is_readable() {
        let p = Polynomial::var(0).mul(&Polynomial::var(0)).add(&Polynomial::constant(2));
        assert_eq!(p.to_string(), "2 + x0^2");
    }
}
