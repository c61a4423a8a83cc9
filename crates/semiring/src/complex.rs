//! A minimal complex-number type for the DFT reduction (paper Table 1, row DFT).
//!
//! Implemented in-repo rather than pulling `num-complex`: the FAQ engine only
//! needs addition, multiplication and roots of unity.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub};

/// A complex number with `f64` components.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The complex zero.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The complex one.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };

    /// Construct from rectangular components.
    pub fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    pub(crate) fn cis(theta: f64) -> Self {
        Complex64 { re: theta.cos(), im: theta.sin() }
    }

    /// The primitive `n`-th root of unity raised to the `k`-th power: `e^{2πik/n}`.
    pub fn root_of_unity(n: u64, k: u64) -> Self {
        Self::cis(2.0 * std::f64::consts::PI * (k % n) as f64 / n as f64)
    }

    /// Squared modulus `|z|²`.
    pub(crate) fn norm_sqr(&self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    pub fn abs(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Complex conjugate.
    pub fn conj(&self) -> Self {
        Complex64 { re: self.re, im: -self.im }
    }

    /// Whether both components are within `eps` of `other`'s.
    pub fn approx_eq(&self, other: &Self, eps: f64) -> bool {
        (self.re - other.re).abs() <= eps && (self.im - other.im).abs() <= eps
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64 { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64 { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64 { re: -self.re, im: -self.im }
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex64 {
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        assert_eq!(a + b, Complex64::new(4.0, 1.0));
        assert_eq!(a - b, Complex64::new(-2.0, 3.0));
        // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert_eq!(a * b, Complex64::new(5.0, 5.0));
        assert_eq!(-a, Complex64::new(-1.0, -2.0));
        assert_eq!(a.conj(), Complex64::new(1.0, -2.0));
    }

    #[test]
    fn roots_of_unity_cycle() {
        let n = 8;
        for k in 0..n {
            let w = Complex64::root_of_unity(n, k);
            // w^n should be 1.
            let mut acc = Complex64::ONE;
            for _ in 0..n {
                acc *= w;
            }
            assert!(acc.approx_eq(&Complex64::ONE, 1e-9), "k={k}: {acc:?}");
        }
        // Sum of all n-th roots of unity is 0.
        let mut sum = Complex64::ZERO;
        for k in 0..n {
            sum += Complex64::root_of_unity(n, k);
        }
        assert!(sum.approx_eq(&Complex64::ZERO, 1e-9), "{sum:?}");
    }

    #[test]
    fn norms() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
    }
}
