//! Minimal complex arithmetic (no external crates).
//!
//! Supports the FFT, the general eigensolver, and DMD's complex
//! eigenvalues/modes. Only what those callers need — this is not a general
//! complex-analysis library.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` parts.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Construct from parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real value.
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }

    /// Magnitude `|z|` (hypot, overflow-safe).
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (atan2).
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// `e^{i theta}` on the unit circle.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self { re: r * theta.cos(), im: r * theta.sin() }
    }

    /// Complex exponential.
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Natural logarithm (principal branch).
    pub fn ln(self) -> Self {
        Self { re: self.abs().ln(), im: self.arg() }
    }

    /// Reciprocal.
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self { re: self.re / d, im: -self.im / d }
    }

    /// Square root (principal branch).
    pub fn sqrt(self) -> Self {
        Self::from_polar(self.abs().sqrt(), self.arg() / 2.0)
    }

    /// Scale by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Self { re: self.re * s, im: self.im * s }
    }

    /// True when both parts are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        // Smith's algorithm for robustness against over/underflow.
        if rhs.re.abs() >= rhs.im.abs() {
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Complex { re: (self.re + self.im * r) / d, im: (self.im - self.re * r) / d }
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Complex { re: (self.re * r + self.im) / d, im: (self.im * r - self.re) / d }
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex { re: -self.re, im: -self.im }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6e}+{:.6e}i", self.re, self.im)
        } else {
            write!(f, "{:.6e}-{:.6e}i", self.re, -self.im)
        }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0)); // (1+2i)(3-i) = 3-i+6i+2 = 5+5i
        assert!(close(a / b, a * b.recip(), 1e-14));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(0.7, -1.3);
        let b = Complex::new(-2.4, 0.9);
        assert!(close((a * b) / b, a, 1e-13));
        // Smith's algorithm branches: both orderings of |re| vs |im|.
        let c = Complex::new(1e-8, 5.0);
        assert!(close((a * c) / c, a, 1e-12));
    }

    #[test]
    fn conjugate_and_modulus() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.conj(), Complex::new(3.0, -4.0));
        assert!(close(a * a.conj(), Complex::real(25.0), 1e-14));
    }

    #[test]
    fn polar_and_exp() {
        let i = Complex::I;
        // Euler: e^{i pi} = -1.
        let e = (i.scale(std::f64::consts::PI)).exp();
        assert!(close(e, Complex::real(-1.0), 1e-14));
        let z = Complex::from_polar(2.0, 0.5);
        assert!((z.abs() - 2.0).abs() < 1e-14);
        assert!((z.arg() - 0.5).abs() < 1e-14);
    }

    #[test]
    fn ln_inverts_exp() {
        let z = Complex::new(0.3, 1.2);
        assert!(close(z.exp().ln(), z, 1e-13));
    }

    #[test]
    fn sqrt_squares_back() {
        for &z in &[Complex::new(2.0, 3.0), Complex::new(-1.0, 0.5), Complex::real(-4.0)] {
            let s = z.sqrt();
            assert!(close(s * s, z, 1e-12), "sqrt({z:?})² = {:?}", s * s);
        }
        // Principal branch: sqrt(-4) = 2i.
        assert!(close(Complex::real(-4.0).sqrt(), Complex::new(0.0, 2.0), 1e-14));
    }

    #[test]
    fn assign_ops() {
        let mut a = Complex::new(1.0, 1.0);
        a += Complex::ONE;
        a -= Complex::I;
        a *= Complex::new(2.0, 0.0);
        assert_eq!(a, Complex::new(4.0, 0.0));
    }
}
