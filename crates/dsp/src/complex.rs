//! A minimal double-precision complex number.
//!
//! The EchoImage pipeline needs complex arithmetic for FFTs, analytic
//! signals, steering vectors and MVDR weights. Rather than pulling in a
//! numerics crate we implement the small amount of arithmetic required.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Example
///
/// ```
/// use echo_dsp::Complex;
///
/// let i = Complex::I;
/// assert_eq!(i * i, Complex::new(-1.0, 0.0));
/// assert!((Complex::from_polar(2.0, std::f64::consts::PI).re - (-2.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates.
    #[inline]
    pub fn from_polar(magnitude: f64, phase: f64) -> Self {
        Complex::new(magnitude * phase.cos(), magnitude * phase.sin())
    }

    /// `e^{iφ}` — a unit phasor with the given phase in radians.
    #[inline]
    pub fn cis(phase: f64) -> Self {
        Complex::from_polar(1.0, phase)
    }

    /// The complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// The squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// The multiplicative inverse.
    ///
    /// Returns a non-finite result when `self` is zero, mirroring `1.0/0.0`.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Complex exponential `e^{self}`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let re = ((r + self.re) / 2.0).max(0.0).sqrt();
        let im = ((r - self.re) / 2.0).max(0.0).sqrt();
        Complex::new(re, if self.im < 0.0 { -im } else { im })
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl MulAssign<f64> for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS multiply-by-reciprocal
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -4.0);
        assert_eq!(a + b, Complex::new(4.0, -2.0));
        assert_eq!(a - b, Complex::new(-2.0, 6.0));
        assert_eq!(a * b, Complex::new(11.0, 2.0));
        assert!(close(a / b * b, a));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex::I * Complex::I, Complex::new(-1.0, 0.0));
    }

    #[test]
    fn conjugate_and_norm() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a.conj(), Complex::new(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        assert!(close(a * a.conj(), Complex::from_real(25.0)));
    }

    #[test]
    fn polar_round_trip() {
        let a = Complex::from_polar(2.5, 1.2);
        assert!((a.abs() - 2.5).abs() < 1e-12);
        assert!((a.arg() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..16 {
            let phi = k as f64 * PI / 8.0;
            assert!((Complex::cis(phi).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exp_of_i_pi() {
        let e = (Complex::I * PI).exp();
        assert!(close(e, Complex::new(-1.0, 0.0)));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[
            (4.0, 0.0),
            (-4.0, 0.0),
            (1.0, 1.0),
            (-3.0, -7.0),
            (0.0, 2.0),
        ] {
            let z = Complex::new(re, im);
            let s = z.sqrt();
            assert!(close(s * s, z), "sqrt({z}) = {s}");
            assert!(s.re >= 0.0, "principal branch");
        }
    }

    #[test]
    fn recip_identity() {
        let z = Complex::new(-2.0, 5.0);
        assert!(close(z * z.recip(), Complex::ONE));
    }

    #[test]
    fn sum_folds() {
        let zs = [Complex::new(1.0, 1.0), Complex::new(2.0, -3.0)];
        let s: Complex = zs.iter().copied().sum();
        assert_eq!(s, Complex::new(3.0, -2.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }
}
