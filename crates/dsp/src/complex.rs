//! Minimal complex-number type used by the FFT and frequency-domain filters.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A complex number with `f32` components.
///
/// Only the operations needed by this workspace's FFT and frequency-domain
/// processing are provided; this is not a general-purpose numerics type.
///
/// # Example
///
/// ```
/// use thrubarrier_dsp::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.norm(), 5.0);
/// assert_eq!(z * Complex::I, Complex::new(-4.0, 3.0));
/// ```
///
/// The layout is `repr(C)` — `re` then `im` — so a slice of `Complex`
/// is a slice of interleaved `f32` pairs, which the SIMD FFT stages
/// load directly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real component.
    pub re: f32,
    /// Imaginary component.
    pub im: f32,
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
    pub const fn new(re: f32, im: f32) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f32) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates the unit-magnitude complex number `e^{i theta}`.
    #[inline]
    pub fn from_polar(magnitude: f32, phase: f32) -> Self {
        Complex {
            re: magnitude * phase.cos(),
            im: magnitude * phase.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude (Euclidean norm).
    #[inline]
    pub fn norm(self) -> f32 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude; cheaper than [`Complex::norm`] when comparing
    /// energies.
    #[inline]
    pub fn norm_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f32 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f32) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl From<f32> for Complex {
    fn from(re: f32) -> Self {
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

impl Mul<f32> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f32) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f32> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f32) -> Complex {
        self.scale(1.0 / rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sq();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a.re - b.re).abs() < 1e-6 && (a.im - b.im).abs() < 1e-6
    }

    #[test]
    fn addition_and_subtraction_are_componentwise() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
    }

    #[test]
    fn multiplication_matches_definition() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert_eq!(a * b, Complex::new(5.0, 5.0));
    }

    #[test]
    fn division_is_inverse_of_multiplication() {
        let a = Complex::new(0.3, -1.7);
        let b = Complex::new(2.0, 0.25);
        assert!(close((a * b) / b, a));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.0, std::f32::consts::FRAC_PI_3);
        assert!((z.norm() - 2.0).abs() < 1e-6);
        assert!((z.arg() - std::f32::consts::FRAC_PI_3).abs() < 1e-6);
    }

    #[test]
    fn conjugate_negates_imaginary_part() {
        assert_eq!(Complex::new(1.0, 2.0).conj(), Complex::new(1.0, -2.0));
    }

    #[test]
    fn norm_sq_equals_norm_squared() {
        let z = Complex::new(-2.5, 1.5);
        assert!((z.norm_sq() - z.norm() * z.norm()).abs() < 1e-5);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex::I * Complex::I, Complex::new(-1.0, 0.0));
    }
}
