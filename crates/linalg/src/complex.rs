//! Double-precision complex numbers.
//!
//! [`C64`] is a minimal, dependency-free complex type sufficient for the
//! eigensolvers in this workspace. Division uses Smith's algorithm to avoid
//! spurious overflow/underflow; magnitude uses `hypot`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number `re + i*im`.
///
/// # Example
///
/// ```
/// use pheig_linalg::C64;
/// let z = C64::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!(z * z.conj(), C64::new(25.0, 0.0));
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// The additive identity `0 + 0i`.
pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
/// The multiplicative identity `1 + 0i`.
pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
/// The imaginary unit `i`.
pub const I: C64 = C64 { re: 0.0, im: 1.0 };

impl C64 {
    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// The additive identity `0`.
    #[inline]
    pub const fn zero() -> Self {
        ZERO
    }

    /// The multiplicative identity `1`.
    #[inline]
    pub const fn one() -> Self {
        ONE
    }

    /// The imaginary unit `i`.
    #[inline]
    pub const fn i() -> Self {
        I
    }

    /// A purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// A purely imaginary complex number `i*im`.
    #[inline]
    pub const fn from_imag(im: f64) -> Self {
        C64 { re: 0.0, im }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude `|z|`, computed with `hypot` (no spurious overflow).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|^2`.
    #[inline]
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse, using robust division.
    ///
    /// Returns infinities for `z == 0`, mirroring `1.0 / 0.0` semantics.
    #[inline]
    pub fn recip(self) -> Self {
        ONE / self
    }

    /// Principal square root.
    ///
    /// The branch cut is along the negative real axis; the result has
    /// non-negative real part.
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return ZERO;
        }
        let m = self.abs();
        let re = ((m + self.re) * 0.5).sqrt();
        let im_mag = ((m - self.re) * 0.5).sqrt();
        let im = if self.im >= 0.0 { im_mag } else { -im_mag };
        C64 { re, im }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        C64 {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(re: f64) -> Self {
        C64::from_real(re)
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for C64 {
    type Output = C64;
    /// Robust complex division (Smith's algorithm).
    fn div(self, rhs: C64) -> C64 {
        let (a, b, c, d) = (self.re, self.im, rhs.re, rhs.im);
        if c.abs() >= d.abs() {
            if c == 0.0 && d == 0.0 {
                return C64::new(a / c, b / c);
            }
            let r = d / c;
            let den = c + d * r;
            C64::new((a + b * r) / den, (b - a * r) / den)
        } else {
            let r = c / d;
            let den = c * r + d;
            C64::new((a * r + b) / den, (b * r - a) / den)
        }
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

macro_rules! impl_mixed_ops {
    () => {
        impl Add<f64> for C64 {
            type Output = C64;
            #[inline]
            fn add(self, rhs: f64) -> C64 {
                C64::new(self.re + rhs, self.im)
            }
        }
        impl Sub<f64> for C64 {
            type Output = C64;
            #[inline]
            fn sub(self, rhs: f64) -> C64 {
                C64::new(self.re - rhs, self.im)
            }
        }
        impl Mul<f64> for C64 {
            type Output = C64;
            #[inline]
            fn mul(self, rhs: f64) -> C64 {
                C64::new(self.re * rhs, self.im * rhs)
            }
        }
        impl Div<f64> for C64 {
            type Output = C64;
            #[inline]
            fn div(self, rhs: f64) -> C64 {
                C64::new(self.re / rhs, self.im / rhs)
            }
        }
        impl Add<C64> for f64 {
            type Output = C64;
            #[inline]
            fn add(self, rhs: C64) -> C64 {
                C64::new(self + rhs.re, rhs.im)
            }
        }
        impl Sub<C64> for f64 {
            type Output = C64;
            #[inline]
            fn sub(self, rhs: C64) -> C64 {
                C64::new(self - rhs.re, -rhs.im)
            }
        }
        impl Mul<C64> for f64 {
            type Output = C64;
            #[inline]
            fn mul(self, rhs: C64) -> C64 {
                C64::new(self * rhs.re, self * rhs.im)
            }
        }
        impl Div<C64> for f64 {
            type Output = C64;
            #[inline]
            fn div(self, rhs: C64) -> C64 {
                C64::from_real(self) / rhs
            }
        }
    };
}
impl_mixed_ops!();

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: C64) {
        *self = *self + rhs;
    }
}
impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: C64) {
        *self = *self - rhs;
    }
}
impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}
impl DivAssign for C64 {
    #[inline]
    fn div_assign(&mut self, rhs: C64) {
        *self = *self / rhs;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(ZERO, |acc, z| acc + z)
    }
}

impl fmt::Debug for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C64({:?}, {:?})", self.re, self.im)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}-{}i", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: C64, b: C64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn arithmetic_basics() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(-3.0, 0.5);
        assert_eq!(a + b, C64::new(-2.0, 2.5));
        assert_eq!(a - b, C64::new(4.0, 1.5));
        assert_eq!(a * b, C64::new(-3.0 - 1.0, 0.5 - 6.0));
        assert_eq!(-a, C64::new(-1.0, -2.0));
    }

    #[test]
    fn division_inverse_roundtrip() {
        let a = C64::new(1.3, -2.7);
        let b = C64::new(-0.4, 5.1);
        assert!(close(a / b * b, a, 1e-14));
        assert!(close(a * a.recip(), ONE, 1e-14));
    }

    #[test]
    fn division_extreme_magnitudes() {
        // Smith's algorithm avoids overflow for components near f64::MAX.
        let a = C64::new(1e300, 1e300);
        let b = C64::new(2e300, 1e300);
        let q = a / b;
        assert!(q.is_finite());
        assert!(close(q, C64::new(0.6, 0.2), 1e-12));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[
            (4.0, 0.0),
            (-4.0, 0.0),
            (0.0, 2.0),
            (3.0, -4.0),
            (-1.0, -1.0),
        ] {
            let z = C64::new(re, im);
            let r = z.sqrt();
            assert!(close(r * r, z, 1e-12), "sqrt({z}) = {r}");
            assert!(r.re >= 0.0);
        }
    }

    #[test]
    fn sqrt_negative_real_axis() {
        let z = C64::new(-9.0, 0.0);
        let r = z.sqrt();
        assert!(close(r, C64::new(0.0, 3.0), 1e-14));
    }

    #[test]
    fn abs_and_phase() {
        let z = C64::new(0.0, -2.0);
        assert_eq!(z.abs(), 2.0);
        assert_eq!(z.arg(), -std::f64::consts::FRAC_PI_2);
    }

    #[test]
    fn mixed_real_ops() {
        let z = C64::new(1.0, 1.0);
        assert_eq!(z * 2.0, C64::new(2.0, 2.0));
        assert_eq!(2.0 * z, C64::new(2.0, 2.0));
        assert_eq!(z + 1.0, C64::new(2.0, 1.0));
        assert_eq!(1.0 - z, C64::new(0.0, -1.0));
        assert!(close(1.0 / z, C64::new(0.5, -0.5), 1e-15));
    }

    #[test]
    fn sum_iterator() {
        let total: C64 = (0..4).map(|k| C64::new(k as f64, 1.0)).sum();
        assert_eq!(total, C64::new(6.0, 4.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(C64::new(1.0, -2.0).to_string(), "1-2i");
        assert_eq!(C64::new(1.0, 2.0).to_string(), "1+2i");
    }
}
