//! Stable pole descriptions.

use crate::error::ModelError;
use pheig_linalg::C64;

/// A pole of a rational macromodel.
///
/// Complex poles always occur in conjugate pairs for real-valued systems, so
/// a pair is stored once with positive imaginary part; its realization is a
/// real 2x2 block (see [`crate::block_diag::DiagBlock`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pole {
    /// A real pole at `s = re`.
    Real(f64),
    /// A complex-conjugate pole pair `s = re +/- i im` with `im > 0`.
    Pair {
        /// Real part (must be negative for a stable model).
        re: f64,
        /// Imaginary part of the upper-half-plane member (`> 0`).
        im: f64,
    },
}

impl Pole {
    /// Number of states contributed to the real realization (1 or 2).
    pub fn order(&self) -> usize {
        match self {
            Pole::Real(_) => 1,
            Pole::Pair { .. } => 2,
        }
    }

    /// Real part of the pole.
    pub fn re(&self) -> f64 {
        match *self {
            Pole::Real(re) => re,
            Pole::Pair { re, .. } => re,
        }
    }

    /// `true` when the pole lies strictly in the open left half plane.
    pub fn is_stable(&self) -> bool {
        self.re() < 0.0
    }

    /// Validates strict stability.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnstablePole`] for poles with `re >= 0`.
    pub fn ensure_stable(&self) -> Result<(), ModelError> {
        if self.is_stable() {
            Ok(())
        } else {
            Err(ModelError::UnstablePole { re: self.re() })
        }
    }

    /// Natural (resonance) frequency `|s|` of the pole.
    pub fn natural_frequency(&self) -> f64 {
        match *self {
            Pole::Real(re) => re.abs(),
            Pole::Pair { re, im } => re.hypot(im),
        }
    }

    /// The upper-half-plane complex location (`im = 0` for real poles).
    pub fn upper(&self) -> C64 {
        match *self {
            Pole::Real(re) => C64::from_real(re),
            Pole::Pair { re, im } => C64::new(re, im),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders() {
        assert_eq!(Pole::Real(-3.0).order(), 1);
        assert_eq!(Pole::Pair { re: -1.0, im: 5.0 }.order(), 2);
    }

    #[test]
    fn stability() {
        assert!(Pole::Real(-0.1).is_stable());
        assert!(!Pole::Real(0.0).is_stable());
        assert!(Pole::Pair {
            re: -1e-9,
            im: 10.0
        }
        .ensure_stable()
        .is_ok());
        assert!(matches!(
            Pole::Pair { re: 0.2, im: 1.0 }.ensure_stable(),
            Err(ModelError::UnstablePole { .. })
        ));
    }

    #[test]
    fn natural_frequency() {
        assert_eq!(Pole::Real(-2.0).natural_frequency(), 2.0);
        assert_eq!(Pole::Pair { re: -3.0, im: 4.0 }.natural_frequency(), 5.0);
    }

    #[test]
    fn upper_location() {
        assert_eq!(
            Pole::Pair { re: -1.0, im: 2.0 }.upper(),
            C64::new(-1.0, 2.0)
        );
        assert_eq!(Pole::Real(-1.0).upper(), C64::from_real(-1.0));
    }
}
