//! Search-band estimation (paper Sec. IV.A).
//!
//! The lower bound is zero; the upper bound is the magnitude of the largest
//! Hamiltonian eigenvalue, obtained with a restarted Arnoldi iteration on
//! `M` itself (no shift-and-invert), then inflated by a small safety margin.

use crate::error::SolverError;
use pheig_arnoldi::single_shift::largest_eigenvalue_magnitude;
use pheig_arnoldi::SingleShiftOptions;
use pheig_hamiltonian::HamiltonianOp;
use pheig_model::StateSpace;

/// Safety inflation applied to the largest-eigenvalue estimate.
pub const BAND_MARGIN: f64 = 1.02;

/// Estimates the search band `[0, omega_max]`.
///
/// # Errors
///
/// Returns [`SolverError::BandEstimation`] when the Arnoldi estimate fails
/// (degenerate models).
pub fn estimate_band(
    ss: &StateSpace,
    opts: &SingleShiftOptions,
) -> Result<(f64, f64), SolverError> {
    let op = HamiltonianOp::new(ss)?;
    let mag = largest_eigenvalue_magnitude(&op, opts)
        .map_err(|e| SolverError::BandEstimation(e.to_string()))?;
    Ok(band_for_magnitude(ss, mag))
}

/// The band `[0, omega_max]` for a largest Hamiltonian eigenvalue
/// magnitude `mag`, estimated ([`estimate_band`]) or exact (the dense
/// path, which computes every eigenvalue).
pub(crate) fn band_for_magnitude(ss: &StateSpace, mag: f64) -> (f64, f64) {
    // A cheap structural sanity floor: the band should at least reach the
    // fastest pole resonance.
    let floor = ss.a().max_natural_frequency();
    (0.0, (mag * BAND_MARGIN).max(floor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pheig_hamiltonian::dense_hamiltonian;
    use pheig_linalg::eig::eig_real;
    use pheig_model::generator::{generate_case, CaseSpec};

    #[test]
    fn band_covers_the_spectrum() {
        let ss = generate_case(&CaseSpec::new(14, 2).with_seed(20))
            .unwrap()
            .realize();
        let (lo, hi) = estimate_band(&ss, &SingleShiftOptions::new()).unwrap();
        assert_eq!(lo, 0.0);
        // Every dense eigenvalue's imaginary part is inside the band.
        let eigs = eig_real(&dense_hamiltonian(&ss).unwrap()).unwrap();
        for z in eigs {
            assert!(
                z.im.abs() <= hi * 1.0001,
                "eigenvalue {z} outside band [0, {hi}]"
            );
        }
    }

    #[test]
    fn band_is_tight_within_reason() {
        let ss = generate_case(&CaseSpec::new(20, 2).with_seed(3))
            .unwrap()
            .realize();
        let (_, hi) = estimate_band(&ss, &SingleShiftOptions::new()).unwrap();
        let eigs = eig_real(&dense_hamiltonian(&ss).unwrap()).unwrap();
        let max_mag = eigs.iter().map(|z| z.abs()).fold(0.0, f64::max);
        assert!(
            hi <= max_mag * 1.5,
            "band {hi} vs largest magnitude {max_mag}"
        );
    }
}
