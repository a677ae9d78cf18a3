//! The dense path of a sweep. Below the measured crossover
//! ([`SolverOptions::dense_max`], DESIGN.md "Dense dispatch") one `O(n^3)`
//! eigensolve of the whole Hamiltonian costs less than any shift schedule
//! — the converse of the paper's Sec. I argument — and it examines the
//! whole band by construction, so no disk is needed to vouch for it.

use crate::band::band_for_magnitude;
use crate::error::SolverError;
use crate::solver::{
    axis_tol, merge_tol, pole_scale, reportable, Certificate, QuarantinedShift, SolverOptions,
    SolverOutcome, SolverStats,
};
use crate::spectrum::{self, ImaginaryEigenpair};
use pheig_hamiltonian::dense_hamiltonian;
use pheig_linalg::eig::eig_real;
use pheig_linalg::vector::normalize;
use pheig_linalg::{Lu, Matrix, C64};
use pheig_model::StateSpace;
use std::time::Instant;

/// Every purely imaginary Hamiltonian eigenvalue of `ss`, from the whole
/// dense spectrum: the sweep's axis predicate classifies it, and only the
/// crossings get an eigenvector (enforcement's sensitivity rows read it).
///
/// A solve cancelled by the time the eigenvalues are in claims nothing:
/// the whole band becomes one named coverage gap, as a cancelled sweep's
/// unexamined intervals do.
///
/// # Errors
///
/// [`SolverError::Hamiltonian`] for a model without a Hamiltonian
/// (`sigma_max(D) >= 1`), [`SolverError::Linalg`] when the dense QR
/// iteration does not converge.
pub(crate) fn solve(ss: &StateSpace, opts: &SolverOptions) -> Result<SolverOutcome, SolverError> {
    let t0 = Instant::now();
    let m = dense_hamiltonian(ss)?;
    let values = eig_real(&m)?;
    let band = opts.band.unwrap_or_else(|| {
        band_for_magnitude(ss, values.iter().map(|z| z.abs()).fold(0.0, f64::max))
    });
    if opts.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
        return Ok(stopped(band, t0));
    }
    let scale = pole_scale(ss);
    let (axis, merge) = (axis_tol(opts, scale), merge_tol(opts, scale));
    let m = m.to_c64();
    let norm = m.frobenius_norm().max(f64::MIN_POSITIVE);
    let mut eigs = Vec::new();
    for lambda in values {
        // The lower-half-plane mirror of a crossing is the same crossing;
        // it is solved for only where the two may coincide (omega ~ 0).
        if spectrum::on_axis(lambda, axis) && lambda.im >= -merge {
            eigs.push(eigenpair(&m, lambda, norm)?);
        }
    }
    let pairs_converged = eigs.len();
    spectrum::polish(ss, &mut eigs, axis);
    let eigenpairs = reportable(spectrum::dedupe(eigs, merge), band);
    Ok(SolverOutcome {
        frequencies: spectrum::frequencies(&eigenpairs),
        eigenpairs,
        band,
        shift_log: Vec::new(),
        quarantined: Vec::new(),
        coverage_gaps: Vec::new(),
        covered_fraction: 1.0,
        certificate: Certificate::DenseWholeBand,
        stats: SolverStats {
            pairs_converged,
            wall: t0.elapsed(),
            ..SolverStats::default()
        },
    })
}

/// The unit eigenvector of the crossing `lambda` by inverse iteration on
/// `M - j nu I` (`nu = Im lambda`), with the relative residual
/// `||M x - j nu x|| / ||M||_F` as its error estimate.
fn eigenpair(m: &Matrix<C64>, lambda: C64, norm: f64) -> Result<ImaginaryEigenpair, SolverError> {
    let shift = C64::from_imag(lambda.im);
    let factor = |s: C64| {
        let mut a = m.clone();
        for i in 0..a.rows() {
            a[(i, i)] -= s;
        }
        Lu::new(a)
    };
    // A shift that hits the eigenvalue to the last bit leaves an exact
    // zero pivot; a rounding-sized nudge off the axis cures it.
    let lu = factor(shift).or_else(|_| factor(shift + C64::from_real(f64::EPSILON * norm)))?;
    let mut x: Vec<C64> = (0..m.rows())
        .map(|i| C64::new(1.0, (i % 7) as f64 / 7.0))
        .collect();
    for _ in 0..2 {
        lu.solve_in_place(&mut x);
        normalize(&mut x);
    }
    let mx = m.matvec(&x);
    let residual = mx
        .iter()
        .zip(&x)
        .map(|(&y, &xi)| (y - shift * xi).abs_sq())
        .sum::<f64>()
        .sqrt();
    Ok(ImaginaryEigenpair {
        omega: lambda.im.abs(),
        lambda,
        vector: x.into(),
        error_estimate: residual / norm,
    })
}

/// The outcome of a dense solve cancelled before it finished: no
/// crossing, and the whole band one named gap.
fn stopped(band: (f64, f64), t0: Instant) -> SolverOutcome {
    let omega = 0.5 * (band.0 + band.1);
    SolverOutcome {
        frequencies: Vec::new(),
        eigenpairs: Vec::new(),
        band,
        shift_log: Vec::new(),
        quarantined: vec![QuarantinedShift {
            omega,
            interval: band,
            reason: SolverError::ShiftFailed {
                omega,
                reason: "sweep cancelled during the dense eigensolve".to_string(),
            },
        }],
        coverage_gaps: vec![band],
        covered_fraction: 0.0,
        // No disk was certified, so the (empty) disks are the claim.
        certificate: Certificate::Disks,
        stats: SolverStats {
            shifts_quarantined: 1,
            wall: t0.elapsed(),
            ..SolverStats::default()
        },
    }
}
