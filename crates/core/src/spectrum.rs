//! Bookkeeping for the set `Omega` of purely imaginary Hamiltonian
//! eigenvalues.

use pheig_arnoldi::ConvergedEigenpair;
use pheig_linalg::C64;
use std::sync::Arc;

/// A located purely imaginary Hamiltonian eigenvalue with its eigenvector
/// (kept for passivity enforcement sensitivities).
#[derive(Debug, Clone)]
pub struct ImaginaryEigenpair {
    /// Crossing frequency `omega >= 0` (rad/s).
    pub omega: f64,
    /// The raw eigenvalue as computed (real part is round-off).
    pub lambda: C64,
    /// Unit-norm eigenvector in `C^{2n}` (the block the converging shift
    /// produced, shared rather than copied).
    pub vector: Arc<[C64]>,
    /// Eigenvalue error estimate from the Arnoldi certificate.
    pub error_estimate: f64,
}

/// `true` when `lambda` counts as purely imaginary: `|Re lambda| <=
/// axis_tol`. The one predicate both [`extract_imaginary`] and the sweep's
/// completion record (which keeps vectors only for pairs this accepts)
/// apply.
pub(crate) fn on_axis(lambda: C64, axis_tol: f64) -> bool {
    lambda.re.abs() <= axis_tol
}

/// Classifies converged eigenpairs, keeping those on the imaginary axis.
///
/// `axis_tol` is the absolute real-part tolerance (tie it to the Arnoldi
/// eigenvalue tolerance times a safety factor). Eigenvalues with negative
/// imaginary part are folded onto `omega = |Im lambda|` (the spectrum is
/// symmetric; the disks near `omega = 0` can dip below the axis).
pub fn extract_imaginary(pairs: &[ConvergedEigenpair], axis_tol: f64) -> Vec<ImaginaryEigenpair> {
    pairs
        .iter()
        .filter(|e| on_axis(e.lambda, axis_tol))
        .map(|e| ImaginaryEigenpair {
            omega: e.lambda.im.abs(),
            lambda: e.lambda,
            vector: e.vector.clone(),
            error_estimate: e.error_estimate,
        })
        .collect()
}

/// Sorts by `omega` and merges duplicates closer than `merge_tol`
/// (overlapping certified disks legitimately find the same eigenvalue
/// twice; the better error estimate wins).
pub fn dedupe(mut eigs: Vec<ImaginaryEigenpair>, merge_tol: f64) -> Vec<ImaginaryEigenpair> {
    eigs.sort_by(|a, b| a.omega.total_cmp(&b.omega));
    let mut out: Vec<ImaginaryEigenpair> = Vec::with_capacity(eigs.len());
    for e in eigs {
        match out.last_mut() {
            Some(last) if (e.omega - last.omega).abs() <= merge_tol => {
                if e.error_estimate < last.error_estimate {
                    *last = e;
                }
            }
            _ => out.push(e),
        }
    }
    out
}

/// The crossing frequencies of a deduped eigenpair list.
pub fn frequencies(eigs: &[ImaginaryEigenpair]) -> Vec<f64> {
    eigs.iter().map(|e| e.omega).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(re: f64, im: f64, err: f64) -> ConvergedEigenpair {
        ConvergedEigenpair {
            lambda: C64::new(re, im),
            vector: Arc::from([]),
            error_estimate: err,
        }
    }

    #[test]
    fn filters_by_axis_tolerance() {
        let pairs = vec![
            pair(1e-12, 2.0, 1e-10),
            pair(0.1, 3.0, 1e-10),
            pair(-1e-12, 4.0, 1e-10),
        ];
        let out = extract_imaginary(&pairs, 1e-9);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].omega, 2.0);
        assert_eq!(out[1].omega, 4.0);
    }

    #[test]
    fn folds_negative_imaginary() {
        let pairs = vec![pair(0.0, -1.5, 1e-10)];
        let out = extract_imaginary(&pairs, 1e-9);
        assert_eq!(out[0].omega, 1.5);
    }

    #[test]
    fn dedupe_merges_and_keeps_best() {
        let eigs = vec![
            ImaginaryEigenpair {
                omega: 1.0,
                lambda: C64::from_imag(1.0),
                vector: Arc::from([]),
                error_estimate: 1e-8,
            },
            ImaginaryEigenpair {
                omega: 1.0 + 1e-9,
                lambda: C64::from_imag(1.0 + 1e-9),
                vector: Arc::from([]),
                error_estimate: 1e-12,
            },
            ImaginaryEigenpair {
                omega: 2.0,
                lambda: C64::from_imag(2.0),
                vector: Arc::from([]),
                error_estimate: 1e-8,
            },
        ];
        let out = dedupe(eigs, 1e-6);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].error_estimate, 1e-12);
        assert_eq!(frequencies(&out), vec![1.0 + 1e-9, 2.0]);
    }

    #[test]
    fn dedupe_respects_ordering() {
        let eigs = vec![
            ImaginaryEigenpair {
                omega: 3.0,
                lambda: C64::from_imag(3.0),
                vector: Arc::from([]),
                error_estimate: 0.0,
            },
            ImaginaryEigenpair {
                omega: 1.0,
                lambda: C64::from_imag(1.0),
                vector: Arc::from([]),
                error_estimate: 0.0,
            },
        ];
        let out = dedupe(eigs, 1e-9);
        assert_eq!(frequencies(&out), vec![1.0, 3.0]);
    }
}
