//! Bookkeeping for the set `Omega` of purely imaginary Hamiltonian
//! eigenvalues.

use pheig_arnoldi::ConvergedEigenpair;
use pheig_hamiltonian::{CLinearOp, HamiltonianOp};
use pheig_linalg::vector::dot;
use pheig_linalg::C64;
use pheig_model::StateSpace;
use std::sync::Arc;

/// A located purely imaginary Hamiltonian eigenvalue with its eigenvector
/// (kept for passivity enforcement sensitivities).
#[derive(Debug, Clone)]
pub struct ImaginaryEigenpair {
    /// Crossing frequency `omega >= 0` (rad/s).
    pub omega: f64,
    /// The eigenvalue: on the axis (real part `0.0`, `|Im| = omega`) once
    /// [`polish`] moved it there, else the raw estimate as computed.
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

/// Polishes crossing estimates onto the imaginary axis with the
/// Hamiltonian's two-sided Rayleigh quotient.
///
/// For an imaginary eigenvalue of the Hamiltonian `M` of `ss`, with right
/// eigenvector `x`, `J x` is a left eigenvector (`J = [[0, I], [-I, 0]]`;
/// `JM` is Hermitian), so `rho = x^H J M x / x^H J x` is accurate to
/// second order in the eigenvector's error, and purely imaginary. One
/// operator application per candidate: a candidate within `axis_tol` of
/// `j Im rho` takes `lambda = j Im rho` and `omega = |Im rho|`; any other
/// keeps its raw estimate (near a tangency `x^H J x -> 0` and the quotient
/// is no better than the estimate).
pub fn polish(ss: &StateSpace, eigs: &mut [ImaginaryEigenpair], axis_tol: f64) {
    if eigs.is_empty() {
        return;
    }
    // A model without a Hamiltonian has no crossings to polish.
    let Ok(op) = HamiltonianOp::new(ss) else {
        return;
    };
    let n = ss.order();
    // `x^H J y` of `x = [x1; x2]`, `y = [y1; y2]`.
    let j_form = |x: &[C64], y: &[C64]| dot(&x[..n], &y[n..]) - dot(&x[n..], &y[..n]);
    let mut mx = vec![C64::zero(); 2 * n];
    for e in eigs {
        op.apply_into(&e.vector, &mut mx);
        let rho = j_form(&e.vector, &mx) / j_form(&e.vector, &e.vector);
        let polished = C64::from_imag(rho.im);
        if (polished - e.lambda).abs() <= axis_tol {
            e.lambda = polished;
            e.omega = rho.im.abs();
        }
    }
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
