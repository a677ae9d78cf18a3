//! Ritz pair extraction from an Arnoldi factorization.

use crate::krylov::ArnoldiFactorization;
use pheig_linalg::eig::eig_with_vectors;
use pheig_linalg::{LinalgError, C64};

/// A Ritz approximation of an eigenpair of the *operator* (i.e. in the
/// shift-inverted spectrum when the operator is a [`pheig_hamiltonian::ShiftInvertOp`]).
#[derive(Debug, Clone)]
pub struct RitzPair {
    /// Ritz value `mu` (operator-spectrum eigenvalue estimate).
    pub mu: C64,
    /// Residual bound `|h_{m+1,m}| |e_m^H y|` — the exact 2-norm of
    /// `Op v - mu v` for the lifted Ritz vector `v`.
    pub residual: f64,
    /// Projected eigenvector (length = factorization steps), unit norm.
    pub y: Vec<C64>,
}

/// Extracts all Ritz pairs from a factorization, sorted by decreasing
/// `|mu|` (for shift-inverted operators this means *increasing distance
/// from the shift*, so the leading entries are the paper's "eigenvalues
/// closest to theta").
///
/// # Errors
///
/// Propagates dense eigensolver failures on the projected matrix.
pub fn ritz_pairs(fact: &ArnoldiFactorization) -> Result<Vec<RitzPair>, LinalgError> {
    let m = fact.steps;
    if m == 0 {
        return Ok(Vec::new());
    }
    let hm = fact.projected();
    let (values, vectors) = eig_with_vectors(&hm)?;
    let beta = fact.residual_entry();
    let mut pairs: Vec<RitzPair> = values
        .iter()
        .enumerate()
        .map(|(k, &mu)| {
            let y = vectors.col(k);
            let residual = beta * y[m - 1].abs();
            RitzPair { mu, residual, y }
        })
        .collect();
    pairs.sort_by(|a, b| b.mu.abs().partial_cmp(&a.mu.abs()).unwrap());
    Ok(pairs)
}

impl RitzPair {
    /// Error estimate for the *mapped* Hamiltonian eigenvalue
    /// `lambda = theta + 1/mu`: first-order propagation of the operator
    /// residual through the reciprocal map, `|d lambda| ~ residual / |mu|^2`.
    pub fn mapped_error_estimate(&self) -> f64 {
        let m2 = self.mu.abs_sq();
        if m2 == 0.0 {
            f64::INFINITY
        } else {
            self.residual / m2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::{arnoldi_into, ArnoldiFactorization};
    use pheig_linalg::Matrix;

    #[test]
    fn ritz_values_converge_to_dominant_eigenvalues() {
        // Diagonal operator: after enough steps the top Ritz values match
        // the largest-magnitude eigenvalues.
        let n = 30;
        let d: Vec<C64> = (0..n).map(|i| C64::from_real(1.0 + i as f64)).collect();
        let op = Matrix::from_diag(&d);
        let start: Vec<C64> = (0..n)
            .map(|i| C64::new(1.0, (i as f64 * 0.37).sin()))
            .collect();
        let mut fact = ArnoldiFactorization::empty();
        arnoldi_into(&op, &start, &[], 25, &mut fact);
        let pairs = ritz_pairs(&fact).unwrap();
        // Top Ritz value approximates 30 (the dominant eigenvalue). With a
        // 25-step space over a 30-point spectrum the residual is small but
        // not at machine precision.
        assert!(
            (pairs[0].mu - C64::from_real(30.0)).abs() < 1e-4,
            "mu0 = {}",
            pairs[0].mu
        );
        assert!(pairs[0].residual < 1e-3);
    }

    #[test]
    fn residual_is_exact_for_lifted_vector() {
        // ||Op v - mu v|| must equal the beta * |y_m| estimate.
        let n = 16;
        let d: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64) - 4.0, (i % 5) as f64))
            .collect();
        let op = Matrix::from_diag(&d);
        let start: Vec<C64> = (0..n).map(|i| C64::new((i as f64).cos(), 0.3)).collect();
        let mut fact = ArnoldiFactorization::empty();
        arnoldi_into(&op, &start, &[], 8, &mut fact);
        let pairs = ritz_pairs(&fact).unwrap();
        for p in pairs.iter().take(3) {
            let v = fact.lift(&p.y);
            let av = op.matvec(&v);
            let mut err = vec![C64::zero(); n];
            for i in 0..n {
                err[i] = av[i] - p.mu * v[i];
            }
            let norm = pheig_linalg::vector::nrm2(&err);
            assert!(
                (norm - p.residual).abs() < 1e-8 * (1.0 + p.residual),
                "estimate {} vs actual {norm}",
                p.residual
            );
        }
    }

    #[test]
    fn sorted_by_magnitude() {
        let n = 12;
        let d: Vec<C64> = (0..n).map(|i| C64::from_real((i as f64) - 6.0)).collect();
        let op = Matrix::from_diag(&d);
        let start: Vec<C64> = (0..n).map(|i| C64::new(1.0, i as f64 * 0.11)).collect();
        let mut fact = ArnoldiFactorization::empty();
        arnoldi_into(&op, &start, &[], 10, &mut fact);
        let pairs = ritz_pairs(&fact).unwrap();
        for w in pairs.windows(2) {
            assert!(w[0].mu.abs() >= w[1].mu.abs() - 1e-12);
        }
    }

    #[test]
    fn mapped_error_scales_with_inverse_square() {
        let p = RitzPair {
            mu: C64::from_real(10.0),
            residual: 1e-6,
            y: vec![],
        };
        assert!((p.mapped_error_estimate() - 1e-8).abs() < 1e-20);
        let p0 = RitzPair {
            mu: C64::zero(),
            residual: 1.0,
            y: vec![],
        };
        assert!(p0.mapped_error_estimate().is_infinite());
    }

    #[test]
    fn empty_factorization_gives_no_pairs() {
        let op = Matrix::from_diag(&[C64::one()]);
        let q = vec![C64::one()];
        let mut fact = ArnoldiFactorization::empty();
        arnoldi_into(&op, &[C64::one()], &[q], 1, &mut fact);
        assert!(ritz_pairs(&fact).unwrap().is_empty());
    }
}
