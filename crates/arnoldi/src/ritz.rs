//! Ritz pair extraction from an Arnoldi factorization.

use crate::krylov::ArnoldiFactorization;
use pheig_linalg::eig::{eig_hessenberg_with_vectors, HessenbergEig};
use pheig_linalg::{LinalgError, C64};

/// A Ritz approximation of an eigenpair of the *operator* (i.e. in the
/// shift-inverted spectrum when the operator is a [`pheig_hamiltonian::ShiftInvertOp`]).
/// Its projected eigenvector lives in the [`RitzSet`] it was read from.
#[derive(Debug, Clone, Copy)]
pub struct RitzPair {
    /// Ritz value `mu` (operator-spectrum eigenvalue estimate).
    pub mu: C64,
    /// Residual bound `|h_{m+1,m}| |e_m^H y|` — the exact 2-norm of
    /// `Op v - mu v` for the lifted Ritz vector `v`.
    pub residual: f64,
}

/// Every Ritz pair of one factorization, ranked by decreasing `|mu|` (for
/// shift-inverted operators this means *increasing distance from the
/// shift*, so the leading entries are the paper's "eigenvalues closest to
/// theta"). Doubles as the extraction's scratch: [`RitzSet::extract`] on a
/// reused set does not allocate.
#[derive(Debug, Clone, Default)]
pub struct RitzSet {
    eig: HessenbergEig,
    /// `|mu|` per eigenvalue, in the eigensolver's order.
    magnitude: Vec<f64>,
    /// The ranked pairs.
    pairs: Vec<RitzPair>,
    /// `order[rank]` is the eigensolver's index of the pair at `rank`.
    order: Vec<usize>,
}

impl RitzSet {
    /// An empty set; storage grows on first use and is then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the contents with the Ritz pairs of `fact`.
    ///
    /// # Errors
    ///
    /// Propagates eigensolver failures on the projected matrix
    /// ([`LinalgError::InvalidArgument`] for a non-finite projection).
    pub fn extract(&mut self, fact: &ArnoldiFactorization) -> Result<(), LinalgError> {
        let m = fact.steps;
        self.pairs.clear();
        self.order.clear();
        if m == 0 {
            return Ok(());
        }
        eig_hessenberg_with_vectors(&fact.h, m, &mut self.eig)?;
        let beta = fact.residual_entry();
        self.magnitude.clear();
        self.magnitude
            .extend(self.eig.values().iter().map(|mu| mu.abs()));
        // Decreasing magnitude, ties in the eigensolver's order: a stable
        // sort spelled as a total order, so it needs no merge buffer and a
        // NaN magnitude ranks (first) instead of panicking.
        let magnitude = &self.magnitude;
        self.order.extend(0..m);
        self.order
            .sort_unstable_by(|&a, &b| magnitude[b].total_cmp(&magnitude[a]).then(a.cmp(&b)));
        for &k in &self.order {
            self.pairs.push(RitzPair {
                mu: self.eig.values()[k],
                residual: beta * self.eig.vector(k)[m - 1].abs(),
            });
        }
        Ok(())
    }

    /// The pairs, by decreasing `|mu|`.
    pub fn pairs(&self) -> &[RitzPair] {
        &self.pairs
    }

    /// The unit-norm projected eigenvector (length = factorization steps)
    /// of `pairs()[rank]`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.pairs().len()`.
    pub fn y(&self, rank: usize) -> &[C64] {
        self.eig.vector(self.order[rank])
    }
}

/// Extracts all Ritz pairs from a factorization into a fresh [`RitzSet`]
/// (restart loops keep one set and call [`RitzSet::extract`] instead).
///
/// # Errors
///
/// Propagates eigensolver failures on the projected matrix.
pub fn ritz_pairs(fact: &ArnoldiFactorization) -> Result<RitzSet, LinalgError> {
    let mut set = RitzSet::new();
    set.extract(fact)?;
    Ok(set)
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
        let set = ritz_pairs(&fact).unwrap();
        let pairs = set.pairs();
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
        let set = ritz_pairs(&fact).unwrap();
        for (rank, p) in set.pairs().iter().enumerate().take(3) {
            let v = fact.lift(set.y(rank));
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
        let set = ritz_pairs(&fact).unwrap();
        assert_eq!(set.pairs().len(), fact.steps);
        for w in set.pairs().windows(2) {
            assert!(w[0].mu.abs() >= w[1].mu.abs() - 1e-12);
        }
    }

    #[test]
    fn mapped_error_scales_with_inverse_square() {
        let p = RitzPair {
            mu: C64::from_real(10.0),
            residual: 1e-6,
        };
        assert!((p.mapped_error_estimate() - 1e-8).abs() < 1e-20);
        let p0 = RitzPair {
            mu: C64::zero(),
            residual: 1.0,
        };
        assert!(p0.mapped_error_estimate().is_infinite());
    }

    #[test]
    fn non_finite_projection_is_a_typed_error_not_a_panic() {
        // A NaN/Inf apply (the chaos matrix injects them) lands in `h`;
        // extraction must reject it instead of sorting NaN magnitudes.
        let op = Matrix::from_diag(&[C64::one(), C64::from_real(2.0), C64::from_real(3.0)]);
        let start = vec![C64::one(); 3];
        for bad in [f64::NAN, f64::INFINITY] {
            let mut fact = ArnoldiFactorization::empty();
            arnoldi_into(&op, &start, &[], 2, &mut fact);
            fact.h[(0, 1)] = C64::new(bad, 0.0);
            assert!(matches!(
                ritz_pairs(&fact),
                Err(LinalgError::InvalidArgument { .. })
            ));
        }
    }

    #[test]
    fn empty_factorization_gives_no_pairs() {
        let op = Matrix::from_diag(&[C64::one()]);
        let q = vec![C64::one()];
        let mut fact = ArnoldiFactorization::empty();
        arnoldi_into(&op, &[C64::one()], &[q], 1, &mut fact);
        assert!(ritz_pairs(&fact).unwrap().pairs().is_empty());
    }
}
