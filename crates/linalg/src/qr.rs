//! Householder QR factorization and least-squares solves.
//!
//! Works for real and complex matrices. The complex Householder reflector is
//! chosen as `H = I - tau v v^H` with `beta = -phase(x_0) ||x||` so that
//! `tau = 2 / v^H v` is real and `H` is both unitary and Hermitian.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// A Householder QR factorization `A = Q R` of an `m x n` matrix with
/// `m >= n`.
///
/// # Example
///
/// ```
/// use pheig_linalg::{Matrix, Qr};
///
/// # fn main() -> Result<(), pheig_linalg::LinalgError> {
/// // Overdetermined least squares: fit y = a + b t through 3 points.
/// let a = Matrix::from_rows(&[&[1.0, 0.0][..], &[1.0, 1.0][..], &[1.0, 2.0][..]]);
/// let qr = Qr::new(a)?;
/// let coeffs = qr.solve_least_squares(&[1.0, 2.0, 3.0])?;
/// assert!((coeffs[0] - 1.0).abs() < 1e-12); // intercept
/// assert!((coeffs[1] - 1.0).abs() < 1e-12); // slope
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr<S: Scalar> {
    /// Packed factorization: R in the upper triangle, Householder vectors
    /// below the diagonal (with implicit leading entries stored in `v0`).
    packed: Matrix<S>,
    /// Leading entry of each Householder vector.
    v0: Vec<S>,
    /// Real scaling factor `tau = 2 / v^H v` of each reflector.
    tau: Vec<f64>,
}

impl<S: Scalar> Qr<S> {
    /// Factors `a` (consumed) into `Q R`, streaming each step along the
    /// stored rows and skipping the rows whose reflector entry is an exact
    /// zero (DESIGN.md "Least squares"): exact for finite data up to the
    /// sign of a zero. A non-finite entry voids that (a skipped `0 * inf`
    /// is no NaN) but never panics and stays non-finite in `R`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `a.rows() < a.cols()`.
    pub fn new(mut a: Matrix<S>) -> Result<Self, LinalgError> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::shape(
                "rows >= cols for QR".to_string(),
                format!("{m}x{n}"),
            ));
        }
        let steps = n.min(m.saturating_sub(1));
        let mut v0 = vec![S::ZERO; steps];
        let mut tau = vec![0.0; steps];
        // s[j] = v^H a[.., j]; active = (row, entry) of v's non-zeros below k.
        let mut s = vec![S::ZERO; n];
        let mut active: Vec<(usize, S)> = Vec::with_capacity(m);
        for k in 0..steps {
            // Column x = a[k.., k]: the one strided pass of the step.
            active.clear();
            let x0 = a[(k, k)];
            let mut norm_sq = x0.abs_sq();
            for i in (k + 1)..m {
                let x = a[(i, k)];
                norm_sq += x.abs_sq();
                if x != S::ZERO {
                    active.push((i, x));
                }
            }
            let norm_x = norm_sq.sqrt();
            if norm_x == 0.0 {
                // Column already zero below (and at) the diagonal: skip.
                continue;
            }
            let phase = if x0.abs() == 0.0 {
                S::ONE
            } else {
                x0 * S::from_f64(1.0 / x0.abs())
            };
            let beta = -phase * S::from_f64(norm_x);
            // v = x - beta e1; only v[0] differs from x.
            let vk0 = x0 - beta;
            // v^H v = 2 (||x||^2 + |x0| ||x||) — real by construction.
            let vhv = 2.0 * (norm_x * norm_x + x0.abs() * norm_x);
            let t = if vhv == 0.0 { 0.0 } else { 2.0 / vhv };
            v0[k] = vk0;
            tau[k] = t;
            // Apply H = I - t v v^H to the trailing columns. Each s[j] sums
            // over ascending rows from the pivot term, as a walk down column
            // j would: the loops are interchanged, no sum is re-associated.
            let s = &mut s[k + 1..];
            for (sj, &akj) in s.iter_mut().zip(&a.row(k)[k + 1..]) {
                *sj = vk0.conj() * akj;
            }
            for &(i, v) in &active {
                for (sj, &aij) in s.iter_mut().zip(&a.row(i)[k + 1..]) {
                    *sj += v.conj() * aij;
                }
            }
            s.iter_mut().for_each(|sj| *sj *= S::from_f64(t));
            // Entries below the diagonal of column k hold v (unchanged).
            a[(k, k)] = beta;
            for &(i, v) in std::iter::once(&(k, vk0)).chain(&active) {
                for (aij, &sj) in a.row_mut(i)[k + 1..].iter_mut().zip(s.iter()) {
                    *aij -= sj * v;
                }
            }
        }
        Ok(Qr { packed: a, v0, tau })
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.packed.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.packed.cols()
    }

    /// Applies reflector `k` to `b`; `H_k = I - tau v v^H` is Hermitian, so
    /// this is `H_k^H` too and serves `Q^H` and `Q` alike.
    fn reflect(&self, k: usize, b: &mut [S]) {
        let t = self.tau[k];
        if t == 0.0 {
            return;
        }
        let mut s = self.v0[k].conj() * b[k];
        for i in (k + 1)..b.len() {
            s += self.packed[(i, k)].conj() * b[i];
        }
        s *= S::from_f64(t);
        b[k] -= s * self.v0[k];
        for i in (k + 1)..b.len() {
            b[i] -= s * self.packed[(i, k)];
        }
    }

    /// Applies `Q^H` to a vector in place.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.rows()`.
    pub fn apply_qh(&self, b: &mut [S]) {
        assert_eq!(b.len(), self.rows(), "apply_qh length mismatch");
        (0..self.v0.len()).for_each(|k| self.reflect(k, b));
    }

    /// Applies `Q` to a vector in place (reflectors in reverse order).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.rows()`.
    pub fn apply_q(&self, b: &mut [S]) {
        assert_eq!(b.len(), self.rows(), "apply_q length mismatch");
        (0..self.v0.len()).rev().for_each(|k| self.reflect(k, b));
    }

    /// The upper-triangular factor `R` (size `n x n`).
    pub fn r(&self) -> Matrix<S> {
        let n = self.cols();
        Matrix::from_fn(
            n,
            n,
            |i, j| if j >= i { self.packed[(i, j)] } else { S::ZERO },
        )
    }

    /// The thin orthonormal factor `Q` (size `m x n`).
    pub fn q_thin(&self) -> Matrix<S> {
        let (m, n) = self.packed.shape();
        let mut q = Matrix::zeros(m, n);
        let mut e = vec![S::ZERO; m];
        for j in 0..n {
            e.iter_mut().for_each(|x| *x = S::ZERO);
            e[j] = S::ONE;
            self.apply_q(&mut e);
            for i in 0..m {
                q[(i, j)] = e[i];
            }
        }
        q
    }

    /// Solves the least-squares problem `min ||A x - b||_2`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `b.len() != self.rows()`.
    /// * [`LinalgError::Singular`] if `R` has a zero diagonal entry
    ///   (rank-deficient `A`).
    pub fn solve_least_squares(&self, b: &[S]) -> Result<Vec<S>, LinalgError> {
        let (m, n) = self.packed.shape();
        if b.len() != m {
            return Err(LinalgError::shape(
                format!("rhs length {m}"),
                format!("{}", b.len()),
            ));
        }
        let mut c = b.to_vec();
        self.apply_qh(&mut c);
        // Back substitution on the leading n x n triangle.
        let mut x = vec![S::ZERO; n];
        for i in (0..n).rev() {
            let mut acc = c[i];
            for j in (i + 1)..n {
                acc -= self.packed[(i, j)] * x[j];
            }
            let d = self.packed[(i, i)];
            if d.abs() == 0.0 {
                return Err(LinalgError::Singular { at: i });
            }
            x[i] = acc / d;
        }
        Ok(x)
    }
}

/// Orthonormalizes the columns of `a` in place via repeated QR
/// (convenience for building orthonormal bases in tests).
pub fn orthonormal_columns<S: Scalar>(a: Matrix<S>) -> Result<Matrix<S>, LinalgError> {
    Ok(Qr::new(a)?.q_thin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    fn reconstruct<S: Scalar>(qr: &Qr<S>) -> Matrix<S> {
        let q = qr.q_thin();
        let r = qr.r();
        &q * &r
    }

    #[test]
    fn real_qr_reconstructs() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0][..],
            &[4.0, 5.0, 6.0][..],
            &[7.0, 8.0, 10.0][..],
            &[1.0, -1.0, 0.5][..],
        ]);
        let qr = Qr::new(a.clone()).unwrap();
        assert!((&reconstruct(&qr) - &a).max_abs() < 1e-12);
        // Q has orthonormal columns.
        let q = qr.q_thin();
        let gram = &q.conj_transpose() * &q;
        assert!((&gram - &Matrix::identity(3)).max_abs() < 1e-12);
        // R is upper triangular.
        let r = qr.r();
        for i in 0..3 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn complex_qr_reconstructs() {
        let a = Matrix::from_fn(5, 3, |i, j| {
            C64::new((i as f64 - j as f64).sin(), ((i * j) as f64).cos())
        });
        let qr = Qr::new(a.clone()).unwrap();
        assert!((&reconstruct(&qr) - &a).max_abs() < 1e-12);
        let q = qr.q_thin();
        let gram = &q.conj_transpose() * &q;
        assert!((&gram - &Matrix::identity(3)).max_abs() < 1e-12);
    }

    #[test]
    fn least_squares_line_fit() {
        // y = 2 + 3 t with noise-free samples must be recovered exactly.
        let t = [0.0, 1.0, 2.0, 3.0];
        let a = Matrix::from_fn(4, 2, |i, j| if j == 0 { 1.0 } else { t[i] });
        let b: Vec<f64> = t.iter().map(|&ti| 2.0 + 3.0 * ti).collect();
        let x = Qr::new(a).unwrap().solve_least_squares(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Inconsistent system; solution must satisfy normal equations.
        let a = Matrix::from_rows(&[&[1.0, 0.0][..], &[0.0, 1.0][..], &[1.0, 1.0][..]]);
        let b = [1.0, 1.0, 0.0];
        let x = Qr::new(a.clone()).unwrap().solve_least_squares(&b).unwrap();
        // Normal equations: A^T (A x - b) = 0.
        let ax = a.matvec(&x);
        let r: Vec<f64> = ax.iter().zip(b.iter()).map(|(u, v)| u - v).collect();
        let atr = a.conj_transpose().matvec(&r);
        assert!(atr.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn complex_least_squares_exact_solve() {
        let a = Matrix::from_fn(3, 3, |i, j| {
            C64::new(
                ((i * i + 2 * j) % 5) as f64 + 1.0,
                ((i + 3 * j * j) % 7) as f64 - 2.0,
            )
        });
        let x_true = vec![C64::new(1.0, 1.0), C64::new(-2.0, 0.5), C64::new(0.0, -1.0)];
        let b = a.matvec(&x_true);
        let x = Qr::new(a).unwrap().solve_least_squares(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((*xi - *ti).abs() < 1e-10);
        }
    }

    #[test]
    fn wide_matrix_rejected() {
        assert!(Qr::new(Matrix::<f64>::zeros(2, 3)).is_err());
    }

    #[test]
    fn rank_deficient_detected_on_solve() {
        let a = Matrix::from_rows(&[&[1.0, 1.0][..], &[2.0, 2.0][..], &[3.0, 3.0][..]]);
        let qr = Qr::new(a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn apply_q_qh_roundtrip() {
        let a = Matrix::from_fn(4, 4, |i, j| C64::new((i * 3 + j) as f64, (j as f64) - 1.0));
        let qr = Qr::new(a).unwrap();
        let orig: Vec<C64> = (0..4).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let mut v = orig.clone();
        qr.apply_qh(&mut v);
        qr.apply_q(&mut v);
        for (u, w) in v.iter().zip(&orig) {
            assert!((*u - *w).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_column_is_skipped() {
        let a = Matrix::from_rows(&[&[0.0, 1.0][..], &[0.0, 2.0][..], &[0.0, 2.0][..]]);
        let qr = Qr::new(a.clone()).unwrap();
        assert!((&reconstruct(&qr) - &a).max_abs() < 1e-13);
    }
}
