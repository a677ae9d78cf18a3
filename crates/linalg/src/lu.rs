//! LU factorization with partial pivoting.

use crate::error::LinalgError;
use crate::kernels::with_simd;
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// An LU factorization `P A = L U` with partial (row) pivoting.
///
/// Used throughout the workspace to factor the 2p x 2p Sherman–Morrison
/// middle matrix once per shift, and the small `R`/`S` matrices of the
/// Hamiltonian construction.
///
/// # Example
///
/// ```
/// use pheig_linalg::{Matrix, Lu};
///
/// # fn main() -> Result<(), pheig_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0][..], &[1.0, 1.0][..]]);
/// let lu = Lu::new(a)?;
/// let x = lu.solve(&[2.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-14 && (x[1] - 1.0).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu<S: Scalar> {
    factors: Matrix<S>,
    pivots: Vec<usize>,
    swaps: usize,
}

impl<S: Scalar> Lu<S> {
    /// Factors `a` in place.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot is exactly zero (the matrix is
    ///   singular to working precision).
    pub fn new(mut a: Matrix<S>) -> Result<Self, LinalgError> {
        let mut pivots = Vec::with_capacity(a.rows());
        let swaps = factor_in_place(&mut a, &mut pivots)?;
        Ok(Lu {
            factors: a,
            pivots,
            swaps,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.factors.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>, LinalgError> {
        if b.len() != self.dim() {
            return Err(LinalgError::shape(
                format!("rhs of length {}", self.dim()),
                format!("length {}", b.len()),
            ));
        }
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        Ok(x)
    }

    /// Solves `A x = b` in place, overwriting `b` with `x`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_in_place(&self, b: &mut [S]) {
        solve_factored(&self.factors, &self.pivots, b);
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix<S>) -> Result<Matrix<S>, LinalgError> {
        if b.rows() != self.dim() {
            return Err(LinalgError::shape(
                format!("{} rows", self.dim()),
                format!("{} rows", b.rows()),
            ));
        }
        let mut out = Matrix::zeros(b.rows(), b.cols());
        let mut col = vec![S::ZERO; b.rows()];
        for j in 0..b.cols() {
            for i in 0..b.rows() {
                col[i] = b[(i, j)];
            }
            self.solve_in_place(&mut col);
            for i in 0..b.rows() {
                out[(i, j)] = col[i];
            }
        }
        Ok(out)
    }

    /// The inverse matrix `A^{-1}` (dense; prefer [`Lu::solve`] when possible).
    pub fn inverse(&self) -> Matrix<S> {
        let n = self.dim();
        self.solve_matrix(&Matrix::identity(n))
            .expect("identity has matching shape")
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> S {
        let n = self.dim();
        let mut d = if self.swaps.is_multiple_of(2) {
            S::ONE
        } else {
            -S::ONE
        };
        for i in 0..n {
            d *= self.factors[(i, i)];
        }
        d
    }

    /// Reciprocal condition estimate from the pivot magnitudes
    /// (cheap heuristic: `min |u_ii| / max |u_ii|`).
    pub fn rcond_estimate(&self) -> f64 {
        pivot_rcond(&self.factors)
    }
}

/// Factors the square matrix `a` in place (`P A = L U`, unit lower
/// triangle below the diagonal), recording the row chosen at each step in
/// `pivots` (cleared first). Returns the number of row swaps. The storage
/// behind [`Lu::new`].
///
/// The pivot of each column is [`pivot_index`]'s choice; each row below it
/// is updated as one contiguous slice, `x -= l * a_kj` per element with
/// the multiply and the subtract of the textbook indexed loop (no FMA), so
/// the SIMD tier only changes how many elements one instruction carries.
///
/// # Errors
///
/// As [`Lu::new`]; `a` is left partially factored.
pub(crate) fn factor_in_place<S: Scalar>(
    a: &mut Matrix<S>,
    pivots: &mut Vec<usize>,
) -> Result<usize, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    pivots.clear();
    with_simd(
        #[inline(always)]
        || {
            let mut swaps = 0;
            for k in 0..n {
                let Some(step) = pivot_index(n - k, |i| a[(k + i, k)]) else {
                    return Err(LinalgError::Singular { at: k });
                };
                let p = k + step;
                if p != k {
                    a.swap_rows(p, k);
                    swaps += 1;
                }
                pivots.push(p);
                let (top, below) = a.as_mut_slice().split_at_mut((k + 1) * n);
                let pivot_row = &top[k * n + k..];
                let inv_pivot = S::ONE / pivot_row[0];
                for row in below.chunks_exact_mut(n) {
                    let lik = row[k] * inv_pivot;
                    row[k] = lik;
                    if lik == S::ZERO {
                        continue;
                    }
                    for (x, &akj) in row[k + 1..].iter_mut().zip(&pivot_row[1..]) {
                        *x -= lik * akj;
                    }
                }
            }
            Ok(swaps)
        },
    )
}

/// Relative width of the band around the largest squared magnitude inside
/// which [`pivot_index`] compares candidates by `hypot`.
const PIVOT_BAND: f64 = 1e-13;
/// Squared magnitudes [`pivot_index`] trusts: far from overflow and from
/// the subnormal range, so a square carries its few rounding errors only.
const PIVOT_SQ_RANGE: std::ops::RangeInclusive<f64> = 1e-290..=1e290;

/// The partial-pivoting choice among the `len` candidates `at(0..len)`:
/// the first one of largest `hypot` magnitude, or `None` when every
/// candidate is zero (the matrix is singular at this column). The one
/// pivot rule of every LU in this crate: [`factor_in_place`] and the
/// two-candidate Hessenberg one in `eig`.
///
/// `hypot` is what the choice has always been made by, and it is a libm
/// call per entry; the squared magnitude `abs_sq` is two multiplies and an
/// add. Both are within a few ulps of the true magnitude (squared), so a
/// candidate whose square lies more than `PIVOT_BAND` (relative) below the
/// largest square also has a strictly smaller `hypot` than the candidate
/// owning that square: it can neither be chosen nor displace the choice.
/// Only the candidates inside the band are compared by `hypot`, in order,
/// with the strict `>` of the full scan — the same row, and the same
/// `None`, as the full scan. Where a square can be non-finite or lose
/// precision to the subnormal range (any square non-finite, or the largest
/// outside `PIVOT_SQ_RANGE`) the full `hypot` scan runs instead.
#[inline(always)]
pub(crate) fn pivot_index<S: Scalar>(len: usize, at: impl Fn(usize) -> S) -> Option<usize> {
    let mut big = 0.0f64;
    let mut finite = true;
    for i in 0..len {
        let s = at(i).abs_sq();
        finite &= s.is_finite();
        if s > big {
            big = s;
        }
    }
    if finite && PIVOT_SQ_RANGE.contains(&big) {
        let floor = big * (1.0 - PIVOT_BAND);
        let (mut pick, mut best) = (None, 0.0);
        for i in 0..len {
            let z = at(i);
            if z.abs_sq() >= floor {
                let m = z.abs();
                if pick.is_none() || m > best {
                    (pick, best) = (Some(i), m);
                }
            }
        }
        return pick;
    }
    let (mut pick, mut best) = (0, at(0).abs());
    for i in 1..len {
        let m = at(i).abs();
        if m > best {
            (pick, best) = (i, m);
        }
    }
    (best != 0.0).then_some(pick)
}

/// Solves `A x = b` in place against the output of [`factor_in_place`].
pub(crate) fn solve_factored<S: Scalar>(factors: &Matrix<S>, pivots: &[usize], b: &mut [S]) {
    let n = factors.rows();
    assert_eq!(b.len(), n, "solve_in_place rhs length mismatch");
    // Apply row permutation.
    for (k, &p) in pivots.iter().enumerate() {
        if p != k {
            b.swap(k, p);
        }
    }
    // Forward substitution with unit lower triangle.
    for i in 1..n {
        let mut acc = b[i];
        let row = factors.row(i);
        for (j, bj) in b.iter().enumerate().take(i) {
            acc -= row[j] * *bj;
        }
        b[i] = acc;
    }
    back_substitute(factors, b);
}

/// Back substitution `U x = b` in place against the upper triangle of
/// `factors` (rows processed last to first, columns left to right).
pub(crate) fn back_substitute<S: Scalar>(factors: &Matrix<S>, b: &mut [S]) {
    let n = factors.rows();
    for i in (0..n).rev() {
        let mut acc = b[i];
        let row = factors.row(i);
        for j in (i + 1)..n {
            acc -= row[j] * b[j];
        }
        b[i] = acc / row[i];
    }
}

/// `min |u_ii| / max |u_ii|` over the diagonal of factored storage.
pub(crate) fn pivot_rcond<S: Scalar>(factors: &Matrix<S>) -> f64 {
    let n = factors.rows();
    let mut lo = f64::INFINITY;
    let mut hi: f64 = 0.0;
    for i in 0..n {
        let m = factors[(i, i)].abs();
        lo = lo.min(m);
        hi = hi.max(m);
    }
    if hi == 0.0 {
        0.0
    } else {
        lo / hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    #[test]
    fn solve_real_system() {
        let a = Matrix::from_rows(&[
            &[2.0, 1.0, -1.0][..],
            &[-3.0, -1.0, 2.0][..],
            &[-2.0, 1.0, 2.0][..],
        ]);
        let lu = Lu::new(a.clone()).unwrap();
        let x = lu.solve(&[8.0, -11.0, -3.0]).unwrap();
        // Known solution x = (2, 3, -1).
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
        // Residual check.
        let r = a.matvec(&x);
        assert!((r[0] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn solve_complex_system_roundtrip() {
        let n = 6;
        let a = Matrix::from_fn(n, n, |i, j| {
            C64::new(
                ((i * 7 + j * 3) % 11) as f64 - 5.0,
                ((i + 2 * j) % 5) as f64 - 2.0,
            ) + if i == j {
                C64::new(10.0, 0.0)
            } else {
                C64::zero()
            }
        });
        let x_true: Vec<C64> = (0..n)
            .map(|i| C64::new(i as f64, -(i as f64) / 2.0))
            .collect();
        let b = a.matvec(&x_true);
        let lu = Lu::new(a).unwrap();
        let x = lu.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((*xi - *ti).abs() < 1e-10);
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0][..], &[1.0, 0.0][..]]);
        let lu = Lu::new(a).unwrap();
        let x = lu.solve(&[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..]]);
        match Lu::new(a) {
            Err(LinalgError::Singular { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(
            Lu::new(a),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn determinant_with_permutations() {
        // det = -2 for [[0, 1], [2, 0]] (one swap, det(U) = 2 * 1).
        let a = Matrix::from_rows(&[&[0.0, 1.0][..], &[2.0, 0.0][..]]);
        let lu = Lu::new(a).unwrap();
        assert!((lu.det() + 2.0).abs() < 1e-14);
        let i3 = Matrix::<f64>::identity(3);
        assert!((Lu::new(i3).unwrap().det() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn inverse_matches_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0][..], &[2.0, 6.0][..]]);
        let lu = Lu::new(a.clone()).unwrap();
        let inv = lu.inverse();
        let prod = &a * &inv;
        assert!((&prod - &Matrix::identity(2)).max_abs() < 1e-13);
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[&[3.0, 1.0][..], &[1.0, 2.0][..]]);
        let b = Matrix::from_rows(&[&[9.0, 4.0][..], &[8.0, 3.0][..]]);
        let lu = Lu::new(a.clone()).unwrap();
        let x = lu.solve_matrix(&b).unwrap();
        let r = &a * &x;
        assert!((&r - &b).max_abs() < 1e-12);
    }

    #[test]
    fn rcond_of_identity_is_one() {
        let lu = Lu::new(Matrix::<f64>::identity(4)).unwrap();
        assert_eq!(lu.rcond_estimate(), 1.0);
    }

    #[test]
    fn shape_mismatch_rhs() {
        let lu = Lu::new(Matrix::<f64>::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }
}
