//! Eigenvalues of general dense matrices via the shifted QR algorithm, and
//! eigenvector extraction by inverse iteration — for dense matrices
//! ([`eig_with_vectors`]) and, doing the same arithmetic on the non-zero
//! entries only, for matrices that already are upper Hessenberg
//! ([`eig_hessenberg_with_vectors`]).
//!
//! The driver [`eig_complex`] reduces to upper Hessenberg form and runs an
//! explicit single-shift QR iteration with Wilkinson shifts, Givens
//! rotations, and aggressive deflation. Real matrices are promoted to
//! complex ([`eig_real`]): this trades a constant factor for a much simpler,
//! more robust kernel, which is acceptable because the dense eigensolver only
//! plays the role of the paper's `O(n^3)` *baseline* and of a validation
//! oracle for the Arnoldi path.

use crate::complex::C64;
use crate::error::LinalgError;
use crate::hessenberg::hessenberg;
use crate::lu::{back_substitute, factor_in_place, pivot_index, pivot_rcond, solve_factored};
use crate::matrix::Matrix;
use crate::vector::{normalize, nrm2};

/// A complex Givens rotation `G = [[c, s], [-conj(s), c]]` with real `c`.
#[derive(Debug, Clone, Copy)]
struct Givens {
    c: f64,
    s: C64,
}

impl Givens {
    /// Builds the rotation that maps `(a, b)` to `(r, 0)`.
    fn make(a: C64, b: C64) -> (Givens, C64) {
        let b_abs = b.abs();
        if b_abs == 0.0 {
            return (
                Givens {
                    c: 1.0,
                    s: C64::zero(),
                },
                a,
            );
        }
        let a_abs = a.abs();
        if a_abs == 0.0 {
            // Swap-like rotation.
            let s = b.conj() * C64::from_real(1.0 / b_abs);
            return (Givens { c: 0.0, s }, C64::from_real(b_abs));
        }
        let d = a_abs.hypot(b_abs);
        let c = a_abs / d;
        let phase_a = a * C64::from_real(1.0 / a_abs);
        let s = phase_a * b.conj() * C64::from_real(1.0 / d);
        let r = phase_a * C64::from_real(d);
        (Givens { c, s }, r)
    }

    /// Applies the rotation to rows `(i, i+1)` over columns `cols` of `h`.
    fn apply_left(&self, h: &mut Matrix<C64>, i: usize, cols: std::ops::Range<usize>) {
        for j in cols {
            let a = h[(i, j)];
            let b = h[(i + 1, j)];
            h[(i, j)] = a * self.c + self.s * b;
            h[(i + 1, j)] = -(self.s.conj()) * a + b * self.c;
        }
    }

    /// Applies the conjugate-transposed rotation to columns `(j, j+1)` over
    /// rows `rows` of `h` (right multiplication by `G^H`).
    fn apply_right(&self, h: &mut Matrix<C64>, j: usize, rows: std::ops::Range<usize>) {
        for i in rows {
            let a = h[(i, j)];
            let b = h[(i, j + 1)];
            h[(i, j)] = a * self.c + b * self.s.conj();
            h[(i, j + 1)] = -self.s * a + b * self.c;
        }
    }
}

/// Eigenvalues of the 2x2 complex matrix `[[a, b], [c, d]]`.
fn eig2(a: C64, b: C64, c: C64, d: C64) -> (C64, C64) {
    let half_tr = (a + d) * C64::from_real(0.5);
    let half_diff = (a - d) * C64::from_real(0.5);
    let disc = (half_diff * half_diff + b * c).sqrt();
    (half_tr + disc, half_tr - disc)
}

/// Wilkinson shift: the eigenvalue of the trailing 2x2 block closest to its
/// bottom-right entry.
fn wilkinson_shift(h: &Matrix<C64>, hi: usize) -> C64 {
    let a = h[(hi - 2, hi - 2)];
    let b = h[(hi - 2, hi - 1)];
    let c = h[(hi - 1, hi - 2)];
    let d = h[(hi - 1, hi - 1)];
    let (l1, l2) = eig2(a, b, c, d);
    if (l1 - d).abs() <= (l2 - d).abs() {
        l1
    } else {
        l2
    }
}

/// Eigenvalues of an upper Hessenberg complex matrix via shifted QR.
///
/// # Errors
///
/// Returns [`LinalgError::NoConvergence`] if the iteration budget
/// (`60 * n` QR sweeps overall) is exhausted — in practice this indicates a
/// matrix with pathological scaling.
pub fn eig_hessenberg(mut h: Matrix<C64>) -> Result<Vec<C64>, LinalgError> {
    let mut eigs = Vec::with_capacity(h.rows());
    qr_eigenvalues(&mut h, &mut eigs, &mut Vec::new())?;
    Ok(eigs)
}

/// The shifted QR iteration behind [`eig_hessenberg`], on caller-owned
/// storage: destroys `h`, leaves the eigenvalues in `eigs` (cleared first)
/// and uses `rotations` as per-sweep scratch.
fn qr_eigenvalues(
    h: &mut Matrix<C64>,
    eigs: &mut Vec<C64>,
    rotations: &mut Vec<Givens>,
) -> Result<(), LinalgError> {
    if !h.is_square() {
        return Err(LinalgError::NotSquare {
            rows: h.rows(),
            cols: h.cols(),
        });
    }
    eigs.clear();
    let n = h.rows();
    if n == 0 {
        return Ok(());
    }
    let mut hi = n;
    let mut iters_this_block = 0usize;
    let mut total_iters = 0usize;
    let budget = 60 * n + 100;
    let norm_scale = h.frobenius_norm().max(f64::MIN_POSITIVE);
    while hi > 0 {
        if hi == 1 {
            eigs.push(h[(0, 0)]);
            break;
        }
        // Deflation scan: zero negligible subdiagonals, then find the start
        // `lo` of the trailing unreduced block.
        let mut lo = hi - 1;
        while lo > 0 {
            let sub = h[(lo, lo - 1)].abs();
            let local = h[(lo - 1, lo - 1)].abs() + h[(lo, lo)].abs();
            let thresh = f64::EPSILON * if local > 0.0 { local } else { norm_scale };
            if sub <= thresh {
                h[(lo, lo - 1)] = C64::zero();
                break;
            }
            lo -= 1;
        }
        if lo == hi - 1 {
            // 1x1 block deflated.
            eigs.push(h[(hi - 1, hi - 1)]);
            hi -= 1;
            iters_this_block = 0;
            continue;
        }
        if lo == hi - 2 {
            // 2x2 block deflated: solve its quadratic directly.
            let (l1, l2) = eig2(
                h[(hi - 2, hi - 2)],
                h[(hi - 2, hi - 1)],
                h[(hi - 1, hi - 2)],
                h[(hi - 1, hi - 1)],
            );
            eigs.push(l1);
            eigs.push(l2);
            hi -= 2;
            iters_this_block = 0;
            continue;
        }
        if total_iters >= budget {
            return Err(LinalgError::NoConvergence {
                iterations: total_iters,
            });
        }
        // One explicit shifted QR sweep on the active block lo..hi.
        let sigma = if iters_this_block > 0 && iters_this_block.is_multiple_of(12) {
            // Exceptional shift to break rare convergence stalls.
            let pert = h[(hi - 1, hi - 2)].abs()
                + if hi >= 3 {
                    h[(hi - 2, hi - 3)].abs()
                } else {
                    0.0
                };
            h[(hi - 1, hi - 1)] + C64::from_real(1.5 * pert)
        } else {
            wilkinson_shift(h, hi)
        };
        for i in lo..hi {
            h[(i, i)] -= sigma;
        }
        // QR by Givens: eliminate the subdiagonal.
        rotations.clear();
        for k in lo..hi - 1 {
            let (g, r) = Givens::make(h[(k, k)], h[(k + 1, k)]);
            h[(k, k)] = r;
            h[(k + 1, k)] = C64::zero();
            g.apply_left(h, k, (k + 1)..hi);
            rotations.push(g);
        }
        // Form R Q^H ... i.e. multiply by the conjugate rotations on the right.
        for (idx, g) in rotations.iter().enumerate() {
            let k = lo + idx;
            g.apply_right(h, k, lo..(k + 2).min(hi));
        }
        for i in lo..hi {
            h[(i, i)] += sigma;
        }
        iters_this_block += 1;
        total_iters += 1;
    }
    Ok(())
}

/// Eigenvalues of a general complex matrix.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for non-square input.
/// * [`LinalgError::InvalidArgument`] for non-finite entries.
/// * [`LinalgError::NoConvergence`] if the QR iteration stalls.
///
/// # Example
///
/// ```
/// use pheig_linalg::{Matrix, C64, eig::eig_complex};
/// # fn main() -> Result<(), pheig_linalg::LinalgError> {
/// let a = Matrix::from_diag(&[C64::new(2.0, 0.0), C64::new(0.0, 3.0)]);
/// let mut e = eig_complex(&a)?;
/// e.sort_by(|x, y| x.re.partial_cmp(&y.re).unwrap());
/// assert!((e[0] - C64::new(0.0, 3.0)).abs() < 1e-12);
/// assert!((e[1] - C64::new(2.0, 0.0)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn eig_complex(a: &Matrix<C64>) -> Result<Vec<C64>, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::invalid("matrix contains non-finite entries"));
    }
    let h = hessenberg(a.clone());
    eig_hessenberg(h)
}

/// Eigenvalues of a general real matrix (promoted to complex internally).
///
/// Complex eigenvalues of real matrices come in conjugate pairs; small
/// imaginary round-off on real eigenvalues is *not* cleaned up here — use the
/// caller's tolerance.
///
/// # Errors
///
/// Same as [`eig_complex`].
pub fn eig_real(a: &Matrix<f64>) -> Result<Vec<C64>, LinalgError> {
    eig_complex(&a.to_c64())
}

/// Eigen-decomposition (values and right eigenvectors) of a small dense
/// complex matrix (`d <= ~100`), e.g. the Rayleigh–Ritz matrix of a locked
/// subspace. For a matrix that already is upper Hessenberg use
/// [`eig_hessenberg_with_vectors`], which returns the same bits for a
/// fraction of the work.
///
/// Eigenvectors are computed by three steps of inverse iteration per
/// eigenvalue, each against a slightly perturbed shift so the LU
/// factorization stays nonsingular. Returned vectors have unit norm;
/// the `k`-th column of the matrix corresponds to `values[k]`.
///
/// # Errors
///
/// Propagates eigenvalue-iteration failures from [`eig_complex`].
pub fn eig_with_vectors(a: &Matrix<C64>) -> Result<(Vec<C64>, Matrix<C64>), LinalgError> {
    let n = a.rows();
    let values = eig_complex(a)?;
    let mut vectors = Matrix::zeros(n, n);
    let scale = a.frobenius_norm().max(f64::MIN_POSITIVE);
    let mut lu = DenseShiftedLu {
        a,
        work: Matrix::zeros(n, n),
        pivots: Vec::with_capacity(n),
    };
    let mut v = vec![C64::zero(); n];
    for (k, &lambda) in values.iter().enumerate() {
        inverse_iteration(&mut lu, lambda, k, scale, &mut v)?;
        for i in 0..n {
            vectors[(i, k)] = v[i];
        }
    }
    Ok((values, vectors))
}

/// An LU factorization of `A - shift I` that can be redone for another
/// shift on the same storage: what [`inverse_iteration`] needs from the
/// dense and the Hessenberg-aware factorizations alike.
trait ShiftedLu {
    /// Factors `A - shift I`; on error the factors are unusable until the
    /// next successful call.
    fn factor(&mut self, shift: C64) -> Result<(), LinalgError>;
    /// `min |u_ii| / max |u_ii|` of the current factors.
    fn rcond(&self) -> f64;
    /// Solves `(A - shift I) x = b` in place with the current factors.
    fn solve_in_place(&self, b: &mut [C64]);
}

/// One eigenvector by inverse iteration: factor `A - lambda I` (walking a
/// ladder of growing shift perturbations while the factors are singular or
/// `rcond <= 1e-300`), then three solve-and-normalize steps from a
/// deterministic start vector. `v` receives the unit-norm result.
fn inverse_iteration(
    lu: &mut impl ShiftedLu,
    lambda: C64,
    k: usize,
    scale: f64,
    v: &mut [C64],
) -> Result<(), LinalgError> {
    let mut shift = lambda;
    let mut perturb = 1e-12 * scale;
    loop {
        if lu.factor(shift).is_ok() && lu.rcond() > 1e-300 {
            break;
        }
        shift = lambda + C64::from_real(perturb);
        perturb *= 16.0;
        if perturb > scale {
            // Give up on perturbation growth; accept whatever LU we can
            // get by a large kick (degenerate case).
            lu.factor(lambda + C64::from_real(scale * 1e-6))?;
            break;
        }
    }
    for (i, vi) in v.iter_mut().enumerate() {
        *vi = C64::new(
            1.0,
            ((i * 2654435761usize.wrapping_add(k)) % 97) as f64 / 97.0,
        );
    }
    normalize(v);
    // Three inverse-iteration steps from that deterministic start vector.
    for _ in 0..3 {
        lu.solve_in_place(v);
        if nrm2(v) == 0.0 {
            break;
        }
        normalize(v);
    }
    Ok(())
}

/// Dense partial-pivoting LU of `a - shift I` on one reused work matrix
/// (the elimination of [`crate::Lu::new`]).
struct DenseShiftedLu<'a> {
    a: &'a Matrix<C64>,
    work: Matrix<C64>,
    pivots: Vec<usize>,
}

impl ShiftedLu for DenseShiftedLu<'_> {
    fn factor(&mut self, shift: C64) -> Result<(), LinalgError> {
        self.work.as_mut_slice().copy_from_slice(self.a.as_slice());
        for i in 0..self.work.rows() {
            self.work[(i, i)] -= shift;
        }
        factor_in_place(&mut self.work, &mut self.pivots)?;
        Ok(())
    }

    fn rcond(&self) -> f64 {
        pivot_rcond(&self.work)
    }

    fn solve_in_place(&self, b: &mut [C64]) {
        solve_factored(&self.work, &self.pivots, b);
    }
}

/// Result and reusable scratch of [`eig_hessenberg_with_vectors`]: after
/// the first call at a given order, further calls do not allocate.
#[derive(Debug, Clone, Default)]
pub struct HessenbergEig {
    values: Vec<C64>,
    /// Row `k` is the eigenvector of `values[k]`.
    vectors: Matrix<C64>,
    /// QR iterate, then the LU work matrix of each inverse iteration.
    work: Matrix<C64>,
    /// LU multiplier of column `k` (the one sub-diagonal entry).
    mult: Vec<C64>,
    /// Whether LU step `k` exchanged rows `k` and `k + 1`.
    swapped: Vec<bool>,
    rotations: Vec<Givens>,
}

impl HessenbergEig {
    /// Empty storage; grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The eigenvalues, in the order the QR iteration deflated them.
    pub fn values(&self) -> &[C64] {
        &self.values
    }

    /// The unit-norm eigenvector belonging to `values()[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.values().len()`.
    pub fn vector(&self, k: usize) -> &[C64] {
        self.vectors.row(k)
    }
}

/// Eigen-decomposition of the leading `m x m` block of `h`, which must be
/// **upper Hessenberg** (entries below the first sub-diagonal are taken to
/// be zero and never read): the projected matrix of an Arnoldi
/// factorization.
///
/// Bit-for-bit the values and vectors [`eig_with_vectors`] returns for the
/// same block, at `O(m^2)` per eigenvalue with small constants instead of
/// a dense Householder reduction plus a cloned dense LU per eigenvalue.
/// Every step is the dense algorithm with the multiply-adds against
/// structural zeros left out: the Householder reflector of column `k` has
/// one non-zero entry, so it touches row and column `k + 1` only; the
/// partial-pivoting LU of `H - shift I` compares two pivot candidates and
/// eliminates one row per column (one multiplier and one swap flag per
/// column, applied to the right-hand side as the elimination goes, which
/// subtracts the same products in the same order as the dense
/// permute-then-substitute form). Skipping `x - s * 0` is exact for finite
/// `s` up to the sign of a zero `x`.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `h` is smaller than `m x m`;
/// * [`LinalgError::InvalidArgument`] for non-finite entries in the block;
/// * [`LinalgError::NoConvergence`] if the QR iteration stalls.
pub fn eig_hessenberg_with_vectors(
    h: &Matrix<C64>,
    m: usize,
    out: &mut HessenbergEig,
) -> Result<(), LinalgError> {
    if h.rows() < m || h.cols() < m {
        return Err(LinalgError::shape(
            format!("at least {m} x {m}"),
            format!("{} x {}", h.rows(), h.cols()),
        ));
    }
    let HessenbergEig {
        values,
        vectors,
        work,
        mult,
        swapped,
        rotations,
    } = out;
    work.reset_zeros(m, m);
    copy_hessenberg(h, work);
    if !work.is_finite() {
        return Err(LinalgError::invalid("matrix contains non-finite entries"));
    }
    let scale = work.frobenius_norm().max(f64::MIN_POSITIVE);
    rotate_subdiagonal(work);
    qr_eigenvalues(work, values, rotations)?;
    vectors.reset_zeros(m, m);
    mult.clear();
    mult.resize(m, C64::zero());
    swapped.clear();
    swapped.resize(m, false);
    let mut lu = HessenbergShiftedLu {
        h,
        work,
        mult,
        swapped,
    };
    for (k, &lambda) in values.iter().enumerate() {
        inverse_iteration(&mut lu, lambda, k, scale, vectors.row_mut(k))?;
    }
    Ok(())
}

/// Copies the upper-Hessenberg part of the leading block of `h` (of the
/// order of `work`) over the same entries of `work`; what `work` holds
/// below the first sub-diagonal is left as it is.
fn copy_hessenberg(h: &Matrix<C64>, work: &mut Matrix<C64>) {
    let m = work.rows();
    for i in 0..m {
        let from = i.saturating_sub(1);
        work.row_mut(i)[from..].copy_from_slice(&h.row(i)[from..m]);
    }
}

/// What [`hessenberg`] does to a matrix that already is upper Hessenberg:
/// the reflector of column `k` reduces to a phase factor on row and column
/// `k + 1` that makes the sub-diagonal entry `-phase * |x0|`.
fn rotate_subdiagonal(a: &mut Matrix<C64>) {
    let n = a.rows();
    if n < 3 {
        return;
    }
    for k in 0..n - 2 {
        let x0 = a[(k + 1, k)];
        let norm_x = x0.abs_sq().sqrt();
        if norm_x == 0.0 {
            continue;
        }
        let phase = if x0.abs() == 0.0 {
            C64::one()
        } else {
            x0 * C64::from_real(1.0 / x0.abs())
        };
        let beta = -phase * C64::from_real(norm_x);
        let vhv = 2.0 * (norm_x * norm_x + x0.abs() * norm_x);
        if vhv == 0.0 {
            continue;
        }
        let tau = C64::from_real(2.0 / vhv);
        let v = x0 - beta;
        // Left application on row k + 1 (columns k..n).
        for x in &mut a.row_mut(k + 1)[k..] {
            let mut s = C64::zero();
            s += v.conj() * *x;
            s *= tau;
            *x -= s * v;
        }
        // Right application on column k + 1 (rows 0..=k + 2).
        for i in 0..(k + 3).min(n) {
            let mut s = C64::zero();
            s += a[(i, k + 1)] * v;
            s *= tau;
            a[(i, k + 1)] -= s * v.conj();
        }
        a[(k + 1, k)] = beta;
    }
}

/// Partial-pivoting LU of the upper-Hessenberg `h - shift I` (leading
/// block of the order of `work`): `work` holds `U`, `mult[k]` the
/// multiplier of column `k`, `swapped[k]` whether rows `k`, `k + 1` were
/// exchanged before eliminating it.
struct HessenbergShiftedLu<'a> {
    h: &'a Matrix<C64>,
    work: &'a mut Matrix<C64>,
    mult: &'a mut [C64],
    swapped: &'a mut [bool],
}

impl ShiftedLu for HessenbergShiftedLu<'_> {
    fn factor(&mut self, shift: C64) -> Result<(), LinalgError> {
        let n = self.work.rows();
        copy_hessenberg(self.h, self.work);
        for i in 0..n {
            self.work[(i, i)] -= shift;
        }
        for k in 0..n {
            // The pivot candidates are rows k and k + 1; every row below
            // holds a structural zero in this column.
            let candidates = if k + 1 < n { 2 } else { 1 };
            let Some(step) = pivot_index(candidates, |i| self.work[(k + i, k)]) else {
                return Err(LinalgError::Singular { at: k });
            };
            let swap = step == 1;
            self.swapped[k] = swap;
            if k + 1 == n {
                break;
            }
            let (top, bottom) = self.work.as_mut_slice().split_at_mut((k + 1) * n);
            let (upper, lower) = (&mut top[k * n + k..], &mut bottom[k..n]);
            if swap {
                upper.swap_with_slice(lower);
            }
            let lik = lower[0] * (C64::one() / upper[0]);
            self.mult[k] = lik;
            if lik == C64::zero() {
                continue;
            }
            for (x, &u) in lower[1..].iter_mut().zip(&upper[1..]) {
                *x -= lik * u;
            }
        }
        Ok(())
    }

    fn rcond(&self) -> f64 {
        pivot_rcond(self.work)
    }

    fn solve_in_place(&self, b: &mut [C64]) {
        let n = self.work.rows();
        assert_eq!(b.len(), n, "solve_in_place rhs length mismatch");
        for k in 0..n.saturating_sub(1) {
            if self.swapped[k] {
                b.swap(k, k + 1);
            }
            let bk = b[k];
            b[k + 1] -= self.mult[k] * bk;
        }
        back_substitute(self.work, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::Lu;

    fn sort_eigs(mut e: Vec<C64>) -> Vec<C64> {
        e.sort_by(|x, y| (x.re, x.im).partial_cmp(&(y.re, y.im)).unwrap());
        e
    }

    fn assert_spectra_match(a: Vec<C64>, b: Vec<C64>, tol: f64) {
        let (a, b) = (sort_eigs(a), sort_eigs(b));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn diagonal_matrix() {
        let d = [C64::new(1.0, 0.0), C64::new(-2.0, 0.5), C64::new(3.0, -3.0)];
        let a = Matrix::from_diag(&d);
        assert_spectra_match(eig_complex(&a).unwrap(), d.to_vec(), 1e-12);
    }

    #[test]
    fn upper_triangular_matrix() {
        let mut a =
            Matrix::from_diag(&[C64::new(1.0, 1.0), C64::new(2.0, 0.0), C64::new(5.0, -1.0)]);
        a[(0, 1)] = C64::new(10.0, 3.0);
        a[(0, 2)] = C64::new(-4.0, 0.0);
        a[(1, 2)] = C64::new(7.0, 7.0);
        assert_spectra_match(
            eig_complex(&a).unwrap(),
            vec![C64::new(1.0, 1.0), C64::new(2.0, 0.0), C64::new(5.0, -1.0)],
            1e-10,
        );
    }

    #[test]
    fn real_rotation_gives_conjugate_pair() {
        let a = Matrix::from_rows(&[&[0.0, 1.0][..], &[-1.0, 0.0][..]]);
        assert_spectra_match(
            eig_real(&a).unwrap(),
            vec![C64::new(0.0, -1.0), C64::new(0.0, 1.0)],
            1e-12,
        );
    }

    #[test]
    fn known_spectrum_via_similarity() {
        // Build A = P D P^{-1} with known D and well-conditioned P.
        let n = 8;
        let d: Vec<C64> = (0..n)
            .map(|k| C64::new(k as f64 - 3.0, if k % 2 == 0 { 0.5 } else { -1.5 }))
            .collect();
        let p = Matrix::from_fn(n, n, |i, j| {
            C64::new(
                if i == j { 4.0 } else { 0.0 } + ((i * 5 + j * 3) % 7) as f64 / 7.0,
                ((i + j * 2) % 5) as f64 / 9.0,
            )
        });
        let lu = Lu::new(p.clone()).unwrap();
        let pinv = lu.inverse();
        let a = &(&p * &Matrix::from_diag(&d)) * &pinv;
        assert_spectra_match(eig_complex(&a).unwrap(), d, 1e-8);
    }

    #[test]
    fn companion_matrix_roots() {
        // Companion matrix of z^3 - 6 z^2 + 11 z - 6 = (z-1)(z-2)(z-3).
        let a = Matrix::from_rows(&[
            &[6.0, -11.0, 6.0][..],
            &[1.0, 0.0, 0.0][..],
            &[0.0, 1.0, 0.0][..],
        ]);
        assert_spectra_match(
            eig_real(&a).unwrap(),
            vec![
                C64::from_real(1.0),
                C64::from_real(2.0),
                C64::from_real(3.0),
            ],
            1e-9,
        );
    }

    #[test]
    fn repeated_eigenvalues() {
        // Jordan-ish block: eigenvalue 2 with multiplicity 3 (defective).
        let mut a = Matrix::from_diag(&[C64::from_real(2.0); 3]);
        a[(0, 1)] = C64::from_real(1.0);
        a[(1, 2)] = C64::from_real(1.0);
        let e = eig_complex(&a).unwrap();
        for z in e {
            assert!((z - C64::from_real(2.0)).abs() < 1e-4, "{z}");
        }
    }

    #[test]
    fn larger_random_matrix_trace_check() {
        // Sum of eigenvalues equals the trace; product equals determinant.
        let n = 24;
        let a = Matrix::from_fn(n, n, |i, j| {
            C64::new(
                (((i * 31 + j * 17) % 19) as f64 - 9.0) / 5.0,
                (((i * 13 + j * 7) % 23) as f64 - 11.0) / 7.0,
            )
        });
        let e = eig_complex(&a).unwrap();
        assert_eq!(e.len(), n);
        let tr: C64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: C64 = e.iter().copied().sum();
        assert!(
            (tr - sum).abs() < 1e-8 * a.frobenius_norm().max(1.0),
            "{tr} vs {sum}"
        );
    }

    #[test]
    fn empty_and_single() {
        let a = Matrix::<C64>::zeros(0, 0);
        assert!(eig_complex(&a).unwrap().is_empty());
        let b = Matrix::from_diag(&[C64::new(4.2, -1.0)]);
        assert_eq!(eig_complex(&b).unwrap(), vec![C64::new(4.2, -1.0)]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(eig_complex(&Matrix::<C64>::zeros(2, 3)).is_err());
        let mut a = Matrix::<C64>::zeros(2, 2);
        a[(0, 0)] = C64::new(f64::NAN, 0.0);
        assert!(eig_complex(&a).is_err());
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let n = 10;
        let a = Matrix::from_fn(n, n, |i, j| {
            C64::new(
                (((i * 3 + j * 11) % 17) as f64 - 8.0) / 4.0,
                (((i * 7 + j) % 13) as f64 - 6.0) / 4.0,
            )
        });
        let (values, vectors) = eig_with_vectors(&a).unwrap();
        for (k, &lambda) in values.iter().enumerate() {
            let v = vectors.col(k);
            let av = a.matvec(&v);
            let mut resid = 0.0f64;
            for i in 0..n {
                resid = resid.max((av[i] - lambda * v[i]).abs());
            }
            assert!(
                resid < 1e-7 * a.frobenius_norm(),
                "residual {resid} for eigenvalue {lambda}"
            );
        }
    }

    /// A seeded upper-Hessenberg matrix with generic complex entries.
    fn seeded_hessenberg(n: usize, seed: u64) -> Matrix<C64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        Matrix::from_fn(n, n, |i, j| {
            if i <= j + 1 {
                C64::new(next() * 4.0, next() * 4.0)
            } else {
                C64::zero()
            }
        })
    }

    /// Asserts the Hessenberg-aware extraction of the leading `m` block of
    /// `h` equals `eig_with_vectors` on that block bit for bit.
    fn assert_bitwise_equal_to_dense(h: &Matrix<C64>, m: usize, out: &mut HessenbergEig) {
        let block = h.submatrix(0, m, 0, m);
        let (values, vectors) = eig_with_vectors(&block).unwrap();
        eig_hessenberg_with_vectors(h, m, out).unwrap();
        assert_eq!(out.values().len(), m);
        for k in 0..m {
            let (got, want) = (out.values()[k], values[k]);
            assert_eq!(
                (got.re.to_bits(), got.im.to_bits()),
                (want.re.to_bits(), want.im.to_bits()),
                "value {k} of order {m}: {got} vs {want}"
            );
            for i in 0..m {
                let (got, want) = (out.vector(k)[i], vectors[(i, k)]);
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "vector {k} entry {i} of order {m}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn hessenberg_extraction_is_bitwise_the_dense_one() {
        // One scratch across every order: reuse must not leak state.
        let mut out = HessenbergEig::new();
        for (n, seed) in [(1, 1), (2, 2), (3, 3), (14, 4), (32, 5), (60, 6), (60, 7)] {
            assert_bitwise_equal_to_dense(&seeded_hessenberg(n, seed), n, &mut out);
        }
        // The leading block of a larger (m + 1) x m Arnoldi-shaped matrix.
        let tall = Matrix::from_fn(15, 14, |i, j| seeded_hessenberg(15, 8)[(i, j)]);
        assert_bitwise_equal_to_dense(&tall, 14, &mut out);
        assert_bitwise_equal_to_dense(&tall, 9, &mut out);
        // Happy breakdown: an exact-zero sub-diagonal splits the matrix.
        let mut split = seeded_hessenberg(14, 9);
        split[(6, 5)] = C64::zero();
        assert_bitwise_equal_to_dense(&split, 14, &mut out);
        // Repeated eigenvalues: two copies of one 3 x 3 Hessenberg block.
        let block = seeded_hessenberg(3, 10);
        let mut twice = Matrix::zeros(6, 6);
        twice.set_block(0, 0, &block);
        twice.set_block(3, 3, &block);
        assert_bitwise_equal_to_dense(&twice, 6, &mut out);
        // Real-valued entries (every imaginary part an exact zero).
        let real = seeded_hessenberg(14, 11).map(|z| C64::from_real(z.re));
        assert_bitwise_equal_to_dense(&real, 14, &mut out);
    }

    #[test]
    fn hessenberg_extraction_walks_the_perturbation_ladder_like_the_dense_one() {
        // Upper triangular with a defective repeated eigenvalue: the QR
        // iteration deflates the diagonal exactly, so `H - lambda I` has an
        // exact zero pivot and the first rung of the ladder must be taken.
        let mut h = seeded_hessenberg(5, 12);
        for i in 1..5 {
            h[(i, i - 1)] = C64::zero();
        }
        h[(3, 3)] = h[(1, 1)];
        let lambda = h[(1, 1)];
        let mut shifted = h.clone();
        for i in 0..5 {
            shifted[(i, i)] -= lambda;
        }
        assert!(matches!(
            Lu::new(shifted),
            Err(LinalgError::Singular { .. })
        ));
        assert_bitwise_equal_to_dense(&h, 5, &mut HessenbergEig::new());
    }

    #[test]
    fn hessenberg_extraction_rejects_bad_input() {
        let mut out = HessenbergEig::new();
        let small = Matrix::<C64>::zeros(2, 3);
        assert!(matches!(
            eig_hessenberg_with_vectors(&small, 3, &mut out),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        for bad in [f64::NAN, f64::INFINITY] {
            let mut h = seeded_hessenberg(4, 13);
            h[(2, 3)] = C64::new(0.0, bad);
            assert!(matches!(
                eig_hessenberg_with_vectors(&h, 4, &mut out),
                Err(LinalgError::InvalidArgument { .. })
            ));
        }
        eig_hessenberg_with_vectors(&small, 0, &mut out).unwrap();
        assert!(out.values().is_empty());
    }

    #[test]
    fn hamiltonian_structure_spectrum_symmetry() {
        // A small real Hamiltonian matrix [[A, Q], [R, -A^T]] with Q, R
        // symmetric has spectrum symmetric about both axes.
        let a = Matrix::from_rows(&[&[-1.0, 2.0][..], &[0.5, -3.0][..]]);
        let q = Matrix::from_rows(&[&[1.0, 0.2][..], &[0.2, 2.0][..]]);
        let r = Matrix::from_rows(&[&[-0.5, 0.1][..], &[0.1, -1.0][..]]);
        let mut m = Matrix::<f64>::zeros(4, 4);
        m.set_block(0, 0, &a);
        m.set_block(0, 2, &q);
        m.set_block(2, 0, &r);
        m.set_block(2, 2, &a.transpose().scaled(-1.0));
        let e = eig_real(&m).unwrap();
        // For every eigenvalue, -lambda must also be (approximately) present.
        for z in &e {
            let has_neg = e.iter().any(|w| (*w + *z).abs() < 1e-8);
            assert!(has_neg, "spectrum not symmetric: missing {}", -*z);
        }
    }
}
