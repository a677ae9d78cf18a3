//! The block-diagonal state matrix `A` of the structured realization.
//!
//! Every block is either a 1x1 real pole block or the 2x2 real rotation-like
//! block `[[re, im], [-im, re]]` realizing a complex pole pair. Shifted
//! solves `(A - theta I)^{-1} x` and `(A^T - theta I)^{-1} x` are exact,
//! block-local, and cost `O(n)` — the property that makes the paper's
//! Sherman–Morrison–Woodbury shift-and-invert operator linear in the number
//! of states.

use crate::pole::Pole;
use pheig_linalg::{kernels, Matrix, C64};

/// One diagonal block of `A`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiagBlock {
    /// 1x1 block: a real pole at `a`.
    Real(f64),
    /// 2x2 block `[[re, im], [-im, re]]`: a complex pair `re +/- i im`.
    Pair {
        /// Real part of the pole pair.
        re: f64,
        /// Imaginary part (`> 0`).
        im: f64,
    },
}

impl DiagBlock {
    /// Number of states in the block.
    pub fn order(&self) -> usize {
        match self {
            DiagBlock::Real(_) => 1,
            DiagBlock::Pair { .. } => 2,
        }
    }

    /// The pole this block realizes.
    pub fn pole(&self) -> Pole {
        match *self {
            DiagBlock::Real(a) => Pole::Real(a),
            DiagBlock::Pair { re, im } => Pole::Pair { re, im },
        }
    }
}

impl From<Pole> for DiagBlock {
    fn from(p: Pole) -> Self {
        match p {
            Pole::Real(a) => DiagBlock::Real(a),
            Pole::Pair { re, im } => DiagBlock::Pair { re, im },
        }
    }
}

/// A block-diagonal real matrix made of [`DiagBlock`]s.
///
/// # Example
///
/// ```
/// use pheig_model::block_diag::{BlockDiagonal, DiagBlock};
/// let a = BlockDiagonal::new(vec![
///     DiagBlock::Real(-1.0),
///     DiagBlock::Pair { re: -0.5, im: 3.0 },
/// ]);
/// assert_eq!(a.dim(), 3);
/// let dense = a.to_dense();
/// assert_eq!(dense[(1, 2)], 3.0);
/// assert_eq!(dense[(2, 1)], -3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDiagonal {
    blocks: Vec<DiagBlock>,
    offsets: Vec<usize>,
    dim: usize,
}

impl BlockDiagonal {
    /// Builds the block-diagonal matrix from its blocks.
    pub fn new(blocks: Vec<DiagBlock>) -> Self {
        let mut offsets = Vec::with_capacity(blocks.len() + 1);
        let mut dim = 0;
        for b in &blocks {
            offsets.push(dim);
            dim += b.order();
        }
        offsets.push(dim);
        BlockDiagonal {
            blocks,
            offsets,
            dim,
        }
    }

    /// Total dimension `n`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The blocks.
    pub fn blocks(&self) -> &[DiagBlock] {
        &self.blocks
    }

    /// State offset of block `k`.
    pub fn offset(&self, k: usize) -> usize {
        self.offsets[k]
    }

    /// Dense representation.
    pub fn to_dense(&self) -> Matrix<f64> {
        let mut m = Matrix::zeros(self.dim, self.dim);
        for (k, b) in self.blocks.iter().enumerate() {
            let o = self.offsets[k];
            match *b {
                DiagBlock::Real(a) => m[(o, o)] = a,
                DiagBlock::Pair { re, im } => {
                    m[(o, o)] = re;
                    m[(o, o + 1)] = im;
                    m[(o + 1, o)] = -im;
                    m[(o + 1, o + 1)] = re;
                }
            }
        }
        m
    }

    /// Solves `(A - theta I) y = x` exactly, block by block, `O(n)`.
    ///
    /// Set `transpose` to solve with `A^T` instead of `A`. One complex
    /// division per element: operators that apply a shift repeatedly use
    /// [`Self::shift_solve_factors`], which is tested against this.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn solve_shifted(&self, theta: C64, transpose: bool, x: &[C64], y: &mut [C64]) {
        assert_eq!(x.len(), self.dim, "solve_shifted length mismatch");
        assert_eq!(y.len(), self.dim, "solve_shifted output length mismatch");
        for (k, b) in self.blocks.iter().enumerate() {
            let o = self.offsets[k];
            match *b {
                DiagBlock::Real(a) => {
                    y[o] = x[o] / (C64::from_real(a) - theta);
                }
                DiagBlock::Pair { re, im } => {
                    // (A - theta I) block = [[re - theta, s*im], [-s*im, re - theta]]
                    // with s = +1 for A, -1 for A^T.
                    let d = C64::from_real(re) - theta;
                    let b12 = if transpose { -im } else { im };
                    let det = d * d + C64::from_real(b12 * b12);
                    // inverse = [[d, -b12], [b12, d]] / det
                    let x0 = x[o];
                    let x1 = x[o + 1];
                    y[o] = (d * x0 - x1 * b12) / det;
                    y[o + 1] = (x0 * b12 + d * x1) / det;
                }
            }
        }
    }

    /// Split-complex matrix-vector product `y = A x` (`A` is real, so the
    /// planes never mix): two independent real block-diagonal products in
    /// one pass.
    ///
    /// # Panics
    ///
    /// Panics if any plane length differs from `self.dim()`.
    pub fn matvec_split(&self, xr: &[f64], xi: &[f64], yr: &mut [f64], yi: &mut [f64]) {
        assert_eq!(xr.len(), self.dim, "matvec_split length mismatch");
        assert_eq!(xi.len(), self.dim, "matvec_split length mismatch");
        assert_eq!(yr.len(), self.dim, "matvec_split output length mismatch");
        assert_eq!(yi.len(), self.dim, "matvec_split output length mismatch");
        kernels::with_simd(
            #[inline(always)]
            || {
                for (k, b) in self.blocks.iter().enumerate() {
                    let o = self.offsets[k];
                    match *b {
                        DiagBlock::Real(a) => {
                            yr[o] = xr[o] * a;
                            yi[o] = xi[o] * a;
                        }
                        DiagBlock::Pair { re, im } => {
                            yr[o] = xr[o] * re + xr[o + 1] * im;
                            yi[o] = xi[o] * re + xi[o + 1] * im;
                            yr[o + 1] = xr[o + 1] * re - xr[o] * im;
                            yi[o + 1] = xi[o + 1] * re - xi[o] * im;
                        }
                    }
                }
            },
        );
    }

    /// Split-complex fused transposed product-and-subtract `y -= A^T x`.
    ///
    /// # Panics
    ///
    /// Panics if any plane length differs from `self.dim()`.
    pub fn matvec_transpose_sub_split(
        &self,
        xr: &[f64],
        xi: &[f64],
        yr: &mut [f64],
        yi: &mut [f64],
    ) {
        assert_eq!(xr.len(), self.dim, "matvec_transpose_sub length mismatch");
        assert_eq!(xi.len(), self.dim, "matvec_transpose_sub length mismatch");
        assert_eq!(yr.len(), self.dim, "matvec_transpose_sub output mismatch");
        assert_eq!(yi.len(), self.dim, "matvec_transpose_sub output mismatch");
        kernels::with_simd(
            #[inline(always)]
            || {
                for (k, b) in self.blocks.iter().enumerate() {
                    let o = self.offsets[k];
                    match *b {
                        DiagBlock::Real(a) => {
                            yr[o] -= xr[o] * a;
                            yi[o] -= xi[o] * a;
                        }
                        DiagBlock::Pair { re, im } => {
                            // A^T block = [[re, -im], [im, re]].
                            yr[o] -= xr[o] * re - xr[o + 1] * im;
                            yi[o] -= xi[o] * re - xi[o + 1] * im;
                            yr[o + 1] -= xr[o] * im + xr[o + 1] * re;
                            yi[o + 1] -= xi[o] * im + xi[o + 1] * re;
                        }
                    }
                }
            },
        );
    }

    /// Precomputes the exact block inverse `sign * (A' - theta I)^{-1}`
    /// (`A' = A^T` when `transpose`, `sign = -1` when `negate`) as per-state
    /// split-complex factors, so repeated shifted solves at a fixed `theta`
    /// become branch-free fused multiplies instead of per-element complex
    /// divisions — the Woodbury operator applies the same shift thousands
    /// of times, and Smith division dominated its profile.
    pub fn shift_solve_factors(
        &self,
        theta: C64,
        transpose: bool,
        negate: bool,
    ) -> ShiftSolveFactors {
        let n = self.dim;
        let sign = if negate { -1.0 } else { 1.0 };
        let mut f = ShiftSolveFactors {
            dre: vec![0.0; n],
            dim: vec![0.0; n],
            upr: vec![0.0; n],
            upi: vec![0.0; n],
            lor: vec![0.0; n],
            loi: vec![0.0; n],
        };
        for (k, b) in self.blocks.iter().enumerate() {
            let o = self.offsets[k];
            match *b {
                DiagBlock::Real(a) => {
                    let d = C64::from_real(sign) / (C64::from_real(a) - theta);
                    f.dre[o] = d.re;
                    f.dim[o] = d.im;
                }
                DiagBlock::Pair { re, im } => {
                    // (A' - theta I) block = [[d0, b12], [-b12, d0]] with
                    // d0 = re - theta and b12 = -im for the transpose;
                    // inverse = [[d0, -b12], [b12, d0]] / (d0^2 + b12^2).
                    let d0 = C64::from_real(re) - theta;
                    let b12 = if transpose { -im } else { im };
                    let det = d0 * d0 + C64::from_real(b12 * b12);
                    let e = d0 * sign / det;
                    let g = C64::from_real(b12 * sign) / det;
                    // y[o] = e x0 - g x1; y[o+1] = g x0 + e x1.
                    f.dre[o] = e.re;
                    f.dim[o] = e.im;
                    f.upr[o] = -g.re;
                    f.upi[o] = -g.im;
                    f.dre[o + 1] = e.re;
                    f.dim[o + 1] = e.im;
                    f.lor[o + 1] = g.re;
                    f.loi[o + 1] = g.im;
                }
            }
        }
        f
    }

    /// Relative condition estimate of the worst shifted block `A_k - theta I`
    /// (identical for the transposed/negated variants: transposition only
    /// flips the sign of the off-diagonal coupling, which enters the block
    /// determinant squared). Returns `(block_index, rcond)` where `rcond`
    /// is near 0 for a (numerically) singular shifted block and O(1) for a
    /// well-conditioned one; an empty matrix reports `rcond = inf`.
    ///
    /// [`BlockDiagonal::shift_solve_factors`] divides by exactly the
    /// quantities estimated here, so callers should reject shifts whose
    /// `rcond` is near machine precision *before* factoring — otherwise the
    /// factors silently carry Inf/NaN bands that poison every apply.
    pub fn shift_condition(&self, theta: C64) -> (usize, f64) {
        let mut worst = (0usize, f64::INFINITY);
        for (k, b) in self.blocks.iter().enumerate() {
            let rcond = match *b {
                DiagBlock::Real(a) => {
                    // Factor divides by (a - theta).
                    let denom = (C64::from_real(a) - theta).abs();
                    denom / (a.abs() + theta.abs() + f64::MIN_POSITIVE)
                }
                DiagBlock::Pair { re, im } => {
                    // Factor divides by det = d0^2 + im^2, d0 = re - theta.
                    let d0 = C64::from_real(re) - theta;
                    let det = d0 * d0 + C64::from_real(im * im);
                    let scale = d0.abs() + im.abs() + f64::MIN_POSITIVE;
                    det.abs() / (scale * scale)
                }
            };
            if rcond < worst.1 {
                worst = (k, rcond);
            }
        }
        worst
    }

    /// Largest pole natural frequency, a cheap upper-bound proxy for the
    /// model's dynamic bandwidth.
    pub fn max_natural_frequency(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| b.pole().natural_frequency())
            .fold(0.0, f64::max)
    }
}

/// Precomputed split-complex factors of an exact shifted block solve (see
/// [`BlockDiagonal::shift_solve_factors`]). The block-tridiagonal action
/// is stored as three coefficient bands over planes — diagonal `d`, upper
/// neighbor `up` (couples state `i` to `i + 1`), lower neighbor `lo`
/// (couples to `i - 1`) — zero where a block has no such coupling, so the
/// apply is three branch-free elementwise passes over shifted slices:
/// exactly the shape the loop vectorizer consumes whole.
#[derive(Debug, Clone)]
pub struct ShiftSolveFactors {
    dre: Vec<f64>,
    dim: Vec<f64>,
    upr: Vec<f64>,
    upi: Vec<f64>,
    lor: Vec<f64>,
    loi: Vec<f64>,
}

impl ShiftSolveFactors {
    /// Dimension `n` of the solve.
    pub fn dim(&self) -> usize {
        self.dre.len()
    }

    /// Applies the factored solve over planes: `y = F x`.
    ///
    /// # Panics
    ///
    /// Panics if any plane length differs from [`ShiftSolveFactors::dim`].
    pub fn apply_split(&self, xr: &[f64], xi: &[f64], yr: &mut [f64], yi: &mut [f64]) {
        let n = self.dim();
        assert_eq!(xr.len(), n, "apply_split length mismatch");
        assert_eq!(xi.len(), n, "apply_split length mismatch");
        assert_eq!(yr.len(), n, "apply_split output length mismatch");
        assert_eq!(yi.len(), n, "apply_split output length mismatch");
        if n == 0 {
            return;
        }
        // Length-pinned local slices so the vectorizer sees every access
        // of the fused pass as in-bounds.
        let (dre, dim) = (&self.dre[..n], &self.dim[..n]);
        let (upr, upi) = (&self.upr[..n], &self.upi[..n]);
        let (lor, loi) = (&self.lor[..n], &self.loi[..n]);
        kernels::with_simd(
            #[inline(always)]
            || {
                // Boundary states first (no lower / no upper neighbor; the
                // corresponding band entries are structurally zero there).
                yr[0] = dre[0] * xr[0] - dim[0] * xi[0];
                yi[0] = dre[0] * xi[0] + dim[0] * xr[0];
                if n == 1 {
                    return;
                }
                yr[0] += upr[0] * xr[1] - upi[0] * xi[1];
                yi[0] += upr[0] * xi[1] + upi[0] * xr[1];
                let l = n - 1;
                yr[l] = dre[l] * xr[l] - dim[l] * xi[l] + lor[l] * xr[l - 1] - loi[l] * xi[l - 1];
                yi[l] = dre[l] * xi[l] + dim[l] * xr[l] + lor[l] * xi[l - 1] + loi[l] * xr[l - 1];
                // Interior: one fused pass over shifted slices — twelve
                // multiply-adds per state, no gathers, no branches.
                for i in 1..l {
                    yr[i] = dre[i] * xr[i] - dim[i] * xi[i] + upr[i] * xr[i + 1]
                        - upi[i] * xi[i + 1]
                        + lor[i] * xr[i - 1]
                        - loi[i] * xi[i - 1];
                    yi[i] = dre[i] * xi[i]
                        + dim[i] * xr[i]
                        + upr[i] * xi[i + 1]
                        + upi[i] * xr[i + 1]
                        + lor[i] * xi[i - 1]
                        + loi[i] * xr[i - 1];
                }
            },
        );
    }

    /// Fused solve-subtract-pack: `y[i] = (w - F x)[i]` written directly
    /// to interleaved storage — the closing Woodbury stage as one pass
    /// instead of solve + subtract + merge.
    ///
    /// # Panics
    ///
    /// Panics if any length differs from [`ShiftSolveFactors::dim`].
    pub fn sub_merge_into(&self, wr: &[f64], wi: &[f64], xr: &[f64], xi: &[f64], y: &mut [C64]) {
        let n = self.dim();
        assert_eq!(wr.len(), n, "sub_merge length mismatch");
        assert_eq!(wi.len(), n, "sub_merge length mismatch");
        assert_eq!(xr.len(), n, "sub_merge length mismatch");
        assert_eq!(xi.len(), n, "sub_merge length mismatch");
        assert_eq!(y.len(), n, "sub_merge output length mismatch");
        if n == 0 {
            return;
        }
        let (dre, dim) = (&self.dre[..n], &self.dim[..n]);
        let (upr, upi) = (&self.upr[..n], &self.upi[..n]);
        let (lor, loi) = (&self.lor[..n], &self.loi[..n]);
        kernels::with_simd(
            #[inline(always)]
            || {
                let mut zr0 = dre[0] * xr[0] - dim[0] * xi[0];
                let mut zi0 = dre[0] * xi[0] + dim[0] * xr[0];
                if n == 1 {
                    y[0] = C64::new(wr[0] - zr0, wi[0] - zi0);
                    return;
                }
                zr0 += upr[0] * xr[1] - upi[0] * xi[1];
                zi0 += upr[0] * xi[1] + upi[0] * xr[1];
                y[0] = C64::new(wr[0] - zr0, wi[0] - zi0);
                let l = n - 1;
                let zrl = dre[l] * xr[l] - dim[l] * xi[l] + lor[l] * xr[l - 1] - loi[l] * xi[l - 1];
                let zil = dre[l] * xi[l] + dim[l] * xr[l] + lor[l] * xi[l - 1] + loi[l] * xr[l - 1];
                y[l] = C64::new(wr[l] - zrl, wi[l] - zil);
                for i in 1..l {
                    let zr = dre[i] * xr[i] - dim[i] * xi[i] + upr[i] * xr[i + 1]
                        - upi[i] * xi[i + 1]
                        + lor[i] * xr[i - 1]
                        - loi[i] * xi[i - 1];
                    let zi = dre[i] * xi[i]
                        + dim[i] * xr[i]
                        + upr[i] * xi[i + 1]
                        + upi[i] * xr[i + 1]
                        + lor[i] * xi[i - 1]
                        + loi[i] * xr[i - 1];
                    y[i] = C64::new(wr[i] - zr, wi[i] - zi);
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pheig_linalg::{vector::nrm2, Lu};

    fn sample() -> BlockDiagonal {
        BlockDiagonal::new(vec![
            DiagBlock::Real(-1.5),
            DiagBlock::Pair { re: -0.3, im: 2.0 },
            DiagBlock::Real(-4.0),
            DiagBlock::Pair { re: -0.1, im: 7.5 },
        ])
    }

    fn cvec(n: usize, seed: u64) -> Vec<C64> {
        (0..n)
            .map(|i| {
                let t = (i as f64 + seed as f64) * 0.7;
                C64::new(t.sin(), t.cos() * 0.5)
            })
            .collect()
    }

    #[test]
    fn dims_and_offsets() {
        let a = sample();
        assert_eq!(a.dim(), 6);
        assert_eq!(a.block_count(), 4);
        assert_eq!(a.offset(0), 0);
        assert_eq!(a.offset(1), 1);
        assert_eq!(a.offset(2), 3);
        assert_eq!(a.offset(3), 4);
    }

    #[test]
    fn solve_shifted_matches_dense_lu() {
        let a = sample();
        let theta = C64::new(0.2, 1.3);
        for &transpose in &[false, true] {
            let base = if transpose {
                a.to_dense().transpose()
            } else {
                a.to_dense()
            };
            let mut m = base.to_c64();
            for i in 0..a.dim() {
                m[(i, i)] -= theta;
            }
            let lu = Lu::new(m).unwrap();
            let x = cvec(a.dim(), 9);
            let want = lu.solve(&x).unwrap();
            let mut got = vec![C64::zero(); a.dim()];
            a.solve_shifted(theta, transpose, &x, &mut got);
            for (u, v) in got.iter().zip(&want) {
                assert!((*u - *v).abs() < 1e-12, "transpose={transpose}");
            }
        }
    }

    #[test]
    fn solve_then_multiply_roundtrip() {
        let a = sample();
        let theta = C64::new(-0.7, 4.2);
        let x = cvec(a.dim(), 11);
        let mut y = vec![C64::zero(); a.dim()];
        a.solve_shifted(theta, false, &x, &mut y);
        // (A - theta) y must reproduce x.
        let ay = a.to_dense().to_c64().matvec(&y);
        let mut resid = 0.0f64;
        for i in 0..a.dim() {
            resid = resid.max((ay[i] - y[i] * theta - x[i]).abs());
        }
        assert!(resid < 1e-12 * nrm2(&x).max(1.0));
    }

    #[test]
    fn imaginary_shift_on_resonance_is_well_defined() {
        // theta = i*im exactly at a pole pair's imaginary part: the shifted
        // block is still nonsingular because the pole has a real part.
        let a = BlockDiagonal::new(vec![DiagBlock::Pair { re: -0.01, im: 5.0 }]);
        let theta = C64::from_imag(5.0);
        let mut y = vec![C64::zero(); 2];
        a.solve_shifted(theta, false, &[C64::one(), C64::zero()], &mut y);
        assert!(y.iter().all(|v| v.is_finite()));
        assert!(nrm2(&y) > 1.0); // near-resonant -> large response
    }

    #[test]
    fn max_natural_frequency() {
        assert_eq!(sample().max_natural_frequency(), 0.1f64.hypot(7.5));
    }

    fn planes(x: &[C64]) -> (Vec<f64>, Vec<f64>) {
        let mut r = vec![0.0; x.len()];
        let mut i = vec![0.0; x.len()];
        pheig_linalg::kernels::split(x, &mut r, &mut i);
        (r, i)
    }

    #[test]
    fn split_matvecs_match_dense() {
        let a = sample();
        let dense = a.to_dense().to_c64();
        let x = cvec(a.dim(), 21);
        let (xr, xi) = planes(&x);
        let mut yr = vec![0.0; a.dim()];
        let mut yi = vec![0.0; a.dim()];
        a.matvec_split(&xr, &xi, &mut yr, &mut yi);
        let want = dense.matvec(&x);
        for i in 0..a.dim() {
            assert!((C64::new(yr[i], yi[i]) - want[i]).abs() < 1e-14);
        }
        // Fused y -= A^T x.
        let y0 = cvec(a.dim(), 23);
        let (mut yr, mut yi) = planes(&y0);
        a.matvec_transpose_sub_split(&xr, &xi, &mut yr, &mut yi);
        let at_x = dense.transpose().matvec(&x);
        for i in 0..a.dim() {
            let want = y0[i] - at_x[i];
            assert!((C64::new(yr[i], yi[i]) - want).abs() < 1e-14);
        }
    }

    #[test]
    fn shift_solve_factors_match_solve_shifted() {
        let a = sample();
        let x = cvec(a.dim(), 31);
        let (xr, xi) = planes(&x);
        for &theta in &[
            C64::new(0.2, 1.3),
            C64::new(-0.7, 4.2),
            C64::from_imag(0.05),
        ] {
            for &transpose in &[false, true] {
                for &negate in &[false, true] {
                    let f = a.shift_solve_factors(theta, transpose, negate);
                    assert_eq!(f.dim(), a.dim());
                    let mut yr = vec![0.0; a.dim()];
                    let mut yi = vec![0.0; a.dim()];
                    f.apply_split(&xr, &xi, &mut yr, &mut yi);
                    let mut want = vec![C64::zero(); a.dim()];
                    a.solve_shifted(theta, transpose, &x, &mut want);
                    let sign = if negate { -1.0 } else { 1.0 };
                    for i in 0..a.dim() {
                        let w = want[i] * sign;
                        assert!(
                            (C64::new(yr[i], yi[i]) - w).abs() < 1e-12 * (1.0 + w.abs()),
                            "theta={theta} transpose={transpose} negate={negate}"
                        );
                    }
                    // Fused solve-subtract-pack stage.
                    let w0 = cvec(a.dim(), 37);
                    let (w0r, w0i) = planes(&w0);
                    let mut out = vec![C64::zero(); a.dim()];
                    f.sub_merge_into(&w0r, &w0i, &xr, &xi, &mut out);
                    for i in 0..a.dim() {
                        let w = w0[i] - want[i] * sign;
                        assert!((out[i] - w).abs() < 1e-12 * (1.0 + w.abs()));
                    }
                }
            }
        }
    }

    #[test]
    fn pole_block_roundtrip() {
        let p = Pole::Pair { re: -2.0, im: 3.0 };
        let b: DiagBlock = p.into();
        assert_eq!(b.pole(), p);
        assert_eq!(b.order(), 2);
    }

    #[test]
    fn shift_condition_flags_the_offending_block() {
        // A virtually undamped pair pole probed exactly at its resonance is
        // the singular configuration shift_solve_factors cannot absorb.
        let a = BlockDiagonal::new(vec![
            DiagBlock::Real(-1.5),
            DiagBlock::Pair {
                re: -1e-15,
                im: 4.0,
            },
            DiagBlock::Real(-4.0),
        ]);
        let (block, rcond) = a.shift_condition(C64::from_imag(4.0));
        assert_eq!(block, 1);
        assert!(rcond < 1e-14, "rcond {rcond}");
        // Away from resonance every block is comfortably conditioned.
        let (_, rcond) = a.shift_condition(C64::from_imag(1.0));
        assert!(rcond > 1e-3, "rcond {rcond}");
        // Transpose/negate variants share conditioning for imaginary shifts.
        let (_, rc_neg) = a.shift_condition(-C64::from_imag(4.0));
        assert!(rc_neg < 1e-14);
    }

    #[test]
    fn shift_condition_on_empty_matrix_is_infinite() {
        let a = BlockDiagonal::new(Vec::new());
        let (_, rcond) = a.shift_condition(C64::from_imag(1.0));
        assert!(rcond.is_infinite());
    }
}
