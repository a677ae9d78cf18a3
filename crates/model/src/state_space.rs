//! The realized `{A, B, C, D}` quadruple in the paper's multi-SIMO structure.

use crate::block_diag::{BlockDiagonal, DiagBlock};
use crate::error::ModelError;
use pheig_linalg::{kernels, Matrix, C64};
use std::ops::Range;

/// A structured state-space realization `H(s) = D + C (sI - A)^{-1} B`.
///
/// * `A` is block diagonal ([`BlockDiagonal`]);
/// * `B` is implicit: column `k` drives only the blocks owned by port
///   column `k`, with entry `1` on real-pole states and `(2, 0)` on
///   complex-pair states (the real-realization transformation of the
///   paper's ref. \[9\]);
/// * `C` is dense `p x n`;
/// * `D` is dense `p x p`.
///
/// All matvec helpers run in `O(n)` or `O(np)` as appropriate; nothing in
/// this type materializes an `n x n` dense matrix except the explicitly
/// named `*_dense` methods used for validation.
#[derive(Debug, Clone)]
pub struct StateSpace {
    a: BlockDiagonal,
    col_blocks: Vec<Range<usize>>,
    c: Matrix<f64>,
    d: Matrix<f64>,
}

impl StateSpace {
    /// Builds a realization from its parts.
    ///
    /// `col_blocks[k]` is the contiguous range of block indices of `a`
    /// owned by port column `k`; the ranges must exactly partition the
    /// blocks in order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when shapes are inconsistent.
    pub fn new(
        a: BlockDiagonal,
        col_blocks: Vec<Range<usize>>,
        c: Matrix<f64>,
        d: Matrix<f64>,
    ) -> Result<Self, ModelError> {
        let p = col_blocks.len();
        if d.rows() != p || d.cols() != p {
            return Err(ModelError::DirectTermShape {
                expected: p,
                found: format!("{}x{}", d.rows(), d.cols()),
            });
        }
        if c.rows() != p || c.cols() != a.dim() {
            return Err(ModelError::invalid(format!(
                "C must be {p}x{}, found {}x{}",
                a.dim(),
                c.rows(),
                c.cols()
            )));
        }
        let mut expected_start = 0;
        for (k, r) in col_blocks.iter().enumerate() {
            if r.start != expected_start || r.end < r.start || r.end > a.block_count() {
                return Err(ModelError::invalid(format!(
                    "column {k} block range {r:?} does not partition the {} blocks",
                    a.block_count()
                )));
            }
            expected_start = r.end;
        }
        if expected_start != a.block_count() {
            return Err(ModelError::invalid(
                "column block ranges do not cover all blocks",
            ));
        }
        Ok(StateSpace {
            a,
            col_blocks,
            c,
            d,
        })
    }

    /// Number of states `n`.
    pub fn order(&self) -> usize {
        self.a.dim()
    }

    /// Number of ports `p`.
    pub fn ports(&self) -> usize {
        self.col_blocks.len()
    }

    /// The block-diagonal state matrix.
    pub fn a(&self) -> &BlockDiagonal {
        &self.a
    }

    /// The dense residue matrix `C`.
    pub fn c(&self) -> &Matrix<f64> {
        &self.c
    }

    /// Mutable access to `C` (used by passivity enforcement, which perturbs
    /// residues only).
    pub fn c_mut(&mut self) -> &mut Matrix<f64> {
        &mut self.c
    }

    /// The direct coupling matrix `D`.
    pub fn d(&self) -> &Matrix<f64> {
        &self.d
    }

    /// Block index range of port column `k`.
    pub fn column_blocks(&self, k: usize) -> Range<usize> {
        self.col_blocks[k].clone()
    }

    /// Input gain pattern of a block (`[1]` or `[2, 0]`).
    fn block_gains(block: &DiagBlock) -> &'static [f64] {
        match block {
            DiagBlock::Real(_) => &[1.0],
            DiagBlock::Pair { .. } => &[2.0, 0.0],
        }
    }

    /// `x = B u`, `O(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != self.ports()`.
    pub fn apply_b(&self, u: &[C64]) -> Vec<C64> {
        let mut x = vec![C64::zero(); self.order()];
        self.apply_b_into(u, &mut x);
        x
    }

    /// `x = B u` into a caller-provided buffer (no heap allocation).
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != self.ports()` or `x.len() != self.order()`.
    pub fn apply_b_into(&self, u: &[C64], x: &mut [C64]) {
        assert_eq!(u.len(), self.ports(), "apply_b length mismatch");
        assert_eq!(x.len(), self.order(), "apply_b output length mismatch");
        x.fill(C64::zero());
        for (k, range) in self.col_blocks.iter().enumerate() {
            let uk = u[k];
            for bi in range.clone() {
                let o = self.a.offset(bi);
                for (j, &g) in Self::block_gains(&self.a.blocks()[bi]).iter().enumerate() {
                    if g != 0.0 {
                        x[o + j] = uk * g;
                    }
                }
            }
        }
    }

    /// `u = B^T x`, `O(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.order()`.
    pub fn apply_bt(&self, x: &[C64]) -> Vec<C64> {
        let mut u = vec![C64::zero(); self.ports()];
        self.apply_bt_into(x, &mut u);
        u
    }

    /// `u = B^T x` into a caller-provided buffer (no heap allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.order()` or `u.len() != self.ports()`.
    pub fn apply_bt_into(&self, x: &[C64], u: &mut [C64]) {
        assert_eq!(x.len(), self.order(), "apply_bt length mismatch");
        assert_eq!(u.len(), self.ports(), "apply_bt output length mismatch");
        for (k, range) in self.col_blocks.iter().enumerate() {
            let mut acc = C64::zero();
            for bi in range.clone() {
                let o = self.a.offset(bi);
                for (j, &g) in Self::block_gains(&self.a.blocks()[bi]).iter().enumerate() {
                    if g != 0.0 {
                        acc += x[o + j] * g;
                    }
                }
            }
            u[k] = acc;
        }
    }

    /// `y = C x`, `O(np)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.order()`.
    pub fn apply_c(&self, x: &[C64]) -> Vec<C64> {
        let mut y = vec![C64::zero(); self.ports()];
        self.apply_c_into(x, &mut y);
        y
    }

    /// `y = C x` into a caller-provided buffer (no heap allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.order()` or `y.len() != self.ports()`.
    pub fn apply_c_into(&self, x: &[C64], y: &mut [C64]) {
        assert_eq!(x.len(), self.order(), "apply_c length mismatch");
        assert_eq!(y.len(), self.ports(), "apply_c output length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.c.row(i);
            let mut acc = C64::zero();
            for (cij, xj) in row.iter().zip(x.iter()) {
                acc += *xj * *cij;
            }
            *yi = acc;
        }
    }

    /// `x = C^T y`, `O(np)`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.ports()`.
    pub fn apply_ct(&self, y: &[C64]) -> Vec<C64> {
        let mut x = vec![C64::zero(); self.order()];
        self.apply_ct_into(y, &mut x);
        x
    }

    /// `x = C^T y` into a caller-provided buffer (no heap allocation).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.ports()` or `x.len() != self.order()`.
    pub fn apply_ct_into(&self, y: &[C64], x: &mut [C64]) {
        assert_eq!(y.len(), self.ports(), "apply_ct length mismatch");
        assert_eq!(x.len(), self.order(), "apply_ct output length mismatch");
        x.fill(C64::zero());
        for (i, &yi) in y.iter().enumerate() {
            let row = self.c.row(i);
            for (xj, cij) in x.iter_mut().zip(row.iter()) {
                *xj += yi * *cij;
            }
        }
    }

    /// Split-complex `x = B u` (see [`StateSpace::apply_b_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `u` planes are not `self.ports()` long or `x` planes are
    /// not `self.order()` long.
    pub fn apply_b_split(&self, ur: &[f64], ui: &[f64], xr: &mut [f64], xi: &mut [f64]) {
        assert_eq!(ur.len(), self.ports(), "apply_b_split length mismatch");
        assert_eq!(ui.len(), self.ports(), "apply_b_split length mismatch");
        assert_eq!(xr.len(), self.order(), "apply_b_split output mismatch");
        assert_eq!(xi.len(), self.order(), "apply_b_split output mismatch");
        xr.fill(0.0);
        xi.fill(0.0);
        for (k, range) in self.col_blocks.iter().enumerate() {
            let (ukr, uki) = (ur[k], ui[k]);
            for bi in range.clone() {
                let o = self.a.offset(bi);
                for (j, &g) in Self::block_gains(&self.a.blocks()[bi]).iter().enumerate() {
                    if g != 0.0 {
                        xr[o + j] = ukr * g;
                        xi[o + j] = uki * g;
                    }
                }
            }
        }
    }

    /// Split-complex fused subtract `x -= B u` (the `y1 = A x1 - B t` tail
    /// of the Hamiltonian matvec, without a separate scatter buffer).
    ///
    /// # Panics
    ///
    /// Panics if `u` planes are not `self.ports()` long or `x` planes are
    /// not `self.order()` long.
    pub fn sub_apply_b_split(&self, ur: &[f64], ui: &[f64], xr: &mut [f64], xi: &mut [f64]) {
        assert_eq!(ur.len(), self.ports(), "sub_apply_b_split length mismatch");
        assert_eq!(ui.len(), self.ports(), "sub_apply_b_split length mismatch");
        assert_eq!(xr.len(), self.order(), "sub_apply_b_split output mismatch");
        assert_eq!(xi.len(), self.order(), "sub_apply_b_split output mismatch");
        for (k, range) in self.col_blocks.iter().enumerate() {
            let (ukr, uki) = (ur[k], ui[k]);
            for bi in range.clone() {
                let o = self.a.offset(bi);
                for (j, &g) in Self::block_gains(&self.a.blocks()[bi]).iter().enumerate() {
                    if g != 0.0 {
                        xr[o + j] -= ukr * g;
                        xi[o + j] -= uki * g;
                    }
                }
            }
        }
    }

    /// Split-complex `u = B^T x` (see [`StateSpace::apply_bt_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `x` planes are not `self.order()` long or `u` planes are
    /// not `self.ports()` long.
    pub fn apply_bt_split(&self, xr: &[f64], xi: &[f64], ur: &mut [f64], ui: &mut [f64]) {
        assert_eq!(xr.len(), self.order(), "apply_bt_split length mismatch");
        assert_eq!(xi.len(), self.order(), "apply_bt_split length mismatch");
        assert_eq!(ur.len(), self.ports(), "apply_bt_split output mismatch");
        assert_eq!(ui.len(), self.ports(), "apply_bt_split output mismatch");
        for (k, range) in self.col_blocks.iter().enumerate() {
            let mut accr = 0.0f64;
            let mut acci = 0.0f64;
            for bi in range.clone() {
                let o = self.a.offset(bi);
                for (j, &g) in Self::block_gains(&self.a.blocks()[bi]).iter().enumerate() {
                    if g != 0.0 {
                        accr += xr[o + j] * g;
                        acci += xi[o + j] * g;
                    }
                }
            }
            ur[k] = accr;
            ui[k] = acci;
        }
    }

    /// Split-complex `y = C x`: `p` fused two-plane real dot products
    /// over the dense residue matrix (see [`StateSpace::apply_c_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `x` planes are not `self.order()` long or `y` planes are
    /// not `self.ports()` long.
    pub fn apply_c_split(&self, xr: &[f64], xi: &[f64], yr: &mut [f64], yi: &mut [f64]) {
        kernels::real_gemv(&self.c, xr, xi, yr, yi);
    }

    /// Split-complex `x = C^T y`: `p` fused two-plane real axpys (see
    /// [`StateSpace::apply_ct_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `y` planes are not `self.ports()` long or `x` planes are
    /// not `self.order()` long.
    pub fn apply_ct_split(&self, yr: &[f64], yi: &[f64], xr: &mut [f64], xi: &mut [f64]) {
        xr.fill(0.0);
        xi.fill(0.0);
        kernels::real_gemv_t_acc(&self.c, yr, yi, xr, xi);
    }

    /// Dense `B` (for validation and small-model tests only).
    pub fn b_dense(&self) -> Matrix<f64> {
        let mut b = Matrix::zeros(self.order(), self.ports());
        for (k, range) in self.col_blocks.iter().enumerate() {
            for bi in range.clone() {
                let o = self.a.offset(bi);
                for (j, &g) in Self::block_gains(&self.a.blocks()[bi]).iter().enumerate() {
                    b[(o + j, k)] = g;
                }
            }
        }
        b
    }

    /// Dense `A` (for validation and small-model tests only).
    pub fn a_dense(&self) -> Matrix<f64> {
        self.a.to_dense()
    }

    /// Evaluates the transfer matrix `H(s) = D + C (sI - A)^{-1} B`
    /// in `O(np)` per call using the block structure.
    pub fn transfer(&self, s: C64) -> Matrix<C64> {
        let p = self.ports();
        let mut h = self.d.to_c64();
        // Column k of (sI - A)^{-1} B is nonzero only on column k's states.
        for k in 0..p {
            for bi in self.col_blocks[k].clone() {
                let o = self.a.offset(bi);
                match self.a.blocks()[bi] {
                    DiagBlock::Real(a) => {
                        let x = C64::one() / (s - a);
                        for i in 0..p {
                            h[(i, k)] += x * self.c[(i, o)];
                        }
                    }
                    DiagBlock::Pair { re, im } => {
                        // (sI - P)^{-1} [2, 0]^T with P = [[re, im], [-im, re]].
                        let d0 = s - re;
                        let det = d0 * d0 + im * im;
                        let x0 = d0 * 2.0 / det;
                        let x1 = C64::from_real(-2.0 * im) / det;
                        for i in 0..p {
                            h[(i, k)] += x0 * self.c[(i, o)] + x1 * self.c[(i, o + 1)];
                        }
                    }
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pheig_linalg::Lu;

    fn small_ss() -> StateSpace {
        let a = BlockDiagonal::new(vec![
            DiagBlock::Real(-1.0),
            DiagBlock::Pair { re: -0.2, im: 3.0 },
            DiagBlock::Pair { re: -0.5, im: 1.0 },
            DiagBlock::Real(-2.0),
        ]);
        // Column 0 owns blocks 0..2 (3 states), column 1 owns blocks 2..4 (3 states).
        let col_blocks = vec![0..2, 2..4];
        let c = Matrix::from_fn(2, 6, |i, j| ((i * 6 + j) as f64 * 0.17).sin());
        let d = Matrix::from_rows(&[&[0.1, 0.02][..], &[0.02, 0.15][..]]);
        StateSpace::new(a, col_blocks, c, d).unwrap()
    }

    #[test]
    fn dims() {
        let ss = small_ss();
        assert_eq!(ss.order(), 6);
        assert_eq!(ss.ports(), 2);
        assert_eq!(ss.column_blocks(1), 2..4);
    }

    #[test]
    fn b_structure() {
        let ss = small_ss();
        let b = ss.b_dense();
        // Column 0: real block state then pair states.
        assert_eq!(b[(0, 0)], 1.0);
        assert_eq!(b[(1, 0)], 2.0);
        assert_eq!(b[(2, 0)], 0.0);
        // Column 1.
        assert_eq!(b[(3, 1)], 2.0);
        assert_eq!(b[(4, 1)], 0.0);
        assert_eq!(b[(5, 1)], 1.0);
        // No cross terms.
        assert_eq!(b[(0, 1)], 0.0);
        assert_eq!(b[(3, 0)], 0.0);
    }

    #[test]
    fn apply_b_bt_match_dense() {
        let ss = small_ss();
        let bd = ss.b_dense().to_c64();
        let u = vec![C64::new(1.0, -1.0), C64::new(0.5, 2.0)];
        let x = ss.apply_b(&u);
        let xd = bd.matvec(&u);
        for (a, b) in x.iter().zip(&xd) {
            assert!((*a - *b).abs() < 1e-15);
        }
        let z: Vec<C64> = (0..6).map(|i| C64::new(i as f64, -0.5)).collect();
        let ut = ss.apply_bt(&z);
        let utd = bd.transpose().matvec(&z);
        for (a, b) in ut.iter().zip(&utd) {
            assert!((*a - *b).abs() < 1e-15);
        }
    }

    #[test]
    fn apply_c_ct_match_dense() {
        let ss = small_ss();
        let cd = ss.c().to_c64();
        let x: Vec<C64> = (0..6)
            .map(|i| C64::new((i as f64).cos(), (i as f64).sin()))
            .collect();
        let y = ss.apply_c(&x);
        let yd = cd.matvec(&x);
        for (a, b) in y.iter().zip(&yd) {
            assert!((*a - *b).abs() < 1e-14);
        }
        let w = vec![C64::new(1.0, 2.0), C64::new(-0.3, 0.4)];
        let xt = ss.apply_ct(&w);
        let xtd = cd.transpose().matvec(&w);
        for (a, b) in xt.iter().zip(&xtd) {
            assert!((*a - *b).abs() < 1e-14);
        }
    }

    #[test]
    fn split_applies_match_interleaved() {
        let ss = small_ss();
        let (n, p) = (ss.order(), ss.ports());
        let x: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 0.9).cos(), (i as f64 * 0.4).sin()))
            .collect();
        let u: Vec<C64> = (0..p)
            .map(|i| C64::new(1.0 + i as f64, -0.5 * i as f64))
            .collect();
        let split = |v: &[C64]| {
            let mut r = vec![0.0; v.len()];
            let mut i = vec![0.0; v.len()];
            kernels::split(v, &mut r, &mut i);
            (r, i)
        };
        let check = |got_r: &[f64], got_i: &[f64], want: &[C64], what: &str| {
            for j in 0..want.len() {
                assert!(
                    (C64::new(got_r[j], got_i[j]) - want[j]).abs() < 1e-13,
                    "{what}[{j}]"
                );
            }
        };
        let (xr, xi) = split(&x);
        let (ur, ui) = split(&u);

        let (mut br, mut bi) = (vec![0.0; n], vec![0.0; n]);
        ss.apply_b_split(&ur, &ui, &mut br, &mut bi);
        check(&br, &bi, &ss.apply_b(&u), "B u");

        // Fused x -= B u against the two-step reference.
        let (mut sr, mut si) = (xr.clone(), xi.clone());
        ss.sub_apply_b_split(&ur, &ui, &mut sr, &mut si);
        let want: Vec<C64> = x.iter().zip(ss.apply_b(&u)).map(|(a, b)| *a - b).collect();
        check(&sr, &si, &want, "x - B u");

        let (mut btr, mut bti) = (vec![0.0; p], vec![0.0; p]);
        ss.apply_bt_split(&xr, &xi, &mut btr, &mut bti);
        check(&btr, &bti, &ss.apply_bt(&x), "B^T x");

        let (mut cr, mut ci) = (vec![0.0; p], vec![0.0; p]);
        ss.apply_c_split(&xr, &xi, &mut cr, &mut ci);
        check(&cr, &ci, &ss.apply_c(&x), "C x");

        let (mut ctr, mut cti) = (vec![1.0; n], vec![1.0; n]); // stale values overwritten
        ss.apply_ct_split(&ur, &ui, &mut ctr, &mut cti);
        check(&ctr, &cti, &ss.apply_ct(&u), "C^T u");
    }

    #[test]
    fn transfer_matches_dense_formula() {
        let ss = small_ss();
        let s = C64::new(0.0, 2.2);
        let h = ss.transfer(s);
        // Dense check: D + C (sI - A)^{-1} B.
        let n = ss.order();
        let mut si_a = ss.a_dense().to_c64().scaled(C64::from_real(-1.0));
        for i in 0..n {
            si_a[(i, i)] += s;
        }
        let lu = Lu::new(si_a).unwrap();
        let x = lu.solve_matrix(&ss.b_dense().to_c64()).unwrap();
        let h_dense = &(&ss.c().to_c64() * &x) + &ss.d().to_c64();
        assert!((&h - &h_dense).max_abs() < 1e-12);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // Vec<Range> is the real argument type
    fn validation_rejects_bad_shapes() {
        let a = BlockDiagonal::new(vec![DiagBlock::Real(-1.0)]);
        let c = Matrix::zeros(1, 1);
        // D wrong shape.
        assert!(matches!(
            StateSpace::new(a.clone(), vec![0..1], c.clone(), Matrix::zeros(2, 2)),
            Err(ModelError::DirectTermShape { .. })
        ));
        // C wrong shape.
        assert!(StateSpace::new(
            a.clone(),
            vec![0..1],
            Matrix::zeros(1, 5),
            Matrix::zeros(1, 1)
        )
        .is_err());
        // Ranges that do not partition.
        assert!(StateSpace::new(a, vec![0..0], c, Matrix::zeros(1, 1)).is_err());
    }
}
