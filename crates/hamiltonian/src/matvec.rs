//! Structured `O(np)` Hamiltonian matrix–vector product.

use crate::error::HamiltonianError;
use crate::op::CLinearOp;
use crate::scratch::with_scratch;
use pheig_linalg::{kernels, Matrix, C64};
use pheig_model::StateSpace;
use std::sync::Mutex;

/// Owned apply workspace in split-complex planes (see the note on
/// [`crate::ShiftInvertOp`]'s scratch: a `Mutex` taken by `try_lock`
/// keeps the operator [`Sync`] without ever waiting).
#[derive(Debug)]
struct ApplyScratch {
    /// Split input `x` (length `2n` per plane).
    xr: Vec<f64>,
    xi: Vec<f64>,
    /// `C x1` (length `p` per plane).
    wr: Vec<f64>,
    wi: Vec<f64>,
    /// `B^T x2` (length `p`).
    u1r: Vec<f64>,
    u1i: Vec<f64>,
    /// `D^T w + u1`, then reused for `D R^{-1} u1` (length `p`).
    rr: Vec<f64>,
    ri: Vec<f64>,
    /// `R^{-1} rhs` (length `p`).
    tr: Vec<f64>,
    ti: Vec<f64>,
    /// `S^{-1} w + D R^{-1} u1` (length `p`).
    vr: Vec<f64>,
    vi: Vec<f64>,
    /// Output halves in planes (length `n` each).
    y1r: Vec<f64>,
    y1i: Vec<f64>,
    y2r: Vec<f64>,
    y2i: Vec<f64>,
}

impl ApplyScratch {
    fn sized(n: usize, p: usize) -> Self {
        ApplyScratch {
            xr: vec![0.0; 2 * n],
            xi: vec![0.0; 2 * n],
            wr: vec![0.0; p],
            wi: vec![0.0; p],
            u1r: vec![0.0; p],
            u1i: vec![0.0; p],
            rr: vec![0.0; p],
            ri: vec![0.0; p],
            tr: vec![0.0; p],
            ti: vec![0.0; p],
            vr: vec![0.0; p],
            vi: vec![0.0; p],
            y1r: vec![0.0; n],
            y1i: vec![0.0; n],
            y2r: vec![0.0; n],
            y2i: vec![0.0; n],
        }
    }
}

/// The Hamiltonian matrix `M` of a state-space macromodel as an implicit
/// operator: `apply_into` costs `O(np)` instead of the `O(n^2)` of a dense
/// product, and performs no steady-state heap allocations. All length-`n`
/// sweeps run on split-complex planes through the fused
/// [`pheig_linalg::kernels`] layer.
///
/// Internally precomputes the small real inverses `R^{-1}`, `S^{-1}`,
/// `D R^{-1}`, and `D^T` once (`O(p^3)`).
#[derive(Debug)]
pub struct HamiltonianOp<'a> {
    ss: &'a StateSpace,
    r_inv: Matrix<f64>,
    s_inv: Matrix<f64>,
    d_r_inv: Matrix<f64>,
    d_t: Matrix<f64>,
    scratch: Mutex<ApplyScratch>,
}

impl<'a> HamiltonianOp<'a> {
    /// Builds the operator, checking strict asymptotic passivity.
    ///
    /// # Errors
    ///
    /// * [`HamiltonianError::DirectTermNotContractive`] when
    ///   `sigma_max(D) >= 1`.
    pub fn new(ss: &'a StateSpace) -> Result<Self, HamiltonianError> {
        let (r_lu, s_lu) = crate::build::factor_r_s(ss.d())?;
        let r_inv = r_lu.inverse();
        let s_inv = s_lu.inverse();
        let d_r_inv = ss.d() * &r_inv;
        let d_t = ss.d().transpose();
        let (n, p) = (ss.order(), ss.ports());
        let scratch = Mutex::new(ApplyScratch::sized(n, p));
        Ok(HamiltonianOp {
            ss,
            r_inv,
            s_inv,
            d_r_inv,
            d_t,
            scratch,
        })
    }

    /// The underlying model.
    pub fn state_space(&self) -> &StateSpace {
        self.ss
    }
}

impl CLinearOp for HamiltonianOp<'_> {
    fn dim(&self) -> usize {
        2 * self.ss.order()
    }

    fn apply_into(&self, x: &[C64], y: &mut [C64]) {
        let n = self.ss.order();
        let p = self.ss.ports();
        assert_eq!(x.len(), 2 * n, "HamiltonianOp apply length mismatch");
        assert_eq!(y.len(), 2 * n, "HamiltonianOp apply output length mismatch");
        with_scratch(
            &self.scratch,
            || ApplyScratch::sized(n, p),
            |s| {
                kernels::split(x, &mut s.xr, &mut s.xi);
                let (x1r, x2r) = s.xr.split_at(n);
                let (x1i, x2i) = s.xi.split_at(n);

                // Port-space intermediates, all on planes.
                self.ss.apply_c_split(x1r, x1i, &mut s.wr, &mut s.wi); // C x1
                self.ss.apply_bt_split(x2r, x2i, &mut s.u1r, &mut s.u1i); // B^T x2
                                                                          // t = R^{-1} (D^T w + u1).
                kernels::real_gemv(&self.d_t, &s.wr, &s.wi, &mut s.rr, &mut s.ri);
                for (r, u) in s.rr.iter_mut().zip(s.u1r.iter()) {
                    *r += *u;
                }
                for (r, u) in s.ri.iter_mut().zip(s.u1i.iter()) {
                    *r += *u;
                }
                kernels::real_gemv(&self.r_inv, &s.rr, &s.ri, &mut s.tr, &mut s.ti);
                // v = S^{-1} w + D R^{-1} u1 (rhs planes reused).
                kernels::real_gemv(&self.s_inv, &s.wr, &s.wi, &mut s.vr, &mut s.vi);
                kernels::real_gemv(&self.d_r_inv, &s.u1r, &s.u1i, &mut s.rr, &mut s.ri);
                for (v, r) in s.vr.iter_mut().zip(s.rr.iter()) {
                    *v += *r;
                }
                for (v, r) in s.vi.iter_mut().zip(s.ri.iter()) {
                    *v += *r;
                }

                // y1 = A x1 - B t (block product, then fused scatter-sub).
                self.ss.a().matvec_split(x1r, x1i, &mut s.y1r, &mut s.y1i);
                self.ss
                    .sub_apply_b_split(&s.tr, &s.ti, &mut s.y1r, &mut s.y1i);
                // y2 = C^T v - A^T x2 (gemv-T, then fused block sub).
                self.ss.apply_ct_split(&s.vr, &s.vi, &mut s.y2r, &mut s.y2i);
                self.ss
                    .a()
                    .matvec_transpose_sub_split(x2r, x2i, &mut s.y2r, &mut s.y2i);

                let (y1, y2) = y.split_at_mut(n);
                kernels::merge(&s.y1r, &s.y1i, y1);
                kernels::merge(&s.y2r, &s.y2i, y2);
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::dense_hamiltonian;
    use pheig_model::generator::{generate_case, CaseSpec};

    #[test]
    fn matches_dense_hamiltonian() {
        for seed in [1u64, 2, 3] {
            let ss = generate_case(&CaseSpec::new(14, 3).with_seed(seed))
                .unwrap()
                .realize();
            let op = HamiltonianOp::new(&ss).unwrap();
            let dense = dense_hamiltonian(&ss).unwrap().to_c64();
            assert_eq!(op.dim(), 28);
            let x: Vec<C64> = (0..28)
                .map(|i| C64::new((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
                .collect();
            let y_fast = op.apply(&x);
            let y_dense = dense.matvec(&x);
            let scale = dense.max_abs();
            for (a, b) in y_fast.iter().zip(&y_dense) {
                assert!((*a - *b).abs() < 1e-11 * scale, "seed {seed}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn linearity() {
        let ss = generate_case(&CaseSpec::new(10, 2).with_seed(4))
            .unwrap()
            .realize();
        let op = HamiltonianOp::new(&ss).unwrap();
        let x: Vec<C64> = (0..20).map(|i| C64::new(i as f64, -1.0)).collect();
        let y: Vec<C64> = (0..20).map(|i| C64::new(0.5, i as f64 * 0.1)).collect();
        let alpha = C64::new(1.3, -0.4);
        let combo: Vec<C64> = x.iter().zip(&y).map(|(a, b)| *a * alpha + *b).collect();
        let lhs = op.apply(&combo);
        let op_x = op.apply(&x);
        let op_y = op.apply(&y);
        for i in 0..20 {
            let rhs = op_x[i] * alpha + op_y[i];
            assert!((lhs[i] - rhs).abs() < 1e-10);
        }
    }

    #[test]
    fn real_input_gives_real_output() {
        // M is a real matrix, so real vectors must map to real vectors.
        let ss = generate_case(&CaseSpec::new(8, 2).with_seed(9))
            .unwrap()
            .realize();
        let op = HamiltonianOp::new(&ss).unwrap();
        let x: Vec<C64> = (0..16).map(|i| C64::from_real((i as f64).cos())).collect();
        let y = op.apply(&x);
        for v in y {
            assert!(v.im.abs() < 1e-12);
        }
    }
}
