//! Sherman–Morrison–Woodbury shift-and-invert operator (paper Eq. (6)).
//!
//! For a shift `theta` the operator computes `y = (M - theta I)^{-1} x` in
//! `O(np)` per application. Derivation (self-contained; signs verified
//! against dense inverses in the tests):
//!
//! With `A_blk = blkdiag(A, -A^T)`, the Hamiltonian splits as
//! `M = A_blk + U Z V` where `U = blkdiag(B, C^T)`, `V = blkdiag(C, B^T)`
//! and `Z` collects the `R^{-1}`/`S^{-1}` port couplings. Woodbury gives
//!
//! ```text
//! (M - theta I)^{-1} = K - K U W^{-1} V K,
//! K = blkdiag((A - theta I)^{-1}, -(A^T + theta I)^{-1}),
//! W = Z^{-1} + V K U = [ G_minus - D    -I          ]
//!                      [ I              (D - G_plus)^T ]
//! ```
//!
//! where `G_minus = C (A - theta I)^{-1} B`, `G_plus = C (A + theta I)^{-1} B`,
//! and the analytic identity `Z^{-1} = [[-D, -I], [I, D^T]]` (a consequence
//! of `R = D^T D - I`, `S = D D^T - I`) removes any need to invert `R` or
//! `S`. Only the `2p x 2p` matrix `W` is factored, once per shift.

use crate::error::HamiltonianError;
use crate::op::CLinearOp;
use crate::scratch::with_scratch;
use pheig_linalg::{kernels, Lu, Matrix, C64};
use pheig_model::block_diag::{DiagBlock, ShiftSolveFactors};
use pheig_model::StateSpace;
use std::sync::Mutex;

/// Owned apply workspace, sized once at construction so that
/// [`CLinearOp::apply_into`] performs zero steady-state heap allocations.
///
/// Everything lives in split-complex planes (separate re/im `f64`
/// vectors): the Woodbury pipeline runs entirely on planes and touches
/// interleaved `C64` only at the operator boundary (splitting `x`, the
/// tiny `2p` port solve, and the fused merge that writes `y`).
///
/// Kept in a `Mutex` taken by `try_lock` (see [`crate::scratch`]) so the
/// operator stays [`Sync`], the trait contract, without ever waiting.
#[derive(Debug)]
struct ApplyScratch {
    /// Split input `x` (length `2n` per plane).
    xr: Vec<f64>,
    xi: Vec<f64>,
    /// `K x` upper half `w1 = (A - theta)^{-1} x1` (length `n` per plane).
    w1r: Vec<f64>,
    w1i: Vec<f64>,
    /// `K x` lower half `w2 = -(A^T + theta)^{-1} x2` (length `n`).
    w2r: Vec<f64>,
    w2i: Vec<f64>,
    /// Port-space planes for `V w` and the solved `s` (length `2p`).
    tr: Vec<f64>,
    ti: Vec<f64>,
    /// Interleaved port vector for the `W^{-1}` LU solve (length `2p`).
    t: Vec<C64>,
    /// `B s1` (length `n` per plane).
    u1r: Vec<f64>,
    u1i: Vec<f64>,
    /// `C^T s2` (length `n` per plane).
    u2r: Vec<f64>,
    u2i: Vec<f64>,
}

impl ApplyScratch {
    fn sized(n: usize, p: usize) -> Self {
        ApplyScratch {
            xr: vec![0.0; 2 * n],
            xi: vec![0.0; 2 * n],
            w1r: vec![0.0; n],
            w1i: vec![0.0; n],
            w2r: vec![0.0; n],
            w2i: vec![0.0; n],
            tr: vec![0.0; 2 * p],
            ti: vec![0.0; 2 * p],
            t: vec![C64::zero(); 2 * p],
            u1r: vec![0.0; n],
            u1i: vec![0.0; n],
            u2r: vec![0.0; n],
            u2i: vec![0.0; n],
        }
    }
}

/// The shifted-and-inverted Hamiltonian operator
/// `y = (M - theta I)^{-1} x` for one fixed shift.
///
/// Setup costs `O(np + p^3)`; each [`CLinearOp::apply_into`] costs `O(np)`
/// and performs no heap allocations (owned scratch, sized at
/// construction). The shifted block solves are precomputed as
/// [`ShiftSolveFactors`], so the per-apply inner loops are fused
/// multiply-adds over split-complex planes — no complex divisions.
#[derive(Debug)]
pub struct ShiftInvertOp<'a> {
    ss: &'a StateSpace,
    theta: C64,
    w_lu: Lu<C64>,
    /// `(A - theta I)^{-1}` as fused per-state factors.
    k1: ShiftSolveFactors,
    /// `-(A^T + theta I)^{-1}` as fused per-state factors.
    k2: ShiftSolveFactors,
    scratch: Mutex<ApplyScratch>,
}

impl<'a> ShiftInvertOp<'a> {
    /// Builds the operator for shift `theta` (typically `j omega`).
    ///
    /// # Errors
    ///
    /// * [`HamiltonianError::DirectTermNotContractive`] when
    ///   `sigma_max(D) >= 1`;
    /// * [`HamiltonianError::ShiftSingular`] when `theta` is an eigenvalue
    ///   of `M` to working precision (the `W` factorization fails) — nudge
    ///   the shift and retry;
    /// * [`HamiltonianError::NearSingularShift`] when a shifted diagonal
    ///   block of the realization is near-singular at `theta` or `-theta`
    ///   (a virtually undamped pole probed at its resonance): the fused
    ///   solve factors would carry Inf/NaN bands. Nudge the shift and
    ///   retry, exactly as for `ShiftSingular`.
    pub fn new(ss: &'a StateSpace, theta: C64) -> Result<Self, HamiltonianError> {
        // Contractivity check (same invariant the dense build enforces).
        let sigma = pheig_linalg::svd::max_singular_value(&ss.d().to_c64())?;
        if sigma >= 1.0 {
            return Err(HamiltonianError::DirectTermNotContractive);
        }
        // Conditioning gate before anything touches the shifted block
        // inverses: transfer_gram and shift_solve_factors both divide by
        // the block determinants estimated here, and a near-zero one
        // produces Inf/NaN factors rather than a clean factorization
        // error. K1 solves at theta, K2 at -theta — check both.
        for probe in [theta, -theta] {
            let (block, rcond) = ss.a().shift_condition(probe);
            if rcond < 1e-13 {
                return Err(HamiltonianError::NearSingularShift { block, rcond });
            }
        }
        let p = ss.ports();
        let g_minus = transfer_gram(ss, theta); // C (A - theta)^{-1} B
        let g_plus = transfer_gram(ss, -theta); // C (A + theta)^{-1} B
        let d = ss.d();
        let mut w = Matrix::<C64>::zeros(2 * p, 2 * p);
        for i in 0..p {
            for j in 0..p {
                // W11 = G_minus - D.
                w[(i, j)] = g_minus[(i, j)] - d[(i, j)];
                // W22 = (D - G_plus)^T.
                w[(p + i, p + j)] = C64::from_real(d[(j, i)]) - g_plus[(j, i)];
            }
            // W12 = -I, W21 = I.
            w[(i, p + i)] = -C64::one();
            w[(p + i, i)] = C64::one();
        }
        let w_lu = match Lu::new(w) {
            Ok(lu) => {
                if lu.rcond_estimate() < 1e-14 {
                    return Err(HamiltonianError::ShiftSingular {
                        re: theta.re,
                        im: theta.im,
                    });
                }
                lu
            }
            Err(pheig_linalg::LinalgError::Singular { .. }) => {
                return Err(HamiltonianError::ShiftSingular {
                    re: theta.re,
                    im: theta.im,
                })
            }
            Err(e) => return Err(e.into()),
        };
        let n = ss.order();
        let k1 = ss.a().shift_solve_factors(theta, false, false);
        let k2 = ss.a().shift_solve_factors(-theta, true, true);
        let scratch = Mutex::new(ApplyScratch::sized(n, p));
        Ok(ShiftInvertOp {
            ss,
            theta,
            w_lu,
            k1,
            k2,
            scratch,
        })
    }

    /// The shift this operator was built for.
    pub fn theta(&self) -> C64 {
        self.theta
    }

    /// The underlying model.
    pub fn state_space(&self) -> &StateSpace {
        self.ss
    }

    /// Maps an eigenvalue `mu` of this operator back to an eigenvalue of
    /// `M`: `lambda = theta + 1/mu`.
    pub fn to_hamiltonian_eigenvalue(&self, mu: C64) -> C64 {
        self.theta + mu.recip()
    }
}

/// `G(theta) = C (A - theta I)^{-1} B`, exploiting that column `k` of
/// `(A - theta I)^{-1} B` is supported on column `k`'s states only: `O(np)`.
fn transfer_gram(ss: &StateSpace, theta: C64) -> Matrix<C64> {
    let p = ss.ports();
    let c = ss.c();
    let mut g = Matrix::<C64>::zeros(p, p);
    for k in 0..p {
        for bi in ss.column_blocks(k) {
            let o = ss.a().offset(bi);
            match ss.a().blocks()[bi] {
                DiagBlock::Real(a) => {
                    // gain 1 on this state.
                    let x = C64::one() / (C64::from_real(a) - theta);
                    for i in 0..p {
                        g[(i, k)] += x * c[(i, o)];
                    }
                }
                DiagBlock::Pair { re, im } => {
                    // (P - theta I)^{-1} [2, 0]^T, P = [[re, im], [-im, re]].
                    let dd = C64::from_real(re) - theta;
                    let det = dd * dd + im * im;
                    let x0 = dd * 2.0 / det;
                    let x1 = C64::from_real(2.0 * im) / det;
                    for i in 0..p {
                        g[(i, k)] += x0 * c[(i, o)] + x1 * c[(i, o + 1)];
                    }
                }
            }
        }
    }
    g
}

impl CLinearOp for ShiftInvertOp<'_> {
    fn dim(&self) -> usize {
        2 * self.ss.order()
    }

    fn apply_into(&self, x: &[C64], y: &mut [C64]) {
        let n = self.ss.order();
        let p = self.ss.ports();
        assert_eq!(x.len(), 2 * n, "ShiftInvertOp apply length mismatch");
        assert_eq!(y.len(), 2 * n, "ShiftInvertOp apply output length mismatch");
        with_scratch(
            &self.scratch,
            || ApplyScratch::sized(n, p),
            |s| {
                // Stage 1: split x into planes (the only full read of
                // interleaved input).
                kernels::split(x, &mut s.xr, &mut s.xi);
                let (x1r, x2r) = s.xr.split_at(n);
                let (x1i, x2i) = s.xi.split_at(n);

                // Stage 2: w = K x via the precomputed fused factors.
                self.k1.apply_split(x1r, x1i, &mut s.w1r, &mut s.w1i);
                self.k2.apply_split(x2r, x2i, &mut s.w2r, &mut s.w2i);

                // Stage 3: t = V w = [C w1; B^T w2] in planes.
                {
                    let (t1r, t2r) = s.tr.split_at_mut(p);
                    let (t1i, t2i) = s.ti.split_at_mut(p);
                    self.ss.apply_c_split(&s.w1r, &s.w1i, t1r, t1i);
                    self.ss.apply_bt_split(&s.w2r, &s.w2i, t2r, t2i);
                }

                // Stage 4: s = W^{-1} t — a 2p x 2p LU solve, done
                // interleaved (p is small; not worth a split LU).
                kernels::merge(&s.tr, &s.ti, &mut s.t);
                self.w_lu.solve_in_place(&mut s.t);
                kernels::split(&s.t, &mut s.tr, &mut s.ti);
                let (s1r, s2r) = s.tr.split_at(p);
                let (s1i, s2i) = s.ti.split_at(p);

                // Stage 5: u = U s = [B s1; C^T s2] in planes.
                self.ss.apply_b_split(s1r, s1i, &mut s.u1r, &mut s.u1i);
                self.ss.apply_ct_split(s2r, s2i, &mut s.u2r, &mut s.u2i);

                // Stage 6: y = w - K u, the solve fused with the subtract
                // and the interleaved pack in one pass per half (the only
                // write of interleaved output).
                let (y1, y2) = y.split_at_mut(n);
                self.k1.sub_merge_into(&s.w1r, &s.w1i, &s.u1r, &s.u1i, y1);
                self.k2.sub_merge_into(&s.w2r, &s.w2i, &s.u2r, &s.u2i, y2);
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::dense_hamiltonian;
    use crate::matvec::HamiltonianOp;
    use pheig_linalg::vector::nrm2;
    use pheig_model::generator::{generate_case, CaseSpec};

    fn test_vec(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::new((i as f64 * 0.73).sin(), (i as f64 * 0.41).cos()))
            .collect()
    }

    #[test]
    fn matches_dense_shifted_solve() {
        let ss = generate_case(&CaseSpec::new(12, 3).with_seed(2))
            .unwrap()
            .realize();
        let dense = dense_hamiltonian(&ss).unwrap().to_c64();
        let n2 = 2 * ss.order();
        for &theta in &[
            C64::new(0.0, 1.3),
            C64::new(0.0, 4.0),
            C64::new(0.2, 2.0),
            C64::new(0.0, 0.05),
        ] {
            let op = ShiftInvertOp::new(&ss, theta).unwrap();
            let mut shifted = dense.clone();
            for i in 0..n2 {
                shifted[(i, i)] -= theta;
            }
            let lu = pheig_linalg::Lu::new(shifted).unwrap();
            let x = test_vec(n2);
            let want = lu.solve(&x).unwrap();
            let got = op.apply(&x);
            let scale = nrm2(&want).max(1.0);
            for (u, v) in got.iter().zip(&want) {
                assert!((*u - *v).abs() < 1e-9 * scale, "theta={theta}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn roundtrip_with_structured_matvec() {
        // (M - theta I) * apply(x) == x, using only structured operators.
        let ss = generate_case(&CaseSpec::new(30, 4).with_seed(7))
            .unwrap()
            .realize();
        let theta = C64::from_imag(2.4);
        let si = ShiftInvertOp::new(&ss, theta).unwrap();
        let m_op = HamiltonianOp::new(&ss).unwrap();
        let x = test_vec(si.dim());
        let y = si.apply(&x);
        let my = m_op.apply(&y);
        let mut resid = 0.0f64;
        for i in 0..si.dim() {
            resid = resid.max((my[i] - y[i] * theta - x[i]).abs());
        }
        assert!(resid < 1e-8 * nrm2(&x), "residual {resid}");
    }

    #[test]
    fn eigenvalue_mapping() {
        let ss = generate_case(&CaseSpec::new(8, 2).with_seed(3))
            .unwrap()
            .realize();
        let theta = C64::from_imag(1.0);
        let op = ShiftInvertOp::new(&ss, theta).unwrap();
        let mu = C64::new(0.5, -0.5);
        let lambda = op.to_hamiltonian_eigenvalue(mu);
        // lambda = theta + 1/mu.
        assert!((lambda - (theta + mu.recip())).abs() < 1e-15);
        assert_eq!(op.theta(), theta);
    }

    #[test]
    fn rejects_non_contractive_d() {
        use pheig_linalg::Matrix as M;
        use pheig_model::{ColumnTerms, Pole, PoleResidueModel, Residue};
        let col = ColumnTerms {
            poles: vec![Pole::Real(-1.0)],
            residues: vec![Residue::Real(vec![0.1])],
        };
        let model = PoleResidueModel::new(vec![col], M::from_diag(&[1.2])).unwrap();
        let ss = model.realize();
        assert!(matches!(
            ShiftInvertOp::new(&ss, C64::from_imag(1.0)),
            Err(HamiltonianError::DirectTermNotContractive)
        ));
    }

    #[test]
    fn rejects_near_singular_shift_with_block_identity() {
        // A virtually undamped pair pole probed exactly at resonance: the
        // shifted block determinant underflows and the fused factors would
        // be Inf/NaN. The constructor must refuse with the block index.
        use pheig_linalg::Matrix as M;
        use pheig_model::{ColumnTerms, Pole, PoleResidueModel, Residue};
        let col = ColumnTerms {
            poles: vec![
                Pole::Real(-1.0),
                Pole::Pair {
                    re: -1e-15,
                    im: 3.0,
                },
            ],
            residues: vec![
                Residue::Real(vec![0.05]),
                Residue::Complex(vec![C64::new(0.02, 0.01)]),
            ],
        };
        let model = PoleResidueModel::new(vec![col], M::from_diag(&[0.1])).unwrap();
        let ss = model.realize();
        match ShiftInvertOp::new(&ss, C64::from_imag(3.0)) {
            Err(HamiltonianError::NearSingularShift { block, rcond }) => {
                assert_eq!(block, 1);
                assert!(rcond < 1e-13, "rcond {rcond}");
            }
            other => panic!("expected NearSingularShift, got {other:?}"),
        }
        // Away from the resonance the same model factors fine.
        assert!(ShiftInvertOp::new(&ss, C64::from_imag(1.0)).is_ok());
    }

    #[test]
    fn transfer_gram_consistency() {
        // G(theta) must equal the dense product C (A - theta)^{-1} B.
        let ss = generate_case(&CaseSpec::new(9, 2).with_seed(6))
            .unwrap()
            .realize();
        let theta = C64::new(-0.3, 1.9);
        let g = transfer_gram(&ss, theta);
        let n = ss.order();
        let mut shifted = ss.a_dense().to_c64();
        for i in 0..n {
            shifted[(i, i)] -= theta;
        }
        let lu = pheig_linalg::Lu::new(shifted).unwrap();
        let x = lu.solve_matrix(&ss.b_dense().to_c64()).unwrap();
        let g_dense = &ss.c().to_c64() * &x;
        assert!((&g - &g_dense).max_abs() < 1e-11);
    }

    #[test]
    fn apply_is_linear_operator_inverse_of_shifted_m() {
        // Spectral check: for an eigenpair (lambda, v) of dense M,
        // apply(v) = v / (lambda - theta).
        let ss = generate_case(&CaseSpec::new(6, 2).with_seed(11))
            .unwrap()
            .realize();
        let dense = dense_hamiltonian(&ss).unwrap().to_c64();
        let (vals, vecs) = pheig_linalg::eig::eig_with_vectors(&dense).unwrap();
        let theta = C64::from_imag(0.9);
        let op = ShiftInvertOp::new(&ss, theta).unwrap();
        // Pick the best-conditioned eigenpair (largest residual margin).
        for (k, &lambda) in vals.iter().enumerate() {
            let v = vecs.col(k);
            let got = op.apply(&v);
            let expect_factor = (lambda - theta).recip();
            let mut err = 0.0f64;
            for i in 0..v.len() {
                err = err.max((got[i] - v[i] * expect_factor).abs());
            }
            assert!(err < 1e-6, "eigenpair {k} (lambda={lambda}): error {err}");
        }
    }
}
