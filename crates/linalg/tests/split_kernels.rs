//! Property tests pinning the split-complex kernel layer to the scalar
//! `C64` reference kernels: for random vectors of arbitrary — including
//! odd and non-SIMD-aligned — lengths, every plane kernel must agree with
//! the interleaved implementation to a few ulp (the kernels reorder
//! reductions, so exact bitwise equality is not required, but the bound
//! is tight enough that a sign slip, a lane mixup, or a dropped remainder
//! element fails immediately).

use pheig_linalg::kernels::{self, SplitBasis};
use pheig_linalg::{vector, Matrix, C64};
use proptest::prelude::*;

/// A complex vector with entries in the unit box.
fn cvec(n: usize) -> impl Strategy<Value = Vec<C64>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), n)
        .prop_map(|v| v.into_iter().map(|(a, b)| C64::new(a, b)).collect())
}

/// Sizes that cross every code path: empty, sub-chunk, chunk remainders,
/// and multi-chunk (the kernels unroll by 4 and 8).
fn sizes() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), 1usize..9, 9usize..33, 33usize..130]
}

fn planes(x: &[C64]) -> (Vec<f64>, Vec<f64>) {
    let mut r = vec![0.0; x.len()];
    let mut i = vec![0.0; x.len()];
    kernels::split(x, &mut r, &mut i);
    (r, i)
}

/// `a` and `b` agree within a few ulp of the problem scale.
fn close(a: C64, b: C64, scale: f64) -> bool {
    (a - b).abs() <= 1e-13 * (1.0 + scale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// split / merge are exact inverses.
    #[test]
    fn split_merge_roundtrip(x in sizes().prop_flat_map(cvec)) {
        let (r, i) = planes(&x);
        let mut back = vec![C64::zero(); x.len()];
        kernels::merge(&r, &i, &mut back);
        prop_assert_eq!(back, x);
    }

    /// Plane dot == interleaved conjugated dot.
    #[test]
    fn dot_matches_reference((x, y) in sizes().prop_flat_map(|n| (cvec(n), cvec(n)))) {
        let (xr, xi) = planes(&x);
        let (yr, yi) = planes(&y);
        let got = kernels::dot(&xr, &xi, &yr, &yi);
        let want = vector::dot(&x, &y);
        prop_assert!(close(got, want, x.len() as f64), "{got} vs {want}");
    }

    /// Plane nrm2 == interleaved nrm2.
    #[test]
    fn nrm2_matches_reference(x in sizes().prop_flat_map(cvec)) {
        let (xr, xi) = planes(&x);
        let got = kernels::nrm2(&xr, &xi);
        let want = vector::nrm2(&x);
        prop_assert!((got - want).abs() <= 1e-13 * (1.0 + want));
    }

    /// Plane axpy / scal_real == interleaved axpy / scal.
    #[test]
    fn axpy_scal_match_reference(
        (x, y) in sizes().prop_flat_map(|n| (cvec(n), cvec(n))),
        (ar, ai) in (-2.0f64..2.0, -2.0f64..2.0),
    ) {
        let alpha = C64::new(ar, ai);
        let (xr, xi) = planes(&x);
        let (mut yr, mut yi) = planes(&y);
        let mut y_ref = y.clone();
        kernels::axpy(alpha, &xr, &xi, &mut yr, &mut yi);
        vector::axpy(alpha, &x, &mut y_ref);
        for j in 0..x.len() {
            prop_assert!(close(C64::new(yr[j], yi[j]), y_ref[j], 4.0));
        }
        kernels::scal_real(ar, &mut yr, &mut yi);
        vector::scal(C64::from_real(ar), &mut y_ref);
        for j in 0..x.len() {
            prop_assert!(close(C64::new(yr[j], yi[j]), y_ref[j], 8.0));
        }
    }

    /// real_gemv and real_gemv_t_acc == dense complex products.
    #[test]
    fn real_gemv_matches_dense(
        (rows, cols, x, u, m) in (1usize..9, 0usize..40).prop_flat_map(|(r, c)| (
            Just(r),
            Just(c),
            cvec(c),
            cvec(r),
            prop::collection::vec(-1.0f64..1.0, r * c),
        )),
    ) {
        let m = Matrix::from_vec(rows, cols, m).expect("sized");
        let mc = m.to_c64();
        let (xr, xi) = planes(&x);
        let mut yr = vec![0.0; rows];
        let mut yi = vec![0.0; rows];
        kernels::real_gemv(&m, &xr, &xi, &mut yr, &mut yi);
        let want = mc.matvec(&x);
        for i in 0..rows {
            prop_assert!(close(C64::new(yr[i], yi[i]), want[i], cols as f64));
        }
        let (ur, ui) = planes(&u);
        let mut ar = vec![0.0; cols];
        let mut ai = vec![0.0; cols];
        kernels::real_gemv_t_acc(&m, &ur, &ui, &mut ar, &mut ai);
        let want_t = mc.transpose().matvec(&u);
        for j in 0..cols {
            prop_assert!(close(C64::new(ar[j], ai[j]), want_t[j], rows as f64));
        }
    }

    /// Batched basis projection == the per-vector dot/axpy chain.
    #[test]
    fn basis_projection_matches_per_vector_reference(
        (rows, n, w, flat) in (0usize..40, 1usize..50).prop_flat_map(|(r, n)| (
            Just(r),
            Just(n),
            cvec(n),
            cvec(r * n),
        )),
    ) {
        let mut sb = SplitBasis::new();
        sb.reset(n);
        let basis: Vec<&[C64]> = flat.chunks(n).collect();
        for q in &basis {
            sb.push_interleaved(q);
        }
        prop_assert_eq!(sb.rows(), rows);
        let (mut wr, mut wi) = planes(&w);
        let mut coeff = vec![C64::zero(); rows];
        sb.project_out(&mut wr, &mut wi, &mut coeff);
        let mut w_ref = w.clone();
        for (q, c) in basis.iter().zip(coeff.iter_mut()) {
            let want = vector::dot(q, &w);
            prop_assert!(close(*c, want, n as f64));
            vector::axpy(-want, q, &mut w_ref);
        }
        for j in 0..n {
            prop_assert!(close(C64::new(wr[j], wi[j]), w_ref[j], (rows * n) as f64));
        }
    }
}
