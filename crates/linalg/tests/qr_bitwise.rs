//! `Qr::new` against the column-walking Householder loop it replaced, bit
//! for bit.
//!
//! `Qr::new` streams every step along the rows of its row-major matrix and
//! skips the rows whose reflector entry is an exact zero. It may do that
//! only because nothing is re-associated: every `s[j] = v^H a[.., j]` still
//! sums over the rows in ascending order from the pivot term, every update
//! is still one `a - s * v`. The reference below is the loop as it stood
//! before, one column at a time over the public `Matrix` API; `R`, `Q^H b`
//! and the least-squares solution must agree with it in every bit. The one
//! freedom the skip takes is the sign of an exact zero, and only when the
//! input already holds a `-0.0` (`signed_zeros_...` below).

// The reference keeps the index form of the loops it records.
#![allow(clippy::needless_range_loop)]

use pheig_linalg::{Matrix, Qr, Scalar, C64};
use proptest::prelude::*;

/// The factorization as `Qr::new` computed it before the loop interchange.
struct Reference<S> {
    packed: Matrix<S>,
    v0: Vec<S>,
    tau: Vec<f64>,
}

impl<S: Scalar> Reference<S> {
    fn new(mut a: Matrix<S>) -> Self {
        let (m, n) = a.shape();
        let steps = n.min(m.saturating_sub(1));
        let mut v0 = vec![S::ZERO; steps];
        let mut tau = vec![0.0; steps];
        for k in 0..steps {
            let norm_x: f64 = (k..m).map(|i| a[(i, k)].abs_sq()).sum::<f64>().sqrt();
            if norm_x == 0.0 {
                continue;
            }
            let x0 = a[(k, k)];
            let phase = if x0.abs() == 0.0 {
                S::ONE
            } else {
                x0 * S::from_f64(1.0 / x0.abs())
            };
            let beta = -phase * S::from_f64(norm_x);
            let vk0 = x0 - beta;
            let vhv = 2.0 * (norm_x * norm_x + x0.abs() * norm_x);
            let t = if vhv == 0.0 { 0.0 } else { 2.0 / vhv };
            v0[k] = vk0;
            tau[k] = t;
            for j in k..n {
                let mut s = vk0.conj() * a[(k, j)];
                for i in (k + 1)..m {
                    s += a[(i, k)].conj() * a[(i, j)];
                }
                s *= S::from_f64(t);
                if j == k {
                    a[(k, k)] = beta;
                } else {
                    a[(k, j)] -= s * vk0;
                    for i in (k + 1)..m {
                        let vik = a[(i, k)];
                        a[(i, j)] -= s * vik;
                    }
                }
            }
        }
        Reference { packed: a, v0, tau }
    }

    fn apply_qh(&self, b: &mut [S]) {
        let m = self.packed.rows();
        for k in 0..self.v0.len() {
            let t = self.tau[k];
            if t == 0.0 {
                continue;
            }
            let mut s = self.v0[k].conj() * b[k];
            for i in (k + 1)..m {
                s += self.packed[(i, k)].conj() * b[i];
            }
            s *= S::from_f64(t);
            b[k] -= s * self.v0[k];
            for i in (k + 1)..m {
                let vik = self.packed[(i, k)];
                b[i] -= s * vik;
            }
        }
    }

    /// Back substitution on `Q^H b`; `None` for a zero on `R`'s diagonal.
    fn solve(&self, b: &[S]) -> Option<Vec<S>> {
        let n = self.packed.cols();
        let mut c = b.to_vec();
        self.apply_qh(&mut c);
        let mut x = vec![S::ZERO; n];
        for i in (0..n).rev() {
            let mut acc = c[i];
            for j in (i + 1)..n {
                acc -= self.packed[(i, j)] * x[j];
            }
            let d = self.packed[(i, i)];
            if d.abs() == 0.0 {
                return None;
            }
            x[i] = acc / d;
        }
        Some(x)
    }
}

/// How two results are compared: `(got, want)`, one real component each.
type Same = fn(f64, f64) -> bool;

fn every_bit(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits()
}

/// Every bit, except that a zero may come back with either sign.
fn every_bit_but_a_zeros_sign(got: f64, want: f64) -> bool {
    if want == 0.0 {
        got == want
    } else {
        got.to_bits() == want.to_bits()
    }
}

fn assert_same<S: Scalar>(got: &[S], want: &[S], same: Same, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            same(g.re(), w.re()) && same(g.im(), w.im()),
            "{what}: entry {i} is {g:?}, the column-walking loop gives {w:?}"
        );
    }
}

/// Compares `Qr::new(a)` with the reference on `R`, on `Q^H b` for three
/// dense right-hand sides and on the least-squares solution of each.
fn check<S: Scalar>(a: &Matrix<S>, rhs: &[Vec<S>; 3], same: Same, what: &str) {
    let (m, n) = a.shape();
    let want = Reference::new(a.clone());
    let got = Qr::new(a.clone()).expect("rows >= cols");
    let upper = |r: &Matrix<S>| -> Vec<S> {
        (0..n)
            .flat_map(|i| (i..n).map(move |j| r[(i, j)]))
            .collect()
    };
    assert_same(
        &upper(&got.r()),
        &upper(&want.packed),
        same,
        &format!("{what} ({m}x{n}): R"),
    );
    for (q, b) in rhs.iter().enumerate() {
        let (mut got_b, mut want_b) = (b.clone(), b.clone());
        got.apply_qh(&mut got_b);
        want.apply_qh(&mut want_b);
        assert_same(
            &got_b,
            &want_b,
            same,
            &format!("{what} ({m}x{n}): Q^H b{q}"),
        );
        match (got.solve_least_squares(b), want.solve(b)) {
            (Ok(got_x), Some(want_x)) => assert_same(
                &got_x,
                &want_x,
                same,
                &format!("{what} ({m}x{n}): least squares b{q}"),
            ),
            (Err(_), None) => {}
            (got_x, want_x) => panic!("{what} ({m}x{n}): solve gave {got_x:?}, want {want_x:?}"),
        }
    }
}

/// splitmix64, mapped to (-1, 1).
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn complex(&mut self) -> C64 {
        C64::new(self.unit(), self.unit())
    }

    fn rhs<S: Scalar>(&mut self, m: usize, mut draw: impl FnMut(&mut Self) -> S) -> [Vec<S>; 3] {
        [(); 3].map(|()| (0..m).map(|_| draw(self)).collect())
    }
}

/// The sigma-stage matrix of a Vector Fitting iteration (`fit.rs`): rows
/// sample-major, port-minor (`r = 2 (k p + i)`, real then imaginary part),
/// one `nb`-column residue block per port, optionally one constant column
/// per port, then the shared sigma block. Pivot rows `2 .. 2p` of port 0's
/// block belong to the other ports, so their reflectors drag those ports'
/// columns into port 0's rows: the fill-in the zero-row skip has to follow.
fn sigma_matrix(samples: usize, p: usize, nb: usize, fit_d: bool, rng: &mut Rng) -> Matrix<f64> {
    let d_cols = if fit_d { p } else { 0 };
    let mut a = Matrix::<f64>::zeros(2 * samples * p, nb * p + d_cols + nb);
    for k in 0..samples {
        let phi: Vec<C64> = (0..nb).map(|_| rng.complex()).collect();
        for i in 0..p {
            let f = rng.complex();
            let (r_re, r_im) = (2 * (k * p + i), 2 * (k * p + i) + 1);
            for (c, &ph) in phi.iter().enumerate() {
                a[(r_re, i * nb + c)] = ph.re;
                a[(r_im, i * nb + c)] = ph.im;
                let v = -(ph * f);
                a[(r_re, nb * p + d_cols + c)] = v.re;
                a[(r_im, nb * p + d_cols + c)] = v.im;
            }
            if fit_d {
                a[(r_re, nb * p + i)] = 1.0;
            }
        }
    }
    a
}

#[test]
fn vector_fitting_sigma_matrices() {
    let mut rng = Rng(19);
    for p in [1, 2, 6] {
        for fit_d in [true, false] {
            let a = sigma_matrix(14, p, 4, fit_d, &mut rng);
            let rhs = rng.rhs(a.rows(), Rng::unit);
            check(&a, &rhs, every_bit, &format!("sigma p={p} fit_d={fit_d}"));
        }
    }
}

/// A dense matrix with roughly a quarter of its entries exactly `+0.0`.
fn sparse_random<S: Scalar>(
    m: usize,
    n: usize,
    rng: &mut Rng,
    mut draw: impl FnMut(&mut Rng) -> S,
) -> Matrix<S> {
    Matrix::from_fn(m, n, |_, _| {
        let x = draw(rng);
        if rng.unit().abs() < 0.25 {
            S::ZERO
        } else {
            x
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_real_matrices(m in 1usize..41, c in 0usize..40, seed in 0u64..u64::MAX) {
        let (n, mut rng) = (1 + c % m, Rng(seed));
        let dense = Matrix::from_fn(m, n, |_, _| rng.unit());
        check(&dense, &rng.rhs(m, Rng::unit), every_bit, "dense real");
        let sparse = sparse_random(m, n, &mut rng, Rng::unit);
        check(&sparse, &rng.rhs(m, Rng::unit), every_bit, "sparse real");
    }

    #[test]
    fn random_complex_matrices(m in 1usize..41, c in 0usize..40, seed in 0u64..u64::MAX) {
        let (n, mut rng) = (1 + c % m, Rng(seed));
        let dense = Matrix::from_fn(m, n, |_, _| rng.complex());
        check(&dense, &rng.rhs(m, Rng::complex), every_bit, "dense complex");
        let sparse = sparse_random(m, n, &mut rng, Rng::complex);
        check(&sparse, &rng.rhs(m, Rng::complex), every_bit, "sparse complex");
    }
}

#[test]
fn square_nearly_square_and_one_by_one() {
    let mut rng = Rng(7);
    for (m, n) in [(1, 1), (2, 1), (2, 2), (6, 6), (7, 6), (9, 9), (10, 9)] {
        let a = Matrix::from_fn(m, n, |_, _| rng.unit());
        check(&a, &rng.rhs(m, Rng::unit), every_bit, "real");
        let a = Matrix::from_fn(m, n, |_, _| rng.complex());
        check(&a, &rng.rhs(m, Rng::complex), every_bit, "complex");
    }
}

#[test]
fn zero_columns_take_the_tau_zero_skip() {
    let mut rng = Rng(3);
    // Column 1 is zero from the start.
    let mut a = Matrix::from_fn(6, 3, |_, _| rng.unit());
    (0..6).for_each(|i| a[(i, 1)] = 0.0);
    check(&a, &rng.rhs(6, Rng::unit), every_bit, "zero column");
    // Column 0 is a multiple of e_0 (its reflector has no active row), so
    // column 1 reaches step 1 still zero at and below the diagonal.
    let a = Matrix::from_rows(&[
        &[2.0, 3.0, 1.0][..],
        &[0.0, 0.0, 4.0][..],
        &[0.0, 0.0, 5.0][..],
        &[0.0, 0.0, 6.0][..],
    ]);
    check(
        &a,
        &rng.rhs(4, Rng::unit),
        every_bit,
        "zero below the pivot",
    );
    let a = a.map(|x| C64::new(x, -0.5 * x));
    check(&a, &rng.rhs(4, Rng::complex), every_bit, "complex, same");
}

#[test]
fn zero_pivot_with_a_tail_takes_the_unit_phase() {
    let mut rng = Rng(5);
    let mut a = Matrix::from_fn(5, 3, |_, _| rng.unit());
    a[(0, 0)] = 0.0;
    check(&a, &rng.rhs(5, Rng::unit), every_bit, "zero pivot");
    let mut a = Matrix::from_fn(5, 3, |_, _| rng.complex());
    a[(0, 0)] = C64::new(0.0, 0.0);
    a[(2, 0)] = C64::new(0.0, 0.0);
    check(
        &a,
        &rng.rhs(5, Rng::complex),
        every_bit,
        "complex zero pivot",
    );
}

#[test]
fn subnormal_entries() {
    let mut rng = Rng(11);
    // Entries around the bottom of the normal range and below it.
    let a = sparse_random(12, 5, &mut rng, Rng::unit).map(|x| x * 1e-307);
    check(&a, &rng.rhs(12, Rng::unit), every_bit, "subnormal");
    // A column whose squares all underflow: non-zero entries, zero norm.
    let mut a = Matrix::from_fn(8, 4, |_, _| rng.unit());
    (0..8).for_each(|i| a[(i, 0)] *= 1e-200);
    check(&a, &rng.rhs(8, Rng::unit), every_bit, "underflowing norm");
    let a = sparse_random(9, 4, &mut rng, Rng::complex).map(|z: C64| z.scale(1e-310));
    check(
        &a,
        &rng.rhs(9, Rng::complex),
        every_bit,
        "complex subnormal",
    );
}

#[test]
fn signed_zeros_move_at_most_the_sign_of_a_zero() {
    // The documented freedom of the skip: the old loop computed `x - s * 0`
    // in a row the new one leaves alone, which turns a `-0.0` at `x` into
    // `+0.0` when `s * 0` is `-0.0`. Nothing that is not a zero may move.
    for seed in 0..24 {
        let mut rng = Rng(1000 + seed);
        let a = Matrix::from_fn(14, 6, |_, _| match rng.unit() {
            u if u < -0.5 => -0.0,
            u if u < 0.0 => 0.0,
            _ => rng.unit(),
        });
        let rhs = rng.rhs(14, Rng::unit);
        check(&a, &rhs, every_bit_but_a_zeros_sign, "signed zeros");
        let a = a.map(|x| C64::new(x, -x));
        let rhs = rng.rhs(14, Rng::complex);
        check(&a, &rhs, every_bit_but_a_zeros_sign, "complex signed zeros");
    }
}
