//! The partial-pivoting LUs against the loops they replaced, bit for bit.
//!
//! `lu::factor_in_place` (behind `Lu::new` and the inverse iteration of
//! `eig_with_vectors`) chooses each pivot from the squared magnitudes and
//! evaluates `hypot` only inside a `1e-13` band around the largest,
//! falling back to the full `hypot` scan where a square can overflow,
//! underflow or be non-finite; it updates each row as a contiguous slice
//! inside one SIMD region. The Hessenberg LU behind
//! `eig_hessenberg_with_vectors` shares the pivot rule. None of that may
//! move a bit: the references below are the loops as they stood before —
//! the full `hypot` scan, the indexed update, the dense and the
//! two-candidate inverse iteration — over the public `Matrix` API, and
//! every solution, determinant, condition estimate, singular column,
//! eigenvalue and eigenvector must agree with them in every bit (a NaN
//! only has to stay a NaN: its payload is not arithmetic).
//!
//! `band_0_mutant_fails_the_near_tie` records why the band exists: picking
//! the pivot by the squares alone chooses another row on a pair the search
//! finds, and the comparison here tells the two apart.

// The reference keeps the index form of the loops it records.
#![allow(clippy::needless_range_loop)]

use pheig_linalg::eig::{
    eig_complex, eig_hessenberg_with_vectors, eig_with_vectors, HessenbergEig,
};
use pheig_linalg::vector::{normalize, nrm2};
use pheig_linalg::{LinalgError, Lu, Matrix, Scalar, C64};

/// How a reference factorization picks its pivots.
#[derive(Clone, Copy)]
enum Rule {
    /// The full `hypot` scan `factor_in_place` ran before.
    Hypot,
    /// The band-0 mutant: the first largest `abs_sq`, no `hypot` at all.
    AbsSq,
}

/// `P A = L U` as `factor_in_place` computed it before, or the column at
/// which it found the matrix singular.
struct Reference<S> {
    factors: Matrix<S>,
    pivots: Vec<usize>,
    swaps: usize,
}

impl<S: Scalar> Reference<S> {
    fn new(mut a: Matrix<S>, rule: Rule) -> Result<Self, usize> {
        let n = a.rows();
        let (mut pivots, mut swaps) = (Vec::new(), 0);
        for k in 0..n {
            let mag = |z: S| match rule {
                Rule::Hypot => z.abs(),
                Rule::AbsSq => z.abs_sq(),
            };
            let mut p = k;
            let mut best = mag(a[(k, k)]);
            for i in (k + 1)..n {
                let m = mag(a[(i, k)]);
                if m > best {
                    best = m;
                    p = i;
                }
            }
            if best == 0.0 {
                return Err(k);
            }
            if p != k {
                a.swap_rows(p, k);
                swaps += 1;
            }
            pivots.push(p);
            let inv_pivot = S::ONE / a[(k, k)];
            for i in (k + 1)..n {
                let lik = a[(i, k)] * inv_pivot;
                a[(i, k)] = lik;
                if lik == S::ZERO {
                    continue;
                }
                for j in (k + 1)..n {
                    let akj = a[(k, j)];
                    a[(i, j)] -= lik * akj;
                }
            }
        }
        Ok(Reference {
            factors: a,
            pivots,
            swaps,
        })
    }

    fn solve(&self, b: &[S]) -> Vec<S> {
        let n = self.factors.rows();
        let mut b = b.to_vec();
        for (k, &p) in self.pivots.iter().enumerate() {
            if p != k {
                b.swap(k, p);
            }
        }
        for i in 1..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.factors[(i, j)] * b[j];
            }
            b[i] = acc;
        }
        back_substitute(&self.factors, &mut b);
        b
    }

    fn det(&self) -> S {
        let mut d = if self.swaps.is_multiple_of(2) {
            S::ONE
        } else {
            -S::ONE
        };
        for i in 0..self.factors.rows() {
            d *= self.factors[(i, i)];
        }
        d
    }
}

fn back_substitute<S: Scalar>(u: &Matrix<S>, b: &mut [S]) {
    let n = u.rows();
    for i in (0..n).rev() {
        let mut acc = b[i];
        for j in (i + 1)..n {
            acc -= u[(i, j)] * b[j];
        }
        b[i] = acc / u[(i, i)];
    }
}

fn diagonal_rcond<S: Scalar>(u: &Matrix<S>) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for i in 0..u.rows() {
        let m = u[(i, i)].abs();
        lo = lo.min(m);
        hi = hi.max(m);
    }
    if hi == 0.0 {
        0.0
    } else {
        lo / hi
    }
}

/// What a factorization answers through the public API.
#[derive(Debug)]
enum Answers<S> {
    Factored {
        solutions: Vec<Vec<S>>,
        det: S,
        rcond: f64,
    },
    Singular(usize),
}

fn lu_answers<S: Scalar>(a: &Matrix<S>, rhs: &[Vec<S>]) -> Answers<S> {
    match Lu::new(a.clone()) {
        Ok(lu) => Answers::Factored {
            solutions: rhs
                .iter()
                .map(|b| lu.solve(b).expect("rhs length"))
                .collect(),
            det: lu.det(),
            rcond: lu.rcond_estimate(),
        },
        Err(LinalgError::Singular { at }) => Answers::Singular(at),
        Err(e) => panic!("Lu::new failed with {e:?}"),
    }
}

fn reference_answers<S: Scalar>(a: &Matrix<S>, rhs: &[Vec<S>], rule: Rule) -> Answers<S> {
    match Reference::new(a.clone(), rule) {
        Ok(r) => Answers::Factored {
            solutions: rhs.iter().map(|b| r.solve(b)).collect(),
            det: r.det(),
            rcond: diagonal_rcond(&r.factors),
        },
        Err(at) => Answers::Singular(at),
    }
}

/// Every bit, except that any NaN matches any NaN.
fn same_f64(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

fn same<S: Scalar>(got: S, want: S) -> bool {
    same_f64(got.re(), want.re()) && same_f64(got.im(), want.im())
}

fn same_answers<S: Scalar>(got: &Answers<S>, want: &Answers<S>) -> bool {
    match (got, want) {
        (
            Answers::Factored {
                solutions: gs,
                det: gd,
                rcond: gr,
            },
            Answers::Factored {
                solutions: ws,
                det: wd,
                rcond: wr,
            },
        ) => {
            gs.iter()
                .flatten()
                .zip(ws.iter().flatten())
                .all(|(&g, &w)| same(g, w))
                && same(*gd, *wd)
                && same_f64(*gr, *wr)
        }
        (Answers::Singular(g), Answers::Singular(w)) => g == w,
        _ => false,
    }
}

/// `Lu::new(a)` against the `hypot`-scan reference on three right-hand
/// sides, the determinant, the condition estimate and the singular column.
fn check_lu<S: Scalar>(a: &Matrix<S>, rng: &mut Rng, draw: fn(&mut Rng) -> S, what: &str) {
    let rhs: Vec<Vec<S>> = (0..3)
        .map(|_| (0..a.rows()).map(|_| draw(rng)).collect())
        .collect();
    let got = lu_answers(a, &rhs);
    let want = reference_answers(a, &rhs, Rule::Hypot);
    assert!(
        same_answers(&got, &want),
        "{what} ({0}x{0}): Lu::new gives {got:?}, the hypot scan {want:?}",
        a.rows()
    );
}

/// What the parent's inverse iteration needs from a factorization.
trait Factors {
    fn rcond(&self) -> f64;
    fn solve(&self, b: &mut [C64]);
}

impl Factors for Reference<C64> {
    fn rcond(&self) -> f64 {
        diagonal_rcond(&self.factors)
    }

    fn solve(&self, b: &mut [C64]) {
        let x = Reference::solve(self, b);
        b.copy_from_slice(&x);
    }
}

/// The parent's shift-perturbation ladder and three solve-and-normalize
/// steps from its deterministic start vector.
fn inverse_iteration<F: Factors>(
    factor: impl Fn(C64) -> Result<F, LinalgError>,
    lambda: C64,
    k: usize,
    scale: f64,
    n: usize,
) -> Result<Vec<C64>, LinalgError> {
    let mut shift = lambda;
    let mut perturb = 1e-12 * scale;
    let lu = loop {
        if let Ok(lu) = factor(shift) {
            if lu.rcond() > 1e-300 {
                break lu;
            }
        }
        shift = lambda + C64::from_real(perturb);
        perturb *= 16.0;
        if perturb > scale {
            break factor(lambda + C64::from_real(scale * 1e-6))?;
        }
    };
    let mut v: Vec<C64> = (0..n)
        .map(|i| {
            C64::new(
                1.0,
                ((i * 2654435761usize.wrapping_add(k)) % 97) as f64 / 97.0,
            )
        })
        .collect();
    normalize(&mut v);
    for _ in 0..3 {
        lu.solve(&mut v);
        if nrm2(&v) == 0.0 {
            break;
        }
        normalize(&mut v);
    }
    Ok(v)
}

/// The parent's `eig_with_vectors`: eigenvector `k` is column `k`.
fn reference_eig(a: &Matrix<C64>) -> Result<(Vec<C64>, Matrix<C64>), LinalgError> {
    let n = a.rows();
    let values = eig_complex(a)?;
    let scale = a.frobenius_norm().max(f64::MIN_POSITIVE);
    let mut vectors = Matrix::zeros(n, n);
    for (k, &lambda) in values.iter().enumerate() {
        let factor = |shift: C64| {
            let mut w = a.clone();
            for i in 0..n {
                w[(i, i)] -= shift;
            }
            Reference::new(w, Rule::Hypot).map_err(|at| LinalgError::Singular { at })
        };
        let v = inverse_iteration(factor, lambda, k, scale, n)?;
        for i in 0..n {
            vectors[(i, k)] = v[i];
        }
    }
    Ok((values, vectors))
}

fn assert_same_slice(got: &[C64], want: &[C64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            same(g, w),
            "{what}: entry {i} is {g:?}, the parent gives {w:?}"
        );
    }
}

fn check_eig(a: &Matrix<C64>, what: &str) {
    let n = a.rows();
    match (eig_with_vectors(a), reference_eig(a)) {
        (Ok((gv, gx)), Ok((wv, wx))) => {
            assert_same_slice(&gv, &wv, &format!("{what} ({n}x{n}): values"));
            assert_same_slice(
                gx.as_slice(),
                wx.as_slice(),
                &format!("{what} ({n}x{n}): vectors"),
            );
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{what}: errors"),
        (g, w) => panic!("{what}: eig_with_vectors gives {g:?}, the parent {w:?}"),
    }
}

/// The parent's two-candidate LU of an upper-Hessenberg `H - shift I`.
struct HessenbergReference {
    u: Matrix<C64>,
    mult: Vec<C64>,
    swapped: Vec<bool>,
}

impl HessenbergReference {
    fn new(h: &Matrix<C64>, shift: C64) -> Result<Self, LinalgError> {
        let n = h.rows();
        let mut u = h.clone();
        for i in 0..n {
            u[(i, i)] -= shift;
        }
        let (mut mult, mut swapped) = (vec![C64::zero(); n], vec![false; n]);
        for k in 0..n {
            let mut best = u[(k, k)].abs();
            let mut swap = false;
            if k + 1 < n {
                let m = u[(k + 1, k)].abs();
                if m > best {
                    best = m;
                    swap = true;
                }
            }
            if best == 0.0 {
                return Err(LinalgError::Singular { at: k });
            }
            swapped[k] = swap;
            if k + 1 == n {
                break;
            }
            if swap {
                for j in k..n {
                    let t = u[(k, j)];
                    u[(k, j)] = u[(k + 1, j)];
                    u[(k + 1, j)] = t;
                }
            }
            let lik = u[(k + 1, k)] * (C64::one() / u[(k, k)]);
            mult[k] = lik;
            if lik == C64::zero() {
                continue;
            }
            for j in (k + 1)..n {
                let ukj = u[(k, j)];
                u[(k + 1, j)] -= lik * ukj;
            }
        }
        Ok(HessenbergReference { u, mult, swapped })
    }
}

impl Factors for HessenbergReference {
    fn rcond(&self) -> f64 {
        diagonal_rcond(&self.u)
    }

    fn solve(&self, b: &mut [C64]) {
        let n = self.u.rows();
        for k in 0..n.saturating_sub(1) {
            if self.swapped[k] {
                b.swap(k, k + 1);
            }
            let bk = b[k];
            b[k + 1] -= self.mult[k] * bk;
        }
        back_substitute(&self.u, b);
    }
}

/// `eig_hessenberg_with_vectors` on the leading `m x m` block of `h`
/// against the parent's values and two-candidate inverse iteration.
fn check_hessenberg(h: &Matrix<C64>, m: usize, out: &mut HessenbergEig, what: &str) {
    let block = Matrix::from_fn(
        m,
        m,
        |i, j| if i <= j + 1 { h[(i, j)] } else { C64::zero() },
    );
    let got = eig_hessenberg_with_vectors(h, m, out);
    let want = eig_complex(&block).and_then(|values| {
        let scale = block.frobenius_norm().max(f64::MIN_POSITIVE);
        let factor = |shift| HessenbergReference::new(&block, shift);
        let vectors = values
            .iter()
            .enumerate()
            .map(|(k, &lambda)| inverse_iteration(factor, lambda, k, scale, m))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((values, vectors))
    });
    match (got, want) {
        (Ok(()), Ok((values, vectors))) => {
            assert_same_slice(out.values(), &values, &format!("{what} (m = {m}): values"));
            for (k, v) in vectors.iter().enumerate() {
                assert_same_slice(out.vector(k), v, &format!("{what} (m = {m}): vector {k}"));
            }
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{what}: errors"),
        (g, w) => panic!("{what}: eig_hessenberg_with_vectors gives {g:?}, the parent {w:?}"),
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
}

const ORDERS: [usize; 8] = [1, 2, 3, 7, 16, 33, 48, 61];

#[test]
fn random_dense_matrices() {
    let mut rng = Rng(1);
    for m in ORDERS {
        let a = Matrix::from_fn(m, m, |_, _| rng.complex());
        check_lu(&a, &mut rng, Rng::complex, "complex");
        check_eig(&a, "complex");
        let a = Matrix::from_fn(m, m, |_, _| rng.unit());
        check_lu(&a, &mut rng, Rng::unit, "real");
        check_eig(&a.to_c64(), "real-valued complex");
    }
}

#[test]
fn zero_and_sparse_columns() {
    let mut rng = Rng(2);
    for m in [2, 5, 16, 33] {
        // About a third of the entries exactly zero.
        let sparse = Matrix::from_fn(m, m, |_, _| {
            let z = rng.complex();
            if rng.unit() < -0.33 {
                C64::zero()
            } else {
                z
            }
        });
        check_lu(&sparse, &mut rng, Rng::complex, "sparse");
        check_eig(&sparse, "sparse");
        // A zero column: singular at (or before) it.
        let mut zero = sparse.clone();
        for i in 0..m {
            zero[(i, m / 2)] = C64::zero();
        }
        check_lu(&zero, &mut rng, Rng::complex, "zero column");
        check_eig(&zero, "zero column");
        // A column that is zero below the diagonal (pivot row fixed).
        let mut upper = sparse.clone();
        for i in 1..m {
            upper[(i, 0)] = C64::zero();
        }
        check_lu(&upper, &mut rng, Rng::complex, "zero below the pivot");
        let real = sparse.map(|z| z.re);
        check_lu(&real, &mut rng, Rng::unit, "sparse real");
    }
    // Upper triangular with a repeated eigenvalue: `T - lambda I` has an
    // exact zero pivot, so the inverse iteration walks its ladder.
    let mut t = Matrix::from_fn(
        6,
        6,
        |i, j| if i <= j { rng.complex() } else { C64::zero() },
    );
    t[(4, 4)] = t[(1, 1)];
    check_eig(&t, "perturbation ladder");
}

#[test]
fn exact_magnitude_ties() {
    // |3+4i| = |4+3i| = |-5| = |5i| = 5 under both `hypot` and `abs_sq`:
    // the first of the tied rows is the pivot.
    const TIES: [C64; 4] = [
        C64::new(3.0, 4.0),
        C64::new(4.0, 3.0),
        C64::new(-5.0, 0.0),
        C64::new(0.0, 5.0),
    ];
    let mut rng = Rng(3);
    for m in [2, 4, 7, 16] {
        let a = Matrix::from_fn(m, m, |_, _| {
            let u = rng.unit();
            if u < 0.5 {
                TIES[((u + 1.0) * 2.7) as usize % 4]
            } else {
                rng.complex()
            }
        });
        check_lu(&a, &mut rng, Rng::complex, "ties");
        check_eig(&a, "ties");
        let every = Matrix::from_fn(m, m, |i, j| TIES[(i + 3 * j) % 4]);
        check_lu(&every, &mut rng, Rng::complex, "all tied");
        let real = Matrix::from_fn(m, m, |i, j| if (i + j) % 3 == 0 { -5.0 } else { 5.0 });
        check_lu(&real, &mut rng, Rng::unit, "real ties");
    }
}

/// A pair `(z, w)` on which the two magnitude orders disagree: the
/// `hypot` scan keeps `z` (the first row), `abs_sq` says `w` is larger.
fn near_tie() -> (C64, C64) {
    let mut rng = Rng(4);
    for _ in 0..100_000 {
        let z = rng.complex();
        let t = std::f64::consts::PI * rng.unit();
        let w = C64::new(z.abs() * t.cos(), z.abs() * t.sin());
        if w.abs() <= z.abs() && w.abs_sq() > z.abs_sq() {
            return (z, w);
        }
    }
    panic!("no near tie in 100000 draws");
}

/// A matrix whose first column is led by the near tie, every other entry
/// of that column well below it.
fn near_tie_matrix(m: usize, rng: &mut Rng) -> Matrix<C64> {
    let (z, w) = near_tie();
    let mut a = Matrix::from_fn(m, m, |_, _| rng.complex());
    a[(0, 0)] = z;
    a[(1, 0)] = w;
    for i in 2..m {
        a[(i, 0)] = a[(i, 0)].scale(0.25 * z.abs());
    }
    a
}

#[test]
fn near_tie_keeps_the_hypot_choice() {
    let mut rng = Rng(5);
    for m in [2, 3, 8, 48] {
        let a = near_tie_matrix(m, &mut rng);
        check_lu(&a, &mut rng, Rng::complex, "near tie");
        check_eig(&a, "near tie");
    }
}

#[test]
fn band_0_mutant_fails_the_near_tie() {
    // A pivot rule without the band (argmax of the squares) picks row 1
    // where the `hypot` scan keeps row 0: its answers differ from the
    // reference, so `check_lu` above would reject it.
    let mut rng = Rng(6);
    let a = near_tie_matrix(8, &mut rng);
    let rhs: Vec<Vec<C64>> = (0..3)
        .map(|_| (0..8).map(|_| rng.complex()).collect())
        .collect();
    let hypot = reference_answers(&a, &rhs, Rule::Hypot);
    let mutant = reference_answers(&a, &rhs, Rule::AbsSq);
    assert!(
        !same_answers(&mutant, &hypot),
        "the band-0 mutant agrees with the hypot scan on the near tie"
    );
    assert!(same_answers(&lu_answers(&a, &rhs), &hypot));
}

#[test]
fn huge_tiny_and_subnormal_entries_take_the_fallback() {
    let mut rng = Rng(7);
    // Squares that overflow (1e200), underflow (1e-200), are subnormal
    // (1e-310) or sit at the edges of the trusted range (1e+-145).
    for scale in [1e200, 1e-200, 1e-310, 1e145, 1e-145, 1e-160] {
        for m in [1, 3, 9] {
            let a = Matrix::from_fn(m, m, |_, _| rng.complex().scale(scale));
            check_lu(&a, &mut rng, Rng::complex, &format!("scaled by {scale:e}"));
            let real = a.map(|z| z.re);
            check_lu(
                &real,
                &mut rng,
                Rng::unit,
                &format!("real, scaled by {scale:e}"),
            );
        }
        // One column scaled, the others ordinary.
        let mut a = Matrix::from_fn(7, 7, |_, _| rng.complex());
        for i in 0..7 {
            a[(i, 2)] = a[(i, 2)].scale(scale);
        }
        check_lu(
            &a,
            &mut rng,
            Rng::complex,
            &format!("one column by {scale:e}"),
        );
        if scale > 1e-300 {
            check_eig(&a, &format!("one column by {scale:e}"));
        }
    }
}

#[test]
fn nan_and_infinite_columns() {
    let mut rng = Rng(8);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for (row, col) in [(0, 0), (3, 0), (2, 4), (6, 6)] {
            let mut a = Matrix::from_fn(7, 7, |_, _| rng.complex());
            a[(row, col)] = C64::new(bad, 0.5);
            check_lu(
                &a,
                &mut rng,
                Rng::complex,
                &format!("{bad} at ({row}, {col})"),
            );
            let mut real = a.map(|z| z.re);
            real[(row, col)] = bad;
            check_lu(
                &real,
                &mut rng,
                Rng::unit,
                &format!("real {bad} at ({row}, {col})"),
            );
        }
        let mut col = Matrix::from_fn(5, 5, |_, _| rng.complex());
        for i in 0..5 {
            col[(i, 1)] = C64::new(0.0, bad);
        }
        check_lu(&col, &mut rng, Rng::complex, &format!("a column of {bad}"));
        // A non-finite entry in a pivot row over exact zeros below the
        // pivot: a zero multiplier skips its row, where `x - 0 * inf`
        // would have been a NaN.
        let mut skip = Matrix::from_fn(6, 6, |_, _| rng.complex());
        skip[(0, 0)] = C64::new(4.0, 0.0);
        skip[(0, 3)] = C64::new(bad, 1.0);
        for i in 2..6 {
            skip[(i, 0)] = C64::zero();
        }
        check_lu(
            &skip,
            &mut rng,
            Rng::complex,
            &format!("{bad} over skipped rows"),
        );
        check_lu(&skip.map(|z| z.re), &mut rng, Rng::unit, "real, same");
    }
}

#[test]
fn signed_zeros_keep_their_sign() {
    // `x - 0 * a` turns a `-0.0` at `x` into `+0.0` when the product is
    // `-0.0`: a row with a zero multiplier must be left alone, as it was.
    let mut rng = Rng(11);
    for m in [3, 8, 17] {
        let a = Matrix::from_fn(m, m, |_, _| match rng.unit() {
            u if u < -0.4 => C64::new(-0.0, -0.0),
            u if u < -0.2 => C64::new(-0.0, rng.unit()),
            _ => rng.complex(),
        });
        check_lu(&a, &mut rng, Rng::complex, "signed zeros");
        check_eig(&a, "signed zeros");
        check_lu(&a.map(|z| z.re), &mut rng, Rng::unit, "real signed zeros");
    }
}

/// A seeded upper-Hessenberg matrix.
fn hessenberg(n: usize, rng: &mut Rng) -> Matrix<C64> {
    Matrix::from_fn(n, n, |i, j| {
        if i <= j + 1 {
            rng.complex().scale(2.0)
        } else {
            C64::zero()
        }
    })
}

#[test]
fn hessenberg_extraction_keeps_the_two_candidate_rule() {
    let mut rng = Rng(9);
    let mut out = HessenbergEig::new();
    for m in ORDERS {
        let h = hessenberg(m, &mut rng);
        check_hessenberg(&h, m, &mut out, "random");
        let real = h.map(|z| C64::from_real(z.re));
        check_hessenberg(&real, m, &mut out, "real-valued");
    }
    // The leading block of an (m + 1) x m Arnoldi-shaped matrix.
    let tall = Matrix::from_fn(15, 14, |i, j| hessenberg(15, &mut Rng(10))[(i, j)]);
    check_hessenberg(&tall, 14, &mut out, "tall");
    // An exact-zero sub-diagonal entry, and a triangular matrix with a
    // repeated eigenvalue (singular `H - lambda I`, the ladder).
    let mut split = hessenberg(12, &mut rng);
    split[(5, 4)] = C64::zero();
    check_hessenberg(&split, 12, &mut out, "split");
    let mut tri = hessenberg(6, &mut rng);
    for i in 1..6 {
        tri[(i, i - 1)] = C64::zero();
    }
    tri[(4, 4)] = tri[(1, 1)];
    check_hessenberg(&tri, 6, &mut out, "ladder");
    // An exact tie between the two candidates of `H - mu I`'s first
    // column: `mu` is an eigenvalue of the trailing block, which a zero
    // sub-diagonal entry splits off (the leading block does not move it),
    // and `h[1][0]` is `i (h[0][0] - mu)`, of equal magnitude in either
    // order. The first row stays the pivot.
    for seed in 0..4 {
        let mut tie = hessenberg(5, &mut Rng(20 + seed));
        tie[(2, 1)] = C64::zero();
        let mu = eig_complex(&tie.submatrix(2, 5, 2, 5)).expect("finite block")[0];
        let top = tie[(0, 0)] - mu;
        tie[(1, 0)] = C64::new(-top.im, top.re);
        check_hessenberg(&tie, 5, &mut out, "tie at the shift");
    }
}
