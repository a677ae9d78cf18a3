//! Stress pins for the blocked CGS2 orthogonalization.
//!
//! Two guarantees ride on the orthogonalization rewrite:
//!
//! 1. **Orthogonality under clustering.** Element-wise MGS with a single
//!    pass loses orthogonality like the square of the basis condition
//!    number; clustered spectra are the classic trigger. CGS2's second
//!    pass restores orthonormality to a small multiple of machine epsilon
//!    regardless — pinned here on spectra with clusters as tight as 1e-9.
//! 2. **Same factorization as MGS.** In exact arithmetic CGS2 and MGS
//!    produce the identical Krylov factorization (same basis, same
//!    Hessenberg matrix) — the orthogonalization order is an
//!    implementation detail, not a semantic choice. Pinned by comparing
//!    against a local reference MGS on the same operator and start.

mod common;

use common::row;
use pheig_arnoldi::krylov::{arnoldi_into, ArnoldiFactorization};
use pheig_hamiltonian::CLinearOp;
use pheig_linalg::vector::{axpy, dot, normalize, nrm2};
use pheig_linalg::{Matrix, C64};

fn rand_start(n: usize, seed: u64) -> Vec<C64> {
    (0..n)
        .map(|i| {
            let t = (i as f64 + 1.0) * (seed as f64 + 1.7);
            C64::new((t * 0.9).sin(), (t * 0.53).cos())
        })
        .collect()
}

/// A diagonal operator with `clusters` groups of `width` eigenvalues
/// separated by `gap` within each group — the spectrum shape that breaks
/// one-pass Gram-Schmidt.
fn clustered_diag(clusters: usize, width: usize, gap: f64) -> Matrix<C64> {
    let d: Vec<C64> = (0..clusters)
        .flat_map(|c| {
            (0..width).map(move |k| C64::new(1.0 + c as f64 + k as f64 * gap, c as f64 * 0.1))
        })
        .collect();
    Matrix::from_diag(&d)
}

/// Reference element-wise MGS Arnoldi (the pre-CGS2 algorithm, kept here
/// as the equivalence oracle).
fn mgs_arnoldi(
    op: &dyn CLinearOp,
    start: &[C64],
    max_steps: usize,
) -> (Vec<Vec<C64>>, Matrix<C64>) {
    let mut basis: Vec<Vec<C64>> = Vec::new();
    let mut h = Matrix::zeros(max_steps + 1, max_steps);
    let mut v0 = start.to_vec();
    normalize(&mut v0);
    basis.push(v0);
    for j in 0..max_steps {
        let mut w = op.apply(&basis[j]);
        let before = nrm2(&w);
        for (i, v) in basis.iter().enumerate() {
            let c = dot(v, &w);
            axpy(-c, v, &mut w);
            h[(i, j)] += c;
        }
        // Unconditional re-orthogonalization: the fair oracle for CGS2.
        for (i, v) in basis.iter().enumerate() {
            let c = dot(v, &w);
            axpy(-c, v, &mut w);
            h[(i, j)] += c;
        }
        let beta = nrm2(&w);
        h[(j + 1, j)] = C64::from_real(beta);
        if beta <= 1e-14 * before.max(1.0) {
            break;
        }
        let inv = C64::from_real(1.0 / beta);
        for x in w.iter_mut() {
            *x *= inv;
        }
        basis.push(w);
    }
    (basis, h)
}

fn max_gram_deviation(fact: &ArnoldiFactorization) -> f64 {
    let mut worst = 0.0f64;
    let basis: Vec<Vec<C64>> = (0..fact.basis_split().rows())
        .map(|r| row(fact, r))
        .collect();
    for (i, vi) in basis.iter().enumerate() {
        for (j, vj) in basis.iter().enumerate() {
            let g = dot(vi, vj);
            let want = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((g - C64::from_real(want)).abs());
        }
    }
    worst
}

#[test]
fn clustered_spectrum_stays_orthonormal() {
    // Tighter and tighter clusters; orthonormality must not degrade.
    for &gap in &[1e-3, 1e-6, 1e-9] {
        let op = clustered_diag(6, 4, gap);
        let mut fact = ArnoldiFactorization::empty();
        arnoldi_into(&op, &rand_start(24, 3), &[], 20, &mut fact);
        assert_eq!(fact.steps, 20);
        let dev = max_gram_deviation(&fact);
        assert!(dev < 1e-12, "gap={gap:e}: gram deviation {dev:e}");
    }
}

#[test]
fn clustered_spectrum_with_deflation_stays_orthonormal() {
    // Lock a few directions; the deflated recursion must stay orthonormal
    // against both the basis and the locked set.
    let n = 24;
    let op = clustered_diag(6, 4, 1e-8);
    let mut locked = Vec::new();
    for k in 0..3 {
        let mut e = vec![C64::zero(); n];
        e[k] = C64::one();
        locked.push(e);
    }
    let mut fact = ArnoldiFactorization::empty();
    arnoldi_into(&op, &rand_start(n, 5), &locked, 15, &mut fact);
    assert!(max_gram_deviation(&fact) < 1e-12);
    for q in &locked {
        for r in 0..fact.basis_split().rows() {
            let g = dot(q, &row(&fact, r)).abs();
            assert!(g < 1e-12, "locked leakage {g:e}");
        }
    }
}

#[test]
fn cgs2_matches_mgs_factorization_on_clustered_spectrum() {
    let op = clustered_diag(5, 3, 1e-7);
    let n = 15;
    let steps = 10;
    let start = rand_start(n, 11);
    let mut fact = ArnoldiFactorization::empty();
    arnoldi_into(&op, &start, &[], steps, &mut fact);
    let (basis_ref, h_ref) = mgs_arnoldi(&op, &start, steps);
    assert_eq!(fact.steps, steps);
    assert_eq!(basis_ref.len(), steps + 1);
    // Same Krylov recurrence: identical H (up to round-off amplified by
    // the cluster conditioning) ...
    let h_scale = (0..steps)
        .map(|j| fact.h[(j, j)].abs())
        .fold(1.0f64, f64::max);
    for j in 0..steps {
        for i in 0..=(j + 1) {
            let d = (fact.h[(i, j)] - h_ref[(i, j)]).abs();
            assert!(d < 1e-8 * h_scale, "H({i},{j}) differs by {d:e}");
        }
    }
    // ... and the same basis vectors (the normalized residual of each
    // step is unique, beta > 0 fixing the phase).
    for (k, v_ref) in basis_ref.iter().enumerate() {
        let mut d = 0.0f64;
        for (got, want) in row(&fact, k).iter().zip(v_ref.iter()).take(n) {
            d = d.max((*got - *want).abs());
        }
        assert!(d < 1e-7, "basis vector {k} differs by {d:e}");
    }
}
