//! Shared by the integration tests: the basis is stored split-complex
//! only, and the reference chains here are interleaved.

use pheig_arnoldi::krylov::ArnoldiFactorization;
use pheig_linalg::C64;

/// Basis vector `v_r` of `fact`, interleaved.
pub fn row(fact: &ArnoldiFactorization, r: usize) -> Vec<C64> {
    let (re, im) = fact.basis_split().row(r);
    re.iter().zip(im).map(|(&a, &b)| C64::new(a, b)).collect()
}
