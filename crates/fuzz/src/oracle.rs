//! The dense `O(n^3)` differential oracle, shared by the fuzz harness and
//! the root `oracle_validation` integration tests.
//!
//! The key correctness claim of the reproduction is that the fast
//! multi-shift solver finds *exactly* the purely imaginary Hamiltonian
//! spectrum the dense baseline finds. Every differential check routes
//! through this one implementation so the fuzz harness, the regression
//! replays, and the hand-written validation tests cannot drift apart.

use pheig_core::solver::{find_imaginary_eigenvalues, Certificate, ShiftRecord, SolverOptions};
use pheig_hamiltonian::build::dense_hamiltonian;
use pheig_linalg::eig::eig_real;
use pheig_model::generator::{generate_case, CaseSpec};
use pheig_model::StateSpace;

/// Relative threshold under which a dense eigenvalue's real part counts as
/// zero (scaled by the Hamiltonian's largest entry).
pub const IMAG_AXIS_TOL: f64 = 1e-8;

/// Positive imaginary parts of the purely imaginary eigenvalues of the
/// dense Hamiltonian of `ss`, sorted ascending.
///
/// # Errors
///
/// Returns a rendered message when the dense Hamiltonian cannot be built
/// or its eigensolution fails (the fuzz harness reports rather than
/// panics).
pub fn try_oracle_crossings(ss: &StateSpace) -> Result<Vec<f64>, String> {
    let m = dense_hamiltonian(ss).map_err(|e| format!("dense Hamiltonian failed: {e}"))?;
    let scale = m.max_abs();
    let mut out: Vec<f64> = eig_real(&m)
        .map_err(|e| format!("dense eigensolver failed: {e}"))?
        .into_iter()
        .filter(|z| z.re.abs() <= IMAG_AXIS_TOL * scale && z.im > 0.0)
        .map(|z| z.im)
        .collect();
    out.sort_by(|a, b| a.partial_cmp(b).expect("imaginary parts are finite"));
    Ok(out)
}

/// Panicking variant of [`try_oracle_crossings`] for assert-style tests.
pub fn oracle_crossings(ss: &StateSpace) -> Vec<f64> {
    try_oracle_crossings(ss).expect("dense oracle failed")
}

/// Collapses sorted values closer than `tol` to one representative: a
/// tangent (double) crossing is numerically a pair separated by rounding
/// noise, and whether a solver reports it once or twice is below the
/// comparison's resolution by construction.
fn dedup_within(xs: &[f64], tol: f64) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::with_capacity(xs.len());
    for &x in xs {
        if out.last().is_none_or(|&last| x - last > tol) {
            out.push(x);
        }
    }
    out
}

/// Checks that `got` and `want` agree as crossing sets at resolution
/// `tol` (absolute, rad/s): both sides are first collapsed at `tol`
/// spacing (tangent pairs count once), then compared by count and
/// pairwise distance.
///
/// # Errors
///
/// Returns a rendered description of the first disagreement.
pub fn match_crossings(raw_got: &[f64], raw_want: &[f64], tol: f64) -> Result<(), String> {
    let got = dedup_within(raw_got, tol);
    let want = dedup_within(raw_want, tol);
    if got.len() != want.len() {
        return Err(format!(
            "crossing count mismatch: solver found {} {got:?}, oracle found {} {want:?}",
            got.len(),
            want.len()
        ));
    }
    for (g, w) in got.iter().zip(&want) {
        if (g - w).abs() >= tol {
            return Err(format!(
                "crossing {g} vs oracle {w} differs by {} (tol {tol})",
                (g - w).abs()
            ));
        }
    }
    Ok(())
}

/// Checks a sweep's coverage claim. Under [`Certificate::Disks`] that is
/// the scheduler's termination guarantee: the certified disks of the shift
/// log must cover the whole search band. A [`Certificate::DenseWholeBand`]
/// solve computed every eigenvalue, so it covers the band with no disk.
///
/// # Errors
///
/// Returns a rendered message naming the first uncovered frequency.
pub fn disks_cover_band(
    certificate: Certificate,
    shift_log: &[ShiftRecord],
    band: (f64, f64),
) -> Result<(), String> {
    if certificate == Certificate::DenseWholeBand {
        return Ok(());
    }
    let mut disks: Vec<(f64, f64)> = shift_log
        .iter()
        .map(|r| (r.omega - r.radius, r.omega + r.radius))
        .collect();
    disks.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite disk edges"));
    let mut covered_up_to = band.0;
    for (lo, hi) in disks {
        if lo <= covered_up_to + 1e-9 * band.1 {
            covered_up_to = covered_up_to.max(hi);
        }
    }
    if covered_up_to >= band.1 * (1.0 - 1e-9) {
        Ok(())
    } else {
        Err(format!(
            "certified disks cover only up to {covered_up_to} of the band [{}, {}]",
            band.0, band.1
        ))
    }
}

/// Runs the multi-shift solver on `(seed, order, ports, target)` generated
/// cases and asserts each crossing set matches the dense oracle — the
/// assert-style entry the `oracle_validation` tests use. The sweep always
/// iterates (`dense_max = 0`): the dense path would compare the oracle's
/// own eigensolve with itself.
///
/// # Panics
///
/// Panics (with the offending seed) on any solver/oracle disagreement.
pub fn assert_solver_matches_oracle(cases: &[(u64, usize, usize, usize)]) {
    for &(seed, n, p, target) in cases {
        let spec = CaseSpec::new(n, p)
            .with_seed(seed)
            .with_target_crossings(target);
        let ss = generate_case(&spec).unwrap().realize();
        let want = oracle_crossings(&ss);
        let opts = SolverOptions::default().with_dense_max(0);
        let out = find_imaginary_eigenvalues(&ss, &opts).unwrap();
        assert_eq!(
            out.frequencies.len(),
            want.len(),
            "seed {seed}: solver {:?} vs oracle {:?}",
            out.frequencies,
            want
        );
        for (g, w) in out.frequencies.iter().zip(&want) {
            assert!(
                (g - w).abs() < 1e-5 * out.band.1,
                "seed {seed}: crossing {g} vs oracle {w}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_crossings_reports_disagreements() {
        assert!(match_crossings(&[1.0, 2.0], &[1.0, 2.0], 1e-9).is_ok());
        assert!(match_crossings(&[1.0], &[1.0, 2.0], 1e-9)
            .unwrap_err()
            .contains("count mismatch"));
        assert!(match_crossings(&[1.0, 2.5], &[1.0, 2.0], 1e-3)
            .unwrap_err()
            .contains("differs"));
        // A tangent pair (two crossings within tol) counts as one.
        assert!(match_crossings(&[1.0], &[1.0 - 1e-13, 1.0 + 1e-13], 1e-5).is_ok());
    }

    #[test]
    fn oracle_agrees_with_solver_on_a_small_case() {
        assert_solver_matches_oracle(&[(1u64, 20, 2, 2)]);
    }
}
