//! Krylov recycling across the shifts of one characterization sweep.
//!
//! Every eigenvector of the Hamiltonian `M` is an eigenvector of *every*
//! shift-inverted operator `(M - theta I)^{-1}` — eigenvectors are
//! shift-invariant, only the eigenvalues move (`mu = 1/(lambda - theta)`).
//! So the converged Ritz vectors of a completed disk are exact warm-start
//! candidates for any nearby shift: validating one costs a *single*
//! operator application (`w = Op v`, `mu = <v, w>`, residual `||w - mu v||`)
//! instead of the tens of matvecs a cold Arnoldi build spends
//! rediscovering the same eigenpair.
//!
//! [`RecyclePool`] stores the locked eigenpairs of completed shifts and
//! [`RecyclePool::gather`] hands the nearest candidates to the next shift
//! in a deterministic, distance-sorted order.
//!
//! **What the pool holds.** A pool never outlives a sweep (the enforcement
//! driver perturbs the model between sweeps), and within one it holds only
//! what a shift can still read: after every completion the sweep driver
//! [`RecyclePool::evict`]s each entry whose disk meets no gather window of
//! the scheduler, which never changes what a `gather` returns. Vectors are
//! not copied: an entry, every gathered list and the donating outcome
//! share one `Arc<[C64]>` block per eigenvector.

use crate::single_shift::SingleShiftOutcome;
use pheig_linalg::C64;
use std::sync::Arc;

/// A converged eigenpair donated by a completed shift.
#[derive(Debug, Clone)]
pub struct RecycledPair {
    /// Hamiltonian eigenvalue `lambda`.
    pub lambda: C64,
    /// Unit-norm eigenvector in the original `C^{2n}` space (shared with
    /// the donating shift's outcome, not copied).
    pub vector: Arc<[C64]>,
}

#[derive(Debug, Clone)]
struct PoolEntry {
    omega: f64,
    radius: f64,
    pairs: Vec<RecycledPair>,
}

/// Per-sweep store of converged eigenpairs, keyed by the donating shift.
///
/// Mirror completeness: pool entries come from `in_disk` sets whose radius
/// certificate enforced the Hamiltonian mirror guard, so shells arrive
/// with both `lambda` and `-conj(lambda)`; both mirrors sit at the same
/// distance from any shift on the imaginary axis, so a distance-sorted
/// gather keeps pairs together (and an even cap never splits one).
#[derive(Debug, Clone, Default)]
pub struct RecyclePool {
    entries: Vec<PoolEntry>,
}

impl RecyclePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all entries (call at the start of each sweep: eigenpairs do
    /// not survive the enforcement driver's model perturbations).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of donating shifts whose entry is still held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total eigenpairs currently stored.
    pub fn pairs(&self) -> usize {
        self.entries.iter().map(|e| e.pairs.len()).sum()
    }

    /// Records the converged in-disk eigenpairs of a completed shift.
    pub fn record(&mut self, omega: f64, out: &SingleShiftOutcome) {
        if out.in_disk.is_empty() {
            return;
        }
        self.entries.push(PoolEntry {
            omega,
            radius: out.radius,
            pairs: out
                .in_disk
                .iter()
                .map(|e| RecycledPair {
                    lambda: e.lambda,
                    vector: e.vector.clone(),
                })
                .collect(),
        });
    }

    /// Drops every entry whose donor disk `[omega - radius, omega +
    /// radius]` fails `readable(lo, hi)` — "can a pending or future shift
    /// gather from it?" — and returns how many were dropped.
    pub fn evict(&mut self, mut readable: impl FnMut(f64, f64) -> bool) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|e| readable(e.omega - e.radius, e.omega + e.radius));
        before - self.entries.len()
    }

    /// Gathers warm-start candidates for a new shift `theta`: eigenpairs
    /// within `reach` of `theta` donated by disks overlapping that reach,
    /// deduplicated, sorted by distance from `theta` (ties broken by
    /// eigenvalue for determinism), truncated to `cap`.
    pub fn gather(&self, theta: C64, reach: f64, cap: usize) -> Vec<RecycledPair> {
        let mut out: Vec<(f64, &RecycledPair)> = Vec::new();
        for e in &self.entries {
            if (e.omega - theta.im).abs() > e.radius + reach {
                continue;
            }
            for p in &e.pairs {
                let d = (p.lambda - theta).abs();
                // A donor's own certified extent counts toward proximity:
                // an adjacent disk donates its whole in-disk set (recycled
                // eigenvectors are exact for *every* shift, and far pairs
                // still fill the collect target / cap the certificate).
                // A non-finite distance (a poisoned eigenvalue) is skipped.
                if !d.is_finite() || d > reach + e.radius {
                    continue;
                }
                // Overlapping donor disks can contribute the same
                // eigenvalue twice; one candidate per eigenvalue is enough
                // (the warm validator would reject the duplicate anyway,
                // at the cost of a wasted matvec).
                if out
                    .iter()
                    .any(|(_, q)| (q.lambda - p.lambda).abs() <= 1e-8 * (1.0 + p.lambda.abs()))
                {
                    continue;
                }
                out.push((d, p));
            }
        }
        out.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.lambda.im.total_cmp(&b.1.lambda.im))
                .then(a.1.lambda.re.total_cmp(&b.1.lambda.re))
        });
        // Only the survivors are cloned, and a clone is a reference count.
        out.iter().take(cap).map(|&(_, p)| p.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_shift::ConvergedEigenpair;

    fn outcome(theta_im: f64, radius: f64, lambdas: &[C64]) -> SingleShiftOutcome {
        SingleShiftOutcome {
            theta: C64::from_imag(theta_im),
            radius,
            in_disk: lambdas
                .iter()
                .map(|&l| ConvergedEigenpair {
                    lambda: l,
                    vector: Arc::from([C64::one()]),
                    error_estimate: 1e-12,
                })
                .collect(),
            all_converged: lambdas.to_vec(),
            matvecs: 10,
            restarts: 1,
            warm_candidates: 0,
            warm_pre_locked: 0,
            refine_dim: lambdas.len(),
        }
    }

    #[test]
    fn gather_sorts_by_distance_and_caps() {
        let mut pool = RecyclePool::new();
        let l1 = C64::new(-0.1, 1.0);
        let l2 = C64::new(-0.1, 2.0);
        let l3 = C64::new(-0.1, 5.0);
        pool.record(1.5, &outcome(1.5, 1.0, &[l1, l2]));
        pool.record(5.0, &outcome(5.0, 0.7, &[l3]));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.pairs(), 3);
        let got = pool.gather(C64::from_imag(2.2), 2.0, 8);
        // l2 (dist ~0.22) before l1 (dist ~1.2); l3 out of reach.
        assert_eq!(got.len(), 2);
        assert!((got[0].lambda - l2).abs() < 1e-12);
        assert!((got[1].lambda - l1).abs() < 1e-12);
        let capped = pool.gather(C64::from_imag(2.2), 2.0, 1);
        assert_eq!(capped.len(), 1);
    }

    #[test]
    fn gather_dedupes_overlapping_donors() {
        let mut pool = RecyclePool::new();
        let l = C64::new(-0.2, 3.0);
        pool.record(2.8, &outcome(2.8, 0.5, &[l]));
        pool.record(3.2, &outcome(3.2, 0.5, &[l]));
        let got = pool.gather(C64::from_imag(3.0), 1.0, 8);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn nan_eigenvalue_is_neither_sorted_nor_returned() {
        let mut pool = RecyclePool::new();
        let good = C64::new(-0.1, 2.0);
        pool.record(
            2.0,
            &outcome(
                2.0,
                1.0,
                &[C64::new(f64::NAN, 2.0), good, C64::new(0.0, f64::NAN)],
            ),
        );
        let got = pool.gather(C64::from_imag(2.2), 2.0, 8);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].lambda, good);
        assert!(pool.gather(C64::from_imag(f64::NAN), 2.0, 8).is_empty());
    }

    #[test]
    fn evict_drops_unreadable_entries() {
        let mut pool = RecyclePool::new();
        let (l1, l2, l3) = (
            C64::from_imag(1.0),
            C64::from_imag(1.2),
            C64::from_imag(5.0),
        );
        pool.record(1.0, &outcome(1.0, 0.5, &[l1, l2]));
        pool.record(5.0, &outcome(5.0, 0.5, &[l3]));
        pool.record(9.0, &outcome(9.0, 0.5, &[])); // nothing to donate
        assert_eq!((pool.len(), pool.pairs()), (2, 3));
        // Only disks reaching past omega = 4 stay readable.
        let mut seen = Vec::new();
        let dropped = pool.evict(|lo, hi| {
            seen.push((lo, hi));
            hi >= 4.0
        });
        assert_eq!(seen, vec![(0.5, 1.5), (4.5, 5.5)]);
        assert_eq!(dropped, 1);
        assert_eq!((pool.len(), pool.pairs()), (1, 1));
        let got = pool.gather(C64::from_imag(3.0), 10.0, 8);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].lambda, l3);
        assert_eq!(pool.evict(|_, _| false), 1);
        assert!(pool.is_empty());
    }

    #[test]
    fn gathered_pairs_share_the_donated_vector() {
        let mut pool = RecyclePool::new();
        let donor = outcome(1.0, 1.0, &[C64::from_imag(1.0)]);
        pool.record(1.0, &donor);
        let got = pool.gather(C64::from_imag(1.0), 1.0, 8);
        assert!(Arc::ptr_eq(&got[0].vector, &donor.in_disk[0].vector));
    }

    #[test]
    fn clear_empties_the_pool() {
        let mut pool = RecyclePool::new();
        pool.record(1.0, &outcome(1.0, 1.0, &[C64::from_imag(1.0)]));
        assert!(!pool.is_empty());
        pool.clear();
        assert!(pool.is_empty());
        assert!(pool.gather(C64::from_imag(1.0), 10.0, 8).is_empty());
    }
}
