//! Pins what a sweep holds while it runs: its working set — the recycle
//! pool's live pairs, the on-axis pairs kept for the result, the shifts in
//! flight — not every eigenvector it ever converged.
//!
//! A live-bytes tracking allocator (`common`) measures the sweep's peak
//! above its starting point. Whatever is still allocated after the result
//! is dropped is workspace (Krylov bases grown to their high-water marks,
//! the executor's pooled scratch): it is pinned on its own — one basis
//! per lane plus a little — and then subtracted, so the remainder is the
//! vectors: each is `2n` complex numbers, `32 n` bytes. Before
//! eviction that remainder was every converged pair held twice
//! (`2 * pairs_converged`: 526 vectors on this model at T = 1, against a
//! bound of 220).
//!
//! One test per file: a concurrently running test would pollute the
//! counters.

mod common;

use pheig_core::solver::{find_imaginary_eigenvalues_with, SolverOptions, SolverWorkspace};
use pheig_linalg::vector::nrm2;
use pheig_model::generator::{generate_case, CaseSpec};

#[test]
fn sweep_peak_memory_is_its_working_set() {
    let ss = generate_case(
        &CaseSpec::new(160, 4)
            .with_seed(77)
            .with_target_crossings(16),
    )
    .unwrap()
    .realize();
    let n = ss.order();
    let vector_bytes = 32 * n;
    for threads in [1usize, 2] {
        let opts = SolverOptions::default().with_threads(threads);
        let mut ws = SolverWorkspace::new();
        let base = common::live_bytes();
        common::reset_peak();
        let out = find_imaginary_eigenvalues_with(&ss, &opts, &mut ws).unwrap();
        let peak = common::peak_bytes() - base;
        let stats = out.stats.clone();
        let crossings = out.eigenpairs.len();

        // The result still carries what enforcement reads: unit-norm
        // eigenvectors it can split into the two n-halves.
        assert!(crossings >= 8, "T={threads}: the model should cross");
        for e in &out.eigenpairs {
            assert_eq!(e.vector.len(), 2 * n);
            let (x1, x2) = e.vector.split_at(n);
            assert_eq!((x1.len(), x2.len()), (n, n));
            assert!((nrm2(&e.vector) - 1.0).abs() < 1e-10);
        }
        drop(out);
        let workspace = common::live_bytes().saturating_sub(base);

        // Workspace: every lane of every cohort member keeps one Krylov
        // basis (`max_subspace + 1` vectors) at its high-water mark, plus
        // the locked set, `h` / `hl`, the plane scratch and the operator
        // scratch. This model measures 1.99 bases per lane at T = 1 and
        // 1.69 at T = 2; with the basis stored twice (interleaved and
        // split) it was 2.97 and 2.30.
        let one_basis_per_lane =
            threads * opts.block_size * (opts.arnoldi.max_subspace + 1) * vector_bytes;
        assert!(
            workspace as f64 <= 2.2 * one_basis_per_lane as f64,
            "T={threads}: {workspace} B of workspace outlive the sweep, {:.2}x one basis per \
             lane ({one_basis_per_lane} B; bound 2.2x, measured 2,485,356 B = 1.99x at T = 1 \
             and 4,231,193 B = 1.69x at T = 2)",
            workspace as f64 / one_basis_per_lane as f64
        );

        // Working set, in vectors: the pool at its fullest, the on-axis
        // pairs kept per completion (a crossing is usually found from two
        // overlapping disks), and per lane in flight the locked images plus
        // the refined pairs of the shift being finished. About 1.5x what
        // this model measures (152 vectors at T = 1, up to 240 at T = 2).
        let in_flight = threads * opts.block_size * 2 * (opts.arnoldi.n_eigs + 7);
        let bound = stats.pool_peak_pairs + 2 * crossings + in_flight;
        let held = peak.saturating_sub(workspace) as f64 / vector_bytes as f64;
        eprintln!(
            "T={threads}: held {held:.1} vectors (bound {bound}), workspace {workspace} B, \
             {} pairs converged, pool peak {}, {} entries evicted",
            stats.pairs_converged, stats.pool_peak_pairs, stats.pool_evicted_entries
        );
        assert!(
            held <= bound as f64,
            "T={threads}: the sweep held {held:.1} vectors at its peak, bound {bound} \
             (pool peak {}, {crossings} crossings)",
            stats.pool_peak_pairs
        );
        // ... and the bound is far below every converged pair held twice.
        assert!(stats.pairs_converged >= 200);
        assert!(bound < 2 * stats.pairs_converged);
        assert!(stats.pool_peak_pairs > 0 && stats.pool_peak_pairs < stats.pairs_converged / 2);
        assert!(stats.pool_evicted_entries > 0);
        assert!(stats.pool_evicted_entries <= stats.scheduler.processed);
    }
}
