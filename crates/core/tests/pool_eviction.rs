//! Eviction soundness: dropping the pool entries [`Scheduler::may_gather`]
//! disowns never changes what any gather returns.
//!
//! Random schedules drive a bare [`Scheduler`] the way the sweep driver
//! does — several shifts in flight, completed out of order with radii from
//! 0.05x to 3x `rho0` and nudged centres, some cancelled or quarantined,
//! some gathering a second time while still in flight (the block driver's
//! retry path) — and donate a one-pair synthetic entry per completion to
//! two pools: one evicted after every completion exactly as
//! `SweepShare::record` does, one never evicted. Every pull and every
//! re-gather must read identical lists from both.
//!
//! The donated eigenvalue sits at the donor disk's centre, so a pair is
//! returned exactly when its entry is in reach: a window that is too
//! narrow anywhere shows as a missing candidate. Part of the completions
//! snap a disk edge to within a few `min_piece` of an interval edge, which
//! is what breeds the sub-resolution slivers whose `rho0` floor the
//! `min_piece` slack exists for. (Checked by hand against three mutants of
//! `may_gather`, each of which fails here: half-width instead of far-edge
//! reach, no `min_piece` slack, no `GATHER_FACTOR`.)

use pheig_arnoldi::{ConvergedEigenpair, RecyclePool, SingleShiftOutcome};
use pheig_core::scheduler::{Scheduler, ShiftTask, GATHER_FACTOR};
use pheig_linalg::C64;
use proptest::prelude::*;
use std::sync::Arc;

/// A completed shift donating one eigenpair at its disk centre.
fn donation(center: f64, radius: f64) -> SingleShiftOutcome {
    let lambda = C64::from_imag(center);
    SingleShiftOutcome {
        theta: lambda,
        radius,
        in_disk: vec![ConvergedEigenpair {
            lambda,
            vector: Arc::from([C64::one()]),
            error_estimate: 0.0,
        }],
        all_converged: vec![lambda],
        matvecs: 1,
        restarts: 0,
        warm_candidates: 0,
        warm_pre_locked: 0,
        refine_dim: 1,
    }
}

/// What `gather_warm` would hand `task`, uncapped, as eigenvalue bits.
fn gathered(pool: &RecyclePool, task: &ShiftTask) -> Vec<u64> {
    pool.gather(
        C64::from_imag(task.omega),
        task.rho0 * GATHER_FACTOR,
        usize::MAX,
    )
    .iter()
    .map(|p| p.lambda.im.to_bits())
    .collect()
}

/// One random schedule; `Err` names the first gather that differed.
fn drive(seed: u64, alpha: f64, n_intervals: usize) -> Result<(), TestCaseError> {
    let mut rng = TestRng::from_seed(seed);
    // A long band keeps `gather`'s relative eigenvalue dedupe (1e-8) finer
    // than `min_piece` (1e-9 of the band) near the band's lower end, so
    // sliver-scale donors stay distinguishable there.
    let len = [1.0, 10.0, 1e3, 1e6, 1e9][rng.usize_inclusive(0, 4)];
    let min_piece = len * 1e-9;
    let mut sched = Scheduler::new((0.0, len), n_intervals, alpha);
    if rng.usize_inclusive(0, 7) == 0 {
        sched.set_delete_covered(false);
    }
    let width = rng.usize_inclusive(1, 4);
    let (mut evicting, mut full) = (RecyclePool::new(), RecyclePool::new());
    let mut flying: Vec<ShiftTask> = Vec::new();
    let mut ended_on_completion = false;
    for step in 0..300 {
        while flying.len() < width && rng.usize_inclusive(0, 3) > 0 {
            let Some(task) = sched.next_shift() else {
                break;
            };
            prop_assert_eq!(gathered(&evicting, &task), gathered(&full, &task));
            flying.push(task);
        }
        if flying.is_empty() {
            if sched.is_done() {
                break;
            }
            continue;
        }
        let task = flying.swap_remove(rng.usize_inclusive(0, flying.len() - 1));
        ended_on_completion = false;
        match rng.usize_inclusive(0, 19) {
            0 | 1 => {
                // Still in flight: the block driver's retry gathers again.
                prop_assert!(
                    gathered(&evicting, &task) == gathered(&full, &task),
                    "re-gather at step {step} of seed {seed} differs for {task:?}"
                );
                flying.push(task);
            }
            2 => sched.cancel(&task),
            3 => sched.quarantine(&task),
            roll => {
                let center = match roll % 4 {
                    0 => {
                        let k = rng.usize_inclusive(1, 3) as f64;
                        let sign = if rng.usize_inclusive(0, 1) == 0 {
                            -1.0
                        } else {
                            1.0
                        };
                        (task.omega + sign * 0.017 * k * task.rho0).max(0.0)
                    }
                    1 => (task.omega + (-3.0..3.0).generate(&mut rng) * min_piece).max(0.0),
                    _ => task.omega,
                };
                let snapped = if roll >= 12 {
                    let edge = if rng.usize_inclusive(0, 1) == 0 {
                        task.interval.0
                    } else {
                        task.interval.1
                    };
                    (edge + (-4.0..4.0).generate(&mut rng) * min_piece - center).abs()
                } else {
                    0.0
                };
                let radius = if snapped > 1e-3 * min_piece {
                    snapped
                } else {
                    // Log-uniform in [0.05, 3] rho0.
                    task.rho0 * 0.05 * 60f64.powf(rng.unit_f64())
                };
                sched.complete(&task, center, radius);
                for pool in [&mut evicting, &mut full] {
                    pool.record(center, &donation(center, radius));
                }
                evicting.evict(|lo, hi| sched.may_gather(lo, hi));
                ended_on_completion = true;
            }
        }
        prop_assert!(sched.coverage_invariant_holds());
    }
    prop_assert_eq!(full.len(), full.donors());
    prop_assert_eq!(evicting.donors(), full.donors());
    if sched.is_done() && ended_on_completion {
        prop_assert!(
            evicting.is_empty(),
            "seed {seed}: {} entries outlived the last shift",
            evicting.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12_000))]

    #[test]
    fn eviction_never_changes_a_gather(
        seed in 0u64..u64::MAX,
        alpha in 1.0f64..2.0,
        n_intervals in 2usize..9,
    ) {
        drive(seed, alpha, n_intervals)?;
    }
}
