//! Deterministic virtual-time replay of the parallel sweep.
//!
//! **Why this exists.** The paper measures speedups on a 16-core Opteron
//! blade. On hosts with fewer cores, wall-clock speedup physically cannot
//! appear, so this module drives the sweep's own per-pull body —
//! `SweepShare`'s pull -> execute -> commit, with its recycle pool,
//! degradation ladder, quarantine and fault plan — with `T` *virtual*
//! members under a discrete-event clock instead of the executor's
//! threads. A member that goes idle pulls a shift and executes it at once
//! (serially, on the host); the shift's commit is an event at `clock +
//! cost`, where the cost is `solver::cost_units` (`matvecs + 3 *
//! restarts + ceil(refine_dim / 2)` — operator applications dominate the
//! real cost, the per-restart surcharge covers the projected eigensolves, and
//! the last term the Rayleigh–Ritz refinement, which applies no operator
//! but still solves a dense problem of the locked dimension). A
//! quarantined shift costs 0 units, as it adds nothing to `total_matvecs`.
//! The simulated makespan then plays the role of the parallel wall time:
//!
//! ```text
//! speedup(T) = serial_total_cost / makespan(T)
//! ```
//!
//! Scheduling *decisions* (which tentative shifts get deleted, where
//! intervals split, which warm candidates a shift gathers) depend on
//! completion order, so the simulation reproduces the paper's
//! superlinear-speedup mechanism — including its dependence on the number
//! of threads and on the random Arnoldi start vectors (vary `opts.seed`
//! to reproduce Fig. 6 error bars). At `T = 1` the event order is the
//! driver's, so the simulator replays `find_imaginary_eigenvalues` shift
//! for shift. It always sweeps (`dense_max` does not apply), and a
//! `panic_task` fault, which fires at an executor member's pull boundary,
//! never fires here.

use crate::error::SolverError;
use crate::solver::{cost_units, ShiftRecord, SolverOptions, SolverStats, SweepShare};
use pheig_arnoldi::ArnoldiWorkspace;
use pheig_model::StateSpace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Scheduling flavor for the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleMode {
    /// The paper's dynamic scheduler (tentative shifts covered by other
    /// disks are deleted).
    Dynamic,
    /// Static pre-distributed grid of `n_shifts` shifts, no dynamic
    /// deletion — the strawman of Sec. IV used as an ablation baseline.
    StaticGrid {
        /// Number of pre-distributed shifts.
        n_shifts: usize,
    },
}

/// Result of a virtual-time run.
#[derive(Debug, Clone)]
pub struct SimulatedRun {
    /// Virtual workers used.
    pub threads: usize,
    /// Virtual-clock completion time (work units).
    pub makespan: u64,
    /// Total work executed in this run (work units). Differs across thread
    /// counts because the scheduling decisions differ.
    pub total_cost: u64,
    /// Crossing frequencies found (must agree with the real solver).
    pub frequencies: Vec<f64>,
    /// Fraction of the band certified disks cover: below 1 when shifts
    /// were quarantined, so such a run reads as partial.
    pub covered_fraction: f64,
    /// Per-shift telemetry, ordered as the driver's `shift_log`.
    pub shift_log: Vec<ShiftRecord>,
    /// Aggregate statistics, as the driver's.
    pub stats: SolverStats,
}

impl SimulatedRun {
    /// Speedup of this run against a reference serial cost.
    pub fn speedup_vs(&self, serial_total_cost: u64) -> f64 {
        serial_total_cost as f64 / self.makespan.max(1) as f64
    }
}

/// Simulates a `threads`-worker run of the multi-shift solver.
///
/// All single-shift iterations are executed for real (serially); only the
/// clock is virtual. Fully deterministic for a given `(opts.seed, threads,
/// mode)` triple.
///
/// # Errors
///
/// Same failure modes as [`crate::solver::find_imaginary_eigenvalues`].
pub fn simulate_parallel(
    ss: &StateSpace,
    threads: usize,
    opts: &SolverOptions,
    mode: ScheduleMode,
) -> Result<SimulatedRun, SolverError> {
    let threads = threads.max(1);
    let share = SweepShare::new(ss, opts, threads, mode)?;
    // Every virtual member executes on the caller's thread, against one
    // workspace.
    let mut ws = ArnoldiWorkspace::new();
    // Executed shifts awaiting their commit, in pull order; the heap
    // orders the commits by virtual finish time, then pull order.
    let mut executed = Vec::new();
    let mut heap = BinaryHeap::new();
    let (mut clock, mut idle) = (0u64, threads);
    loop {
        while idle > 0 {
            let Some((task, warm)) = share.pull(&mut share.shared.lock()) else {
                break;
            };
            let started = Instant::now();
            let result = share.execute(&task, &warm, &mut ws);
            let cost = result.as_ref().map_or(0, |(_, out)| cost_units(out));
            heap.push(Reverse((clock + cost, executed.len())));
            executed.push(Some((task, result, started.elapsed())));
            idle -= 1;
        }
        let Some(Reverse((finish, pulled))) = heap.pop() else {
            break;
        };
        clock = finish;
        if let Some((task, result, wall)) = executed[pulled].take() {
            share.commit(&mut share.shared.lock(), &task, result, wall);
        }
        idle += 1;
    }
    let out = share.finish();
    Ok(SimulatedRun {
        threads,
        makespan: clock,
        total_cost: out.shift_log.iter().map(|r| r.cost_units).sum(),
        frequencies: out.frequencies,
        covered_fraction: out.covered_fraction,
        shift_log: out.shift_log,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::find_imaginary_eigenvalues;
    use pheig_model::generator::{generate_case, CaseSpec};

    fn test_model() -> StateSpace {
        generate_case(&CaseSpec::new(30, 3).with_seed(12).with_target_crossings(6))
            .unwrap()
            .realize()
    }

    #[test]
    fn more_workers_shorten_the_makespan_deterministically() {
        // The schedule differs with T, but four workers cannot lose to
        // one on the same task set; a rerun repeats the run exactly. (At
        // T = 1 the run is the driver's: `tests/parallel_consistency.rs`.)
        let ss = test_model();
        let opts = SolverOptions::default();
        let s1 = simulate_parallel(&ss, 1, &opts, ScheduleMode::Dynamic).unwrap();
        let s4 = simulate_parallel(&ss, 4, &opts, ScheduleMode::Dynamic).unwrap();
        assert_eq!(s1.makespan, s1.total_cost);
        assert!(
            s4.makespan <= s1.makespan,
            "{} vs {}",
            s4.makespan,
            s1.makespan
        );
        assert!(s4.speedup_vs(s1.total_cost) >= 1.0);
        let again = simulate_parallel(&ss, 4, &opts, ScheduleMode::Dynamic).unwrap();
        assert_eq!(
            (again.makespan, again.total_cost),
            (s4.makespan, s4.total_cost)
        );
        assert_eq!(again.frequencies, s4.frequencies);
        let real = find_imaginary_eigenvalues(&ss, &opts).unwrap();
        assert_eq!(s4.frequencies.len(), real.frequencies.len());
        for (a, b) in s4.frequencies.iter().zip(&real.frequencies) {
            assert!((a - b).abs() < 1e-5 * real.band.1);
        }
    }

    #[test]
    fn static_grid_processes_every_shift() {
        let ss = test_model();
        let sim = simulate_parallel(
            &ss,
            4,
            &SolverOptions::default(),
            ScheduleMode::StaticGrid { n_shifts: 12 },
        )
        .unwrap();
        // All 12 grid shifts processed (plus any splits), no deletions.
        assert!(sim.shift_log.len() >= 12);
        assert_eq!(sim.stats.scheduler.deleted_tentative, 0);
        // Results still correct.
        let real = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
        assert_eq!(sim.frequencies.len(), real.frequencies.len());
    }
}
