//! Deterministic virtual-time simulation of the parallel solver.
//!
//! **Why this exists.** The paper measures speedups on a 16-core Opteron
//! blade. On hosts with fewer cores, wall-clock speedup physically cannot
//! appear, so this module replays the *identical* scheduler state machine
//! with `T` virtual workers under a discrete-event clock. Each single-shift
//! iteration is actually executed (serially, on the host) and charged its
//! deterministic cost in work units (`solver::cost_units`: `matvecs + 3 *
//! restarts + ceil(refine_dim / 2)` — operator applications dominate the
//! real cost, the per-restart surcharge covers the projected eigensolves,
//! and the last term the Rayleigh–Ritz refinement, which applies no
//! operator but still solves a dense problem of the locked dimension;
//! per-shift setup is `O(p^2/n)` of one matvec and is neglected). The
//! simulated makespan then plays the role of the parallel wall time:
//!
//! ```text
//! speedup(T) = serial_total_cost / makespan(T)
//! ```
//!
//! Because scheduling *decisions* (which tentative shifts get deleted,
//! where intervals split) depend on completion order, the simulation
//! reproduces the paper's superlinear-speedup mechanism faithfully —
//! including its dependence on the number of threads and on the random
//! Arnoldi start vectors (vary `opts.seed` to reproduce Fig. 6 error bars).

use crate::band::estimate_band;
use crate::error::SolverError;
use crate::scheduler::{Scheduler, SchedulerStats, ShiftTask};
use crate::solver::{
    axis_pairs, cost_units, crossings, initial_intervals, pole_scale, run_shift, SolverOptions,
};
use crate::spectrum;
use pheig_arnoldi::single_shift::SingleShiftOutcome;
use pheig_arnoldi::SweepControl;
use pheig_model::StateSpace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// Scheduler counters.
    pub stats: SchedulerStats,
    /// Number of single-shift iterations executed.
    pub shifts_processed: usize,
}

impl SimulatedRun {
    /// Speedup of this run against a reference serial cost.
    pub fn speedup_vs(&self, serial_total_cost: u64) -> f64 {
        serial_total_cost as f64 / self.makespan.max(1) as f64
    }
}

struct Event {
    finish: u64,
    seq: u64,
    task: ShiftTask,
    outcome: SingleShiftOutcome,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.finish, self.seq) == (other.finish, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.finish, self.seq).cmp(&(other.finish, other.seq))
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
    let band = match opts.band {
        Some(b) => b,
        None => estimate_band(ss, &opts.arnoldi)?,
    };
    let scale = pole_scale(ss);
    let mut scheduler = match mode {
        ScheduleMode::Dynamic => {
            Scheduler::new(band, initial_intervals(opts.kappa, threads), opts.alpha)
        }
        ScheduleMode::StaticGrid { n_shifts } => {
            let mut s = Scheduler::new(band, n_shifts.max(2), opts.alpha);
            s.set_delete_covered(false);
            s
        }
    };

    // The simulator executes shifts inline on the caller's thread; one
    // workspace is reused across every simulated shift.
    let mut ws = pheig_arnoldi::ArnoldiWorkspace::new();
    let mut clock: u64 = 0;
    let mut seq: u64 = 0;
    let mut idle = threads;
    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut total_cost: u64 = 0;
    let mut all_pairs = Vec::new();
    let mut processed = 0usize;

    loop {
        // Fill idle workers with available tentative shifts at the current
        // virtual time.
        while idle > 0 {
            match scheduler.next_shift() {
                Some(task) => {
                    // The simulator's cost model is cold-start by design:
                    // virtual-time speedup curves must not depend on the
                    // completion-order-dependent recycling pool.
                    let outcome =
                        run_shift(ss, &task, scale, opts, &mut ws, &[], &SweepControl::none())?;
                    let cost = cost_units(&outcome);
                    total_cost += cost;
                    heap.push(Reverse(Event {
                        finish: clock + cost,
                        seq,
                        task,
                        outcome,
                    }));
                    seq += 1;
                    idle -= 1;
                }
                None => break,
            }
        }
        match heap.pop() {
            Some(Reverse(ev)) => {
                clock = ev.finish;
                scheduler.complete(&ev.task, ev.outcome.theta.im, ev.outcome.radius);
                all_pairs.extend(axis_pairs(ev.outcome.in_disk, opts, scale));
                processed += 1;
                idle += 1;
            }
            None => break,
        }
    }
    debug_assert!(scheduler.is_done());

    let eigenpairs = crossings(&all_pairs, opts, scale);
    Ok(SimulatedRun {
        threads,
        makespan: clock,
        total_cost,
        frequencies: spectrum::frequencies(&eigenpairs),
        stats: scheduler.stats(),
        shifts_processed: processed,
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
    fn simulation_is_deterministic() {
        let ss = test_model();
        let a =
            simulate_parallel(&ss, 4, &SolverOptions::default(), ScheduleMode::Dynamic).unwrap();
        let b =
            simulate_parallel(&ss, 4, &SolverOptions::default(), ScheduleMode::Dynamic).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_cost, b.total_cost);
        assert_eq!(a.frequencies, b.frequencies);
    }

    #[test]
    fn simulated_frequencies_match_real_solver() {
        let ss = test_model();
        let real = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
        let sim =
            simulate_parallel(&ss, 4, &SolverOptions::default(), ScheduleMode::Dynamic).unwrap();
        assert_eq!(sim.frequencies.len(), real.frequencies.len());
        for (a, b) in sim.frequencies.iter().zip(&real.frequencies) {
            assert!((a - b).abs() < 1e-5 * real.band.1);
        }
    }

    #[test]
    fn single_worker_makespan_equals_total_cost() {
        let ss = test_model();
        let sim =
            simulate_parallel(&ss, 1, &SolverOptions::default(), ScheduleMode::Dynamic).unwrap();
        assert_eq!(sim.makespan, sim.total_cost);
        assert!(sim.speedup_vs(sim.total_cost) >= 0.999);
    }

    #[test]
    fn more_workers_never_slow_the_makespan_much() {
        // Makespan with T workers should not exceed the serial makespan
        // (the schedule can differ, but parallelism cannot lose by a wide
        // margin on the same task set).
        let ss = test_model();
        let s1 =
            simulate_parallel(&ss, 1, &SolverOptions::default(), ScheduleMode::Dynamic).unwrap();
        let s4 =
            simulate_parallel(&ss, 4, &SolverOptions::default(), ScheduleMode::Dynamic).unwrap();
        assert!(
            s4.makespan <= s1.makespan,
            "4-worker makespan {} vs serial {}",
            s4.makespan,
            s1.makespan
        );
        assert!(s4.speedup_vs(s1.total_cost) >= 1.0);
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
        assert!(sim.shifts_processed >= 12);
        assert_eq!(sim.stats.deleted_tentative, 0);
        // Results still correct.
        let real = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
        assert_eq!(sim.frequencies.len(), real.frequencies.len());
    }
}
