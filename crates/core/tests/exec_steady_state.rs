//! Steady-state pins for the persistent executor: after warm-up,
//! scheduling work on the pool must spawn **no** threads and allocate
//! **nothing** per task — the executor's machinery (queue, pop, execute,
//! complete) runs entirely on the pool's pre-reserved queue and
//! stack-pinned cohort records.
//!
//! Cohorts of a counting job isolate the executor's own overhead from
//! real payloads (a pipeline job naturally allocates; the scheduling
//! around it must not). The counting global allocator is `common/mod.rs`
//! (same pattern as `crates/hamiltonian/tests/alloc_free.rs`); one test
//! per file because a concurrently running test would pollute the counter.

mod common;

use common::allocations;
use pheig_core::exec::{self, Executor};
use pheig_core::pipeline::{run_batch, Pipeline, PipelineOptions};
use pheig_core::solver::SolverWorkspace;
use pheig_hamiltonian::scratch_contention_total;
use pheig_model::generator::{generate_case, CaseSpec};
use pheig_model::FrequencySamples;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[test]
fn executor_steady_state_spawns_no_threads_and_allocates_nothing_per_task() {
    const WORKERS: usize = 2;
    const EXTRA: usize = 4; // cohort members pushed to the pool per round
    const QUIET_ROUNDS: usize = 1000; // allocation-free rounds that end warm-up
    const WARMUP_DEADLINE: Duration = Duration::from_secs(30);
    const MEASURED_ROUNDS: usize = 200;

    let exec = Executor::pool(WORKERS);
    let mut ws = SolverWorkspace::new();
    let hits = AtomicUsize::new(0);
    let count = |_: &mut SolverWorkspace| {
        hits.fetch_add(1, Ordering::SeqCst);
    };
    // One cohort of the counting job; returns how many memberships ran.
    let mut cohort = || {
        assert!(exec.run_cohort(EXTRA, &mut ws, &count).is_ok());
        hits.swap(0, Ordering::SeqCst)
    };

    // Warm-up: first rounds settle worker TLS, the workspace checkout
    // pool, and any lazy OS/runtime state. A round takes microseconds, so
    // a fixed handful can finish before the OS has run every freshly
    // spawned worker, and that worker's one-time start-up allocation
    // would land in the measured window. Warm up until the counter has
    // held still for `QUIET_ROUNDS` consecutive rounds instead, yielding
    // so a worker that has not started yet gets a CPU. An executor that
    // really allocates per task never goes quiet and trips the deadline.
    let deadline = Instant::now() + WARMUP_DEADLINE;
    let mut quiet = 0;
    while quiet < QUIET_ROUNDS {
        assert!(
            Instant::now() < deadline,
            "executor machinery never stopped allocating during warm-up"
        );
        let before = allocations();
        assert_eq!(cohort(), EXTRA + 1, "cohort must run extra + 1 times");
        quiet = if allocations() == before {
            quiet + 1
        } else {
            0
        };
        std::thread::yield_now();
    }

    // Steady state: no new threads, zero heap traffic per task. The
    // cohort record is stack-pinned, queue entries are single words in
    // the queue's reserved capacity, and workspace checkout reuses pooled
    // scratch.
    let spawned_before = exec::threads_spawned_total();
    let tasks_before = exec.stats().tasks_executed;
    let allocs_before = allocations();
    for _ in 0..MEASURED_ROUNDS {
        assert_eq!(cohort(), EXTRA + 1);
    }
    let allocs = allocations() - allocs_before;
    let tasks = (exec.stats().tasks_executed - tasks_before) as usize;

    assert_eq!(tasks, MEASURED_ROUNDS * (EXTRA + 1));
    assert_eq!(
        exec::threads_spawned_total(),
        spawned_before,
        "steady-state cohorts must not spawn threads"
    );
    assert_eq!(
        allocs, 0,
        "executor machinery allocated {allocs} times across {tasks} steady-state tasks"
    );

    // The same pin at the batch level: repeated run_batch calls reuse the
    // cached pool — jobs allocate (fits, sweeps), threads must not appear.
    let mut jobs = Vec::new();
    for seed in [3u64, 4, 5, 6] {
        let model =
            generate_case(&CaseSpec::new(8, 2).with_seed(seed).with_target_crossings(0)).unwrap();
        let samples = FrequencySamples::from_model(&model, 0.01, 10.0, 90).unwrap();
        jobs.push(Pipeline::from_samples(samples));
    }
    // The 8-state jobs sit below the dense crossover; the sweep is what
    // puts cohorts and operator scratch on the pool, so they sweep.
    let mut opts = PipelineOptions::default();
    opts.solver.dense_max = 0;
    let warm = run_batch(&jobs, &opts, WORKERS + 1); // same pool width as above
    assert!(warm.iter().all(Result::is_ok));
    let spawned_before = exec::threads_spawned_total();
    for _ in 0..2 {
        let again = run_batch(&jobs, &opts, WORKERS + 1);
        assert!(again.iter().all(Result::is_ok));
    }
    assert_eq!(
        exec::threads_spawned_total(),
        spawned_before,
        "repeated batches must reuse the persistent pool, not respawn workers"
    );

    // Scratch-ownership pin: every operator apply across all of the sweeps
    // above (batch jobs, nested parallel sweeps, enforcement re-sweeps)
    // must find its scratch lock free — zero contended acquisitions means
    // zero fallback allocations per apply. Each worker builds its own
    // operator, so any contention here is an ownership bug.
    assert_eq!(
        scratch_contention_total(),
        0,
        "operator scratch checkouts were contended; an operator is being \
         applied concurrently from two workers"
    );
}
