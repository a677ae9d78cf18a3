//! Parallel scaling demo: the dynamic multi-shift scheduler with 1..=16
//! workers on a Case-5-class macromodel, reported both in *virtual time*
//! (deterministic work units; reproduces the paper's speedup shape on any
//! host) and in wall-clock for the real threaded solver.
//!
//! The threaded runs all execute on the persistent executor
//! (`pheig::core::exec`): worker pools are spawned once per width and
//! reused across every sweep, so the final telemetry block shows a flat
//! thread population no matter how many sweeps ran.
//!
//! Run with `cargo run --release --example parallel_scaling -- [order] [ports]`
//! (defaults to a laptop-friendly n = 280, p = 7 slice of Case 5's shape;
//! pass `2240 56` for the full Case 5 dimensions). It exits with an error
//! when no worker thread was spawned, which is what an order with
//! `2n <= SolverOptions::dense_max` (every sweep dense) gives.

use pheig::core::exec::{self, Executor};
use pheig::core::simulate::{simulate_parallel, ScheduleMode};
use pheig::core::solver::{find_imaginary_eigenvalues, SolverOptions};
use pheig::model::generator::{generate_case, CaseSpec};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let order: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(280);
    let ports: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(7);
    println!("generating Case-5-class model (n = {order}, p = {ports}) ...");
    let model = generate_case(
        &CaseSpec::new(order, ports)
            .with_seed(5)
            .with_target_crossings(22),
    )?;
    let ss = model.realize();

    // Real serial run for reference wall time.
    let t0 = Instant::now();
    let serial = find_imaginary_eigenvalues(&ss, &SolverOptions::default())?;
    let serial_wall = t0.elapsed();
    println!(
        "serial: N_lambda = {}, {} shifts, {:.3} s wall",
        serial.frequencies.len(),
        serial.stats.scheduler.processed,
        serial_wall.as_secs_f64()
    );

    // Virtual-time sweep (the paper's Fig. 6 axis).
    let s1 = simulate_parallel(&ss, 1, &SolverOptions::default(), ScheduleMode::Dynamic)?;
    println!("\n  T   speedup   shifts  deleted   (virtual time, deterministic)");
    for threads in 1..=16usize {
        let sim = simulate_parallel(
            &ss,
            threads,
            &SolverOptions::default(),
            ScheduleMode::Dynamic,
        )?;
        println!(
            "{:>3}   {:>7.3}   {:>6}  {:>7}",
            threads,
            sim.speedup_vs(s1.total_cost),
            sim.shift_log.len(),
            sim.stats.scheduler.deleted_tentative
        );
    }

    // Real threaded runs up to the available parallelism. Each T-way sweep
    // is a cohort on the persistent pool of width T-1: the pool is created
    // on first use and reused by every later sweep of the same width.
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!("\nreal threads on the persistent executor (host has {cores} core(s)):");
    for threads in [1usize, 2, 4, 8, 16] {
        let t = Instant::now();
        let out = find_imaginary_eigenvalues(&ss, &SolverOptions::default().with_threads(threads))?;
        let wall = t.elapsed();
        println!(
            "  T = {threads:>2}: {:.3} s wall, N_lambda = {}, wall speedup {:.2}",
            wall.as_secs_f64(),
            out.frequencies.len(),
            serial_wall.as_secs_f64() / wall.as_secs_f64()
        );
    }

    // Executor telemetry: pools persist, so re-running any of the sweeps
    // above would add tasks but no threads.
    let spawned = exec::threads_spawned_total();
    println!("\nexecutor: {spawned} worker thread(s) spawned in total for this process");
    for width in [1usize, 3, 7, 15] {
        let stats = Executor::pool(width).stats();
        if stats.tasks_executed > 0 {
            println!("  pool({width}): {} task(s) executed", stats.tasks_executed);
        }
    }
    // A model with 2n <= dense_max takes the dense path, which opens no
    // cohort: the threaded section above would then have run serially.
    if spawned == 0 {
        return Err(format!(
            "the threaded sweeps spawned no worker thread (2n = {}, dense_max = {})",
            2 * order,
            SolverOptions::default().dense_max
        )
        .into());
    }
    Ok(())
}
