//! Ablation for the paper's Sec. IV claim: *"One could neglect this
//! dependency and predistribute the shifts on a regular grid [...] it is
//! very likely that the work performed on some preallocated shifts will be
//! useless [...] there is no potential for good scalability."*
//!
//! Compares the dynamic scheduler against static pre-distributed grids of
//! increasing density at T = 8 virtual workers: total executed work,
//! makespan, and wasted (covered-but-still-processed) shifts.
//!
//! Usage: cargo run --release --example ablation_static

use pheig_core::simulate::{simulate_parallel, ScheduleMode};
use pheig_core::solver::SolverOptions;
use pheig_model::generator::{generate_case, CaseSpec};

fn main() {
    let model = generate_case(
        &CaseSpec::new(420, 10)
            .with_seed(7)
            .with_target_crossings(10),
    )
    .expect("case generation");
    let ss = model.realize();
    let opts = SolverOptions::default();
    let threads = 8;

    let dynamic =
        simulate_parallel(&ss, threads, &opts, ScheduleMode::Dynamic).expect("dynamic sim");
    println!(
        "# Sec. IV ablation: dynamic scheduling vs static pre-distributed grids (T = {threads})"
    );
    println!(
        "# {:<16} {:>8} {:>10} {:>10} {:>9} {:>8}",
        "mode", "shifts", "work", "makespan", "speedup", "deleted"
    );
    println!(
        "{:<18} {:>8} {:>10} {:>10} {:>9.3} {:>8}",
        "dynamic",
        dynamic.shift_log.len(),
        dynamic.total_cost,
        dynamic.makespan,
        dynamic.total_cost as f64 / dynamic.makespan.max(1) as f64,
        dynamic.stats.scheduler.deleted_tentative
    );
    for factor in [1usize, 2, 4, 8] {
        let n_shifts = dynamic.shift_log.len() * factor;
        let sim = simulate_parallel(&ss, threads, &opts, ScheduleMode::StaticGrid { n_shifts })
            .expect("static sim");
        // Sanity: the static grid still finds the same spectrum.
        assert_eq!(sim.frequencies.len(), dynamic.frequencies.len());
        println!(
            "{:<18} {:>8} {:>10} {:>10} {:>9.3} {:>8}",
            format!("static x{factor}"),
            sim.shift_log.len(),
            sim.total_cost,
            sim.makespan,
            sim.total_cost as f64 / sim.makespan.max(1) as f64,
            sim.stats.scheduler.deleted_tentative
        );
    }
    println!(
        "# note: 'speedup' here is work/makespan (utilization); the waste of the static grids\n\
         # shows as total work inflated by shifts whose intervals were already covered."
    );
}
