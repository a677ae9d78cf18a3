//! Regenerates **Fig. 6** of the paper: speedup factor versus number of
//! threads for a Case-5-class macromodel, mean and standard deviation over
//! several independent runs (the paper uses 20 runs; runs differ in the
//! random Arnoldi start vectors), compared to the ideal line.
//!
//! Usage:
//!   cargo run --release --example fig6_speedup            # scaled Case 5
//!   cargo run --release --example fig6_speedup -- --full  # n=2240, p=56
//!
//! Speedups are computed in deterministic virtual time (work units) by
//! replaying the identical scheduler with T virtual workers; superlinear
//! values arise exactly as in the paper, from tentative shifts deleted by
//! the dynamic allocation before they enter the processing queue.

use pheig_core::simulate::{simulate_parallel, ScheduleMode};
use pheig_core::solver::SolverOptions;
use pheig_model::generator::{generate_case, CaseSpec};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (order, ports, runs) = if full { (2240, 56, 5) } else { (560, 14, 5) };
    println!("# Fig. 6 reproduction: Case-5-class model, n = {order}, p = {ports}, {runs} runs");
    let model = generate_case(
        &CaseSpec::new(order, ports)
            .with_seed(1004)
            .with_target_crossings(22 * order / 2240),
    )
    .expect("case generation");
    let ss = model.realize();

    println!(
        "# {:>3} {:>9} {:>9} {:>9} | {:>6}",
        "T", "mean", "std", "ideal", "shifts"
    );
    let thread_counts: Vec<usize> = (1..=16).collect();
    // Per-seed serial reference cost (the tau_1 of that run).
    let mut serial_costs = Vec::new();
    for seed in 0..runs {
        let opts = SolverOptions::default().with_seed(seed as u64);
        let s = simulate_parallel(&ss, 1, &opts, ScheduleMode::Dynamic).expect("serial sim");
        serial_costs.push(s.total_cost);
    }
    for &t in &thread_counts {
        let mut speedups = Vec::new();
        let mut shifts = 0usize;
        for (seed, &serial_cost) in serial_costs.iter().enumerate() {
            let opts = SolverOptions::default().with_seed(seed as u64);
            let sim = simulate_parallel(&ss, t, &opts, ScheduleMode::Dynamic).expect("sim");
            speedups.push(sim.speedup_vs(serial_cost));
            shifts += sim.shift_log.len();
        }
        let mean = speedups.iter().sum::<f64>() / runs as f64;
        let var = speedups
            .iter()
            .map(|s| (s - mean) * (s - mean))
            .sum::<f64>()
            / runs as f64;
        println!(
            "{:>5} {:>9.3} {:>9.3} {:>9.1} | {:>6.1}",
            t,
            mean,
            var.sqrt(),
            t as f64,
            shifts as f64 / runs as f64
        );
    }
}
