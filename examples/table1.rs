//! Regenerates **Table I** of the paper: for each of the 12 benchmark
//! cases (matched in dynamic order `n`, ports `p`, and calibrated
//! imaginary-eigenvalue count `N_lambda`), reports the serial solve time
//! `tau_1`, the simulated 16-worker time `tau_16` (virtual-time scheduler
//! replay — see DESIGN.md for why wall-clock 16-thread timing is replaced
//! on hosts without 16 cores), and the speedup `eta_16`.
//!
//! Usage:
//!   cargo run --release --example table1            # scaled cases (fast)
//!   cargo run --release --example table1 -- --full  # paper-size cases
//!
//! The "scaled" mode divides n and p by 4 (cost ~ 1/16) so the full table
//! regenerates in about a minute; shapes (who wins, by what factor) are
//! preserved. `--full` prints the paper-size table in the same format
//! (the reproduction commands are in README.md).

use pheig_core::simulate::{simulate_parallel, ScheduleMode};
use pheig_core::solver::{find_imaginary_eigenvalues, SolverOptions};
use pheig_model::generator::{generate_case_with_report, table1_cases, CaseSpec};
use std::time::Instant;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let scale = if full { 1 } else { 4 };
    println!(
        "# Table I reproduction (12 cases){}",
        if full {
            " at full paper dimensions"
        } else {
            " at 1/4 linear scale (pass --full for paper dimensions)"
        }
    );
    println!(
        "# {:<8} {:>5} {:>4} {:>5} | {:>9} {:>9} {:>7} | paper: {:>8} {:>8} {:>7}",
        "case", "n", "p", "Nl", "tau1[s]", "tau16[s]", "eta16", "tau1[s]", "tau16[s]", "eta16"
    );
    for (row, spec) in table1_cases() {
        let spec = CaseSpec {
            order: (spec.order / scale).max(spec.ports / scale + 4),
            ports: (spec.ports / scale).max(2),
            target_crossings: spec.target_crossings.map(|t| t / scale),
            ..spec
        };
        let gen = match generate_case_with_report(&spec) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("{}: generation failed: {e}", row.name);
                continue;
            }
        };
        let ss = gen.model.realize();
        let t0 = Instant::now();
        let serial = match find_imaginary_eigenvalues(&ss, &SolverOptions::default()) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: serial solve failed: {e}", row.name);
                continue;
            }
        };
        let tau1 = t0.elapsed().as_secs_f64();
        let serial_units: u64 = serial.shift_log.iter().map(|r| r.cost_units).sum();
        let sim = match simulate_parallel(&ss, 16, &SolverOptions::default(), ScheduleMode::Dynamic)
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: simulation failed: {e}", row.name);
                continue;
            }
        };
        // Convert the virtual makespan to seconds with the measured
        // serial seconds-per-unit rate.
        let sec_per_unit = tau1 / serial_units.max(1) as f64;
        let tau16 = sim.makespan as f64 * sec_per_unit;
        let eta16 = sim.speedup_vs(serial_units);
        println!(
            "{:<10} {:>5} {:>4} {:>5} | {:>9.3} {:>9.3} {:>7.3} | paper: {:>8.3} {:>8.3} {:>7.3}",
            row.name,
            ss.order(),
            ss.ports(),
            serial.frequencies.len(),
            tau1,
            tau16,
            eta16,
            row.tau_serial,
            row.tau_16_mean,
            row.eta_16
        );
    }
}
