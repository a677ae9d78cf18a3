//! Regenerates **Table I** of the paper: for each of the 12 benchmark
//! cases (matched in dynamic order `n`, ports `p`, and calibrated
//! imaginary-eigenvalue count `N_lambda`), reports the serial solve time
//! `tau_1`, the simulated 16-worker time `tau_16` (virtual-time scheduler
//! replay — see DESIGN.md for why wall-clock 16-thread timing is replaced
//! on hosts without 16 cores), and the speedup `eta_16`.
//!
//! `eta16` divides the serial sweep's cost units by the 16-member
//! simulated makespan with Krylov recycling on both sides (the solver's
//! default); `eta16off` is the same ratio with recycling off on both
//! sides. `grid` is the generator's grid count of unit crossings, a lower
//! bound for the solver's `Nl`. `cov` is the least covered fraction of the
//! four runs: below 1 when a run quarantined a shift, so the row is a
//! documented partial result.
//!
//! Usage:
//!   cargo run --release --example table1            # scaled cases (fast)
//!   cargo run --release --example table1 -- --full  # paper-size cases
//!
//! The "scaled" mode divides n and p by 4 (cost ~ 1/16) so the full table
//! regenerates in about a minute; shapes (who wins, by what factor)
//! are preserved. `--full` prints the paper-size table in the same format
//! (the reproduction commands are in README.md). The example exits
//! non-zero when any case fails to generate, solve or simulate.

use pheig_core::simulate::{simulate_parallel, ScheduleMode};
use pheig_core::solver::{find_imaginary_eigenvalues, SolverOptions};
use pheig_model::generator::{generate_case_with_report, table1_cases, CaseSpec, PaperRow};
use pheig_model::StateSpace;
use std::process::ExitCode;
use std::time::Instant;

/// Serial wall time, serial cost units, crossings, 16-member makespan and
/// the lesser covered fraction of one recycling setting.
fn measure(ss: &StateSpace, recycling: bool) -> Result<(f64, u64, usize, u64, f64), String> {
    let opts = SolverOptions::default().with_recycling(recycling);
    let t0 = Instant::now();
    let serial =
        find_imaginary_eigenvalues(ss, &opts).map_err(|e| format!("serial solve failed: {e}"))?;
    let tau1 = t0.elapsed().as_secs_f64();
    let sim = simulate_parallel(ss, 16, &opts, ScheduleMode::Dynamic)
        .map_err(|e| format!("simulation failed: {e}"))?;
    let units = serial.shift_log.iter().map(|r| r.cost_units).sum();
    let cov = serial.covered_fraction.min(sim.covered_fraction);
    Ok((tau1, units, serial.frequencies.len(), sim.makespan, cov))
}

/// The printed row of one case.
fn run_row(row: &PaperRow, spec: &CaseSpec) -> Result<String, String> {
    let gen = generate_case_with_report(spec).map_err(|e| format!("generation failed: {e}"))?;
    let ss = gen.model.realize();
    let (tau1, units, n_lambda, makespan, cov) = measure(&ss, true)?;
    let (_, units_off, _, makespan_off, cov_off) = measure(&ss, false)?;
    // The virtual makespan in seconds, at the measured serial
    // seconds-per-unit rate.
    let tau16 = makespan as f64 * tau1 / units.max(1) as f64;
    Ok(format!(
        "{:<10} {:>5} {:>4} {:>4} {:>4} | {:>9.3} {:>9.3} {:>7.3} {:>8.3} {:>5.3} | paper: {:>8.3} {:>8.3} {:>7.3}",
        row.name,
        ss.order(),
        ss.ports(),
        n_lambda,
        gen.grid_crossings,
        tau1,
        tau16,
        units as f64 / makespan.max(1) as f64,
        units_off as f64 / makespan_off.max(1) as f64,
        cov.min(cov_off),
        row.tau_serial,
        row.tau_16_mean,
        row.eta_16
    ))
}

fn main() -> ExitCode {
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
        "# case         n    p   Nl grid |   tau1[s]  tau16[s]   eta16 eta16off   cov \
         | paper:  tau1[s] tau16[s]   eta16"
    );
    let mut failed = 0;
    for (row, spec) in table1_cases() {
        let spec = CaseSpec {
            order: (spec.order / scale).max(spec.ports / scale + 4),
            ports: (spec.ports / scale).max(2),
            target_crossings: spec.target_crossings.map(|t| t / scale),
            ..spec
        };
        match run_row(&row, &spec) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                println!("{:<10} FAILED: {e}", row.name);
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!("table1: {failed} of 12 cases failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
