//! What one sweep holds: peak resident memory (`VmHWM`) after the model is
//! built and again after one sweep, with the counters that explain the
//! difference — how many eigenpairs the shifts converged, how many the
//! recycle pool ever held at once, how many pool entries were evicted.
//! Reproduces the memory table of DESIGN.md ("What a sweep holds").
//!
//! Run with `cargo run --release --example sweep_memory -- [n] [threads]`
//! (default `500 1`; the table uses n = 500, 1000, 2000).

use pheig::core::solver::{find_imaginary_eigenvalues, SolverOptions};
use pheig::model::generator::{generate_case, CaseSpec};

/// Peak resident set of this process in MiB, where `/proc` offers it.
fn vm_hwm_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn show(mib: Option<f64>) -> String {
    mib.map_or_else(|| "n/a".to_string(), |m| format!("{m:.1} MiB"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map_or(Ok(500), |a| a.parse())?;
    let threads: usize = args.next().map_or(Ok(1), |a| a.parse())?;

    // The benchmark's `sweep_n1000` family (Table I Case 2 shape).
    let spec = CaseSpec::new(n, 20)
        .with_target_crossings(42)
        .with_seed(1001);
    let ss = generate_case(&spec)?.realize();
    println!(
        "model: n = {} states, p = {} ports; one eigenvector is {:.1} KiB",
        ss.order(),
        ss.ports(),
        (32 * ss.order()) as f64 / 1024.0
    );
    println!("VmHWM after generate + realize: {}", show(vm_hwm_mib()));

    let out = find_imaginary_eigenvalues(&ss, &SolverOptions::default().with_threads(threads))?;
    println!(
        "VmHWM after one T = {threads} sweep:    {}",
        show(vm_hwm_mib())
    );
    let stats = &out.stats;
    println!(
        "sweep: {} matvecs, {} shifts, {} crossings, {:.2} s",
        stats.total_matvecs,
        stats.scheduler.processed,
        out.frequencies.len(),
        stats.wall.as_secs_f64()
    );
    println!(
        "pairs_converged {} | pool_peak_pairs {} | pool_evicted_entries {} | kept for the result {}",
        stats.pairs_converged,
        stats.pool_peak_pairs,
        stats.pool_evicted_entries,
        out.eigenpairs.len()
    );
    Ok(())
}
