//! The five workloads (why each exists: [`crate::spec::WORKLOADS`] and
//! README.md).

pub mod decks;
pub mod sweep;

use crate::harness::{Ctx, Report};
use crate::trace::Tracer;
use pheig_core::exec::{threads_spawned_total, Executor};
use pheig_hamiltonian::scratch_contention_total;

/// Runs the workload called `name`, or `None` for an unknown name.
pub fn run(name: &str, ctx: &Ctx) -> Option<Report> {
    Some(match name {
        "sweep_n1000" => sweep::run(&sweep::n1000(), ctx),
        "sweep_par2" => sweep::run(&sweep::par2(), ctx),
        "pipeline_fit" => decks::run(&decks::pipeline_fit(), ctx),
        "enforce_family" => decks::run(&decks::enforce_family(), ctx),
        "batch_decks" => decks::run(&decks::batch_decks(), ctx),
        _ => return None,
    })
}

/// Where a sweep's wall time goes, estimated from the isolated costs the
/// operator probes measured: applies, factorisations, and the remainder,
/// which is the `arnoldi` layer's own time.
fn share_estimates(report: &mut Report, matvecs: usize, shifts: usize, sweep_s: f64) {
    let apply = matvecs as f64 * report.value("hamiltonian.shift_invert.apply_ns") * 1e-9;
    let factor = shifts as f64 * report.value("hamiltonian.shift_invert.new_us") * 1e-6;
    report.set_value("core.solver.apply_share_est", apply / sweep_s);
    report.set_value("core.solver.factor_share_est", factor / sweep_s);
    report.set_value(
        "core.solver.arnoldi_self_share_est",
        1.0 - (apply + factor) / sweep_s,
    );
}

/// The executor's public counters for the pool a `threads`-wide op uses.
fn exec_layers(report: &mut Report, threads: usize) {
    let exec = Executor::pool(threads - 1).stats();
    report.set_value("core.exec.tasks_executed", exec.tasks_executed as f64);
    report.set_value("core.exec.steals", exec.steals as f64);
    report.set_value("core.exec.threads_spawned", threads_spawned_total() as f64);
    report.set_value(
        "core.exec.scratch_contention",
        scratch_contention_total() as f64,
    );
}

/// Writes the spans to `benchmark/out/trace_<workload>.json`.
fn write_trace(tracer: &Tracer, workload: &str, seed: u64, report: &mut Report) {
    let written = crate::host::out_dir().and_then(|dir| {
        std::fs::write(
            dir.join(format!("trace_{workload}.json")),
            tracer.to_json(workload, seed).to_pretty(),
        )
    });
    if let Err(e) = written {
        report.fail(format!("writing the trace: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use std::time::Instant;

    #[test]
    fn every_listed_workload_is_runnable_and_unknown_names_are_not() {
        let ctx = Ctx {
            start: Instant::now(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            bless: false,
        };
        assert!(run("no_such_workload", &ctx).is_none());
        // Dispatch only: the listed names must all be matched above. The
        // workloads themselves are exercised by `smoke` and the runs.
        let known = [
            "sweep_n1000",
            "sweep_par2",
            "pipeline_fit",
            "enforce_family",
            "batch_decks",
        ];
        let listed: Vec<&str> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(listed, known);
    }
}
