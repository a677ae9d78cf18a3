//! The benchmark's contract: workloads, metrics, units, directions, bounds.
//!
//! `../BENCHMARK.json` states the same contract for the driver: it is the
//! output of the `manifest` command, and a unit test keeps it that way.

use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// A count that must repeat exactly between two runs of the same code
    /// with the same seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

/// A per-layer quantity that repeats exactly (derived from counts only).
const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// A per-layer count that repeats exactly.
const fn count(name: &'static str) -> MetricSpec {
    exact(name, "count", Lower)
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 22;

/// Workload names with the reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sweep_n1000",
        "Table I Case 2 shape (n=1000, p=20), serial sweep: arnoldi self time is nearly all the work; fit, enforcement and the executor do none",
    ),
    (
        "sweep_par2",
        "n=500, p=20 sweep on 2 threads against a T=1 baseline: the same arnoldi work through the scheduler mutex, shared recycle pool and executor cohorts",
    ),
    (
        "pipeline_fit",
        "72-state 6-port Touchstone deck through the whole pipeline: vector fitting and the QR/least-squares under it do nearly all the work",
    ),
    (
        "enforce_family",
        "twelve 24-state 2-port decks of varied crossing geometry, serial: passivity enforcement and its re-sweeps do most of the work",
    ),
    (
        "batch_decks",
        "24 sixteen-state decks parsed and run as one 2-worker batch: tiny-n regime where per-shift fixed cost, small fits, parsing and the batch cohort dominate",
    ),
];

/// Metrics a user of the system sees; every workload reports every one.
///
/// The bounds are what this 2-vCPU host resolves. Over ten seeds the
/// interquartile range of `wall_s` is 1-4% of its median on the serial
/// workloads and 4-6% on `sweep_par2`, whose two threads fill the host, so
/// any neighbour shows; `units_per_s` — a mean, so the slow tail counts —
/// reaches 7% there, and peak memory follows the seed's recycle-pool sizes
/// by 5%. Each bound is at least three of the widest spread seen.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("wall_s", "s", Lower, 0.20),
    e2e("units_per_s", "1/s", Higher, 0.24),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.20),
];

/// Metrics of single layers (crate.module), measured from outside by
/// timing public calls and reading public outcome structs. A metric that
/// does not apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    // linalg
    layer("linalg.kernels.project_out_us", "us", Lower),
    layer("linalg.kernels.project_out_gbps_computed", "GB/s", Higher),
    layer("linalg.eig.eig_hessenberg_us", "us", Lower),
    layer("linalg.qr.lstsq_ms", "ms", Lower),
    // model
    layer("model.touchstone.parse_ms", "ms", Lower),
    layer("model.touchstone.parse_mib_per_s", "MiB/s", Higher),
    layer("model.realize_ms", "ms", Lower),
    layer("model.block_diag.shift_solve_factors_us", "us", Lower),
    // vectorfit
    layer("vectorfit.fit_s", "s", Lower),
    layer("vectorfit.fit_share", "ratio", Lower),
    layer("vectorfit.rms_error", "ratio", Lower),
    count("vectorfit.order"),
    // hamiltonian
    layer("hamiltonian.shift_invert.new_us", "us", Lower),
    layer("hamiltonian.shift_invert.apply_ns", "ns", Lower),
    layer("hamiltonian.shift_invert.apply_bytes_computed", "B", Lower),
    layer("hamiltonian.matvec.apply_ns", "ns", Lower),
    layer(
        "hamiltonian.multi_shift.apply_block_ns_per_lane",
        "ns",
        Lower,
    ),
    // arnoldi
    layer("arnoldi.single_shift.cold_ms", "ms", Lower),
    count("arnoldi.single_shift.cold_matvecs"),
    count("arnoldi.single_shift.cold_restarts"),
    layer("arnoldi.single_shift.cold_op_share", "ratio", Lower),
    layer("arnoldi.single_shift.cold_self_us_per_matvec", "us", Lower),
    layer("arnoldi.single_shift.warm_ms", "ms", Lower),
    count("arnoldi.single_shift.warm_matvecs"),
    layer("arnoldi.krylov.arnoldi_into_us", "us", Lower),
    layer("arnoldi.krylov.orth_us_per_step", "us", Lower),
    layer("arnoldi.ritz.ritz_pairs_us", "us", Lower),
    layer("arnoldi.recycle.gather_us", "us", Lower),
    // core::solver
    count("core.solver.matvecs"),
    count("core.solver.shifts"),
    count("core.solver.restarts"),
    count("core.solver.crossings"),
    count("core.solver.warm_started_shifts"),
    layer("core.solver.recycle_hit_rate", "ratio", Higher),
    layer("core.solver.matvecs_per_shift", "count", Lower),
    layer("core.solver.wall_us_per_matvec", "us", Lower),
    layer("core.solver.apply_share_est", "ratio", Lower),
    layer("core.solver.factor_share_est", "ratio", Lower),
    layer("core.solver.arnoldi_self_share_est", "ratio", Lower),
    layer("core.solver.sigma_residual_max", "ratio", Lower),
    layer("core.solver.matvecs_t2_median", "count", Lower),
    layer("core.solver.matvecs_t2_spread", "ratio", Lower),
    layer("core.solver.work_efficiency", "ratio", Higher),
    // core::scheduler / simulate / exec
    count("core.scheduler.processed"),
    count("core.scheduler.deleted_tentative"),
    count("core.scheduler.trimmed_tentative"),
    count("core.scheduler.splits"),
    count("core.scheduler.cancelled_in_flight"),
    layer("core.scheduler.op_ns", "ns", Lower),
    exact("core.simulate.virtual_speedup_t16", "x", Higher),
    exact("core.simulate.virtual_work_ratio_t16", "ratio", Lower),
    layer("core.exec.tasks_executed", "count", Lower),
    layer("core.exec.steals", "count", Lower),
    layer("core.exec.threads_spawned", "count", Lower),
    layer("core.exec.scratch_contention", "count", Lower),
    layer("core.exec.first_batch_ratio", "ratio", Lower),
    layer("core.exec.t1_wall_s", "s", Lower),
    layer("core.exec.speedup_vs_t1", "x", Higher),
    // core::enforcement / characterization / pipeline
    layer("core.enforcement.wall_s", "s", Lower),
    count("core.enforcement.iterations"),
    count("core.enforcement.sweeps"),
    count("core.enforcement.matvecs"),
    layer("core.enforcement.resweep_share_est", "ratio", Lower),
    layer("core.enforcement.delta_c_norm", "norm", Lower),
    layer("core.enforcement.deck_wall_median_s", "s", Lower),
    layer("core.enforcement.deck_wall_max_s", "s", Lower),
    count("core.enforcement.stalled"),
    layer("core.enforcement.stall_wall_s", "s", Lower),
    layer("core.characterization.characterize_ms", "ms", Lower),
    layer("core.pipeline.parse_share", "ratio", Lower),
    layer("core.pipeline.fit_share", "ratio", Lower),
    layer("core.pipeline.sweep_share", "ratio", Lower),
    layer("core.pipeline.enforce_share", "ratio", Lower),
    layer("core.pipeline.stage_sum_ratio", "ratio", Lower),
    // the harness itself
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Names are at most 64 letters, digits, `_`, `.` and `-`, starting with a
    /// letter or digit.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    /// Units are at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn name_and_unit_charsets() {
        for good in ["wall_s", "core.exec.speedup_vs_t1", "9lives", "a-b"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "1/s", "MiB/s", "%", "count"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "µs", "per second", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn registry_is_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for (w, why) in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "{w}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{w}: why too long");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
