//! Host-independent performance pins of the legacy n = 96 sweep.
//!
//! Matvec counts are deterministic for a given SIMD tier and move only
//! slightly between tiers, so the recycling pin is the blessed 948 matvecs
//! plus 10%: a sweep that spends operator applications once per shift
//! instead of once per eigenpair reads ~1990 and fails. The zero-fault
//! telemetry baseline (nothing injected, nothing quarantined, full
//! coverage) rides on the same sweep. Timing, allocation and batch-scaling
//! pins live with `benchmark/` and the `*alloc_free` / `exec_steady_state`
//! tests.

use pheig::core::solver::{find_imaginary_eigenvalues, SolverOptions};
use pheig::model::generator::{generate_case, CaseSpec};

#[test]
fn n96_serial_sweep_holds_the_matvec_and_zero_fault_pins() {
    let ss = generate_case(&CaseSpec::new(96, 3).with_target_crossings(4).with_seed(7))
        .unwrap()
        .realize();
    let out = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
    assert!(
        out.stats.total_matvecs <= 1043,
        "n = 96 sweep spent {} matvecs (pin: 948 + 10%)",
        out.stats.total_matvecs
    );
    assert_eq!(out.stats.faults_injected, 0);
    assert_eq!(out.stats.shifts_quarantined, 0);
    assert_eq!(out.covered_fraction, 1.0);
}
