//! Every documented environment kill switch must actually be honored.
//!
//! The one hook (`PHEIG_FAULT_PLAN`) is read once per process and cached,
//! so this binary holds exactly one test: the variable is set here,
//! before the first solver call, and the ambient plan and its override
//! are asserted in sequence. Malformed-spec handling is covered by
//! `pheig-core`'s `fault::parse_rejects_malformed_specs` unit test (the
//! parse path is identical for the env hook).

use pheig::core::solver::{find_imaginary_eigenvalues, SolverOptions};
use pheig::core::FaultPlan;
use pheig::model::generator::{generate_case, CaseSpec};

#[test]
fn documented_env_kill_switches_are_honored() {
    std::env::set_var("PHEIG_FAULT_PLAN", "matvecs=1");
    let ss = generate_case(&CaseSpec::new(20, 3).with_seed(9).with_target_crossings(4))
        .unwrap()
        .realize();
    // The hook acts inside the sweep (the dense path below the crossover
    // applies no operator), so the sweep it is.
    let sweep = SolverOptions::default().with_dense_max(0);

    // PHEIG_FAULT_PLAN: the ambient plan arms a 1-matvec budget, so a
    // default-options sweep must degrade to an honest partial result.
    let out = find_imaginary_eigenvalues(&ss, &sweep).unwrap();
    assert!(!out.quarantined.is_empty(), "env fault plan ignored");
    assert!(out.covered_fraction < 1.0);
    assert!(!out.coverage_gaps.is_empty());

    // An explicit (empty) plan in the options overrides the env hook, so
    // this sweep runs healthy.
    let opts = sweep.with_fault_plan(FaultPlan::default());
    let out = find_imaginary_eigenvalues(&ss, &opts).unwrap();
    assert!(
        out.quarantined.is_empty(),
        "an explicit plan should override the env plan"
    );
    assert_eq!(out.covered_fraction, 1.0);
    assert!(!out.frequencies.is_empty());
}
