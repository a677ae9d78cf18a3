//! Extends the PR 2 allocation-free hot-path contract to the pipeline
//! path: the state space that comes out of `Touchstone -> vector fit ->
//! realize` must drive the structured operators with **zero** steady-state
//! heap allocations per matvec, exactly like generator-built models — the
//! realization route must not silently regress the contract.
//!
//! Also pins the single-shift iteration's allocation contract: on a warm
//! [`ArnoldiWorkspace`] a shift allocates for the eigenpairs it locks and
//! returns, never per round.
//!
//! The counting global allocator is `common/mod.rs` (same pattern as
//! `crates/hamiltonian/tests/alloc_free.rs`); the tests of this file take
//! turns under `SERIAL` because a concurrently running test would pollute
//! the counter.

mod common;

use common::allocations;
use pheig_arnoldi::single_shift::single_shift_on_op_with;
use pheig_arnoldi::{ArnoldiWorkspace, SingleShiftOptions, SingleShiftOutcome};
use pheig_core::pipeline::{Pipeline, PipelineOptions};
use pheig_hamiltonian::{CLinearOp, HamiltonianOp, ShiftInvertOp};
use pheig_linalg::C64;
use pheig_model::generator::{generate_case, CaseSpec};
use pheig_model::touchstone::{write_touchstone, TouchstoneOptions};
use pheig_model::FrequencySamples;
use std::sync::{Mutex, MutexGuard};

/// Counts allocations across `reps` steady-state applications of `op`.
fn allocations_during_applies(op: &dyn CLinearOp, reps: usize) -> u64 {
    let x: Vec<C64> = (0..op.dim())
        .map(|i| C64::new((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
        .collect();
    let mut y = vec![C64::zero(); op.dim()];
    // Warm-up: first application settles any lazy OS/runtime state.
    op.apply_into(&x, &mut y);
    let before = allocations();
    for _ in 0..reps {
        op.apply_into(&x, &mut y);
    }
    allocations() - before
}

/// One counter, one measuring test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock but leaves nothing to repair.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn pipeline_realized_models_keep_the_zero_alloc_matvec_contract() {
    let _turn = serial();
    // Drive a deck through the real pipeline front end (Touchstone parse +
    // vector fit + realization); the reference is passive so the output
    // realization is exactly the fitted one.
    let reference =
        generate_case(&CaseSpec::new(24, 3).with_seed(55).with_target_crossings(0)).unwrap();
    let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, 200).unwrap();
    let deck = write_touchstone(&samples, &TouchstoneOptions::default());
    let out = Pipeline::from_touchstone(&deck, Some(3))
        .unwrap()
        .run(&PipelineOptions::default().with_poles_per_column(8))
        .unwrap();
    let ss = out.state_space;
    assert_eq!(ss.ports(), 3);

    let si = ShiftInvertOp::new(&ss, C64::from_imag(2.0)).unwrap();
    let si_allocs = allocations_during_applies(&si, 200);
    assert_eq!(
        si_allocs, 0,
        "ShiftInvertOp::apply_into on a pipeline-realized model allocated {si_allocs} times \
         in 200 applies"
    );

    let ham = HamiltonianOp::new(&ss).unwrap();
    let ham_allocs = allocations_during_applies(&ham, 200);
    assert_eq!(
        ham_allocs, 0,
        "HamiltonianOp::apply_into on a pipeline-realized model allocated {ham_allocs} times \
         in 200 applies"
    );
}

#[test]
fn warm_workspace_shift_allocates_per_returned_pair_not_per_round() {
    let _turn = serial();
    let ss = generate_case(&CaseSpec::new(96, 3).with_seed(7).with_target_crossings(4))
        .unwrap()
        .realize();
    let op = ShiftInvertOp::new(&ss, C64::from_imag(3.0)).unwrap();
    let map = |mu: C64| op.to_hamiltonian_eigenvalue(mu);
    let mut ws = ArnoldiWorkspace::new();
    let mut shift = |opts: &SingleShiftOptions| -> (u64, SingleShiftOutcome) {
        let before = allocations();
        let out = single_shift_on_op_with(&op, &map, op.theta(), 1.0, 12.0, opts, &mut ws)
            .expect("the probe shift certifies");
        (allocations() - before, out)
    };
    let wide = SingleShiftOptions::new().with_seed(2);
    let narrow = wide.clone().with_max_subspace(16);
    // Warm-up: one shift of each shape grows every workspace buffer to
    // its high-water mark.
    shift(&wide);
    shift(&narrow);
    let (wide_allocs, wide_out) = shift(&wide);
    let (narrow_allocs, narrow_out) = shift(&narrow);
    assert!(
        narrow_out.restarts >= wide_out.restarts + 2,
        "the narrow subspace should need more rounds ({} vs {})",
        narrow_out.restarts,
        wide_out.restarts
    );
    // What a shift may allocate: one image (two planes) per locked pair,
    // one vector per returned eigenpair, the dense Rayleigh-Ritz solve's
    // temporaries and a few short per-shift lists — a constant and terms
    // in the pairs it locks and hands back, nothing in `max_subspace` or
    // the round count. (Before the round-closing
    // layer moved onto the workspace planes every round allocated
    // `m + O(1)` vectors plus an `m x m` clone per Ritz value: thousands
    // of blocks for either shift here.)
    let budget = |out: &SingleShiftOutcome| {
        2 * out.refine_dim as u64 + 3 * out.all_converged.len() as u64 + 24
    };
    for (what, allocs, out) in [
        ("wide", wide_allocs, &wide_out),
        ("narrow", narrow_allocs, &narrow_out),
    ] {
        assert!(
            allocs <= budget(out),
            "{what} shift ({} rounds, {} pairs locked, {} returned) allocated {allocs} blocks, \
             budget {}",
            out.restarts,
            out.refine_dim,
            out.all_converged.len(),
            budget(out)
        );
    }
}
