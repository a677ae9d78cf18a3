//! End-to-end integration: tabulated samples -> Vector Fitting ->
//! structured realization -> Hamiltonian passivity characterization ->
//! enforcement -> verification. This is the complete workflow the paper's
//! introduction motivates.

use pheig::core::characterization::characterize;
use pheig::core::enforcement::{enforce_passivity, EnforcementOptions};
use pheig::core::solver::{find_imaginary_eigenvalues, SolverOptions};
use pheig::model::generator::{generate_case, CaseSpec};
use pheig::model::touchstone::{read_touchstone, write_touchstone, TouchstoneOptions};
use pheig::model::transfer::sigma_max;
use pheig::model::FrequencySamples;
use pheig::vectorfit::{vector_fit, VectorFitOptions};

#[test]
fn samples_to_passive_model() {
    // Reference "device" with deliberate passivity violations.
    let reference = generate_case(&CaseSpec::demo_nonpassive()).unwrap();
    let samples = FrequencySamples::from_model(&reference, 0.01, 13.0, 200).unwrap();

    // Identification.
    let fit = vector_fit(&samples, &VectorFitOptions::new(8).with_iterations(8)).unwrap();
    assert!(fit.rms_error < 1e-5, "fit rms {}", fit.rms_error);
    let ss = fit.model.realize();
    assert_eq!(ss.ports(), 2);

    // Characterization: the fitted model inherits the reference's
    // violations (fit error is far below the violation amplitude). The
    // 16-state fit sits below the dense crossover; this differential
    // keeps the sweep under test (`tests/dense_dispatch.rs` has the dense
    // path's).
    let sweep = SolverOptions::default().with_dense_max(0);
    let outcome = find_imaginary_eigenvalues(&ss, &sweep).unwrap();
    let report = characterize(&fit.model, &outcome.frequencies).unwrap();
    assert!(
        !report.is_passive(),
        "fitted model should inherit violations"
    );
    for (&w, &s) in report.crossings.iter().zip(&report.sigma_at_crossings) {
        assert!((s - 1.0).abs() < 1e-4, "sigma at crossing {w} is {s}");
    }

    // Enforcement.
    let enf = EnforcementOptions {
        solver: sweep.clone(),
    };
    let enforced = enforce_passivity(&ss, &enf).unwrap();
    assert!(enforced.final_report.is_passive());

    // Independent verification: no crossings remain and the old peaks are
    // now at or below the unit threshold.
    let check = find_imaginary_eigenvalues(&enforced.state_space, &sweep).unwrap();
    assert!(check.frequencies.is_empty());
    for b in &report.bands {
        let s = sigma_max(&enforced.state_space, b.peak_omega).unwrap();
        assert!(
            s <= 1.0 + 1e-9,
            "sigma({}) = {s} after enforcement",
            b.peak_omega
        );
    }
}

#[test]
fn passive_reference_stays_passive_through_fit() {
    let reference =
        generate_case(&CaseSpec::new(12, 2).with_seed(55).with_target_crossings(0)).unwrap();
    let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, 160).unwrap();
    let fit = vector_fit(&samples, &VectorFitOptions::new(8)).unwrap();
    assert!(fit.rms_error < 1e-6);
    let ss = fit.model.realize();
    let outcome = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
    assert!(
        outcome.frequencies.is_empty(),
        "tight fit of a passive model must be passive, got {:?}",
        outcome.frequencies
    );
}

#[test]
fn touchstone_roundtrip_feeds_vector_fitting() {
    // Serialize samples to a Touchstone deck, parse it back, and fit: the
    // "import measurement data" path a downstream user would run.
    let reference = generate_case(&CaseSpec::new(8, 2).with_seed(6)).unwrap();
    let samples = FrequencySamples::from_model(&reference, 0.05, 11.0, 120).unwrap();
    let text = write_touchstone(&samples, &TouchstoneOptions::default());
    let deck = read_touchstone(&text, None).unwrap();
    assert_eq!(deck.ports(), 2);
    let parsed = deck.into_scattering_samples().unwrap();
    let fit = vector_fit(&parsed, &VectorFitOptions::new(8)).unwrap();
    assert!(
        fit.rms_error < 1e-6,
        "rms through Touchstone roundtrip: {}",
        fit.rms_error
    );
}

#[test]
fn facade_reexports_are_wired() {
    // The facade must expose every subsystem.
    let _ = pheig::linalg::C64::new(0.0, 1.0);
    let _ = pheig::model::Pole::Real(-1.0);
    let _ = pheig::arnoldi::SingleShiftOptions::default();
    let _ = pheig::core::SolverOptions::default();
    let _ = pheig::vectorfit::VectorFitOptions::new(4);
    // Pipeline types are re-exported at the crate root.
    let _ = pheig::PipelineOptions::default();
    let reference = generate_case(&CaseSpec::new(6, 2).with_seed(1)).unwrap();
    let samples = FrequencySamples::from_model(&reference, 0.1, 10.0, 40).unwrap();
    let _ = pheig::Pipeline::from_samples(samples);
    let ss = reference.realize();
    let m = pheig::hamiltonian::dense_hamiltonian(&ss).unwrap();
    assert_eq!(m.rows(), 12);
}
