//! The dense dispatch against the sweep it replaces below the crossover.
//!
//! Under `SolverOptions::dense_max` a sweep is one eigensolve of the whole
//! dense Hamiltonian. Every other differential in the suite runs with
//! `dense_max = 0` (the dense oracle must not be compared with itself), so
//! this file is where the dense path answers for itself, on the models it
//! actually serves: the fitted decks of the fuzz zoo (clustered and
//! near-tangent families included), the generator seeds of the
//! `enforce_family` benchmark workload and the canonical demo case.
//!
//! For each model:
//! - the dense crossing set equals the iterative one (`match_crossings`);
//! - every dense crossing's eigenvector satisfies `M x = j omega x` to a
//!   rounding-sized relative residual;
//! - `sigma_max(H(j omega)) - 1` changes sign across every dense crossing,
//!   or the crossing is tangent (`sigma_max` on the threshold itself).
//!
//! And a batch of full pipelines on the dense path gives bitwise the same
//! results on 1, 2 and 4 workers as one job at a time; the crossing polish
//! both paths apply puts perturbed dense crossings back on the axis.

use pheig::core::solver::{find_imaginary_eigenvalues, Certificate, SolverOptions, SolverOutcome};
use pheig::core::spectrum::polish;
use pheig::hamiltonian::dense_hamiltonian;
use pheig::linalg::vector::normalize;
use pheig::linalg::C64;
use pheig::model::generator::{generate_case, CaseSpec};
use pheig::model::transfer::sigma_max;
use pheig::model::{FrequencySamples, StateSpace};
use pheig::vectorfit::{vector_fit, VectorFitOptions};
use pheig::{run_batch, PassiveModel, Pipeline, PipelineOptions};
use pheig_fuzz::oracle::{disks_cover_band, match_crossings};
use pheig_fuzz::{Expectation, FuzzCase, Scenario};

/// Crossing sets agree to this share of the band's top frequency.
const CROSSING_REL_TOL: f64 = 1e-6;
/// `|sigma_max - 1|` at a crossing the curve only touches.
const TANGENT_TOL: f64 = 1e-6;
/// `||M x - j omega x|| / ||M||_F` of a dense crossing's eigenvector.
const RESIDUAL_TOL: f64 = 1e-11;

/// The dense and the iterative answer on `ss`, checked as the module
/// docs say; `Err` names what disagreed.
fn check_model(ss: &StateSpace) -> Result<(), String> {
    let dense =
        find_imaginary_eigenvalues(ss, &SolverOptions::default().with_dense_max(usize::MAX))
            .map_err(|e| format!("dense solve: {e}"))?;
    let swept = find_imaginary_eigenvalues(ss, &SolverOptions::default().with_dense_max(0))
        .map_err(|e| format!("sweep: {e}"))?;
    assert_eq!(dense.certificate, Certificate::DenseWholeBand);
    assert_eq!(swept.certificate, Certificate::Disks);
    disks_cover_band(dense.certificate, &dense.shift_log, dense.band)?;
    if dense.covered_fraction != 1.0 || !dense.quarantined.is_empty() {
        return Err(format!("dense coverage {}", dense.covered_fraction));
    }
    let tol = CROSSING_REL_TOL * swept.band.1;
    match_crossings(&dense.frequencies, &swept.frequencies, tol)
        .map_err(|e| format!("dense vs sweep: {e}"))?;
    check_eigenvectors(ss, &dense)?;
    check_sigma_crossings(ss, &dense, tol)
}

/// Every reported eigenvector is a unit eigenvector of the Hamiltonian for
/// its crossing, to a rounding-sized relative residual.
fn check_eigenvectors(ss: &StateSpace, out: &SolverOutcome) -> Result<(), String> {
    let m = dense_hamiltonian(ss).map_err(|e| e.to_string())?.to_c64();
    let norm = m.frobenius_norm();
    for e in &out.eigenpairs {
        let unit = e.vector.iter().map(|x| x.abs_sq()).sum::<f64>().sqrt();
        let shift = C64::from_imag(e.lambda.im);
        let residual = m
            .matvec(&e.vector)
            .iter()
            .zip(e.vector.iter())
            .map(|(&y, &x)| (y - shift * x).abs_sq())
            .sum::<f64>()
            .sqrt()
            / norm;
        if (unit - 1.0).abs() > 1e-12 || residual > RESIDUAL_TOL {
            return Err(format!(
                "crossing {}: |x| = {unit}, relative residual {residual}",
                e.omega
            ));
        }
    }
    Ok(())
}

/// `sigma_max - 1` changes sign within `delta` of every crossing, unless
/// the crossing is tangent.
fn check_sigma_crossings(ss: &StateSpace, out: &SolverOutcome, delta: f64) -> Result<(), String> {
    let excess = |w: f64| sigma_max(ss, w).map(|s| s - 1.0).map_err(|e| e.to_string());
    for &w in &out.frequencies {
        let (below, at, above) = (
            excess((w - delta).max(0.0))?,
            excess(w)?,
            excess(w + delta)?,
        );
        if below * above >= 0.0 && at.abs() > TANGENT_TOL {
            return Err(format!(
                "crossing {w}: sigma_max - 1 = {below:e} / {at:e} / {above:e}, no sign change"
            ));
        }
    }
    Ok(())
}

/// Decks of every differential zoo family — two each of the clustered and
/// near-tangent ones — fitted as the fuzz harness fits them.
#[test]
fn zoo_families_agree_with_the_sweep() {
    let mut failures = Vec::new();
    let mut seen = Vec::new();
    for seed in (0u64..9).chain([13, 14]) {
        let case = FuzzCase::from_seed(seed);
        assert!(matches!(case.expect, Expectation::Differential));
        seen.push(case.scenario);
        let pipeline = Pipeline::from_touchstone(&case.deck, case.ports_hint).unwrap();
        let vf = VectorFitOptions::new(case.poles_per_column).with_iterations(8);
        let ss = vector_fit(pipeline.samples(), &vf).unwrap().state_space();
        if let Err(e) = check_model(&ss) {
            failures.push(format!(
                "seed={seed} scenario={}: {e}",
                case.scenario.name()
            ));
        }
    }
    assert!(seen.contains(&Scenario::ClusteredCrossings));
    assert!(seen.contains(&Scenario::GrazingPeak));
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The 24-state 2-port models behind the `enforce_family` workload — its
/// twelve clean seeds and the stall probe (seed 6) — and the demo case.
#[test]
fn enforce_family_seeds_and_demo_agree_with_the_sweep() {
    let family = [1u64, 2, 3, 5, 6, 8, 10, 11, 14, 15, 17, 23, 24].map(|seed| {
        CaseSpec::new(24, 2)
            .with_seed(seed)
            .with_target_crossings(2)
            .with_damping(0.02, 0.09)
    });
    let mut failures = Vec::new();
    for spec in family.iter().chain([&CaseSpec::demo_nonpassive()]) {
        let ss = generate_case(spec).unwrap().realize();
        if let Err(e) = check_model(&ss) {
            failures.push(format!("{spec:?}: {e}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Full pipelines (fit, dense characterization, dense re-sweeps inside
/// enforcement) as one batch: the results are bitwise those of one job at
/// a time, on every worker count.
#[test]
fn batch_on_the_dense_path_is_bitwise_across_thread_counts() {
    let nonpassive = [101u64, 100, 103].map(|s| CaseSpec::demo_nonpassive().with_seed(s));
    let passive = [40u64, 41].map(|s| CaseSpec::new(16, 2).with_seed(s).with_target_crossings(0));
    let jobs: Vec<Pipeline> = nonpassive
        .iter()
        .chain(&passive)
        .map(|spec| {
            let model = generate_case(spec).unwrap();
            Pipeline::from_samples(FrequencySamples::from_model(&model, 0.01, 13.0, 200).unwrap())
        })
        .collect();
    let opts = PipelineOptions::default();
    let bits = |m: &PassiveModel| -> Vec<u64> {
        let c = m.state_space.c();
        let mut out: Vec<u64> = (0..c.rows())
            .flat_map(|i| c.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .collect();
        out.extend(
            m.report
                .initial_report
                .crossings
                .iter()
                .map(|w| w.to_bits()),
        );
        out.push(m.report.fit.rms_error.to_bits());
        out
    };
    let reference: Vec<PassiveModel> = jobs.iter().map(|j| j.run(&opts).unwrap()).collect();
    for model in &reference {
        assert_eq!(model.report.sweep.certificate, Certificate::DenseWholeBand);
        assert!(model.report.final_report.is_passive());
    }
    assert!(reference
        .iter()
        .any(|m| !m.report.initial_report.crossings.is_empty()));
    let want: Vec<Vec<u64>> = reference.iter().map(bits).collect();
    for threads in [1usize, 2, 4] {
        let got = run_batch(&jobs, &opts, threads);
        for (slot, (result, expected)) in got.iter().zip(&want).enumerate() {
            let model = result.as_ref().expect("batch job succeeded");
            assert!(
                &bits(model) == expected,
                "job {slot} diverged from the sequential path at T = {threads}"
            );
        }
    }
}

/// `spectrum::polish` on the dense crossings of a small model, each
/// eigenvector moved by 1e-6 in norm and its estimate off the axis:
/// the two-sided Rayleigh quotient returns every crossing to within 1e-9
/// of the dense one, exactly on the axis. A candidate whose `x^H J x` is 0
/// keeps its raw estimate.
#[test]
fn polish_returns_perturbed_crossings_to_the_axis() {
    let ss = generate_case(&CaseSpec::new(24, 2).with_seed(31).with_target_crossings(4))
        .unwrap()
        .realize();
    let dense = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
    assert_eq!(dense.certificate, Certificate::DenseWholeBand);
    assert!(!dense.eigenpairs.is_empty());
    let axis_tol = 1e-6 * dense.band.1;
    let raw = |lambda: C64| C64::new(1e-7, lambda.im + 1e-7);
    // A unit direction, so each eigenvector moves by exactly 1e-6 in norm.
    let mut dir: Vec<C64> = (0..2 * ss.order())
        .map(|i| C64::new((0.7 * i as f64).sin(), (0.3 * i as f64).cos()))
        .collect();
    normalize(&mut dir);
    let mut eigs = dense.eigenpairs.clone();
    for e in &mut eigs {
        let perturbed: Vec<C64> = e
            .vector
            .iter()
            .zip(&dir)
            .map(|(&x, &d)| x + d * 1e-6)
            .collect();
        e.vector = perturbed.into();
        e.lambda = raw(e.lambda);
    }
    polish(&ss, &mut eigs, axis_tol);
    for (got, want) in eigs.iter().zip(&dense.eigenpairs) {
        assert_eq!(got.lambda.re, 0.0, "crossing {}", want.omega);
        assert_eq!(got.omega, got.lambda.im.abs());
        assert!(
            (got.omega - want.omega).abs() <= 1e-9,
            "polished {} vs dense {}",
            got.omega,
            want.omega
        );
    }
    // `x = [x1; 0]`: `x^H J x = x1^H 0 - 0^H x1 = 0`.
    let mut tangent = dense.eigenpairs[0].clone();
    let mut half = tangent.vector.to_vec();
    half[ss.order()..].fill(C64::zero());
    tangent.vector = half.into();
    tangent.lambda = raw(tangent.lambda);
    let before = (tangent.lambda, tangent.omega.to_bits());
    polish(&ss, std::slice::from_mut(&mut tangent), axis_tol);
    assert_eq!((tangent.lambda, tangent.omega.to_bits()), before);
}
