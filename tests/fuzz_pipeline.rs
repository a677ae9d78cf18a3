//! The fuzz harness as a test suite: a quick one-cycle smoke pass over
//! the scenario zoo on every `cargo test`, the full ≥200-deck
//! differential sweep behind `--ignored` (CI slow-tests), the committed
//! regression corpus replayed forever, and the `from_touchstone_path`
//! error contract.
//!
//! The sweep itself (generation, checking, minimization) lives in
//! `crates/fuzz`; this file only drives it so a failure points at a seed
//! that `cargo run -p pheig-fuzz --example fuzz_sweep -- <seed> <seed+1>`
//! reproduces directly.

use pheig::core::error::SolverError;
use pheig::core::solver::{find_imaginary_eigenvalues, SolverOptions};
use pheig::model::touchstone::{DataFormat, FreqUnit, ParameterKind};
use pheig::model::ModelError;
use pheig::vectorfit::{vector_fit, VectorFitOptions};
use pheig::Pipeline;
use pheig_fuzz::oracle::{disks_cover_band, match_crossings};
use pheig_fuzz::{check_case, check_repro, Expectation, FuzzCase};

/// A cheap cycle of the zoo on every `cargo test`: one seed from each
/// scenario family except mild-violations (seed 1) and
/// clustered-crossings (seed 2), whose full-enforcement runs cost ~95 s
/// in a debug build — those two ride the `--ignored` sweep and the
/// release-profile CI fuzz-smoke step instead. Failures print the seed
/// so the example harness can replay them.
#[test]
fn fuzz_smoke_covers_the_cheap_scenarios() {
    let mut failures = Vec::new();
    for seed in [0u64, 3, 4, 5, 6, 7, 8, 9, 10] {
        let case = FuzzCase::from_seed(seed);
        if let Err(f) = check_case(&case) {
            failures.push(format!(
                "seed={seed} scenario={}: {f}",
                case.scenario.name()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The full differential sweep: ≥200 generated decks (override with
/// `PHEIG_FUZZ_SEED_COUNT`), every verdict checked against the dense
/// oracle, plus a coverage assertion that the zoo actually exercised
/// every Touchstone format, parameter kind, and frequency unit.
#[test]
#[ignore = "≥200-deck differential sweep (minutes in debug); run with --ignored or the release example"]
fn fuzz_zoo_differential_sweep() {
    let count: u64 = std::env::var("PHEIG_FUZZ_SEED_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(220);
    let mut failures = Vec::new();
    let (mut formats, mut kinds, mut units) = (Vec::new(), Vec::new(), Vec::new());
    for seed in 0..count {
        let case = FuzzCase::from_seed(seed);
        if !formats.contains(&case.options.format) {
            formats.push(case.options.format);
        }
        if !kinds.contains(&case.options.kind) {
            kinds.push(case.options.kind);
        }
        if !units.contains(&case.options.unit) {
            units.push(case.options.unit);
        }
        if let Err(f) = check_case(&case) {
            failures.push(format!(
                "seed={seed} scenario={}: {f}",
                case.scenario.name()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    for format in [
        DataFormat::RealImag,
        DataFormat::MagAngle,
        DataFormat::DbAngle,
    ] {
        assert!(formats.contains(&format), "{format:?} never generated");
    }
    for kind in [
        ParameterKind::Scattering,
        ParameterKind::Admittance,
        ParameterKind::Impedance,
    ] {
        assert!(kinds.contains(&kind), "{kind:?} never generated");
    }
    for unit in [FreqUnit::Hz, FreqUnit::KHz, FreqUnit::MHz, FreqUnit::GHz] {
        assert!(units.contains(&unit), "{unit:?} never generated");
    }
}

/// Warm-vs-cold differential on one zoo deck: fit the deck, sweep the
/// fitted model with recycling on and off, and require the same crossing
/// set plus full band coverage from both certificate sets.
fn check_recycling_differential(case: &FuzzCase) -> Result<(), String> {
    let pipeline = Pipeline::from_touchstone(&case.deck, case.ports_hint)
        .map_err(|e| format!("parse failed: {e}"))?;
    let vf = VectorFitOptions::new(case.poles_per_column).with_iterations(8);
    let fit = vector_fit(pipeline.samples(), &vf).map_err(|e| format!("fit failed: {e}"))?;
    let ss = fit.state_space();
    // Zoo decks sit below the dense crossover; recycling lives in the sweep.
    let sweep = SolverOptions::default().with_dense_max(0);
    let cold = find_imaginary_eigenvalues(&ss, &sweep.clone().with_recycling(false))
        .map_err(|e| format!("cold sweep failed: {e}"))?;
    let warm = find_imaginary_eigenvalues(&ss, &sweep.with_recycling(true))
        .map_err(|e| format!("warm sweep failed: {e}"))?;
    let tol = 1e-6 * cold.band.1.max(1.0);
    match_crossings(&warm.frequencies, &cold.frequencies, tol)
        .map_err(|e| format!("warm vs cold crossings: {e}"))?;
    disks_cover_band(cold.certificate, &cold.shift_log, cold.band)
        .map_err(|e| format!("cold coverage: {e}"))?;
    disks_cover_band(warm.certificate, &warm.shift_log, warm.band)
        .map_err(|e| format!("warm coverage: {e}"))
}

/// A cheap recycling on/off differential on every `cargo test`: a handful
/// of zoo decks, same-crossings + coverage both ways.
#[test]
fn recycling_differential_smoke() {
    let mut failures = Vec::new();
    for seed in [0u64, 3, 5, 7] {
        let case = FuzzCase::from_seed(seed);
        if !matches!(case.expect, Expectation::Differential) {
            continue;
        }
        if let Err(f) = check_recycling_differential(&case) {
            failures.push(format!(
                "seed={seed} scenario={}: {f}",
                case.scenario.name()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The full recycling differential: every Differential-expectation deck of
/// the zoo sweep (override the count with `PHEIG_FUZZ_SEED_COUNT`) must
/// report identical crossings with recycling on and off.
#[test]
#[ignore = "many-deck warm/cold differential (minutes in debug); run with --ignored (CI slow-tests)"]
fn fuzz_zoo_recycling_differential() {
    let count: u64 = std::env::var("PHEIG_FUZZ_SEED_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for seed in 0..count {
        let case = FuzzCase::from_seed(seed);
        if !matches!(case.expect, Expectation::Differential) {
            continue;
        }
        checked += 1;
        if let Err(f) = check_recycling_differential(&case) {
            failures.push(format!(
                "seed={seed} scenario={}: {f}",
                case.scenario.name()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(
        checked >= 20,
        "only {checked} differential decks in the sweep"
    );
}

/// Every committed repro deck must replay clean: each file encodes the
/// check it historically failed, and a failure here means a fixed defect
/// has regressed.
#[test]
fn regression_corpus_replays_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/regressions");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus/regressions exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension()
                .and_then(|x| x.to_str())
                .is_some_and(|x| x.starts_with('s') && x.ends_with('p'))
        })
        .collect();
    paths.sort();
    assert!(paths.len() >= 3, "regression corpus unexpectedly small");
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        if let Err(f) = check_repro(&text) {
            panic!("{} regressed: {f}", path.display());
        }
    }
}

fn in_file_path(err: &SolverError) -> &str {
    match err {
        SolverError::Model(ModelError::InFile { path, .. }) => path,
        other => panic!("expected ModelError::InFile, got {other:?}"),
    }
}

/// `Pipeline::from_touchstone_path` error contract: every failure — I/O
/// or parse — carries the offending file path, so batch tooling can name
/// the bad deck from the rendered message alone.
#[test]
fn pipeline_path_errors_carry_the_file() {
    let dir = std::env::temp_dir().join(format!("pheig-fuzz-path-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Missing file: the I/O failure itself must be located.
    let missing = dir.join("does-not-exist.s2p");
    let err = Pipeline::from_touchstone_path(&missing).unwrap_err();
    assert_eq!(in_file_path(&err), missing.display().to_string());

    // Truncated deck: data ends mid-record.
    let truncated = dir.join("truncated.s1p");
    std::fs::write(&truncated, "# GHz S RI R 50\n1.0 0.5 0.0\n2.0 0.5\n").unwrap();
    let err = Pipeline::from_touchstone_path(&truncated).unwrap_err();
    assert_eq!(in_file_path(&err), truncated.display().to_string());
    assert!(
        err.to_string().contains("mid-record"),
        "unexpected message: {err}"
    );

    // Zero frequency points: an option line with no data.
    let empty = dir.join("empty.s1p");
    std::fs::write(&empty, "# GHz S RI R 50\n! no data follows\n").unwrap();
    let err = Pipeline::from_touchstone_path(&empty).unwrap_err();
    assert_eq!(in_file_path(&err), empty.display().to_string());
    assert!(
        err.to_string().contains("no data lines"),
        "unexpected message: {err}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
