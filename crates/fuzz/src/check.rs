//! The property harness: runs one deck through the full pipeline (or the
//! parser, for text-layer scenarios) and judges the outcome against its
//! [`Expectation`].
//!
//! Every check runs under `catch_unwind`, so a panic anywhere in the
//! parse/fit/sweep/enforce stack is itself a reportable failure (class
//! `"panic"`), never a harness abort. Failures carry a coarse stable
//! `class` so the minimizer can shrink a deck while preserving the
//! *kind* of failure (shrinking a missed-crossing deck into a deck that
//! merely fails to fit would be minimization slippage).

use crate::oracle::{disks_cover_band, match_crossings, try_oracle_crossings};
use crate::scenario::Expectation;
use pheig_core::characterization::characterize;
use pheig_core::error::SolverError;
use pheig_core::pipeline::{Pipeline, PipelineOptions};
use pheig_core::solver::find_imaginary_eigenvalues;
use pheig_model::touchstone::read_touchstone;
use pheig_model::FrequencySamples;
use pheig_vectorfit::vector_fit;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One judged check failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Coarse, stable failure class (`"crossings-mismatch"`,
    /// `"coverage-gap"`, `"residual-violations"`, `"output-not-passive"`,
    /// `"pipeline-error"`, `"oracle-error"`, `"accepted-nonfinite"`,
    /// `"accepted-malformed"`, `"torture-mismatch"`, `"panic"`, ...).
    pub class: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl Failure {
    fn new(class: &'static str, detail: impl Into<String>) -> Self {
        Failure {
            class,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.class, self.detail)
    }
}

/// Runs `deck` against `expect`, converting panics into failures.
pub fn check_deck(
    deck: &str,
    ports: Option<usize>,
    poles: usize,
    expect: &Expectation,
) -> Result<(), Failure> {
    let outcome = catch_unwind(AssertUnwindSafe(|| match expect {
        Expectation::Differential => check_differential(deck, ports, poles),
        Expectation::ParsesLike {
            reference,
            reference_ports,
        } => check_parses_like(deck, ports, reference, *reference_ports),
        Expectation::TypedError => check_typed_error(deck, ports),
    }));
    match outcome {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(Failure::new("panic", msg))
        }
    }
}

/// Convenience wrapper: judge a whole [`crate::scenario::FuzzCase`].
pub fn check_case(case: &crate::scenario::FuzzCase) -> Result<(), Failure> {
    check_deck(
        &case.deck,
        case.ports_hint,
        case.poles_per_column,
        &case.expect,
    )
}

/// The full differential property: parse -> fit -> characterize ->
/// enforce, then verify every pipeline verdict against the dense oracle.
///
/// The invariants are on the *fitted* model (and the enforced output), so
/// fit quality never weakens the check: whatever rational model the fit
/// produced, the sweep must find exactly its imaginary Hamiltonian
/// spectrum, the certified disks must cover the band, and an `Ok` run
/// must emit a model the dense oracle agrees is passive.
fn check_differential(deck: &str, ports: Option<usize>, poles: usize) -> Result<(), Failure> {
    let pipeline = Pipeline::from_touchstone(deck, ports)
        .map_err(|e| Failure::new("pipeline-error", format!("parse failed: {e}")))?;
    // The zoo's orders sit below the dense crossover; it differentiates
    // the sweep against the dense oracle, so every sweep here iterates.
    let mut opts = PipelineOptions::new().with_poles_per_column(poles);
    opts.solver.dense_max = 0;
    let out = match pipeline.run(&opts) {
        Ok(out) => out,
        // A stalled enforcement is a typed, legitimate outcome on a hard
        // deck — the differential obligation shifts to the
        // characterization stage, which must still agree with the oracle.
        Err(SolverError::EnforcementStalled { .. }) => {
            return check_characterization_only(&pipeline, &opts)
        }
        Err(e) => return Err(Failure::new("pipeline-error", format!("run failed: {e}"))),
    };

    // 1. The sweep on the fitted model found exactly the dense spectrum.
    let fitted_ss = out.fitted.realize();
    let want = try_oracle_crossings(&fitted_ss).map_err(|e| Failure::new("oracle-error", e))?;
    let tol = 1e-5 * out.report.sweep.band.1;
    match_crossings(&out.report.initial_report.crossings, &want, tol)
        .map_err(|e| Failure::new("crossings-mismatch", e))?;

    // 2. The scheduler's certified disks cover the whole search band.
    let sweep = &out.report.sweep;
    disks_cover_band(sweep.certificate, &sweep.shift_log, sweep.band)
        .map_err(|e| Failure::new("coverage-gap", e))?;

    // 3. An Ok run reports zero residual violations...
    if out.report.residual_violations() != 0 {
        return Err(Failure::new(
            "residual-violations",
            format!(
                "pipeline returned Ok with {} residual violation band(s)",
                out.report.residual_violations()
            ),
        ));
    }

    // 4. ...and the dense oracle agrees the output model is passive
    //    (production band logic over the oracle's crossing set).
    let after = try_oracle_crossings(&out.state_space)
        .map_err(|e| Failure::new("oracle-error", format!("output model: {e}")))?;
    let verdict = characterize(&out.state_space, &after)
        .map_err(|e| Failure::new("oracle-error", format!("output characterize: {e}")))?;
    if !verdict.is_passive() {
        return Err(Failure::new(
            "output-not-passive",
            format!(
                "dense oracle finds {} violation band(s) in the output model (max sigma {:.9})",
                verdict.bands.len(),
                verdict.max_sigma()
            ),
        ));
    }
    Ok(())
}

/// The characterization-only differential, used when enforcement stalls:
/// re-run the deterministic fit and sweep stages directly and check the
/// located crossings and disk coverage against the dense oracle. (The fit
/// and sweep are deterministic, so this is the same fitted model the
/// stalled pipeline run characterized.)
fn check_characterization_only(pipeline: &Pipeline, opts: &PipelineOptions) -> Result<(), Failure> {
    let fit = vector_fit(pipeline.samples(), &opts.vectorfit)
        .map_err(|e| Failure::new("pipeline-error", format!("re-fit failed: {e}")))?;
    let ss = fit.state_space();
    let outcome = find_imaginary_eigenvalues(&ss, &opts.solver)
        .map_err(|e| Failure::new("pipeline-error", format!("re-sweep failed: {e}")))?;
    let want = try_oracle_crossings(&ss).map_err(|e| Failure::new("oracle-error", e))?;
    let tol = 1e-5 * outcome.band.1;
    match_crossings(&outcome.frequencies, &want, tol)
        .map_err(|e| Failure::new("crossings-mismatch", e))?;
    disks_cover_band(outcome.certificate, &outcome.shift_log, outcome.band)
        .map_err(|e| Failure::new("coverage-gap", e))
}

/// The parse-differential property: a structurally abused deck must parse
/// to bit-identical data as its clean rendering.
fn check_parses_like(
    deck: &str,
    ports: Option<usize>,
    reference: &str,
    reference_ports: Option<usize>,
) -> Result<(), Failure> {
    let abused = read_touchstone(deck, ports)
        .map_err(|e| Failure::new("torture-rejected", format!("abused deck rejected: {e}")))?;
    let clean = read_touchstone(reference, reference_ports)
        .map_err(|e| Failure::new("torture-mismatch", format!("reference rejected: {e}")))?;
    if abused.options != clean.options {
        return Err(Failure::new(
            "torture-mismatch",
            format!(
                "option lines diverged: {:?} vs {:?}",
                abused.options, clean.options
            ),
        ));
    }
    samples_identical(&abused.samples, &clean.samples)
        .map_err(|e| Failure::new("torture-mismatch", e))
}

/// Bit-identity of two sample sets (same tokens through the same decode
/// path must give the same floats — any drift means the parser let the
/// line structure leak into the data).
fn samples_identical(a: &FrequencySamples, b: &FrequencySamples) -> Result<(), String> {
    if a.ports() != b.ports() || a.len() != b.len() {
        return Err(format!(
            "shape diverged: {} port(s) x {} point(s) vs {} x {}",
            a.ports(),
            a.len(),
            b.ports(),
            b.len()
        ));
    }
    for (k, (wa, wb)) in a.omegas().iter().zip(b.omegas()).enumerate() {
        if wa.to_bits() != wb.to_bits() {
            return Err(format!("omega[{k}] diverged: {wa} vs {wb}"));
        }
    }
    for (k, (ma, mb)) in a.matrices().iter().zip(b.matrices()).enumerate() {
        for i in 0..a.ports() {
            for j in 0..a.ports() {
                let (x, y) = (ma[(i, j)], mb[(i, j)]);
                if x.re.to_bits() != y.re.to_bits() || x.im.to_bits() != y.im.to_bits() {
                    return Err(format!(
                        "sample {k} entry ({i},{j}) diverged: {x:?} vs {y:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The rejection property: a malformed deck must come back as a typed
/// error. Acceptance is classified by whether the parsed data contains
/// non-finite values (the parser invariant "accepted decks hold only
/// finite samples" is what non-finite-token garbage probes).
fn check_typed_error(deck: &str, ports: Option<usize>) -> Result<(), Failure> {
    match read_touchstone(deck, ports) {
        Err(_) => Ok(()), // typed rejection: exactly what we want
        Ok(parsed) => {
            // The conversion layer must not panic either.
            let _ = parsed.scattering_samples();
            if has_nonfinite(&parsed.samples) {
                Err(Failure::new(
                    "accepted-nonfinite",
                    "parser accepted a deck with non-finite frequencies or values",
                ))
            } else {
                Err(Failure::new(
                    "accepted-malformed",
                    "parser accepted a deck constructed to be malformed",
                ))
            }
        }
    }
}

/// `true` when any frequency or matrix entry is NaN or infinite.
pub fn has_nonfinite(samples: &FrequencySamples) -> bool {
    if samples.omegas().iter().any(|w| !w.is_finite()) {
        return true;
    }
    samples
        .matrices()
        .iter()
        .any(|m| (0..m.rows()).any(|i| (0..m.cols()).any(|j| !m[(i, j)].is_finite())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_error_check_accepts_rejections_and_flags_acceptance() {
        assert!(check_typed_error("# GHz W RI\n1 0 0\n", None).is_ok());
        // A perfectly valid deck "fails" the typed-error expectation.
        let err = check_typed_error("# Hz S RI R 50\n1 0.5 0\n2 0.25 0\n", None).unwrap_err();
        assert_eq!(err.class, "accepted-malformed");
    }

    #[test]
    fn panics_become_failures() {
        let r = check_deck(
            "anything",
            None,
            4,
            &Expectation::ParsesLike {
                reference: String::new(),
                reference_ports: None,
            },
        );
        // No panic expected here, but the result must be a Failure, not
        // an unwind (reference is unparseable -> torture-rejected first).
        assert!(r.is_err());
    }
}
