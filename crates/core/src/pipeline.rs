//! The end-to-end macromodeling pipeline the paper's introduction
//! motivates: tabulated frequency data (a Touchstone deck) is fitted to a
//! rational macromodel (Vector Fitting), realized as the structured
//! state-space quadruple, passivity-characterized via the multi-shift
//! Hamiltonian sweep, and — when violations exist — perturbatively
//! enforced passive.
//!
//! Stage boundaries follow the workspace layering (each stage is the
//! public entry point of one crate, so every stage stays independently
//! testable):
//!
//! ```text
//! Touchstone text/path        pheig-model::touchstone (S/Y/Z -> S)
//!   -> FrequencySamples
//!   -> VectorFitOutcome       pheig-vectorfit::vector_fit
//!   -> StateSpace             VectorFitOutcome::state_space
//!   -> SolverOutcome          pheig-core::solver (multi-shift sweep)
//!   -> PassivityReport        pheig-core::characterization
//!   -> EnforcementOutcome     pheig-core::enforcement (skipped if passive)
//!   -> PassiveModel + PipelineReport
//! ```
//!
//! [`run_batch`] drives many decks through this flow as a job cohort on
//! the persistent [`Executor`]:
//! workers are spawned once per process, each executes jobs against a
//! pooled [`SolverWorkspace`] — the PR 2 scratch-reuse contract extended
//! across models *and* across batches.

use crate::characterization::{characterize, PassivityReport};
use crate::enforcement::EnforcementOptions;
use crate::error::SolverError;
use crate::exec::Executor;
use crate::solver::{
    find_imaginary_eigenvalues_with, Certificate, RecycleCounters, ShiftRecord, SolverOptions,
    SolverStats, SolverWorkspace,
};
use parking_lot::Mutex;
use pheig_model::touchstone::{read_touchstone, read_touchstone_path};
use pheig_model::{FrequencySamples, PoleResidueModel, StateSpace};
use pheig_vectorfit::{vector_fit, VectorFitOptions};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Options for one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Vector Fitting configuration (order, iterations, starts).
    pub vectorfit: VectorFitOptions,
    /// Eigensolver configuration for *every* sweep of the run: the
    /// characterization stage, the enforcement re-characterizations, and
    /// the final verification all use this one configuration, so the
    /// before/after reports are directly comparable.
    pub solver: SolverOptions,
    /// Inert: [`Pipeline::run_with`] replaces its only field, `solver`,
    /// with [`PipelineOptions::solver`], so the two sweep configurations
    /// cannot drift apart. Kept only while `benchmark/` reads it, as
    /// [`ExecutorStats::steals`](crate::exec::ExecutorStats::steals) is.
    pub enforcement: EnforcementOptions,
}

impl PipelineOptions {
    /// Defaults: 8 poles per column, 8 relocation iterations, serial
    /// solver, default enforcement.
    pub fn new() -> Self {
        PipelineOptions {
            vectorfit: VectorFitOptions::new(8).with_iterations(8),
            solver: SolverOptions::default(),
            enforcement: EnforcementOptions::default(),
        }
    }

    /// Sets the Vector Fitting order (poles per port column).
    pub fn with_poles_per_column(mut self, poles: usize) -> Self {
        self.vectorfit.poles_per_column = poles;
        self
    }
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// Diagnostics of the identification stage.
#[derive(Debug, Clone)]
pub struct FitDiagnostics {
    /// Root-mean-square entrywise fit error over the input grid.
    pub rms_error: f64,
    /// Largest entrywise fit error.
    pub max_error: f64,
    /// Dynamic order of the fitted realization.
    pub order: usize,
    /// Port count.
    pub ports: usize,
    /// Number of frequency samples consumed.
    pub samples: usize,
    /// Wall-clock time of the fit.
    pub wall: Duration,
}

/// Diagnostics of one eigenvalue sweep (characterization stage).
#[derive(Debug, Clone)]
pub struct SweepDiagnostics {
    /// Crossing frequencies located.
    pub crossings: usize,
    /// The search band covered.
    pub band: (f64, f64),
    /// Per-shift telemetry in deterministic (frequency) order.
    pub shift_log: Vec<ShiftRecord>,
    /// Fraction of the band covered by certified disks (`1.0` healthy).
    pub covered_fraction: f64,
    /// What certifies the coverage: `shift_log`'s disks, or a dense
    /// whole-band solve.
    pub certificate: Certificate,
    /// The sweep's own statistics (scheduler counters, matvecs, recycling,
    /// quarantined shifts, injected faults).
    pub stats: SolverStats,
    /// Wall-clock time of the stage (sweep plus characterization).
    pub wall: Duration,
}

/// Diagnostics of the enforcement stage (`None` when the fitted model was
/// already passive and the stage was skipped).
#[derive(Debug, Clone)]
pub struct EnforcementDiagnostics {
    /// Outer enforcement iterations performed.
    pub iterations: usize,
    /// Frobenius norm of the total applied residue perturbation.
    pub delta_c_norm: f64,
    /// Recycling telemetry aggregated over the stage's re-characterization
    /// sweeps.
    pub recycle: RecycleCounters,
    /// Wall-clock time of the enforcement loop.
    pub wall: Duration,
}

/// Per-stage report of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Identification diagnostics.
    pub fit: FitDiagnostics,
    /// Characterization sweep diagnostics.
    pub sweep: SweepDiagnostics,
    /// Passivity report of the *fitted* model (violations before).
    pub initial_report: PassivityReport,
    /// Enforcement diagnostics (`None` when skipped).
    pub enforcement: Option<EnforcementDiagnostics>,
    /// Passivity report of the *output* model (violations after; empty
    /// bands on success).
    pub final_report: PassivityReport,
    /// End-to-end wall-clock time.
    pub wall: Duration,
}

impl PipelineReport {
    /// Number of violation bands remaining in the output model (0 on
    /// success).
    pub fn residual_violations(&self) -> usize {
        self.final_report.bands.len()
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fit:       order {} / {} port(s), {} samples, rms {:.3e}, max {:.3e} ({:.1} ms)",
            self.fit.order,
            self.fit.ports,
            self.fit.samples,
            self.fit.rms_error,
            self.fit.max_error,
            self.fit.wall.as_secs_f64() * 1e3
        )?;
        writeln!(
            f,
            "sweep:     {} crossing(s) on [{:.4}, {:.4}], {} shift(s), {} matvecs, \
             {} warm-started, {} deleted tentative ({:.1} ms)",
            self.sweep.crossings,
            self.sweep.band.0,
            self.sweep.band.1,
            self.sweep.shift_log.len(),
            self.sweep.stats.total_matvecs,
            self.sweep.stats.warm_started_shifts,
            self.sweep.stats.scheduler.deleted_tentative,
            self.sweep.wall.as_secs_f64() * 1e3
        )?;
        writeln!(
            f,
            "violations before: {} band(s), max sigma {:.6}",
            self.initial_report.bands.len(),
            self.initial_report.max_sigma()
        )?;
        match &self.enforcement {
            Some(e) => writeln!(
                f,
                "enforce:   {} iteration(s), ||Delta C||_F = {:.3e} ({:.1} ms)",
                e.iterations,
                e.delta_c_norm,
                e.wall.as_secs_f64() * 1e3
            )?,
            None => writeln!(f, "enforce:   skipped (already passive)")?,
        }
        write!(
            f,
            "violations after:  {} band(s), max sigma {:.6} (total {:.1} ms)",
            self.residual_violations(),
            self.final_report.max_sigma(),
            self.wall.as_secs_f64() * 1e3
        )
    }
}

/// A passivity-enforced macromodel with full provenance.
#[derive(Debug, Clone)]
pub struct PassiveModel {
    /// The fitted pole–residue model (pre-enforcement; poles and `D` are
    /// shared with the output realization).
    pub fitted: PoleResidueModel,
    /// The enforced state-space realization (perturbed `C`).
    pub state_space: StateSpace,
    /// Per-stage diagnostics.
    pub report: PipelineReport,
}

/// One macromodeling job: frequency samples waiting to be fitted,
/// characterized, and enforced.
///
/// # Example
///
/// ```no_run
/// use pheig_core::pipeline::{Pipeline, PipelineOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let out = Pipeline::from_touchstone_path("device.s2p")?
///     .run(&PipelineOptions::default())?;
/// assert_eq!(out.report.residual_violations(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    samples: FrequencySamples,
    /// Test-only seam: a poisoned pipeline unwinds at the top of
    /// [`Pipeline::run_with`], standing in for a panic in any downstream
    /// stage so the batch-level containment path is exercisable from a
    /// unit test.
    #[cfg(test)]
    poison: bool,
}

impl Pipeline {
    /// Builds a pipeline directly from frequency samples.
    pub fn from_samples(samples: FrequencySamples) -> Self {
        Pipeline {
            samples,
            #[cfg(test)]
            poison: false,
        }
    }

    /// Parses a Touchstone deck from text. Y and Z decks are converted to
    /// scattering form with the option-line reference resistance.
    ///
    /// `ports` is the port count when known (wrapped records require it);
    /// `None` infers it from the first data line.
    ///
    /// # Errors
    ///
    /// Propagates [`pheig_model::ModelError`] parse/conversion failures as
    /// [`SolverError::Model`].
    pub fn from_touchstone(text: &str, ports: Option<usize>) -> Result<Self, SolverError> {
        let deck = read_touchstone(text, ports)?;
        Ok(Pipeline::from_samples(deck.into_scattering_samples()?))
    }

    /// Parses a Touchstone deck from a file, inferring the port count from
    /// the `.sNp` extension.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::from_touchstone`], plus I/O failures. Every
    /// error carries the offending file path
    /// ([`pheig_model::ModelError::InFile`]) in addition to the parse
    /// location, so a failing deck in a batch is identifiable from the
    /// rendered message alone.
    pub fn from_touchstone_path(path: impl AsRef<std::path::Path>) -> Result<Self, SolverError> {
        let path = path.as_ref();
        let deck = read_touchstone_path(path)?;
        let samples = deck
            .into_scattering_samples()
            .map_err(|e| pheig_model::ModelError::in_file(path, e))?;
        Ok(Pipeline::from_samples(samples))
    }

    /// The samples this pipeline will fit.
    pub fn samples(&self) -> &FrequencySamples {
        &self.samples
    }

    /// Runs the full flow: fit, characterize, enforce (when needed),
    /// re-verify.
    ///
    /// # Errors
    ///
    /// * [`SolverError::VectorFit`] when the identification stage fails
    ///   (e.g. an underdetermined fit);
    /// * solver and enforcement failures from the downstream stages.
    pub fn run(&self, opts: &PipelineOptions) -> Result<PassiveModel, SolverError> {
        self.run_with(opts, &mut SolverWorkspace::new())
    }

    /// [`Pipeline::run`] with caller-owned solver scratch, reused across
    /// every sweep of the run (characterization, enforcement trials, and
    /// final verification) — and across *models* when the caller loops.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::run`].
    pub fn run_with(
        &self,
        opts: &PipelineOptions,
        ws: &mut SolverWorkspace,
    ) -> Result<PassiveModel, SolverError> {
        let t0 = Instant::now();
        #[cfg(test)]
        if self.poison {
            // `resume_unwind` skips the global panic hook: the unwind is
            // the scenario under test, not noise worth printing.
            std::panic::resume_unwind(Box::new("poisoned test pipeline"));
        }

        // Stage 1: rational identification.
        let t_fit = Instant::now();
        let fit = vector_fit(&self.samples, &opts.vectorfit)?;
        let ss = fit.state_space();
        let fit_diag = FitDiagnostics {
            rms_error: fit.rms_error,
            max_error: fit.max_error,
            order: ss.order(),
            ports: ss.ports(),
            samples: self.samples.len(),
            wall: t_fit.elapsed(),
        };

        // Stage 2: passivity characterization (multi-shift sweep).
        let t_sweep = Instant::now();
        let outcome = find_imaginary_eigenvalues_with(&ss, &opts.solver, ws)?;
        let initial_report = characterize(&ss, &outcome.frequencies)?;
        let sweep_diag = SweepDiagnostics {
            crossings: outcome.frequencies.len(),
            band: outcome.band,
            shift_log: outcome.shift_log.clone(),
            covered_fraction: outcome.covered_fraction,
            certificate: outcome.certificate,
            stats: outcome.stats.clone(),
            wall: t_sweep.elapsed(),
        };

        // Stage 3: enforcement (skipped when already passive). The stage-2
        // characterization seeds the enforcement loop so the sweep — the
        // dominant cost — is not repeated on the unperturbed model, and
        // every sweep runs under the same `opts.solver` configuration.
        let (state_space, enforcement, final_report) = if initial_report.is_passive() {
            (ss, None, initial_report.clone())
        } else {
            let t_enf = Instant::now();
            let mut enf_opts = opts.enforcement.clone();
            enf_opts.solver = opts.solver.clone();
            let enforced = crate::enforcement::enforce_with_seed(
                &ss,
                &enf_opts,
                ws,
                Some((&outcome, &initial_report)),
            )?;
            let diag = EnforcementDiagnostics {
                iterations: enforced.iterations,
                delta_c_norm: enforced.delta_c_norm,
                recycle: enforced.recycle,
                wall: t_enf.elapsed(),
            };
            (enforced.state_space, Some(diag), enforced.final_report)
        };

        Ok(PassiveModel {
            fitted: fit.model,
            state_space,
            report: PipelineReport {
                fit: fit_diag,
                sweep: sweep_diag,
                initial_report,
                enforcement,
                final_report,
                wall: t0.elapsed(),
            },
        })
    }
}

/// Shared state of one batch cohort: the job list, the pull counter, and
/// the per-slot result cells. Constructed and owned by [`run_batch`],
/// which joins the cohort itself.
struct BatchShare<'a> {
    pipelines: &'a [Pipeline],
    opts: &'a PipelineOptions,
    next: AtomicUsize,
    results: &'a [Mutex<Option<Result<PassiveModel, SolverError>>>],
}

impl BatchShare<'_> {
    /// One cohort membership: pull jobs from the shared counter until the
    /// batch is drained. Job-level load balancing falls out of the pull
    /// discipline — an idle member takes the next job wherever it is, so
    /// one hard enforcement job cannot serialize the batch behind it.
    fn run(&self, ws: &mut SolverWorkspace) {
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(pipeline) = self.pipelines.get(idx) else {
                break;
            };
            // A panicking job is contained here, at the job boundary: its
            // slot reports a typed error while sibling jobs (and this
            // member, which moves on to the next slot) run unaffected.
            let result = catch_unwind(AssertUnwindSafe(|| pipeline.run_with(self.opts, ws)))
                .unwrap_or_else(|payload| Err(SolverError::from_panic(payload.as_ref())));
            *self.results[idx].lock() = Some(result);
        }
    }
}

/// Drives many pipelines with `threads`-way parallelism on the persistent
/// executor.
///
/// The batch is submitted as one job cohort: `threads - 1` pool members
/// plus the calling thread pull jobs from a shared counter, so stragglers
/// do not serialize the batch; results keep input order. Pool workers are
/// spawned **once per process** ([`Executor::pool`]) and execute jobs
/// against pooled [`SolverWorkspace`]s, so Krylov scratch is reused
/// across shifts, sweeps, models, and whole batches. `threads = 1`
/// degenerates to a sequential loop on the calling thread. Batch
/// parallelism composes with `opts.solver.threads` sweep parallelism —
/// nested sweeps schedule on the *same* pool instead of spawning their
/// own (see `crate::exec`).
///
/// Results are identical to the sequential path bit for bit, for any
/// thread count: jobs are independent and workspace contents never
/// influence results.
///
/// Per-job errors are reported per slot rather than aborting the batch.
pub fn run_batch(
    pipelines: &[Pipeline],
    opts: &PipelineOptions,
    threads: usize,
) -> Vec<Result<PassiveModel, SolverError>> {
    let concurrency = threads.max(1).min(pipelines.len().max(1));
    let results: Vec<Mutex<Option<Result<PassiveModel, SolverError>>>> =
        pipelines.iter().map(|_| Mutex::new(None)).collect();
    let share = BatchShare {
        pipelines,
        opts,
        next: AtomicUsize::new(0),
        results: &results,
    };
    let exec = Executor::current_or_pool(concurrency - 1);
    // Job-body panics are contained per slot inside `BatchShare::run`;
    // the cohort additionally contains anything that unwinds outside a
    // job body, so a batch can never abort the process.
    let cohort =
        exec.with_workspace(|ws| exec.run_cohort(concurrency - 1, ws, &|ws| share.run(ws)));
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner().unwrap_or_else(|| {
                Err(match &cohort {
                    Err(payload) => SolverError::from_panic(payload.as_ref()),
                    Ok(()) => SolverError::TaskPanicked {
                        message: "batch job slot left unfilled".to_string(),
                    },
                })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pheig_model::generator::{generate_case, CaseSpec};
    use pheig_model::touchstone::{write_touchstone, TouchstoneOptions};
    use pheig_model::transfer::sigma_max;

    fn nonpassive_deck() -> String {
        let reference = generate_case(&CaseSpec::demo_nonpassive()).unwrap();
        let samples = FrequencySamples::from_model(&reference, 0.01, 13.0, 200).unwrap();
        write_touchstone(&samples, &TouchstoneOptions::default())
    }

    #[test]
    fn touchstone_deck_to_passive_model() {
        let deck = nonpassive_deck();
        let pipeline = Pipeline::from_touchstone(&deck, None).unwrap();
        let out = pipeline.run(&PipelineOptions::default()).unwrap();
        assert!(
            out.report.fit.rms_error < 1e-5,
            "rms {}",
            out.report.fit.rms_error
        );
        assert!(
            !out.report.initial_report.is_passive(),
            "reference has violations"
        );
        assert!(out.report.enforcement.is_some());
        assert_eq!(out.report.residual_violations(), 0);
        assert!(out.report.final_report.is_passive());
        // Old peaks are at or below the threshold in the output model.
        for b in &out.report.initial_report.bands {
            let s = sigma_max(&out.state_space, b.peak_omega).unwrap();
            assert!(s <= 1.0 + 1e-9, "sigma({}) = {s}", b.peak_omega);
        }
        // The Display form mentions the headline numbers.
        let text = out.report.to_string();
        assert!(text.contains("violations after:  0 band(s)"), "{text}");
    }

    #[test]
    fn enforcement_sweeps_run_under_the_pipeline_solver() {
        // `run_with` replaces `opts.enforcement.solver` with `opts.solver`.
        // The 16-state deck sits below the dense crossover, so a re-sweep
        // is dense (0 matvecs) unless `dense_max = 0` forces the sweep.
        let pipeline = Pipeline::from_touchstone(&nonpassive_deck(), None).unwrap();
        let run = |opts: &PipelineOptions| {
            let out = pipeline.run(opts).unwrap();
            out.report.enforcement.expect("deck has violations").recycle
        };
        let mut opts = PipelineOptions::default();
        opts.enforcement.solver.dense_max = 0;
        let dense = run(&opts);
        assert!(dense.sweeps > 0);
        assert_eq!(dense.matvecs, 0, "enforcement ignored opts.solver");

        let mut opts = PipelineOptions::default();
        opts.solver.dense_max = 0;
        let swept = run(&opts);
        assert!(swept.sweeps > 0);
        assert!(swept.matvecs > 0, "enforcement ignored opts.solver");
    }

    #[test]
    fn passive_deck_skips_enforcement() {
        let reference =
            generate_case(&CaseSpec::new(12, 2).with_seed(55).with_target_crossings(0)).unwrap();
        let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, 160).unwrap();
        let out = Pipeline::from_samples(samples)
            .run(&PipelineOptions::default())
            .unwrap();
        assert!(out.report.enforcement.is_none());
        assert!(out.report.initial_report.is_passive());
        assert_eq!(out.report.residual_violations(), 0);
        assert!(out.report.to_string().contains("skipped"));
    }

    #[test]
    fn batch_results_keep_order_and_match_sequential() {
        let mut jobs = Vec::new();
        for seed in [55u64, 56] {
            let reference = generate_case(
                &CaseSpec::new(10, 2)
                    .with_seed(seed)
                    .with_target_crossings(0),
            )
            .unwrap();
            let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, 140).unwrap();
            jobs.push(Pipeline::from_samples(samples));
        }
        let opts = PipelineOptions::default();
        let parallel = run_batch(&jobs, &opts, 2);
        assert_eq!(parallel.len(), 2);
        for (job, got) in jobs.iter().zip(&parallel) {
            let want = job.run(&opts).unwrap();
            let got = got.as_ref().expect("batch job succeeded");
            assert_eq!(got.report.sweep.crossings, want.report.sweep.crossings);
            assert_eq!(got.report.fit.order, want.report.fit.order);
            assert!((got.report.fit.rms_error - want.report.fit.rms_error).abs() < 1e-12);
        }
        // Degenerate batches are fine.
        assert!(run_batch(&[], &opts, 4).is_empty());
    }

    #[test]
    fn batch_with_parallel_sweeps_nests_on_one_pool() {
        // Batch-level and sweep-level parallelism compose: each job's
        // multi-shift sweep opens a nested cohort, which must land on the
        // same persistent pool (no nested pool spawning) and still agree
        // with the fully serial configuration.
        let mut jobs = Vec::new();
        for seed in [55u64, 56, 57] {
            let reference = generate_case(
                &CaseSpec::new(10, 2)
                    .with_seed(seed)
                    .with_target_crossings(0),
            )
            .unwrap();
            let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, 140).unwrap();
            jobs.push(Pipeline::from_samples(samples));
        }
        // The 10-state jobs sit below the dense crossover, which opens no
        // cohort: they sweep.
        let mut serial_opts = PipelineOptions::default();
        serial_opts.solver.dense_max = 0;
        let mut nested_opts = serial_opts.clone();
        nested_opts.solver = nested_opts.solver.with_threads(2);
        let want: Vec<_> = jobs.iter().map(|j| j.run(&serial_opts).unwrap()).collect();

        let got = run_batch(&jobs, &nested_opts, 2);
        for (g, w) in got.iter().zip(&want) {
            let g = g.as_ref().expect("nested batch job succeeded");
            assert_eq!(g.report.sweep.crossings, w.report.sweep.crossings);
            assert_eq!(g.report.fit.order, w.report.fit.order);
        }
        // The first batch may create the cached pool; afterwards the
        // worker population must stay flat — nested sweeps reuse the same
        // pool instead of spawning their own.
        let spawned_after_first = crate::exec::threads_spawned_total();
        let again = run_batch(&jobs, &nested_opts, 2);
        assert!(again.iter().all(Result::is_ok));
        assert_eq!(
            crate::exec::threads_spawned_total(),
            spawned_after_first,
            "a repeated nested batch spawned new workers"
        );
    }

    #[test]
    fn panicking_batch_job_is_typed_while_siblings_complete() {
        // Job 1's body unwinds (via the test-only poison seam, standing
        // in for a panic anywhere in the fit/sweep/enforcement stages).
        // Its slot must report the typed `TaskPanicked` error; the
        // sibling jobs — including ones pulled *after* the panic by the
        // same cohort member — must complete with their usual results.
        let mut jobs = Vec::new();
        for seed in [55u64, 56, 57] {
            let reference = generate_case(
                &CaseSpec::new(10, 2)
                    .with_seed(seed)
                    .with_target_crossings(0),
            )
            .unwrap();
            let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, 140).unwrap();
            jobs.push(Pipeline::from_samples(samples));
        }
        let opts = PipelineOptions::default();
        let want: Vec<_> = jobs.iter().map(|j| j.run(&opts).unwrap()).collect();
        jobs[1].poison = true;

        for threads in [1usize, 2] {
            let results = run_batch(&jobs, &opts, threads);
            assert_eq!(results.len(), 3);
            let Err(err) = &results[1] else {
                panic!("poisoned job must fail")
            };
            assert!(
                matches!(err, SolverError::TaskPanicked { .. }),
                "expected TaskPanicked, got {err:?}"
            );
            assert!(err.to_string().contains("poisoned"), "{err}");
            for i in [0usize, 2] {
                let got = results[i].as_ref().expect("sibling job must complete");
                assert_eq!(got.report.sweep.crossings, want[i].report.sweep.crossings);
                assert_eq!(got.report.fit.order, want[i].report.fit.order);
                assert!((got.report.fit.rms_error - want[i].report.fit.rms_error).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn batch_reports_per_job_errors() {
        // Job 0 is unfittable with these options (underdetermined); job 1
        // is fine — the batch must return one Err and one Ok.
        let reference =
            generate_case(&CaseSpec::new(8, 2).with_seed(7).with_target_crossings(0)).unwrap();
        let tiny = FrequencySamples::from_model(&reference, 0.1, 10.0, 3).unwrap();
        let good = FrequencySamples::from_model(&reference, 0.01, 12.0, 120).unwrap();
        let jobs = vec![Pipeline::from_samples(tiny), Pipeline::from_samples(good)];
        let results = run_batch(&jobs, &PipelineOptions::default(), 2);
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
    }

    #[test]
    fn malformed_touchstone_is_a_typed_error() {
        assert!(matches!(
            Pipeline::from_touchstone("# GHz S XX\n1.0 0.0 0.0\n", None),
            Err(SolverError::Model(
                pheig_model::ModelError::TouchstoneSyntax { .. }
            ))
        ));
        assert!(Pipeline::from_touchstone_path("/nonexistent/x.s2p").is_err());
    }

    #[test]
    fn touchstone_path_errors_carry_the_offending_path() {
        let dir = std::env::temp_dir().join("pheig-pipeline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mangled.s2p");
        std::fs::write(&path, "# GHz S RI R 50\n0.1 0.9 0.0 garbage\n").unwrap();
        let err = Pipeline::from_touchstone_path(&path).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("mangled.s2p"),
            "path missing from error: {text}"
        );
        assert!(
            text.contains("line 2"),
            "line number missing from error: {text}"
        );
        std::fs::remove_file(&path).ok();
    }
}
