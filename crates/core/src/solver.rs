//! The multi-shift sweep driver.
//!
//! One loop serves every thread count: idle cohort members pull
//! [`Scheduler::next_shift`] exactly as Sec. IV.C prescribes, and the
//! paper's serial algorithm is that loop at `T = 1`. The workers are not
//! spawned here: a sweep submits a [`Task::ShiftSweep`](crate::exec::Task)
//! cohort of `T - 1` extra members to the persistent [`Executor`] and
//! joins it as the first member, so repeated sweeps (the enforcement loop,
//! batches of models) reuse one long-lived pool instead of respawning
//! scoped threads per sweep.

use crate::band::estimate_band;
use crate::error::SolverError;
use crate::exec::{Executor, SweepOrigin, Task, TaskContext};
use crate::fault::{self, ActiveFaults, FaultPlan};
use crate::scheduler::{Scheduler, SchedulerStats, ShiftTask, GATHER_FACTOR};
use crate::spectrum::{self, ImaginaryEigenpair};
use parking_lot::{Condvar, Mutex};
use pheig_arnoldi::{
    block_shift_sweep, build_shift_invert_op, single_shift_iteration_recycled_with, ArnoldiError,
    ArnoldiWorkspace, BlockLaneSpec, CancelToken, ConvergedEigenpair, RecyclePool, RecycledPair,
    SingleShiftOptions, SingleShiftOutcome, SweepControl,
};
use pheig_hamiltonian::MultiShiftInvertOp;
use pheig_linalg::C64;
use pheig_model::StateSpace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Reusable solver scratch of *one* sweep worker (each cohort member
/// executes against its own): one Arnoldi workspace per lane of the shift
/// block that worker steps, at most `block_size` of them.
///
/// A workspace created once and passed to repeated
/// [`find_imaginary_eigenvalues_with`] calls (as the passivity-enforcement
/// loop does) keeps every lane's Krylov basis storage alive across
/// sweeps, eliminating steady-state allocation churn from the hot path.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    lanes: Vec<ArnoldiWorkspace>,
}

impl SolverWorkspace {
    /// An empty workspace; lane scratch grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the lane scratch list to `lanes` entries.
    fn ensure_lanes(&mut self, lanes: usize) -> &mut [ArnoldiWorkspace] {
        if self.lanes.len() < lanes {
            self.lanes.resize_with(lanes, ArnoldiWorkspace::new);
        }
        &mut self.lanes[..lanes]
    }
}

/// Options for [`find_imaginary_eigenvalues`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Worker threads `T`. `1` reproduces the paper's serial baseline.
    pub threads: usize,
    /// Initial intervals per thread, `N = kappa * T` (paper: `kappa >= 2`).
    pub kappa: usize,
    /// Initial-radius overlap factor `alpha >= 1` (paper Eq. (23)).
    pub alpha: f64,
    /// Single-shift Arnoldi tuning.
    pub arnoldi: SingleShiftOptions,
    /// Search band override; `None` estimates `[0, omega_max]` from the
    /// largest Hamiltonian eigenvalue (Sec. IV.A).
    pub band: Option<(f64, f64)>,
    /// Base RNG seed; per-shift start vectors derive from it.
    pub seed: u64,
    /// Reseeded retries when a single-shift iteration fails to certify.
    pub max_shift_retries: usize,
    /// Krylov recycling across the shifts of one sweep: converged Ritz
    /// vectors of completed disks warm-start nearby shifts (kill switch
    /// for A/B measurement; on by default).
    pub recycling: bool,
    /// Maximum shifts pulled and stepped in lockstep by one worker; `1`
    /// pulls and runs every shift on its own.
    pub block_size: usize,
    /// Cooperative cancellation: latch the token and the sweep winds down
    /// at the next restart boundaries, returning whatever is certified
    /// (remaining work becomes named coverage gaps, not an error).
    pub cancel: Option<CancelToken>,
    /// Per-sweep operator-application budget shared by all shifts; on
    /// exhaustion the sweep degrades to a partial result exactly like a
    /// cancellation. `None` is unlimited.
    pub matvec_budget: Option<u64>,
    /// Per-sweep restart budget; same semantics as `matvec_budget`.
    pub restart_budget: Option<u64>,
    /// Fault-injection plan for chaos testing. `None` consults the
    /// `PHEIG_FAULT_PLAN` environment hook; an empty plan (and an unset
    /// variable) arms nothing and costs nothing on the hot path.
    pub fault_plan: Option<FaultPlan>,
}

impl SolverOptions {
    /// Paper-default options (serial).
    pub fn new() -> Self {
        SolverOptions {
            threads: 1,
            kappa: 2,
            alpha: 1.05,
            arnoldi: SingleShiftOptions::default(),
            band: None,
            seed: 0,
            max_shift_retries: 4,
            recycling: true,
            block_size: 4,
            cancel: None,
            matvec_budget: None,
            restart_budget: None,
            fault_plan: None,
        }
    }

    /// Sets the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables Krylov recycling across shifts.
    pub fn with_recycling(mut self, recycling: bool) -> Self {
        self.recycling = recycling;
        self
    }

    /// Sets how many shifts one pull takes and steps in lockstep (`1`
    /// runs every shift on its own).
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size.max(1);
        self
    }

    /// Sets the base RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the search band.
    pub fn with_band(mut self, lo: f64, hi: f64) -> Self {
        self.band = Some((lo, hi));
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Caps the sweep's total operator applications.
    pub fn with_matvec_budget(mut self, matvecs: u64) -> Self {
        self.matvec_budget = Some(matvecs);
        self
    }

    /// Caps the sweep's total restarts.
    pub fn with_restart_budget(mut self, restarts: u64) -> Self {
        self.restart_budget = Some(restarts);
        self
    }

    /// Arms a fault-injection plan (chaos testing).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// Telemetry for one completed single-shift iteration.
#[derive(Debug, Clone)]
pub struct ShiftRecord {
    /// Shift frequency.
    pub omega: f64,
    /// Certified disk radius.
    pub radius: f64,
    /// Operator applications spent.
    pub matvecs: usize,
    /// Restarts spent.
    pub restarts: usize,
    /// Deterministic cost units (matvecs + 3 per restart + half a unit,
    /// rounded up, per vector of the refined locked subspace) used by the
    /// virtual-time simulator.
    pub cost_units: u64,
    /// Recycled warm-start candidates validated for this shift.
    pub warm_candidates: usize,
    /// Warm candidates that locked immediately (one matvec each).
    pub warm_pre_locked: usize,
    /// Wall-clock time of the iteration.
    pub wall: Duration,
}

/// Aggregate run statistics.
#[derive(Debug, Clone)]
pub struct SolverStats {
    /// Scheduler counters (processed / deleted / trimmed / split).
    pub scheduler: SchedulerStats,
    /// Total operator applications across all shifts.
    pub total_matvecs: usize,
    /// Shifts that started with at least one recycled warm candidate.
    pub warm_started_shifts: usize,
    /// Recycled candidates validated across all shifts.
    pub recycle_candidates: usize,
    /// Recycled candidates that locked immediately (warm hits).
    pub recycle_hits: usize,
    /// Shifts the degradation ladder gave up on (their intervals are the
    /// sweep's [`SolverOutcome::coverage_gaps`]).
    pub shifts_quarantined: usize,
    /// Faults the armed [`FaultPlan`] actually fired during this sweep
    /// (always 0 without a plan).
    pub faults_injected: u64,
    /// In-disk eigenpairs (one `2n` eigenvector each) summed over the
    /// completed shifts. This and the two pool counters are defined per
    /// completion, so they mean the same at every `T`.
    pub pairs_converged: usize,
    /// Most eigenpairs the recycle pool held at once, counted right after
    /// each donation (before that completion's eviction pass).
    pub pool_peak_pairs: usize,
    /// Pool entries evicted because no pending or future shift could
    /// gather from them (every donor, by the end of a serial sweep).
    pub pool_evicted_entries: usize,
    /// End-to-end wall time.
    pub wall: Duration,
}

impl SolverStats {
    /// Fraction of validated recycled candidates that locked immediately.
    pub fn recycle_hit_rate(&self) -> f64 {
        if self.recycle_candidates == 0 {
            0.0
        } else {
            self.recycle_hits as f64 / self.recycle_candidates as f64
        }
    }
}

/// Recycling telemetry aggregated across the sweeps of one pipeline stage
/// (the characterization stage runs one sweep; enforcement runs one per
/// accepted or rejected trial step).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecycleCounters {
    /// Sweeps folded into this tally.
    pub sweeps: usize,
    /// Operator applications across those sweeps.
    pub matvecs: usize,
    /// Shifts that started with at least one recycled warm candidate.
    pub warm_started_shifts: usize,
    /// Recycled candidates validated (one matvec each).
    pub recycle_candidates: usize,
    /// Candidates that locked immediately.
    pub recycle_hits: usize,
}

impl RecycleCounters {
    /// Folds one sweep's statistics into the stage tally.
    pub fn absorb(&mut self, stats: &SolverStats) {
        self.sweeps += 1;
        self.matvecs += stats.total_matvecs;
        self.warm_started_shifts += stats.warm_started_shifts;
        self.recycle_candidates += stats.recycle_candidates;
        self.recycle_hits += stats.recycle_hits;
    }

    /// Fraction of validated candidates that locked immediately.
    pub fn hit_rate(&self) -> f64 {
        if self.recycle_candidates == 0 {
            0.0
        } else {
            self.recycle_hits as f64 / self.recycle_candidates as f64
        }
    }
}

/// A shift the sweep gave up on after the degradation ladder (retries,
/// then one cold attempt with widened tolerance) was exhausted, or that
/// was abandoned by a cancellation / budget stop.
///
/// Its interval contribution to [`SolverOutcome::coverage_gaps`] is the
/// part of the band the sweep makes *no claim about*: crossings there may
/// exist undetected.
#[derive(Debug, Clone)]
pub struct QuarantinedShift {
    /// The shift frequency that could not be processed.
    pub omega: f64,
    /// The interval the shift was responsible for when quarantined.
    pub interval: (f64, f64),
    /// The first error that sent the shift down the degradation ladder.
    pub reason: SolverError,
}

/// Result of a full band sweep.
#[derive(Debug, Clone)]
pub struct SolverOutcome {
    /// Sorted crossing frequencies `Omega` (omega >= 0), deduped.
    pub frequencies: Vec<f64>,
    /// The same crossings with eigenvectors (for enforcement).
    pub eigenpairs: Vec<ImaginaryEigenpair>,
    /// The search band that was covered.
    pub band: (f64, f64),
    /// Per-shift telemetry in completion order.
    pub shift_log: Vec<ShiftRecord>,
    /// Shifts the sweep gave up on, in quarantine order. Empty on a
    /// healthy run; non-empty means the result is *partial* and
    /// [`SolverOutcome::coverage_gaps`] names the unexamined intervals.
    pub quarantined: Vec<QuarantinedShift>,
    /// Sub-intervals of `band` that no certified disk covers, sorted and
    /// merged. Empty on a healthy run.
    pub coverage_gaps: Vec<(f64, f64)>,
    /// Fraction of the band length covered by certified disks (`1.0` on a
    /// healthy run). Honest partial-coverage reporting: uncovered
    /// intervals are named in `coverage_gaps`, never silently claimed.
    pub covered_fraction: f64,
    /// Aggregate statistics.
    pub stats: SolverStats,
}

/// Deterministic cost model shared with the simulator.
pub(crate) fn cost_units(out: &SingleShiftOutcome) -> u64 {
    // The refinement applies no operator (its images are cached or
    // reconstructed from the Arnoldi build identity), but its projected
    // eigenproblem and reconstructions still cost wall time that grows
    // with the locked-subspace dimension; charge half a unit per basis
    // vector. This also keeps the modeled work seed-sensitive — how many
    // duplicate/extra shells lock depends on the random start vector.
    (out.matvecs + 3 * out.restarts) as u64 + (out.refine_dim as u64).div_ceil(2)
}

/// Start-vector seed of attempt `attempt` at `task`. A cold block lane
/// uses attempt 0, which is what makes it bitwise identical to the solo
/// iteration's first attempt.
fn shift_seed(opts: &SolverOptions, task: &ShiftTask, attempt: usize) -> u64 {
    opts.seed
        .wrapping_add((task.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(attempt as u64)
}

/// Tolerances must track the *local* magnitude: the global spectral
/// radius of M can exceed the pole band by orders of magnitude (large
/// real eigenvalues from strong residues), and tying eigenvalue
/// resolution to it would swallow genuine crossing separations.
fn shift_scale(task: &ShiftTask, scale_floor: f64) -> f64 {
    task.omega.abs().max(scale_floor)
}

/// A certified radius at or below this is "below resolution" at `scale`:
/// the shift made no progress and must be retried.
fn min_radius(scale: f64) -> f64 {
    1e-12 * scale.max(1.0)
}

/// Runs one shift task with reseeded retries.
///
/// Retries also *nudge* the shift frequency by a small fraction of the
/// initial radius: exactly symmetric shift placements (notably
/// `omega = 0`, where the Hamiltonian quadruple symmetry makes every
/// shift-inverted shell multiply degenerate) can defeat the Krylov
/// iteration, while any nearby asymmetric shift covers the same interval.
/// The scheduler accepts disks centered at the *actual* shift used.
pub(crate) fn run_shift(
    ss: &StateSpace,
    task: &ShiftTask,
    scale_floor: f64,
    opts: &SolverOptions,
    ws: &mut ArnoldiWorkspace,
    warm: &[RecycledPair],
    control: &SweepControl,
) -> Result<SingleShiftOutcome, SolverError> {
    let scale = shift_scale(task, scale_floor);
    let mut last = String::from("no attempts made");
    for attempt in 0..opts.max_shift_retries.max(1) {
        if control.should_stop() {
            last = String::from("sweep stopped (cancelled or budget exhausted)");
            break;
        }
        // Later attempts enlarge the Krylov subspace and restart budget:
        // dense pole clusters (hundreds of log-spaced poles per column)
        // produce nearly-degenerate eigenvalue shells that a 60-vector
        // space cannot always split.
        let mut aopts = opts
            .arnoldi
            .clone()
            .with_seed(shift_seed(opts, task, attempt));
        aopts.control = control.clone();
        aopts.max_subspace += 30 * attempt;
        aopts.max_restarts += 8 * attempt;
        let nudge = match attempt {
            0 => 0.0,
            k => task.rho0 * 0.017 * k as f64 * if k % 2 == 0 { -1.0 } else { 1.0 },
        };
        let omega = (task.omega + nudge).max(0.0);
        // Warm candidates apply to the first attempt only: a warm attempt
        // that failed to certify retries cold (the recycled vectors did
        // not help, and the nudged shift invalidates their distances).
        let attempt_warm = if attempt == 0 { warm } else { &[] };
        match single_shift_iteration_recycled_with(
            ss,
            omega,
            task.rho0,
            scale,
            &aopts,
            ws,
            attempt_warm,
        ) {
            Ok(out) if out.radius > min_radius(scale) => return Ok(out),
            Ok(out) => last = format!("radius {} below resolution", out.radius),
            Err(e) => last = e.to_string(),
        }
    }
    Err(SolverError::ShiftFailed {
        omega: task.omega,
        reason: last,
    })
}

/// Gathers recycled warm-start candidates for a pending shift.
///
/// Reach slightly exceeds the initial radius guess (candidates just
/// outside the expected disk still cap the certificate via near-miss
/// estimates); the cap is the per-shift collect target plus slack,
/// rounded up to even so Hamiltonian mirror pairs are never split.
fn gather_warm(pool: &RecyclePool, task: &ShiftTask, opts: &SolverOptions) -> Vec<RecycledPair> {
    if !opts.recycling {
        return Vec::new();
    }
    let reach = task.rho0 * GATHER_FACTOR;
    let cap = (opts.arnoldi.n_eigs + 4) & !1;
    pool.gather(C64::from_imag(task.omega), reach, cap)
}

/// The frequency scale on which crossings live: the fastest pole resonance.
pub(crate) fn pole_scale(ss: &StateSpace) -> f64 {
    ss.a().max_natural_frequency().max(f64::MIN_POSITIVE)
}

/// Converged in-disk eigenpairs of every completed shift -> the deduped
/// crossings. "Purely imaginary" is classified with a safety factor above
/// the Arnoldi eigenvalue tolerance, scaled by the pole band `scale`
/// ([`pole_scale`]; crossings cannot occur beyond the model's resonances).
pub(crate) fn crossings(
    pairs: &[ConvergedEigenpair],
    opts: &SolverOptions,
    scale: f64,
) -> Vec<ImaginaryEigenpair> {
    let tol = axis_tol(opts, scale);
    let eigs = spectrum::extract_imaginary(pairs, tol);
    spectrum::dedupe(eigs, tol.max(1e-12 * scale))
}

/// Real-part tolerance under which [`crossings`] reads an eigenvalue as
/// purely imaginary, at pole band `scale`.
fn axis_tol(opts: &SolverOptions, scale: f64) -> f64 {
    1e3 * opts.arnoldi.tol * scale.max(f64::MIN_POSITIVE)
}

/// What a sweep keeps of a finished shift's in-disk set: the pairs
/// [`crossings`] can read, in their order (the rest is read again only
/// through the recycle pool, which holds its own references).
pub(crate) fn axis_pairs(
    mut in_disk: Vec<ConvergedEigenpair>,
    opts: &SolverOptions,
    scale: f64,
) -> Vec<ConvergedEigenpair> {
    let tol = axis_tol(opts, scale);
    in_disk.retain(|e| spectrum::on_axis(e.lambda, tol));
    in_disk
}

/// Assembles the outcome from a finished sweep's shared state.
fn assemble(
    band: (f64, f64),
    scale: f64,
    state: SharedState,
    opts: &SolverOptions,
    faults_injected: u64,
    wall: Duration,
) -> SolverOutcome {
    let sched_stats = state.scheduler.stats();
    let gaps = state.scheduler.coverage_gaps();
    let mut completions = state.completions;
    // Under `threads > 1` completions land in mutex-acquisition order,
    // which varies run to run; sort by shift frequency (radius as the
    // tie-break) so `shift_log` and everything derived from it is
    // deterministic for a given completion set.
    completions.sort_by(|a, b| {
        a.0.omega
            .total_cmp(&b.0.omega)
            .then(a.0.radius.total_cmp(&b.0.radius))
    });
    let mut all_pairs = Vec::new();
    let mut shift_log = Vec::with_capacity(completions.len());
    let mut total_matvecs = 0usize;
    let mut warm_started_shifts = 0usize;
    let mut recycle_candidates = 0usize;
    let mut recycle_hits = 0usize;
    for (rec, pairs) in completions {
        total_matvecs += rec.matvecs;
        warm_started_shifts += usize::from(rec.warm_candidates > 0);
        recycle_candidates += rec.warm_candidates;
        recycle_hits += rec.warm_pre_locked;
        shift_log.push(rec);
        all_pairs.extend(pairs);
    }
    let mut eigenpairs = crossings(&all_pairs, opts, scale);
    // Certified disks may extend well past the requested band —
    // warm-started certificates especially, since donated far pairs
    // widen them — and everything inside a disk is a true eigenvalue.
    // But a caller who restricted the band asked about that band:
    // report crossings only up to half a band-width past the top edge
    // (the documented "disks slightly overshoot" slack). The disks
    // themselves stay in `shift_log`, so coverage checks are unchanged.
    let report_cap = band.1 + 0.5 * (band.1 - band.0);
    eigenpairs.retain(|e| e.lambda.im <= report_cap);
    let frequencies = spectrum::frequencies(&eigenpairs);
    let band_len = (band.1 - band.0).max(f64::MIN_POSITIVE);
    let gap_len: f64 = gaps.iter().map(|&(lo, hi)| hi - lo).sum();
    let covered_fraction = (1.0 - gap_len / band_len).clamp(0.0, 1.0);
    let shifts_quarantined = sched_stats.quarantined;
    SolverOutcome {
        frequencies,
        eigenpairs,
        band,
        shift_log,
        quarantined: state.quarantined,
        coverage_gaps: gaps,
        covered_fraction,
        stats: SolverStats {
            scheduler: sched_stats,
            total_matvecs,
            warm_started_shifts,
            recycle_candidates,
            recycle_hits,
            shifts_quarantined,
            faults_injected,
            pairs_converged: state.pairs_converged,
            pool_peak_pairs: state.pool_peak_pairs,
            pool_evicted_entries: state.pool_evicted_entries,
            wall,
        },
    }
}

/// Locates all purely imaginary Hamiltonian eigenvalues of a macromodel.
///
/// With `opts.threads == 1` this is the paper's serial bisection sweep;
/// with `T > 1` the same loop runs the dynamic parallel scheduler on `T`
/// OS threads.
///
/// # Errors
///
/// * [`SolverError::BandEstimation`] / [`SolverError::Hamiltonian`] for
///   degenerate models;
/// * [`SolverError::TaskPanicked`] when a sweep task panicked and the
///   remaining members could not finish the band without it.
///
/// A shift that cannot be certified even after reseeded retries is *not*
/// an error: the degradation ladder retries it once cold, then
/// quarantines it, and the sweep returns a partial result whose
/// [`SolverOutcome::coverage_gaps`] name the unexamined intervals.
///
/// # Example
///
/// ```
/// use pheig_core::solver::{find_imaginary_eigenvalues, SolverOptions};
/// use pheig_model::generator::{generate_case, CaseSpec};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ss = generate_case(&CaseSpec::new(20, 2).with_seed(1).with_target_crossings(2))?
///     .realize();
/// let out = find_imaginary_eigenvalues(&ss, &SolverOptions::default())?;
/// assert!(out.frequencies.windows(2).all(|w| w[0] <= w[1]));
/// # Ok(())
/// # }
/// ```
pub fn find_imaginary_eigenvalues(
    ss: &StateSpace,
    opts: &SolverOptions,
) -> Result<SolverOutcome, SolverError> {
    find_imaginary_eigenvalues_with(ss, opts, &mut SolverWorkspace::new())
}

/// [`find_imaginary_eigenvalues`] with caller-owned scratch.
///
/// Repeated sweeps over perturbed models (the passivity-enforcement inner
/// loop) should create one [`SolverWorkspace`] and pass it to every call:
/// each worker thread then reuses its Krylov storage across shifts *and*
/// across sweeps.
///
/// # Errors
///
/// Same as [`find_imaginary_eigenvalues`], plus
/// [`SolverError::InvalidBand`] / [`SolverError::InvalidAlpha`] for
/// unusable option overrides.
pub fn find_imaginary_eigenvalues_with(
    ss: &StateSpace,
    opts: &SolverOptions,
    ws: &mut SolverWorkspace,
) -> Result<SolverOutcome, SolverError> {
    sweep(ss, opts, ws, SweepOrigin::Characterization)
}

/// The one sweep driver: a cohort of `opts.threads` memberships of
/// [`SweepShare::run`] on the persistent executor — this thread plus
/// `threads - 1` pool members (none at `T = 1`, where the cohort is the
/// inline, uncontended membership). Inside a pool already (a batch job
/// fanning out its sweep) the cohort lands on that same pool instead of a
/// nested one. `origin` tags the executor telemetry: the enforcement loop
/// marks its re-characterization sweeps [`SweepOrigin::Enforcement`].
pub(crate) fn sweep(
    ss: &StateSpace,
    opts: &SolverOptions,
    ws: &mut SolverWorkspace,
    origin: SweepOrigin,
) -> Result<SolverOutcome, SolverError> {
    let t0 = Instant::now();
    validate_options(opts)?;
    // `PHEIG_NO_RECYCLE` kill switch: force recycling off regardless of
    // options, so A/B and incident triage never require a rebuild.
    static NO_RECYCLE: OnceLock<bool> = OnceLock::new();
    let no_recycle =
        *NO_RECYCLE.get_or_init(|| std::env::var_os("PHEIG_NO_RECYCLE").is_some_and(|v| v != "0"));
    let mut eff_opts = None;
    let opts = if no_recycle && opts.recycling {
        &*eff_opts.insert(opts.clone().with_recycling(false))
    } else {
        opts
    };
    // Fault plan: explicit options win; otherwise the `PHEIG_FAULT_PLAN`
    // environment hook. Budget overrides fold into the plan so both
    // channels share one activation path.
    let mut plan = match &opts.fault_plan {
        Some(p) => p.clone(),
        None => fault::plan_from_env()?.unwrap_or_default(),
    };
    if opts.matvec_budget.is_some() {
        plan.budget_matvecs = opts.matvec_budget;
    }
    if opts.restart_budget.is_some() {
        plan.budget_restarts = opts.restart_budget;
    }
    let faults = plan.activate();
    let mut control = faults.control.clone();
    if let Some(token) = &opts.cancel {
        control.cancel = Some(token.clone());
    }
    if faults.wants_injector_pressure() {
        // Deterministically overflow the executor's injector so the
        // push-fail -> inline-execute recovery path runs under test.
        Executor::exercise_injector_backpressure(crate::exec::injector_capacity() + 128);
    }
    let band = match opts.band {
        Some(b) => b,
        None => estimate_band(ss, &opts.arnoldi)?,
    };
    let n_intervals = (opts.kappa.max(2) * opts.threads.max(1)).max(4);
    let scale = pole_scale(ss);
    let shared = Mutex::new(SharedState {
        scheduler: Scheduler::new(band, n_intervals, opts.alpha),
        pool: RecyclePool::new(),
        completions: Vec::new(),
        quarantined: Vec::new(),
        pairs_converged: 0,
        pool_peak_pairs: 0,
        pool_evicted_entries: 0,
    });
    let share = SweepShare {
        ss,
        scale,
        opts,
        shared: &shared,
        cv: &Condvar::new(),
        origin,
        control: &control,
        faults: &faults,
    };
    let extra = opts.threads.saturating_sub(1);
    let run = Executor::current_or_pool(extra).run_cohort_caught(
        Task::ShiftSweep(&share),
        extra,
        &mut TaskContext::new(ws),
    );
    let state = shared.into_inner();
    // A panic payload only becomes an error when the sweep did not
    // finish: an injected worker panic whose siblings still completed the
    // band is a *contained* fault, not a failure.
    if let Err(payload) = run {
        if !state.scheduler.is_done() {
            return Err(SolverError::from_panic(payload.as_ref()));
        }
    }
    Ok(assemble(
        band,
        scale,
        state,
        opts,
        faults.faults_injected(),
        t0.elapsed(),
    ))
}

/// Rejects option combinations the scheduler cannot run on: a scheduler
/// constructed over a garbage band or overlap factor would silently cover
/// nothing (or spin), so fail fast with a typed error instead.
fn validate_options(opts: &SolverOptions) -> Result<(), SolverError> {
    if let Some((lo, hi)) = opts.band {
        if !lo.is_finite() || !hi.is_finite() || lo < 0.0 || hi <= lo {
            return Err(SolverError::InvalidBand { lo, hi });
        }
    }
    if !opts.alpha.is_finite() || opts.alpha < 1.0 {
        return Err(SolverError::InvalidAlpha { alpha: opts.alpha });
    }
    Ok(())
}

/// Everything a sweep's members share behind one lock.
struct SharedState {
    scheduler: Scheduler,
    pool: RecyclePool,
    /// Certified shifts in completion order: the telemetry scalars and
    /// the [`axis_pairs`], nothing else of the outcome.
    completions: Vec<(ShiftRecord, Vec<ConvergedEigenpair>)>,
    quarantined: Vec<QuarantinedShift>,
    /// Running [`SolverStats`] counters of the same names.
    pairs_converged: usize,
    pool_peak_pairs: usize,
    pool_evicted_entries: usize,
}

impl SharedState {
    /// Gives up on `task`: its interval becomes a reported coverage gap.
    fn quarantine(&mut self, task: &ShiftTask, reason: SolverError) {
        self.scheduler.quarantine(task);
        self.quarantined.push(QuarantinedShift {
            omega: task.omega,
            interval: task.interval,
            reason,
        });
    }
}

/// Shared state of one multi-shift sweep cohort: the scheduler (and its
/// completion log) behind one lock, plus everything a member needs to run
/// shifts. Public only as a [`Task::ShiftSweep`] payload; constructed and
/// owned by the sweep driver, which joins the cohort itself.
pub struct SweepShare<'a> {
    ss: &'a StateSpace,
    scale: f64,
    opts: &'a SolverOptions,
    shared: &'a Mutex<SharedState>,
    cv: &'a Condvar,
    origin: SweepOrigin,
    control: &'a SweepControl,
    faults: &'a ActiveFaults,
}

impl SweepShare<'_> {
    pub(crate) fn origin(&self) -> SweepOrigin {
        self.origin
    }

    /// One cohort membership: pull batches of shifts until the scheduler
    /// is done. This is Sec. IV.C's idle-worker loop; a member finding the
    /// queue momentarily empty *waits* (another member's completion may
    /// split intervals and refill it) and wakes on every completion.
    ///
    /// Each pull takes up to `block_size` pending shifts in one lock
    /// acquisition, together with their recycled warm-start candidates,
    /// then steps them in lockstep outside the lock.
    pub(crate) fn run(&self, ctx: &mut TaskContext<'_>) {
        let block_cap = self.opts.block_size.max(1);
        loop {
            // An injected worker panic fires here, at the pull boundary
            // with nothing in flight and no lock held: what's under test
            // is the containment machinery (latch completion, workspace
            // return, typed surfacing), not torn scheduler state.
            if self.faults.should_panic_task() {
                panic!("injected fault: solver task panic at pull boundary");
            }
            let (batch, warms) = {
                let mut guard = self.shared.lock();
                loop {
                    if guard.scheduler.is_done() {
                        self.cv.notify_all();
                        return;
                    }
                    if self.control.should_stop() {
                        // Cancelled or out of budget: stop pulling new
                        // work and quarantine every remaining tentative so
                        // the sweep terminates with *named* gaps instead
                        // of spinning (partial result, not an error).
                        self.drain_stopped(&mut guard);
                        if guard.scheduler.is_done() {
                            self.cv.notify_all();
                            return;
                        }
                        self.cv.wait(&mut guard);
                        continue;
                    }
                    if let Some(first) = guard.scheduler.next_shift() {
                        let mut batch = vec![first];
                        // Progressive batching: a batch pull commits every
                        // lane *before* its neighbors' results can donate,
                        // so batching ahead of a young pool re-spends the
                        // matvecs recycling would have saved. Widen the
                        // block only as donors accumulate (cap `1 + donors`
                        // — the cold sweep opener always runs solo; donors,
                        // not live entries, so eviction cannot move the cap).
                        let donor_cap = if self.opts.recycling {
                            1 + guard.pool.donors()
                        } else {
                            usize::MAX
                        };
                        while batch.len() < block_cap.min(donor_cap) {
                            match guard.scheduler.next_shift() {
                                Some(t) => batch.push(t),
                                None => break,
                            }
                        }
                        let warms: Vec<Vec<RecycledPair>> = batch
                            .iter()
                            .map(|t| gather_warm(&guard.pool, t, self.opts))
                            .collect();
                        break (batch, warms);
                    }
                    self.cv.wait(&mut guard);
                }
            };
            let lane_ws = ctx.workspace.ensure_lanes(batch.len());
            if batch.len() == 1 {
                self.run_solo(&batch[0], &warms[0], &mut lane_ws[0]);
            } else {
                self.run_block(&batch, warms, lane_ws);
            }
        }
    }

    /// Quarantines every tentative shift still queued after a cancel or
    /// budget stop; their intervals become reported coverage gaps.
    fn drain_stopped(&self, state: &mut SharedState) {
        while let Some(t) = state.scheduler.next_shift() {
            let reason = SolverError::ShiftFailed {
                omega: t.omega,
                reason: if self.control.is_cancelled() {
                    "sweep cancelled before this shift ran".to_string()
                } else {
                    "sweep budget exhausted before this shift ran".to_string()
                },
            };
            state.quarantine(&t, reason);
        }
    }

    /// [`run_shift`] with a panicking iteration contained per shift, so it
    /// feeds the same degradation ladder as an ordinary failure.
    fn attempt(
        &self,
        task: &ShiftTask,
        opts: &SolverOptions,
        ws: &mut ArnoldiWorkspace,
        warm: &[RecycledPair],
    ) -> Result<SingleShiftOutcome, SolverError> {
        catch_unwind(AssertUnwindSafe(|| {
            run_shift(self.ss, task, self.scale, opts, ws, warm, self.control)
        }))
        .unwrap_or_else(|p| Err(SolverError::from_panic(p.as_ref())))
    }

    /// Runs one shift solo (with retries) and records the result.
    ///
    /// A finished solo result is always *completed*, never cancelled: at
    /// completion time the work is already spent, and a certified disk is
    /// always sound to hand the scheduler — cancellation only pays when
    /// it aborts a shift early (the block driver's round-boundary polls).
    fn run_solo(&self, task: &ShiftTask, warm: &[RecycledPair], ws: &mut ArnoldiWorkspace) {
        let started = Instant::now();
        match self.attempt(task, self.opts, ws, warm) {
            Ok(out) => self.record(task, out, started),
            Err(first) => self.degrade(task, ws, started, first),
        }
    }

    /// Records one certified completion under the lock. The pool takes
    /// the donation, then drops every entry the updated scheduler says no
    /// shift can gather from again (so no gather sees the difference).
    fn record(&self, task: &ShiftTask, out: SingleShiftOutcome, started: Instant) {
        let mut guard = self.shared.lock();
        let state = &mut *guard;
        state.scheduler.complete(task, out.theta.im, out.radius);
        state.pairs_converged += out.in_disk.len();
        if self.opts.recycling {
            state.pool.record(out.theta.im, &out);
            state.pool_peak_pairs = state.pool_peak_pairs.max(state.pool.pairs());
            let scheduler = &state.scheduler;
            state.pool_evicted_entries += state.pool.evict(|lo, hi| scheduler.may_gather(lo, hi));
        }
        let rec = ShiftRecord {
            omega: out.theta.im,
            radius: out.radius,
            matvecs: out.matvecs,
            restarts: out.restarts,
            cost_units: cost_units(&out),
            warm_candidates: out.warm_candidates,
            warm_pre_locked: out.warm_pre_locked,
            wall: started.elapsed(),
        };
        let kept = axis_pairs(out.in_disk, self.opts, self.scale);
        state.completions.push((rec, kept));
        drop(guard);
        self.cv.notify_all();
    }

    /// The degradation ladder for a breaking-down shift: one *cold*
    /// attempt (no recycled warm starts, fresh seed, tolerance widened
    /// 100x but never past 1e-5), then quarantine. Transient faults —
    /// a one-shot injected NaN, a flaky near-degenerate start vector —
    /// recover on the cold attempt; persistent breakdown quarantines the
    /// shift so sibling shifts and the sweep itself keep going.
    fn degrade(
        &self,
        task: &ShiftTask,
        ws: &mut ArnoldiWorkspace,
        started: Instant,
        first: SolverError,
    ) {
        if !self.control.should_stop() {
            let mut cold = self.opts.clone();
            cold.arnoldi.tol = (cold.arnoldi.tol * 100.0).min(1e-5);
            cold.max_shift_retries = 1;
            cold.recycling = false;
            cold.seed ^= 0xC01D_C01D;
            if let Ok(out) = self.attempt(task, &cold, ws, &[]) {
                self.record(task, out, started);
                return;
            }
        }
        self.shared.lock().quarantine(task, first);
        self.cv.notify_all();
    }

    /// Steps a batch of shifts in lockstep, one lane each; lanes that
    /// fail (below-resolution radius, Arnoldi failure) fall back to the
    /// solo retry path, and lanes whose interval a sibling's completion
    /// covered are cancelled at their next round boundary.
    fn run_block(
        &self,
        batch: &[ShiftTask],
        warms: Vec<Vec<RecycledPair>>,
        lane_ws: &mut [ArnoldiWorkspace],
    ) {
        let attempted = catch_unwind(AssertUnwindSafe(|| {
            self.try_block(batch, warms, &mut *lane_ws)
        }));
        let failed: Vec<usize> = match attempted {
            Ok(Some(failed)) => failed,
            // Lane operator construction failed (irreparably singular
            // shift): run every lane through the solo retry path.
            Ok(None) => (0..batch.len()).collect(),
            // A lane panicked mid-superstep. `on_complete` may already
            // have completed (or cancelled) some lanes before the unwind,
            // so retry only the lanes still in flight — blindly retrying
            // all of them would double-complete the scheduler.
            Err(_) => {
                let guard = self.shared.lock();
                (0..batch.len())
                    .filter(|&l| guard.scheduler.is_in_flight(batch[l].id))
                    .collect()
            }
        };
        for l in failed {
            let task = &batch[l];
            let warm = {
                let mut guard = self.shared.lock();
                // A sibling's completion may have covered this lane while
                // the block ran; drop the redundant retry.
                if guard.scheduler.should_cancel(task.id) {
                    guard.scheduler.cancel(task);
                    drop(guard);
                    self.cv.notify_all();
                    continue;
                }
                gather_warm(&guard.pool, task, self.opts)
            };
            self.run_solo(task, &warm, &mut lane_ws[0]);
        }
    }

    /// Attempts the lockstep run proper. Returns the lanes needing
    /// a solo fallback, or `None` when a lane operator could not be built
    /// (then *every* lane still needs running).
    fn try_block(
        &self,
        batch: &[ShiftTask],
        warms: Vec<Vec<RecycledPair>>,
        lane_ws: &mut [ArnoldiWorkspace],
    ) -> Option<Vec<usize>> {
        let started = Instant::now();
        let mut lane_ops = Vec::with_capacity(batch.len());
        for task in batch {
            // Same fire-point the solo route consults before it factors: an
            // injected singular shift is a construction failure here too.
            if self.control.fire_singular() {
                return None;
            }
            let scale = shift_scale(task, self.scale);
            lane_ops.push(build_shift_invert_op(self.ss, task.omega, scale).ok()?);
        }
        let block = MultiShiftInvertOp::from_ops(lane_ops);
        let specs: Vec<BlockLaneSpec> = batch
            .iter()
            .zip(warms)
            .map(|(task, warm)| BlockLaneSpec {
                rho0: task.rho0,
                scale: shift_scale(task, self.scale),
                opts: self
                    .opts
                    .arnoldi
                    .clone()
                    .with_seed(shift_seed(self.opts, task, 0))
                    .with_control(self.control.clone()),
                warm,
            })
            .collect();
        let mut failed: Vec<usize> = Vec::new();
        let mut should_cancel = |l: usize| self.shared.lock().scheduler.should_cancel(batch[l].id);
        let mut on_complete = |l: usize, res: Result<SingleShiftOutcome, ArnoldiError>| {
            let task = &batch[l];
            match res {
                Ok(out) if out.radius > min_radius(shift_scale(task, self.scale)) => {
                    self.record(task, out, started)
                }
                Err(ArnoldiError::Cancelled) => {
                    self.shared.lock().scheduler.cancel(task);
                    self.cv.notify_all();
                }
                _ => failed.push(l),
            }
        };
        block_shift_sweep(
            &block,
            &specs,
            lane_ws,
            &mut should_cancel,
            &mut on_complete,
        );
        Some(failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pheig_hamiltonian::dense_hamiltonian;
    use pheig_linalg::eig::eig_real;
    use pheig_model::generator::{generate_case, CaseSpec};

    /// Oracle crossings from the dense Hamiltonian spectrum.
    fn oracle_crossings(ss: &StateSpace) -> Vec<f64> {
        let m = dense_hamiltonian(ss).unwrap();
        let scale = m.max_abs();
        let mut out: Vec<f64> = eig_real(&m)
            .unwrap()
            .into_iter()
            .filter(|z| z.re.abs() <= 1e-8 * scale && z.im > 0.0)
            .map(|z| z.im)
            .collect();
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out
    }

    fn assert_matches_oracle(got: &[f64], want: &[f64], scale: f64) {
        assert_eq!(
            got.len(),
            want.len(),
            "crossing count mismatch: got {got:?}, oracle {want:?}"
        );
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-5 * scale, "crossing {g} vs oracle {w}");
        }
    }

    #[test]
    fn serial_matches_dense_oracle_nonpassive() {
        let ss = generate_case(&CaseSpec::new(24, 2).with_seed(31).with_target_crossings(4))
            .unwrap()
            .realize();
        let want = oracle_crossings(&ss);
        assert!(!want.is_empty());
        let out = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
        assert_matches_oracle(&out.frequencies, &want, out.band.1);
    }

    #[test]
    fn serial_passive_model_has_empty_omega() {
        let ss = generate_case(&CaseSpec::new(20, 2).with_seed(8).with_target_crossings(0))
            .unwrap()
            .realize();
        let out = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
        assert!(out.frequencies.is_empty(), "got {:?}", out.frequencies);
        assert!(out.stats.scheduler.processed > 0);
    }

    #[test]
    fn parallel_agrees_with_serial() {
        let ss = generate_case(&CaseSpec::new(30, 3).with_seed(12).with_target_crossings(6))
            .unwrap()
            .realize();
        let serial = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
        for threads in [2, 4] {
            let par =
                find_imaginary_eigenvalues(&ss, &SolverOptions::default().with_threads(threads))
                    .unwrap();
            assert_eq!(
                par.frequencies.len(),
                serial.frequencies.len(),
                "T={threads}: {:?} vs {:?}",
                par.frequencies,
                serial.frequencies
            );
            for (a, b) in par.frequencies.iter().zip(&serial.frequencies) {
                assert!((a - b).abs() < 1e-5 * serial.band.1, "T={threads}");
            }
        }
    }

    #[test]
    fn eigenpairs_carry_eigenvectors() {
        let ss = generate_case(&CaseSpec::new(16, 2).with_seed(21).with_target_crossings(2))
            .unwrap()
            .realize();
        let out = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
        let m = dense_hamiltonian(&ss).unwrap().to_c64();
        for e in &out.eigenpairs {
            assert_eq!(e.vector.len(), 2 * ss.order());
            let av = m.matvec(&e.vector);
            let mut resid = 0.0f64;
            for (avi, vi) in av.iter().zip(e.vector.iter()) {
                resid = resid.max((*avi - e.lambda * *vi).abs());
            }
            assert!(resid < 1e-5 * m.max_abs(), "eigenvector residual {resid}");
        }
    }

    #[test]
    fn explicit_band_override_is_respected() {
        let ss = generate_case(&CaseSpec::new(16, 2).with_seed(2))
            .unwrap()
            .realize();
        let out =
            find_imaginary_eigenvalues(&ss, &SolverOptions::default().with_band(0.0, 3.0)).unwrap();
        assert_eq!(out.band, (0.0, 3.0));
        for w in &out.frequencies {
            // Disks can slightly exceed the band; crossings reported should
            // still be near it.
            assert!(*w <= 3.0 * 1.5);
        }
    }

    #[test]
    fn garbage_options_are_rejected_with_typed_errors() {
        let ss = generate_case(&CaseSpec::new(10, 2).with_seed(1))
            .unwrap()
            .realize();
        let cases: &[(Option<(f64, f64)>, f64)] = &[
            (Some((f64::NAN, 5.0)), 1.05),
            (Some((0.0, f64::INFINITY)), 1.05),
            (Some((3.0, 1.0)), 1.05),
            (Some((2.0, 2.0)), 1.05),
            (Some((-1.0, 5.0)), 1.05),
            (None, f64::NAN),
            (None, 0.5),
        ];
        for &(band, alpha) in cases {
            let opts = SolverOptions {
                band,
                alpha,
                ..SolverOptions::default()
            };
            let err = find_imaginary_eigenvalues(&ss, &opts).unwrap_err();
            match (band, &err) {
                (Some(_), SolverError::InvalidBand { .. }) => {}
                (None, SolverError::InvalidAlpha { .. }) => {}
                other => panic!("band={band:?} alpha={alpha}: wrong error {other:?}"),
            }
        }
        // Valid overrides still pass validation.
        assert!(
            find_imaginary_eigenvalues(&ss, &SolverOptions::default().with_band(0.0, 3.0)).is_ok()
        );
    }

    #[test]
    fn persistent_breakdown_quarantines_with_honest_gaps() {
        // Force every shift to fail: a zero restart budget means no Ritz
        // value can ever converge, so the degradation ladder (retries,
        // then one cold widened-tolerance attempt) is exhausted on every
        // shift. The sweep must terminate with an honest partial result —
        // named gaps spanning the band — not an error and not a deadlock.
        let ss = generate_case(&CaseSpec::new(16, 2).with_seed(4).with_target_crossings(2))
            .unwrap()
            .realize();
        let mut opts = SolverOptions::default().with_threads(4);
        opts.arnoldi.max_restarts = 0;
        opts.max_shift_retries = 1;
        for threads in [4usize, 1] {
            opts.threads = threads;
            let out = find_imaginary_eigenvalues(&ss, &opts).unwrap();
            assert!(!out.quarantined.is_empty(), "T={threads}");
            assert_eq!(out.stats.shifts_quarantined, out.quarantined.len());
            assert!(out
                .quarantined
                .iter()
                .all(|q| matches!(q.reason, SolverError::ShiftFailed { .. })));
            let gap_len: f64 = out.coverage_gaps.iter().map(|(a, b)| b - a).sum();
            let band_len = out.band.1 - out.band.0;
            assert!(
                gap_len > 0.99 * band_len,
                "T={threads}: gaps {:?} should span the band {:?}",
                out.coverage_gaps,
                out.band
            );
            assert!(out.covered_fraction < 0.01, "T={threads}");
            assert!(out.frequencies.is_empty(), "T={threads}");
        }
    }

    #[test]
    fn budget_exhaustion_returns_partial_result_not_error() {
        let ss = generate_case(&CaseSpec::new(24, 2).with_seed(31).with_target_crossings(4))
            .unwrap()
            .realize();
        // A tiny matvec budget stops the sweep almost immediately.
        let opts = SolverOptions::default().with_matvec_budget(1);
        let out = find_imaginary_eigenvalues(&ss, &opts).unwrap();
        assert!(out.covered_fraction < 1.0);
        assert!(!out.quarantined.is_empty());
        assert!(!out.coverage_gaps.is_empty());
        // Every reported gap overlaps a quarantined shift's interval, and
        // the gaps never exceed what was actually given up.
        for &(lo, hi) in &out.coverage_gaps {
            assert!(out
                .quarantined
                .iter()
                .any(|q| q.interval.1 > lo && q.interval.0 < hi));
        }
        let gap_len: f64 = out.coverage_gaps.iter().map(|(a, b)| b - a).sum();
        let quarantined_len: f64 = out
            .quarantined
            .iter()
            .map(|q| q.interval.1 - q.interval.0)
            .sum();
        assert!(gap_len <= quarantined_len + 1e-9 * (out.band.1 - out.band.0));
        // A generous budget changes nothing.
        let opts = SolverOptions::default().with_matvec_budget(10_000_000);
        let full = find_imaginary_eigenvalues(&ss, &opts).unwrap();
        assert_eq!(full.covered_fraction, 1.0);
        assert!(full.quarantined.is_empty());
    }

    #[test]
    fn pre_cancelled_sweep_degrades_to_empty_partial_result() {
        let ss = generate_case(&CaseSpec::new(16, 2).with_seed(4).with_target_crossings(2))
            .unwrap()
            .realize();
        let token = CancelToken::new();
        token.cancel();
        for threads in [1usize, 4] {
            let opts = SolverOptions::default()
                .with_threads(threads)
                .with_cancel(token.clone());
            let out = find_imaginary_eigenvalues(&ss, &opts).unwrap();
            assert!(out.frequencies.is_empty(), "T={threads}");
            assert!(out.covered_fraction < 0.01, "T={threads}");
            assert!(out
                .quarantined
                .iter()
                .all(|q| format!("{}", q.reason).contains("cancelled")));
        }
    }

    #[test]
    fn injected_worker_panic_is_contained_in_parallel_and_typed_in_serial() {
        let ss = generate_case(&CaseSpec::new(16, 2).with_seed(4).with_target_crossings(2))
            .unwrap()
            .realize();
        let plan = FaultPlan {
            panic_task: Some(0),
            ..FaultPlan::default()
        };
        // Serial: the sole member panics before pulling any work; the
        // unwind is contained and surfaces as a typed error, not an abort.
        let opts = SolverOptions::default().with_fault_plan(plan.clone());
        let err = find_imaginary_eigenvalues(&ss, &opts).unwrap_err();
        assert!(
            matches!(err, SolverError::TaskPanicked { .. }),
            "got {err:?}"
        );
        // Parallel: the surviving members finish the whole band, so the
        // panic is contained entirely and the result is complete.
        let opts = SolverOptions::default()
            .with_threads(4)
            .with_fault_plan(plan);
        let out = find_imaginary_eigenvalues(&ss, &opts).unwrap();
        let clean = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
        assert_eq!(out.frequencies.len(), clean.frequencies.len());
        assert!(out.coverage_gaps.is_empty());
        assert_eq!(out.covered_fraction, 1.0);
        assert!(out.stats.faults_injected >= 1);
    }

    #[test]
    fn transient_nan_injection_recovers_via_degradation_ladder() {
        // A one-shot NaN corruption of an operator application must never
        // produce NaN frequencies: the poisoned attempt fails, the ladder
        // retries, and the final answer agrees with the clean run (or the
        // shift is quarantined with a named gap — never silent garbage).
        let ss = generate_case(&CaseSpec::new(24, 2).with_seed(31).with_target_crossings(4))
            .unwrap()
            .realize();
        let clean = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
        let plan = FaultPlan {
            nan_apply: Some(3),
            ..FaultPlan::default()
        };
        let opts = SolverOptions::default().with_fault_plan(plan);
        let out = find_imaginary_eigenvalues(&ss, &opts).unwrap();
        assert!(out.frequencies.iter().all(|w| w.is_finite()));
        assert!(out.stats.faults_injected >= 1);
        if out.quarantined.is_empty() {
            assert_eq!(out.frequencies.len(), clean.frequencies.len());
            for (a, b) in out.frequencies.iter().zip(&clean.frequencies) {
                assert!((a - b).abs() < 1e-5 * clean.band.1);
            }
        } else {
            assert!(!out.coverage_gaps.is_empty());
        }
    }

    #[test]
    fn parallel_shift_log_is_deterministically_ordered() {
        let ss = generate_case(&CaseSpec::new(24, 2).with_seed(31).with_target_crossings(4))
            .unwrap()
            .realize();
        for threads in [1usize, 4] {
            let out =
                find_imaginary_eigenvalues(&ss, &SolverOptions::default().with_threads(threads))
                    .unwrap();
            let keys: Vec<(f64, f64)> = out.shift_log.iter().map(|r| (r.omega, r.radius)).collect();
            let mut sorted = keys.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(keys, sorted, "T={threads}: shift_log not in sorted order");
        }
    }

    #[test]
    fn reused_workspace_gives_identical_results() {
        // The workspace is pure scratch: passing a dirty workspace from a
        // previous (different) model must not change any result.
        let ss1 = generate_case(&CaseSpec::new(20, 2).with_seed(6).with_target_crossings(2))
            .unwrap()
            .realize();
        let ss2 = generate_case(&CaseSpec::new(14, 3).with_seed(9))
            .unwrap()
            .realize();
        let opts = SolverOptions::default();
        let mut ws = SolverWorkspace::new();
        let _ = find_imaginary_eigenvalues_with(&ss2, &opts, &mut ws).unwrap();
        let dirty = find_imaginary_eigenvalues_with(&ss1, &opts, &mut ws).unwrap();
        let fresh = find_imaginary_eigenvalues(&ss1, &opts).unwrap();
        assert_eq!(dirty.frequencies, fresh.frequencies);
        assert_eq!(
            dirty.shift_log.len(),
            fresh.shift_log.len(),
            "workspace reuse changed the shift schedule"
        );
    }

    #[test]
    fn shift_log_is_consistent() {
        let ss = generate_case(&CaseSpec::new(14, 2).with_seed(5))
            .unwrap()
            .realize();
        let out = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
        assert_eq!(out.shift_log.len(), out.stats.scheduler.processed);
        let sum: usize = out.shift_log.iter().map(|r| r.matvecs).sum();
        assert_eq!(sum, out.stats.total_matvecs);
        for r in &out.shift_log {
            assert!(r.radius > 0.0);
            assert!(r.cost_units >= r.matvecs as u64);
        }
        // The pool counters: every donor of a finished serial sweep has
        // been evicted (no shift is left to gather from it), and the pool
        // never held more than was converged.
        let st = &out.stats;
        assert!(st.pairs_converged >= out.eigenpairs.len());
        assert!(st.pool_peak_pairs > 0 && st.pool_peak_pairs <= st.pairs_converged);
        assert!(st.pool_evicted_entries > 0 && st.pool_evicted_entries <= out.shift_log.len());
        let cold = find_imaginary_eigenvalues(&ss, &SolverOptions::default().with_recycling(false))
            .unwrap();
        assert!(cold.stats.pairs_converged > 0);
        assert_eq!(cold.stats.pool_peak_pairs, 0);
        assert_eq!(cold.stats.pool_evicted_entries, 0);
        // Zero-fault baseline: nothing injected, nothing quarantined,
        // full coverage.
        assert_eq!(out.stats.faults_injected, 0);
        assert_eq!(out.stats.shifts_quarantined, 0);
        assert!(out.quarantined.is_empty());
        assert!(out.coverage_gaps.is_empty());
        assert_eq!(out.covered_fraction, 1.0);
    }
}
