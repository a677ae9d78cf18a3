//! The multi-shift sweep driver.
//!
//! One loop serves every thread count: idle cohort members pull
//! [`Scheduler::next_shift`] exactly as Sec. IV.C prescribes, and the
//! paper's serial algorithm is that loop at `T = 1`. The workers are not
//! spawned here: a sweep submits a cohort of `T - 1` extra members to the
//! persistent [`Executor`] and joins it as the first member, so repeated
//! sweeps (the enforcement loop, batches of models) reuse one long-lived
//! pool instead of respawning scoped threads per sweep. The simulator runs
//! the same per-pull body under a virtual clock.

use crate::band::estimate_band;
use crate::dense;
use crate::error::SolverError;
use crate::exec::Executor;
use crate::scheduler::{Scheduler, SchedulerStats, ShiftTask, GATHER_FACTOR};
use crate::simulate::ScheduleMode;
use crate::spectrum::{self, ImaginaryEigenpair};
use parking_lot::{Condvar, Mutex};
use pheig_arnoldi::{
    single_shift_iteration_recycled_with, ArnoldiWorkspace, CancelToken, ConvergedEigenpair,
    FaultPlan, RecyclePool, RecycledPair, SingleShiftOptions, SingleShiftOutcome, SweepControl,
};
use pheig_linalg::C64;
use pheig_model::StateSpace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Reusable solver scratch of *one* sweep worker (each cohort member
/// executes against its own): the Arnoldi workspace of the shift that
/// worker runs.
///
/// A workspace created once and passed to repeated
/// [`find_imaginary_eigenvalues_with`] calls (as the passivity-enforcement
/// loop does) keeps the Krylov basis storage alive across sweeps,
/// eliminating steady-state allocation churn from the hot path.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    arnoldi: ArnoldiWorkspace,
}

impl SolverWorkspace {
    /// An empty workspace; its scratch grows on first use.
    pub fn new() -> Self {
        Self::default()
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
    /// Single-shift Arnoldi tuning of a shift's first attempt; the
    /// degradation ladder's retries derive theirs from it (DESIGN.md "The
    /// degradation ladder"). Every rung replaces two of its fields: `seed`,
    /// derived per shift and rung from [`Self::seed`], and `control`, the
    /// sweep's [`Self::fault_plan`] armed with [`Self::cancel`]. So
    /// `arnoldi.seed` seeds only the band estimate (when [`Self::band`] is
    /// `None`), and a sweep never reads `arnoldi.control`.
    pub arnoldi: SingleShiftOptions,
    /// Search band override; `None` estimates `[0, omega_max]` from the
    /// largest Hamiltonian eigenvalue (Sec. IV.A).
    pub band: Option<(f64, f64)>,
    /// Base RNG seed; per-shift start vectors derive from it.
    pub seed: u64,
    /// Krylov recycling across the shifts of one sweep: converged Ritz
    /// vectors of completed disks warm-start nearby shifts (kill switch
    /// for A/B measurement; on by default).
    pub recycling: bool,
    /// Cooperative cancellation: latch the token and the sweep winds down
    /// at the next restart boundaries, returning whatever is certified
    /// (remaining work becomes named coverage gaps, not an error).
    pub cancel: Option<CancelToken>,
    /// Fault-injection plan for chaos testing, and the per-sweep work
    /// budgets (`FaultPlan::{budget_matvecs, budget_restarts}`: on
    /// exhaustion the sweep degrades to a partial result exactly like a
    /// cancellation). The default, empty plan arms nothing and costs
    /// nothing on the hot path.
    pub fault_plan: FaultPlan,
    /// Largest Hamiltonian order `2n` solved densely instead of swept: at
    /// or below it a sweep is one `O(n^3)` eigensolve of the whole dense
    /// Hamiltonian, eigenvectors for the crossings only, certified by
    /// [`Certificate::DenseWholeBand`] instead of disks. `0` never takes
    /// the dense path. It applies no operator, so `fault_plan` (budgets
    /// included), `recycling` and `threads` do not apply to it; `cancel`
    /// does. The simulator
    /// ([`crate::simulate::simulate_parallel`]) always sweeps. The default,
    /// [`DEFAULT_DENSE_MAX`], is the measured crossover.
    pub dense_max: usize,
}

/// The default [`SolverOptions::dense_max`]: the largest `2n` at which the
/// dense path was no slower than the sweep in every cell of the
/// `crossover` example's grid (DESIGN.md "Dense dispatch"). It stays below
/// the `2n = 192` of the `n = 96` sweep pins, which must keep sweeping.
pub const DEFAULT_DENSE_MAX: usize = 96;

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
            recycling: true,
            cancel: None,
            fault_plan: FaultPlan::default(),
            dense_max: DEFAULT_DENSE_MAX,
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

    /// Arms a fault-injection plan (chaos testing) or a work budget.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the largest `2n` solved densely (`0`: always sweep).
    pub fn with_dense_max(mut self, dense_max: usize) -> Self {
        self.dense_max = dense_max;
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
    /// Operator applications spent by the certifying rung (a failed
    /// rung's are not counted here or anywhere else).
    pub matvecs: usize,
    /// Restarts spent by the certifying rung.
    pub restarts: usize,
    /// Deterministic cost units (matvecs + 3 per restart + half a unit,
    /// rounded up, per vector of the refined locked subspace) used by the
    /// virtual-time simulator.
    pub cost_units: u64,
    /// Recycled warm-start candidates validated for this shift.
    pub warm_candidates: usize,
    /// Warm candidates that locked immediately (one matvec each).
    pub warm_pre_locked: usize,
    /// The degradation-ladder rung that certified the shift (0: the
    /// first, warm attempt; see DESIGN.md "The degradation ladder").
    pub rung: usize,
    /// Wall-clock time of the iteration.
    pub wall: Duration,
}

/// Aggregate run statistics.
#[derive(Debug, Clone, Default)]
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
}

/// A shift the sweep gave up on after all five rungs of the degradation
/// ladder failed (DESIGN.md "The degradation ladder"), or that was
/// abandoned by a cancellation / budget stop.
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
    /// The first error that sent the shift down the degradation ladder:
    /// rung 0's, or "sweep stopped" when a stop came before it ran.
    pub reason: SolverError,
}

/// What vouches that a sweep examined its band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certificate {
    /// The certified disks of [`SolverOutcome::shift_log`]: the band is
    /// examined where they cover it, and `coverage_gaps` names the rest.
    Disks,
    /// One dense eigensolve of the whole Hamiltonian: every eigenvalue was
    /// computed, so the whole band is examined without any disk.
    DenseWholeBand,
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
    /// What certifies the coverage: disks, or a dense whole-band solve
    /// (then `shift_log` is empty).
    pub certificate: Certificate,
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

/// Start-vector seed of ladder step `k` at `task` from seed `base`.
fn shift_seed(base: u64, task: &ShiftTask, k: usize) -> u64 {
    base.wrapping_add((task.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(k as u64)
}

/// The frequency scale on which crossings live: the fastest pole resonance.
pub(crate) fn pole_scale(ss: &StateSpace) -> f64 {
    ss.a().max_natural_frequency().max(f64::MIN_POSITIVE)
}

/// Converged in-disk eigenpairs of every completed shift -> the polished
/// ([`spectrum::polish`]), deduped crossings. "Purely imaginary" is
/// classified with a safety factor above the Arnoldi eigenvalue tolerance,
/// scaled by the pole band `scale` ([`pole_scale`]; crossings cannot occur
/// beyond the model's resonances).
fn crossings(
    ss: &StateSpace,
    pairs: &[ConvergedEigenpair],
    opts: &SolverOptions,
    scale: f64,
) -> Vec<ImaginaryEigenpair> {
    let axis = axis_tol(opts, scale);
    let mut eigs = spectrum::extract_imaginary(pairs, axis);
    spectrum::polish(ss, &mut eigs, axis);
    spectrum::dedupe(eigs, merge_tol(opts, scale))
}

/// Real-part tolerance under which [`crossings`] reads an eigenvalue as
/// purely imaginary, at pole band `scale`.
pub(crate) fn axis_tol(opts: &SolverOptions, scale: f64) -> f64 {
    1e3 * opts.arnoldi.tol * scale.max(f64::MIN_POSITIVE)
}

/// Distance under which two crossings are one ([`spectrum::dedupe`]).
pub(crate) fn merge_tol(opts: &SolverOptions, scale: f64) -> f64 {
    axis_tol(opts, scale).max(1e-12 * scale)
}

/// The crossings a sweep of `band` reports.
///
/// Certified disks may extend well past the requested band — warm-started
/// certificates especially, since donated far pairs widen them — and
/// everything inside a disk is a true eigenvalue. But a caller who
/// restricted the band asked about that band: report crossings only up to
/// half a band-width past the top edge (the documented "disks slightly
/// overshoot" slack). The disks themselves stay in `shift_log`, so
/// coverage checks are unchanged.
pub(crate) fn reportable(
    mut eigenpairs: Vec<ImaginaryEigenpair>,
    band: (f64, f64),
) -> Vec<ImaginaryEigenpair> {
    let report_cap = band.1 + 0.5 * (band.1 - band.0);
    eigenpairs.retain(|e| e.lambda.im <= report_cap);
    eigenpairs
}

/// What a sweep keeps of a finished shift's in-disk set: the pairs
/// [`crossings`] can read, in their order (the rest is read again only
/// through the recycle pool, which holds its own references).
fn axis_pairs(
    mut in_disk: Vec<ConvergedEigenpair>,
    opts: &SolverOptions,
    scale: f64,
) -> Vec<ConvergedEigenpair> {
    let tol = axis_tol(opts, scale);
    in_disk.retain(|e| spectrum::on_axis(e.lambda, tol));
    in_disk
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
/// A shift that cannot be certified is *not* an error: the degradation
/// ladder retries it four times (nudged and enlarged, then once with a
/// widened tolerance), then quarantines it, and the sweep returns a
/// partial result whose [`SolverOutcome::coverage_gaps`] name the
/// unexamined intervals.
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
/// This is the one sweep driver: a cohort of `opts.threads` memberships
/// of the sweep's pull -> execute -> commit loop on the persistent
/// executor — this thread plus `threads - 1` pool members (none at
/// `T = 1`, where the cohort is the inline, uncontended membership).
/// Inside a pool already (a batch job fanning out its sweep) the cohort
/// lands on that same pool instead of a nested one.
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
    if takes_dense_path(ss, opts) {
        validate_options(opts)?;
        return dense::solve(ss, opts);
    }
    let share = SweepShare::new(ss, opts, opts.threads, ScheduleMode::Dynamic)?;
    let extra = opts.threads.saturating_sub(1);
    let run = Executor::current_or_pool(extra).run_cohort(extra, ws, &|ws| share.run(ws));
    // A panic payload only becomes an error when the sweep did not
    // finish: an injected worker panic whose siblings still completed the
    // band is a *contained* fault, not a failure.
    if let Err(payload) = run {
        if !share.shared.lock().scheduler.is_done() {
            return Err(SolverError::from_panic(payload.as_ref()));
        }
    }
    Ok(share.finish())
}

/// Whether a sweep of `ss` under `opts` is the dense eigensolve.
fn takes_dense_path(ss: &StateSpace, opts: &SolverOptions) -> bool {
    2 * ss.order() <= opts.dense_max
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
pub(crate) struct SharedState {
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

/// One sweep: its setup, and its shared state behind one lock.
///
/// The per-pull body is three crate-private steps — `pull` and `commit`
/// under the lock, `execute` outside it — and two clocks drive them: the
/// executor cohort's real threads (`SweepShare::run`) and the
/// simulator's virtual members ([`crate::simulate::simulate_parallel`]).
pub(crate) struct SweepShare<'a> {
    ss: &'a StateSpace,
    opts: &'a SolverOptions,
    band: (f64, f64),
    scale: f64,
    pub(crate) shared: Mutex<SharedState>,
    cv: Condvar,
    /// The armed fault plan with the caller's cancel token: the one
    /// control every shift of the sweep and the pull boundary share.
    control: SweepControl,
    started: Instant,
}

impl<'a> SweepShare<'a> {
    /// The setup both clocks share: the options' fault plan armed with the
    /// caller's cancel token, the band, the pole scale, and the scheduler
    /// `mode` builds for `threads` members beside an empty recycle pool.
    pub(crate) fn new(
        ss: &'a StateSpace,
        opts: &'a SolverOptions,
        threads: usize,
        mode: ScheduleMode,
    ) -> Result<Self, SolverError> {
        validate_options(opts)?;
        let started = Instant::now();
        let control = opts.fault_plan.activate(opts.cancel.clone());
        let band = match opts.band {
            Some(b) => b,
            None => estimate_band(ss, &opts.arnoldi)?,
        };
        let (n_intervals, delete_covered) = match mode {
            // `N = kappa T` initial intervals (paper: `kappa >= 2`), never
            // below four.
            ScheduleMode::Dynamic => ((opts.kappa.max(2) * threads.max(1)).max(4), true),
            ScheduleMode::StaticGrid { n_shifts } => (n_shifts.max(2), false),
        };
        let mut scheduler = Scheduler::new(band, n_intervals, opts.alpha);
        scheduler.set_delete_covered(delete_covered);
        Ok(SweepShare {
            ss,
            band,
            scale: pole_scale(ss),
            shared: Mutex::new(SharedState {
                scheduler,
                pool: RecyclePool::new(),
                completions: Vec::new(),
                quarantined: Vec::new(),
                pairs_converged: 0,
                pool_peak_pairs: 0,
                pool_evicted_entries: 0,
            }),
            cv: Condvar::new(),
            control,
            opts,
            started,
        })
    }

    /// One cohort membership: Sec. IV.C's idle-worker loop, pull ->
    /// execute -> commit until the scheduler is done. A member finding the
    /// queue momentarily empty *waits* (another member's completion may
    /// split intervals and refill it) and wakes on every completion.
    pub(crate) fn run(&self, ws: &mut SolverWorkspace) {
        loop {
            // An injected worker panic fires here, at the pull boundary
            // with nothing in flight and no lock held: what's under test
            // is the containment machinery (latch completion, workspace
            // return, typed surfacing), not torn scheduler state.
            if self.control.fire_panic_task() {
                panic!("injected fault: solver task panic at pull boundary");
            }
            let (task, warm) = {
                let mut guard = self.shared.lock();
                loop {
                    if let Some(pulled) = self.pull(&mut guard) {
                        break pulled;
                    }
                    if guard.scheduler.is_done() {
                        self.cv.notify_all();
                        return;
                    }
                    self.cv.wait(&mut guard);
                }
            };
            let started = Instant::now();
            let result = self.execute(&task, &warm, &mut ws.arnoldi);
            self.commit(&mut self.shared.lock(), &task, result, started.elapsed());
            self.cv.notify_all();
        }
    }

    /// Pull, under the lock and without waiting: the next pending shift
    /// and its recycled warm-start candidates, or `None` when none is
    /// pending right now. After a cancel or budget stop it pulls nothing
    /// and quarantines every queued tentative instead, so the sweep ends
    /// with *named* gaps rather than spinning (a partial result, not an
    /// error).
    pub(crate) fn pull(&self, state: &mut SharedState) -> Option<(ShiftTask, Vec<RecycledPair>)> {
        if self.control.should_stop() {
            let why = if self.control.is_cancelled() {
                "cancelled"
            } else {
                "budget exhausted"
            };
            while let Some(t) = state.scheduler.next_shift() {
                let reason = format!("sweep {why} before this shift ran");
                let omega = t.omega;
                state.quarantine(&t, SolverError::ShiftFailed { omega, reason });
            }
            return None;
        }
        let task = state.scheduler.next_shift()?;
        if !self.opts.recycling {
            return Some((task, Vec::new()));
        }
        // Reach slightly exceeds the initial radius guess (candidates just
        // outside the expected disk still cap the certificate via near-miss
        // estimates); the cap is the per-shift collect target plus slack,
        // rounded up to even so Hamiltonian mirror pairs are never split.
        let cap = (self.opts.arnoldi.n_eigs + 4) & !1;
        let warm = state
            .pool
            .gather(C64::from_imag(task.omega), task.rho0 * GATHER_FACTOR, cap);
        Some((task, warm))
    }

    /// Execute, outside the lock: the degradation ladder (DESIGN.md "The
    /// degradation ladder"), up to five rungs, each run only if the sweep
    /// was not stopped and under its own `catch_unwind`:
    ///
    /// | rung | shift | start | subspace / restarts | tolerance |
    /// |---|---|---|---|---|
    /// | 0 | `omega` | warm | as set | `tol` |
    /// | `k` = 1..3 | `max(omega ± 0.017 k rho0, 0)`, `+` for odd `k` | cold, seed `+ k` | `+30k` / `+8k` | `tol` |
    /// | 4 | `omega` | cold, seed base `seed ^ 0xC01D_C01D` | as set | `100 tol`, at most 1e-5 |
    ///
    /// `Ok` carries the certifying rung; `Err` the first rung's error,
    /// which [`commit`](Self::commit) quarantines the shift with.
    pub(crate) fn execute(
        &self,
        task: &ShiftTask,
        warm: &[RecycledPair],
        ws: &mut ArnoldiWorkspace,
    ) -> Result<(usize, SingleShiftOutcome), SolverError> {
        const LAST: usize = 4;
        // Tolerances track the *local* magnitude: the spectral radius of M
        // can exceed the pole band by orders of magnitude, and resolving
        // eigenvalues at it would swallow genuine crossing separations.
        let scale = task.omega.abs().max(self.scale);
        let failed = |reason: String| SolverError::ShiftFailed {
            omega: task.omega,
            reason,
        };
        let mut first = None;
        for rung in 0..=LAST {
            if self.control.should_stop() {
                break;
            }
            // Rung 4 takes rung 0's shift and size.
            let k = rung % LAST;
            let mut aopts = self.opts.arnoldi.clone();
            let base = if rung == LAST {
                aopts.tol = (aopts.tol * 100.0).min(1e-5);
                self.opts.seed ^ 0xC01D_C01D
            } else {
                self.opts.seed
            };
            aopts.seed = shift_seed(base, task, k);
            aopts.control = self.control.clone();
            aopts.max_subspace += 30 * k;
            aopts.max_restarts += 8 * k;
            let nudge = match k {
                0 => 0.0,
                k => task.rho0 * 0.017 * k as f64 * if k % 2 == 0 { -1.0 } else { 1.0 },
            };
            let omega = (task.omega + nudge).max(0.0);
            let warm = if rung == 0 { warm } else { &[] };
            let error = match catch_unwind(AssertUnwindSafe(|| {
                single_shift_iteration_recycled_with(
                    self.ss, omega, task.rho0, scale, &aopts, ws, warm,
                )
            })) {
                Ok(Ok(out)) if out.radius > 1e-12 * scale.max(1.0) => return Ok((rung, out)),
                Ok(Ok(out)) => failed(format!("radius {} below resolution", out.radius)),
                Ok(Err(e)) => failed(e.to_string()),
                Err(panic) => SolverError::from_panic(panic.as_ref()),
            };
            first.get_or_insert(error);
        }
        Err(first.unwrap_or_else(|| failed("sweep stopped (cancelled or budget exhausted)".into())))
    }

    /// Commit, under the lock. A certified disk is recorded — always
    /// sound to hand the scheduler, even when sibling disks covered the
    /// shift's interval while it ran: the pool takes the donation, then
    /// drops every entry the updated scheduler says no shift can gather
    /// from again (so no gather sees the difference). A failed shift, the
    /// ladder's last rung, is quarantined.
    pub(crate) fn commit(
        &self,
        state: &mut SharedState,
        task: &ShiftTask,
        result: Result<(usize, SingleShiftOutcome), SolverError>,
        wall: Duration,
    ) {
        let (rung, out) = match result {
            Ok(certified) => certified,
            Err(first) => return state.quarantine(task, first),
        };
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
            rung,
            wall,
        };
        let kept = axis_pairs(out.in_disk, self.opts, self.scale);
        state.completions.push((rec, kept));
    }

    /// The finished sweep's outcome.
    pub(crate) fn finish(self) -> SolverOutcome {
        let wall = self.started.elapsed();
        let state = self.shared.into_inner();
        let band = self.band;
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
        let eigenpairs = reportable(crossings(self.ss, &all_pairs, self.opts, self.scale), band);
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
            certificate: Certificate::Disks,
            stats: SolverStats {
                scheduler: sched_stats,
                total_matvecs,
                warm_started_shifts,
                recycle_candidates,
                recycle_hits,
                shifts_quarantined,
                faults_injected: self.control.faults_injected() as u64,
                pairs_converged: state.pairs_converged,
                pool_peak_pairs: state.pool_peak_pairs,
                pool_evicted_entries: state.pool_evicted_entries,
                wall,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::simulate_parallel;
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

    /// The iterative sweep: every model below sits under the dense
    /// crossover, and these tests are the sweep's.
    fn sweep() -> SolverOptions {
        SolverOptions::default().with_dense_max(0)
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
        let out = find_imaginary_eigenvalues(&ss, &sweep()).unwrap();
        assert_matches_oracle(&out.frequencies, &want, out.band.1);
    }

    #[test]
    fn serial_passive_model_has_empty_omega() {
        let ss = generate_case(&CaseSpec::new(20, 2).with_seed(8).with_target_crossings(0))
            .unwrap()
            .realize();
        let out = find_imaginary_eigenvalues(&ss, &sweep()).unwrap();
        assert!(out.frequencies.is_empty(), "got {:?}", out.frequencies);
        assert!(out.stats.scheduler.processed > 0);
    }

    #[test]
    fn parallel_agrees_with_serial() {
        let ss = generate_case(&CaseSpec::new(30, 3).with_seed(12).with_target_crossings(6))
            .unwrap()
            .realize();
        let serial = find_imaginary_eigenvalues(&ss, &sweep()).unwrap();
        for threads in [2, 4] {
            let par = find_imaginary_eigenvalues(&ss, &sweep().with_threads(threads)).unwrap();
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
        let out = find_imaginary_eigenvalues(&ss, &sweep()).unwrap();
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
        let out = find_imaginary_eigenvalues(&ss, &sweep().with_band(0.0, 3.0)).unwrap();
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
        assert!(find_imaginary_eigenvalues(&ss, &sweep().with_band(0.0, 3.0)).is_ok());
    }

    #[test]
    fn persistent_breakdown_quarantines_with_honest_gaps() {
        // Force every shift to fail: at a zero tolerance no Ritz value can
        // ever converge, so all five rungs of the degradation ladder (the
        // widened last one included: 100 x 0 is 0) fail on every shift.
        // The sweep must terminate with an honest partial result — named
        // gaps spanning the band — not an error and not a deadlock.
        let ss = generate_case(&CaseSpec::new(16, 2).with_seed(4).with_target_crossings(2))
            .unwrap()
            .realize();
        let mut opts = sweep().with_threads(4);
        opts.arnoldi.max_restarts = 0;
        opts.arnoldi.tol = 0.0;
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
        // The simulator walks the same ladder: a partial result, not an
        // error.
        for threads in [4usize, 1] {
            let sim = simulate_parallel(&ss, threads, &opts, ScheduleMode::Dynamic).unwrap();
            assert!(sim.stats.shifts_quarantined > 0, "simulated T={threads}");
            assert!(sim.covered_fraction < 0.01, "simulated T={threads}");
            assert!(sim.frequencies.is_empty(), "simulated T={threads}");
            assert_eq!(sim.total_cost, 0, "simulated T={threads}");
        }
    }

    #[test]
    fn shift_log_names_the_certifying_rung() {
        // Without restarts rung 0 cannot converge (recycling off: a warm
        // shift whose candidates all lock needs none); rungs 1-3 bring
        // 8-24 of their own, so every shift certifies on a retry and says
        // so.
        let ss = generate_case(&CaseSpec::new(16, 2).with_seed(4).with_target_crossings(2))
            .unwrap()
            .realize();
        let mut opts = sweep().with_recycling(false);
        let healthy = find_imaginary_eigenvalues(&ss, &opts).unwrap();
        assert!(healthy.shift_log.iter().all(|r| r.rung == 0));
        opts.arnoldi.max_restarts = 0;
        let retried = find_imaginary_eigenvalues(&ss, &opts).unwrap();
        assert_eq!(retried.covered_fraction, 1.0);
        assert!(!retried.shift_log.is_empty());
        assert!(retried.shift_log.iter().all(|r| r.rung >= 1));
    }

    #[test]
    fn budget_exhaustion_returns_partial_result_not_error() {
        let ss = generate_case(&CaseSpec::new(24, 2).with_seed(31).with_target_crossings(4))
            .unwrap()
            .realize();
        // A tiny matvec budget stops the sweep almost immediately.
        let budget = |b| {
            sweep().with_fault_plan(FaultPlan {
                budget_matvecs: Some(b),
                ..FaultPlan::default()
            })
        };
        let opts = budget(1);
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
        let opts = budget(10_000_000);
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
            let opts = sweep().with_threads(threads).with_cancel(token.clone());
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
        let opts = sweep().with_fault_plan(plan.clone());
        let err = find_imaginary_eigenvalues(&ss, &opts).unwrap_err();
        assert!(
            matches!(err, SolverError::TaskPanicked { .. }),
            "got {err:?}"
        );
        // Parallel: the surviving members finish the whole band, so the
        // panic is contained entirely and the result is complete.
        let opts = sweep().with_threads(4).with_fault_plan(plan);
        let out = find_imaginary_eigenvalues(&ss, &opts).unwrap();
        let clean = find_imaginary_eigenvalues(&ss, &sweep()).unwrap();
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
        let clean = find_imaginary_eigenvalues(&ss, &sweep()).unwrap();
        let plan = FaultPlan {
            nan_apply: Some(3),
            ..FaultPlan::default()
        };
        let opts = sweep().with_fault_plan(plan);
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
            let out = find_imaginary_eigenvalues(&ss, &sweep().with_threads(threads)).unwrap();
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
        let opts = sweep();
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
        let out = find_imaginary_eigenvalues(&ss, &sweep()).unwrap();
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
        let cold = find_imaginary_eigenvalues(&ss, &sweep().with_recycling(false)).unwrap();
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

    #[test]
    fn n96_pin_model_sweeps_under_default_options() {
        // `tests/perf_pins.rs` and `benchmark -- smoke` pin this model's
        // sweep matvecs; a default threshold at or above its
        // 2n = 192 would silently turn both into dense solves.
        let ss = generate_case(&CaseSpec::new(96, 3).with_target_crossings(4).with_seed(7))
            .unwrap()
            .realize();
        assert!(!takes_dense_path(&ss, &SolverOptions::default()));
        let small = generate_case(&CaseSpec::new(24, 2).with_seed(31))
            .unwrap()
            .realize();
        assert!(takes_dense_path(&small, &SolverOptions::default()));
        assert!(!takes_dense_path(&small, &sweep()));
    }

    #[test]
    fn dense_path_certifies_the_band_and_matches_the_sweep() {
        let ss = generate_case(&CaseSpec::new(24, 2).with_seed(31).with_target_crossings(4))
            .unwrap()
            .realize();
        let dense = find_imaginary_eigenvalues(&ss, &SolverOptions::default()).unwrap();
        let swept = find_imaginary_eigenvalues(&ss, &sweep()).unwrap();
        assert_eq!(dense.certificate, Certificate::DenseWholeBand);
        assert_eq!(swept.certificate, Certificate::Disks);
        assert!(dense.shift_log.is_empty() && dense.coverage_gaps.is_empty());
        assert_eq!(dense.covered_fraction, 1.0);
        assert_eq!(dense.stats.total_matvecs, 0);
        assert_matches_oracle(&dense.frequencies, &swept.frequencies, swept.band.1);
        assert_matches_oracle(&dense.frequencies, &oracle_crossings(&ss), dense.band.1);
        // (The eigenvector residuals are `tests/dense_dispatch.rs`'s.)
        assert!(dense.eigenpairs.iter().all(|e| e.error_estimate < 1e-12));
        // A band override is honoured, and a pre-cancelled dense solve
        // claims nothing: the whole band is one named gap.
        let banded =
            find_imaginary_eigenvalues(&ss, &SolverOptions::default().with_band(0.0, 3.0)).unwrap();
        assert_eq!(banded.band, (0.0, 3.0));
        let token = CancelToken::new();
        token.cancel();
        let out =
            find_imaginary_eigenvalues(&ss, &SolverOptions::default().with_cancel(token)).unwrap();
        assert!(out.frequencies.is_empty());
        assert_eq!(out.covered_fraction, 0.0);
        assert_eq!(out.coverage_gaps, vec![out.band]);
        assert_eq!(out.stats.shifts_quarantined, out.quarantined.len());
        assert!(format!("{}", out.quarantined[0].reason).contains("cancelled"));
    }
}
