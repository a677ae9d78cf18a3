//! The paper's single-shift iteration `S(theta, rho0)` (Sec. III) and the
//! non-inverted largest-eigenvalue estimator used to size the search band.

use crate::error::ArnoldiError;
use crate::krylov::{arnoldi_into, ArnoldiFactorization};
use crate::options::SingleShiftOptions;
use crate::recycle::RecycledPair;
use crate::ritz::{ritz_pairs, RitzSet};
use pheig_hamiltonian::{CLinearOp, ShiftInvertOp};
use pheig_linalg::kernels::{self, SplitBasis};
use pheig_linalg::vector::{dot, normalize};
use pheig_linalg::{Matrix, C64};
use pheig_model::StateSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Reusable scratch for the single-shift iteration: the Arnoldi
/// factorization storage, the Ritz extraction, the locked set's operator
/// images and the plane buffers every round-closing combination runs in.
///
/// One workspace serves one worker; passing the same workspace to
/// successive [`single_shift_on_op_with`] /
/// [`single_shift_iteration_recycled_with`] calls reuses all of its
/// allocations (a sweep runs thousands of shifts, so per-shift allocation
/// churn is measurable). After a warm-up shift, a shift allocates only the
/// images of the pairs it locks, the eigenvectors it returns and a few
/// small per-shift lists — nothing per round.
#[derive(Debug, Default)]
pub struct ArnoldiWorkspace {
    /// The factorization; its locked set *is* the shift's deflation set.
    fact: ArnoldiFactorization,
    /// Cached `Op q` for each locked vector, aligned with the rows of
    /// `fact.locked()`. Warm validation already pays one operator
    /// application per candidate, and round-locked Ritz vectors get their
    /// image from the build identity `Op V = V H + beta v_m e_m^T + L HL`;
    /// in both cases the deflation copy is a linear combination of vectors
    /// with known images, so the Rayleigh-Ritz refinement never applies
    /// the operator. One allocation pair per lock, freed with the shift:
    /// images are only ever read a row at a time, and a contiguous store
    /// held at its high-water mark in every lane's workspace costs more
    /// resident memory than the shifts ever use at once.
    locked_img: Vec<Planes>,
    /// The next round's start vector.
    start: Vec<C64>,
    round: RoundScratch,
}

/// What closing a round (or validating a warm candidate) computes in:
/// nothing here outlives the call that fills it, so the lanes of a block,
/// which never run concurrently, take turns with one
/// ([`ShiftCore::with_round`]).
#[derive(Debug, Default)]
pub(crate) struct RoundScratch {
    ritz: RitzSet,
    /// A vector being lifted or locked, and its operator image.
    v: Planes,
    z: Planes,
    /// The explicit-restart combination.
    c: Planes,
    coeff: Vec<C64>,
    /// The Rayleigh-Ritz matrix `Q^H (Op Q)`.
    t: Matrix<C64>,
}

impl ArnoldiWorkspace {
    /// An empty workspace; storage grows on first use and is then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// The round scratch, for a block driver to share among its lanes
    /// through [`ShiftCore::with_round`] (hand it back when the block is
    /// done so it stays warm).
    pub(crate) fn round_mut(&mut self) -> &mut RoundScratch {
        &mut self.round
    }
}

/// One split-complex vector. Its arithmetic is *chain-order*: every
/// element sees the operations, in the order, that the interleaved
/// `vector::{axpy, dot, normalize}` chains this module used to run would
/// apply (DESIGN.md, "Closing a round").
#[derive(Debug, Clone, Default)]
struct Planes {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Planes {
    /// The zero vector of length `n`.
    fn zero(&mut self, n: usize) {
        for plane in [&mut self.re, &mut self.im] {
            plane.clear();
            plane.resize(n, 0.0);
        }
    }

    /// Loads an interleaved vector.
    fn load(&mut self, x: &[C64]) {
        self.re.resize(x.len(), 0.0);
        self.im.resize(x.len(), 0.0);
        kernels::split(x, &mut self.re, &mut self.im);
    }

    /// `sum_{r < rows} c[r] q_r` over the rows of `basis`.
    fn combine(&mut self, basis: &SplitBasis, rows: usize, c: &[C64]) {
        self.zero(basis.row_len());
        basis.combine_into(rows, c, &mut self.re, &mut self.im);
    }

    fn scale(&mut self, k: f64) {
        kernels::scal_real(k, &mut self.re, &mut self.im);
    }

    /// Scales to unit norm and returns the original norm; a zero vector is
    /// left untouched.
    fn normalize(&mut self) -> f64 {
        kernels::normalize_seq(&mut self.re, &mut self.im)
    }

    /// `||self - mu x||^2`, accumulated element by element.
    fn residual_sq(&self, mu: C64, x: &Planes) -> f64 {
        let mut r2 = 0.0f64;
        for (((zr, zi), xr), xi) in self.re.iter().zip(&self.im).zip(&x.re).zip(&x.im) {
            let dr = zr - (mu.re * xr - mu.im * xi);
            let di = zi - (mu.re * xi + mu.im * xr);
            r2 += dr * dr + di * di;
        }
        r2
    }
}

/// A converged Hamiltonian eigenpair produced by the single-shift iteration.
#[derive(Debug, Clone)]
pub struct ConvergedEigenpair {
    /// The Hamiltonian eigenvalue `lambda` (mapped back from the
    /// shift-inverted spectrum).
    pub lambda: C64,
    /// Unit-norm eigenvector in the original `C^{2n}` space. One shared
    /// block: the sweep's completion record, the recycle pool, every
    /// gathered warm list and the final crossings all point at it.
    pub vector: Arc<[C64]>,
    /// Mapped eigenvalue error estimate at acceptance time.
    pub error_estimate: f64,
}

/// Result of one single-shift iteration: the certified disk and the
/// eigenvalues inside it (paper Eq. (9) and Fig. 1).
#[derive(Debug, Clone)]
pub struct SingleShiftOutcome {
    /// The shift `theta` that was processed.
    pub theta: C64,
    /// Certified disk radius `rho`: the iteration found *every* eigenvalue
    /// with `|lambda - theta| < rho` (under the shift-invert convergence
    /// ordering assumption; see module docs).
    pub radius: f64,
    /// Converged eigenpairs with `|lambda - theta| <= radius`.
    pub in_disk: Vec<ConvergedEigenpair>,
    /// Every eigenvalue that converged, including any outside the disk.
    pub all_converged: Vec<C64>,
    /// Operator applications spent.
    pub matvecs: usize,
    /// Explicit restarts performed.
    pub restarts: usize,
    /// Recycled warm-start candidates validated (0 for a cold start).
    pub warm_candidates: usize,
    /// Warm candidates that pre-locked a distinct eigenvalue.
    pub warm_pre_locked: usize,
    /// Dimension of the locked subspace the Rayleigh-Ritz refinement ran
    /// on. The refinement applies no operator (images are cached or
    /// reconstructed from the build identity), but its projected
    /// eigenproblem and reconstructions still cost wall time proportional
    /// to this dimension — schedulers charge for it via
    /// [`cost accounting`](SingleShiftOutcome::matvecs)-style units.
    pub refine_dim: usize,
}

/// Runs the single-shift iteration on an explicit shift-inverted operator.
///
/// `map` converts operator eigenvalues back to Hamiltonian eigenvalues
/// (`lambda = theta + 1/mu` for shift-invert). `scale` sets the absolute
/// eigenvalue tolerance `opts.tol * scale` (use the band magnitude).
///
/// The workspace's Krylov basis, Hessenberg storage, and restart vectors
/// are reused across restarts *and* across calls, so a worker processing
/// many shifts incurs no steady-state allocation churn from the iteration
/// itself.
///
/// # Errors
///
/// * [`ArnoldiError::NoConvergence`] if nothing converges within the
///   restart budget;
/// * [`ArnoldiError::Linalg`] on projected eigensolver failure.
pub fn single_shift_on_op_with(
    op: &dyn CLinearOp,
    map: &dyn Fn(C64) -> C64,
    theta: C64,
    rho0: f64,
    scale: f64,
    opts: &SingleShiftOptions,
    ws: &mut ArnoldiWorkspace,
) -> Result<SingleShiftOutcome, ArnoldiError> {
    let mut core = ShiftCore::new(op.dim(), theta, rho0, scale, opts, ws);
    let mut apply = |x: &[C64], y: &mut [C64]| op.apply_into(x, y);
    core.run_to_completion(&[], &mut apply, map)
}

/// The single-shift iteration as a resumable state machine.
///
/// One `ShiftCore` owns all the per-shift state (locked eigenpairs, RNG,
/// restart bookkeeping, statistics) while borrowing its heavy scratch from
/// an [`ArnoldiWorkspace`]. The operator is externalized: [`Self::start`]
/// validates warm candidates and opens the first round, and every
/// [`Self::step`] after it performs exactly one Krylov-step operator
/// application plus whatever bookkeeping that step completes (closing a
/// round, opening the next, or the final Rayleigh–Ritz refinement and
/// radius certificate). Both return `Some(outcome)` once the shift is done.
///
/// The solo drivers loop over `step` until it yields; the block driver
/// steps several cores round-robin. Either way the per-shift math is the
/// same calls in the same order, so a lane's result does not depend on
/// what it is interleaved with. A cold start reproduces the original
/// algorithm exactly — same RNG draws, same arithmetic, same results
/// (pinned by `deterministic_given_seed`).
pub(crate) struct ShiftCore<'a> {
    ws: &'a mut ArnoldiWorkspace,
    opts: &'a SingleShiftOptions,
    n: usize,
    theta: C64,
    rho0: f64,
    scale: f64,
    tol_abs: f64,
    // Collect a couple extra converged eigenvalues beyond n_theta so the
    // radius certificate has a "next eigenvalue" distance to lean on.
    collect_target: usize,
    rng: StdRng,
    /// Eigenvalues of the distinct locked pairs (the locked *vectors* and
    /// their images live in the workspace, split-complex).
    locked_lambdas: Vec<C64>,
    near_estimates: Vec<f64>,
    /// Distances of warm candidates that validated as "converging" but not
    /// converged — they cap the certificate like `near_estimates` do.
    warm_near: Vec<f64>,
    /// Conservative cap from the final round's *unconverged* Ritz pairs:
    /// `min(dist - err)` over every pair that failed to lock, however
    /// rough. A short post-warm probe can surface an unfound eigenvalue
    /// as a high-residual estimate that `near_estimates` (which demands
    /// `err <= 1e5 * tol`) never records — without this cap the warm
    /// extended bracket would certify straight across it.
    ext_cap: f64,
    matvecs: usize,
    restarts: usize,
    stall: usize,
    // Explicit restart vector: the first start of a shift is random (the
    // paper's source of run-to-run variation); subsequent restarts reuse a
    // combination of the best unconverged Ritz vectors so progress
    // accumulates even when a single pass of `max_subspace` steps cannot
    // converge anything (dense spectra at large n).
    have_next_start: bool,
    /// `true` while the current round is a short post-warm probe.
    probing: bool,
    /// Remaining probe rounds. Set only when warm pre-locking alone reaches
    /// `collect_target`: the certificate then rests on *validated* pairs,
    /// and short deflated probe rounds confirm no nearer eigenvalue was
    /// missed — the same convergence-ordering assumption level the cold
    /// path's full rounds provide.
    probe_budget: usize,
    warm_candidates: usize,
    warm_pre_locked: usize,
}

impl<'a> ShiftCore<'a> {
    pub(crate) fn new(
        n: usize,
        theta: C64,
        rho0: f64,
        scale: f64,
        opts: &'a SingleShiftOptions,
        ws: &'a mut ArnoldiWorkspace,
    ) -> Self {
        let tol_abs = (opts.tol * scale.max(f64::MIN_POSITIVE)).max(1e-300);
        let rng = StdRng::seed_from_u64(opts.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let collect_target = opts.n_eigs + 1;
        ws.start.clear();
        ws.start.resize(n, C64::zero());
        ws.fact.set_locked(n, &[]);
        ws.locked_img.clear();
        ShiftCore {
            ws,
            opts,
            n,
            theta,
            rho0,
            scale,
            tol_abs,
            collect_target,
            rng,
            locked_lambdas: Vec::new(),
            near_estimates: Vec::new(),
            warm_near: Vec::new(),
            ext_cap: f64::INFINITY,
            matvecs: 0,
            restarts: 0,
            stall: 0,
            have_next_start: false,
            probing: false,
            probe_budget: 0,
            warm_candidates: 0,
            warm_pre_locked: 0,
        }
    }

    /// Validates recycled warm-start candidates, nearest first, at one
    /// operator application each: `w = Op v`, `mu = <v, w>`, mapped error
    /// `||w - mu v|| / |mu|^2` — the exact semantics of
    /// [`crate::ritz::RitzPair::mapped_error_estimate`]. Converged
    /// survivors are pre-locked into the deflation set; "converging" ones
    /// cap the radius certificate via `warm_near`.
    fn warm_init(
        &mut self,
        warm: &[RecycledPair],
        apply: &mut dyn FnMut(&[C64], &mut [C64]),
        map: &dyn Fn(C64) -> C64,
    ) {
        let cap = self.collect_target + 2;
        for pair in warm.iter().take(cap) {
            assert_eq!(pair.vector.len(), self.n, "recycled vector length mismatch");
            self.warm_candidates += 1;
            // The candidate goes through the lane's operator boundary: no
            // build is open, so the pair is free.
            let ArnoldiWorkspace {
                fact,
                round: RoundScratch { v, z, .. },
                ..
            } = &mut *self.ws;
            let (cand, img) = fact.boundary_mut(self.n);
            cand.copy_from_slice(&pair.vector);
            // Validate the candidate *raw*: eigenvectors of a non-normal
            // operator are not mutually orthogonal, so projecting out the
            // already-locked directions first would destroy the very
            // eigenvector property being tested. Only the deflation copy
            // (below) is orthogonalized — the locked *span* is what must
            // stay orthonormal, and the Rayleigh–Ritz refinement recovers
            // true eigenpairs from the span.
            if normalize(cand) < 1e-8 {
                continue;
            }
            self.matvecs += 1;
            self.opts.control.charge_matvecs(1);
            apply(cand, img);
            self.opts.control.corrupt(img);
            let mu = dot(cand, img);
            let m2 = mu.abs_sq().max(f64::MIN_POSITIVE);
            let mut r2 = 0.0f64;
            for i in 0..self.n {
                r2 += (img[i] - mu * cand[i]).abs_sq();
            }
            let err = r2.sqrt() / m2;
            let lambda = map(mu);
            let dist = (lambda - self.theta).abs();
            if err <= self.tol_abs {
                let duplicate = self
                    .locked_lambdas
                    .iter()
                    .any(|&l| (l - lambda).abs() <= 100.0 * self.tol_abs + 1e-10 * dist);
                v.load(cand);
                z.load(img);
                if self.lock() && !duplicate {
                    self.locked_lambdas.push(lambda);
                    self.warm_pre_locked += 1;
                }
            } else if err <= 1e5 * self.tol_abs {
                self.warm_near.push(dist);
            }
        }
        if self.warm_pre_locked > 0 && self.locked_lambdas.len() >= self.collect_target {
            self.probe_budget = 3;
        }
    }

    /// Orthogonalizes the workspace's `v` against the locked set, mirroring
    /// the Gram-Schmidt coefficients onto its operator image `z`
    /// (`Op(v - sum c_q q) = z - sum c_q (Op q)`, so the deflation copy's
    /// image costs no new application), and appends the normalized pair to
    /// the locked set. Returns `false`, locking nothing, when the direction
    /// already lies inside the locked span.
    fn lock(&mut self) -> bool {
        let ArnoldiWorkspace {
            fact,
            locked_img,
            round: RoundScratch { v, z, .. },
            ..
        } = &mut *self.ws;
        // Modified Gram-Schmidt: each coefficient is taken against the
        // already-updated `v`, so this chain cannot be batched.
        for (q, w) in locked_img.iter().enumerate() {
            let (qr, qi) = fact.locked().row(q);
            let c = kernels::dot_seq(qr, qi, &v.re, &v.im);
            kernels::axpy(-c, qr, qi, &mut v.re, &mut v.im);
            kernels::axpy(-c, &w.re, &w.im, &mut z.re, &mut z.im);
        }
        let nrm = v.normalize();
        if nrm < 1e-8 {
            return false;
        }
        z.scale(1.0 / nrm);
        fact.push_locked(&v.re, &v.im);
        locked_img.push(z.clone());
        true
    }

    /// Lifts the Ritz vector at `rank` into the workspace's `v` (unit
    /// norm) and reconstructs its operator image into `z` from the build
    /// identity `Op V = V H + beta v_m e_m^T + L HL`, where `L` is the
    /// first `nl_build` locked vectors — the image then rides through
    /// [`Self::lock`], so the Rayleigh-Ritz refinement never applies the
    /// operator to this vector. Returns `false` for a null lift.
    fn lift_with_image(&mut self, rank: usize, nl_build: usize) -> bool {
        let ArnoldiWorkspace {
            fact,
            round: RoundScratch {
                ritz, v, z, coeff, ..
            },
            ..
        } = &mut *self.ws;
        let (m, y) = (fact.steps, ritz.y(rank));
        v.combine(fact.basis_split(), m, y);
        let ny = v.normalize();
        if ny == 0.0 {
            return false;
        }
        // `H y`, row by row; `H` is upper Hessenberg, so row `i` starts at
        // column `i - 1`.
        coeff.clear();
        for i in 0..m {
            let from = i.saturating_sub(1);
            let mut hy = C64::zero();
            for (&hij, &yj) in fact.h.row(i)[from..m].iter().zip(&y[from..]) {
                hy += hij * yj;
            }
            coeff.push(hy);
        }
        let mut rows = m;
        if !fact.breakdown && fact.basis_split().rows() > m {
            coeff.push(fact.h[(m, m - 1)] * y[m - 1]);
            rows += 1;
        }
        z.combine(fact.basis_split(), rows, coeff);
        coeff.clear();
        for q in 0..nl_build {
            let mut hy = C64::zero();
            for (&hqj, &yj) in fact.hl.row(q)[..m].iter().zip(y) {
                hy += hqj * yj;
            }
            coeff.push(hy);
        }
        fact.locked()
            .combine_into(nl_build, coeff, &mut z.re, &mut z.im);
        z.scale(1.0 / ny);
        true
    }

    /// `true` while more Arnoldi rounds are warranted: the collect target
    /// is unmet, or post-warm probe rounds remain — and the control plane
    /// has not cancelled the sweep or exhausted its budget.
    fn building(&self) -> bool {
        self.restarts < self.opts.max_restarts
            && (self.locked_lambdas.len() < self.collect_target || self.probe_budget > 0)
            && !self.opts.control.should_stop()
    }

    /// Prepares the start vector and opens the incremental Arnoldi build
    /// for one round. Returns `false` when the round is degenerate (start
    /// fully inside the locked span) — skip straight to
    /// [`Self::finish_round`], which will report exhaustion.
    fn begin_round(&mut self) -> bool {
        self.opts.control.maybe_stall();
        let steps = if self.locked_lambdas.len() >= self.collect_target {
            // Post-warm probe: a short deflated pass is enough to surface
            // any missed nearby direction; a full subspace would re-spend
            // the matvecs recycling just saved.
            self.probing = true;
            (2 * self.opts.n_eigs + 4).min(self.opts.max_subspace)
        } else {
            self.probing = false;
            if self.warm_pre_locked > 0 && self.restarts == 0 {
                // Partially-warm first round: with most targets already
                // deflated, shift-invert Arnoldi converges the few missing
                // nearest eigenvalues in a short build — size it to the
                // probe length plus a margin per missing pair. Later rounds
                // (if this one falls short) fall back to the full subspace.
                let missing = self.collect_target - self.locked_lambdas.len();
                (2 * self.opts.n_eigs + 4 + 4 * missing).min(self.opts.max_subspace)
            } else {
                self.opts.max_subspace
            }
        }
        .min(self.n);
        if !self.have_next_start {
            for s in self.ws.start.iter_mut() {
                *s = C64::new(self.rng.gen::<f64>() - 0.5, self.rng.gen::<f64>() - 0.5);
            }
        }
        self.have_next_start = false;
        let ArnoldiWorkspace { fact, start, .. } = &mut *self.ws;
        fact.begin_build(self.n, start, steps)
    }

    /// The operator boundary of the current Arnoldi step (see
    /// [`ArnoldiFactorization::io_mut`]).
    fn io_mut(&mut self) -> (&[C64], &mut [C64]) {
        self.ws.fact.io_mut()
    }

    /// Absorbs the operator output of the current Arnoldi step; `false`
    /// when the round's build is finished.
    fn absorb_step(&mut self) -> bool {
        self.ws.fact.absorb()
    }

    /// Fault hook for the operator boundary: corrupts the pending apply
    /// output when the control's corruption fire-point triggers. Runs
    /// between `apply` and [`Self::absorb_step`]; a no-op for an inert
    /// control.
    fn post_apply(&mut self) {
        if self.opts.control.corrupt_apply.is_some() {
            let (_, w) = self.ws.fact.io_mut();
            self.opts.control.corrupt(w);
        }
    }

    /// Closes one round: extracts Ritz pairs, locks converged ones,
    /// records near-estimates, and builds the explicit-restart vector.
    /// Returns `Ok(false)` when the shift should stop building (spectrum
    /// exhausted or stalled).
    fn finish_round(&mut self, map: &dyn Fn(C64) -> C64) -> Result<bool, ArnoldiError> {
        self.matvecs += self.ws.fact.steps;
        self.restarts += 1;
        self.opts.control.charge_matvecs(self.ws.fact.steps);
        self.opts.control.charge_restart();
        if self.ws.fact.steps == 0 {
            // Fully deflated: the reachable spectrum is exhausted.
            return Ok(false);
        }
        let ArnoldiWorkspace { fact, round, .. } = &mut *self.ws;
        round.ritz.extract(fact)?;
        // Locked count at build time: `hl` rows decompose against exactly
        // this prefix of the deflation set (vectors locked below grow the
        // set past it).
        let nl_build = fact.locked().rows();
        let mut newly = 0usize;
        self.near_estimates.clear();
        self.ext_cap = f64::INFINITY;
        for rank in 0..self.ws.round.ritz.pairs().len() {
            let pair = self.ws.round.ritz.pairs()[rank];
            let lambda = map(pair.mu);
            if !lambda.re.is_finite() || !lambda.im.is_finite() {
                // Non-finite Ritz value (a corrupted apply or a broken
                // projected solve): it carries no location information and
                // must neither lock nor cap the certificate.
                continue;
            }
            let dist = (lambda - self.theta).abs();
            let err = pair.mapped_error_estimate();
            if err > self.tol_abs && err <= 0.5 * dist {
                // An unconverged Ritz value that still localizes an
                // eigenvalue (error below half its distance) is evidence
                // of spectrum no closer than `dist - err`; the warm
                // extended bracket must not certify past it. Pairs with
                // `err > dist / 2` localize nothing — they scatter across
                // the hull of the remaining spectrum — and capping on
                // them would zero out every extension.
                self.ext_cap = self.ext_cap.min(dist - err);
            }
            if err <= self.tol_abs {
                let duplicate = self
                    .locked_lambdas
                    .iter()
                    .any(|&l| (l - lambda).abs() <= 100.0 * self.tol_abs + 1e-10 * dist);
                // The vector moves into the deflation set: the refinement
                // recovers eigenvectors from that set.
                if self.lift_with_image(rank, nl_build) && self.lock() && !duplicate {
                    self.locked_lambdas.push(lambda);
                    newly += 1;
                }
            } else if err <= 1e5 * self.tol_abs {
                // "Converging" (paper's wording): a credible nearby
                // eigenvalue estimate that has not met the tolerance yet.
                self.near_estimates.push(dist);
            }
        }
        // Build the explicit-restart vector from the leading unconverged
        // Ritz directions (nearest to the shift first).
        let ArnoldiWorkspace {
            fact,
            start,
            round: RoundScratch { ritz, v, c, .. },
            ..
        } = &mut *self.ws;
        c.zero(self.n);
        let mut used = 0usize;
        for (rank, pair) in ritz.pairs().iter().enumerate() {
            if used >= self.opts.n_eigs {
                break;
            }
            if pair.mapped_error_estimate() <= self.tol_abs {
                continue; // already locked this round
            }
            v.combine(fact.basis_split(), fact.steps, ritz.y(rank));
            v.normalize();
            let weight = C64::from_real(1.0 / (1.0 + used as f64));
            kernels::axpy(weight, &v.re, &v.im, &mut c.re, &mut c.im);
            used += 1;
        }
        if used > 0 && c.normalize() > 0.0 {
            kernels::merge(&c.re, &c.im, start);
            self.have_next_start = true;
        }
        if self.probing {
            // A probe that finds something new earns another; a dry probe
            // ends the hunt. Productive probes don't consume budget: each
            // 14-step round that locks a pair widens the certified disk,
            // which is far cheaper than the neighbor shift the scheduler
            // would otherwise spawn (`max_restarts` still bounds the hunt).
            self.probe_budget = if newly == 0 { 0 } else { self.probe_budget };
        }
        if newly == 0 {
            self.stall += 1;
            if self.stall >= 6 {
                return Ok(false);
            }
        } else {
            self.stall = 0;
        }
        Ok(true)
    }

    /// Runs `f` with `round` standing in for this lane's own round scratch
    /// (and hands it back afterwards), so a driver stepping several lanes
    /// in turn keeps one scratch warm instead of one per lane.
    pub(crate) fn with_round<R>(
        &mut self,
        round: &mut RoundScratch,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        std::mem::swap(&mut self.ws.round, round);
        let out = f(self);
        std::mem::swap(&mut self.ws.round, round);
        out
    }

    /// Validates `warm` (if any) and opens the first round. `Some` means
    /// the shift ended without a Krylov step to apply.
    pub(crate) fn start(
        &mut self,
        warm: &[RecycledPair],
        apply: &mut dyn FnMut(&[C64], &mut [C64]),
        map: &dyn Fn(C64) -> C64,
        cancelled: &mut dyn FnMut() -> bool,
    ) -> Option<Result<SingleShiftOutcome, ArnoldiError>> {
        if !warm.is_empty() {
            self.warm_init(warm, apply, map);
        }
        self.open_round(map, cancelled)
    }

    /// One operator application on the open round. When that closes the
    /// round, its Ritz processing runs and the next round opens; `Some`
    /// is the shift's final outcome.
    pub(crate) fn step(
        &mut self,
        apply: &mut dyn FnMut(&[C64], &mut [C64]),
        map: &dyn Fn(C64) -> C64,
        cancelled: &mut dyn FnMut() -> bool,
    ) -> Option<Result<SingleShiftOutcome, ArnoldiError>> {
        let (v, w) = self.io_mut();
        apply(v, w);
        self.post_apply();
        if self.absorb_step() {
            return None;
        }
        self.close_round(map)
            .or_else(|| self.open_round(map, cancelled))
    }

    /// Closes the current round; `Some` when that ends the shift.
    fn close_round(
        &mut self,
        map: &dyn Fn(C64) -> C64,
    ) -> Option<Result<SingleShiftOutcome, ArnoldiError>> {
        match self.finish_round(map) {
            Ok(true) => None,
            Ok(false) => Some(self.finish(map)),
            Err(e) => Some(Err(e)),
        }
    }

    /// Round boundary: polls `cancelled`, then opens the next Arnoldi
    /// build (`None`) or ends the shift.
    fn open_round(
        &mut self,
        map: &dyn Fn(C64) -> C64,
        cancelled: &mut dyn FnMut() -> bool,
    ) -> Option<Result<SingleShiftOutcome, ArnoldiError>> {
        loop {
            if cancelled() {
                return Some(Err(ArnoldiError::Cancelled));
            }
            if !self.building() {
                return Some(self.finish(map));
            }
            if self.begin_round() {
                return None;
            }
            // Degenerate round (start inside the locked span): close it and
            // let `building()`/the verdict decide what happens next.
            if let Some(ended) = self.close_round(map) {
                return Some(ended);
            }
        }
    }

    /// Runs the shift alone: [`Self::start`], then [`Self::step`] until it
    /// yields the outcome.
    fn run_to_completion(
        &mut self,
        warm: &[RecycledPair],
        apply: &mut dyn FnMut(&[C64], &mut [C64]),
        map: &dyn Fn(C64) -> C64,
    ) -> Result<SingleShiftOutcome, ArnoldiError> {
        let mut never = || false;
        let mut done = self.start(warm, apply, map, &mut never);
        loop {
            match done {
                Some(outcome) => return outcome,
                None => done = self.step(apply, map, &mut never),
            }
        }
    }

    /// Rayleigh–Ritz refinement on the locked subspace plus the radius
    /// certificate (paper Sec. III bullet 3).
    fn finish(&mut self, map: &dyn Fn(C64) -> C64) -> Result<SingleShiftOutcome, ArnoldiError> {
        let (theta, rho0, scale, tol_abs, n) =
            (self.theta, self.rho0, self.scale, self.tol_abs, self.n);
        let ArnoldiWorkspace {
            fact,
            locked_img,
            round: RoundScratch { v, z, coeff, t, .. },
            ..
        } = &mut *self.ws;
        // The images are read here for the last time: free them with this
        // call rather than when the workspace's next shift starts.
        let locked_img = std::mem::take(locked_img);
        let locked = fact.locked();
        if locked.is_empty() {
            return Err(ArnoldiError::NoConvergence {
                restarts: self.restarts,
                matvecs: self.matvecs,
            });
        }
        // ---- Rayleigh-Ritz refinement on the locked subspace ---------------
        // Each locked vector is an eigenvector of the *deflated* operator,
        // i.e. the Q-orthogonal component of a true eigenvector. The span of
        // Q is (approximately) invariant, so projecting the operator onto Q
        // and solving the small eigenproblem recovers the true eigenpairs.
        // `T = Q^H (Op Q)`, one column (all rows of `Q` against one cached
        // image) per batched pass.
        let mq = locked.rows();
        t.reset_zeros(mq, mq);
        coeff.clear();
        coeff.resize(mq, C64::zero());
        for (j, w) in locked_img.iter().enumerate() {
            locked.dot_seq_into(&w.re, &w.im, coeff);
            for (i, &tij) in coeff.iter().enumerate() {
                t[(i, j)] = tij;
            }
        }
        let (mus, yv) = pheig_linalg::eig::eig_with_vectors(t)?;
        let dedupe_tol = 100.0 * tol_abs;
        let mut refined: Vec<ConvergedEigenpair> = Vec::new();
        let mut doubtful_dists: Vec<f64> = Vec::new();
        for (k, &mu) in mus.iter().enumerate() {
            let lambda = map(mu);
            if !lambda.re.is_finite() || !lambda.im.is_finite() {
                // Non-finite refined value: numerical junk from a polluted
                // subspace; returning it (or letting it into the distance
                // sort below) would poison the certificate.
                continue;
            }
            // x = Q y_k (unit norm since Q is orthonormal and y_k is unit)
            // and its image z = (Op Q) y_k.
            coeff.clear();
            coeff.extend((0..mq).map(|j| yv[(j, k)]));
            v.combine(locked, mq, coeff);
            v.normalize();
            z.zero(n);
            for (w, &yj) in locked_img.iter().zip(coeff.iter()) {
                kernels::axpy(yj, &w.re, &w.im, &mut z.re, &mut z.im);
            }
            let err = z.residual_sq(mu, v).sqrt() / mu.abs_sq().max(f64::MIN_POSITIVE);
            if refined
                .iter()
                .any(|e| (e.lambda - lambda).abs() <= dedupe_tol)
            {
                continue;
            }
            if err <= 1e3 * tol_abs {
                // Collected in place from the planes (the zip's length is
                // trusted): one allocation, no `Vec` to copy out of.
                let x: Arc<[C64]> =
                    (v.re.iter().zip(&v.im).map(|(&re, &im)| C64::new(re, im))).collect();
                refined.push(ConvergedEigenpair {
                    lambda,
                    vector: x,
                    error_estimate: err,
                });
            } else if err <= 1e7 * tol_abs {
                // The subspace picked up a non-invariant direction: do not
                // return this value, and do not certify past its distance.
                doubtful_dists.push((lambda - theta).abs());
            }
            // Residuals beyond 1e7 * tol are numerical junk (e.g. spurious
            // values of a refinement subspace polluted by a breakdown); they
            // carry no location information and must not collapse the radius.
        }
        if refined.is_empty() {
            return Err(ArnoldiError::NoConvergence {
                restarts: self.restarts,
                matvecs: self.matvecs,
            });
        }

        // ---- Radius certification (paper Sec. III bullet 3) ----------------
        let dist = |e: &ConvergedEigenpair| (e.lambda - theta).abs();
        refined.sort_by(|a, b| dist(a).total_cmp(&dist(b)));
        // Distances within `gap_tol` of each other form one "shell" (mirror
        // eigenvalues sit at *exactly* equal distance up to round-off); the
        // certified radius must never cut through a shell.
        let gap_tol = (100.0 * tol_abs).max(1e-9 * scale);
        let mut m = self.opts.n_eigs.min(refined.len());
        while m < refined.len() && dist(&refined[m]) - dist(&refined[m - 1]) <= gap_tol {
            m += 1;
        }
        // Nearest excluded estimate beyond any choice of m: the closest
        // still-converging Ritz estimate or a doubtful refined value.
        let mut cap_next = f64::INFINITY;
        for &d in self.near_estimates.iter().chain(&doubtful_dists) {
            cap_next = cap_next.min(d);
        }
        // Warm candidates that validated as merely "converging" cap the
        // certificate the same way — unless they sit on a refined shell
        // (a re-validated duplicate must not collapse the radius).
        for &d in &self.warm_near {
            if refined.iter().any(|e| (dist(e) - d).abs() <= gap_tol) {
                continue;
            }
            cap_next = cap_next.min(d);
        }
        let d_m = dist(&refined[m - 1]);
        let mut d_next = cap_next;
        if refined.len() > m {
            d_next = d_next.min(dist(&refined[m]));
        }
        // Hamiltonian symmetry guard: every eigenvalue lambda of a real
        // Hamiltonian has a mirror -conj(lambda) at *exactly* the same
        // distance from theta = j omega. A shell whose mirror is missing
        // cannot be certified (its partner may be an unconverged equidistant
        // eigenvalue), so cap the radius below such shells.
        let sym_tol = (1e3 * tol_abs).max(1e-10 * scale);
        for e in &refined {
            let lam = e.lambda;
            // Mirrors of lambda at exactly the same distance from theta:
            // -conj(lambda) for any theta on the imaginary axis, plus the
            // rest of the quadruple (conj(lambda), -lambda) when theta = 0.
            let mut mirrors = vec![-lam.conj()];
            if theta.im.abs() <= sym_tol && theta.re.abs() <= sym_tol {
                mirrors.push(lam.conj());
                mirrors.push(-lam);
            }
            for mirror in mirrors {
                if (mirror - lam).abs() <= sym_tol {
                    continue; // self-mirrored
                }
                let found = refined.iter().any(|f| (f.lambda - mirror).abs() <= sym_tol);
                if !found {
                    cap_next = cap_next.min(dist(e));
                }
            }
        }
        d_next = d_next.min(cap_next);
        let bracket = |d_m: f64, d_next: f64| -> f64 {
            if d_next.is_finite() {
                if d_next > d_m + gap_tol {
                    0.5 * (d_m + d_next)
                } else {
                    // A non-returnable estimate sits at (or inside) the
                    // outermost returned shell: certify strictly below that
                    // whole shell.
                    d_next - gap_tol
                }
            } else {
                // Nothing else in sight: the disk extends to the found set
                // and a bit beyond (covers the rho0 guess when everything
                // converged).
                d_m.max(rho0) * 1.000001
            }
        };
        let mut radius = bracket(d_m, d_next);
        if self.warm_pre_locked > 0 && refined.len() > m {
            // Recycled pairs beyond the m-th shell are *true* eigenpairs:
            // returning them and certifying past them extends the disk
            // instead of capping it at the first donated shell. Soundness
            // is kept by the post-warm probe rounds — any unfound direction
            // between donated shells is the nearest deflated one, so it is
            // either locked (joining `refined`), left as a near-estimate in
            // `cap_next`, or visible only as a rough unconverged Ritz value
            // recorded in `ext_cap`. The extension always brackets between
            // a *found* shell below the cap and the cap itself: an
            // unconverged estimate's `dist - err` margin uses the residual,
            // which under-reports location error on a non-normal operator,
            // so certifying flush against it (the degenerate
            // `d_next - gap_tol` bracket branch) can cross the true
            // eigenvalue. The midpoint keeps half the found-to-estimate gap
            // as margin instead.
            let cap_ext = cap_next.min(self.ext_cap);
            let mut d_ext = 0.0f64;
            for e in &refined {
                let d = dist(e);
                if d < cap_ext - gap_tol {
                    d_ext = d_ext.max(d);
                }
            }
            radius = radius.max(bracket(d_ext, cap_ext));
        }
        let radius = radius.max(0.0);

        let all_converged: Vec<C64> = refined.iter().map(|e| e.lambda).collect();
        // `refined` is already sorted by distance; keep the disk's interior
        // by moving (not cloning) the surviving eigenpairs.
        let in_disk: Vec<ConvergedEigenpair> = refined
            .into_iter()
            .filter(|e| (e.lambda - theta).abs() <= radius)
            .collect();
        Ok(SingleShiftOutcome {
            theta,
            radius,
            in_disk,
            all_converged,
            matvecs: self.matvecs,
            restarts: self.restarts,
            warm_candidates: self.warm_candidates,
            warm_pre_locked: self.warm_pre_locked,
            refine_dim: mq,
        })
    }
}

/// Builds the shift-invert operator at `theta = j omega`, nudging the
/// shift by a growing relative epsilon when it coincides with an
/// eigenvalue (the paper's "shift on top of an eigenvalue" degeneracy).
pub fn build_shift_invert_op(
    ss: &StateSpace,
    omega: f64,
    scale: f64,
) -> Result<ShiftInvertOp<'_>, ArnoldiError> {
    let mut theta = C64::from_imag(omega);
    let mut nudge = 1e-9 * scale.max(1.0);
    loop {
        match ShiftInvertOp::new(ss, theta) {
            Ok(op) => break Ok(op),
            Err(
                pheig_hamiltonian::HamiltonianError::ShiftSingular { .. }
                | pheig_hamiltonian::HamiltonianError::NearSingularShift { .. },
            ) => {
                theta = C64::from_imag(omega + nudge);
                nudge *= 16.0;
                if nudge > scale.max(1.0) {
                    return Err(ArnoldiError::Hamiltonian(
                        pheig_hamiltonian::HamiltonianError::ShiftSingular { re: 0.0, im: omega },
                    ));
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Runs the single-shift iteration on a macromodel at shift
/// `theta = j omega`, building the Sherman–Morrison–Woodbury operator
/// internally. Shifts that coincide with an eigenvalue are automatically
/// nudged by a relative epsilon. `ws` is caller-owned scratch (see
/// [`single_shift_on_op_with`]); the sweep driver hands each worker one
/// persistent workspace that survives across shifts.
///
/// Krylov recycling: `warm` carries eigenpairs donated by
/// already-completed nearby shifts (see [`crate::recycle::RecyclePool`]).
/// Each candidate is validated at one operator application; converged
/// survivors seed the deflation set, so the iteration starts from a
/// thick, already-converged subspace instead of a random vector. An empty
/// `warm` slice is the cold iteration.
///
/// # Errors
///
/// * [`ArnoldiError::Hamiltonian`] if the operator cannot be built (e.g.
///   `sigma_max(D) >= 1`);
/// * [`ArnoldiError::NoConvergence`] if nothing converges.
pub fn single_shift_iteration_recycled_with(
    ss: &StateSpace,
    omega: f64,
    rho0: f64,
    scale: f64,
    opts: &SingleShiftOptions,
    ws: &mut ArnoldiWorkspace,
    warm: &[RecycledPair],
) -> Result<SingleShiftOutcome, ArnoldiError> {
    if opts.control.fire_singular() {
        // Injected factorization failure: report the typed near-singular
        // error the real detection path would produce.
        return Err(ArnoldiError::Hamiltonian(
            pheig_hamiltonian::HamiltonianError::NearSingularShift {
                block: 0,
                rcond: 0.0,
            },
        ));
    }
    let op = build_shift_invert_op(ss, omega, scale)?;
    let theta = op.theta();
    let map = |mu: C64| op.to_hamiltonian_eigenvalue(mu);
    let mut core = ShiftCore::new(op.dim(), theta, rho0, scale, opts, ws);
    let mut apply = |x: &[C64], y: &mut [C64]| op.apply_into(x, y);
    core.run_to_completion(warm, &mut apply, &map)
}

/// Estimates the largest eigenvalue magnitude of an operator by restarted
/// Arnoldi (no shift-invert). The paper uses this on the Hamiltonian `M`
/// itself to obtain the upper edge `omega_max` of the search band.
///
/// # Errors
///
/// Returns [`ArnoldiError::NoConvergence`] when no Ritz value stabilizes.
pub fn largest_eigenvalue_magnitude(
    op: &dyn CLinearOp,
    opts: &SingleShiftOptions,
) -> Result<f64, ArnoldiError> {
    let n = op.dim();
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x1234_5678);
    let mut start: Vec<C64> = (0..n)
        .map(|_| C64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect();
    let mut best = 0.0f64;
    let mut matvecs = 0usize;
    let d = opts.max_subspace.min(n).max(2);
    let restarts = 4usize;
    let mut fact = ArnoldiFactorization::empty();
    for _ in 0..restarts {
        arnoldi_into(op, &start, &[], d, &mut fact);
        matvecs += fact.steps;
        if fact.steps == 0 {
            break;
        }
        let set = ritz_pairs(&fact)?;
        if let Some(top) = set.pairs().first() {
            best = best.max(top.mu.abs());
            // Restart towards the dominant direction.
            start = fact.lift(set.y(0));
            if top.residual <= 1e-6 * top.mu.abs().max(1e-300) {
                return Ok(best);
            }
        }
        if fact.breakdown {
            break;
        }
    }
    if best == 0.0 {
        return Err(ArnoldiError::NoConvergence { restarts, matvecs });
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pheig_hamiltonian::dense_hamiltonian;
    use pheig_linalg::eig::eig_real;
    use pheig_model::generator::{generate_case, CaseSpec};

    /// Oracle: dense Hamiltonian spectrum of a small model.
    fn dense_spectrum(ss: &StateSpace) -> Vec<C64> {
        let m = dense_hamiltonian(ss).unwrap();
        eig_real(&m).unwrap()
    }

    #[test]
    fn finds_eigenvalues_near_shift_with_certificate() {
        let model =
            generate_case(&CaseSpec::new(16, 2).with_seed(13).with_target_crossings(2)).unwrap();
        let ss = model.realize();
        let oracle = dense_spectrum(&ss);
        let scale = oracle.iter().map(|z| z.abs()).fold(0.0, f64::max);
        let omega = 3.0;
        let out = single_shift_iteration_recycled_with(
            &ss,
            omega,
            1.0,
            scale,
            &SingleShiftOptions::new().with_seed(4),
            &mut ArnoldiWorkspace::new(),
            &[],
        )
        .unwrap();
        assert!(out.radius > 0.0);
        assert!(!out.in_disk.is_empty());
        let theta = out.theta;
        // (a) Every returned eigenvalue matches an oracle eigenvalue.
        for e in &out.in_disk {
            let best = oracle
                .iter()
                .map(|z| (*z - e.lambda).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(
                best < 1e-6 * scale,
                "returned {} is not an eigenvalue (err {best})",
                e.lambda
            );
        }
        // (b) Certification: every oracle eigenvalue strictly inside the
        // disk is present in the returned set.
        for z in &oracle {
            if (*z - theta).abs() < out.radius * 0.999 {
                let found = out
                    .in_disk
                    .iter()
                    .any(|e| (e.lambda - *z).abs() < 1e-6 * scale);
                assert!(
                    found,
                    "oracle eigenvalue {z} inside disk (r={}) missed",
                    out.radius
                );
            }
        }
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let model = generate_case(&CaseSpec::new(12, 2).with_seed(3)).unwrap();
        let ss = model.realize();
        let m_dense = dense_hamiltonian(&ss).unwrap().to_c64();
        let scale = m_dense.max_abs();
        let out = single_shift_iteration_recycled_with(
            &ss,
            2.0,
            1.0,
            10.0,
            &SingleShiftOptions::new().with_seed(1),
            &mut ArnoldiWorkspace::new(),
            &[],
        )
        .unwrap();
        for e in &out.in_disk {
            let av = m_dense.matvec(&e.vector);
            let mut resid = 0.0f64;
            for (avi, vi) in av.iter().zip(e.vector.iter()) {
                resid = resid.max((*avi - e.lambda * *vi).abs());
            }
            assert!(
                resid < 1e-6 * scale,
                "eigenvector residual {resid} for {}",
                e.lambda
            );
        }
    }

    #[test]
    fn shift_at_zero_frequency_works() {
        let model = generate_case(&CaseSpec::new(14, 2).with_seed(7)).unwrap();
        let ss = model.realize();
        let out = single_shift_iteration_recycled_with(
            &ss,
            0.0,
            1.0,
            12.0,
            &SingleShiftOptions::new(),
            &mut ArnoldiWorkspace::new(),
            &[],
        )
        .unwrap();
        assert!(!out.in_disk.is_empty());
        // Spectrum symmetry: at theta = 0 the found set should be closed
        // under negation (lambda and -lambda are equidistant).
        for e in &out.in_disk {
            let has_partner = out
                .in_disk
                .iter()
                .any(|f| (f.lambda + e.lambda).abs() < 1e-5 * 12.0);
            assert!(has_partner, "missing -lambda partner of {}", e.lambda);
        }
    }

    #[test]
    fn largest_magnitude_matches_dense() {
        let model = generate_case(&CaseSpec::new(14, 2).with_seed(5)).unwrap();
        let ss = model.realize();
        let oracle = dense_spectrum(&ss);
        let want = oracle.iter().map(|z| z.abs()).fold(0.0, f64::max);
        let m_op = pheig_hamiltonian::HamiltonianOp::new(&ss).unwrap();
        let got = largest_eigenvalue_magnitude(&m_op, &SingleShiftOptions::new()).unwrap();
        assert!(
            (got - want).abs() < 1e-3 * want,
            "largest |eig|: arnoldi {got} vs dense {want}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let model = generate_case(&CaseSpec::new(10, 2).with_seed(2)).unwrap();
        let ss = model.realize();
        let opts = SingleShiftOptions::new().with_seed(99);
        let a = single_shift_iteration_recycled_with(
            &ss,
            1.5,
            0.5,
            10.0,
            &opts,
            &mut ArnoldiWorkspace::new(),
            &[],
        )
        .unwrap();
        let b = single_shift_iteration_recycled_with(
            &ss,
            1.5,
            0.5,
            10.0,
            &opts,
            &mut ArnoldiWorkspace::new(),
            &[],
        )
        .unwrap();
        assert_eq!(a.radius, b.radius);
        assert_eq!(a.in_disk.len(), b.in_disk.len());
        for (x, y) in a.in_disk.iter().zip(&b.in_disk) {
            assert_eq!(x.lambda, y.lambda);
        }
    }

    #[test]
    fn recycled_warm_start_matches_cold_results() {
        // Warm-starting from a completed neighbor's eigenpairs must not
        // change what is found — only how much work finding it costs.
        let model =
            generate_case(&CaseSpec::new(16, 2).with_seed(13).with_target_crossings(2)).unwrap();
        let ss = model.realize();
        let scale = 12.0;
        let opts = SingleShiftOptions::new().with_seed(5);
        let mut ws = ArnoldiWorkspace::new();
        let donor = single_shift_iteration_recycled_with(&ss, 2.0, 1.0, scale, &opts, &mut ws, &[])
            .unwrap();
        let mut pool = crate::recycle::RecyclePool::new();
        pool.record(2.0, &donor);
        let cold = single_shift_iteration_recycled_with(&ss, 2.4, 1.0, scale, &opts, &mut ws, &[])
            .unwrap();
        let warm = pool.gather(C64::from_imag(2.4), 2.0, 8);
        assert!(!warm.is_empty(), "donor disk should donate candidates");
        let recycled =
            single_shift_iteration_recycled_with(&ss, 2.4, 1.0, scale, &opts, &mut ws, &warm)
                .unwrap();
        assert!(recycled.warm_candidates > 0);
        assert!(
            recycled.warm_pre_locked > 0,
            "exact eigenvectors must pre-lock"
        );
        // On a model this small one cold round already converges the
        // collect target, so recycling cannot save rounds — but it must
        // never cost more than the per-candidate validation matvecs.
        assert!(
            recycled.matvecs <= cold.matvecs + recycled.warm_candidates,
            "recycling overhead beyond validation cost: {} vs {} (+{} candidates)",
            recycled.matvecs,
            cold.matvecs,
            recycled.warm_candidates
        );
        // Identical eigenvalue content inside the common certified disk.
        let r = cold.radius.min(recycled.radius) * 0.999;
        for e in cold.in_disk.iter() {
            if (e.lambda - cold.theta).abs() >= r {
                continue;
            }
            assert!(
                recycled
                    .in_disk
                    .iter()
                    .any(|f| (f.lambda - e.lambda).abs() < 1e-6 * scale),
                "cold eigenvalue {} missing from recycled run",
                e.lambda
            );
        }
        for e in recycled.in_disk.iter() {
            if (e.lambda - recycled.theta).abs() >= r {
                continue;
            }
            assert!(
                cold.in_disk
                    .iter()
                    .any(|f| (f.lambda - e.lambda).abs() < 1e-6 * scale),
                "recycled eigenvalue {} missing from cold run",
                e.lambda
            );
        }
    }

    #[test]
    fn seed_variation_changes_work_but_not_results() {
        // The paper's Fig. 6 error bars come from random start vectors;
        // results (eigenvalues) must be seed-independent even when the
        // work (restarts/matvecs) varies.
        let model =
            generate_case(&CaseSpec::new(16, 2).with_seed(17).with_target_crossings(2)).unwrap();
        let ss = model.realize();
        let a = single_shift_iteration_recycled_with(
            &ss,
            2.5,
            1.0,
            12.0,
            &SingleShiftOptions::new().with_seed(1),
            &mut ArnoldiWorkspace::new(),
            &[],
        )
        .unwrap();
        let b = single_shift_iteration_recycled_with(
            &ss,
            2.5,
            1.0,
            12.0,
            &SingleShiftOptions::new().with_seed(2),
            &mut ArnoldiWorkspace::new(),
            &[],
        )
        .unwrap();
        // Compare the sets of eigenvalues found inside the *smaller* disk.
        let r = a.radius.min(b.radius) * 0.999;
        let sa: Vec<C64> = a
            .in_disk
            .iter()
            .filter(|e| (e.lambda - a.theta).abs() < r)
            .map(|e| e.lambda)
            .collect();
        for z in &sa {
            let matched = b
                .in_disk
                .iter()
                .any(|e| (e.lambda - *z).abs() < 1e-5 * 12.0);
            assert!(matched, "seed-dependent eigenvalue set: {z} missing");
        }
    }
}
