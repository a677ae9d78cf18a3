//! Passivity enforcement by first-order perturbation of the imaginary
//! Hamiltonian eigenvalues (the method of the paper's ref. \[8\],
//! Grivet-Talocia 2004).
//!
//! For a purely imaginary simple eigenvalue `lambda = j omega` of the real
//! Hamiltonian `M` with right eigenvector `x = [x1; x2]`, the row vector
//! `(J conj(x))^T` is a left eigenvector for the same eigenvalue
//! (J-symmetry), giving the first-order displacement under a residue
//! perturbation `Delta C`:
//!
//! ```text
//! d lambda = ( x2^H (dM x)_1 - x1^H (dM x)_2 ) / ( x2^H x1 - x1^H x2 )
//! ```
//!
//! which is linear in `Delta C` (only the Hamiltonian blocks containing `C`
//! move) and automatically purely imaginary (the perturbed matrix stays
//! Hamiltonian). Each violation band contributes displacement targets that
//! drive its edge crossings toward the band midpoint; the under-determined
//! linear system is solved in the least-norm sense, and the loop
//! re-characterizes with the Hamiltonian eigensolver until `Omega` is
//! empty.
//!
//! Only `C` is perturbed: poles (stability) and `D` (asymptotic passivity)
//! are untouched.

use crate::characterization::{characterize, PassivityReport, ViolationBand};
use crate::error::SolverError;
use crate::solver::{
    find_imaginary_eigenvalues_with, SolverOptions, SolverOutcome, SolverWorkspace,
};
use crate::spectrum::ImaginaryEigenpair;
use pheig_hamiltonian::build::port_coupling_inverses;
use pheig_linalg::{kernels, Lu, Matrix, C64};
use pheig_model::StateSpace;

/// Maximum outer iterations of one enforcement attempt.
const MAX_ITERATIONS: usize = 60;
/// Fraction of the edge-to-midpoint distance each crossing is asked to
/// move per iteration (1 collapses bands at first order).
///
/// 1.15 deliberately *overshoots* the band midpoint: edges pushed exactly
/// to the midpoint (contraction = 1) leave a degenerate tangential
/// crossing that later iterations cannot displace, while a slight
/// overshoot annihilates the crossing pair (the removal strategy of the
/// paper's ref. \[8\]).
const CONTRACTION: f64 = 1.15;
/// Relative Tikhonov regularization of the least-norm solve.
const REGULARIZATION: f64 = 1e-10;
/// Step halvings attempted when a full step increases the violation.
const MAX_HALVINGS: usize = 5;

/// Options for [`enforce_passivity`].
#[derive(Debug, Clone, PartialEq)]
pub struct EnforcementOptions {
    /// Eigensolver configuration used for re-characterization.
    pub solver: SolverOptions,
}

impl EnforcementOptions {
    /// Re-characterization with the default solver options.
    pub fn new() -> Self {
        EnforcementOptions {
            solver: SolverOptions::default(),
        }
    }
}

impl Default for EnforcementOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of a passivity enforcement run.
#[derive(Debug, Clone)]
pub struct EnforcementOutcome {
    /// The enforced model (same poles and `D`, perturbed `C`).
    pub state_space: StateSpace,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Report of the input model.
    pub initial_report: PassivityReport,
    /// Report of the enforced model (passive on success).
    pub final_report: PassivityReport,
    /// Frobenius norm of the total applied `Delta C`.
    pub delta_c_norm: f64,
    /// Recycling telemetry aggregated over this stage's own sweeps (the
    /// seeded characterization is counted by its originating stage; failed
    /// whole-loop retries are not counted).
    pub recycle: crate::solver::RecycleCounters,
}

/// `f` (one of the model's split-plane products) applied to the
/// interleaved `v`, into a fresh interleaved vector of length `out_len`.
fn through_planes(
    v: &[C64],
    out_len: usize,
    f: impl Fn(&[f64], &[f64], &mut [f64], &mut [f64]),
) -> Vec<C64> {
    let (mut vr, mut vi) = (vec![0.0; v.len()], vec![0.0; v.len()]);
    kernels::split(v, &mut vr, &mut vi);
    let (mut yr, mut yi) = (vec![0.0; out_len], vec![0.0; out_len]);
    f(&vr, &vi, &mut yr, &mut yi);
    let mut y = vec![C64::zero(); out_len];
    kernels::merge(&yr, &yi, &mut y);
    y
}

/// First-order displacement sensitivity of one imaginary eigenvalue with
/// respect to the entries of `C`, as a real row (the imaginary part of the
/// complex gradient; the real part vanishes by Hamiltonian symmetry).
///
/// Returns a flattened row of length `p * n` with entry `(alpha, beta)` at
/// `alpha * n + beta`.
fn sensitivity_row(
    ss: &StateSpace,
    r_inv: &Matrix<f64>,
    s_inv: &Matrix<f64>,
    pair: &ImaginaryEigenpair,
) -> Vec<f64> {
    let n = ss.order();
    let p = ss.ports();
    let (x1, x2) = pair.vector.split_at(n);
    let x1c: Vec<C64> = x1.iter().map(|z| z.conj()).collect();
    let x2c: Vec<C64> = x2.iter().map(|z| z.conj()).collect();
    let mixed = |m: &Matrix<f64>, v: &[C64]| -> Vec<C64> {
        let mut out = vec![C64::zero(); m.rows()];
        for (i, oi) in out.iter_mut().enumerate() {
            let row = m.row(i);
            let mut acc = C64::zero();
            for (a, b) in row.iter().zip(v.iter()) {
                acc += *b * *a;
            }
            *oi = acc;
        }
        out
    };
    let bt = |v: &[C64]| through_planes(v, p, |xr, xi, ur, ui| ss.apply_bt_split(xr, xi, ur, ui));
    let (c, d) = (ss.c(), ss.d());
    // a = D R^{-1} B^T conj(x2)
    let a = mixed(d, &mixed(r_inv, &bt(&x2c)));
    // w = S^{-1} C x1
    let w = mixed(s_inv, &mixed(c, x1));
    // b = S^{-1} C conj(x1)
    let b = mixed(s_inv, &mixed(c, &x1c));
    // w3 = D R^{-1} B^T x2
    let w3 = mixed(d, &mixed(r_inv, &bt(x2)));
    // denom = x2^H x1 - x1^H x2 (purely imaginary for a genuine pair).
    let mut denom = C64::zero();
    for i in 0..n {
        denom += x2[i].conj() * x1[i] - x1[i].conj() * x2[i];
    }
    let inv_denom = denom.recip();
    // The eigenpair may have been folded from the lower half plane
    // (omega = |Im lambda| but the eigenvector belongs to -j omega); there
    // d(omega) = -d(Im lambda), so the row flips sign.
    let fold = if pair.lambda.im < 0.0 { -1.0 } else { 1.0 };
    // grad[alpha, beta] = -( (a+b)_alpha x1_beta + (w+w3)_alpha conj(x1)_beta ).
    let mut row = vec![0.0f64; p * n];
    for alpha in 0..p {
        let u = a[alpha] + b[alpha];
        let v = w[alpha] + w3[alpha];
        let base = alpha * n;
        for beta in 0..n {
            let g = -(u * x1[beta] + v * x1c[beta]) * inv_denom;
            row[base + beta] = fold * g.im;
        }
    }
    row
}

/// Progress metrics for the line search: `(severity, peak excess)`.
///
/// Acceptance is lexicographic-with-tolerance: a step is progress when the
/// severity (band width times excess) strictly drops, or when severity is
/// essentially unchanged but the summed peak excess drops. Collapsing a
/// tall band narrows it while its peak *rises* (first metric improves,
/// second worsens); flattening a shallow residual band barely moves the
/// severity but lowers the peak (second metric discriminates).
fn violation_metrics(report: &PassivityReport) -> (f64, f64) {
    let peak_excess = report
        .bands
        .iter()
        .map(|b| (b.peak_sigma - 1.0).max(0.0))
        .sum::<f64>();
    (report.total_severity(), peak_excess)
}

/// Lexicographic-with-tolerance comparison of [`violation_metrics`].
fn is_progress(trial: (f64, f64), current: (f64, f64)) -> bool {
    let sev_tol = 1e-6 * current.0.max(1e-300);
    if trial.0 < current.0 - sev_tol {
        return true;
    }
    trial.0 <= current.0 + sev_tol && trial.1 < current.1 * (1.0 - 1e-6)
}

/// First-order descent row for the *peak singular value* at `omega`:
/// `d sigma = Re( u^H DeltaC (j omega I - A)^{-1} B v )` with `(u, v)` the
/// top singular pair of `H(j omega)`. These rows complement the
/// eigenvalue-displacement rows: shallow, narrow violation bands whose edge
/// eigenvectors nearly coincide give the edge rows no usable direction,
/// while the peak row always points downhill on `sigma_max`.
///
/// Returns `(row, sigma_peak)`.
fn sigma_descent_row(ss: &StateSpace, omega: f64) -> Result<(Vec<f64>, f64), SolverError> {
    let n = ss.order();
    let p = ss.ports();
    let h = ss.transfer(C64::from_imag(omega));
    // Top right singular vector from the Gram matrix, then u = H v / sigma.
    let gram = &h.conj_transpose() * &h;
    let eig = pheig_linalg::hermitian::eigh(&gram, true)?;
    // PANIC-SAFE: `eigh(_, true)` always populates `vectors`.
    #[allow(clippy::expect_used)]
    let vectors = eig.vectors.expect("eigh was asked for vectors");
    let top = eig.values.len() - 1;
    let sigma = eig.values[top].max(0.0).sqrt();
    let v: Vec<C64> = (0..p).map(|i| vectors[(i, top)]).collect();
    let hv = h.matvec(&v);
    let inv_sigma = 1.0 / sigma.max(1e-300);
    let u: Vec<C64> = hv.iter().map(|z| z.scale(inv_sigma)).collect();
    // q = (j omega I - A)^{-1} B v = -(A - j omega I)^{-1} B v.
    let bv = through_planes(&v, n, |ur, ui, xr, xi| ss.apply_b_split(ur, ui, xr, xi));
    let mut q = vec![C64::zero(); n];
    ss.a()
        .solve_shifted(C64::from_imag(omega), false, &bv, &mut q);
    for z in q.iter_mut() {
        *z = -*z;
    }
    let mut row = vec![0.0f64; p * n];
    for (alpha, u_alpha) in u.iter().enumerate() {
        let ua = u_alpha.conj();
        let base = alpha * n;
        for beta in 0..n {
            row[base + beta] = (ua * q[beta]).re;
        }
    }
    Ok((row, sigma))
}

/// Builds the displacement targets, grouped per band: each finite
/// violation-band edge is asked to move toward the band midpoint.
fn displacement_targets(
    report: &PassivityReport,
    eigenpairs: &[ImaginaryEigenpair],
    contraction: f64,
    match_tol: f64,
) -> Vec<Vec<(usize, f64)>> {
    let mut groups = Vec::new();
    let push = |targets: &mut Vec<(usize, f64)>, omega: f64, delta: f64| {
        if let Some((idx, _)) = eigenpairs
            .iter()
            .enumerate()
            .map(|(i, e)| (i, (e.omega - omega).abs()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
        {
            if (eigenpairs[idx].omega - omega).abs() <= match_tol {
                targets.push((idx, delta));
            }
        }
    };
    for band in &report.bands {
        let mut targets = Vec::new();
        if band.hi.is_finite() {
            let mid = 0.5 * (band.lo.max(0.0) + band.hi);
            if band.lo > 0.0 {
                push(&mut targets, band.lo, contraction * (mid - band.lo));
            }
            push(&mut targets, band.hi, contraction * (mid - band.hi));
        } else if band.lo > 0.0 {
            // Unbounded band (defensive; cannot occur for sigma(D) < 1):
            // push the lower edge upward to shrink it.
            push(&mut targets, band.lo, contraction * band.lo * 0.01);
        }
        groups.push(targets);
    }
    groups
}

/// Cosine of the angle between two rows.
fn row_cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    dot / (na * nb).max(f64::MIN_POSITIVE)
}

/// Enforces passivity by iterative residue perturbation.
///
/// # Errors
///
/// * [`SolverError::EnforcementStalled`] when the violation cannot be
///   reduced within the iteration budget;
/// * solver errors from the inner eigenvalue sweeps.
///
/// # Example
///
/// ```no_run
/// use pheig_core::enforcement::{enforce_passivity, EnforcementOptions};
/// use pheig_model::generator::{generate_case, CaseSpec};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ss = generate_case(&CaseSpec::new(20, 2).with_seed(1).with_target_crossings(2))?
///     .realize();
/// let out = enforce_passivity(&ss, &EnforcementOptions::default())?;
/// assert!(out.final_report.is_passive());
/// # Ok(())
/// # }
/// ```
pub fn enforce_passivity(
    ss: &StateSpace,
    opts: &EnforcementOptions,
) -> Result<EnforcementOutcome, SolverError> {
    // One workspace serves every eigenvalue sweep of the enforcement loop
    // (the initial characterization, each line-search trial, and the final
    // verification): worker scratch persists across passivity iterations.
    // With `opts.solver.threads > 1` the re-characterization sweeps are
    // cohorts on the persistent executor, so the same pool (and its pooled
    // worker scratch) also persists across iterations — no per-sweep
    // thread spawning.
    enforce_passivity_with(ss, opts, &mut SolverWorkspace::new())
}

/// [`enforce_passivity`] with caller-owned solver scratch.
///
/// Batch drivers that enforce many models on one worker (the pipeline's
/// [`crate::pipeline::run_batch`]) should create one [`SolverWorkspace`]
/// per worker and pass it to every call, extending the workspace-reuse
/// contract across models.
///
/// # Errors
///
/// Same as [`enforce_passivity`].
pub fn enforce_passivity_with(
    ss: &StateSpace,
    opts: &EnforcementOptions,
    solver_ws: &mut SolverWorkspace,
) -> Result<EnforcementOutcome, SolverError> {
    enforce_with_seed(ss, opts, solver_ws, None)
}

/// [`enforce_passivity_with`] reusing a characterization of `ss` the
/// caller already computed with the *same* solver options — the pipeline's
/// stage-2 sweep — so the enforcement loop does not repeat the most
/// expensive step of the flow before its first perturbation.
pub(crate) fn enforce_with_seed(
    ss: &StateSpace,
    opts: &EnforcementOptions,
    solver_ws: &mut SolverWorkspace,
    seed: Option<(&SolverOutcome, &PassivityReport)>,
) -> Result<EnforcementOutcome, SolverError> {
    // The first-order scheme can stall on degenerate crossing geometry
    // for a specific contraction factor; retrying the whole loop with a
    // damped or over-shot factor resolves this in practice (the factors
    // change which crossing pairs annihilate first). Every attempt starts
    // from the unperturbed `ss`, so the seeded characterization stays
    // valid across attempts.
    let mut last_err = None;
    for factor in [1.0, 0.6, 1.25, 0.4] {
        match enforce_once(ss, &opts.solver, CONTRACTION * factor, solver_ws, seed) {
            Ok(out) => return Ok(out),
            Err(e @ SolverError::EnforcementStalled { .. }) => last_err = Some(e),
            Err(e) => return Err(e),
        }
    }
    // PANIC-SAFE: the factor array is non-empty, so the loop either
    // returned or recorded at least one stall error.
    #[allow(clippy::expect_used)]
    Err(last_err.expect("at least one attempt ran"))
}

fn enforce_once(
    ss: &StateSpace,
    solver: &SolverOptions,
    contraction: f64,
    solver_ws: &mut SolverWorkspace,
    seed: Option<(&SolverOutcome, &PassivityReport)>,
) -> Result<EnforcementOutcome, SolverError> {
    let n = ss.order();
    let p = ss.ports();
    let (r_inv, s_inv) = port_coupling_inverses(ss.d())?;
    let mut current = ss.clone();
    let mut recycle = crate::solver::RecycleCounters::default();
    let (mut outcome, initial_report) = match seed {
        Some((outcome, report)) => (outcome.clone(), report.clone()),
        None => {
            let outcome = find_imaginary_eigenvalues_with(&current, solver, solver_ws)?;
            recycle.absorb(&outcome.stats);
            let report = characterize(&current, &outcome.frequencies)?;
            (outcome, report)
        }
    };
    let mut report = initial_report.clone();
    let c0 = ss.c().clone();
    let mut stall_count = 0usize;
    // Adaptive overshoot: bumped when a full sweep of step sizes fails to
    // reduce the violation (degenerate tangential crossings respond to a
    // harder push), reset on success.
    let mut boost = 1.0f64;

    let mut iteration = 0;
    while !report.is_passive() {
        if iteration == MAX_ITERATIONS {
            return Err(SolverError::EnforcementStalled {
                iterations: MAX_ITERATIONS,
                residual_violation: report.total_severity(),
            });
        }
        let match_tol = 1e-6 * outcome.band.1.max(1.0);
        // Two complementary constraint regimes, chosen *per band*: wide
        // bands use the eigenvalue-displacement rows (overshooting the
        // midpoint annihilates the crossing pair), while narrow/shallow
        // bands — whose edge eigenvectors nearly coincide and give the
        // displacement rows no usable direction — use a direct descent on
        // the peak singular value instead.
        let narrow_tol = 1e-3 * outcome.band.1.max(1.0);
        let mut wide_bands = report.clone();
        let mut narrow_probe_points: Vec<f64> = Vec::new();
        wide_bands.bands.retain(|b| {
            let wide = b.hi.is_finite() && b.width() > narrow_tol;
            if !wide && b.peak_omega.is_finite() {
                push_probe_points(b, &mut narrow_probe_points);
            }
            wide
        });
        let target_groups = displacement_targets(
            &wide_bands,
            &outcome.eigenpairs,
            contraction * boost,
            match_tol,
        );
        // Materialize edge rows per band; bands whose two edge rows are
        // nearly parallel cannot be closed by displacement (the opposing
        // targets excite the near-null space of the Gram matrix and the
        // least-norm step explodes) — close those by sigma descent instead.
        let mut targets: Vec<(Vec<f64>, f64)> = Vec::new();
        for (band, group) in wide_bands.bands.iter().zip(&target_groups) {
            let rows: Vec<(Vec<f64>, f64)> = group
                .iter()
                .map(|&(eig_idx, delta)| {
                    (
                        sensitivity_row(&current, &r_inv, &s_inv, &outcome.eigenpairs[eig_idx]),
                        delta,
                    )
                })
                .collect();
            let parallel = rows.len() == 2 && row_cosine(&rows[0].0, &rows[1].0).abs() > 0.9;
            if parallel || rows.is_empty() {
                push_probe_points(band, &mut narrow_probe_points);
            } else {
                targets.extend(rows);
            }
        }
        let mut sigma_rows: Vec<(Vec<f64>, f64)> = Vec::new();
        for omega in narrow_probe_points {
            let (row, sigma) = sigma_descent_row(&current, omega)?;
            if sigma < 1.0 - 1e-9 {
                continue; // already below threshold; do not push it back up
            }
            // Push the (shallow) violation strictly below the threshold,
            // with a real margin so round-off and second-order effects
            // cannot leave the peak grazing sigma = 1.
            let delta = (1.0 - sigma) * (1.0 + 0.2 * boost) - 3e-4;
            sigma_rows.push((row, delta));
        }
        if targets.is_empty() && sigma_rows.is_empty() {
            return Err(SolverError::EnforcementStalled {
                iterations: iteration,
                residual_violation: report.total_severity(),
            });
        }
        // Assemble the m x (p n) sensitivity matrix and the target vector:
        // eigenvalue-displacement rows first, then peak-descent rows.
        let m = targets.len() + sigma_rows.len();
        let mut g = Matrix::<f64>::zeros(m, p * n);
        let mut rhs = vec![0.0f64; m];
        for (row_idx, (row, delta)) in targets.into_iter().chain(sigma_rows).enumerate() {
            for (j, v) in row.into_iter().enumerate() {
                g[(row_idx, j)] = v;
            }
            rhs[row_idx] = delta;
        }
        // Row equilibration: eigenvalue-displacement rows (rad/s per unit C)
        // and sigma rows (dimensionless per unit C) have incommensurate
        // scales; normalize each constraint so the least-norm compromise is
        // balanced.
        for i in 0..m {
            let nrm = (0..p * n)
                .map(|j| g[(i, j)] * g[(i, j)])
                .sum::<f64>()
                .sqrt();
            if nrm > 0.0 {
                let inv = 1.0 / nrm;
                for j in 0..p * n {
                    g[(i, j)] *= inv;
                }
                rhs[i] *= inv;
            }
        }
        // Least-norm solve via the small Gram system (G G^T + eps I) mu = rhs,
        // with Levenberg-Marquardt-style adaptive damping: nearly parallel
        // constraints make the Gram ill-conditioned and an undamped solve
        // returns a step hundreds of times larger than C itself — pure
        // noise amplification. Increase the damping until the step is a
        // bounded fraction of the current residue matrix.
        let gt = g.transpose();
        let gram0 = &g * &gt;
        let trace: f64 = (0..m).map(|i| gram0[(i, i)]).sum();
        let step_cap = 0.5 * current.c().frobenius_norm().max(1e-12);
        let mut eps = REGULARIZATION * (trace / m as f64).max(f64::MIN_POSITIVE);
        let delta_c_flat = loop {
            let mut gram = gram0.clone();
            for i in 0..m {
                gram[(i, i)] += eps;
            }
            let mu = Lu::new(gram)?.solve(&rhs)?;
            let candidate = gt.matvec(&mu);
            let norm = candidate.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm <= step_cap || eps > 1e6 * trace.max(f64::MIN_POSITIVE) {
                break candidate;
            }
            eps *= 100.0;
        };

        // Line search: accept the largest step that reduces the violation.
        let severity = violation_metrics(&report);
        let mut eta = 1.0f64;
        let mut accepted = None;
        for _ in 0..=MAX_HALVINGS {
            let mut trial = current.clone();
            {
                let c = trial.c_mut();
                for alpha in 0..p {
                    for beta in 0..n {
                        c[(alpha, beta)] += eta * delta_c_flat[alpha * n + beta];
                    }
                }
            }
            let trial_outcome = find_imaginary_eigenvalues_with(&trial, solver, solver_ws)?;
            recycle.absorb(&trial_outcome.stats);
            let trial_report = characterize(&trial, &trial_outcome.frequencies)?;
            if trial_report.is_passive() || is_progress(violation_metrics(&trial_report), severity)
            {
                accepted = Some((trial, trial_outcome, trial_report));
                break;
            }
            eta *= 0.5;
        }
        match accepted {
            Some((t, o, r)) => {
                current = t;
                outcome = o;
                report = r;
                stall_count = 0;
                boost = 1.0;
            }
            None => {
                stall_count += 1;
                boost *= 1.4;
                if stall_count >= 4 {
                    return Err(SolverError::EnforcementStalled {
                        iterations: iteration + 1,
                        residual_violation: severity.0 + severity.1,
                    });
                }
            }
        }
        iteration += 1;
    }
    let delta = (&current.c().clone() - &c0).frobenius_norm();
    Ok(EnforcementOutcome {
        state_space: current,
        iterations: iteration,
        initial_report,
        final_report: report,
        delta_c_norm: delta,
        recycle,
    })
}

/// Pushes the sigma-descent probe points of one band: its peak and, when
/// the band is bounded, 7 evenly spaced interior points. Constraining the
/// whole band, not just the peak, matters: a single peak constraint merely
/// shifts the maximum sideways.
fn push_probe_points(band: &ViolationBand, points: &mut Vec<f64>) {
    points.push(band.peak_omega);
    if band.hi.is_finite() {
        let probes = 7;
        for k in 0..probes {
            let w = band.lo + (band.hi - band.lo) * (k as f64 + 0.5) / probes as f64;
            points.push(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::find_imaginary_eigenvalues;
    use pheig_model::generator::{generate_case, CaseSpec};

    #[test]
    fn sensitivity_matches_finite_difference() {
        // Perturb one entry of C and compare the predicted eigenvalue
        // displacement with the actual recomputed crossing.
        let ss = generate_case(&CaseSpec::new(14, 2).with_seed(21).with_target_crossings(2))
            .unwrap()
            .realize();
        let solver = SolverOptions::default();
        let out = find_imaginary_eigenvalues(&ss, &solver).unwrap();
        assert!(!out.eigenpairs.is_empty());
        let pair = &out.eigenpairs[0];
        let (r_inv, s_inv) = port_coupling_inverses(ss.d()).unwrap();
        let row = sensitivity_row(&ss, &r_inv, &s_inv, pair);
        let n = ss.order();
        // Pick the entry with the largest sensitivity for a strong signal.
        let (idx, &grad) = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        let (alpha, beta) = (idx / n, idx % n);
        let h = 1e-6 / grad.abs().max(1.0);
        let mut perturbed = ss.clone();
        perturbed.c_mut()[(alpha, beta)] += h;
        let out2 = find_imaginary_eigenvalues(&perturbed, &solver).unwrap();
        // Find the crossing nearest the original.
        let new_omega = out2
            .frequencies
            .iter()
            .copied()
            .min_by(|a, b| {
                (a - pair.omega)
                    .abs()
                    .partial_cmp(&(b - pair.omega).abs())
                    .unwrap()
            })
            .expect("crossing persists under a tiny perturbation");
        let actual = (new_omega - pair.omega) / h;
        assert!(
            (actual - grad).abs() < 2e-2 * grad.abs().max(1e-6),
            "finite-difference {actual} vs analytic {grad}"
        );
    }

    #[test]
    fn enforcement_produces_passive_model() {
        let ss = generate_case(
            &CaseSpec::new(16, 2)
                .with_seed(5)
                .with_target_crossings(2)
                .with_damping(0.02, 0.09),
        )
        .unwrap()
        .realize();
        let out = enforce_passivity(&ss, &EnforcementOptions::default()).unwrap();
        assert!(!out.initial_report.is_passive());
        assert!(out.final_report.is_passive());
        assert!(out.delta_c_norm > 0.0);
        // Poles and D untouched.
        assert_eq!(out.state_space.d(), ss.d());
        assert_eq!(out.state_space.a_dense(), ss.a_dense());
        // Confirm passivity independently: no imaginary eigenvalues remain.
        let check =
            find_imaginary_eigenvalues(&out.state_space, &SolverOptions::default()).unwrap();
        assert!(
            check.frequencies.is_empty(),
            "residual crossings {:?}",
            check.frequencies
        );
    }

    #[test]
    fn serial_resweeps_are_counted_on_the_executor() {
        // A `T = 1` sweep is a cohort of one on the zero-worker pool, so
        // each enforcement re-sweep must add one membership to that pool's
        // telemetry (other tests may add to the same pool concurrently,
        // hence `>=`).
        let ss = generate_case(
            &CaseSpec::new(16, 2)
                .with_seed(5)
                .with_target_crossings(2)
                .with_damping(0.02, 0.09),
        )
        .unwrap()
        .realize();
        let pool = crate::exec::Executor::pool(0);
        let before = pool.stats().tasks_executed;
        // Below the dense crossover a re-sweep is a dense solve, which
        // opens no cohort; the telemetry under test is the sweep's.
        let opts = EnforcementOptions {
            solver: SolverOptions::default().with_dense_max(0),
        };
        let out = enforce_passivity(&ss, &opts).unwrap();
        assert!(out.recycle.sweeps > 0);
        let counted = pool.stats().tasks_executed - before;
        assert!(
            counted >= out.recycle.sweeps as u64,
            "{counted} memberships counted, {} sweeps run",
            out.recycle.sweeps
        );
    }

    #[test]
    fn already_passive_model_is_untouched() {
        let ss = generate_case(
            &CaseSpec::new(14, 2)
                .with_seed(8)
                .with_target_crossings(0)
                .with_damping(0.02, 0.09),
        )
        .unwrap()
        .realize();
        let out = enforce_passivity(&ss, &EnforcementOptions::default()).unwrap();
        assert_eq!(out.iterations, 0);
        assert_eq!(out.delta_c_norm, 0.0);
        assert!(out.final_report.is_passive());
    }
}
