//! Per-layer probes: public functions of each crate timed in isolation at
//! the workload's own problem size, so every layer gets a number that can
//! be set against the end-to-end metric it should move (see README.md).

use crate::harness::{per_call_s, timed, Report};
use crate::stats::{median, Measured};
use crate::trace::Tracer;
use pheig_arnoldi::krylov::{arnoldi_into, ArnoldiFactorization};
use pheig_arnoldi::ritz::ritz_pairs;
use pheig_arnoldi::single_shift::single_shift_on_op_with;
use pheig_arnoldi::{
    build_shift_invert_op, single_shift_iteration_recycled_with, ArnoldiWorkspace, RecyclePool,
    SingleShiftOptions, SingleShiftOutcome,
};
use pheig_hamiltonian::{CLinearOp, HamiltonianOp, MultiShiftInvertOp, ShiftInvertOp};
use pheig_linalg::eig::eig_hessenberg;
use pheig_linalg::kernels::{self, SplitBasis};
use pheig_linalg::{Matrix, Qr, C64};
use pheig_model::StateSpace;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Rows of the Krylov basis the sweep orthogonalises against (the
/// solver's default `max_subspace`).
const BASIS_ROWS: usize = 60;
/// Shifts the cold and warm single-shift probes run.
const PROBE_SHIFTS: usize = 8;

/// A deterministic, well-spread complex vector.
fn cvec(n: usize, salt: f64) -> Vec<C64> {
    (0..n)
        .map(|i| {
            let t = (i as f64 + 1.0) * (0.754_877_666 + salt);
            C64::new((t * 13.0).sin() + 0.3, (t * 7.0).cos())
        })
        .collect()
}

/// A [`CLinearOp`] that times every apply of the operator it wraps, so a
/// probe's wall time splits into operator time (the `hamiltonian` layer)
/// and the caller's own time (the `arnoldi` layer).
pub struct TimedOp<'a> {
    inner: &'a dyn CLinearOp,
    applies: Mutex<Vec<(Instant, Instant)>>,
}

impl<'a> TimedOp<'a> {
    pub fn new(inner: &'a dyn CLinearOp) -> Self {
        TimedOp {
            inner,
            applies: Mutex::new(Vec::new()),
        }
    }

    /// The recorded apply intervals, leaving the log empty.
    pub fn take(&self) -> Vec<(Instant, Instant)> {
        std::mem::take(&mut *self.applies.lock().expect("no apply panics while logging"))
    }
}

impl CLinearOp for TimedOp<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply_into(&self, x: &[C64], y: &mut [C64]) {
        let start = Instant::now();
        self.inner.apply_into(x, y);
        let end = Instant::now();
        self.applies
            .lock()
            .expect("no apply panics while logging")
            .push((start, end));
    }
}

fn total_s(intervals: &[(Instant, Instant)]) -> f64 {
    intervals
        .iter()
        .map(|(a, b)| b.duration_since(*a).as_secs_f64())
        .sum()
}

/// `linalg`: the CGS2 projection pass, the projected eigenproblem and the
/// least-squares solve, at the sizes the sweep and the fit use them.
pub fn linalg(report: &mut Report, n: usize) {
    let dim = 2 * n;
    let mut basis = SplitBasis::new();
    basis.reset(dim);
    for r in 0..BASIS_ROWS {
        basis.push_interleaved(&cvec(dim, r as f64 * 0.01));
    }
    let w = cvec(dim, 0.5);
    let (mut wr, mut wi) = (vec![0.0; dim], vec![0.0; dim]);
    kernels::split(&w, &mut wr, &mut wi);
    let mut coeff = vec![C64::zero(); BASIS_ROWS];
    let s = per_call_s(|| {
        basis.project_out(&mut wr, &mut wi, &mut coeff);
        black_box(&coeff);
    });
    report.set_value("linalg.kernels.project_out_us", s * 1e6);
    // Computed from array sizes (cache misses ignored): both passes read
    // the two basis planes; the vector planes are read twice, written once.
    let bytes = (2 * 2 * BASIS_ROWS * dim * 8 + 3 * 2 * dim * 8) as f64;
    report.set_value("linalg.kernels.project_out_gbps_computed", bytes / s / 1e9);

    let m = BASIS_ROWS;
    let h = Matrix::from_fn(m, m, |i, j| {
        if i <= j + 1 {
            let t = (i * m + j) as f64;
            C64::new((t * 0.37).sin(), (t * 0.11).cos())
        } else {
            C64::zero()
        }
    });
    let s = per_call_s(|| {
        black_box(eig_hessenberg(h.clone()).expect("probe matrix converges"));
    });
    report.set_value("linalg.eig.eig_hessenberg_us", s * 1e6);

    let (rows, cols) = (600, 50);
    let a = Matrix::from_fn(rows, cols, |i, j| {
        ((i * cols + j) as f64 * 0.618).sin() + if i == j { 2.0 } else { 0.0 }
    });
    let b: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.3).cos()).collect();
    let s = per_call_s(|| {
        let qr = Qr::new(a.clone()).expect("tall probe matrix");
        black_box(qr.solve_least_squares(&b).expect("full-rank probe matrix"));
    });
    report.set_value("linalg.qr.lstsq_ms", s * 1e3);
}

/// `model` and `hamiltonian`: factorisation and apply costs at the
/// workload's `(n, p)`, at a shift `j omega` inside its band.
pub fn operators(report: &mut Report, ss: &StateSpace, omega: f64) {
    let (n, p) = (ss.order(), ss.ports());
    let theta = C64::from_imag(omega);
    let s = per_call_s(|| {
        black_box(ss.a().shift_solve_factors(theta, false, false));
    });
    report.set_value("model.block_diag.shift_solve_factors_us", s * 1e6);

    let s = per_call_s(|| {
        black_box(ShiftInvertOp::new(ss, theta).expect("probe shift is regular"));
    });
    report.set_value("hamiltonian.shift_invert.new_us", s * 1e6);

    let x = cvec(2 * n, 0.1);
    let mut y = vec![C64::zero(); 2 * n];
    let op = ShiftInvertOp::new(ss, theta).expect("probe shift is regular");
    let s = per_call_s(|| op.apply_into(black_box(&x), &mut y));
    report.set_value("hamiltonian.shift_invert.apply_ns", s * 1e9);
    // Computed from array sizes: C is read four times (C and C^T on both
    // Woodbury halves); x and y interleaved, their split planes, two sets
    // of three solve-factor bands and four work planes are each 8-byte
    // sweeps over the state dimension.
    report.set_value(
        "hamiltonian.shift_invert.apply_bytes_computed",
        (32 * p * n + 288 * n) as f64,
    );

    let m_op = HamiltonianOp::new(ss).expect("D is contractive");
    let s = per_call_s(|| m_op.apply_into(black_box(&x), &mut y));
    report.set_value("hamiltonian.matvec.apply_ns", s * 1e9);

    const LANES: usize = 4;
    let thetas: Vec<C64> = (0..LANES)
        .map(|l| C64::from_imag(omega * (1.0 + 0.01 * l as f64)))
        .collect();
    let block = MultiShiftInvertOp::new(ss, &thetas).expect("probe shifts are regular");
    let xs: Vec<Vec<C64>> = (0..LANES).map(|l| cvec(2 * n, 0.2 + l as f64)).collect();
    let mut ys = vec![vec![C64::zero(); 2 * n]; LANES];
    let lanes: Vec<usize> = (0..LANES).collect();
    let s = per_call_s(|| {
        let x_refs: Vec<&[C64]> = xs.iter().map(Vec::as_slice).collect();
        let mut y_refs: Vec<&mut [C64]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
        block.apply_block_into(&lanes, &x_refs, &mut y_refs);
    });
    report.set_value(
        "hamiltonian.multi_shift.apply_block_ns_per_lane",
        s * 1e9 / LANES as f64,
    );
}

/// `arnoldi`: cold and warm single-shift iterations at [`PROBE_SHIFTS`]
/// shifts evenly spaced in `band`, through a [`TimedOp`] so each probe's
/// self time is the `arnoldi` share; plus one Krylov build, one Ritz
/// extraction and one recycle-pool gather.
///
/// `rho0` is the initial radius guess (callers pass the median certified
/// radius of the workload's own sweep) and `seed` the solver seed.
pub fn arnoldi(
    report: &mut Report,
    tracer: &mut Tracer,
    ss: &StateSpace,
    band: (f64, f64),
    rho0: f64,
    seed: u64,
) {
    let scale_floor = ss.a().max_natural_frequency().max(f64::MIN_POSITIVE);
    let opts = SingleShiftOptions::new();
    let mut ws = ArnoldiWorkspace::new();
    let shifts: Vec<f64> = (0..PROBE_SHIFTS)
        .map(|k| band.0 + (band.1 - band.0) * (k as f64 + 0.5) / PROBE_SHIFTS as f64)
        .collect();

    // Cold: random start vector, no recycled candidates.
    let mut cold: Vec<(f64, SingleShiftOutcome)> = Vec::new();
    let (mut cold_walls, mut op_s, mut new_s) = (Vec::new(), 0.0, 0.0);
    for (k, &omega) in shifts.iter().enumerate() {
        let scale = omega.abs().max(scale_floor);
        let aopts = opts.clone().with_seed(seed.wrapping_add(k as u64));
        tracer.next_op();
        let (result, wall) = tracer.span("arnoldi.single_shift.cold", |t| {
            let (op, secs) = t.span("hamiltonian.shift_invert.new", |_| {
                build_shift_invert_op(ss, omega, scale)
            });
            let op = op.ok()?;
            let timed_op = TimedOp::new(&op);
            let map = |mu: C64| op.to_hamiltonian_eigenvalue(mu);
            let out =
                single_shift_on_op_with(&timed_op, &map, op.theta(), rho0, scale, &aopts, &mut ws);
            let applies = timed_op.take();
            t.adopt(t.current(), "hamiltonian.shift_invert.apply", &applies);
            Some((out.ok()?, secs, total_s(&applies)))
        });
        // A shift that does not certify on its first attempt is normal
        // operation (the sweep retries it with a larger subspace), not a
        // failure; it is left out of the probe's sums.
        if let Some((out, secs, apply_s)) = result {
            cold_walls.push(wall);
            new_s += secs;
            op_s += apply_s;
            cold.push((omega, out));
        }
    }
    report.op(
        "arnoldi cold probe",
        if cold.is_empty() {
            Err("no probe shift certified".into())
        } else {
            Ok(())
        },
    );
    if cold.is_empty() {
        return;
    }
    let wall_s: f64 = cold_walls.iter().sum();
    let matvecs: usize = cold.iter().map(|(_, o)| o.matvecs).sum();
    let restarts: usize = cold.iter().map(|(_, o)| o.restarts).sum();
    report.set(
        "arnoldi.single_shift.cold_ms",
        Measured::of(&cold_walls.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
    );
    report.set_value("arnoldi.single_shift.cold_matvecs", matvecs as f64);
    report.set_value("arnoldi.single_shift.cold_restarts", restarts as f64);
    report.set_value("arnoldi.single_shift.cold_op_share", op_s / wall_s);
    report.set_value(
        "arnoldi.single_shift.cold_self_us_per_matvec",
        (wall_s - op_s - new_s) * 1e6 / matvecs.max(1) as f64,
    );

    // Warm: each cold outcome donates its eigenpairs to a neighbouring
    // shift three quarters of a radius away, as the sweep's pool would.
    let cap = (opts.n_eigs + 4) & !1;
    let (mut warm_walls, mut warm_matvecs) = (Vec::new(), 0usize);
    let mut pool = RecyclePool::new();
    for (k, (omega, donor)) in cold.iter().enumerate() {
        pool.clear();
        pool.record(*omega, donor);
        let neighbour = omega + 0.75 * donor.radius;
        let scale = neighbour.abs().max(scale_floor);
        let aopts = opts.clone().with_seed(seed.wrapping_add(100 + k as u64));
        tracer.next_op();
        let (out, wall) = tracer.span("arnoldi.single_shift.warm", |t| {
            let (warm, _) = t.span("arnoldi.recycle.gather", |_| {
                pool.gather(C64::from_imag(neighbour), rho0 * 1.25, cap)
            });
            single_shift_iteration_recycled_with(ss, neighbour, rho0, scale, &aopts, &mut ws, &warm)
        });
        if let Ok(out) = out {
            warm_walls.push(wall * 1e3);
            warm_matvecs += out.matvecs;
        }
    }
    if !warm_walls.is_empty() {
        report.set("arnoldi.single_shift.warm_ms", Measured::of(&warm_walls));
        report.set_value("arnoldi.single_shift.warm_matvecs", warm_matvecs as f64);
    }
    let centre = C64::from_imag(shifts[PROBE_SHIFTS / 2]);
    let s = per_call_s(|| {
        black_box(pool.gather(centre, rho0 * 1.25, cap));
    });
    report.set_value("arnoldi.recycle.gather_us", s * 1e6);

    // One full Krylov build and its Ritz extraction at a mid-band shift.
    let omega = shifts[PROBE_SHIFTS / 2];
    let Ok(op) = build_shift_invert_op(ss, omega, omega.abs().max(scale_floor)) else {
        return;
    };
    let timed_op = TimedOp::new(&op);
    let start = cvec(op.dim(), 0.3);
    let mut fact = ArnoldiFactorization::empty();
    arnoldi_into(&timed_op, &start, &[], BASIS_ROWS, &mut fact);
    timed_op.take();
    let (mut builds, mut orth) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (_, s) = timed(|| arnoldi_into(&timed_op, &start, &[], BASIS_ROWS, &mut fact));
        builds.push(s * 1e6);
        orth.push((s - total_s(&timed_op.take())) * 1e6 / fact.steps.max(1) as f64);
    }
    report.set("arnoldi.krylov.arnoldi_into_us", Measured::of(&builds));
    report.set_value("arnoldi.krylov.orth_us_per_step", median(&orth));
    let s = per_call_s(|| {
        black_box(ritz_pairs(&fact).expect("projected eigenproblem converges"));
    });
    report.set_value("arnoldi.ritz.ritz_pairs_us", s * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use pheig_model::generator::{generate_case, CaseSpec};

    #[test]
    fn probes_fill_their_layers_on_a_small_model() {
        let ss = generate_case(&CaseSpec::new(24, 2).with_seed(5).with_target_crossings(2))
            .unwrap()
            .realize();
        let mut report = Report::new();
        let mut tracer = Tracer::new();
        linalg(&mut report, ss.order());
        operators(&mut report, &ss, 3.0);
        arnoldi(&mut report, &mut tracer, &ss, (0.0, 12.0), 0.75, 0);
        assert!(report.correct(), "{:?}", report.failures);
        for m in spec::PER_LAYER {
            let probed = ["linalg.", "hamiltonian.", "arnoldi.", "model.block_diag."]
                .iter()
                .any(|p| m.name.starts_with(p));
            if probed {
                assert!(report.value(m.name) > 0.0, "{} not measured", m.name);
            }
        }
        // Every apply of the cold probes became a child span.
        let applies = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "hamiltonian.shift_invert.apply")
            .count();
        assert_eq!(
            applies as f64,
            report.value("arnoldi.single_shift.cold_matvecs")
        );
    }

    #[test]
    fn timed_op_logs_one_interval_per_apply() {
        let m = Matrix::from_diag(&[C64::new(2.0, 0.0), C64::new(0.0, 1.0)]);
        let op = TimedOp::new(&m);
        let mut y = [C64::zero(); 2];
        op.apply_into(&[C64::one(), C64::one()], &mut y);
        op.apply_into(&[C64::one(), C64::one()], &mut y);
        assert_eq!(y[0], C64::new(2.0, 0.0));
        assert_eq!(op.take().len(), 2);
        assert!(op.take().is_empty());
    }
}
