//! The two characterization-sweep workloads.
//!
//! The model of each workload is pinned (as the paper's Table I pins its
//! cases): a sweep's cost follows the crossing geometry, which varies
//! 2.5x from one generator seed to the next at the same `(n, p)`, so a
//! generator seed taken from `--seed` would measure the draw, not the
//! code. `--seed` instead drives the Arnoldi start vectors through
//! `SolverOptions::with_seed` — the paper's own source of run-to-run
//! variation — with a different draw for every op of a run.

use crate::check::{self, check_sweep};
use crate::harness::{op_seed, timed, Ctx, Report, SetupClock, TimeBox};
use crate::host::nproc;
use crate::json::Value;
use crate::probes;
use crate::stats::{median, Measured};
use crate::trace::Tracer;
use pheig_core::scheduler::Scheduler;
use pheig_core::simulate::{simulate_parallel, ScheduleMode};
use pheig_core::solver::{
    find_imaginary_eigenvalues_with, SolverOptions, SolverOutcome, SolverWorkspace,
};
use pheig_model::generator::{generate_case, CaseSpec};
use pheig_model::{PoleResidueModel, StateSpace};

/// Parallel ops run after each serial op of the traced run, so drift hits
/// both sides of the speed-up.
const PAR_OPS_PER_SERIAL: usize = 2;

/// One sweep workload: a pinned model and the thread count of its op.
pub struct SweepCase {
    pub name: &'static str,
    pub spec: CaseSpec,
    pub threads: usize,
}

/// Table I Case 2 shape, serial.
pub fn n1000() -> SweepCase {
    SweepCase {
        name: "sweep_n1000",
        spec: CaseSpec::new(1000, 20)
            .with_target_crossings(42)
            .with_seed(1001),
        threads: 1,
    }
}

/// Mid-size model on two threads against a serial baseline.
pub fn par2() -> SweepCase {
    SweepCase {
        name: "sweep_par2",
        spec: CaseSpec::new(500, 20)
            .with_target_crossings(6)
            .with_seed(1000),
        threads: 2,
    }
}

/// The legacy harness's n = 96 sweep (pinned at 948 matvecs): a one-second
/// pre-flight through the same code path as the real workloads.
pub fn smoke() -> SweepCase {
    SweepCase {
        name: "sweep_smoke",
        spec: CaseSpec::new(96, 3).with_target_crossings(4).with_seed(7),
        threads: 2,
    }
}

struct Bench<'a> {
    case: &'a SweepCase,
    ss: StateSpace,
    ws: SolverWorkspace,
    reference: Option<Vec<f64>>,
    seed: u64,
    next_op: u64,
}

impl Bench<'_> {
    /// Runs one sweep op on `threads` threads with the run's next solver
    /// seed, checks it, and returns its wall time and outcome.
    fn op(&mut self, report: &mut Report, threads: usize) -> (f64, Option<SolverOutcome>) {
        let k = self.next_op;
        self.next_op += 1;
        self.op_with_seed(report, threads, op_seed(self.seed, k), k)
    }

    fn op_with_seed(
        &mut self,
        report: &mut Report,
        threads: usize,
        solver_seed: u64,
        k: u64,
    ) -> (f64, Option<SolverOutcome>) {
        let opts = SolverOptions::new()
            .with_threads(threads)
            .with_seed(solver_seed);
        let (result, wall) =
            timed(|| find_imaginary_eigenvalues_with(&self.ss, &opts, &mut self.ws));
        let label = format!("{} op {k} (T={threads})", self.case.name);
        match result {
            Ok(out) => {
                let checked = check_sweep(&self.ss, &out, self.reference.as_deref());
                // Equal sets of unequal length: a crossing was reported twice.
                if let (Ok(_), Some(want)) = (&checked, &self.reference) {
                    if out.frequencies.len() > want.len() {
                        eprintln!(
                            "note: {label}: a crossing reported twice in {:?}",
                            out.frequencies
                        );
                    }
                }
                // Without a golden file the first op's set is the reference
                // every later op (and every T = 2 op) must reproduce.
                if checked.is_ok() && self.reference.is_none() {
                    self.reference = Some(out.frequencies.clone());
                }
                report.op(&label, checked.map(|_| ()));
                (wall, Some(out))
            }
            Err(e) => {
                report.op(&label, Err(e.to_string()));
                (wall, None)
            }
        }
    }
}

fn generate(case: &SweepCase) -> (PoleResidueModel, StateSpace) {
    let model = generate_case(&case.spec).expect("pinned workload spec is valid");
    let ss = model.realize();
    (model, ss)
}

/// Runs `case` end to end (`ctx.trace == false`) or traced, checking
/// against its golden file.
pub fn run(case: &SweepCase, ctx: &Ctx) -> Report {
    match check::load_golden(case.name) {
        Ok(golden) => run_with_golden(case, ctx, golden),
        Err(e) => {
            let mut report = Report::new();
            report.fail(e);
            report
        }
    }
}

/// [`run`] against an explicit golden document (`None`: the first op's
/// crossing set is the reference for the rest of the run).
pub fn run_with_golden(case: &SweepCase, ctx: &Ctx, golden: Option<Value>) -> Report {
    let mut report = Report::new();
    report.cpus_limited = nproc() < case.threads;
    let golden = golden.filter(|_| !ctx.bless);
    let exact = golden.as_ref().filter(|g| check::counts_apply(g, ctx.seed));

    let mut setup = SetupClock::new(ctx);
    let (model, ss) = setup.repeated(|| generate(case));
    let mut bench = Bench {
        case,
        ss,
        ws: SolverWorkspace::new(),
        reference: check::golden_crossings(golden.as_ref()),
        seed: ctx.seed,
        next_op: 0,
    };
    // Warm-up ops are run, checked and counted, not timed.
    let first = setup.once(|| bench.op(&mut report, 1)).1;
    let mut first_par_s = 0.0;
    if case.threads > 1 {
        first_par_s = setup.once(|| bench.op(&mut report, case.threads)).0;
        setup.once(|| bench.op(&mut report, case.threads));
    }

    if ctx.trace {
        traced(&mut bench, &model, first, first_par_s, ctx, &mut report);
        if let Some(g) = exact {
            check::check_counts(&mut report, g);
        }
        if ctx.bless {
            report.golden = Some(bless(&bench, &report));
        }
        return report;
    }

    // Timed ops, closed loop, one at a time. (The T = 1 baseline of a
    // parallel workload is interleaved in the traced run, where the
    // speed-up is reported.)
    let mut main_s = Vec::new();
    let mut time_box = TimeBox::new(ctx.seconds);
    while time_box.another() {
        main_s.push(time_box.block(|| bench.op(&mut report, case.threads).0));
    }
    report.set("wall_s", Measured::of(&main_s));
    report.set_value(
        "units_per_s",
        main_s.len() as f64 / main_s.iter().sum::<f64>(),
    );
    setup.finish(&mut report);
    report
}

/// The per-layer run: untraced reference ops, one traced op, the layer
/// probes at this model's `(n, p)`, and the counters of the public
/// outcome structs. Every serial op here uses solver seed `ctx.seed`, so
/// counts repeat exactly.
fn traced(
    bench: &mut Bench<'_>,
    model: &PoleResidueModel,
    first: Option<SolverOutcome>,
    first_par_s: f64,
    ctx: &Ctx,
    report: &mut Report,
) {
    let case = bench.case;
    let mut tracer = Tracer::new();
    let seed = ctx.seed;

    // Two untraced serial ops, then the traced one; a parallel workload
    // runs its parallel ops in between.
    let mut parallel: Vec<(f64, f64)> = Vec::new();
    let mut interleave = |bench: &mut Bench<'_>, report: &mut Report| {
        for _ in 0..PAR_OPS_PER_SERIAL * usize::from(case.threads > 1) {
            if let (wall, Some(out)) = bench.op_with_seed(report, case.threads, seed, 200) {
                parallel.push((wall, out.stats.total_matvecs as f64));
            }
        }
    };
    let mut untraced = Vec::new();
    for k in 0..2 {
        untraced.push(bench.op_with_seed(report, 1, seed, 100 + k).0);
        interleave(bench, report);
    }
    tracer.next_op();
    let ((traced_s, out), _) = tracer.span("core.solver.sweep", |_| {
        bench.op_with_seed(report, 1, seed, 102)
    });
    interleave(bench, report);
    let Some(out) = out.or(first) else {
        return;
    };
    let t1_s = median(&[untraced[0], untraced[1], traced_s]);
    report.set_value("trace.overhead_ratio", traced_s / median(&untraced));

    // core::solver and core::scheduler, from the outcome's public fields.
    let stats = &out.stats;
    let shifts = out.shift_log.len();
    let restarts: usize = out.shift_log.iter().map(|r| r.restarts).sum();
    report.set_value("core.solver.matvecs", stats.total_matvecs as f64);
    report.set_value("core.solver.shifts", shifts as f64);
    report.set_value("core.solver.restarts", restarts as f64);
    report.set_value("core.solver.crossings", out.frequencies.len() as f64);
    report.set_value(
        "core.solver.warm_started_shifts",
        stats.warm_started_shifts as f64,
    );
    report.set_value("core.solver.recycle_hit_rate", stats.recycle_hit_rate());
    report.set_value(
        "core.solver.matvecs_per_shift",
        stats.total_matvecs as f64 / shifts.max(1) as f64,
    );
    report.set_value(
        "core.solver.wall_us_per_matvec",
        t1_s * 1e6 / stats.total_matvecs.max(1) as f64,
    );
    if let Ok(worst) = check_sweep(&bench.ss, &out, None) {
        report.set_value("core.solver.sigma_residual_max", worst);
    }
    let sched = &stats.scheduler;
    report.set_value("core.scheduler.processed", sched.processed as f64);
    report.set_value(
        "core.scheduler.deleted_tentative",
        sched.deleted_tentative as f64,
    );
    report.set_value(
        "core.scheduler.trimmed_tentative",
        sched.trimmed_tentative as f64,
    );
    report.set_value("core.scheduler.splits", sched.splits as f64);
    report.set_value(
        "core.scheduler.cancelled_in_flight",
        sched.cancelled_in_flight as f64,
    );
    report.set_value("core.scheduler.op_ns", scheduler_replay_ns(&out));

    // Layer probes at this model's size, at a mid-band shift.
    let (_, realize_s) = tracer.span("model.realize", |_| model.realize());
    report.set_value("model.realize_ms", realize_s * 1e3);
    let mid = 0.5 * (out.band.0 + out.band.1);
    probes::linalg(report, bench.ss.order());
    probes::operators(report, &bench.ss, mid);
    let mut radii: Vec<f64> = out.shift_log.iter().map(|r| r.radius).collect();
    if radii.is_empty() {
        radii.push(0.05 * (out.band.1 - out.band.0));
    }
    probes::arnoldi(
        report,
        &mut tracer,
        &bench.ss,
        out.band,
        median(&radii),
        seed,
    );

    super::share_estimates(report, stats.total_matvecs, shifts, t1_s);
    report.set_value("core.exec.t1_wall_s", t1_s);

    if !parallel.is_empty() {
        parallel_layers(bench, report, &out, &parallel, t1_s, first_par_s, seed);
    }
    report.set_value("trace.spans", tracer.spans().len() as f64);
    super::write_trace(&tracer, case.name, seed, report);
}

/// The parallel path's own numbers: T = 2 work against T = 1 work, the
/// executor's counters, and the virtual-time speed-up the same scheduling
/// policy gives at the paper's 16 threads.
fn parallel_layers(
    bench: &Bench<'_>,
    report: &mut Report,
    serial: &SolverOutcome,
    parallel: &[(f64, f64)],
    t1_s: f64,
    first_par_s: f64,
    seed: u64,
) {
    let threads = bench.case.threads;
    let walls: Vec<f64> = parallel.iter().map(|p| p.0).collect();
    let matvecs: Vec<f64> = parallel.iter().map(|p| p.1).collect();
    let par_s = median(&walls);
    let par_matvecs = median(&matvecs);
    let spread = matvecs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - matvecs.iter().copied().fold(f64::INFINITY, f64::min);
    report.set_value("core.solver.matvecs_t2_median", par_matvecs);
    report.set_value("core.solver.matvecs_t2_spread", spread / par_matvecs);
    report.set_value(
        "core.solver.work_efficiency",
        serial.stats.total_matvecs as f64 / par_matvecs,
    );
    report.set_value("core.exec.speedup_vs_t1", t1_s / par_s);
    // The first parallel op of the process pays for creating the pool.
    report.set_value("core.exec.first_batch_ratio", first_par_s / par_s);
    super::exec_layers(report, threads);

    let opts = SolverOptions::new().with_seed(seed);
    let sim = |threads| simulate_parallel(&bench.ss, threads, &opts, ScheduleMode::Dynamic);
    match (sim(1), sim(16)) {
        (Ok(s1), Ok(s16)) => {
            report.op(
                "simulate_parallel",
                check::same_crossings(&s16.frequencies, &serial.frequencies, serial.band.1),
            );
            report.set_value(
                "core.simulate.virtual_speedup_t16",
                s16.speedup_vs(s1.total_cost),
            );
            report.set_value(
                "core.simulate.virtual_work_ratio_t16",
                s16.total_cost as f64 / s1.total_cost.max(1) as f64,
            );
        }
        (Err(e), _) | (_, Err(e)) => report.op("simulate_parallel", Err(e.to_string())),
    }
}

/// Nanoseconds per scheduler call when the sweep's own disks are replayed
/// through a fresh [`Scheduler`]: each shift it hands out is completed
/// with the logged disk nearest to it.
fn scheduler_replay_ns(out: &SolverOutcome) -> f64 {
    if out.shift_log.is_empty() {
        return 0.0;
    }
    let defaults = SolverOptions::new();
    let intervals = (defaults.kappa.max(2) * defaults.threads).max(4);
    let mut calls = 0u64;
    let (_, secs) = timed(|| {
        for _ in 0..20 {
            let mut sched = Scheduler::new(out.band, intervals, defaults.alpha);
            while let Some(task) = sched.next_shift() {
                let nearest = out
                    .shift_log
                    .iter()
                    .min_by(|a, b| {
                        (a.omega - task.omega)
                            .abs()
                            .total_cmp(&(b.omega - task.omega).abs())
                    })
                    .expect("log is not empty");
                // A disk centred on the task keeps the replay convergent
                // even where the log has no shift close by.
                sched.complete(&task, task.omega, nearest.radius);
                calls += 2;
            }
        }
    });
    secs * 1e9 / calls.max(1) as f64
}

/// The golden document: crossings from a sweep with recycling off (the
/// plain algorithm vouches for the recycled one) and this run's counts.
fn bless(bench: &Bench<'_>, report: &Report) -> Value {
    let opts = SolverOptions::new().with_recycling(false);
    let crossings = find_imaginary_eigenvalues_with(&bench.ss, &opts, &mut SolverWorkspace::new())
        .map(|out| out.frequencies)
        .unwrap_or_default();
    check::golden_header(bench.case.name)
        .with("crossings", Value::from(&crossings[..]))
        .with("counts", check::counts_of(report))
}
