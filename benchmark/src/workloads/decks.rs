//! The three Touchstone-deck workloads: one deck dominated by the fit, a
//! family dominated by enforcement, and a batch of tiny decks.
//!
//! The reference models behind the decks are pinned: whether first-order
//! enforcement converges, and in how many re-sweeps, is a property of a
//! model's crossing geometry (a third of random 24-state decks stall
//! today), and the contract wants workloads on which no op fails. The
//! decks below are ones that enforce cleanly under every sampling grid
//! and solver seed probed. `--seed` moves each deck's sampling grid (its
//! top frequency by up to 0.1%) and the Arnoldi start vectors of every
//! sweep; the program only ever sees the generated Touchstone text.

use crate::check::{self, check_passive_model, check_pipeline};
use crate::harness::{op_seed, timed, unit_f64, Ctx, Report, SetupClock, TimeBox};
use crate::host::nproc;
use crate::json::Value;
use crate::probes;
use crate::stats::{median, Measured};
use crate::trace::Tracer;
use pheig_core::characterization::characterize;
use pheig_core::enforcement::enforce_passivity_with;
use pheig_core::pipeline::{run_batch, Pipeline, PipelineOptions};
use pheig_core::solver::{find_imaginary_eigenvalues_with, SolverWorkspace};
use pheig_core::SolverError;
use pheig_model::generator::{generate_case, CaseSpec};
use pheig_model::touchstone::{read_touchstone, write_touchstone, TouchstoneOptions};
use pheig_model::{FrequencySamples, StateSpace};
use pheig_vectorfit::vector_fit;

/// Batch ops on the pool before timing starts: in two of three probe
/// processes the first batches after pool creation ran at serial speed.
const WARMUP_PAR_OPS: usize = 3;
/// Grid points of the after-enforcement passivity check: per deck when an
/// op is one deck, and per member of a 24-deck batch op.
const GRID_SINGLE: usize = 2000;
const GRID_BATCH_MEMBER: usize = 250;

/// One deck: a pinned reference model sampled on a seed-jittered grid.
pub struct DeckSpec {
    pub label: String,
    pub spec: CaseSpec,
    pub band: (f64, f64),
    pub samples: usize,
}

/// How a workload drives its decks.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Each deck is one serial op; `wall_s` is the time of one pass over
    /// the list (the sum of per-deck medians over the passes run).
    Serial,
    /// All decks are parsed and run as one batch op on `threads` workers
    /// (the traced run interleaves a serial baseline for the speed-up).
    Batch { threads: usize },
}

pub struct DeckCase {
    pub name: &'static str,
    pub decks: Vec<DeckSpec>,
    pub poles_per_column: usize,
    pub mode: Mode,
    /// A deck first-order enforcement is known to stall on. It is run in
    /// the traced run only, where the typed error is the expected outcome.
    pub stall_probe: Option<DeckSpec>,
}

fn soft(order: usize, ports: usize, seed: u64, crossings: usize) -> CaseSpec {
    CaseSpec::new(order, ports)
        .with_seed(seed)
        .with_target_crossings(crossings)
        .with_damping(0.02, 0.09)
}

fn deck(label: String, spec: CaseSpec, hi: f64, samples: usize) -> DeckSpec {
    DeckSpec {
        label,
        spec,
        band: (0.01, hi),
        samples,
    }
}

/// A 72-state, 6-port deck: vector fitting is ~96% of the op.
pub fn pipeline_fit() -> DeckCase {
    DeckCase {
        name: "pipeline_fit",
        decks: vec![deck("n72p6_s3".into(), soft(72, 6, 3, 4), 13.0, 300)],
        poles_per_column: 12,
        mode: Mode::Serial,
        stall_probe: None,
    }
}

/// Generator seeds of the enforcement family: the first twelve 24-state
/// 2-port models that enforce cleanly under every variation probed while
/// keeping a pass under ~5 s (seeds 4, 6, 7, 9, 12, 13 and others either
/// stall or take several seconds per deck; seed 6 is the stall probe).
const ENFORCE_FAMILY_SEEDS: [u64; 12] = [1, 2, 3, 5, 8, 10, 11, 14, 15, 17, 23, 24];
const ENFORCE_STALL_SEED: u64 = 6;

/// Twelve 24-state decks; enforcement is most of every op.
pub fn enforce_family() -> DeckCase {
    let member = |seed: u64| deck(format!("n24p2_s{seed}"), soft(24, 2, seed, 2), 13.0, 300);
    DeckCase {
        name: "enforce_family",
        decks: ENFORCE_FAMILY_SEEDS.iter().map(|&s| member(s)).collect(),
        poles_per_column: 12,
        mode: Mode::Serial,
        stall_probe: Some(member(ENFORCE_STALL_SEED)),
    }
}

/// Non-passive 16-state decks of the batch: the canonical demo case plus
/// three more seeds of the same spec verified to enforce cleanly.
const BATCH_NONPASSIVE_SEEDS: [u64; 4] = [101, 100, 103, 106];

/// Twenty passive and four non-passive 16-state decks as one batch.
pub fn batch_decks() -> DeckCase {
    let passive = (40..60).map(|seed| {
        let spec = CaseSpec::new(16, 2)
            .with_seed(seed)
            .with_target_crossings(0);
        deck(format!("n16p2_passive_s{seed}"), spec, 12.0, 200)
    });
    let nonpassive = BATCH_NONPASSIVE_SEEDS.iter().map(|&seed| {
        let spec = CaseSpec::demo_nonpassive().with_seed(seed);
        deck(format!("n16p2_nonpassive_s{seed}"), spec, 13.0, 200)
    });
    DeckCase {
        name: "batch_decks",
        decks: passive.chain(nonpassive).collect(),
        poles_per_column: 8,
        mode: Mode::Batch { threads: 2 },
        stall_probe: None,
    }
}

/// Touchstone text of `deck` for run seed `seed`: the reference model
/// sampled on a uniform grid whose top frequency the seed moves by up to
/// 0.1% (`stream` separates the decks of one workload).
pub fn deck_text(deck: &DeckSpec, seed: u64, stream: u64) -> String {
    let model = generate_case(&deck.spec).expect("pinned deck spec is valid");
    let hi = deck.band.1 * (1.0 + 1e-3 * unit_f64(seed, stream));
    let samples = FrequencySamples::from_model(&model, deck.band.0, hi, deck.samples)
        .expect("pinned sampling grid is valid");
    write_touchstone(&samples, &TouchstoneOptions::default())
}

fn options(case: &DeckCase, solver_seed: u64) -> PipelineOptions {
    let mut opts = PipelineOptions::new().with_poles_per_column(case.poles_per_column);
    opts.solver = opts.solver.with_seed(solver_seed);
    opts
}

/// One serial op: a deck's text through `Pipeline::from_touchstone` and
/// `run`. Returns the wall time; the op is checked and counted.
fn serial_op(
    case: &DeckCase,
    report: &mut Report,
    label: &str,
    text: &str,
    solver_seed: u64,
) -> f64 {
    let opts = options(case, solver_seed);
    let (result, wall) = timed(|| Pipeline::from_touchstone(text, None).and_then(|p| p.run(&opts)));
    let checked = result
        .map_err(|e| e.to_string())
        .and_then(|model| check_passive_model(&model, GRID_SINGLE));
    report.op(label, checked);
    wall
}

/// One batch op: parse every deck, then `run_batch` on `threads` workers.
/// The op fails if any deck fails to parse, run or check.
fn batch_op(
    case: &DeckCase,
    report: &mut Report,
    label: &str,
    texts: &[String],
    threads: usize,
    solver_seed: u64,
) -> f64 {
    let opts = options(case, solver_seed);
    let (results, wall) = timed(|| {
        let pipelines = texts
            .iter()
            .map(|t| Pipeline::from_touchstone(t, None))
            .collect::<Result<Vec<_>, _>>()?;
        Ok::<_, SolverError>(run_batch(&pipelines, &opts, threads))
    });
    let outcome = results.map_err(|e| e.to_string()).and_then(|results| {
        for (deck, result) in case.decks.iter().zip(results) {
            let model = result.map_err(|e| format!("{}: {e}", deck.label))?;
            check_passive_model(&model, GRID_BATCH_MEMBER)
                .map_err(|e| format!("{}: {e}", deck.label))?;
        }
        Ok(())
    });
    report.op(label, outcome);
    wall
}

/// Runs `case` end to end (`ctx.trace == false`) or traced.
pub fn run(case: &DeckCase, ctx: &Ctx) -> Report {
    let mut report = Report::new();
    let golden = match check::load_golden(case.name) {
        Ok(g) => g.filter(|_| !ctx.bless),
        Err(e) => {
            report.fail(e);
            None
        }
    };
    let mut setup = SetupClock::new(ctx);
    let texts: Vec<String> = setup.repeated(|| {
        case.decks
            .iter()
            .zip(1u64..)
            .map(|(d, stream)| deck_text(d, ctx.seed, stream))
            .collect()
    });
    let traced = match case.mode {
        Mode::Serial => run_serial(case, ctx, &texts, setup, &mut report),
        Mode::Batch { threads } => run_batch_mode(case, ctx, &texts, threads, setup, &mut report),
    };
    let Some(traced) = traced else {
        return report;
    };
    if ctx.bless {
        let mut doc = check::golden_header(case.name)
            .with("pattern", traced.pattern)
            .with("counts", check::counts_of(&report));
        if let Some((crossings, _)) = &traced.crossings {
            doc.set("crossings", Value::from(&crossings[..]));
        }
        report.golden = Some(doc);
    } else if let Some(g) = &golden {
        // The pass/stall pattern holds for every seed; counts and the
        // fitted model's crossings are blessed for seed 0 only.
        if g.get("pattern") != Some(&traced.pattern) {
            report.fail(format!(
                "pass/stall pattern {} differs from golden",
                traced.pattern.to_compact()
            ));
        }
        if check::counts_apply(g, ctx.seed) {
            check::check_counts(&mut report, g);
            if let (Some((got, top)), Some(want)) =
                (&traced.crossings, check::golden_crossings(Some(g)))
            {
                if let Err(why) = check::same_crossings(got, &want, *top) {
                    report.fail(format!("fitted model: {why}"));
                }
            }
        }
    }
    report
}

/// What the traced pass saw, for the golden comparison.
struct TracedPass {
    /// Deck label -> "pass" / "stall" / "fail".
    pattern: Value,
    /// Crossings of the fitted model and the top of the band they were
    /// searched in (single-deck workloads only).
    crossings: Option<(Vec<f64>, f64)>,
}

fn run_serial(
    case: &DeckCase,
    ctx: &Ctx,
    texts: &[String],
    mut setup: SetupClock,
    report: &mut Report,
) -> Option<TracedPass> {
    // Warm-up: the first deck once (op 0, the run's own solver seed).
    setup.once(|| serial_op(case, report, "warm-up", &texts[0], op_seed(ctx.seed, 0)));
    let mut next_op = 1u64;
    if ctx.trace {
        return Some(traced_serial(case, ctx, texts, report));
    }

    let mut per_deck: Vec<Vec<f64>> = vec![Vec::new(); texts.len()];
    let (mut ops, mut busy_s) = (0usize, 0.0);
    let mut time_box = TimeBox::new(ctx.seconds);
    while time_box.another() {
        time_box.block(|| {
            for (i, text) in texts.iter().enumerate() {
                let label = format!("{} op {next_op} ({})", case.name, case.decks[i].label);
                let wall = serial_op(case, report, &label, text, op_seed(ctx.seed, next_op));
                next_op += 1;
                per_deck[i].push(wall);
                ops += 1;
                busy_s += wall;
            }
        });
    }
    let medians: Vec<f64> = per_deck.iter().map(|w| median(w)).collect();
    let passes = per_deck[0].len();
    let pass = |k: usize| per_deck.iter().map(|w| w[k]).sum::<f64>();
    report.set(
        "wall_s",
        Measured {
            value: medians.iter().sum(),
            min: (0..passes).map(pass).fold(f64::INFINITY, f64::min),
            max: (0..passes).map(pass).fold(f64::NEG_INFINITY, f64::max),
            samples: passes,
        },
    );
    report.set_value("units_per_s", ops as f64 / busy_s);
    setup.finish(report);
    None
}

fn run_batch_mode(
    case: &DeckCase,
    ctx: &Ctx,
    texts: &[String],
    threads: usize,
    mut setup: SetupClock,
    report: &mut Report,
) -> Option<TracedPass> {
    report.cpus_limited = nproc() < threads;
    let mut next_op = 0u64;
    let mut op = |report: &mut Report, threads: usize| {
        let label = format!("{} op {next_op} (T={threads})", case.name);
        let wall = batch_op(
            case,
            report,
            &label,
            texts,
            threads,
            op_seed(ctx.seed, next_op),
        );
        next_op += 1;
        wall
    };
    // Warm-up: one serial batch, then the first batches on the pool (the
    // very first pays for creating it).
    setup.once(|| op(report, 1));
    let first_par_s = setup.once(|| op(report, threads));
    for _ in 1..WARMUP_PAR_OPS {
        setup.once(|| op(report, threads));
    }
    if ctx.trace {
        return Some(traced_batch(case, ctx, texts, threads, first_par_s, report));
    }

    let mut main_s = Vec::new();
    let mut time_box = TimeBox::new(ctx.seconds);
    while time_box.another() {
        main_s.push(time_box.block(|| op(report, threads)));
    }
    report.set("wall_s", Measured::of(&main_s));
    report.set_value(
        "units_per_s",
        (main_s.len() * texts.len()) as f64 / main_s.iter().sum::<f64>(),
    );
    setup.finish(report);
    None
}

/// What one deck cost, stage by stage, when driven through the same
/// public calls `Pipeline::run_with` makes.
#[derive(Default)]
struct Staged {
    bytes: usize,
    parse_s: f64,
    fit_s: f64,
    realize_s: f64,
    sweep_s: f64,
    characterize_s: f64,
    enforce_s: f64,
    total_s: f64,
    rms_error: f64,
    order: usize,
    matvecs: usize,
    shifts: usize,
    restarts: usize,
    crossings: Vec<f64>,
    band_top: f64,
    warm_started_shifts: usize,
    recycle_candidates: usize,
    recycle_hits: usize,
    enforced: bool,
    iterations: usize,
    resweeps: usize,
    resweep_matvecs: usize,
    delta_c_norm: f64,
    fitted: Option<StateSpace>,
    stalled: bool,
}

/// Drives one deck stage by stage, a span around every call into a layer.
/// The unseeded public `enforce_passivity_with` repeats the
/// characterization sweep `Pipeline::run_with` hands it for free, so a
/// non-passive deck costs one sweep (`Staged::sweep_s`) more here.
fn staged(
    tracer: &mut Tracer,
    text: &str,
    opts: &PipelineOptions,
    ws: &mut SolverWorkspace,
) -> (Staged, Result<(), String>) {
    let mut s = Staged {
        bytes: text.len(),
        ..Staged::default()
    };
    tracer.next_op();
    let (outcome, total_s) = tracer.span("core.pipeline.op", |t| {
        let (samples, secs) = t.span("model.touchstone.parse", |_| {
            read_touchstone(text, None).and_then(|deck| deck.into_scattering_samples())
        });
        s.parse_s = secs;
        let samples = samples?;
        let (fit, secs) = t.span("vectorfit.fit", |_| vector_fit(&samples, &opts.vectorfit));
        s.fit_s = secs;
        let fit = fit?;
        s.rms_error = fit.rms_error;
        let (ss, secs) = t.span("model.realize", |_| fit.state_space());
        s.realize_s = secs;
        s.order = ss.order();
        let (outcome, secs) = t.span("core.solver.sweep", |_| {
            find_imaginary_eigenvalues_with(&ss, &opts.solver, ws)
        });
        s.sweep_s = secs;
        let outcome = outcome?;
        s.matvecs = outcome.stats.total_matvecs;
        s.shifts = outcome.shift_log.len();
        s.restarts = outcome.shift_log.iter().map(|r| r.restarts).sum();
        s.warm_started_shifts = outcome.stats.warm_started_shifts;
        s.recycle_candidates = outcome.stats.recycle_candidates;
        s.recycle_hits = outcome.stats.recycle_hits;
        s.crossings = outcome.frequencies.clone();
        s.band_top = outcome.band.1;
        let (initial, secs) = t.span("core.characterization.characterize", |_| {
            characterize(&ss, &outcome.frequencies)
        });
        s.characterize_s = secs;
        let initial = initial?;
        s.fitted = Some(ss.clone());
        if initial.is_passive() {
            return Ok::<_, SolverError>((ss, initial));
        }
        let mut enf = opts.enforcement.clone();
        enf.solver = opts.solver.clone();
        let (enforced, secs) = t.span("core.enforcement.enforce", |_| {
            enforce_passivity_with(&ss, &enf, ws)
        });
        s.enforce_s = secs;
        s.enforced = true;
        let enforced = enforced?;
        s.iterations = enforced.iterations;
        s.resweeps = enforced.recycle.sweeps;
        s.resweep_matvecs = enforced.recycle.matvecs;
        s.delta_c_norm = enforced.delta_c_norm;
        Ok((enforced.state_space, enforced.final_report))
    });
    s.total_s = total_s;
    s.stalled = matches!(outcome, Err(SolverError::EnforcementStalled { .. }));
    let checked = outcome
        .map_err(|e| e.to_string())
        .and_then(|(ss, report)| check_pipeline(&ss, &report, s.rms_error, GRID_SINGLE));
    (s, checked)
}

/// Folds the staged decks of one traced pass into the per-layer metrics.
fn layer_metrics(report: &mut Report, decks: &[Staged], reference_s: f64) {
    let sum = |f: fn(&Staged) -> f64| decks.iter().map(f).sum::<f64>();
    let count = |f: fn(&Staged) -> usize| decks.iter().map(f).sum::<usize>() as f64;
    let total_s = sum(|d| d.total_s);
    let parse_s = sum(|d| d.parse_s);
    let fit_s = sum(|d| d.fit_s);
    let sweep_s = sum(|d| d.sweep_s);
    let enforce_s = sum(|d| d.enforce_s);
    let other_s = sum(|d| d.realize_s + d.characterize_s);

    let parse_ms: Vec<f64> = decks.iter().map(|d| d.parse_s * 1e3).collect();
    report.set("model.touchstone.parse_ms", Measured::of(&parse_ms));
    report.set_value(
        "model.touchstone.parse_mib_per_s",
        count(|d| d.bytes) / (1u64 << 20) as f64 / parse_s,
    );
    let realize_ms: Vec<f64> = decks.iter().map(|d| d.realize_s * 1e3).collect();
    report.set("model.realize_ms", Measured::of(&realize_ms));

    report.set_value("vectorfit.fit_s", fit_s);
    report.set_value("vectorfit.fit_share", fit_s / total_s);
    report.set_value(
        "vectorfit.rms_error",
        decks.iter().map(|d| d.rms_error).fold(0.0, f64::max),
    );
    report.set_value("vectorfit.order", count(|d| d.order));

    let matvecs = count(|d| d.matvecs);
    let shifts = count(|d| d.shifts);
    report.set_value("core.solver.matvecs", matvecs);
    report.set_value("core.solver.shifts", shifts);
    report.set_value("core.solver.restarts", count(|d| d.restarts));
    report.set_value("core.solver.crossings", count(|d| d.crossings.len()));
    report.set_value(
        "core.solver.warm_started_shifts",
        count(|d| d.warm_started_shifts),
    );
    report.set_value(
        "core.solver.recycle_hit_rate",
        count(|d| d.recycle_hits) / count(|d| d.recycle_candidates).max(1.0),
    );
    report.set_value("core.solver.matvecs_per_shift", matvecs / shifts.max(1.0));
    report.set_value(
        "core.solver.wall_us_per_matvec",
        sweep_s * 1e6 / matvecs.max(1.0),
    );
    let characterize_ms: Vec<f64> = decks.iter().map(|d| d.characterize_s * 1e3).collect();
    report.set(
        "core.characterization.characterize_ms",
        Measured::of(&characterize_ms),
    );

    let enforced: Vec<&Staged> = decks.iter().filter(|d| d.enforced).collect();
    report.set_value("core.enforcement.wall_s", enforce_s);
    report.set_value("core.enforcement.iterations", count(|d| d.iterations));
    report.set_value("core.enforcement.sweeps", count(|d| d.resweeps));
    report.set_value("core.enforcement.matvecs", count(|d| d.resweep_matvecs));
    if !enforced.is_empty() {
        // Each re-sweep is priced at the deck's own characterization sweep.
        let resweep_s: f64 = enforced.iter().map(|d| d.resweeps as f64 * d.sweep_s).sum();
        report.set_value("core.enforcement.resweep_share_est", resweep_s / enforce_s);
        report.set_value(
            "core.enforcement.delta_c_norm",
            enforced.iter().map(|d| d.delta_c_norm).fold(0.0, f64::max),
        );
        let walls: Vec<f64> = enforced.iter().map(|d| d.enforce_s).collect();
        let m = Measured::of(&walls);
        report.set("core.enforcement.deck_wall_median_s", m);
        report.set_value("core.enforcement.deck_wall_max_s", m.max);
    }

    report.set_value("core.pipeline.parse_share", parse_s / total_s);
    report.set_value("core.pipeline.fit_share", fit_s / total_s);
    report.set_value("core.pipeline.sweep_share", sweep_s / total_s);
    report.set_value("core.pipeline.enforce_share", enforce_s / total_s);
    report.set_value(
        "core.pipeline.stage_sum_ratio",
        (parse_s + fit_s + sweep_s + enforce_s + other_s) / total_s,
    );
    // The duplicated seed sweeps are the public entry's cost, not the
    // spans': they are taken out before comparing with the untraced op.
    let duplicated_s: f64 = enforced.iter().map(|d| d.sweep_s).sum();
    report.set_value(
        "trace.overhead_ratio",
        (total_s - duplicated_s) / reference_s,
    );
}

/// Runs the traced pass over `texts`, the layer probes on the first
/// deck's fitted model, and (for the enforcement family) the stall probe.
fn traced_pass(
    case: &DeckCase,
    ctx: &Ctx,
    texts: &[String],
    reference_s: f64,
    report: &mut Report,
) -> TracedPass {
    let mut tracer = Tracer::new();
    let opts = options(case, ctx.seed);
    let mut ws = SolverWorkspace::new();
    let mut decks = Vec::new();
    let mut pattern = Value::obj();
    for (deck, text) in case.decks.iter().zip(texts) {
        let (s, outcome) = staged(&mut tracer, text, &opts, &mut ws);
        pattern.set(&deck.label, if outcome.is_ok() { "pass" } else { "fail" });
        report.op(&format!("{} traced ({})", case.name, deck.label), outcome);
        decks.push(s);
    }
    layer_metrics(report, &decks, reference_s);

    if let Some(probe) = &case.stall_probe {
        let text = deck_text(probe, ctx.seed, 1000);
        let (s, outcome) = staged(&mut tracer, &text, &opts, &mut ws);
        // The typed stall error is this deck's expected outcome; anything
        // else (a pass included) must be blessed before it is accepted.
        let seen = match (&outcome, s.stalled) {
            (_, true) => "stall",
            (Ok(()), _) => "pass",
            (Err(_), _) => "fail",
        };
        pattern.set(&probe.label, seen);
        let expected_or_new = s.stalled || outcome.is_ok();
        report.op(
            &format!("{} stall probe ({})", case.name, probe.label),
            if expected_or_new { Ok(()) } else { outcome },
        );
        report.set_value("core.enforcement.stalled", f64::from(u8::from(s.stalled)));
        report.set_value("core.enforcement.stall_wall_s", s.enforce_s);
    }
    if let Some(ss) = decks.first().and_then(|d| d.fitted.as_ref()) {
        let first = &decks[0];
        probes::linalg(report, ss.order());
        // The band its own characterization sweep searched.
        let band = (0.0, first.band_top);
        probes::operators(report, ss, 0.5 * band.1);
        let rho0 = band.1 / (2.0 * first.shifts.max(1) as f64);
        probes::arnoldi(report, &mut tracer, ss, band, rho0, ctx.seed);
        super::share_estimates(report, first.matvecs, first.shifts, first.sweep_s);
    }
    report.set_value("trace.spans", tracer.spans().len() as f64);
    super::write_trace(&tracer, case.name, ctx.seed, report);
    TracedPass {
        pattern,
        crossings: match decks.as_slice() {
            [only] => Some((only.crossings.clone(), only.band_top)),
            _ => None,
        },
    }
}

fn traced_serial(case: &DeckCase, ctx: &Ctx, texts: &[String], report: &mut Report) -> TracedPass {
    // Untraced reference passes with the traced pass's solver seed.
    let passes = if texts.len() == 1 { 2 } else { 1 };
    let reference: Vec<f64> = (0..passes)
        .map(|_| {
            texts
                .iter()
                .map(|text| serial_op(case, report, "untraced reference", text, ctx.seed))
                .sum()
        })
        .collect();
    traced_pass(case, ctx, texts, median(&reference), report)
}

fn traced_batch(
    case: &DeckCase,
    ctx: &Ctx,
    texts: &[String],
    threads: usize,
    first_par_s: f64,
    report: &mut Report,
) -> TracedPass {
    let op = |report: &mut Report, threads: usize| {
        batch_op(case, report, "untraced reference", texts, threads, ctx.seed)
    };
    let (mut t1, mut par) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        t1.push(op(report, 1));
        par.push(op(report, threads));
        par.push(op(report, threads));
    }
    let (t1_s, par_s) = (median(&t1), median(&par));
    let traced = traced_pass(case, ctx, texts, t1_s, report);
    report.set_value("core.exec.t1_wall_s", t1_s);
    report.set_value("core.exec.speedup_vs_t1", t1_s / par_s);
    report.set_value("core.exec.first_batch_ratio", first_par_s / par_s);
    super::exec_layers(report, threads);
    traced
}
