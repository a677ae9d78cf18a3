//! Chaos matrix: every fault kind x firing stage, driven through the full
//! solver stack, asserting the robustness trichotomy — each cell must end
//! in (1) a correct complete result, (2) a typed error, or (3) a
//! documented partial result whose coverage gaps name exactly what was
//! given up. Silent wrong answers, hangs, and process aborts are the
//! failure modes under test.
//!
//! Every cell runs under a watchdog thread so a deadlock fails the test
//! instead of wedging the suite, and every returned result is checked
//! against the dense Hamiltonian oracle: reported crossings must be real,
//! and crossings may only be missed inside a *reported* gap.

use pheig::core::solver::{find_imaginary_eigenvalues, SolverOptions, SolverOutcome};
use pheig::core::{CancelToken, FaultPlan, SolverError};
use pheig::hamiltonian::dense_hamiltonian;
use pheig::linalg::eig::eig_real;
use pheig::model::generator::{generate_case, CaseSpec};
use pheig::model::StateSpace;
use std::sync::mpsc;
use std::time::Duration;

/// Per-cell-group deadline. Generous for debug builds on a loaded host;
/// a healthy cell finishes in a second or two.
const WATCHDOG: Duration = Duration::from_secs(240);

fn model() -> StateSpace {
    generate_case(&CaseSpec::new(20, 3).with_seed(9).with_target_crossings(4))
        .unwrap()
        .realize()
}

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
    out.sort_by(|a, b| a.total_cmp(b));
    out
}

/// Runs `f` on a helper thread and panics if it neither returns nor
/// panics before the watchdog deadline (a hang is a test failure, not a
/// wedged suite).
fn with_watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let tag = name.to_string();
    std::thread::Builder::new()
        .name(format!("chaos-{name}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .unwrap();
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => v,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("chaos cell `{tag}` panicked (see the cell's own message above)")
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("chaos cell `{tag}` hung past the {WATCHDOG:?} watchdog")
        }
    }
}

/// `true` when `[lo, hi]` is contained in the union of `intervals`
/// (allowing `eps` slack at the seams).
fn union_covers(mut intervals: Vec<(f64, f64)>, (lo, hi): (f64, f64), eps: f64) -> bool {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut reach = lo;
    for (a, b) in intervals {
        if a > reach + eps {
            break;
        }
        reach = reach.max(b);
    }
    reach >= hi - eps
}

fn in_gaps(w: f64, gaps: &[(f64, f64)], slack: f64) -> bool {
    gaps.iter()
        .any(|&(lo, hi)| w >= lo - slack && w <= hi + slack)
}

/// The trichotomy assertion applied to every cell's outcome.
fn assert_trichotomy(tag: &str, result: Result<SolverOutcome, SolverError>, oracle: &[f64]) {
    let out = match result {
        // Branch 2: a typed error. The type system already guarantees it
        // is a `SolverError` variant; it must also render usefully.
        Err(e) => {
            assert!(!e.to_string().is_empty(), "{tag}: empty error rendering");
            return;
        }
        Ok(out) => out,
    };
    let tol = 1e-4 * out.band.1;
    // Any returned result: no silent garbage, consistent bookkeeping.
    assert!(
        out.frequencies.iter().all(|w| w.is_finite()),
        "{tag}: non-finite frequency in {:?}",
        out.frequencies
    );
    assert_eq!(
        out.stats.shifts_quarantined,
        out.quarantined.len(),
        "{tag}: quarantine counters disagree"
    );
    // Reported crossings must be real (dense-oracle agreement wherever a
    // result is returned).
    for g in &out.frequencies {
        assert!(
            oracle.iter().any(|w| (g - w).abs() < tol),
            "{tag}: spurious crossing {g} (oracle {oracle:?})"
        );
    }
    if out.coverage_gaps.is_empty() {
        // Branch 1: complete result — full coverage, full oracle agreement.
        assert_eq!(out.covered_fraction, 1.0, "{tag}");
        assert_eq!(
            out.frequencies.len(),
            oracle.len(),
            "{tag}: got {:?}, oracle {oracle:?}",
            out.frequencies
        );
        for (g, w) in out.frequencies.iter().zip(oracle) {
            assert!((g - w).abs() < tol, "{tag}: crossing {g} vs oracle {w}");
        }
    } else {
        // Branch 3: documented partial result. The gaps must be exactly
        // the quarantined shifts' intervals (each gap lies inside the
        // union of quarantined intervals, never exceeding what was given
        // up), the covered fraction must be honest, and crossings may be
        // missed only inside a reported gap.
        assert!(
            !out.quarantined.is_empty(),
            "{tag}: gaps {:?} with nothing quarantined",
            out.coverage_gaps
        );
        assert!(out.covered_fraction < 1.0, "{tag}");
        let eps = 1e-9 * (out.band.1 - out.band.0).max(1.0);
        let quarantined: Vec<(f64, f64)> = out.quarantined.iter().map(|q| q.interval).collect();
        for &gap in &out.coverage_gaps {
            assert!(
                union_covers(quarantined.clone(), gap, eps),
                "{tag}: gap {gap:?} not covered by quarantined intervals {quarantined:?}"
            );
        }
        let gap_len: f64 = out.coverage_gaps.iter().map(|(a, b)| b - a).sum();
        let band_len = out.band.1 - out.band.0;
        assert!(
            (out.covered_fraction - (1.0 - gap_len / band_len)).abs() < 1e-9,
            "{tag}: covered_fraction dishonest"
        );
        for w in oracle {
            if !in_gaps(*w, &out.coverage_gaps, tol) {
                assert!(
                    out.frequencies.iter().any(|g| (g - w).abs() < tol),
                    "{tag}: crossing {w} missed outside the reported gaps {:?}",
                    out.coverage_gaps
                );
            }
        }
    }
}

/// Runs one cell and asserts the trichotomy; returns how many faults the
/// sweep injected when it produced a result (`None` for a typed error).
fn run_cell(tag: &str, ss: &StateSpace, oracle: &[f64], opts: SolverOptions) -> Option<u64> {
    let ss = ss.clone();
    let result = with_watchdog(tag, move || find_imaginary_eigenvalues(&ss, &opts));
    let injected = result.as_ref().ok().map(|out| out.stats.faults_injected);
    assert_trichotomy(tag, result, oracle);
    injected
}

#[test]
fn apply_corruption_at_every_stage() {
    let ss = model();
    let oracle = oracle_crossings(&ss);
    assert!(!oracle.is_empty());
    for (kind, stage) in [
        ("nan", 0u64),
        ("nan", 5),
        ("nan", 40),
        ("inf", 0),
        ("inf", 7),
    ] {
        let plan = match kind {
            "nan" => FaultPlan {
                nan_apply: Some(stage),
                ..FaultPlan::default()
            },
            _ => FaultPlan {
                inf_apply: Some(stage),
                ..FaultPlan::default()
            },
        };
        let tag = format!("{kind}_apply@{stage}");
        run_cell(
            &tag,
            &ss,
            &oracle,
            SolverOptions::default().with_fault_plan(plan),
        );
    }
}

#[test]
fn singular_shift_and_stall_stages() {
    let ss = model();
    let oracle = oracle_crossings(&ss);
    // `singular_shift=K` counts factorizations on both lane routes (solo
    // attempts and lockstep block lanes), so at the default block size
    // every small K fires, exactly once.
    for stage in 0u64..4 {
        let plan = FaultPlan {
            singular_shift: Some(stage),
            ..FaultPlan::default()
        };
        let injected = run_cell(
            &format!("singular_shift@{stage}"),
            &ss,
            &oracle,
            SolverOptions::default().with_fault_plan(plan),
        );
        assert_eq!(injected, Some(1), "singular_shift@{stage}");
    }
    let plan = FaultPlan {
        stall: Some((1, Duration::from_millis(5))),
        ..FaultPlan::default()
    };
    run_cell(
        "stall@1",
        &ss,
        &oracle,
        SolverOptions::default().with_fault_plan(plan),
    );
}

#[test]
fn budget_exhaustion_ladder() {
    let ss = model();
    let oracle = oracle_crossings(&ss);
    for budget in [1u64, 60, 1_000_000] {
        run_cell(
            &format!("matvec_budget={budget}"),
            &ss,
            &oracle,
            SolverOptions::default().with_matvec_budget(budget),
        );
    }
    for budget in [0u64, 4, 1_000_000] {
        run_cell(
            &format!("restart_budget={budget}"),
            &ss,
            &oracle,
            SolverOptions::default().with_restart_budget(budget),
        );
    }
}

#[test]
fn cancellation_and_injector_pressure() {
    let ss = model();
    let oracle = oracle_crossings(&ss);
    // Pre-latched cancellation: fully degraded but clean partial result.
    let token = CancelToken::new();
    token.cancel();
    run_cell(
        "cancel@start",
        &ss,
        &oracle,
        SolverOptions::default().with_cancel(token),
    );
    // Injector-full backpressure before the sweep must not perturb the
    // sweep itself: this cell must land in the *complete* branch.
    let plan = FaultPlan {
        injector_full: true,
        ..FaultPlan::default()
    };
    let ss2 = ss.clone();
    let opts = SolverOptions::default().with_fault_plan(plan);
    let out = with_watchdog("injector_full", move || {
        find_imaginary_eigenvalues(&ss2, &opts)
    })
    .unwrap();
    assert!(out.quarantined.is_empty());
    assert_eq!(out.covered_fraction, 1.0);
    assert_trichotomy("injector_full", Ok(out), &oracle);
}

#[test]
fn worker_panic_serial_and_parallel() {
    let ss = model();
    let oracle = oracle_crossings(&ss);
    let plan = FaultPlan {
        panic_task: Some(0),
        ..FaultPlan::default()
    };
    // Serial: the sole membership panics; must surface as the typed
    // TaskPanicked error (trichotomy branch 2), not a process abort.
    let ss2 = ss.clone();
    let opts = SolverOptions::default().with_fault_plan(plan.clone());
    let err = with_watchdog("panic_task@0/T=1", move || {
        find_imaginary_eigenvalues(&ss2, &opts)
    })
    .unwrap_err();
    assert!(matches!(err, SolverError::TaskPanicked { .. }), "{err:?}");
    // Parallel: the surviving members must finish the whole band.
    for threads in [2usize, 4] {
        run_cell(
            &format!("panic_task@0/T={threads}"),
            &ss,
            &oracle,
            SolverOptions::default()
                .with_threads(threads)
                .with_fault_plan(plan.clone()),
        );
    }
}

#[test]
fn seeded_compound_plans() {
    // Seeded plans arm a corruption, a singular shift, and a task panic
    // at once — the nastiest cells of the matrix. Every seed must still
    // land in one of the three documented outcomes, serial and parallel.
    let ss = model();
    let oracle = oracle_crossings(&ss);
    for seed in 1u64..=4 {
        let plan = FaultPlan::seeded(seed);
        run_cell(
            &format!("seeded={seed}/T=1"),
            &ss,
            &oracle,
            SolverOptions::default().with_fault_plan(plan.clone()),
        );
        run_cell(
            &format!("seeded={seed}/T=4"),
            &ss,
            &oracle,
            SolverOptions::default()
                .with_threads(4)
                .with_fault_plan(plan),
        );
    }
}
