//! Stress runs of the real executor on OS threads: nested cohorts on a
//! zero-width pool, concurrent cohort owners sharing one pool, panic
//! containment at T = 2, and concurrent applies of one shared operator.
//!
//! Every case runs under a watchdog thread, so a lost wakeup or a
//! deadlock fails the test instead of wedging the suite. Under Miri only
//! the counting-cohort case runs, at a few repetitions: it drives the
//! executor's one unsafe site (the cohort record rebuilt from its exposed
//! provenance) through submission, execution and completion on several
//! threads at once.

use pheig::core::exec::Executor;
use pheig::core::solver::{find_imaginary_eigenvalues, SolverOptions, SolverWorkspace};
use pheig::core::FaultPlan;
use pheig::hamiltonian::{CLinearOp, ShiftInvertOp};
use pheig::linalg::C64;
use pheig::model::generator::{generate_case, CaseSpec};
use pheig::model::FrequencySamples;
use pheig::{run_batch, PassiveModel, Pipeline, PipelineOptions};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

/// Per-case deadline. Generous for debug builds on a loaded host; a
/// healthy case finishes in seconds.
const WATCHDOG: Duration = Duration::from_secs(240);

/// Rounds per owner thread of the counting-cohort case. Under Miri the
/// interpreter runs ~1000x slower, so a handful of rounds is the trade.
#[cfg(not(miri))]
const PROBE_ROUNDS: usize = 300;
#[cfg(miri)]
const PROBE_ROUNDS: usize = 3;

/// Runs `f` on a helper thread and panics if it neither returns nor
/// panics before the watchdog deadline.
fn with_watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name(format!("stress-{name}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .unwrap();
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => v,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("stress case `{name}` panicked (see its own message above)")
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("stress case `{name}` hung past the {WATCHDOG:?} watchdog")
        }
    }
}

/// Every f64 a batch job reports as a result: the enforced residue
/// matrix, the sweep's shift frequencies, and the fit errors.
fn result_bits(m: &PassiveModel) -> Vec<u64> {
    let c = m.state_space.c();
    let mut out: Vec<u64> = (0..c.rows())
        .flat_map(|i| c.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        .collect();
    out.extend(m.report.sweep.shift_log.iter().map(|r| r.omega.to_bits()));
    out.push(m.report.fit.rms_error.to_bits());
    out.push(m.report.fit.max_error.to_bits());
    out
}

/// Runs a cohort of `extra + 1` counting memberships on `exec` and
/// returns how many ran.
fn counted_cohort(exec: &Executor, extra: usize) -> usize {
    let hits = AtomicUsize::new(0);
    let count = |_: &mut SolverWorkspace| {
        hits.fetch_add(1, Ordering::SeqCst);
    };
    assert!(exec
        .run_cohort(extra, &mut SolverWorkspace::new(), &count)
        .is_ok());
    hits.into_inner()
}

#[test]
#[cfg_attr(miri, ignore)]
fn cohort_latch_park_and_help_stress() {
    // A one-wide batch runs on `Executor::pool(0)`, and every job's T = 3
    // sweep nests on that same zero-worker pool: the cohort owner must
    // drain both queued members of every sweep itself. With one thread
    // doing all the work, a T = 3 sweep over 3 * 2 initial intervals is
    // the T = 1 sweep over 6 intervals, bit for bit.
    with_watchdog("nested-zero-width", || {
        let jobs: Vec<Pipeline> = (3u64..7)
            .map(|seed| {
                let model =
                    generate_case(&CaseSpec::new(8, 2).with_seed(seed).with_target_crossings(0))
                        .unwrap();
                Pipeline::from_samples(
                    FrequencySamples::from_model(&model, 0.01, 10.0, 90).unwrap(),
                )
            })
            .collect();
        // The 8-state jobs sit below the dense crossover; the cohorts under
        // test exist only on the sweep path.
        let mut serial = PipelineOptions::default();
        serial.solver.dense_max = 0;
        serial.solver.threads = 1;
        serial.solver.kappa = 6;
        let mut nested = serial.clone();
        nested.solver.threads = 3;
        nested.solver.kappa = 2;

        // A one-wide batch is one membership of its own; every T = 1
        // sweep under it adds one more.
        let pool = Executor::pool(0);
        let before = pool.stats().tasks_executed;
        let want: Vec<Vec<u64>> = run_batch(&jobs, &serial, 1)
            .iter()
            .map(|r| result_bits(r.as_ref().expect("serial batch job succeeded")))
            .collect();
        let sweeps = pool.stats().tasks_executed - before - 1;
        assert!(
            sweeps >= jobs.len() as u64,
            "every job sweeps at least once"
        );

        for round in 0..3 {
            let before = pool.stats().tasks_executed;
            let got = run_batch(&jobs, &nested, 1);
            assert_eq!(
                pool.stats().tasks_executed - before,
                1 + 3 * sweeps,
                "round {round}: every nested sweep ran all three members on the zero-width pool"
            );
            for (slot, (result, expected)) in got.iter().zip(&want).enumerate() {
                let model = result.as_ref().expect("nested batch job succeeded");
                assert!(
                    &result_bits(model) == expected,
                    "round {round}: job {slot} diverged from the serial sweep"
                );
            }
        }
    });
}

#[test]
fn cohort_record_lifecycle_stress() {
    // Three owners open counting cohorts on one 1-worker pool at once: each
    // owner's queued members land beside the others', any thread may run
    // any cohort's members, and every cohort must still count exactly
    // `extra + 1` runs before its owner returns.
    with_watchdog("counting-owners", || {
        let exec = Executor::pool(1);
        std::thread::scope(|s| {
            for owner in 0..3usize {
                let exec = exec.clone();
                s.spawn(move || {
                    for round in 0..PROBE_ROUNDS {
                        let extra = 1 + (owner + round) % 4;
                        assert_eq!(
                            counted_cohort(&exec, extra),
                            extra + 1,
                            "owner {owner}, round {round}"
                        );
                    }
                });
            }
        });
    });
}

#[test]
#[cfg_attr(miri, ignore)]
fn panicking_cohort_task_contained_stress() {
    // One T = 2 member panics at its first pull: the sibling must finish
    // the band, the sweep must come back complete, and the pool must keep
    // serving cohorts afterwards.
    with_watchdog("panic-task-t2", || {
        let ss = generate_case(&CaseSpec::new(20, 3).with_seed(9).with_target_crossings(4))
            .unwrap()
            .realize();
        // Below the dense crossover: the cohort under test is the sweep's.
        let sweep = SolverOptions::default().with_dense_max(0);
        let clean = find_imaginary_eigenvalues(&ss, &sweep).unwrap();
        let plan = FaultPlan {
            panic_task: Some(0),
            ..FaultPlan::default()
        };
        for round in 0..5 {
            let out = find_imaginary_eigenvalues(
                &ss,
                &sweep.clone().with_threads(2).with_fault_plan(plan.clone()),
            )
            .unwrap_or_else(|e| panic!("round {round}: sibling did not finish: {e}"));
            assert_eq!(out.stats.faults_injected, 1, "round {round}");
            assert_eq!(out.covered_fraction, 1.0, "round {round}");
            assert_eq!(
                out.frequencies.len(),
                clean.frequencies.len(),
                "round {round}"
            );
            let tol = 1e-6 * clean.band.1;
            for (a, b) in out.frequencies.iter().zip(&clean.frequencies) {
                assert!((a - b).abs() < tol, "round {round}: crossing {a} vs {b}");
            }
            assert_eq!(
                counted_cohort(&Executor::pool(1), 3),
                4,
                "round {round}: pool stays usable"
            );
        }
    });
}

#[test]
#[cfg_attr(miri, ignore)]
fn scratch_checkout_contention_stress() {
    // Two threads apply one shared operator at once: whichever misses its
    // scratch lock takes the fallback workspace, and every result must
    // equal the serial apply bit for bit either way.
    with_watchdog("shared-operator", || {
        let ss = generate_case(&CaseSpec::new(30, 4).with_seed(7))
            .unwrap()
            .realize();
        let op = ShiftInvertOp::new(&ss, C64::from_imag(2.4)).unwrap();
        let inputs: Vec<Vec<C64>> = (0..2)
            .map(|k| {
                (0..op.dim())
                    .map(|i| C64::new((i as f64 * 0.73 + k as f64).sin(), (i as f64 * 0.41).cos()))
                    .collect()
            })
            .collect();
        let bits = |y: &[C64]| -> Vec<(u64, u64)> {
            y.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let want: Vec<_> = inputs.iter().map(|x| bits(&op.apply(x))).collect();
        let start = Barrier::new(inputs.len());
        std::thread::scope(|s| {
            for (x, expected) in inputs.iter().zip(&want) {
                let (op, start) = (&op, &start);
                s.spawn(move || {
                    let mut y = vec![C64::zero(); op.dim()];
                    start.wait();
                    for _ in 0..500 {
                        op.apply_into(x, &mut y);
                        assert!(&bits(&y) == expected, "concurrent apply diverged");
                    }
                });
            }
        });
    });
}
