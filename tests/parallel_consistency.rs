//! Consistency of the three execution modes: serial, real threads, and
//! virtual-time simulation must all locate the same imaginary spectrum,
//! and the simulator must expose the paper's scheduling behaviors.

use pheig::core::simulate::{simulate_parallel, ScheduleMode};
use pheig::core::solver::{find_imaginary_eigenvalues, ShiftRecord, SolverOptions};
use pheig::model::generator::{generate_case, CaseSpec};
use pheig::model::StateSpace;

/// Default workload: small enough for the debug-mode tier-1 budget while
/// still exercising every scheduler behavior (multiple crossings, splits,
/// deletions). The heavier paper-scale workload lives in the `#[ignore]`d
/// `*_large` test, which CI runs in its slow-tests job.
fn model() -> StateSpace {
    generate_case(&CaseSpec::new(20, 3).with_seed(9).with_target_crossings(4))
        .unwrap()
        .realize()
}

/// The models here sit below the dense crossover; the execution modes
/// under comparison are the sweep's.
fn sweep() -> SolverOptions {
    SolverOptions::default().with_dense_max(0)
}

fn model_large() -> StateSpace {
    generate_case(&CaseSpec::new(36, 3).with_seed(9).with_target_crossings(8))
        .unwrap()
        .realize()
}

/// Serial, threaded and simulated sweeps of `ss` find the same crossings.
fn assert_modes_agree(ss: &StateSpace) {
    let serial = find_imaginary_eigenvalues(ss, &sweep()).unwrap();
    let threaded = find_imaginary_eigenvalues(ss, &sweep().with_threads(3)).unwrap();
    let simulated = simulate_parallel(ss, 8, &sweep(), ScheduleMode::Dynamic).unwrap();
    let tol = 1e-5 * serial.band.1;
    assert_eq!(serial.frequencies.len(), threaded.frequencies.len());
    assert_eq!(serial.frequencies.len(), simulated.frequencies.len());
    for ((a, b), c) in serial
        .frequencies
        .iter()
        .zip(&threaded.frequencies)
        .zip(&simulated.frequencies)
    {
        assert!((a - b).abs() < tol && (a - c).abs() < tol);
    }
}

#[test]
fn all_modes_agree_on_omega() {
    assert_modes_agree(&model());
}

#[test]
fn speedup_is_monotone_enough_and_superlinear_capable() {
    // Virtual-time speedups must grow with workers on a workload with
    // plenty of shifts; deletions of tentative shifts may push past the
    // ideal line (the paper's superlinear effect).
    let ss = model();
    let s1 = simulate_parallel(&ss, 1, &sweep(), ScheduleMode::Dynamic).unwrap();
    let mut prev = s1.speedup_vs(s1.total_cost);
    assert!(
        (prev - 1.0).abs() < 1e-12,
        "self-speedup must be 1, got {prev}"
    );
    for threads in [2usize, 4, 8] {
        let sim = simulate_parallel(&ss, threads, &sweep(), ScheduleMode::Dynamic).unwrap();
        let speedup = sim.speedup_vs(s1.total_cost);
        assert!(
            speedup >= prev * 0.8,
            "speedup collapsed: T={threads} gives {speedup} after {prev}"
        );
        assert!(speedup >= 0.9, "T={threads}: speedup {speedup}");
        prev = prev.max(speedup);
    }
    assert!(
        prev > 1.5,
        "parallelism never materialized: best speedup {prev}"
    );
}

#[test]
fn dynamic_beats_static_grid_on_work() {
    // The ablation of Sec. IV: a static pre-distributed grid processes
    // shifts whose intervals are already covered; the dynamic scheduler
    // deletes them. Compare total executed work at equal thread count.
    let ss = model();
    let opts = sweep();
    let dynamic = simulate_parallel(&ss, 8, &opts, ScheduleMode::Dynamic).unwrap();
    let n_static = (dynamic.shift_log.len() * 2).max(16);
    let static_grid = simulate_parallel(
        &ss,
        8,
        &opts,
        ScheduleMode::StaticGrid { n_shifts: n_static },
    )
    .unwrap();
    assert!(
        static_grid.total_cost > dynamic.total_cost,
        "static grid ({}) should cost more work than dynamic ({})",
        static_grid.total_cost,
        dynamic.total_cost
    );
    // Both still correct.
    assert_eq!(static_grid.frequencies.len(), dynamic.frequencies.len());
}

#[test]
fn seed_variation_preserves_results_but_not_work() {
    // The paper's Fig. 6 error bars: random Arnoldi start vectors change
    // the work profile, never the spectrum. Needs `2n > max_subspace`
    // (= 60): below that one Arnoldi pass spans the whole space and the
    // work is seed-independent by construction.
    let ss = generate_case(&CaseSpec::new(32, 3).with_seed(9).with_target_crossings(6))
        .unwrap()
        .realize();
    let mut costs = Vec::new();
    let mut counts = Vec::new();
    for seed in 0..3u64 {
        let opts = sweep().with_seed(seed);
        let sim = simulate_parallel(&ss, 8, &opts, ScheduleMode::Dynamic).unwrap();
        costs.push(sim.total_cost);
        counts.push(sim.frequencies.len());
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "spectrum changed with seed: {counts:?}"
    );
    assert!(
        costs.iter().any(|&c| c != costs[0]),
        "work should vary with the random start vectors: {costs:?}"
    );
}

#[test]
#[ignore = "paper-scale workload (~10 s debug); run with --ignored (CI slow-tests job)"]
fn all_modes_agree_on_omega_large() {
    assert_modes_agree(&model_large());
}

/// At `T = 1` the simulator's event order is the driver's pull order, so
/// it must replay `find_imaginary_eigenvalues` shift for shift, recycling
/// pool included.
fn assert_simulator_replays_the_driver(ss: &StateSpace) {
    for recycling in [true, false] {
        for seed in [0u64, 1] {
            let opts = SolverOptions::default()
                .with_recycling(recycling)
                .with_seed(seed);
            let real = find_imaginary_eigenvalues(ss, &opts).unwrap();
            let sim = simulate_parallel(ss, 1, &opts, ScheduleMode::Dynamic).unwrap();
            let tag = format!("recycling={recycling} seed={seed}");
            let key = |log: &[ShiftRecord]| -> Vec<_> {
                log.iter()
                    .map(|r| (r.omega, r.radius, r.matvecs, r.cost_units))
                    .collect()
            };
            assert!(!real.shift_log.is_empty(), "{tag}: the driver must sweep");
            assert_eq!(key(&sim.shift_log), key(&real.shift_log), "{tag}");
            assert_eq!(sim.stats.total_matvecs, real.stats.total_matvecs, "{tag}");
            assert_eq!(sim.frequencies, real.frequencies, "{tag}");
            assert_eq!(sim.covered_fraction, real.covered_fraction, "{tag}");
            assert_eq!(sim.makespan, sim.total_cost, "{tag}");
        }
    }
}

#[test]
fn simulator_replays_the_driver_at_one_thread() {
    // The n = 96 pin model of `tests/perf_pins.rs`: 2n = 192 sweeps under
    // the default `dense_max`.
    let ss = generate_case(&CaseSpec::new(96, 3).with_target_crossings(4).with_seed(7))
        .unwrap()
        .realize();
    assert_simulator_replays_the_driver(&ss);
}

#[test]
#[ignore = "n = 500 model (~10 s release); run with --release --ignored"]
fn simulator_replays_the_driver_at_one_thread_n500() {
    let ss = generate_case(
        &CaseSpec::new(500, 20)
            .with_target_crossings(6)
            .with_seed(1000),
    )
    .unwrap()
    .realize();
    assert_simulator_replays_the_driver(&ss);
}

#[test]
fn thread_oversubscription_is_safe() {
    // More threads than tentative shifts must not deadlock or change
    // results.
    let ss = generate_case(&CaseSpec::new(14, 2).with_seed(3).with_target_crossings(2))
        .unwrap()
        .realize();
    let serial = find_imaginary_eigenvalues(&ss, &sweep()).unwrap();
    let wide = find_imaginary_eigenvalues(&ss, &sweep().with_threads(16)).unwrap();
    assert_eq!(serial.frequencies.len(), wide.frequencies.len());
}
