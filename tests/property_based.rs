//! Property-based tests on the public API: random macromodels generated by
//! proptest strategies must satisfy structural invariants of the
//! realization, the transfer evaluation, and the Hamiltonian machinery —
//! and the multi-shift scheduler must keep its coverage invariant under
//! arbitrary bands, interval counts, worker counts, and completion orders.

use pheig::core::pipeline::{run_batch, PassiveModel};
use pheig::core::scheduler::{Scheduler, ShiftTask};
use pheig::core::solver::{find_imaginary_eigenvalues, SolverOptions};
use pheig::hamiltonian::{dense_hamiltonian, CLinearOp, HamiltonianOp, ShiftInvertOp};
use pheig::linalg::{Matrix, C64};
use pheig::model::generator::{generate_case, CaseSpec};
use pheig::model::{ColumnTerms, FrequencySamples, Pole, PoleResidueModel, Residue};
use pheig::{Pipeline, PipelineOptions};
use proptest::prelude::*;

/// Strategy: a stable pole.
fn pole_strategy() -> impl Strategy<Value = Pole> {
    prop_oneof![
        (-8.0f64..-0.05).prop_map(Pole::Real),
        ((-2.0f64..-0.01), (0.3f64..9.0)).prop_map(|(re, im)| Pole::Pair { re, im }),
    ]
}

/// Strategy: a residue matching a pole kind, for `p` ports.
fn column_strategy(p: usize) -> impl Strategy<Value = ColumnTerms> {
    prop::collection::vec(pole_strategy(), 1..4)
        .prop_flat_map(move |poles| {
            let res_strats: Vec<_> = poles
                .iter()
                .map(|pole| match pole {
                    Pole::Real(_) => prop::collection::vec(-0.4f64..0.4, p)
                        .prop_map(Residue::Real)
                        .boxed(),
                    Pole::Pair { .. } => prop::collection::vec((-0.4f64..0.4, -0.4f64..0.4), p)
                        .prop_map(|v| {
                            Residue::Complex(v.into_iter().map(|(a, b)| C64::new(a, b)).collect())
                        })
                        .boxed(),
                })
                .collect();
            (Just(poles), res_strats)
        })
        .prop_map(|(poles, residues)| ColumnTerms { poles, residues })
}

/// Strategy: a full model with `p` ports and contractive D.
fn model_strategy(p: usize) -> impl Strategy<Value = PoleResidueModel> {
    (
        prop::collection::vec(column_strategy(p), p..=p),
        prop::collection::vec(-0.2f64..0.2, p * p),
    )
        .prop_map(move |(columns, d_entries)| {
            let d = Matrix::from_vec(p, p, d_entries).expect("sized by construction");
            PoleResidueModel::new(columns, d).expect("strategy builds valid models")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The realization's transfer function equals the pole-residue sum at
    /// arbitrary frequencies.
    #[test]
    fn realization_matches_eval(model in model_strategy(2), omega in 0.0f64..20.0) {
        let ss = model.realize();
        let s = C64::from_imag(omega);
        let a = model.eval(s);
        let b = ss.transfer(s);
        prop_assert!((&a - &b).max_abs() < 1e-9 * (1.0 + a.max_abs()));
    }

    /// Real-coefficient models have conjugate-symmetric responses.
    #[test]
    fn transfer_is_conjugate_symmetric(model in model_strategy(2), omega in 0.0f64..15.0) {
        let h_pos = model.eval(C64::from_imag(omega));
        let h_neg = model.eval(C64::from_imag(-omega));
        for i in 0..2 {
            for j in 0..2 {
                prop_assert!((h_pos[(i, j)].conj() - h_neg[(i, j)]).abs() < 1e-10);
            }
        }
    }

    /// The structured Hamiltonian matvec agrees with the dense assembly.
    #[test]
    fn hamiltonian_op_matches_dense(model in model_strategy(2), seed in 0u64..1000) {
        let ss = model.realize();
        let dense = dense_hamiltonian(&ss).unwrap().to_c64();
        let op = HamiltonianOp::new(&ss).unwrap();
        let n2 = op.dim();
        let x: Vec<C64> = (0..n2)
            .map(|i| {
                let t = (i as f64 + 1.0) * (seed as f64 + 0.7);
                C64::new((t * 0.37).sin(), (t * 0.73).cos())
            })
            .collect();
        let fast = op.apply(&x);
        let slow = dense.matvec(&x);
        let scale = dense.max_abs().max(1.0);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-9 * scale);
        }
    }

    /// The SMW shift-invert operator inverts the shifted Hamiltonian.
    #[test]
    fn shift_invert_is_an_inverse(model in model_strategy(2), omega in 0.05f64..12.0) {
        let ss = model.realize();
        let theta = C64::from_imag(omega);
        let si = match ShiftInvertOp::new(&ss, theta) {
            Ok(op) => op,
            // The random shift can land on an eigenvalue; that is a
            // documented, recoverable condition - skip such draws.
            Err(pheig::hamiltonian::HamiltonianError::ShiftSingular { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(e.to_string())),
        };
        let m_op = HamiltonianOp::new(&ss).unwrap();
        let n2 = si.dim();
        let x: Vec<C64> = (0..n2).map(|i| C64::new((i as f64).sin(), 0.5)).collect();
        let y = si.apply(&x);
        let my = m_op.apply(&y);
        let xnorm = pheig::linalg::vector::nrm2(&x);
        let mut resid = 0.0f64;
        for i in 0..n2 {
            resid = resid.max((my[i] - y[i] * theta - x[i]).abs());
        }
        prop_assert!(resid < 1e-6 * xnorm.max(1.0), "residual {resid}");
    }

    /// Scheduler invariant (DESIGN.md, Eqs. (24)–(28)): for random bands,
    /// kappa, and worker counts T, with pseudo-random certified radii,
    /// off-center disks, and completion orders, the explicit-uncovered-set
    /// bookkeeping maintains "every uncovered point lies in a tentative or
    /// in-flight interval" at every transition, and termination implies
    /// the certified disks cover the whole band with no in-flight or
    /// tentative shifts left.
    #[test]
    fn scheduler_termination_implies_band_coverage(
        lo in 0.0f64..5.0,
        len in 0.1f64..50.0,
        kappa in 2usize..6,
        threads in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let band = (lo, lo + len);
        let n_intervals = (kappa * threads).max(4);
        let mut scheduler = Scheduler::new(band, n_intervals, 1.05);
        prop_assert!(scheduler.coverage_invariant_holds());

        // Deterministic LCG so failures replay from the proptest seed.
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 // uniform in [0, 1)
        };

        // T virtual workers: up to `threads` shifts in flight; completion
        // order is random, radii are random fractions of the request, and
        // centers are nudged off the requested shift (as real workers do).
        let mut in_flight: Vec<ShiftTask> = Vec::new();
        let mut disks: Vec<(f64, f64)> = Vec::new();
        let mut steps = 0usize;
        loop {
            while in_flight.len() < threads {
                match scheduler.next_shift() {
                    Some(task) => in_flight.push(task),
                    None => break,
                }
            }
            let Some(pick) = in_flight.len().checked_sub(1) else { break };
            let pick = (next() * (pick + 1) as f64) as usize;
            let task = in_flight.swap_remove(pick);
            let radius = task.rho0 * (0.25 + 1.0 * next());
            let center = task.omega + task.rho0 * 0.05 * (next() - 0.5);
            scheduler.complete(&task, center, radius);
            disks.push((center - radius, center + radius));
            prop_assert!(scheduler.coverage_invariant_holds(), "invariant broken at step {steps}");
            steps += 1;
            prop_assert!(steps < 20_000, "scheduler failed to terminate");
        }

        // Termination: nothing tentative, nothing in flight, and the
        // uncovered set is empty up to the accepted-by-fiat slivers.
        prop_assert!(scheduler.is_done());
        prop_assert_eq!(scheduler.tentative_count(), 0);
        prop_assert_eq!(scheduler.in_flight_count(), 0);
        prop_assert!(scheduler.uncovered_length() <= scheduler.dropped_length() + 1e-9 * len);
        prop_assert_eq!(scheduler.stats().processed, steps);

        // The certified disks themselves cover the band (sweep-line over
        // the disk union), up to the dropped slivers.
        disks.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let slack = scheduler.dropped_length() + 1e-9 * len;
        let mut covered_up_to = band.0;
        let mut gap = 0.0f64;
        for (dlo, dhi) in disks {
            if dlo > covered_up_to {
                gap += dlo - covered_up_to;
                covered_up_to = dlo;
            }
            covered_up_to = covered_up_to.max(dhi);
        }
        gap += (band.1 - covered_up_to).max(0.0);
        prop_assert!(gap <= slack, "disks leave {gap} uncovered (allowed {slack})");
    }

    /// Hamiltonian spectra are symmetric under negation (quadruple
    /// structure), verified through the dense oracle.
    #[test]
    fn spectrum_negation_symmetry(model in model_strategy(2)) {
        let ss = model.realize();
        let m = dense_hamiltonian(&ss).unwrap();
        let eigs = pheig::linalg::eig::eig_real(&m).unwrap();
        let scale = m.max_abs().max(1.0);
        for z in &eigs {
            let has_neg = eigs.iter().any(|w| (*w + *z).abs() < 1e-6 * scale);
            prop_assert!(has_neg, "missing -lambda for {z}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Krylov recycling is an acceleration, never an answer change: warm
    /// and cold sweeps of the same model must report the same crossing set,
    /// and both runs' certified disks must cover the search band. The warm
    /// run may use different shifts (its certificates extend past donated
    /// shells), but the *verdict* — which frequencies cross — is pinned to
    /// the cold one.
    #[test]
    fn warm_and_cold_sweeps_agree_on_crossings(
        n in 4usize..14,
        seed in 0u64..400,
        target in 0usize..4,
    ) {
        let ss = generate_case(
            &CaseSpec::new(2 * n, 2).with_seed(seed).with_target_crossings(target),
        )
        .unwrap()
        .realize();
        // These orders sit below the dense crossover; the sweep is what is
        // under test, so both runs keep it.
        let sweep = SolverOptions::default().with_dense_max(0);
        let cold = find_imaginary_eigenvalues(&ss, &sweep.clone().with_recycling(false)).unwrap();
        let warm = find_imaginary_eigenvalues(&ss, &sweep.with_recycling(true)).unwrap();
        // The cold path must not touch the pool at all.
        prop_assert_eq!(cold.stats.recycle_candidates, 0);
        prop_assert_eq!(cold.stats.warm_started_shifts, 0);
        prop_assert!(warm.stats.recycle_hits <= warm.stats.recycle_candidates);
        let tol = 1e-6 * cold.band.1.max(1.0);
        pheig_fuzz::oracle::match_crossings(&warm.frequencies, &cold.frequencies, tol)
            .map_err(|e| TestCaseError::fail(format!("warm vs cold: {e}")))?;
        for (label, out) in [("cold", &cold), ("warm", &warm)] {
            pheig_fuzz::oracle::disks_cover_band(out.certificate, &out.shift_log, out.band)
                .map_err(|e| TestCaseError::fail(format!("{label} coverage: {e}")))?;
        }
    }
}

proptest! {
    // Pipeline runs are expensive in debug; two cases of ~6 jobs across
    // four execution paths is the tier-1 budget.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Batch pipeline results are **bitwise identical** for every thread
    /// count, including the oversubscription regime (more jobs than
    /// cohort members, more members than physical cores): jobs are
    /// independent and executor workspace reuse must never leak into
    /// results, so `threads ∈ {1, 2, 4}` and the plain per-job sequential
    /// path have to agree bit for bit.
    #[test]
    fn batch_results_bitwise_identical_across_thread_counts(
        seed in 0u64..500,
        jobs in 5usize..8,
    ) {
        let mut batch = Vec::new();
        for k in 0..jobs {
            let model = generate_case(
                &CaseSpec::new(8, 2).with_seed(seed + k as u64).with_target_crossings(0),
            )
            .unwrap();
            let samples = FrequencySamples::from_model(&model, 0.01, 10.0, 90).unwrap();
            batch.push(Pipeline::from_samples(samples));
        }
        // The sweep's executor cohorts are what could leak across jobs; the
        // dense path's determinism is `tests/dense_dispatch.rs`'s.
        let mut opts = PipelineOptions::default();
        opts.solver.dense_max = 0;

        // Reference: the sequential path, one job at a time.
        let reference: Vec<PassiveModel> =
            batch.iter().map(|job| job.run(&opts).unwrap()).collect();

        let bits = |m: &PassiveModel| -> Vec<u64> {
            // Every f64 the pipeline reports as a result: the enforced
            // residue matrix, the located crossings, and the fit errors.
            let c = m.state_space.c();
            let mut out: Vec<u64> = (0..c.rows())
                .flat_map(|i| c.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                .collect();
            out.extend(m.report.sweep.shift_log.iter().map(|r| r.omega.to_bits()));
            out.push(m.report.fit.rms_error.to_bits());
            out.push(m.report.fit.max_error.to_bits());
            out
        };
        let want: Vec<Vec<u64>> = reference.iter().map(bits).collect();

        for threads in [1usize, 2, 4] {
            let got = run_batch(&batch, &opts, threads);
            prop_assert_eq!(got.len(), reference.len());
            for (slot, (result, expected)) in got.iter().zip(&want).enumerate() {
                let model = result.as_ref().expect("batch job succeeded");
                prop_assert!(
                    &bits(model) == expected,
                    "job {slot} diverged from the sequential path at T = {threads}"
                );
            }
        }
    }
}
