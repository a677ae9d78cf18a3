//! Lockstep multi-shift block solves.
//!
//! Runs the single-shift iteration for `k` nearby shifts *in lockstep*:
//! each lane is an independent single-shift state machine (the same
//! `start`/`step` entry the solo drivers loop over), and the block driver
//! steps the live lanes round-robin, one Krylov-step operator application
//! per lane per superstep. A block is therefore a *schedule* — which
//! shifts are pulled together and in what order their lanes complete —
//! not a kernel: lanes share no arithmetic, no scratch and no operator
//! state.
//!
//! Per-lane RNG, per-lane workspace, per-lane outcome. A lane finishing
//! early (convergence, failure, cancellation) simply drops out of
//! subsequent supersteps; its result is reported through `on_complete`
//! immediately, so a scheduler can react (e.g. cancel a sibling whose
//! interval became covered) while the rest of the block keeps running.
//! Results are bitwise identical to running each lane alone, regardless
//! of block composition or thread count — pinned by
//! `block_sweep_matches_solo_iterations`.

use crate::error::ArnoldiError;
use crate::options::SingleShiftOptions;
use crate::recycle::RecycledPair;
use crate::single_shift::{ArnoldiWorkspace, ShiftCore, SingleShiftOutcome};
use pheig_hamiltonian::MultiShiftInvertOp;
use pheig_linalg::C64;

/// Per-lane configuration of a block sweep.
#[derive(Debug, Clone)]
pub struct BlockLaneSpec {
    /// Initial radius guess for the lane's shift.
    pub rho0: f64,
    /// Problem scale the lane's tolerances are relative to.
    pub scale: f64,
    /// Iteration options (carry the lane's own seed).
    pub opts: SingleShiftOptions,
    /// Recycled warm-start candidates (empty for a cold lane).
    pub warm: Vec<RecycledPair>,
}

/// Runs the single-shift iteration for every lane of `op`, stepping the
/// live lanes round-robin in lane order.
///
/// `specs[l]` configures lane `l`; `workspaces[l]` provides its scratch.
/// `should_cancel(l)` is polled at lane round boundaries — returning
/// `true` aborts that lane with [`ArnoldiError::Cancelled`].
/// `on_complete(l, result)` fires exactly once per lane, as soon as that
/// lane's outcome is known (other lanes may still be running).
///
/// # Panics
///
/// Panics if `specs.len() != op.lanes()` or fewer workspaces than lanes
/// are supplied.
pub fn block_shift_sweep(
    op: &MultiShiftInvertOp<'_>,
    specs: &[BlockLaneSpec],
    workspaces: &mut [ArnoldiWorkspace],
    should_cancel: &mut dyn FnMut(usize) -> bool,
    on_complete: &mut dyn FnMut(usize, Result<SingleShiftOutcome, ArnoldiError>),
) {
    let k = specs.len();
    assert_eq!(k, op.lanes(), "one lane spec per operator lane required");
    assert!(workspaces.len() >= k, "one workspace per lane required");
    let n = op.dim();
    // Lanes never run concurrently and a round scratch holds nothing
    // between calls, so one serves the whole block: lane 0's, handed back
    // (still warm) when the block is done.
    let mut round = workspaces
        .first_mut()
        .map(|ws| std::mem::take(ws.round_mut()))
        .unwrap_or_default();
    let mut cores: Vec<ShiftCore<'_>> = workspaces
        .iter_mut()
        .zip(specs)
        .enumerate()
        .map(|(l, (ws, spec))| {
            ShiftCore::new(n, op.theta(l), spec.rho0, spec.scale, &spec.opts, ws)
        })
        .collect();
    // The first pass starts every lane (warm validation + first round);
    // each later pass is one superstep. Within a pass lanes run in index
    // order, and a lane's bookkeeping — round close, cancel poll,
    // `on_complete` — finishes before the next lane is touched. Operator
    // applications read neither the sweep control nor the scheduler, so
    // where lane `l + 1`'s apply falls relative to lane `l`'s bookkeeping
    // is unobservable.
    let mut live: Vec<usize> = (0..k).collect();
    let mut started = false;
    while !live.is_empty() {
        live.retain(|&l| {
            let mut apply = |x: &[C64], y: &mut [C64]| op.apply_lane_into(l, x, y);
            let map = |mu: C64| op.to_hamiltonian_eigenvalue(l, mu);
            let mut cancelled = || should_cancel(l);
            let done = cores[l].with_round(&mut round, |core| {
                if started {
                    core.step(&mut apply, &map, &mut cancelled)
                } else {
                    core.start(&specs[l].warm, &mut apply, &map, &mut cancelled)
                }
            });
            match done {
                Some(outcome) => {
                    on_complete(l, outcome);
                    false
                }
                None => true,
            }
        });
        started = true;
    }
    drop(cores);
    if let Some(ws) = workspaces.first_mut() {
        *ws.round_mut() = round;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recycle::RecyclePool;
    use crate::single_shift::{build_shift_invert_op, single_shift_iteration_recycled_with};
    use pheig_model::generator::{generate_case, CaseSpec};

    #[test]
    fn block_sweep_matches_solo_iterations() {
        // Block lanes — cold and warm — must reproduce the solo iteration
        // bitwise: same radii, same eigenpairs, same work counts.
        let model =
            generate_case(&CaseSpec::new(16, 2).with_seed(13).with_target_crossings(2)).unwrap();
        let ss = model.realize();
        let scale = 12.0;
        let omegas = [1.0, 2.2, 3.0, 4.4];
        let lane_opts = |i: usize| SingleShiftOptions::new().with_seed(7 + i as u64);
        // The two middle lanes start warm from a completed neighbor's disk.
        let donor = single_shift_iteration_recycled_with(
            &ss,
            2.6,
            1.0,
            scale,
            &SingleShiftOptions::new().with_seed(5),
            &mut ArnoldiWorkspace::new(),
            &[],
        )
        .unwrap();
        let mut pool = RecyclePool::new();
        pool.record(2.6, &donor);
        let warms: Vec<Vec<RecycledPair>> = omegas
            .iter()
            .enumerate()
            .map(|(i, &w)| match i {
                1 | 2 => pool.gather(C64::from_imag(w), 2.0, 8),
                _ => Vec::new(),
            })
            .collect();
        assert!(!warms[1].is_empty() && !warms[2].is_empty());
        let lane_ops: Vec<_> = omegas
            .iter()
            .map(|&w| build_shift_invert_op(&ss, w, scale).unwrap())
            .collect();
        let block = MultiShiftInvertOp::from_ops(lane_ops);
        let specs: Vec<BlockLaneSpec> = warms
            .iter()
            .enumerate()
            .map(|(i, warm)| BlockLaneSpec {
                rho0: 0.8,
                scale,
                opts: lane_opts(i),
                warm: warm.clone(),
            })
            .collect();
        let mut workspaces: Vec<ArnoldiWorkspace> =
            (0..specs.len()).map(|_| ArnoldiWorkspace::new()).collect();
        let mut results: Vec<Option<Result<SingleShiftOutcome, ArnoldiError>>> =
            (0..specs.len()).map(|_| None).collect();
        block_shift_sweep(
            &block,
            &specs,
            &mut workspaces,
            &mut |_| false,
            &mut |l, r| results[l] = Some(r),
        );
        for (i, &w) in omegas.iter().enumerate() {
            let solo = single_shift_iteration_recycled_with(
                &ss,
                w,
                0.8,
                scale,
                &lane_opts(i),
                &mut ArnoldiWorkspace::new(),
                &warms[i],
            );
            let got = results[i].take().expect("lane completed");
            match (solo, got) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.radius, b.radius, "radius at omega {w}");
                    assert_eq!(a.matvecs, b.matvecs, "matvecs at omega {w}");
                    assert_eq!(a.restarts, b.restarts, "restarts at omega {w}");
                    assert_eq!(a.warm_pre_locked, b.warm_pre_locked, "omega {w}");
                    assert_eq!(
                        b.warm_pre_locked > 0,
                        !warms[i].is_empty(),
                        "warm lanes pre-lock, cold lanes do not (omega {w})"
                    );
                    assert_eq!(a.in_disk.len(), b.in_disk.len());
                    for (x, y) in a.in_disk.iter().zip(&b.in_disk) {
                        assert_eq!(x.lambda, y.lambda, "lambda at omega {w}");
                        assert_eq!(x.vector, y.vector, "vector at omega {w}");
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("solo/block disagree at omega {w}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn cancelled_lane_reports_cancellation_and_others_finish() {
        // Lane 0 is cancelled before it starts, lane 2 at its second poll
        // (the boundary after its first round); lane 1 runs to the end.
        let model = generate_case(&CaseSpec::new(12, 2).with_seed(3)).unwrap();
        let ss = model.realize();
        let scale = 10.0;
        let omegas = [1.5, 2.5, 3.5];
        let lane_ops: Vec<_> = omegas
            .iter()
            .map(|&w| build_shift_invert_op(&ss, w, scale).unwrap())
            .collect();
        let block = MultiShiftInvertOp::from_ops(lane_ops);
        let specs: Vec<BlockLaneSpec> = (0..3)
            .map(|i| BlockLaneSpec {
                rho0: 0.5,
                scale,
                opts: SingleShiftOptions::new().with_seed(i),
                warm: Vec::new(),
            })
            .collect();
        let mut workspaces: Vec<ArnoldiWorkspace> =
            (0..3).map(|_| ArnoldiWorkspace::new()).collect();
        let mut results: Vec<Option<Result<SingleShiftOutcome, ArnoldiError>>> =
            vec![None, None, None];
        let mut polls = [0usize; 3];
        block_shift_sweep(
            &block,
            &specs,
            &mut workspaces,
            &mut |l| {
                polls[l] += 1;
                l == 0 || (l == 2 && polls[2] == 2)
            },
            &mut |l, r| results[l] = Some(r),
        );
        assert!(matches!(results[0], Some(Err(ArnoldiError::Cancelled))));
        assert!(matches!(results[1], Some(Ok(_))));
        assert!(matches!(results[2], Some(Err(ArnoldiError::Cancelled))));
        assert_eq!((polls[0], polls[2]), (1, 2));
    }
}
