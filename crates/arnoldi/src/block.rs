//! Batched multi-shift block solves.
//!
//! Runs the single-shift iteration for `k` nearby shifts *in lockstep*:
//! each lane advances its own restarted, deflated Arnoldi process
//! (byte-for-byte the serial algorithm, via
//! [`crate::single_shift::ShiftCore`]'s incremental stages), but the
//! operator applications of all lanes that are mid-build are gathered into
//! one batched [`BlockShiftOp::apply_block`] call per Krylov step. With
//! the Sherman–Morrison–Woodbury operator this sweeps the state-space
//! kernels (`C`/`B^T`/`B`/`C^T` and their gemv cores) once per superstep
//! across all right-hand sides instead of once per shift — the
//! memory-bound plane reads amortize over the block.
//!
//! Lanes are independent: per-lane RNG, per-lane workspace, per-lane
//! outcome. A lane finishing early (convergence, failure, cancellation)
//! simply drops out of subsequent supersteps; its result is reported
//! through `on_complete` immediately, so a scheduler can react (e.g.
//! cancel a sibling whose interval became covered) while the rest of the
//! block keeps running. Results are bitwise identical to running each
//! lane alone, regardless of block composition or thread count — pinned
//! by `block_sweep_matches_solo_iterations`.

use crate::error::ArnoldiError;
use crate::options::SingleShiftOptions;
use crate::recycle::RecycledPair;
use crate::single_shift::{ArnoldiWorkspace, ShiftCore, SingleShiftOutcome};
use pheig_hamiltonian::MultiShiftInvertOp;
use pheig_linalg::C64;

/// A batch of shift-inverted operators sharing one model: the operator
/// boundary the block driver runs against.
pub trait BlockShiftOp {
    /// Common operator dimension (`2n`).
    fn dim(&self) -> usize;
    /// Number of lanes (shifts) in the batch.
    fn lanes(&self) -> usize;
    /// The (possibly nudged) shift of a lane.
    fn theta(&self, lane: usize) -> C64;
    /// Maps a lane's operator eigenvalue back to a Hamiltonian eigenvalue.
    fn lane_map(&self, lane: usize, mu: C64) -> C64;
    /// Single-lane application `y = Op_lane x`.
    fn apply_lane(&self, lane: usize, x: &[C64], y: &mut [C64]);
    /// Batched application `ys[i] = Op_{lanes[i]} xs[i]`, bitwise identical
    /// per lane to [`Self::apply_lane`].
    fn apply_block(&self, lanes: &[usize], xs: &[&[C64]], ys: &mut [&mut [C64]]);
}

impl BlockShiftOp for MultiShiftInvertOp<'_> {
    fn dim(&self) -> usize {
        MultiShiftInvertOp::dim(self)
    }
    fn lanes(&self) -> usize {
        MultiShiftInvertOp::lanes(self)
    }
    fn theta(&self, lane: usize) -> C64 {
        MultiShiftInvertOp::theta(self, lane)
    }
    fn lane_map(&self, lane: usize, mu: C64) -> C64 {
        self.to_hamiltonian_eigenvalue(lane, mu)
    }
    fn apply_lane(&self, lane: usize, x: &[C64], y: &mut [C64]) {
        self.apply_lane_into(lane, x, y)
    }
    fn apply_block(&self, lanes: &[usize], xs: &[&[C64]], ys: &mut [&mut [C64]]) {
        self.apply_block_into(lanes, xs, ys)
    }
}

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

/// Advances one lane through warm-up/bookkeeping stages until it either
/// has an Arnoldi build open (`Ok(true)`), has nothing left to build
/// (`Ok(false)` — run the finish stage), or fails.
fn advance_lane(
    lane: usize,
    core: &mut ShiftCore<'_>,
    op: &dyn BlockShiftOp,
    should_cancel: &mut dyn FnMut(usize) -> bool,
) -> Result<bool, ArnoldiError> {
    loop {
        if should_cancel(lane) {
            return Err(ArnoldiError::Cancelled);
        }
        if !core.building() {
            return Ok(false);
        }
        if core.begin_round() {
            return Ok(true);
        }
        // Degenerate round (start inside the locked span): close it and
        // let `building()`/the verdict decide what happens next.
        let map = |mu: C64| op.lane_map(lane, mu);
        if !core.finish_round(&map)? {
            return Ok(false);
        }
    }
}

/// Runs the Rayleigh–Ritz refinement + radius certificate for a lane and
/// reports the outcome.
fn finish_lane(
    lane: usize,
    core: &mut ShiftCore<'_>,
    op: &dyn BlockShiftOp,
    on_complete: &mut dyn FnMut(usize, Result<SingleShiftOutcome, ArnoldiError>),
) {
    let mut apply = |x: &[C64], y: &mut [C64]| op.apply_lane(lane, x, y);
    let map = |mu: C64| op.lane_map(lane, mu);
    let res = core.finish(&mut apply, &map);
    on_complete(lane, res);
}

/// Runs the single-shift iteration for every lane of `op`, batching the
/// Krylov-step operator applications of concurrently-building lanes.
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
    op: &dyn BlockShiftOp,
    specs: &[BlockLaneSpec],
    workspaces: &mut [ArnoldiWorkspace],
    should_cancel: &mut dyn FnMut(usize) -> bool,
    on_complete: &mut dyn FnMut(usize, Result<SingleShiftOutcome, ArnoldiError>),
) {
    let k = specs.len();
    assert_eq!(k, op.lanes(), "one lane spec per operator lane required");
    assert!(workspaces.len() >= k, "one workspace per lane required");
    let n = op.dim();
    let mut cores: Vec<ShiftCore<'_>> = workspaces
        .iter_mut()
        .take(k)
        .enumerate()
        .map(|(l, ws)| {
            ShiftCore::new(
                n,
                op.theta(l),
                specs[l].rho0,
                specs[l].scale,
                &specs[l].opts,
                ws,
            )
        })
        .collect();
    let mut building: Vec<bool> = vec![false; k];
    // Warm validation + first build per lane (solo applies: these stages
    // are a handful of matvecs each; only the Krylov builds batch).
    for l in 0..k {
        let core = &mut cores[l];
        if !specs[l].warm.is_empty() {
            let mut apply = |x: &[C64], y: &mut [C64]| op.apply_lane(l, x, y);
            let map = |mu: C64| op.lane_map(l, mu);
            core.warm_init(&specs[l].warm, &mut apply, &map);
        }
        match advance_lane(l, core, op, should_cancel) {
            Ok(true) => building[l] = true,
            Ok(false) => finish_lane(l, core, op, on_complete),
            Err(e) => on_complete(l, Err(e)),
        }
    }
    // Lockstep supersteps: one batched apply per Krylov step across every
    // lane that is mid-build.
    let mut ids: Vec<usize> = Vec::with_capacity(k);
    loop {
        ids.clear();
        {
            let mut xs: Vec<&[C64]> = Vec::with_capacity(k);
            let mut ys: Vec<&mut [C64]> = Vec::with_capacity(k);
            for (l, core) in cores.iter_mut().enumerate() {
                if building[l] {
                    let (v, w) = core.io_mut();
                    ids.push(l);
                    xs.push(v);
                    ys.push(w);
                }
            }
            if ids.is_empty() {
                break;
            }
            op.apply_block(&ids, &xs, &mut ys);
        }
        for &l in &ids {
            cores[l].post_apply();
            if cores[l].absorb_step() {
                continue; // build continues next superstep
            }
            // Round complete: Ritz processing, then either open the next
            // round or finish the lane.
            let map = |mu: C64| op.lane_map(l, mu);
            let verdict = cores[l].finish_round(&map);
            building[l] = false;
            match verdict {
                Ok(true) => match advance_lane(l, &mut cores[l], op, should_cancel) {
                    Ok(true) => building[l] = true,
                    Ok(false) => finish_lane(l, &mut cores[l], op, on_complete),
                    Err(e) => on_complete(l, Err(e)),
                },
                Ok(false) => finish_lane(l, &mut cores[l], op, on_complete),
                Err(e) => on_complete(l, Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_shift::{build_shift_invert_op, single_shift_iteration_recycled_with};
    use pheig_model::generator::{generate_case, CaseSpec};

    #[test]
    fn block_sweep_matches_solo_iterations() {
        // Cold block lanes must reproduce the solo iteration bitwise:
        // same radii, same eigenvalues, same matvec counts.
        let model =
            generate_case(&CaseSpec::new(16, 2).with_seed(13).with_target_crossings(2)).unwrap();
        let ss = model.realize();
        let scale = 12.0;
        let omegas = [1.0, 2.2, 3.0, 4.4];
        let lane_ops: Vec<_> = omegas
            .iter()
            .map(|&w| build_shift_invert_op(&ss, w, scale).unwrap())
            .collect();
        let block = MultiShiftInvertOp::from_ops(lane_ops);
        let specs: Vec<BlockLaneSpec> = omegas
            .iter()
            .enumerate()
            .map(|(i, _)| BlockLaneSpec {
                rho0: 0.8,
                scale,
                opts: SingleShiftOptions::new().with_seed(7 + i as u64),
                warm: Vec::new(),
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
                &SingleShiftOptions::new().with_seed(7 + i as u64),
                &mut ArnoldiWorkspace::new(),
                &[],
            );
            let got = results[i].take().expect("lane completed");
            match (solo, got) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.radius, b.radius, "radius at omega {w}");
                    assert_eq!(a.matvecs, b.matvecs, "matvecs at omega {w}");
                    assert_eq!(a.restarts, b.restarts, "restarts at omega {w}");
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
        let model = generate_case(&CaseSpec::new(12, 2).with_seed(3)).unwrap();
        let ss = model.realize();
        let scale = 10.0;
        let omegas = [1.5, 2.5];
        let lane_ops: Vec<_> = omegas
            .iter()
            .map(|&w| build_shift_invert_op(&ss, w, scale).unwrap())
            .collect();
        let block = MultiShiftInvertOp::from_ops(lane_ops);
        let specs: Vec<BlockLaneSpec> = (0..2)
            .map(|i| BlockLaneSpec {
                rho0: 0.5,
                scale,
                opts: SingleShiftOptions::new().with_seed(i),
                warm: Vec::new(),
            })
            .collect();
        let mut workspaces = vec![ArnoldiWorkspace::new(), ArnoldiWorkspace::new()];
        let mut results: Vec<Option<Result<SingleShiftOutcome, ArnoldiError>>> = vec![None, None];
        block_shift_sweep(
            &block,
            &specs,
            &mut workspaces,
            &mut |l| l == 0,
            &mut |l, r| results[l] = Some(r),
        );
        assert!(matches!(results[0], Some(Err(ArnoldiError::Cancelled))));
        assert!(matches!(results[1], Some(Ok(_))));
    }
}
