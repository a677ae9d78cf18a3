//! A lane container for lockstep multi-shift solves.
//!
//! A [`MultiShiftInvertOp`] bundles `k` independent [`ShiftInvertOp`]s
//! over one shared [`StateSpace`]. Lanes share no kernel and no scratch:
//! every application, single-lane or block, is that lane's solo
//! [`ShiftInvertOp::apply_into`], so per-lane results are bitwise those
//! of the solo operator by construction.

use crate::error::HamiltonianError;
use crate::op::CLinearOp;
use crate::shift_invert::ShiftInvertOp;
use pheig_linalg::C64;
use pheig_model::StateSpace;

/// `k` shift-inverted Hamiltonian operators over one model:
/// `y_l = (M - theta_l I)^{-1} x_l` per lane.
///
/// Build it from per-shift operators (which the caller typically
/// constructs with its own singular-shift nudge policy) via
/// [`MultiShiftInvertOp::from_ops`].
#[derive(Debug)]
pub struct MultiShiftInvertOp<'a> {
    ops: Vec<ShiftInvertOp<'a>>,
}

impl<'a> MultiShiftInvertOp<'a> {
    /// Bundles per-shift operators into a block operator.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or the operators disagree on the model.
    pub fn from_ops(ops: Vec<ShiftInvertOp<'a>>) -> Self {
        assert!(!ops.is_empty(), "block operator needs at least one lane");
        let ss = ops[0].state_space();
        for op in &ops[1..] {
            assert!(
                std::ptr::eq(op.state_space(), ss),
                "block lanes must share one state space"
            );
        }
        MultiShiftInvertOp { ops }
    }

    /// Builds the block operator for `thetas` directly.
    ///
    /// # Errors
    ///
    /// Fails like [`ShiftInvertOp::new`] on the first offending shift
    /// (callers that need per-lane nudging should build the lanes
    /// themselves and use [`MultiShiftInvertOp::from_ops`]).
    pub fn new(ss: &'a StateSpace, thetas: &[C64]) -> Result<Self, HamiltonianError> {
        let ops = thetas
            .iter()
            .map(|&theta| ShiftInvertOp::new(ss, theta))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_ops(ops))
    }

    /// Operator dimension `2n` (shared by every lane).
    pub fn dim(&self) -> usize {
        self.ops[0].dim()
    }

    /// Number of lanes `k`.
    pub fn lanes(&self) -> usize {
        self.ops.len()
    }

    /// The shift of lane `l`.
    pub fn theta(&self, l: usize) -> C64 {
        self.ops[l].theta()
    }

    /// Lane `l`'s eigenvalue map `mu -> theta_l + 1/mu`.
    pub fn to_hamiltonian_eigenvalue(&self, l: usize, mu: C64) -> C64 {
        self.ops[l].to_hamiltonian_eigenvalue(mu)
    }

    /// Lane `l`'s solo apply.
    pub fn apply_lane_into(&self, l: usize, x: &[C64], y: &mut [C64]) {
        self.ops[l].apply_into(x, y);
    }

    /// Block apply: `ys[i] = (M - theta_{lanes[i]} I)^{-1} xs[i]`.
    ///
    /// `lanes` selects which shift each slot uses (any subset of the
    /// lanes, in any order); `xs`/`ys` are parallel to `lanes`. Zero
    /// steady-state heap allocations.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length, a lane index is out of
    /// range, or a vector has the wrong dimension.
    pub fn apply_block_into(&self, lanes: &[usize], xs: &[&[C64]], ys: &mut [&mut [C64]]) {
        let dim = self.dim();
        assert_eq!(xs.len(), lanes.len(), "block apply slot mismatch");
        assert_eq!(ys.len(), lanes.len(), "block apply slot mismatch");
        for (i, &l) in lanes.iter().enumerate() {
            assert!(l < self.ops.len(), "lane index out of range");
            assert_eq!(xs[i].len(), dim, "block apply length mismatch");
            assert_eq!(ys[i].len(), dim, "block apply output mismatch");
        }
        for (i, &l) in lanes.iter().enumerate() {
            self.ops[l].apply_into(xs[i], ys[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pheig_model::generator::{generate_case, CaseSpec};

    fn test_vec(n: usize, seed: u64) -> Vec<C64> {
        (0..n)
            .map(|i| {
                let t = (i as f64 + 1.0) * (0.37 + seed as f64 * 0.11);
                C64::new(t.sin(), (t * 1.7).cos())
            })
            .collect()
    }

    #[test]
    fn block_apply_is_bitwise_identical_to_solo_lanes() {
        let ss = generate_case(&CaseSpec::new(14, 3).with_seed(9))
            .unwrap()
            .realize();
        let thetas = [
            C64::from_imag(0.7),
            C64::from_imag(1.9),
            C64::from_imag(3.2),
            C64::from_imag(5.5),
        ];
        let block = MultiShiftInvertOp::new(&ss, &thetas).unwrap();
        assert_eq!(block.lanes(), 4);
        let xs: Vec<Vec<C64>> = (0..4).map(|l| test_vec(block.dim(), l as u64)).collect();
        // All lanes at once.
        let mut ys: Vec<Vec<C64>> = vec![vec![C64::zero(); block.dim()]; 4];
        {
            let xrefs: Vec<&[C64]> = xs.iter().map(|v| v.as_slice()).collect();
            let mut yrefs: Vec<&mut [C64]> = ys.iter_mut().map(|v| v.as_mut_slice()).collect();
            block.apply_block_into(&[0, 1, 2, 3], &xrefs, &mut yrefs);
        }
        for (l, (x, y)) in xs.iter().zip(&ys).enumerate() {
            let solo = ShiftInvertOp::new(&ss, thetas[l]).unwrap();
            let want = solo.apply(x);
            assert_eq!(y, &want, "lane {l} differs from solo apply");
            // The lane-apply path must agree bitwise too.
            let mut via_lane = vec![C64::zero(); block.dim()];
            block.apply_lane_into(l, x, &mut via_lane);
            assert_eq!(&via_lane, &want, "lane {l} apply_lane_into differs");
        }
        // A partial, reordered subset of lanes must be unaffected by the
        // missing lanes (each slot is independent).
        let mut ys2: Vec<Vec<C64>> = vec![vec![C64::zero(); block.dim()]; 2];
        {
            let xrefs: Vec<&[C64]> = vec![&xs[3], &xs[1]];
            let mut yrefs: Vec<&mut [C64]> = ys2.iter_mut().map(|v| v.as_mut_slice()).collect();
            block.apply_block_into(&[3, 1], &xrefs, &mut yrefs);
        }
        assert_eq!(&ys2[0], &ys[3], "subset lane 3 differs");
        assert_eq!(&ys2[1], &ys[1], "subset lane 1 differs");
    }

    #[test]
    fn eigenvalue_maps_match_lane_operators() {
        let ss = generate_case(&CaseSpec::new(8, 2).with_seed(3))
            .unwrap()
            .realize();
        let thetas = [C64::from_imag(1.0), C64::from_imag(2.5)];
        let block = MultiShiftInvertOp::new(&ss, &thetas).unwrap();
        let mu = C64::new(0.4, -0.8);
        for (l, &theta) in thetas.iter().enumerate() {
            assert_eq!(block.theta(l), theta);
            assert_eq!(block.to_hamiltonian_eigenvalue(l, mu), theta + mu.recip());
        }
    }
}
