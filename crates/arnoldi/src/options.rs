//! Tuning options for the single-shift iteration.

use crate::control::SweepControl;

/// Options for [`crate::single_shift_iteration_recycled_with`].
///
/// Defaults match the paper: Krylov subspace capped at `d = 60`, a small
/// number `n_theta = 5` of eigenvalues per shift ("typically 4–6",
/// Sec. III), and explicit restarts with random start vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleShiftOptions {
    /// Maximum Krylov subspace dimension `d` per restart.
    pub max_subspace: usize,
    /// Number of eigenvalues sought per shift, `n_theta`.
    pub n_eigs: usize,
    /// Relative eigenvalue tolerance: a Ritz pair is accepted when its
    /// mapped eigenvalue error estimate is below `tol * scale`, where
    /// `scale` is the band magnitude supplied by the driver.
    pub tol: f64,
    /// Maximum number of explicit restarts before giving up.
    pub max_restarts: usize,
    /// Seed for the random start vectors (the paper draws them randomly;
    /// statistics over seeds reproduce its Fig. 6 error bars).
    pub seed: u64,
    /// Cooperative control plane: cancellation, shared work budget, and
    /// fault fire-points. Inert by default (zero overhead; see
    /// [`crate::control`]).
    pub control: SweepControl,
}

impl SingleShiftOptions {
    /// Paper-default options.
    pub fn new() -> Self {
        SingleShiftOptions {
            max_subspace: 60,
            n_eigs: 5,
            tol: 1e-9,
            max_restarts: 24,
            seed: 0,
            control: SweepControl::none(),
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of eigenvalues per shift.
    pub fn with_n_eigs(mut self, n_eigs: usize) -> Self {
        self.n_eigs = n_eigs;
        self
    }

    /// Sets the subspace cap.
    pub fn with_max_subspace(mut self, d: usize) -> Self {
        self.max_subspace = d;
        self
    }

    /// Attaches a control plane (cancellation, budgets, fault hooks).
    pub fn with_control(mut self, control: SweepControl) -> Self {
        self.control = control;
        self
    }
}

impl Default for SingleShiftOptions {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = SingleShiftOptions::default();
        assert_eq!(o.max_subspace, 60);
        assert!(o.n_eigs >= 4 && o.n_eigs <= 6);
    }

    #[test]
    fn builders() {
        let o = SingleShiftOptions::new()
            .with_seed(9)
            .with_n_eigs(4)
            .with_max_subspace(40);
        assert_eq!(o.seed, 9);
        assert_eq!(o.n_eigs, 4);
        assert_eq!(o.max_subspace, 40);
    }
}
