//! Restarted, deflated, shift-and-invert Arnoldi eigensolver.
//!
//! Implements the paper's *single-shift iteration* (Sec. III):
//!
//! ```text
//! ({lambda_k}, rho) <- S(theta, rho0)
//! ```
//!
//! Given a shift `theta = j omega` and an initial radius guess `rho0`, the
//! iteration runs a Krylov process on the Sherman–Morrison–Woodbury
//! shift-inverted Hamiltonian operator, with explicit restarts and
//! incremental deflation (converged Ritz vectors are locked and projected
//! out of subsequent restarts). It returns every Hamiltonian eigenvalue
//! inside a certified disk `C(theta, rho)` together with the final radius.
//!
//! * [`krylov`] — the Arnoldi factorization with blocked CGS2 (classical
//!   Gram–Schmidt plus one unconditional re-orthogonalization pass, both
//!   batched over split-complex planes) and locked-vector deflation;
//! * [`ritz`] — Ritz pair extraction (Hessenberg-aware) and residual
//!   estimates;
//! * [`single_shift`] — the restarted driver with the paper's radius
//!   update logic;
//! * [`options`] — tuning knobs (subspace size `d = 60`, eigenvalues per
//!   shift `n_theta = 5`, tolerances), matching the paper's choices.

pub mod control;
pub mod error;
pub mod krylov;
pub mod options;
pub mod recycle;
pub mod ritz;
pub mod single_shift;

pub use control::{CancelToken, FaultPlan, SweepControl};
pub use error::ArnoldiError;
pub use options::SingleShiftOptions;
pub use recycle::{RecyclePool, RecycledPair};
pub use single_shift::{
    build_shift_invert_op, single_shift_iteration_recycled_with, ArnoldiWorkspace,
    ConvergedEigenpair, SingleShiftOutcome,
};
