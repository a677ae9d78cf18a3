//! Hamiltonian matrices of scattering-representation macromodels.
//!
//! For a strictly stable model `H(s) = D + C (sI - A)^{-1} B` with
//! `sigma_max(D) < 1`, the Hamiltonian matrix (paper Eq. (5))
//!
//! ```text
//!     M = [ A - B R^{-1} D^T C        -B R^{-1} B^T              ]
//!         [ C^T S^{-1} C              -A^T + C^T D R^{-1} B^T    ]
//! ```
//!
//! with `R = D^T D - I`, `S = D D^T - I`, has a purely imaginary eigenvalue
//! `j omega` exactly where a singular value of `H(j omega)` crosses or
//! touches 1. This crate provides:
//!
//! * [`build::dense_hamiltonian`] — the explicit `2n x 2n` matrix (for the
//!   `O(n^3)` baseline and for validation);
//! * [`matvec::HamiltonianOp`] — `y = M x` in `O(np)` using the structured
//!   realization;
//! * [`shift_invert::ShiftInvertOp`] — `y = (M - theta I)^{-1} x` in `O(np)`
//!   per application after an `O(np + p^3)` per-shift setup, via the
//!   Sherman–Morrison–Woodbury identity (paper Eq. (6));
//! * [`multi_shift::MultiShiftInvertOp`] — a block of those over one
//!   model, kept only for a benchmark probe;
//! * [`op::CLinearOp`] — the operator contract the Arnoldi machinery
//!   consumes, and [`scratch`] — the operators' apply workspaces.
//!
//! Y and Z (immittance) models reach this crate in scattering form: the
//! Touchstone reader converts them with the reference resistance.

// Unsafe code in this crate must discharge obligations explicitly:
// every unsafe operation inside an `unsafe fn` needs its own block (and
// `// SAFETY:` comment — enforced by `pheig-verify`'s audit binary).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod build;
pub mod error;
pub mod matvec;
pub mod multi_shift;
pub mod op;
pub mod scratch;
pub mod shift_invert;

pub use build::dense_hamiltonian;
pub use error::HamiltonianError;
pub use matvec::HamiltonianOp;
pub use multi_shift::MultiShiftInvertOp;
pub use op::CLinearOp;
pub use scratch::contention_total as scratch_contention_total;
pub use shift_invert::ShiftInvertOp;
