//! Structured state-space macromodels for interconnect passivity analysis.
//!
//! This crate implements the macromodel substrate of the DATE 2011 paper:
//! scattering-representation models `H(s) = D + C (sI - A)^{-1} B` in the
//! *multi-SIMO* structured realization of its Eq. (2):
//!
//! * `A = blkdiag{A_k}` — block diagonal, one block per port column, each
//!   block holding that column's poles (1x1 real blocks and 2x2 real blocks
//!   for complex-conjugate pairs);
//! * `B = blkdiag{u_k}` — one input column per port, sparse;
//! * `C = [C_1 ... C_p]` — dense residue matrix.
//!
//! The key consequence exploited by `pheig-hamiltonian` is that `A` and `B`
//! have `O(n)` nonzeros, so shifted solves with `(A ± theta I)` cost `O(n)`.
//!
//! Split re/im planes are the one layout of every structured product here
//! (`StateSpace::{apply_b_split, apply_bt_split, apply_c_split,
//! apply_ct_split}`, `BlockDiagonal::matvec_split`, `ShiftSolveFactors`):
//! the layout the Hamiltonian operators compute in. The dense forms
//! (`BlockDiagonal::to_dense`, `StateSpace::{a_dense, b_dense}`) are the
//! references their tests compare against. `BlockDiagonal::solve_shifted`
//! stays interleaved: it serves passivity enforcement's one-off solves and
//! is the reference `shift_solve_factors` is tested against.
//!
//! Modules:
//!
//! * [`pole`] — stable pole descriptions (real / complex pair);
//! * [`pole_residue`] — the pole–residue transfer function form and its
//!   structured realization;
//! * [`block_diag`] — the block-diagonal `A` with `O(n)` shifted solves;
//! * [`state_space`] — the realized `{A, B, C, D}` quadruple;
//! * [`transfer`] — frequency response and singular-value sampling;
//! * [`generator`] — synthetic benchmark models matching the paper's
//!   Table I test-case dimensions;
//! * [`samples`] — tabulated frequency samples (input to Vector Fitting);
//! * [`touchstone`] — plain-text sample import/export, including hardened
//!   Touchstone v1 (`.sNp`) decks with unit/format/R-line handling and
//!   S/Y/Z parameter types.

pub mod block_diag;
pub mod error;
pub mod generator;
pub mod pole;
pub mod pole_residue;
pub mod samples;
pub mod state_space;
pub mod touchstone;
pub mod transfer;

pub use block_diag::{BlockDiagonal, DiagBlock};
pub use error::ModelError;
pub use pole::Pole;
pub use pole_residue::{ColumnTerms, PoleResidueModel, Residue};
pub use samples::FrequencySamples;
pub use state_space::StateSpace;
pub use touchstone::{
    read_touchstone, read_touchstone_path, write_touchstone, TouchstoneDeck, TouchstoneOptions,
};
