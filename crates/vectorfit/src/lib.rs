//! Vector Fitting: rational identification of tabulated frequency
//! responses (Gustavsen–Semlyen 1999, the paper's ref. \[1\]).
//!
//! This is the substrate that *produces* the macromodels whose passivity
//! the rest of the workspace characterizes: frequency samples of a
//! scattering matrix are fitted, one port column at a time (the multi-SIMO
//! structure of the paper's Eq. (2)), to
//!
//! ```text
//! H_j(s) ~= d_j + sum_m r_m / (s - q_m)
//! ```
//!
//! with shared per-column poles `q_m`. Each iteration solves the classic
//! sigma-augmented linear least-squares problem in a *real* basis (so
//! conjugate symmetry of residues is structural, not imposed), compressed
//! port by port as in fast vector fitting (Deschrijver et al., 2008) so
//! that only the sigma unknowns are solved for. It then relocates poles to
//! the zeros of the sigma function — the eigenvalues of
//! `A_sigma - b_sigma c_sigma^T` — and flips any unstable relocation back
//! into the left half plane.

pub mod basis;
pub mod error;
pub mod fit;
pub mod options;

pub use error::VectorFitError;
pub use fit::{vector_fit, VectorFitOutcome};
pub use options::VectorFitOptions;
