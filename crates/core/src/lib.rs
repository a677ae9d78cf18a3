//! The paper's contribution: parallel multi-shift Hamiltonian eigensolvers
//! for passivity characterization and enforcement.
//!
//! Pipeline:
//!
//! 1. [`band`] sizes the search interval `[omega_min, omega_max]` from the
//!    largest Hamiltonian eigenvalue magnitude (Sec. IV.A);
//! 2. [`scheduler`] is the dynamic shift-scheduling state machine
//!    (Sec. IV.A–E) built on an explicit *uncovered-set* so band coverage is
//!    provable;
//! 3. [`solver`] drives the scheduler with 1 thread (the paper's serial
//!    baseline) or `T` worker threads (the parallel solver), each running
//!    single-shift Arnoldi iterations from `pheig-arnoldi` — or, below the
//!    measured crossover (`SolverOptions::dense_max`), solves the whole
//!    dense Hamiltonian instead;
//! 4. [`simulate`] runs the solver's own per-pull body under a
//!    deterministic virtual clock with `T` virtual workers — this is how
//!    Table I speedups and Fig. 6 are reproduced on hosts with fewer than
//!    16 physical cores (see DESIGN.md, substitution table);
//! 5. [`characterization`] converts the located imaginary eigenvalues
//!    `Omega` into singular-value violation bands;
//! 6. [`enforcement`] perturbs residues (first-order displacement of the
//!    imaginary Hamiltonian eigenvalues, ref. \[8\]) until the model is
//!    passive;
//! 7. [`pipeline`] chains the whole tool flow — Touchstone deck in,
//!    vector-fitted and passivity-enforced macromodel out — with per-stage
//!    diagnostics and a batched multi-model driver;
//! 8. [`exec`] is the execution layer under 3–7: one persistent
//!    worker pool (workers spawned once, one locked queue, pooled
//!    solver scratch) that batch jobs, sweep shifts, and
//!    enforcement re-sweeps all schedule on, instead of nesting scoped
//!    thread pools per call.

// Unsafe code in this crate must discharge obligations explicitly:
// every unsafe operation inside an `unsafe fn` needs its own block (and
// `// SAFETY:` comment — enforced by `pheig-verify`'s audit binary).
#![deny(unsafe_op_in_unsafe_fn)]
// Library code must not panic on fallible paths: every `unwrap`/`expect`
// either becomes a typed error or moves behind a `// PANIC-SAFE:`
// invariant argument with an explicit `#[allow]`. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod band;
pub mod characterization;
mod dense;
pub mod enforcement;
pub mod error;
pub mod exec;
pub mod pipeline;
pub mod scheduler;
pub mod simulate;
pub mod solver;
pub mod spectrum;

pub use error::SolverError;
pub use exec::Executor;
pub use pheig_arnoldi::{CancelToken, FaultPlan};
pub use pipeline::{run_batch, PassiveModel, Pipeline, PipelineOptions, PipelineReport};
pub use solver::{
    find_imaginary_eigenvalues, find_imaginary_eigenvalues_with, Certificate, QuarantinedShift,
    SolverOptions, SolverOutcome, SolverWorkspace,
};
