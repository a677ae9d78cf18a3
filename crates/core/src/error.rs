//! Error type for the passivity solvers.

use std::error::Error;
use std::fmt;

/// Errors from the multi-shift drivers, characterization, and enforcement.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SolverError {
    /// A shift that no rung of the degradation ladder certified, or that
    /// a cancel or budget stop left unrun.
    ShiftFailed {
        /// The shift frequency that could not be processed.
        omega: f64,
        /// The first rung's error, or the stop, rendered.
        reason: String,
    },
    /// The search band could not be estimated.
    BandEstimation(String),
    /// A band override in [`crate::solver::SolverOptions`] is unusable:
    /// non-finite, inverted (`hi <= lo`), or negative.
    InvalidBand {
        /// Lower edge as given.
        lo: f64,
        /// Upper edge as given.
        hi: f64,
    },
    /// The initial-radius overlap factor is unusable: the paper requires
    /// `alpha >= 1` (Eq. (23)), and NaN breaks the scheduler's interval
    /// arithmetic.
    InvalidAlpha {
        /// The factor as given.
        alpha: f64,
    },
    /// Enforcement did not reach a passive model within its iteration
    /// budget.
    EnforcementStalled {
        /// Iterations performed.
        iterations: usize,
        /// Remaining violation metric (sum of band widths times excess).
        residual_violation: f64,
    },
    /// A task body panicked inside the execution layer. The unwind was
    /// contained at the cohort boundary (the latch still completed, the
    /// pooled workspace was returned) and surfaced as this typed error
    /// instead of aborting the process.
    TaskPanicked {
        /// The panic payload rendered to text (`&str`/`String` payloads
        /// verbatim; anything else a placeholder).
        message: String,
    },
    /// A downstream Arnoldi failure.
    Arnoldi(pheig_arnoldi::ArnoldiError),
    /// A downstream Hamiltonian-operator failure.
    Hamiltonian(pheig_hamiltonian::HamiltonianError),
    /// A downstream dense-kernel failure.
    Linalg(pheig_linalg::LinalgError),
    /// A downstream model failure.
    Model(pheig_model::ModelError),
    /// A Vector Fitting failure in the pipeline's identification stage.
    VectorFit(pheig_vectorfit::VectorFitError),
}

impl SolverError {
    /// Renders a panic payload contained by `catch_unwind` as a typed
    /// [`SolverError::TaskPanicked`].
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        SolverError::TaskPanicked { message }
    }
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::ShiftFailed { omega, reason } => {
                write!(
                    f,
                    "single-shift iteration at omega = {omega} failed: {reason}"
                )
            }
            SolverError::BandEstimation(m) => write!(f, "search band estimation failed: {m}"),
            SolverError::InvalidBand { lo, hi } => write!(
                f,
                "invalid band override [{lo}, {hi}]: edges must be finite, \
                 non-negative, and ordered lo < hi"
            ),
            SolverError::InvalidAlpha { alpha } => {
                write!(
                    f,
                    "invalid overlap factor alpha = {alpha}: must be finite and >= 1"
                )
            }
            SolverError::EnforcementStalled {
                iterations,
                residual_violation,
            } => write!(
                f,
                "passivity enforcement stalled after {iterations} iterations \
                 (residual violation {residual_violation:.3e})"
            ),
            SolverError::TaskPanicked { message } => {
                write!(f, "a solver task panicked (contained): {message}")
            }
            SolverError::Arnoldi(e) => write!(f, "arnoldi failure: {e}"),
            SolverError::Hamiltonian(e) => write!(f, "hamiltonian failure: {e}"),
            SolverError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            SolverError::Model(e) => write!(f, "model failure: {e}"),
            SolverError::VectorFit(e) => write!(f, "vector fitting failure: {e}"),
        }
    }
}

impl Error for SolverError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolverError::Arnoldi(e) => Some(e),
            SolverError::Hamiltonian(e) => Some(e),
            SolverError::Linalg(e) => Some(e),
            SolverError::Model(e) => Some(e),
            SolverError::VectorFit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pheig_arnoldi::ArnoldiError> for SolverError {
    fn from(e: pheig_arnoldi::ArnoldiError) -> Self {
        SolverError::Arnoldi(e)
    }
}
impl From<pheig_hamiltonian::HamiltonianError> for SolverError {
    fn from(e: pheig_hamiltonian::HamiltonianError) -> Self {
        SolverError::Hamiltonian(e)
    }
}
impl From<pheig_linalg::LinalgError> for SolverError {
    fn from(e: pheig_linalg::LinalgError) -> Self {
        SolverError::Linalg(e)
    }
}
impl From<pheig_model::ModelError> for SolverError {
    fn from(e: pheig_model::ModelError) -> Self {
        SolverError::Model(e)
    }
}
impl From<pheig_vectorfit::VectorFitError> for SolverError {
    fn from(e: pheig_vectorfit::VectorFitError) -> Self {
        SolverError::VectorFit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = SolverError::ShiftFailed {
            omega: 2.0,
            reason: "x".into(),
        };
        assert!(e.to_string().contains("2"));
        let e = SolverError::EnforcementStalled {
            iterations: 7,
            residual_violation: 0.5,
        };
        assert!(e.to_string().contains('7'));
        let e: SolverError = pheig_linalg::LinalgError::Singular { at: 0 }.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn panic_payloads_render_to_typed_errors() {
        let p: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert!(SolverError::from_panic(p.as_ref())
            .to_string()
            .contains("boom"));
        let p: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert!(SolverError::from_panic(p.as_ref())
            .to_string()
            .contains("kaboom"));
        let p: Box<dyn std::any::Any + Send> = Box::new(17usize);
        assert!(SolverError::from_panic(p.as_ref())
            .to_string()
            .contains("non-string"));
    }
}
