//! Error type for the Arnoldi drivers.

use std::error::Error;
use std::fmt;

/// Errors from the single-shift Arnoldi iteration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArnoldiError {
    /// No Ritz pair converged within the restart budget.
    NoConvergence {
        /// Restarts performed.
        restarts: usize,
        /// Matrix–vector products spent.
        matvecs: usize,
    },
    /// The underlying operator could not be constructed.
    Hamiltonian(pheig_hamiltonian::HamiltonianError),
    /// A dense kernel (projected eigensolve) failed.
    Linalg(pheig_linalg::LinalgError),
}

impl fmt::Display for ArnoldiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArnoldiError::NoConvergence { restarts, matvecs } => write!(
                f,
                "no Ritz pair converged after {restarts} restarts ({matvecs} matvecs)"
            ),
            ArnoldiError::Hamiltonian(e) => write!(f, "operator construction failed: {e}"),
            ArnoldiError::Linalg(e) => write!(f, "projected eigensolve failed: {e}"),
        }
    }
}

impl Error for ArnoldiError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ArnoldiError::Hamiltonian(e) => Some(e),
            ArnoldiError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pheig_hamiltonian::HamiltonianError> for ArnoldiError {
    fn from(e: pheig_hamiltonian::HamiltonianError) -> Self {
        ArnoldiError::Hamiltonian(e)
    }
}

impl From<pheig_linalg::LinalgError> for ArnoldiError {
    fn from(e: pheig_linalg::LinalgError) -> Self {
        ArnoldiError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ArnoldiError::NoConvergence {
            restarts: 5,
            matvecs: 300,
        };
        assert!(e.to_string().contains("5 restarts"));
        let e: ArnoldiError = pheig_linalg::LinalgError::Singular { at: 0 }.into();
        assert!(e.source().is_some());
        let e: ArnoldiError = pheig_hamiltonian::HamiltonianError::DirectTermNotContractive.into();
        assert!(e.source().is_some());
    }
}
