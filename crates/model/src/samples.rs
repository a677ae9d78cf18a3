//! Tabulated frequency samples of a scattering matrix — the raw-data form
//! that rational fitting (Vector Fitting) consumes.

use crate::error::ModelError;
use crate::transfer::TransferEval;
use pheig_linalg::{Matrix, C64};

/// Frequency samples `{ (omega_k, S(j omega_k)) }` of a `p x p` scattering
/// matrix.
///
/// In the paper's workflow these come from a full-wave solver or VNA
/// measurement; here they are either synthesized from a reference model
/// ([`FrequencySamples::from_model`]) or supplied by the user.
#[derive(Debug, Clone)]
pub struct FrequencySamples {
    omegas: Vec<f64>,
    matrices: Vec<Matrix<C64>>,
    ports: usize,
}

impl FrequencySamples {
    /// Builds a sample set, validating shape consistency and frequency
    /// ordering.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidArgument`] when lengths differ, shapes
    /// are inconsistent, frequencies are not strictly increasing and
    /// non-negative, or a sample entry is NaN or infinite (the message names
    /// the sample and the entry).
    pub fn new(omegas: Vec<f64>, matrices: Vec<Matrix<C64>>) -> Result<Self, ModelError> {
        if omegas.is_empty() || omegas.len() != matrices.len() {
            return Err(ModelError::invalid(format!(
                "need matching, non-empty frequency/matrix lists ({} vs {})",
                omegas.len(),
                matrices.len()
            )));
        }
        // The finiteness check must come first: NaN defeats both ordering
        // comparisons below (NaN < x and x <= NaN are both false), so a
        // NaN frequency would otherwise slip through.
        if omegas.iter().any(|w| !w.is_finite()) {
            return Err(ModelError::invalid("frequencies must be finite"));
        }
        if omegas[0] < 0.0 || omegas.windows(2).any(|w| w[1] <= w[0]) {
            return Err(ModelError::invalid(
                "frequencies must be non-negative and strictly increasing",
            ));
        }
        let ports = matrices[0].rows();
        for (k, m) in matrices.iter().enumerate() {
            if m.rows() != ports || m.cols() != ports {
                return Err(ModelError::invalid(format!(
                    "all samples must be {ports}x{ports}, found {}x{}",
                    m.rows(),
                    m.cols()
                )));
            }
            // A non-finite entry would otherwise cost a whole fit before it
            // surfaces, unattributed, from the pole-relocation eigensolve.
            if let Some(at) = m.as_slice().iter().position(|z| !z.is_finite()) {
                return Err(ModelError::invalid(format!(
                    "sample {k} (omega = {}) has a non-finite entry {:?} at ({}, {})",
                    omegas[k],
                    m.as_slice()[at],
                    at / ports,
                    at % ports
                )));
            }
        }
        Ok(FrequencySamples {
            omegas,
            matrices,
            ports,
        })
    }

    /// Synthesizes samples from a reference model on a uniform grid over
    /// `[omega_lo, omega_hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidArgument`] for an empty or inverted grid.
    pub fn from_model(
        model: &impl TransferEval,
        omega_lo: f64,
        omega_hi: f64,
        count: usize,
    ) -> Result<Self, ModelError> {
        if count < 2 || omega_hi <= omega_lo || omega_lo < 0.0 {
            return Err(ModelError::invalid(
                "need count >= 2 and 0 <= omega_lo < omega_hi",
            ));
        }
        let omegas: Vec<f64> = (0..count)
            .map(|k| omega_lo + (omega_hi - omega_lo) * k as f64 / (count - 1) as f64)
            .collect();
        let matrices = omegas
            .iter()
            .map(|&w| model.transfer_at(C64::from_imag(w)))
            .collect();
        Self::new(omegas, matrices)
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of frequency points.
    pub fn len(&self) -> usize {
        self.omegas.len()
    }

    /// `true` when there are no samples (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.omegas.is_empty()
    }

    /// The frequency grid (rad/s).
    pub fn omegas(&self) -> &[f64] {
        &self.omegas
    }

    /// The sampled matrices, aligned with [`FrequencySamples::omegas`].
    pub fn matrices(&self) -> &[Matrix<C64>] {
        &self.matrices
    }

    /// Column `j` of every sample: the SIMO data a per-column fit consumes.
    /// Returns a `len x p` matrix whose row `k` is column `j` of sample `k`.
    pub fn column_responses(&self, j: usize) -> Matrix<C64> {
        Matrix::from_fn(self.len(), self.ports, |k, i| self.matrices[k][(i, j)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pole::Pole;
    use crate::pole_residue::{ColumnTerms, PoleResidueModel, Residue};

    fn tiny_model() -> PoleResidueModel {
        let col = ColumnTerms {
            poles: vec![Pole::Real(-2.0)],
            residues: vec![Residue::Real(vec![1.0])],
        };
        PoleResidueModel::new(vec![col], Matrix::from_diag(&[0.3])).unwrap()
    }

    #[test]
    fn from_model_grid() {
        let s = FrequencySamples::from_model(&tiny_model(), 0.0, 10.0, 11).unwrap();
        assert_eq!(s.len(), 11);
        assert_eq!(s.ports(), 1);
        assert_eq!(s.omegas()[0], 0.0);
        assert_eq!(s.omegas()[10], 10.0);
        // Value check at omega = 0: 0.3 + 1/(0 - (-2)) = 0.8.
        assert!((s.matrices()[0][(0, 0)].re - 0.8).abs() < 1e-15);
    }

    #[test]
    fn validation() {
        assert!(FrequencySamples::new(vec![], vec![]).is_err());
        let m = Matrix::<C64>::zeros(1, 1);
        assert!(FrequencySamples::new(vec![1.0, 1.0], vec![m.clone(), m.clone()]).is_err());
        assert!(FrequencySamples::new(vec![-1.0, 1.0], vec![m.clone(), m.clone()]).is_err());
        assert!(
            FrequencySamples::new(vec![0.0, 1.0], vec![m.clone(), Matrix::zeros(2, 2)]).is_err()
        );
        assert!(FrequencySamples::new(vec![0.0, 1.0], vec![m.clone(), m]).is_ok());
    }

    #[test]
    fn non_finite_entries_are_rejected_by_name() {
        for bad in [C64::new(f64::NAN, 0.0), C64::new(0.0, f64::INFINITY)] {
            let good = Matrix::<C64>::zeros(2, 2);
            let mut m = good.clone();
            m[(1, 0)] = bad;
            let err = FrequencySamples::new(vec![0.0, 1.0, 2.0], vec![good.clone(), good, m])
                .unwrap_err()
                .to_string();
            assert!(err.contains("sample 2") && err.contains("(1, 0)"), "{err}");
        }
    }

    #[test]
    fn column_responses_layout() {
        let s = FrequencySamples::from_model(&tiny_model(), 0.5, 2.0, 4).unwrap();
        let col = s.column_responses(0);
        assert_eq!(col.shape(), (4, 1));
        assert_eq!(col[(2, 0)], s.matrices()[2][(0, 0)]);
    }

    #[test]
    fn bad_grid_args() {
        assert!(FrequencySamples::from_model(&tiny_model(), 3.0, 1.0, 5).is_err());
        assert!(FrequencySamples::from_model(&tiny_model(), 0.0, 1.0, 1).is_err());
    }
}
