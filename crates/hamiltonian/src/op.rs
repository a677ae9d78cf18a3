//! The complex linear operator abstraction consumed by the Arnoldi solver.

use pheig_linalg::{Matrix, C64};

/// A complex linear operator `y = Op(x)` on `C^dim`.
///
/// Implementations must be [`Sync`], so an operator can be shared by
/// reference across threads. The in-tree drivers never share one (each
/// sweep worker builds its *own* shifted operator over the shared
/// state-space data); the structured operators keep their apply scratch
/// in a `Mutex` taken by `try_lock`, so a concurrent apply on the same
/// operator falls back to temporary scratch instead of waiting (see
/// [`crate::scratch`]).
pub trait CLinearOp: Sync {
    /// Operator dimension.
    fn dim(&self) -> usize;

    /// Applies the operator into a caller-provided buffer: `y = Op(x)`.
    ///
    /// This is the hot-path entry point: implementations must not allocate
    /// in steady state (owned scratch sized at construction is fine).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.dim()` or
    /// `y.len() != self.dim()`.
    fn apply_into(&self, x: &[C64], y: &mut [C64]);

    /// Applies the operator, allocating the result: `y = Op(x)`.
    ///
    /// Convenience wrapper over [`CLinearOp::apply_into`] for cold paths
    /// and tests.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.dim()`.
    fn apply(&self, x: &[C64]) -> Vec<C64> {
        let mut y = vec![C64::zero(); self.dim()];
        self.apply_into(x, &mut y);
        y
    }
}

/// Dense matrices are trivially operators (used in tests and the baseline).
impl CLinearOp for Matrix<C64> {
    fn dim(&self) -> usize {
        self.rows()
    }
    fn apply_into(&self, x: &[C64], y: &mut [C64]) {
        self.matvec_into(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_matrix_is_an_operator() {
        let m = Matrix::from_diag(&[C64::new(2.0, 0.0), C64::new(0.0, 1.0)]);
        assert_eq!(m.dim(), 2);
        let y = m.apply(&[C64::one(), C64::one()]);
        assert_eq!(y[0], C64::new(2.0, 0.0));
        assert_eq!(y[1], C64::new(0.0, 1.0));
    }
}
