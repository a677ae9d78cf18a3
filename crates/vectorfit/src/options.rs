//! Vector Fitting tuning knobs.

/// Options for [`crate::vector_fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct VectorFitOptions {
    /// Number of poles fitted per port column (complex pairs preferred;
    /// an odd count adds one real pole).
    pub poles_per_column: usize,
    /// Pole-relocation iterations (3–10 typical).
    pub iterations: usize,
    /// Whether to fit a constant (direct coupling) term per column.
    pub fit_d: bool,
}

impl VectorFitOptions {
    /// `poles_per_column` poles per column, 6 relocation iterations,
    /// constant term fitted.
    pub fn new(poles_per_column: usize) -> Self {
        VectorFitOptions {
            poles_per_column,
            iterations: 6,
            fit_d: true,
        }
    }

    /// Sets the relocation iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Disables the constant term (for strictly proper responses).
    pub fn without_d(mut self) -> Self {
        self.fit_d = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let o = VectorFitOptions::new(8).with_iterations(3).without_d();
        assert_eq!(o.poles_per_column, 8);
        assert_eq!(o.iterations, 3);
        assert!(!o.fit_d);
    }
}
