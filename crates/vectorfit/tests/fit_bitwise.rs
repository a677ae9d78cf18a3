//! Pins every bit of `vector_fit`'s output on three small decks.
//!
//! The benchmark's seed-0 golden counts (`core.solver.matvecs`, the
//! fitted-model crossings of `pipeline_fit`) are functions of the fitted
//! poles and residues down to the last bit. Every reduction under the fit
//! moves them: the Householder QR of the shared `[Φ | 1]` factor, the
//! `Q^H` projection of each port's sigma columns, the order in which the
//! ports' projected rows are stacked, the stacked sigma solve, the
//! relocation eigensolve and the residue solves. This test says so in a
//! second instead of a failed benchmark run. The hashes were recorded when
//! the sigma stage became the stacked per-port projection of fast vector
//! fitting (DESIGN.md, "Least squares"), in debug and release alike; the
//! 1-port hash is older, because with one port the stacked system is the
//! trailing block of the full one, reduction for reduction. The arithmetic
//! is plain IEEE multiply / add / divide / sqrt in a fixed order, so they
//! hold on every host.

use pheig_linalg::{Matrix, C64};
use pheig_model::generator::{generate_case, CaseSpec};
use pheig_model::{FrequencySamples, Pole, Residue};
use pheig_vectorfit::{vector_fit, VectorFitOptions};

/// FNV-1a over the bits of a stream of `f64`s.
struct BitHash(u64);

impl BitHash {
    fn feed(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// Hash of every pole, residue and `D` entry of the fit, in model order.
fn fit_hash(spec: &CaseSpec, samples: usize, opts: &VectorFitOptions) -> u64 {
    let reference = generate_case(spec).unwrap();
    let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, samples).unwrap();
    let fit = vector_fit(&samples, opts).unwrap();
    assert!(fit.rms_error < 1e-6, "rms {}", fit.rms_error);
    let mut hash = BitHash(0xcbf2_9ce4_8422_2325);
    for column in fit.model.columns() {
        for (pole, residue) in column.poles.iter().zip(&column.residues) {
            match *pole {
                Pole::Real(re) => hash.feed([re]),
                Pole::Pair { re, im } => hash.feed([re, im]),
            }
            match residue {
                Residue::Real(v) => hash.feed(v.iter().copied()),
                Residue::Complex(v) => hash.feed(v.iter().flat_map(|z| [z.re, z.im])),
            }
        }
    }
    hash.feed(fit.model.d().as_slice().iter().copied());
    hash.0
}

#[test]
fn three_port_fit_keeps_every_bit() {
    let spec = CaseSpec::new(24, 3).with_seed(11);
    let hash = fit_hash(&spec, 90, &VectorFitOptions::new(8));
    assert_eq!(hash, 0x1bd6_ef1e_01fa_44b5, "24-state 3-port fit moved");
}

#[test]
fn one_port_fit_keeps_every_bit() {
    let spec = CaseSpec::new(6, 1).with_seed(5);
    let hash = fit_hash(&spec, 60, &VectorFitOptions::new(6));
    assert_eq!(hash, 0xfdab_d414_2a06_c208, "6-state 1-port fit moved");
}

#[test]
fn fit_without_constant_term_keeps_every_bit() {
    // No constant column: the shared factor is `Φ` alone.
    let spec = CaseSpec::new(8, 2).with_seed(3).with_d_sigma(0.0);
    let opts = VectorFitOptions::new(4).with_iterations(4).without_d();
    let hash = fit_hash(&spec, 70, &opts);
    assert_eq!(
        hash, 0x6c02_909c_8317_36a8,
        "8-state 2-port fit without D moved"
    );
}

#[test]
fn non_finite_samples_never_reach_the_fit() {
    // The zero-row skip in `Qr::new` is exact for finite data; that
    // precondition is established where the data enters: a sample set with
    // a NaN or infinite entry cannot be constructed, so `vector_fit` (which
    // only takes a `FrequencySamples`) is never handed one.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let omegas: Vec<f64> = (0..40).map(|k| 0.1 + 0.3 * k as f64).collect();
        let mut matrices = vec![Matrix::from_diag(&[C64::new(0.5, 0.1); 2]); 40];
        matrices[17][(1, 0)] = C64::new(0.0, bad);
        let err = FrequencySamples::new(omegas, matrices).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("sample 17") && message.contains("(1, 0)"),
            "{message}"
        );
    }
}
