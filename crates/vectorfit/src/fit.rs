//! The Vector Fitting engine: sigma-stage least squares, pole relocation,
//! and final residue identification.

use crate::basis::{
    basis_row, coefficient_count, coefficients_to_residues, initial_poles, ResidueValue,
};
use crate::error::VectorFitError;
use crate::options::VectorFitOptions;
use pheig_linalg::eig::eig_real;
use pheig_linalg::{LinalgError, Matrix, Qr, C64};
use pheig_model::block_diag::{BlockDiagonal, DiagBlock};
use pheig_model::{ColumnTerms, FrequencySamples, Pole, PoleResidueModel, Residue, StateSpace};

/// Result of a Vector Fitting run.
#[derive(Debug, Clone)]
pub struct VectorFitOutcome {
    /// The fitted multi-SIMO pole–residue model.
    pub model: PoleResidueModel,
    /// Root-mean-square entrywise fit error over all samples.
    pub rms_error: f64,
    /// Largest entrywise fit error.
    pub max_error: f64,
}

impl VectorFitOutcome {
    /// Realizes the fitted model as the structured `{A, B, C, D}`
    /// quadruple the Hamiltonian passivity machinery consumes — the
    /// fit-to-state-space bridge of the macromodeling pipeline.
    pub fn state_space(&self) -> StateSpace {
        self.model.realize()
    }
}

/// Damping ratio of the log-spaced starting poles.
const INITIAL_DAMPING: f64 = 0.01;

/// Fits a rational macromodel to tabulated frequency samples.
///
/// Each port column is fitted independently with its own pole set (the
/// multi-SIMO structure the paper's solvers exploit).
///
/// # Errors
///
/// * [`VectorFitError::InvalidOptions`] when the sample count cannot
///   support the requested order;
/// * kernel failures from the least-squares / eigenvalue stages.
///
/// # Example
///
/// ```
/// use pheig_model::generator::{generate_case, CaseSpec};
/// use pheig_model::FrequencySamples;
/// use pheig_vectorfit::{vector_fit, VectorFitOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let reference = generate_case(&CaseSpec::new(8, 2).with_seed(3))?;
/// let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, 120)?;
/// let fit = vector_fit(&samples, &VectorFitOptions::new(8))?;
/// assert!(fit.rms_error < 1e-6, "rms {}", fit.rms_error);
/// # Ok(())
/// # }
/// ```
pub fn vector_fit(
    samples: &FrequencySamples,
    opts: &VectorFitOptions,
) -> Result<VectorFitOutcome, VectorFitError> {
    if opts.iterations == 0 {
        return Err(VectorFitError::invalid(
            "need at least one relocation iteration",
        ));
    }
    let p = samples.ports();
    let k_samples = samples.len();
    let omegas = samples.omegas();
    let w_lo = omegas[0].max(omegas[omegas.len() - 1] * 1e-4);
    let w_hi = omegas[omegas.len() - 1];
    if opts.poles_per_column == 0 {
        return Err(VectorFitError::invalid("poles_per_column must be positive"));
    }
    let start_poles = initial_poles(w_lo, w_hi, opts.poles_per_column, INITIAL_DAMPING);
    let nb = coefficient_count(&start_poles); // real coefficients per pole set
    let sigma_cols = nb * p + if opts.fit_d { p } else { 0 } + nb;
    if 2 * k_samples * p < sigma_cols {
        return Err(VectorFitError::invalid(format!(
            "underdetermined fit: {} real equations for {sigma_cols} unknowns",
            2 * k_samples * p
        )));
    }

    let mut columns = Vec::with_capacity(p);
    let mut d = Matrix::<f64>::zeros(p, p);
    let mut col = Vec::new();
    for j in 0..p {
        let responses = samples.column_responses(j); // K x p complex
        let mut poles = start_poles.clone();
        for _ in 0..opts.iterations {
            let sigma = sigma_stage(omegas, &responses, &poles, opts.fit_d, &mut col)?;
            poles = relocate_poles(&poles, &sigma)?;
        }
        let (col_terms, d_col) = residue_stage(omegas, &responses, &poles, opts.fit_d)?;
        for (i, &di) in d_col.iter().enumerate() {
            d[(i, j)] = di;
        }
        columns.push(col_terms);
    }
    let model = PoleResidueModel::new(columns, d)?;

    // Fit-quality metrics on the input grid.
    let mut sum_sq = 0.0f64;
    let mut max_err = 0.0f64;
    let mut count = 0usize;
    for (k, &w) in omegas.iter().enumerate() {
        let h = model.eval(C64::from_imag(w));
        let target = &samples.matrices()[k];
        for i in 0..p {
            for jj in 0..p {
                let e = (h[(i, jj)] - target[(i, jj)]).abs();
                sum_sq += e * e;
                max_err = max_err.max(e);
                count += 1;
            }
        }
    }
    let rms_error = (sum_sq / count as f64).sqrt();
    Ok(VectorFitOutcome {
        model,
        rms_error,
        max_error: max_err,
    })
}

/// Evaluates the basis `Φ` at every sample (`K x nb`) and factors the real
/// `2K x (nb + d)` matrix `[Φ | 1]` (rows `2k`, `2k + 1`: real and
/// imaginary part of sample `k`; `d` = 1 with a constant term). It is the
/// same for every port, so each stage factors it once per pole set.
fn shared_factor(
    omegas: &[f64],
    poles: &[Pole],
    fit_d: bool,
) -> Result<(Matrix<C64>, Qr<f64>), VectorFitError> {
    let nb = coefficient_count(poles);
    let cols = nb + usize::from(fit_d);
    let mut phi = Matrix::<C64>::zeros(omegas.len(), nb);
    let mut a = Matrix::<f64>::zeros(2 * omegas.len(), cols);
    for (k, &w) in omegas.iter().enumerate() {
        phi.row_mut(k)
            .copy_from_slice(&basis_row(C64::from_imag(w), poles));
        for (m, &ph) in phi.row(k).iter().enumerate() {
            a[(2 * k, m)] = ph.re;
            a[(2 * k + 1, m)] = ph.im;
        }
        if fit_d {
            a[(2 * k, nb)] = 1.0;
        }
    }
    let qr = Qr::new(a)?;
    let r = qr.r();
    if let Some(at) = (0..cols).find(|&i| r[(i, i)] == 0.0) {
        return Err(LinalgError::Singular { at }.into());
    }
    Ok((phi, qr))
}

/// Solves the sigma-augmented LS problem for the sigma basis coefficients
/// alone (fast VF: Deschrijver, Mrozowski, Dhaene, De Zutter 2008). Port
/// `i`'s rows read `[Φ | 1] x_i - f_i Φ σ = f_i`, its residues `x_i` in no
/// other port's rows; `Q^H` of the shared factor leaves `σ` alone in the
/// trailing `2K - nb - d` rows of each port, and those rows of all ports
/// are one stacked `p (2K - nb - d) x nb` problem. `col` is a `2K` buffer
/// reused across ports and calls.
fn sigma_stage(
    omegas: &[f64],
    responses: &Matrix<C64>, // K x p
    poles: &[Pole],
    fit_d: bool,
    col: &mut Vec<f64>,
) -> Result<Vec<f64>, VectorFitError> {
    let (phi, qr) = shared_factor(omegas, poles, fit_d)?;
    let (k_samples, nb) = phi.shape();
    let p = responses.cols();
    let skip = qr.cols();
    let tail = 2 * k_samples - skip;
    let mut stacked = Matrix::<f64>::zeros(p * tail, nb);
    let mut rhs = vec![0.0f64; p * tail];
    col.resize(2 * k_samples, 0.0);
    for i in 0..p {
        // Columns -f_i Φ_m (m < nb), then the right-hand side f_i.
        for m in 0..=nb {
            for k in 0..k_samples {
                let f = responses[(k, i)];
                let v = if m < nb { -(phi[(k, m)] * f) } else { f };
                col[2 * k] = v.re;
                col[2 * k + 1] = v.im;
            }
            qr.apply_qh(col);
            let projected = &col[skip..];
            if m < nb {
                for (r, &x) in projected.iter().enumerate() {
                    stacked[(i * tail + r, m)] = x;
                }
            } else {
                rhs[i * tail..(i + 1) * tail].copy_from_slice(projected);
            }
        }
    }
    Ok(Qr::new(stacked)?.solve_least_squares(&rhs)?)
}

/// Relocates poles to the zeros of the sigma function: the eigenvalues of
/// `A_sigma - b_sigma c_sigma^T`, with unstable results flipped.
fn relocate_poles(poles: &[Pole], sigma_coeffs: &[f64]) -> Result<Vec<Pole>, VectorFitError> {
    let blocks: Vec<DiagBlock> = poles.iter().map(|&pl| pl.into()).collect();
    let a = BlockDiagonal::new(blocks);
    let n = a.dim();
    let mut m = a.to_dense();
    // Subtract b c^T: b has entry 1 on real-pole states, (2, 0) on pair
    // states; c carries the sigma coefficients in realization layout.
    let mut state = 0usize;
    let mut b = vec![0.0f64; n];
    for pole in poles {
        b[state] = if pole.order() == 1 { 1.0 } else { 2.0 };
        state += pole.order();
    }
    for i in 0..n {
        if b[i] == 0.0 {
            continue;
        }
        for jj in 0..n {
            m[(i, jj)] -= b[i] * sigma_coeffs[jj];
        }
    }
    let eigs = eig_real(&m)?;
    Ok(pair_spectrum(&eigs))
}

/// Robustly pairs a real-matrix spectrum into stable poles: conjugate
/// partners are matched greedily, then every real part is mirrored into
/// the open left half plane (`-|re|`, with a small floor so marginal
/// poles do not land exactly on the axis).
pub(crate) fn pair_spectrum(eigs: &[C64]) -> Vec<Pole> {
    let scale = eigs.iter().map(|z| z.abs()).fold(0.0, f64::max).max(1e-300);
    let tol = 1e-7 * scale;
    let mut remaining: Vec<C64> = eigs.to_vec();
    let mut poles = Vec::new();
    while let Some((idx, _)) = remaining
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.im.abs().partial_cmp(&b.1.im.abs()).unwrap())
    {
        let z = remaining.swap_remove(idx);
        if z.im.abs() <= tol {
            poles.push(Pole::Real(-z.re.abs().max(1e-12 * scale)));
            continue;
        }
        // Find and consume the conjugate partner.
        if let Some((pidx, _)) = remaining.iter().enumerate().min_by(|a, b| {
            (*a.1 - z.conj())
                .abs()
                .partial_cmp(&(*b.1 - z.conj()).abs())
                .unwrap()
        }) {
            let partner = remaining.swap_remove(pidx);
            let re = 0.5 * (z.re + partner.re);
            let im = 0.5 * (z.im.abs() + partner.im.abs());
            poles.push(Pole::Pair {
                re: -re.abs().max(1e-9 * im.max(1e-12 * scale)),
                im,
            });
        } else {
            // Unpaired complex value (should not happen): treat as a pair
            // with itself.
            poles.push(Pole::Pair {
                re: -z.re.abs().max(1e-12 * scale),
                im: z.im.abs(),
            });
        }
    }
    poles
}

/// Final residue identification with fixed poles (decoupled per port).
fn residue_stage(
    omegas: &[f64],
    responses: &Matrix<C64>, // K x p
    poles: &[Pole],
    fit_d: bool,
) -> Result<(ColumnTerms, Vec<f64>), VectorFitError> {
    let p = responses.cols();
    let nb = coefficient_count(poles);
    let (_, qr) = shared_factor(omegas, poles, fit_d)?;
    // Per-port solves; residues per pole collected across ports.
    let mut per_port: Vec<Vec<ResidueValue>> = Vec::with_capacity(p);
    let mut d_col = vec![0.0f64; p];
    for i in 0..p {
        let mut rhs = vec![0.0f64; 2 * omegas.len()];
        for k in 0..omegas.len() {
            let f = responses[(k, i)];
            rhs[2 * k] = f.re;
            rhs[2 * k + 1] = f.im;
        }
        let sol = qr.solve_least_squares(&rhs)?;
        if fit_d {
            d_col[i] = sol[nb];
        }
        per_port.push(coefficients_to_residues(poles, &sol[..nb]));
    }
    // Transpose: per-pole residue vectors (length p).
    let residues = poles
        .iter()
        .enumerate()
        .map(|(m, pole)| {
            let values = per_port.iter().map(|port| match port[m] {
                ResidueValue::Real(r) => C64::from_real(r),
                ResidueValue::Complex(r) => r,
            });
            match pole {
                Pole::Real(_) => Residue::Real(values.map(|r| r.re).collect()),
                Pole::Pair { .. } => Residue::Complex(values.collect()),
            }
        })
        .collect();
    Ok((
        ColumnTerms {
            poles: poles.to_vec(),
            residues,
        },
        d_col,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pheig_model::generator::{generate_case, CaseSpec};
    use pheig_model::transfer::TransferEval;

    /// The full sigma-augmented system `fast VF` replaces: every port's
    /// residues and constant and the shared sigma block in one
    /// `2Kp x (nb p + d p + nb)` matrix, sample-major rows, of which only the
    /// last `nb` unknowns are read.
    fn full_sigma_stage(
        omegas: &[f64],
        responses: &Matrix<C64>,
        poles: &[Pole],
        fit_d: bool,
    ) -> Result<Vec<f64>, VectorFitError> {
        let p = responses.cols();
        let nb = coefficient_count(poles);
        let d_cols = if fit_d { p } else { 0 };
        let rows = 2 * omegas.len() * p;
        let mut a = Matrix::<f64>::zeros(rows, nb * p + d_cols + nb);
        let mut rhs = vec![0.0f64; rows];
        for (k, &w) in omegas.iter().enumerate() {
            let phi = basis_row(C64::from_imag(w), poles);
            for i in 0..p {
                let f = responses[(k, i)];
                let r_re = 2 * (k * p + i);
                for (m, &ph) in phi.iter().enumerate() {
                    a[(r_re, i * nb + m)] = ph.re;
                    a[(r_re + 1, i * nb + m)] = ph.im;
                    let v = -(ph * f);
                    a[(r_re, nb * p + d_cols + m)] = v.re;
                    a[(r_re + 1, nb * p + d_cols + m)] = v.im;
                }
                if fit_d {
                    a[(r_re, nb * p + i)] = 1.0;
                }
                rhs[r_re] = f.re;
                rhs[r_re + 1] = f.im;
            }
        }
        let sol = Qr::new(a)?.solve_least_squares(&rhs)?;
        Ok(sol[nb * p + d_cols..].to_vec())
    }

    /// `vector_fit`'s log-spaced starting poles for a sample grid.
    fn start_poles(samples: &FrequencySamples, count: usize) -> Vec<Pole> {
        let omegas = samples.omegas();
        let w_hi = omegas[omegas.len() - 1];
        initial_poles(omegas[0].max(w_hi * 1e-4), w_hi, count, INITIAL_DAMPING)
    }

    /// A 20-port deck built directly, without the generator's calibration
    /// (seconds per deck in a debug build at p = 20): three damped pairs per
    /// column, residues and `D` from a fixed integer hash.
    fn twenty_port_samples() -> FrequencySamples {
        let p = 20;
        let hash = |a: usize, b: usize| ((a * 7919 + b * 104_729) % 1000) as f64 / 1000.0 - 0.5;
        let columns = (0..p)
            .map(|j| ColumnTerms {
                poles: (0..3)
                    .map(|m| {
                        let w = 0.5 + 3.5 * m as f64 + 0.1 * j as f64;
                        Pole::Pair {
                            re: -0.05 * w,
                            im: w,
                        }
                    })
                    .collect(),
                residues: (0..3)
                    .map(|m| {
                        let r = |i| C64::new(hash(i, j + p * m), hash(j, i + p * m));
                        Residue::Complex((0..p).map(r).collect())
                    })
                    .collect(),
            })
            .collect();
        let d = Matrix::from_fn(p, p, |i, j| 0.02 * hash(i, j));
        let model = PoleResidueModel::new(columns, d).unwrap();
        FrequencySamples::from_model(&model, 0.01, 12.0, 60).unwrap()
    }

    #[test]
    fn fast_sigma_stage_matches_the_full_system() {
        // (samples, poles, constant term): the `pipeline_fit` deck, a
        // 20-port deck fitted below its order (so sigma stays far from 1),
        // `fit_bitwise`'s no-D 2-port deck and a 1-port deck.
        let sampled = |spec: CaseSpec, w_hi: f64, count: usize| {
            FrequencySamples::from_model(&generate_case(&spec).unwrap(), 0.01, w_hi, count).unwrap()
        };
        let pipeline = CaseSpec::new(72, 6)
            .with_seed(3)
            .with_target_crossings(4)
            .with_damping(0.02, 0.09);
        let decks = [
            (sampled(pipeline, 13.0, 300), 12, true),
            (twenty_port_samples(), 4, true),
            (
                sampled(CaseSpec::new(8, 2).with_seed(3).with_d_sigma(0.0), 12.0, 70),
                4,
                false,
            ),
            (sampled(CaseSpec::new(6, 1).with_seed(5), 12.0, 60), 6, true),
        ];
        let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|x| x * x).sum::<f64>().sqrt();
        let mut col = Vec::new();
        for (samples, n_poles, fit_d) in decks {
            let p = samples.ports();
            let (omegas, responses) = (samples.omegas(), samples.column_responses(0));
            // Compared at the once-relocated poles. At the log-spaced start
            // the 6-port deck's coefficients reach 3e9 and the full system's
            // own two row orders (sample- or port-major) disagree by 5e-5:
            // that is conditioning, not the formulation.
            let start = start_poles(&samples, n_poles);
            let sigma = sigma_stage(omegas, &responses, &start, fit_d, &mut col).unwrap();
            let poles = relocate_poles(&start, &sigma).unwrap();
            let fast = sigma_stage(omegas, &responses, &poles, fit_d, &mut col).unwrap();
            let full = full_sigma_stage(omegas, &responses, &poles, fit_d).unwrap();
            // Relative to (1, c): sigma(s) = 1 + sum_m c_m phi_m(s).
            let scale = norm(&mut full.iter().copied()).hypot(1.0);
            let diff = norm(&mut fast.iter().zip(&full).map(|(a, b)| a - b));
            assert!(diff < 1e-8 * scale, "{p} ports: {diff:e} of {scale:e}");
            let fast_poles = relocate_poles(&poles, &fast).unwrap();
            let full_poles = relocate_poles(&poles, &full).unwrap();
            assert_eq!(fast_poles.len(), full_poles.len());
            for (a, b) in fast_poles.iter().zip(&full_poles) {
                let (a, b) = (a.upper(), b.upper());
                assert!(
                    (a - b).abs() < 1e-8 * b.abs(),
                    "{p} ports: pole {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn stacked_sigma_system_needs_no_square_port_block() {
        // 8 poles and a constant: at 7 samples each port's block
        // `[Φ | 1 | -f Φ]` is 14 x 17, wider than tall, while the stacked
        // system is 2 x 5 rows by 8 columns.
        let reference = generate_case(&CaseSpec::new(8, 2).with_seed(3)).unwrap();
        let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, 7).unwrap();
        let fit = vector_fit(&samples, &VectorFitOptions::new(8)).unwrap();
        assert!(fit.rms_error < 1e-12, "rms {}", fit.rms_error);
        // One sample fewer leaves the stacked system wide: refused up front.
        let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, 6).unwrap();
        assert_eq!(
            vector_fit(&samples, &VectorFitOptions::new(8)).unwrap_err(),
            VectorFitError::invalid("underdetermined fit: 24 real equations for 26 unknowns")
        );
    }

    #[test]
    fn zero_pivot_in_the_shared_factor_is_singular() {
        // An infinitely remote pole has an exactly zero basis column, so
        // `[Φ | 1]` has a zero pivot; the projection would silently drop a
        // direction, and the full system is singular too.
        let reference = generate_case(&CaseSpec::new(4, 2).with_seed(1)).unwrap();
        let samples = FrequencySamples::from_model(&reference, 0.1, 10.0, 30).unwrap();
        let responses = samples.column_responses(0);
        let poles = [
            Pole::Real(f64::NEG_INFINITY),
            Pole::Pair { re: -0.1, im: 2.0 },
        ];
        let singular = |r: Result<Vec<f64>, VectorFitError>| {
            matches!(r, Err(VectorFitError::Linalg(LinalgError::Singular { .. })))
        };
        let fast = sigma_stage(samples.omegas(), &responses, &poles, true, &mut Vec::new());
        assert!(singular(fast));
        assert!(singular(full_sigma_stage(
            samples.omegas(),
            &responses,
            &poles,
            true
        )));
    }

    #[test]
    fn recovers_single_resonance_exactly() {
        // Reference: one complex pair per column, fit with matching order.
        let reference = generate_case(&CaseSpec::new(4, 2).with_seed(9)).unwrap();
        let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, 80).unwrap();
        let fit = vector_fit(&samples, &VectorFitOptions::new(2)).unwrap();
        assert!(fit.rms_error < 1e-8, "rms {}", fit.rms_error);
        assert!(fit.max_error < 1e-6, "max {}", fit.max_error);
    }

    #[test]
    fn fits_multi_pole_model() {
        let reference = generate_case(&CaseSpec::new(12, 2).with_seed(4)).unwrap();
        let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, 160).unwrap();
        let fit = vector_fit(&samples, &VectorFitOptions::new(6).with_iterations(8)).unwrap();
        assert!(fit.rms_error < 1e-6, "rms {}", fit.rms_error);
        // Off-grid check: the fit generalizes between sample points.
        let w = 3.137;
        let h_ref = reference.transfer_at(C64::from_imag(w));
        let h_fit = fit.model.transfer_at(C64::from_imag(w));
        assert!((&h_ref - &h_fit).max_abs() < 1e-4);
    }

    #[test]
    fn overfitting_order_still_stable() {
        // More poles than the reference needs: fit stays stable and tight.
        let reference = generate_case(&CaseSpec::new(6, 2).with_seed(2)).unwrap();
        let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, 150).unwrap();
        let fit = vector_fit(&samples, &VectorFitOptions::new(10)).unwrap();
        assert!(fit.rms_error < 1e-5, "rms {}", fit.rms_error);
        for col in fit.model.columns() {
            for pole in &col.poles {
                assert!(pole.is_stable());
            }
        }
    }

    #[test]
    fn noisy_samples_fit_within_noise_floor() {
        let reference = generate_case(&CaseSpec::new(8, 2).with_seed(7)).unwrap();
        let mut samples = Vec::new();
        let mut omegas = Vec::new();
        let count = 140;
        let mut lcg = 0xDEADBEEFu64;
        let mut noise = || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((lcg >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 2e-4
        };
        for k in 0..count {
            let w = 0.01 + 12.0 * k as f64 / (count - 1) as f64;
            let mut h = reference.eval(C64::from_imag(w));
            for i in 0..2 {
                for j in 0..2 {
                    h[(i, j)] += C64::new(noise(), noise());
                }
            }
            omegas.push(w);
            samples.push(h);
        }
        let samples = FrequencySamples::new(omegas, samples).unwrap();
        let fit = vector_fit(&samples, &VectorFitOptions::new(8)).unwrap();
        assert!(fit.rms_error < 5e-4, "rms {}", fit.rms_error);
    }

    #[test]
    fn rejects_degenerate_options() {
        let reference = generate_case(&CaseSpec::new(4, 2).with_seed(1)).unwrap();
        let samples = FrequencySamples::from_model(&reference, 0.1, 10.0, 30).unwrap();
        assert!(vector_fit(&samples, &VectorFitOptions::new(0)).is_err());
        assert!(vector_fit(&samples, &VectorFitOptions::new(4).with_iterations(0)).is_err());
        // Far too many poles for the sample count.
        assert!(vector_fit(&samples, &VectorFitOptions::new(60)).is_err());
    }

    #[test]
    fn state_space_conversion_matches_model() {
        let reference = generate_case(&CaseSpec::new(8, 2).with_seed(6)).unwrap();
        let samples = FrequencySamples::from_model(&reference, 0.01, 12.0, 100).unwrap();
        let fit = vector_fit(&samples, &VectorFitOptions::new(6)).unwrap();
        let ss = fit.state_space();
        assert_eq!(ss.ports(), 2);
        assert_eq!(ss.order(), fit.model.order());
        let s = C64::from_imag(2.4);
        assert!((&fit.model.eval(s) - &ss.transfer(s)).max_abs() < 1e-11);
    }

    #[test]
    fn pair_spectrum_flips_unstable() {
        let eigs = vec![
            C64::new(0.5, 3.0),
            C64::new(0.5, -3.0),
            C64::new(2.0, 0.0),
            C64::new(-1.0, 0.0),
        ];
        let poles = pair_spectrum(&eigs);
        assert_eq!(poles.len(), 3);
        for p in &poles {
            assert!(p.is_stable(), "{p:?}");
        }
        assert!(poles.iter().any(|p| matches!(p, Pole::Pair { re, im }
            if (*re + 0.5).abs() < 1e-12 && (*im - 3.0).abs() < 1e-12)));
    }
}
