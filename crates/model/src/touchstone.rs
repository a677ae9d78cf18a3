//! Touchstone v1 (`.sNp`) import/export: [`write_touchstone`] /
//! [`read_touchstone`] / [`read_touchstone_path`], a hardened
//! reader/writer for the format full-wave solvers and VNAs emit:
//! `!` comments, one option line
//!
//! ```text
//! # <Hz|kHz|MHz|GHz> <S|Y|Z> <RI|MA|DB> R <resistance>
//! ```
//!
//! (every token optional; defaults `GHz S MA R 50`), then one record per
//! frequency. Records may wrap across lines when the port count is known
//! (from the `.sNp` extension or an explicit hint). Two-port records use
//! the standard quirk ordering `S11 S21 S12 S22`; all other sizes are
//! row-major. A trailing two-port noise-parameter section (recognized,
//! per spec, by its frequency restarting below the last network-data
//! frequency) ends the network data and is skipped.
//! [`TouchstoneDeck::scattering_samples`] converts Y and Z parameters to
//! scattering form with the option-line reference resistance, so every
//! deck type can feed the scattering-based passivity pipeline.

use crate::error::ModelError;
use crate::samples::FrequencySamples;
use pheig_linalg::{Lu, Matrix, C64};
use std::fmt::Write as _;

/// Frequency unit of a Touchstone option line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreqUnit {
    /// Hertz.
    Hz,
    /// Kilohertz.
    KHz,
    /// Megahertz.
    MHz,
    /// Gigahertz (the Touchstone default).
    GHz,
}

impl FreqUnit {
    /// Multiplier to Hz.
    pub fn to_hz(self) -> f64 {
        match self {
            FreqUnit::Hz => 1.0,
            FreqUnit::KHz => 1e3,
            FreqUnit::MHz => 1e6,
            FreqUnit::GHz => 1e9,
        }
    }

    /// The option-line token.
    pub fn token(self) -> &'static str {
        match self {
            FreqUnit::Hz => "Hz",
            FreqUnit::KHz => "kHz",
            FreqUnit::MHz => "MHz",
            FreqUnit::GHz => "GHz",
        }
    }

    fn parse(token: &str) -> Option<FreqUnit> {
        match token.to_ascii_lowercase().as_str() {
            "hz" => Some(FreqUnit::Hz),
            "khz" => Some(FreqUnit::KHz),
            "mhz" => Some(FreqUnit::MHz),
            "ghz" => Some(FreqUnit::GHz),
            _ => None,
        }
    }
}

/// Network-parameter type of a Touchstone deck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParameterKind {
    /// Scattering parameters (the Touchstone default).
    Scattering,
    /// Admittance parameters.
    Admittance,
    /// Impedance parameters.
    Impedance,
}

impl ParameterKind {
    /// The option-line token.
    pub fn token(self) -> &'static str {
        match self {
            ParameterKind::Scattering => "S",
            ParameterKind::Admittance => "Y",
            ParameterKind::Impedance => "Z",
        }
    }

    fn parse(token: &str) -> Option<ParameterKind> {
        match token.to_ascii_uppercase().as_str() {
            "S" => Some(ParameterKind::Scattering),
            "Y" => Some(ParameterKind::Admittance),
            "Z" => Some(ParameterKind::Impedance),
            _ => None,
        }
    }
}

/// Complex-number encoding of a Touchstone deck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataFormat {
    /// Real/imaginary pairs.
    RealImag,
    /// Magnitude and angle in degrees (the Touchstone default).
    MagAngle,
    /// dB magnitude (`20 log10 |z|`) and angle in degrees.
    DbAngle,
}

impl DataFormat {
    /// The option-line token.
    pub fn token(self) -> &'static str {
        match self {
            DataFormat::RealImag => "RI",
            DataFormat::MagAngle => "MA",
            DataFormat::DbAngle => "DB",
        }
    }

    fn parse(token: &str) -> Option<DataFormat> {
        match token.to_ascii_uppercase().as_str() {
            "RI" => Some(DataFormat::RealImag),
            "MA" => Some(DataFormat::MagAngle),
            "DB" => Some(DataFormat::DbAngle),
            _ => None,
        }
    }

    fn decode(self, a: f64, b: f64) -> C64 {
        let polar = |mag: f64, deg: f64| {
            let rad = deg.to_radians();
            C64::new(mag * rad.cos(), mag * rad.sin())
        };
        match self {
            DataFormat::RealImag => C64::new(a, b),
            DataFormat::MagAngle => polar(a, b),
            DataFormat::DbAngle => polar(10f64.powf(a / 20.0), b),
        }
    }

    fn encode(self, z: C64) -> (f64, f64) {
        match self {
            DataFormat::RealImag => (z.re, z.im),
            DataFormat::MagAngle => (z.abs(), z.arg().to_degrees()),
            DataFormat::DbAngle => (20.0 * z.abs().max(1e-300).log10(), z.arg().to_degrees()),
        }
    }
}

/// Parsed Touchstone option line (`# <unit> <kind> <format> R <n>`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TouchstoneOptions {
    /// Frequency unit of the data lines.
    pub unit: FreqUnit,
    /// Parameter type (S, Y, or Z).
    pub kind: ParameterKind,
    /// Complex-number encoding.
    pub format: DataFormat,
    /// Reference resistance in ohms (the `R` entry).
    pub resistance: f64,
}

impl Default for TouchstoneOptions {
    /// The Touchstone v1 defaults: `# GHz S MA R 50`.
    fn default() -> Self {
        TouchstoneOptions {
            unit: FreqUnit::GHz,
            kind: ParameterKind::Scattering,
            format: DataFormat::MagAngle,
            resistance: 50.0,
        }
    }
}

impl TouchstoneOptions {
    fn parse(line_idx: usize, line: &str) -> Result<Self, ModelError> {
        let mut opts = TouchstoneOptions::default();
        let mut tokens = line.split_whitespace();
        while let Some(tok) = tokens.next() {
            if let Some(unit) = FreqUnit::parse(tok) {
                opts.unit = unit;
            } else if let Some(kind) = ParameterKind::parse(tok) {
                opts.kind = kind;
            } else if let Some(format) = DataFormat::parse(tok) {
                opts.format = format;
            } else if tok.eq_ignore_ascii_case("R") {
                let value = tokens.next().ok_or_else(|| {
                    ModelError::touchstone(line_idx, "R entry is missing its resistance value")
                })?;
                let r: f64 = value.parse().map_err(|_| {
                    ModelError::touchstone(line_idx, format!("unparsable resistance '{value}'"))
                })?;
                if !r.is_finite() || r <= 0.0 {
                    return Err(ModelError::touchstone(
                        line_idx,
                        format!("reference resistance must be positive, got {r}"),
                    ));
                }
                opts.resistance = r;
            } else {
                return Err(ModelError::touchstone(
                    line_idx,
                    format!("unknown option token '{tok}' (expected a frequency unit, S/Y/Z, RI/MA/DB, or R <ohms>)"),
                ));
            }
        }
        Ok(opts)
    }
}

/// A parsed Touchstone deck: the option line plus the tabulated matrices.
///
/// The matrices are stored exactly as declared by the option line (S, Y,
/// or Z values); [`TouchstoneDeck::scattering_samples`] converts to
/// scattering form.
#[derive(Debug, Clone)]
pub struct TouchstoneDeck {
    /// The parsed (or defaulted) option line.
    pub options: TouchstoneOptions,
    /// Frequencies (converted to rad/s) and matrices as declared.
    pub samples: FrequencySamples,
}

impl TouchstoneDeck {
    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.samples.ports()
    }

    /// The deck's samples as scattering parameters.
    ///
    /// S decks are returned as-is. Y and Z decks are converted with the
    /// option-line reference resistance `R0` (identical at every port):
    /// `S = (Z' - I)(Z' + I)^{-1}` with `Z' = Z / R0`, and
    /// `S = (I - Y')(I + Y')^{-1}` with `Y' = R0 * Y`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Linalg`] when `Z' + I` (resp. `I + Y'`) is
    /// singular at some frequency.
    pub fn scattering_samples(&self) -> Result<FrequencySamples, ModelError> {
        if self.options.kind == ParameterKind::Scattering {
            return Ok(self.samples.clone());
        }
        self.convert_to_scattering()
    }

    /// Consuming variant of [`TouchstoneDeck::scattering_samples`]: S decks
    /// hand their samples over without copying the matrix set.
    ///
    /// # Errors
    ///
    /// Same as [`TouchstoneDeck::scattering_samples`].
    pub fn into_scattering_samples(self) -> Result<FrequencySamples, ModelError> {
        if self.options.kind == ParameterKind::Scattering {
            return Ok(self.samples);
        }
        self.convert_to_scattering()
    }

    fn convert_to_scattering(&self) -> Result<FrequencySamples, ModelError> {
        let p = self.ports();
        let r0 = self.options.resistance;
        let eye = Matrix::<C64>::identity(p);
        let mut matrices = Vec::with_capacity(self.samples.len());
        for m in self.samples.matrices() {
            let normalized = match self.options.kind {
                ParameterKind::Impedance => m.map(|z| z.scale(1.0 / r0)),
                ParameterKind::Admittance => m.map(|z| z.scale(r0)),
                ParameterKind::Scattering => unreachable!("handled above"),
            };
            // Z: S = (Z' - I)(Z' + I)^{-1}; Y: S = (I - Y')(I + Y')^{-1}.
            // num and den are polynomials in the same matrix, so they
            // commute and the product equals den^{-1} num — one LU solve,
            // no explicit inverse.
            let (num, den) = match self.options.kind {
                ParameterKind::Impedance => (&normalized - &eye, &normalized + &eye),
                ParameterKind::Admittance => (&eye - &normalized, &eye + &normalized),
                ParameterKind::Scattering => unreachable!("only Y/Z reach the conversion"),
            };
            matrices.push(Lu::new(den)?.solve_matrix(&num)?);
        }
        FrequencySamples::new(self.samples.omegas().to_vec(), matrices)
    }
}

/// Record length (token count) of one frequency point for `p` ports.
fn record_len(p: usize) -> usize {
    1 + 2 * p * p
}

/// Infers the port count from a per-line token count, if `count - 1` is
/// twice a perfect square.
fn infer_ports(count: usize) -> Option<usize> {
    if count < 3 || !(count - 1).is_multiple_of(2) {
        return None;
    }
    let sq = (count - 1) / 2;
    let p = (sq as f64).sqrt().round() as usize;
    (p * p == sq).then_some(p)
}

/// Maps a flat value index to the `(row, col)` entry it encodes, applying
/// the standard two-port ordering quirk (`S11 S21 S12 S22`).
fn entry_position(p: usize, idx: usize) -> (usize, usize) {
    if p == 2 {
        [(0, 0), (1, 0), (0, 1), (1, 1)][idx]
    } else {
        (idx / p, idx % p)
    }
}

/// Parses a Touchstone v1 deck.
///
/// `ports` is the port count when known (e.g. from the `.sNp` file
/// extension); records may then wrap across any number of lines, as large
/// decks do. With `ports = None` each line must hold one complete record
/// and the port count is inferred from the token count of the first data
/// line.
///
/// Frequencies are converted from the option-line unit to rad/s
/// (`omega = 2 pi f`).
///
/// # Errors
///
/// Returns [`ModelError::TouchstoneSyntax`] on malformed option lines,
/// unparsable numbers, or truncated records, and propagates
/// [`FrequencySamples::new`] validation (ordering, shapes). Garbage input
/// never panics.
pub fn read_touchstone(text: &str, ports: Option<usize>) -> Result<TouchstoneDeck, ModelError> {
    let mut options: Option<TouchstoneOptions> = None;
    // (line_idx, value) for every numeric token, in order.
    let mut values: Vec<(usize, f64)> = Vec::new();
    let mut line_ports = ports;
    // Set when the port count was *inferred* from the first data line:
    // inference assumes one record per line, so every later data line must
    // repeat that width (a narrower continuation line means the deck wraps
    // records — e.g. a 4-port deck wrapped at 4 values per line would
    // otherwise mis-infer as 2-port and chunk the stream into garbage).
    let mut inferred_width: Option<usize> = None;
    for (line_idx, raw) in text.lines().enumerate() {
        let line = raw.split('!').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if options.is_some() {
                return Err(ModelError::touchstone(
                    line_idx,
                    "second option line (only one '#' line is allowed)",
                ));
            }
            if !values.is_empty() {
                return Err(ModelError::touchstone(
                    line_idx,
                    "option line must precede all data lines",
                ));
            }
            options = Some(TouchstoneOptions::parse(line_idx, rest)?);
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        // Touchstone v1 two-port decks may append a noise-parameter
        // section; per spec it is recognized by its frequency restarting
        // *below* the last network-data frequency. Check at record
        // boundaries only, so wrapped records are unaffected.
        if line_ports == Some(2) {
            let rec = record_len(2);
            if !values.is_empty() && values.len().is_multiple_of(rec) {
                let last_freq = values[values.len() - rec].1;
                if let Some(Ok(freq)) = tokens.first().map(|t| t.parse::<f64>()) {
                    // Strictly below per spec: a *duplicated* network
                    // frequency must fall through to the ordering error,
                    // not silently truncate the deck.
                    if freq < last_freq {
                        break; // noise section: network data is complete
                    }
                }
            }
        }
        if line_ports.is_none() {
            line_ports = Some(infer_ports(tokens.len()).ok_or_else(|| {
                ModelError::touchstone(
                    line_idx,
                    format!(
                        "cannot infer the port count from {} columns; pass the port count \
                         explicitly (wrapped records need it)",
                        tokens.len()
                    ),
                )
            })?);
            inferred_width = Some(tokens.len());
        } else if let Some(width) = inferred_width {
            if tokens.len() != width {
                return Err(ModelError::touchstone(
                    line_idx,
                    format!(
                        "line has {} columns but the first data line had {width}; records \
                         that wrap across lines need an explicit port count",
                        tokens.len()
                    ),
                ));
            }
        }
        for tok in tokens {
            let v: f64 = tok.parse().map_err(|_| {
                ModelError::touchstone(line_idx, format!("unparsable number '{tok}'"))
            })?;
            // f64::from_str happily parses "nan", "inf", and overflowing
            // literals like "1e999"; none of them is valid Touchstone data.
            if !v.is_finite() {
                return Err(ModelError::touchstone(
                    line_idx,
                    format!("non-finite number '{tok}'"),
                ));
            }
            values.push((line_idx, v));
        }
    }
    let options = options.unwrap_or_default();
    let p = line_ports.ok_or_else(|| ModelError::invalid("no data lines in touchstone input"))?;
    if p == 0 {
        return Err(ModelError::invalid("port count must be positive"));
    }
    let rec = record_len(p);
    if values.is_empty() {
        return Err(ModelError::invalid("no data lines in touchstone input"));
    }
    if !values.len().is_multiple_of(rec) {
        let &(line_idx, _) = values.last().expect("non-empty");
        return Err(ModelError::touchstone(
            line_idx,
            format!(
                "data ends mid-record: {} values is not a multiple of the {rec}-value \
                 record length for {p} port(s)",
                values.len()
            ),
        ));
    }
    let omega_per_unit = 2.0 * std::f64::consts::PI * options.unit.to_hz();
    let mut omegas = Vec::with_capacity(values.len() / rec);
    let mut matrices = Vec::with_capacity(values.len() / rec);
    for record in values.chunks_exact(rec) {
        omegas.push(record[0].1 * omega_per_unit);
        let mut m = Matrix::<C64>::zeros(p, p);
        for idx in 0..p * p {
            let (i, j) = entry_position(p, idx);
            let (a, b) = (record[1 + 2 * idx].1, record[2 + 2 * idx].1);
            let z = options.format.decode(a, b);
            // Finite tokens can still decode non-finite: the DB format's
            // 10^(a/20) overflows f64 past a ~= 6165 dB.
            if !z.is_finite() {
                return Err(ModelError::touchstone(
                    record[1 + 2 * idx].0,
                    format!(
                        "({a}, {b}) decodes to a non-finite value in {} format",
                        options.format.token()
                    ),
                ));
            }
            m[(i, j)] = z;
        }
        matrices.push(m);
    }
    let samples = FrequencySamples::new(omegas, matrices)?;
    Ok(TouchstoneDeck { options, samples })
}

/// Reads a Touchstone deck from a file, inferring the port count from the
/// standard `.sNp` extension when present.
///
/// # Errors
///
/// Every failure — I/O or parse — comes back wrapped in
/// [`ModelError::InFile`] so the offending path survives alongside the
/// underlying cause — batch tooling reading many decks needs both.
pub fn read_touchstone_path(
    path: impl AsRef<std::path::Path>,
) -> Result<TouchstoneDeck, ModelError> {
    let path = path.as_ref();
    let ports = path.extension().and_then(|e| e.to_str()).and_then(|ext| {
        let ext = ext.to_ascii_lowercase();
        let digits = ext.strip_prefix('s')?.strip_suffix('p')?;
        digits.parse::<usize>().ok().filter(|&p| p > 0)
    });
    let text = std::fs::read_to_string(path)
        .map_err(|e| ModelError::in_file(path, ModelError::invalid(format!("cannot read: {e}"))))?;
    read_touchstone(&text, ports).map_err(|e| ModelError::in_file(path, e))
}

/// Serializes scattering samples as a Touchstone v1 deck.
///
/// Frequencies are converted from rad/s to the requested unit; records are
/// written one per line (the form [`read_touchstone`] accepts with or
/// without a port-count hint) with the two-port ordering quirk applied.
pub fn write_touchstone(samples: &FrequencySamples, options: &TouchstoneOptions) -> String {
    let p = samples.ports();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "! pheig touchstone export, {p} port(s), {} points",
        samples.len()
    );
    let _ = writeln!(
        out,
        "# {} {} {} R {}",
        options.unit.token(),
        options.kind.token(),
        options.format.token(),
        options.resistance
    );
    let unit_per_omega = 1.0 / (2.0 * std::f64::consts::PI * options.unit.to_hz());
    for (k, &w) in samples.omegas().iter().enumerate() {
        let m = &samples.matrices()[k];
        let _ = write!(out, "{:.16e}", w * unit_per_omega);
        for idx in 0..p * p {
            let (i, j) = entry_position(p, idx);
            let (a, b) = options.format.encode(m[(i, j)]);
            let _ = write!(out, " {a:.16e} {b:.16e}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_case, CaseSpec};

    fn reference_samples(p: usize, seed: u64) -> FrequencySamples {
        let model = generate_case(&CaseSpec::new(4 * p, p).with_seed(seed)).unwrap();
        FrequencySamples::from_model(&model, 0.1, 9.0, 12).unwrap()
    }

    fn assert_samples_close(a: &FrequencySamples, b: &FrequencySamples, tol: f64) {
        assert_eq!(a.ports(), b.ports());
        assert_eq!(a.len(), b.len());
        for k in 0..a.len() {
            let w = a.omegas()[k];
            assert!(
                (b.omegas()[k] - w).abs() <= 1e-12 * w.max(1.0),
                "omega[{k}]: {} vs {w}",
                b.omegas()[k]
            );
            assert!(
                (&a.matrices()[k] - &b.matrices()[k]).max_abs() < tol,
                "matrix {k} differs by {}",
                (&a.matrices()[k] - &b.matrices()[k]).max_abs()
            );
        }
    }

    #[test]
    fn touchstone_roundtrip_all_units_and_formats() {
        let samples = reference_samples(3, 11);
        for unit in [FreqUnit::Hz, FreqUnit::KHz, FreqUnit::MHz, FreqUnit::GHz] {
            for format in [
                DataFormat::RealImag,
                DataFormat::MagAngle,
                DataFormat::DbAngle,
            ] {
                let opts = TouchstoneOptions {
                    unit,
                    kind: ParameterKind::Scattering,
                    format,
                    resistance: 50.0,
                };
                let text = write_touchstone(&samples, &opts);
                let deck = read_touchstone(&text, Some(3)).unwrap();
                assert_eq!(deck.options, opts);
                assert_samples_close(&samples, &deck.samples, 1e-11);
            }
        }
    }

    #[test]
    fn touchstone_ports_inferred_per_line() {
        let samples = reference_samples(2, 3);
        let text = write_touchstone(&samples, &TouchstoneOptions::default());
        let deck = read_touchstone(&text, None).unwrap();
        assert_eq!(deck.ports(), 2);
        assert_samples_close(&samples, &deck.samples, 1e-11);
    }

    #[test]
    fn touchstone_two_port_ordering_quirk() {
        // One record, RI format: value slots are S11 S21 S12 S22.
        let text = "# Hz S RI R 50\n1.0  11.0 0.0  21.0 0.0  12.0 0.0  22.0 0.0\n";
        let deck = read_touchstone(text, None).unwrap();
        let m = &deck.samples.matrices()[0];
        assert_eq!(m[(0, 0)].re, 11.0);
        assert_eq!(m[(1, 0)].re, 21.0);
        assert_eq!(m[(0, 1)].re, 12.0);
        assert_eq!(m[(1, 1)].re, 22.0);
        // omega = 2 pi f.
        assert!((deck.samples.omegas()[0] - 2.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn touchstone_wrapped_records_and_comments() {
        // 2-port record wrapped across lines, with `!` comments everywhere.
        let text = "! header comment\n\
                    # MHz S RI R 75\n\
                    2.0  0.5 0.1  0.0 0.0   ! first half\n\
                    0.0 0.0  0.5 -0.1\n\
                    3.0  0.4 0.0  0.0 0.0\n\
                    0.0 0.0  0.4 0.0 ! trailing\n";
        let deck = read_touchstone(text, Some(2)).unwrap();
        assert_eq!(deck.samples.len(), 2);
        assert_eq!(deck.options.resistance, 75.0);
        assert_eq!(deck.options.unit, FreqUnit::MHz);
        let w = deck.samples.omegas()[0];
        assert!((w - 2.0 * std::f64::consts::PI * 2e6).abs() < 1e-3);
        assert_eq!(deck.samples.matrices()[0][(0, 0)], C64::new(0.5, 0.1));
    }

    #[test]
    fn touchstone_defaults_when_no_option_line() {
        // No '#': defaults GHz S MA R 50. One-port MA record: mag 0.5, 90deg.
        let deck = read_touchstone("1.0 0.5 90.0\n", None).unwrap();
        assert_eq!(deck.options, TouchstoneOptions::default());
        let z = deck.samples.matrices()[0][(0, 0)];
        assert!(z.re.abs() < 1e-15 && (z.im - 0.5).abs() < 1e-12, "{z:?}");
        assert!((deck.samples.omegas()[0] - 2.0 * std::f64::consts::PI * 1e9).abs() < 1e-3);
    }

    #[test]
    fn touchstone_impedance_converts_to_scattering() {
        // Z(s) constant 100 ohm one-port against R0 = 50:
        // S = (2 - 1)/(2 + 1) = 1/3.
        let text = "# Hz Z RI R 50\n1.0 100.0 0.0\n2.0 100.0 0.0\n";
        let deck = read_touchstone(text, None).unwrap();
        let s = deck.scattering_samples().unwrap();
        for m in s.matrices() {
            assert!((m[(0, 0)] - C64::from_real(1.0 / 3.0)).abs() < 1e-14);
        }
    }

    #[test]
    fn touchstone_admittance_converts_to_scattering() {
        // Y = 1/100 S one-port against R0 = 50: S = (1 - 0.5)/(1 + 0.5) = 1/3.
        let text = "# Hz Y RI R 50\n1.0 0.01 0.0\n";
        let deck = read_touchstone(text, None).unwrap();
        let s = deck.scattering_samples().unwrap();
        assert!((s.matrices()[0][(0, 0)] - C64::from_real(1.0 / 3.0)).abs() < 1e-14);
    }

    #[test]
    fn touchstone_malformed_option_lines_are_typed_errors() {
        let cases = [
            "# QHz S RI\n1.0 0.0 0.0\n",            // unknown unit
            "# GHz W RI\n1.0 0.0 0.0\n",            // unknown parameter
            "# GHz S XX\n1.0 0.0 0.0\n",            // unknown format
            "# GHz S RI R\n1.0 0.0 0.0\n",          // R missing value
            "# GHz S RI R beans\n1.0 0.0 0.0\n",    // R unparsable
            "# GHz S RI R -50\n1.0 0.0 0.0\n",      // R non-positive
            "# GHz S RI\n# Hz S RI\n1.0 0.0 0.0\n", // duplicate option line
            "1.0 0.0 0.0\n# GHz S RI\n",            // option line after data
        ];
        for text in cases {
            match read_touchstone(text, None) {
                Err(ModelError::TouchstoneSyntax { line, .. }) => assert!(line >= 1),
                other => panic!("{text:?}: expected TouchstoneSyntax, got {other:?}"),
            }
        }
    }

    #[test]
    fn touchstone_garbage_inputs_do_not_panic() {
        let cases = [
            "",                                      // empty
            "! only comments\n",                     // no data
            "# GHz S RI\n",                          // option line only
            "1.0 2.0\n",                             // un-inferable column count
            "# Hz S RI\n1.0 abc 0.0\n",              // unparsable number
            "# Hz S RI\n1.0 0.0 0.0\n1.0 0.0",       // truncated record (ports hint)
            "# Hz S RI\n2.0 0.0 0.0\n1.0 0.0 0.0\n", // non-increasing frequency
            "\u{0}\u{1}\u{2}binary garbage",         // binary noise
        ];
        for text in cases {
            assert!(read_touchstone(text, None).is_err(), "{text:?} should fail");
        }
        // Truncated wrapped record with explicit ports.
        assert!(matches!(
            read_touchstone("# Hz S RI\n1.0 0.0 0.0 0.0\n", Some(2)),
            Err(ModelError::TouchstoneSyntax { .. })
        ));
    }

    #[test]
    fn touchstone_two_port_noise_section_is_skipped() {
        // Standard VNA-style .s2p: network data followed by a noise
        // section whose frequency restarts below the last network point
        // (5 tokens per line: freq NFmin mag ang Rn).
        let text = "# Hz S RI R 50\n\
                    1.0  0.9 0.0  0.1 0.0  0.1 0.0  0.9 0.0\n\
                    2.0  0.8 0.0  0.2 0.0  0.2 0.0  0.8 0.0\n\
                    3.0  0.7 0.0  0.3 0.0  0.3 0.0  0.7 0.0\n\
                    1.5  2.3 0.4 110.0 0.3\n\
                    2.5  2.5 0.5 100.0 0.4\n";
        for ports in [Some(2), None] {
            let deck = read_touchstone(text, ports).unwrap();
            assert_eq!(deck.ports(), 2, "ports={ports:?}");
            assert_eq!(deck.samples.len(), 3, "noise rows must not become records");
            assert_eq!(deck.samples.matrices()[2][(0, 0)].re, 0.7);
        }
        // A *duplicated* network frequency is an ordering error, not a
        // silent noise-section truncation (the spec's noise frequencies
        // restart strictly below the last network point).
        let dup = "# Hz S RI R 50\n\
                   1.0  0.9 0.0  0.1 0.0  0.1 0.0  0.9 0.0\n\
                   1.0  0.8 0.0  0.2 0.0  0.2 0.0  0.8 0.0\n";
        assert!(read_touchstone(dup, Some(2)).is_err());
    }

    #[test]
    fn touchstone_into_scattering_avoids_error_paths_like_borrowing_variant() {
        let text = "# Hz Z RI R 50\n1.0 100.0 0.0\n";
        let deck = read_touchstone(text, None).unwrap();
        let borrowed = deck.scattering_samples().unwrap();
        let owned = deck.into_scattering_samples().unwrap();
        assert_eq!(owned.matrices()[0][(0, 0)], borrowed.matrices()[0][(0, 0)]);
        // S decks hand their samples through unchanged.
        let s_deck = read_touchstone("# Hz S RI\n1.0 0.25 -0.5\n", None).unwrap();
        let s = s_deck.into_scattering_samples().unwrap();
        assert_eq!(s.matrices()[0][(0, 0)], C64::new(0.25, -0.5));
    }

    #[test]
    fn touchstone_wrapped_deck_without_port_hint_is_rejected() {
        // Conventional 4-port deck wrapped at 4 complex values per line:
        // the first data line (freq + 8 values) would mis-infer as 2-port;
        // the narrower continuation lines must force a typed error asking
        // for an explicit port count, not a garbage parse.
        let samples = reference_samples(4, 8);
        let flat = write_touchstone(&samples, &TouchstoneOptions::default());
        let mut wrapped = String::new();
        for line in flat.lines() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            if line.starts_with(['!', '#']) || tokens.len() != 33 {
                wrapped.push_str(line);
                wrapped.push('\n');
                continue;
            }
            wrapped.push_str(&tokens[..9].join(" "));
            wrapped.push('\n');
            for chunk in tokens[9..].chunks(8) {
                wrapped.push_str(&chunk.join(" "));
                wrapped.push('\n');
            }
        }
        // With the hint the wrapped deck parses fine...
        let deck = read_touchstone(&wrapped, Some(4)).unwrap();
        assert_eq!(deck.ports(), 4);
        assert_eq!(deck.samples.len(), samples.len());
        // ...without it, the width mismatch is a typed error.
        match read_touchstone(&wrapped, None) {
            Err(ModelError::TouchstoneSyntax { message, .. }) => {
                assert!(message.contains("explicit port count"), "{message}");
            }
            other => panic!("expected TouchstoneSyntax, got {other:?}"),
        }
    }

    #[test]
    fn touchstone_path_extension_infers_ports() {
        let dir = std::env::temp_dir().join("pheig-touchstone-test");
        std::fs::create_dir_all(&dir).unwrap();
        let samples = reference_samples(3, 5);
        let text = write_touchstone(&samples, &TouchstoneOptions::default());
        let path = dir.join("case.S3P");
        std::fs::write(&path, &text).unwrap();
        let deck = read_touchstone_path(&path).unwrap();
        assert_eq!(deck.ports(), 3);
        assert_samples_close(&samples, &deck.samples, 1e-11);
        std::fs::remove_file(&path).ok();
        // Missing file is a typed error, not a panic.
        assert!(read_touchstone_path(dir.join("missing.s2p")).is_err());
    }

    #[test]
    fn touchstone_path_parse_errors_carry_the_path() {
        let dir = std::env::temp_dir().join("pheig-touchstone-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.s2p");
        std::fs::write(&path, "# GHz S RI R 50\nnot-a-number 0 0 0 0 0 0 0 0\n").unwrap();
        match read_touchstone_path(&path) {
            Err(e @ ModelError::InFile { .. }) => {
                let text = e.to_string();
                assert!(text.contains("broken.s2p"), "path missing: {text}");
                assert!(text.contains("line 2"), "line number missing: {text}");
                assert!(
                    matches!(
                        std::error::Error::source(&e)
                            .unwrap()
                            .downcast_ref::<ModelError>()
                            .unwrap(),
                        ModelError::TouchstoneSyntax { line: 2, .. }
                    ),
                    "inner error lost: {e:?}"
                );
            }
            other => panic!("expected InFile, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
