//! Split-complex (planar) kernels for the eigensolver hot path.
//!
//! The structured operators spend their time in length-`n` complex vector
//! sweeps. Interleaved `C64` storage forces every multiply through a
//! real/imaginary shuffle that the autovectorizer cannot untangle on
//! stable Rust; storing the real and imaginary parts in **separate f64
//! planes** turns every kernel into plain fused real arithmetic that LLVM
//! vectorizes directly. This module provides those kernels:
//!
//! * plane conversions ([`split`] / [`merge`]);
//! * fused single-pass BLAS-1 analogues ([`dot`], [`nrm2`], [`axpy`],
//!   [`scal_real`]) with chunk-unrolled independent accumulators;
//! * mixed real-matrix x complex-vector products ([`real_gemv`],
//!   [`real_gemv_t_acc`]) — two real gemvs fused into one pass per row;
//! * blocked multi-vector kernels against a basis ([`basis_dot`],
//!   [`basis_axpy_sub`]) that read the working vector once per block of
//!   four basis rows instead of once per row — the memory-traffic half of
//!   the blocked CGS2 orthogonalization in `pheig-arnoldi`. The dot's
//!   reductions run with *rows as SIMD lanes*: the four rows of a block
//!   are the four lanes of one accumulator pair fed from 4 x 4 tiles
//!   transposed in registers, `j` staying sequential within each lane, so
//!   every coefficient keeps the bits of a one-accumulator scalar loop;
//! * their *chain-order* twins ([`basis_axpy_add`], [`basis_dot_seq`],
//!   [`dot_seq`], [`nrm2_seq`], [`normalize_seq`]): the same
//!   four-rows-per-block bodies, but every element sees exactly the
//!   operations, in exactly the order, of a chain of interleaved
//!   [`crate::vector::axpy`] / [`crate::vector::dot`] calls, so they
//!   replace such chains bit for bit;
//! * [`SplitBasis`] — a contiguous row-major plane store for Krylov bases.
//!
//! Every kernel is allocation-free; callers own the planes (the
//! workspace-reuse contract of DESIGN.md extends to this layer).

use crate::complex::C64;
use crate::matrix::Matrix;

/// The widest SIMD tier this host executes, detected once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    /// Whatever the crate was compiled for (`x86-64`: SSE2, no FMA).
    Baseline,
    /// `avx2` + `fma`.
    Avx2,
    /// `avx512f` + `avx512dq` + `avx512vl` on top of [`Tier::Avx2`].
    Avx512,
}

/// The host's [`Tier`]: the one place features are detected, so every
/// `#[target_feature]` entry in this module is justified by one read.
fn tier() -> Tier {
    static TIER: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
    *TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") && has!("fma") {
                if has!("avx512f") && has!("avx512dq") && has!("avx512vl") {
                    return Tier::Avx512;
                }
                return Tier::Avx2;
            }
        }
        Tier::Baseline
    })
}

/// Runs `f` compiled for the widest SIMD tier the host supports.
///
/// Stable Rust compiles the workspace for baseline `x86-64` (SSE2, no
/// FMA); the kernels in this module are written so the loop vectorizer
/// can chew them, but the baseline ISA caps the win at two lanes and
/// splits every fused multiply-add. This helper is the standard stable
/// *function multiversioning* idiom: the closure is monomorphized into a
/// `#[target_feature]` wrapper, so everything that inlines into it —
/// including `#[inline(always)]` kernel bodies from this module — is
/// code-generated with AVX-512/AVX2 + FMA enabled, and the wrapper is
/// only entered on the tier whose detection covers every feature it
/// enables. On non-x86_64 targets (or pre-AVX2 hosts) the closure runs as
/// compiled.
///
/// Nesting is harmless (the tier is detected once and cached), so both
/// the individual kernels and whole operator pipelines wrap themselves.
#[inline]
pub fn with_simd<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
        fn run512<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        #[target_feature(enable = "avx2,fma")]
        fn run256<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        match tier() {
            // SAFETY: `tier()` reports `Avx512` only after detecting all
            // five features `run512` enables.
            Tier::Avx512 => return unsafe { run512(f) },
            // SAFETY: `tier()` reports `Avx2` only after detecting `avx2`
            // and `fma`.
            Tier::Avx2 => return unsafe { run256(f) },
            Tier::Baseline => {}
        }
    }
    f()
}

/// Unpacks interleaved complex values into separate re/im planes.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn split(x: &[C64], xr: &mut [f64], xi: &mut [f64]) {
    assert_eq!(x.len(), xr.len(), "split length mismatch");
    assert_eq!(x.len(), xi.len(), "split length mismatch");
    with_simd(
        #[inline(always)]
        || {
            for ((v, r), i) in x.iter().zip(xr.iter_mut()).zip(xi.iter_mut()) {
                *r = v.re;
                *i = v.im;
            }
        },
    );
}

/// Packs re/im planes back into interleaved complex values.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn merge(xr: &[f64], xi: &[f64], y: &mut [C64]) {
    assert_eq!(xr.len(), y.len(), "merge length mismatch");
    assert_eq!(xi.len(), y.len(), "merge length mismatch");
    with_simd(
        #[inline(always)]
        || {
            for ((v, r), i) in y.iter_mut().zip(xr.iter()).zip(xi.iter()) {
                *v = C64::new(*r, *i);
            }
        },
    );
}

/// Conjugated dot product `x^H y` over planes, one fused pass.
///
/// Four real reductions (`xr*yr`, `xi*yi`, `xr*yi`, `xi*yr`) share the
/// loads; chunk-unrolled accumulators keep the FP dependency chains
/// independent so the reduction pipelines.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn dot(xr: &[f64], xi: &[f64], yr: &[f64], yi: &[f64]) -> C64 {
    let n = xr.len();
    assert_eq!(xi.len(), n, "dot length mismatch");
    assert_eq!(yr.len(), n, "dot length mismatch");
    assert_eq!(yi.len(), n, "dot length mismatch");
    with_simd(
        #[inline(always)]
        || {
            let mut re = [0.0f64; 8];
            let mut im = [0.0f64; 8];
            let mut xrc = xr.chunks_exact(8);
            let mut xic = xi.chunks_exact(8);
            let mut yrc = yr.chunks_exact(8);
            let mut yic = yi.chunks_exact(8);
            for (((a, b), c), d) in (&mut xrc).zip(&mut xic).zip(&mut yrc).zip(&mut yic) {
                for k in 0..8 {
                    re[k] += a[k] * c[k] + b[k] * d[k];
                    im[k] += a[k] * d[k] - b[k] * c[k];
                }
            }
            let (mut sre, mut sim) = (re.iter().sum::<f64>(), im.iter().sum::<f64>());
            for (((a, b), c), d) in xrc
                .remainder()
                .iter()
                .zip(xic.remainder())
                .zip(yrc.remainder())
                .zip(yic.remainder())
            {
                sre += a * c + b * d;
                sim += a * d - b * c;
            }
            C64::new(sre, sim)
        },
    )
}

/// Squared Euclidean norm over planes, one fused pass.
///
/// # Panics
///
/// Panics if the plane lengths differ.
pub fn nrm2_sq(xr: &[f64], xi: &[f64]) -> f64 {
    let n = xr.len();
    assert_eq!(xi.len(), n, "nrm2 length mismatch");
    with_simd(
        #[inline(always)]
        || {
            let mut acc = [0.0f64; 8];
            let mut xrc = xr.chunks_exact(8);
            let mut xic = xi.chunks_exact(8);
            for (a, b) in (&mut xrc).zip(&mut xic) {
                for k in 0..8 {
                    acc[k] += a[k] * a[k] + b[k] * b[k];
                }
            }
            let mut s = acc.iter().sum::<f64>();
            for (a, b) in xrc.remainder().iter().zip(xic.remainder()) {
                s += a * a + b * b;
            }
            s
        },
    )
}

/// Euclidean norm `||x||_2` over planes.
pub fn nrm2(xr: &[f64], xi: &[f64]) -> f64 {
    nrm2_sq(xr, xi).sqrt()
}

/// Conjugated dot product `x^H y` over planes with a single sequential
/// accumulator: bit-identical to [`crate::vector::dot`] on the
/// interleaved vectors (unlike [`dot`], whose eight partial sums round
/// differently).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn dot_seq(xr: &[f64], xi: &[f64], yr: &[f64], yi: &[f64]) -> C64 {
    let n = xr.len();
    assert_eq!(xi.len(), n, "dot_seq length mismatch");
    assert_eq!(yr.len(), n, "dot_seq length mismatch");
    assert_eq!(yi.len(), n, "dot_seq length mismatch");
    with_simd(
        #[inline(always)]
        || dot_seq_impl(xr, xi, yr, yi),
    )
}

#[inline(always)]
fn dot_seq_impl(xr: &[f64], xi: &[f64], yr: &[f64], yi: &[f64]) -> C64 {
    let (mut re, mut im) = (0.0f64, 0.0f64);
    for (((a, b), c), d) in xr.iter().zip(xi).zip(yr).zip(yi) {
        re += a * c + b * d;
        im += a * d - b * c;
    }
    C64::new(re, im)
}

/// Euclidean norm over planes with a single sequential accumulator:
/// bit-identical to [`crate::vector::nrm2`] on the interleaved vector.
///
/// # Panics
///
/// Panics if the plane lengths differ.
pub fn nrm2_seq(xr: &[f64], xi: &[f64]) -> f64 {
    assert_eq!(xr.len(), xi.len(), "nrm2_seq length mismatch");
    let mut s = 0.0f64;
    for (a, b) in xr.iter().zip(xi) {
        s += a * a + b * b;
    }
    s.sqrt()
}

/// Scales `x` to unit norm over planes and returns the original
/// [`nrm2_seq`] norm — [`crate::vector::normalize`] on the interleaved
/// vector, up to the sign of zero entries. A zero vector is left untouched.
pub fn normalize_seq(xr: &mut [f64], xi: &mut [f64]) -> f64 {
    let norm = nrm2_seq(xr, xi);
    if norm > 0.0 {
        scal_real(1.0 / norm, xr, xi);
    }
    norm
}

/// `y += alpha * x` over planes, one fused pass.
///
/// # Panics
///
/// Panics if the plane lengths differ.
pub fn axpy(alpha: C64, xr: &[f64], xi: &[f64], yr: &mut [f64], yi: &mut [f64]) {
    let n = xr.len();
    assert_eq!(xi.len(), n, "axpy length mismatch");
    assert_eq!(yr.len(), n, "axpy length mismatch");
    assert_eq!(yi.len(), n, "axpy length mismatch");
    let (ar, ai) = (alpha.re, alpha.im);
    with_simd(
        #[inline(always)]
        || {
            for (((a, b), c), d) in xr
                .iter()
                .zip(xi.iter())
                .zip(yr.iter_mut())
                .zip(yi.iter_mut())
            {
                *c += ar * a - ai * b;
                *d += ar * b + ai * a;
            }
        },
    );
}

/// `x *= k` over planes (real scale; no cross terms).
///
/// # Panics
///
/// Panics if the plane lengths differ.
pub fn scal_real(k: f64, xr: &mut [f64], xi: &mut [f64]) {
    assert_eq!(xr.len(), xi.len(), "scal length mismatch");
    with_simd(
        #[inline(always)]
        || {
            for (a, b) in xr.iter_mut().zip(xi.iter_mut()) {
                *a *= k;
                *b *= k;
            }
        },
    );
}

/// Mixed product `y = M x` for a real matrix and a split complex vector:
/// each row is two real dot products sharing the row loads.
///
/// # Panics
///
/// Panics if `x` planes are not `m.cols()` long or `y` planes are not
/// `m.rows()` long.
pub fn real_gemv(m: &Matrix<f64>, xr: &[f64], xi: &[f64], yr: &mut [f64], yi: &mut [f64]) {
    let cols = m.cols();
    assert_eq!(xr.len(), cols, "real_gemv length mismatch");
    assert_eq!(xi.len(), cols, "real_gemv length mismatch");
    assert_eq!(yr.len(), m.rows(), "real_gemv output length mismatch");
    assert_eq!(yi.len(), m.rows(), "real_gemv output length mismatch");
    with_simd(
        #[inline(always)]
        || {
            for (i, (or, oi)) in yr.iter_mut().zip(yi.iter_mut()).enumerate() {
                let row = m.row(i);
                let mut re = [0.0f64; 4];
                let mut im = [0.0f64; 4];
                let mut rc = row.chunks_exact(4);
                let mut xrc = xr.chunks_exact(4);
                let mut xic = xi.chunks_exact(4);
                for ((a, b), c) in (&mut rc).zip(&mut xrc).zip(&mut xic) {
                    for k in 0..4 {
                        re[k] += a[k] * b[k];
                        im[k] += a[k] * c[k];
                    }
                }
                let (mut sre, mut sim) = (re.iter().sum::<f64>(), im.iter().sum::<f64>());
                for ((a, b), c) in rc
                    .remainder()
                    .iter()
                    .zip(xrc.remainder())
                    .zip(xic.remainder())
                {
                    sre += a * b;
                    sim += a * c;
                }
                *or = sre;
                *oi = sim;
            }
        },
    );
}

/// Mixed transposed accumulation `x += M^T u` for a real matrix and split
/// complex vectors: each matrix row becomes one fused two-plane axpy.
///
/// # Panics
///
/// Panics if `u` planes are not `m.rows()` long or `x` planes are not
/// `m.cols()` long.
pub fn real_gemv_t_acc(m: &Matrix<f64>, ur: &[f64], ui: &[f64], xr: &mut [f64], xi: &mut [f64]) {
    let cols = m.cols();
    assert_eq!(ur.len(), m.rows(), "real_gemv_t length mismatch");
    assert_eq!(ui.len(), m.rows(), "real_gemv_t length mismatch");
    assert_eq!(xr.len(), cols, "real_gemv_t output length mismatch");
    assert_eq!(xi.len(), cols, "real_gemv_t output length mismatch");
    with_simd(
        #[inline(always)]
        || {
            // Four rows per pass quarter the read-modify-write traffic on
            // the accumulator planes (each pass still streams its rows
            // exactly once).
            let mut i = 0;
            while i + 4 <= m.rows() {
                let (c0r, c0i) = (ur[i], ui[i]);
                let (c1r, c1i) = (ur[i + 1], ui[i + 1]);
                let (c2r, c2i) = (ur[i + 2], ui[i + 2]);
                let (c3r, c3i) = (ur[i + 3], ui[i + 3]);
                let r0 = m.row(i);
                let r1 = m.row(i + 1);
                let r2 = m.row(i + 2);
                let r3 = m.row(i + 3);
                for j in 0..cols {
                    let (a0, a1, a2, a3) = (r0[j], r1[j], r2[j], r3[j]);
                    xr[j] += a0 * c0r + a1 * c1r + a2 * c2r + a3 * c3r;
                    xi[j] += a0 * c0i + a1 * c1i + a2 * c2i + a3 * c3i;
                }
                i += 4;
            }
            while i < m.rows() {
                let (cr, ci) = (ur[i], ui[i]);
                let row = m.row(i);
                for ((a, b), c) in row.iter().zip(xr.iter_mut()).zip(xi.iter_mut()) {
                    *b += a * cr;
                    *c += a * ci;
                }
                i += 1;
            }
        },
    );
}

/// Batched conjugated inner products against a row-major basis:
/// `out[r] = q_r^H w` for `r` in `0..rows`.
///
/// Rows are processed four at a time so each block reads the working
/// vector once — the load half of the blocked CGS2 projection (a chain of
/// per-vector [`dot`]s would stream `w` from memory `rows` times). On
/// AVX2 / AVX-512 hosts the four rows of a block are the four lanes of
/// one SIMD accumulator pair; each row's reduction stays one sequential
/// chain over `j` on every tier.
///
/// # Panics
///
/// Panics if plane lengths are inconsistent with `rows * n` / `n`, or if
/// `out` is shorter than `rows`.
pub fn basis_dot(
    qr: &[f64],
    qi: &[f64],
    rows: usize,
    n: usize,
    wr: &[f64],
    wi: &[f64],
    out: &mut [C64],
) {
    basis_dot_checked::<false, false>(qr, qi, rows, n, wr, wi, out);
}

/// [`basis_dot`] with every row reduced by one sequential accumulator:
/// `out[r]` is bit-identical to `vector::dot(q_r, w)` on the interleaved
/// vectors. The four-row blocks are the same (they already are
/// sequential per row, on every SIMD tier); only the `rows % 4` tail swaps
/// the chunked [`dot`] for [`dot_seq`].
///
/// # Panics
///
/// As [`basis_dot`].
pub fn basis_dot_seq(
    qr: &[f64],
    qi: &[f64],
    rows: usize,
    n: usize,
    wr: &[f64],
    wi: &[f64],
    out: &mut [C64],
) {
    basis_dot_checked::<true, false>(qr, qi, rows, n, wr, wi, out);
}

/// [`basis_dot`] / [`basis_dot_seq`] with every block of four rows on the
/// scalar body, whatever the host: the reference
/// `tests/row_lane_dot_bitwise.rs` holds the row-lane body against.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn basis_dot_scalar_rows(
    seq_tail: bool,
    qr: &[f64],
    qi: &[f64],
    rows: usize,
    n: usize,
    wr: &[f64],
    wi: &[f64],
    out: &mut [C64],
) {
    if seq_tail {
        basis_dot_checked::<true, true>(qr, qi, rows, n, wr, wi, out);
    } else {
        basis_dot_checked::<false, true>(qr, qi, rows, n, wr, wi, out);
    }
}

/// Argument checks and SIMD dispatch shared by [`basis_dot`] and
/// [`basis_dot_seq`].
///
/// Rows go four to a block. On the AVX2 and AVX-512 tiers a block is the
/// four lanes of [`x86::dot_rows_x4`]; on the baseline tier (and under
/// `SCALAR_ROWS`) it runs through [`dot_rows_scalar`]. Both give each row
/// the one sequential accumulator pair of [`dot_seq`], so which body took
/// a block never shows in its bits. The `rows % 4` tail goes a row at a
/// time through [`dot`] / [`dot_seq`].
fn basis_dot_checked<const SEQ_TAIL: bool, const SCALAR_ROWS: bool>(
    qr: &[f64],
    qi: &[f64],
    rows: usize,
    n: usize,
    wr: &[f64],
    wi: &[f64],
    out: &mut [C64],
) {
    assert!(qr.len() >= rows * n, "basis_dot basis too short");
    assert!(qi.len() >= rows * n, "basis_dot basis too short");
    assert_eq!(wr.len(), n, "basis_dot length mismatch");
    assert_eq!(wi.len(), n, "basis_dot length mismatch");
    assert!(out.len() >= rows, "basis_dot output too short");
    let block = |r: usize, l: usize| (&qr[r * n..(r + l) * n], &qi[r * n..(r + l) * n]);
    let lanes = !SCALAR_ROWS && tier() >= Tier::Avx2;
    with_simd(
        #[inline(always)]
        || {
            let mut r = 0;
            while r + 4 <= rows {
                let (br, bi) = block(r, 4);
                let out: &mut [C64; 4] = (&mut out[r..r + 4]).try_into().expect("four rows");
                if lanes {
                    // SAFETY: `lanes` is set only on a tier at or above
                    // `Avx2`, which `tier()` reports only after detecting
                    // `avx2`.
                    #[cfg(target_arch = "x86_64")]
                    unsafe {
                        x86::dot_rows_x4(br, bi, n, wr, wi, out)
                    };
                } else {
                    let rows = block_rows(br, bi, n);
                    *out = dot_rows_scalar(&rows, 0, wr, wi, [0.0; 4], [0.0; 4]);
                }
                r += 4;
            }
            while r < rows {
                let (rr, ri) = block(r, 1);
                out[r] = if SEQ_TAIL {
                    dot_seq_impl(rr, ri, wr, wi)
                } else {
                    dot(rr, ri, wr, wi)
                };
                r += 1;
            }
        },
    );
}

/// The four rows of a block (`qr` / `qi`: its planes, `4 * n` long), each
/// sliced to exactly `n`, so a loop bounded by `n` is the bounds check of
/// every access to them.
#[inline(always)]
fn block_rows<'a>(qr: &'a [f64], qi: &'a [f64], n: usize) -> [(&'a [f64], &'a [f64]); 4] {
    std::array::from_fn(|k| (&qr[k * n..][..n], &qi[k * n..][..n]))
}

/// Columns `from..` of the four `rows` of a block against `w`, accumulated
/// onto `re` / `im` with one sequential accumulator pair per row: the whole
/// block on the baseline tier, and the `n % 4` column tail of the row-lane
/// body, which hands over the accumulators its tiles left.
#[inline(always)]
fn dot_rows_scalar(
    rows: &[(&[f64], &[f64]); 4],
    from: usize,
    wr: &[f64],
    wi: &[f64],
    mut re: [f64; 4],
    mut im: [f64; 4],
) -> [C64; 4] {
    for j in from..wr.len() {
        let (a, b) = (wr[j], wi[j]);
        for (k, (qr, qi)) in rows.iter().enumerate() {
            re[k] += qr[j] * a + qi[j] * b;
            im[k] += qr[j] * b - qi[j] * a;
        }
    }
    std::array::from_fn(|k| C64::new(re[k], im[k]))
}

/// The row-lane body of [`basis_dot_checked`]: a block of four basis rows
/// is the four lanes of one accumulator pair.
///
/// A 4 x 4 tile of each row-major plane is loaded a row at a time and
/// transposed in registers, so vector `k` of the tile holds column `j + k`
/// of all four rows; the columns are then consumed in `j` order against
/// `w[j + k]` broadcast. Each lane performs exactly the multiply / add /
/// subtract sequence of [`dot_rows_scalar`] for its row — no FMA, same `j`
/// order, same zero start — so the coefficients are bit-identical to the
/// scalar body's: the reduction moved across lanes, and was not
/// re-associated within one.
///
/// 256-bit vectors on the AVX-512 tier too: an eight-row, 512-bit form of
/// this body measured 6-20% *slower* on the reference host (every 512-bit
/// shuffle and FP operation shares two ports there; 256-bit ones spread
/// over three).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{block_rows, dot_rows_scalar, C64};
    use std::arch::x86_64::*;

    /// `qr` / `qi` are the planes of the block, `out` its coefficients.
    #[target_feature(enable = "avx2")]
    pub(super) fn dot_rows_x4(
        qr: &[f64],
        qi: &[f64],
        n: usize,
        wr: &[f64],
        wi: &[f64],
        out: &mut [C64; 4],
    ) {
        let (wr, wi) = (&wr[..n], &wi[..n]);
        let rows = block_rows(qr, qi, n);
        let (mut re, mut im) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let (mut tr, mut ti) = ([re; 4], [re; 4]);
        let mut j = 0;
        while j + 4 <= n {
            // (Plain loops in here: a closure handed to a `std` adapter
            // would not inherit `avx2`.)
            for k in 0..4 {
                tr[k] = load(rows[k].0, j);
                ti[k] = load(rows[k].1, j);
            }
            transpose(&mut tr);
            transpose(&mut ti);
            for k in 0..4 {
                let a = _mm256_set1_pd(wr[j + k]);
                let b = _mm256_set1_pd(wi[j + k]);
                let pr = _mm256_add_pd(_mm256_mul_pd(tr[k], a), _mm256_mul_pd(ti[k], b));
                let pi = _mm256_sub_pd(_mm256_mul_pd(tr[k], b), _mm256_mul_pd(ti[k], a));
                re = _mm256_add_pd(re, pr);
                im = _mm256_add_pd(im, pi);
            }
            j += 4;
        }
        *out = dot_rows_scalar(&rows, j, wr, wi, lanes(re), lanes(im));
    }

    /// `row[at..at + 4]` as one vector.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load(row: &[f64], at: usize) -> __m256d {
        let lanes: &[f64; 4] = row[at..at + 4].try_into().expect("four elements");
        // SAFETY: `lanes` is four readable `f64`s (the slicing above
        // checked the range); the load is unaligned. The safe spelling,
        // `_mm256_set_pd` of the four elements, does not fold to one load.
        unsafe { _mm256_loadu_pd(lanes.as_ptr()) }
    }

    /// In-register 4 x 4 transpose: on entry `t[r]` holds four columns of
    /// row `r`, on return `t[k]` holds column `k` of the four rows, row
    /// `r` in lane `r`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose(t: &mut [__m256d; 4]) {
        let [r0, r1, r2, r3] = *t;
        // Row pairs interleaved within 128-bit halves: even columns, odd.
        let (e01, o01) = (_mm256_unpacklo_pd(r0, r1), _mm256_unpackhi_pd(r0, r1));
        let (e23, o23) = (_mm256_unpacklo_pd(r2, r3), _mm256_unpackhi_pd(r2, r3));
        // 0x20 joins the low halves of the operands, 0x31 the high ones.
        *t = [
            _mm256_permute2f128_pd::<0x20>(e01, e23),
            _mm256_permute2f128_pd::<0x20>(o01, o23),
            _mm256_permute2f128_pd::<0x31>(e01, e23),
            _mm256_permute2f128_pd::<0x31>(o01, o23),
        ];
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn lanes(v: __m256d) -> [f64; 4] {
        let (lo, hi) = (_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
        [
            _mm_cvtsd_f64(lo),
            _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)),
            _mm_cvtsd_f64(hi),
            _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)),
        ]
    }
}

/// Batched projection removal `w -= sum_r c[r] * q_r` against a row-major
/// basis, four rows per pass over `w` — the store half of the blocked CGS2
/// projection.
///
/// # Panics
///
/// Panics if plane lengths are inconsistent with `rows * n` / `n`, or if
/// `c` is shorter than `rows`.
pub fn basis_axpy_sub(
    qr: &[f64],
    qi: &[f64],
    rows: usize,
    n: usize,
    c: &[C64],
    wr: &mut [f64],
    wi: &mut [f64],
) {
    basis_axpy_checked::<false>(qr, qi, rows, n, c, wr, wi);
}

/// Batched linear combination `w += sum_r c[r] * q_r` against a row-major
/// basis, four rows per pass over `w` — the one combine kernel behind
/// every Ritz-vector lift and image reconstruction in `pheig-arnoldi`.
///
/// Each element receives its `rows` terms in row order, each computed as
/// [`crate::vector::axpy`] computes it, so the result is bit-identical to
/// the chain `for r { vector::axpy(c[r], q_r, w) }` on interleaved
/// vectors; only the number of passes over `w` differs.
///
/// # Panics
///
/// As [`basis_axpy_sub`].
pub fn basis_axpy_add(
    qr: &[f64],
    qi: &[f64],
    rows: usize,
    n: usize,
    c: &[C64],
    wr: &mut [f64],
    wi: &mut [f64],
) {
    basis_axpy_checked::<true>(qr, qi, rows, n, c, wr, wi);
}

/// Argument checks and SIMD dispatch shared by [`basis_axpy_sub`] and
/// [`basis_axpy_add`].
fn basis_axpy_checked<const ADD: bool>(
    qr: &[f64],
    qi: &[f64],
    rows: usize,
    n: usize,
    c: &[C64],
    wr: &mut [f64],
    wi: &mut [f64],
) {
    assert!(qr.len() >= rows * n, "basis_axpy basis too short");
    assert!(qi.len() >= rows * n, "basis_axpy basis too short");
    assert_eq!(wr.len(), n, "basis_axpy length mismatch");
    assert_eq!(wi.len(), n, "basis_axpy length mismatch");
    assert!(c.len() >= rows, "basis_axpy coefficients too short");
    with_simd(
        #[inline(always)]
        || basis_axpy_impl::<ADD>(qr, qi, rows, n, c, wr, wi),
    );
}

/// `x + t` (`ADD`) or `x - t`: the one place the two batched axpy
/// flavours differ.
#[inline(always)]
fn acc<const ADD: bool>(x: f64, t: f64) -> f64 {
    if ADD {
        x + t
    } else {
        x - t
    }
}

#[inline(always)]
fn basis_axpy_impl<const ADD: bool>(
    qr: &[f64],
    qi: &[f64],
    rows: usize,
    n: usize,
    c: &[C64],
    wr: &mut [f64],
    wi: &mut [f64],
) {
    let mut r = 0;
    while r + 4 <= rows {
        let q0r = &qr[r * n..r * n + n];
        let q1r = &qr[(r + 1) * n..(r + 1) * n + n];
        let q2r = &qr[(r + 2) * n..(r + 2) * n + n];
        let q3r = &qr[(r + 3) * n..(r + 3) * n + n];
        let q0i = &qi[r * n..r * n + n];
        let q1i = &qi[(r + 1) * n..(r + 1) * n + n];
        let q2i = &qi[(r + 2) * n..(r + 2) * n + n];
        let q3i = &qi[(r + 3) * n..(r + 3) * n + n];
        let (c0, c1, c2, c3) = (c[r], c[r + 1], c[r + 2], c[r + 3]);
        for j in 0..n {
            let mut a = wr[j];
            let mut b = wi[j];
            a = acc::<ADD>(a, c0.re * q0r[j] - c0.im * q0i[j]);
            b = acc::<ADD>(b, c0.re * q0i[j] + c0.im * q0r[j]);
            a = acc::<ADD>(a, c1.re * q1r[j] - c1.im * q1i[j]);
            b = acc::<ADD>(b, c1.re * q1i[j] + c1.im * q1r[j]);
            a = acc::<ADD>(a, c2.re * q2r[j] - c2.im * q2i[j]);
            b = acc::<ADD>(b, c2.re * q2i[j] + c2.im * q2r[j]);
            a = acc::<ADD>(a, c3.re * q3r[j] - c3.im * q3i[j]);
            b = acc::<ADD>(b, c3.re * q3i[j] + c3.im * q3r[j]);
            wr[j] = a;
            wi[j] = b;
        }
        r += 4;
    }
    while r < rows {
        let alpha = if ADD { c[r] } else { -c[r] };
        axpy(alpha, &qr[r * n..r * n + n], &qi[r * n..r * n + n], wr, wi);
        r += 1;
    }
}

/// A contiguous, row-major split-complex basis: row `r` is the vector
/// `q_r`, its planes stored back to back so the batched kernels
/// ([`basis_dot`], [`basis_axpy_sub`]) can walk the whole basis without
/// pointer chasing.
///
/// Storage is reusable: [`SplitBasis::reset`] keeps the capacity, so a
/// workspace-owned basis allocates only while growing to its high-water
/// mark.
#[derive(Debug, Clone, Default)]
pub struct SplitBasis {
    re: Vec<f64>,
    im: Vec<f64>,
    n: usize,
    rows: usize,
}

impl SplitBasis {
    /// An empty basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the basis and fixes the vector length, keeping capacity.
    pub fn reset(&mut self, n: usize) {
        self.re.clear();
        self.im.clear();
        self.n = n;
        self.rows = 0;
    }

    /// Number of stored rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Vector length `n` of each row.
    pub fn row_len(&self) -> usize {
        self.n
    }

    /// `true` when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Appends a row from split planes.
    ///
    /// # Panics
    ///
    /// Panics if the plane lengths differ from the row length.
    pub fn push_split(&mut self, xr: &[f64], xi: &[f64]) {
        assert_eq!(xr.len(), self.n, "SplitBasis row length mismatch");
        assert_eq!(xi.len(), self.n, "SplitBasis row length mismatch");
        self.re.extend_from_slice(xr);
        self.im.extend_from_slice(xi);
        self.rows += 1;
    }

    /// Appends a row from an interleaved complex vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the row length.
    pub fn push_interleaved(&mut self, x: &[C64]) {
        assert_eq!(x.len(), self.n, "SplitBasis row length mismatch");
        self.re.extend(x.iter().map(|v| v.re));
        self.im.extend(x.iter().map(|v| v.im));
        self.rows += 1;
    }

    /// Drops rows beyond `rows`, keeping storage.
    pub fn truncate(&mut self, rows: usize) {
        if rows < self.rows {
            self.re.truncate(rows * self.n);
            self.im.truncate(rows * self.n);
            self.rows = rows;
        }
    }

    /// The stored planes, each `rows * n` long.
    pub fn planes(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// Batched conjugated inner products of every row against `w`:
    /// `out[r] = q_r^H w` (see [`basis_dot`]).
    pub fn dot_into(&self, wr: &[f64], wi: &[f64], out: &mut [C64]) {
        basis_dot(&self.re, &self.im, self.rows, self.n, wr, wi, out);
    }

    /// Planes of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> (&[f64], &[f64]) {
        assert!(r < self.rows, "SplitBasis row out of range");
        let span = r * self.n..(r + 1) * self.n;
        (&self.re[span.clone()], &self.im[span])
    }

    /// Chain-order inner products of every row against `w`:
    /// `out[r] = q_r^H w`, each bit-identical to `vector::dot` (see
    /// [`basis_dot_seq`]).
    pub fn dot_seq_into(&self, wr: &[f64], wi: &[f64], out: &mut [C64]) {
        basis_dot_seq(&self.re, &self.im, self.rows, self.n, wr, wi, out);
    }

    /// Linear combination of the first `rows` rows accumulated into `w`:
    /// `w += sum_{r < rows} c[r] q_r`, bit-identical to the chain of
    /// interleaved `vector::axpy` calls (see [`basis_axpy_add`]).
    ///
    /// # Panics
    ///
    /// Panics if `rows > self.rows()`.
    pub fn combine_into(&self, rows: usize, c: &[C64], wr: &mut [f64], wi: &mut [f64]) {
        assert!(rows <= self.rows, "SplitBasis combine past the last row");
        basis_axpy_add(&self.re, &self.im, rows, self.n, c, wr, wi);
    }

    /// One blocked classical Gram-Schmidt projection pass: computes
    /// `coeff[r] = q_r^H w` for every row, then removes the projections
    /// `w -= sum_r coeff[r] q_r`. Two passes of this are the CGS2
    /// orthogonalization.
    pub fn project_out(&self, wr: &mut [f64], wi: &mut [f64], coeff: &mut [C64]) {
        self.dot_into(wr, wi, coeff);
        basis_axpy_sub(&self.re, &self.im, self.rows, self.n, coeff, wr, wi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    fn cvec(n: usize, seed: u64) -> Vec<C64> {
        (0..n)
            .map(|i| {
                let t = (i as f64 + 1.0) * (seed as f64 * 0.37 + 0.71);
                C64::new(t.sin(), (t * 1.3).cos())
            })
            .collect()
    }

    fn planes(x: &[C64]) -> (Vec<f64>, Vec<f64>) {
        let mut r = vec![0.0; x.len()];
        let mut i = vec![0.0; x.len()];
        split(x, &mut r, &mut i);
        (r, i)
    }

    #[test]
    fn split_merge_roundtrip() {
        for n in [0usize, 1, 3, 4, 7, 16, 33] {
            let x = cvec(n, 2);
            let (r, i) = planes(&x);
            let mut back = vec![C64::zero(); n];
            merge(&r, &i, &mut back);
            assert_eq!(back, x);
        }
    }

    #[test]
    fn dot_matches_interleaved_reference() {
        for n in [1usize, 2, 3, 4, 5, 8, 13, 31, 64, 101] {
            let x = cvec(n, 3);
            let y = cvec(n, 5);
            let (xr, xi) = planes(&x);
            let (yr, yi) = planes(&y);
            let got = dot(&xr, &xi, &yr, &yi);
            let want = vector::dot(&x, &y);
            assert!((got - want).abs() < 1e-12 * (1.0 + want.abs()), "n={n}");
        }
    }

    #[test]
    fn nrm2_matches_interleaved_reference() {
        for n in [1usize, 4, 9, 27, 100] {
            let x = cvec(n, 7);
            let (xr, xi) = planes(&x);
            assert!((nrm2(&xr, &xi) - vector::nrm2(&x)).abs() < 1e-12);
        }
    }

    #[test]
    fn axpy_scal_match_interleaved_reference() {
        let alpha = C64::new(0.7, -1.2);
        for n in [1usize, 5, 12, 33] {
            let x = cvec(n, 11);
            let mut y = cvec(n, 13);
            let (xr, xi) = planes(&x);
            let (mut yr, mut yi) = planes(&y);
            axpy(alpha, &xr, &xi, &mut yr, &mut yi);
            vector::axpy(alpha, &x, &mut y);
            for j in 0..n {
                assert!((C64::new(yr[j], yi[j]) - y[j]).abs() < 1e-13);
            }
            scal_real(0.25, &mut yr, &mut yi);
            vector::scal(C64::from_real(0.25), &mut y);
            for j in 0..n {
                assert!((C64::new(yr[j], yi[j]) - y[j]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn real_gemv_matches_dense() {
        for (rows, cols) in [(3usize, 5usize), (4, 4), (7, 9), (1, 11)] {
            let m = Matrix::from_fn(rows, cols, |i, j| ((i * 7 + j) as f64 * 0.13).sin());
            let x = cvec(cols, 17);
            let (xr, xi) = planes(&x);
            let mut yr = vec![0.0; rows];
            let mut yi = vec![0.0; rows];
            real_gemv(&m, &xr, &xi, &mut yr, &mut yi);
            let want = m.to_c64().matvec(&x);
            for i in 0..rows {
                assert!((C64::new(yr[i], yi[i]) - want[i]).abs() < 1e-13);
            }
            // Transposed accumulation against the same dense reference.
            let u = cvec(rows, 19);
            let (ur, ui) = planes(&u);
            let mut xr2 = vec![0.0; cols];
            let mut xi2 = vec![0.0; cols];
            real_gemv_t_acc(&m, &ur, &ui, &mut xr2, &mut xi2);
            let want_t = m.to_c64().transpose().matvec(&u);
            for j in 0..cols {
                assert!((C64::new(xr2[j], xi2[j]) - want_t[j]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn basis_kernels_match_per_vector_loops() {
        // rows spanning the blocked (multiple of 4) and remainder paths.
        for rows in [1usize, 2, 3, 4, 5, 7, 8, 9] {
            let n = 23; // odd, exercises the chunk remainder
            let basis: Vec<Vec<C64>> = (0..rows).map(|r| cvec(n, 100 + r as u64)).collect();
            let mut sb = SplitBasis::new();
            sb.reset(n);
            for q in &basis {
                sb.push_interleaved(q);
            }
            let w = cvec(n, 999);
            let (mut wr, mut wi) = planes(&w);
            let mut coeff = vec![C64::zero(); rows];
            sb.project_out(&mut wr, &mut wi, &mut coeff);
            // Reference: classical GS with interleaved kernels.
            let mut w_ref = w.clone();
            let want: Vec<C64> = basis.iter().map(|q| vector::dot(q, &w)).collect();
            for (q, c) in basis.iter().zip(&want) {
                vector::axpy(-*c, q, &mut w_ref);
            }
            for (c, wc) in coeff.iter().zip(&want) {
                assert!((*c - *wc).abs() < 1e-12, "rows={rows}");
            }
            for j in 0..n {
                assert!(
                    (C64::new(wr[j], wi[j]) - w_ref[j]).abs() < 1e-12,
                    "rows={rows}"
                );
            }
        }
    }

    #[test]
    fn split_basis_storage_management() {
        let mut sb = SplitBasis::new();
        sb.reset(4);
        assert!(sb.is_empty());
        sb.push_split(&[1.0, 2.0, 3.0, 4.0], &[0.0; 4]);
        sb.push_interleaved(&cvec(4, 1));
        assert_eq!(sb.rows(), 2);
        assert_eq!(sb.row_len(), 4);
        assert_eq!(sb.planes().0.len(), 8);
        sb.truncate(1);
        assert_eq!(sb.rows(), 1);
        sb.reset(2);
        assert!(sb.is_empty());
        assert_eq!(sb.row_len(), 2);
    }
}
