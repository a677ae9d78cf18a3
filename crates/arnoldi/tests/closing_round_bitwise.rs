//! Bit-identity of the round-closing kernels: the blocked combine and the
//! batched chain-order dot over split planes must return exactly the bits
//! of the interleaved `vector::axpy` / `vector::dot` chains they replaced
//! (DESIGN.md, "Closing a round") — the sweep's golden work counts hang on
//! every rounded value. The last test pins the other consumer of those
//! kernels, the CGS2 build itself, to recorded bit hashes.

mod common;

use common::row;
use pheig_arnoldi::krylov::{arnoldi_into, ArnoldiFactorization};
use pheig_linalg::kernels::{self, SplitBasis};
use pheig_linalg::vector::{axpy, dot, normalize};
use pheig_linalg::{Matrix, C64};

/// Odd on purpose: exercises every chunk remainder of the plane kernels.
const N: usize = 37;

fn cvec(n: usize, seed: u64) -> Vec<C64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            let mut draw = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            C64::new(draw(), draw())
        })
        .collect()
}

fn split_basis(vectors: &[Vec<C64>]) -> SplitBasis {
    let mut sb = SplitBasis::new();
    sb.reset(N);
    for v in vectors {
        sb.push_interleaved(v);
    }
    sb
}

fn assert_bits(planes: (&[f64], &[f64]), want: &[C64], what: &str) {
    for (j, w) in want.iter().enumerate() {
        assert_eq!(
            (planes.0[j].to_bits(), planes.1[j].to_bits()),
            (w.re.to_bits(), w.im.to_bits()),
            "{what}: element {j}"
        );
    }
}

#[test]
fn combine_equals_the_interleaved_axpy_chain() {
    for rows in (0..=9).chain([60]) {
        for locked_rows in [0usize, 3] {
            let basis: Vec<Vec<C64>> = (0..rows).map(|r| cvec(N, 10 + r as u64)).collect();
            let locked: Vec<Vec<C64>> = (0..locked_rows).map(|r| cvec(N, 500 + r as u64)).collect();
            let c = cvec(rows, 900);
            let cl = cvec(locked_rows, 901);
            // The chain: one interleaved axpy per basis vector, then one
            // per locked vector, into a zeroed accumulator.
            let mut want = vec![C64::zero(); N];
            for (ci, v) in c.iter().zip(&basis) {
                axpy(*ci, v, &mut want);
            }
            for (ci, q) in cl.iter().zip(&locked) {
                axpy(*ci, q, &mut want);
            }
            let (mut wr, mut wi) = (vec![0.0; N], vec![0.0; N]);
            split_basis(&basis).combine_into(rows, &c, &mut wr, &mut wi);
            split_basis(&locked).combine_into(locked_rows, &cl, &mut wr, &mut wi);
            assert_bits(
                (&wr, &wi),
                &want,
                &format!("rows {rows}, locked {locked_rows}"),
            );
            // ... and the chain-order norm that follows every lift.
            let norm = normalize(&mut want);
            assert_eq!(kernels::nrm2_seq(&wr, &wi).to_bits(), norm.to_bits());
        }
    }
}

#[test]
fn combine_stops_at_the_requested_row() {
    let basis: Vec<Vec<C64>> = (0..7).map(|r| cvec(N, 40 + r)).collect();
    let c = cvec(7, 902);
    let mut want = vec![C64::zero(); N];
    for (ci, v) in c.iter().zip(&basis).take(5) {
        axpy(*ci, v, &mut want);
    }
    let (mut wr, mut wi) = (vec![0.0; N], vec![0.0; N]);
    split_basis(&basis).combine_into(5, &c, &mut wr, &mut wi);
    assert_bits((&wr, &wi), &want, "first five of seven rows");
}

#[test]
fn batched_projection_equals_the_interleaved_dot_matrix() {
    for mq in 1..=13usize {
        let q: Vec<Vec<C64>> = (0..mq).map(|r| cvec(N, 100 + r as u64)).collect();
        let w: Vec<Vec<C64>> = (0..mq).map(|r| cvec(N, 200 + r as u64)).collect();
        let want = Matrix::from_fn(mq, mq, |i, j| dot(&q[i], &w[j]));
        let (qs, ws) = (split_basis(&q), split_basis(&w));
        let mut col = vec![C64::zero(); mq];
        for j in 0..mq {
            let (wr, wi) = ws.row(j);
            qs.dot_seq_into(wr, wi, &mut col);
            for i in 0..mq {
                assert_eq!(
                    (col[i].re.to_bits(), col[i].im.to_bits()),
                    (want[(i, j)].re.to_bits(), want[(i, j)].im.to_bits()),
                    "T[{i}][{j}] at mq = {mq}"
                );
            }
            // The single-row form the locking Gram-Schmidt uses.
            let (qr, qi) = qs.row(j % mq);
            let single = kernels::dot_seq(qr, qi, wr, wi);
            assert_eq!(single, want[(j % mq, j)]);
        }
    }
}

#[test]
fn lift_equals_the_interleaved_chain_on_a_real_factorization() {
    // A deflated factorization, so the basis planes come out of the same
    // build path the sweep uses.
    let n = 24;
    let d: Vec<C64> = (0..n)
        .map(|i| C64::new(i as f64 * 0.7 - 5.0, (i % 4) as f64 * 0.3))
        .collect();
    let op = Matrix::from_diag(&d);
    let mut e0 = vec![C64::zero(); n];
    e0[3] = C64::one();
    let start = cvec(n, 7);
    let mut fact = ArnoldiFactorization::empty();
    for steps in [1usize, 2, 5, 9, 13] {
        arnoldi_into(&op, &start, std::slice::from_ref(&e0), steps, &mut fact);
        assert_eq!(fact.steps, steps);
        let y = cvec(steps, 300 + steps as u64);
        let mut want = vec![C64::zero(); n];
        for (j, yj) in y.iter().enumerate() {
            axpy(*yj, &row(&fact, j), &mut want);
        }
        normalize(&mut want);
        let got = fact.lift(&y);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                (g.re.to_bits(), g.im.to_bits()),
                (w.re.to_bits(), w.im.to_bits()),
                "lift at {steps} steps"
            );
        }
    }
}

/// FNV-1a over the bits of a stream of `f64`s.
struct BitHash(u64);

impl BitHash {
    fn new() -> Self {
        BitHash(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

#[test]
fn absorb_keeps_every_bit_of_the_deflated_factorization() {
    // The CGS2 `absorb` path end to end: 40 steps at an n that leaves a
    // column tail (203 = 50 tiles of four + 3), against five locked
    // vectors (one block of four rows + a one-row tail), with the basis
    // growing through every `rows % 4`. The hashes are those of the
    // four-row scalar `basis_dot` body, recorded at the commit before the
    // row-lane body replaced it on AVX2 / AVX-512 hosts; the arithmetic is
    // plain IEEE multiply / add in a fixed order, so they hold on every
    // SIMD tier.
    let n = 203;
    let steps = 40;
    let d: Vec<C64> = cvec(n, 77).iter().map(|z| z.scale(8.0)).collect();
    let op = Matrix::from_diag(&d);
    // An orthonormal deflation set (modified Gram-Schmidt, interleaved).
    let mut locked: Vec<Vec<C64>> = Vec::new();
    for k in 0..5 {
        let mut q = cvec(n, 600 + k);
        for p in &locked {
            let c = dot(p, &q);
            axpy(-c, p, &mut q);
        }
        normalize(&mut q);
        locked.push(q);
    }
    let mut fact = ArnoldiFactorization::empty();
    arnoldi_into(&op, &cvec(n, 9), &locked, steps, &mut fact);
    assert_eq!(fact.steps, steps);
    assert!(!fact.breakdown);

    let (mut h, mut hl, mut basis) = (BitHash::new(), BitHash::new(), BitHash::new());
    for j in 0..steps {
        h.feed((0..=steps).flat_map(|i| [fact.h[(i, j)].re, fact.h[(i, j)].im]));
        hl.feed((0..locked.len()).flat_map(|q| [fact.hl[(q, j)].re, fact.hl[(q, j)].im]));
    }
    // Element order of the interleaved vectors the hash was recorded on.
    assert_eq!(fact.basis_split().rows(), steps + 1);
    for r in 0..=steps {
        let (re, im) = fact.basis_split().row(r);
        basis.feed(re.iter().zip(im).flat_map(|(&a, &b)| [a, b]));
    }
    assert_eq!(
        (h.0, hl.0, basis.0),
        (0x94534041c2c7c1ba, 0x1b6107130c31dee1, 0xe676ae087e36a674),
        "h / hl / basis bit hashes moved"
    );
}
