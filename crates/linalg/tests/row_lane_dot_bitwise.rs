//! Bit-identity of the row-lane body of `basis_dot` / `basis_dot_seq`.
//!
//! On an AVX2 or AVX-512 host the batched dot runs every block of four
//! basis rows as the four lanes of one SIMD accumulator pair (4 x 4 tiles
//! transposed in registers). The sweep's golden work counts hang on every
//! rounded coefficient, so that body must return exactly the bits of the
//! scalar four-row body it replaced — which in turn gives every blocked
//! row the bits of a lone `dot_seq`. Both equalities are checked here for
//! every row-tail / column-tail combination, unaligned plane starts, and
//! non-finite and denormal inputs. On a baseline host the public entry
//! *is* the scalar body and the first check is vacuous; the second still
//! binds.

use pheig_linalg::kernels::{self, basis_dot, basis_dot_scalar_rows, basis_dot_seq};
use pheig_linalg::C64;

/// Deterministic values in `(-0.5, 0.5)`.
fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// Same bits, or both NaN (payload and sign of a NaN are not pinned: LLVM
/// may commute the operands of the add that produces it).
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same(got: &[C64], want: &[C64], what: &str) {
    for (r, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            same(g.re, w.re) && same(g.im, w.im),
            "{what}: row {r}: {g:?} vs {w:?}"
        );
    }
}

/// Runs both public entries over `rows x n` planes starting `offset`
/// elements into their allocations and checks them against the scalar
/// body and the per-row chain.
fn check(rows: usize, n: usize, offset: usize, plant: impl Fn(&mut [f64], &mut [f64], &mut [f64])) {
    let mut qr = fill(offset + rows * n, 1 + rows as u64);
    let mut qi = fill(offset + rows * n, 2 + n as u64);
    let mut wr = fill(offset + n, 3);
    let wi = fill(offset + n, 4);
    plant(&mut qr[offset..], &mut qi[offset..], &mut wr[offset..]);
    let (qr, qi) = (&qr[offset..], &qi[offset..]);
    let (wr, wi) = (&wr[offset..], &wi[offset..]);
    let what = format!("rows {rows}, n {n}, offset {offset}");

    for seq_tail in [false, true] {
        let mut got = vec![C64::new(f64::NAN, f64::NAN); rows];
        let mut scalar = got.clone();
        if seq_tail {
            basis_dot_seq(qr, qi, rows, n, wr, wi, &mut got);
        } else {
            basis_dot(qr, qi, rows, n, wr, wi, &mut got);
        }
        basis_dot_scalar_rows(seq_tail, qr, qi, rows, n, wr, wi, &mut scalar);
        assert_same(
            &got,
            &scalar,
            &format!("{what}, seq_tail {seq_tail}: vs scalar body"),
        );

        // Every blocked row (and, with a sequential tail, every row) is a
        // lone chain-order dot.
        let chained = if seq_tail { rows } else { rows - rows % 4 };
        let chain: Vec<C64> = (0..chained)
            .map(|r| kernels::dot_seq(&qr[r * n..(r + 1) * n], &qi[r * n..(r + 1) * n], wr, wi))
            .collect();
        assert_same(
            &got[..chained],
            &chain,
            &format!("{what}, seq_tail {seq_tail}: vs dot_seq"),
        );
    }
}

/// Every `rows % 4`, with and without full blocks, plus a Krylov-sized 60.
fn row_counts() -> impl Iterator<Item = usize> {
    (0..=25).chain([60])
}
const LENGTHS: [usize; 12] = [0, 1, 7, 8, 9, 15, 16, 17, 23, 64, 100, 2000];

#[test]
fn lane_body_equals_the_scalar_body_and_the_per_row_chain() {
    for rows in row_counts() {
        for n in LENGTHS {
            // Offsets 1 and 3 leave the planes 8- but not 32-byte aligned.
            for offset in [0, 1, 3] {
                check(rows, n, offset, |_, _, _| {});
            }
        }
    }
}

#[test]
fn signed_zeros_and_subnormals_keep_their_bits() {
    let tiny = f64::from_bits(1); // smallest subnormal
    for rows in row_counts() {
        for n in LENGTHS {
            check(rows, n, 1, |qr, qi, wr| {
                for (k, v) in qr.iter_mut().enumerate() {
                    match k % 7 {
                        0 => *v = 0.0,
                        1 => *v = -0.0,
                        2 => *v = tiny,
                        3 => *v = -f64::MIN_POSITIVE / 2.0,
                        _ => {}
                    }
                }
                for (k, v) in qi.iter_mut().enumerate() {
                    if k % 5 == 0 {
                        *v = -0.0;
                    }
                }
                for (k, v) in wr.iter_mut().enumerate() {
                    match k % 3 {
                        0 => *v = -0.0,
                        1 => *v = tiny,
                        _ => {}
                    }
                }
            });
        }
    }
}

#[test]
fn infinities_and_nans_propagate_alike() {
    for rows in row_counts() {
        for n in LENGTHS {
            // One infinite entry per other row (opposite signs, so sums of
            // them turn NaN mid-chain) and one infinite `w` element.
            check(rows, n, 3, |qr, qi, wr| {
                for r in (0..rows).step_by(2) {
                    if n > 2 {
                        qr[r * n + n / 2] = f64::INFINITY;
                        qi[r * n + n - 1] = f64::NEG_INFINITY;
                    }
                }
                if let Some(v) = wr.get_mut(n / 3) {
                    *v = f64::NEG_INFINITY;
                }
            });
            // A NaN in every third row only: its block neighbours stay
            // finite, lane by lane.
            check(rows, n, 0, |qr, _, _| {
                for r in (0..rows).step_by(3) {
                    if n > 0 {
                        qr[r * n + (r % n)] = f64::NAN;
                    }
                }
            });
        }
    }
}
