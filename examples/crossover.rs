//! The Sec. I/III complexity claim: the full dense Hamiltonian
//! eigensolution scales as `O(n^3)` and is overtaken by the structured
//! multi-shift Arnoldi sweep as the dynamic order grows.
//!
//! Times both paths on the same models over an n sweep (median of five
//! runs each); the crossover — and the diverging gap beyond it —
//! reproduces the paper's motivation for abandoning the full
//! eigensolution. The dense column stops at n = 160.
//!
//! Usage: cargo run --release --example crossover

use pheig_core::solver::{find_imaginary_eigenvalues, SolverOptions};
use pheig_hamiltonian::dense_hamiltonian;
use pheig_linalg::eig::eig_real;
use pheig_model::generator::{generate_case, CaseSpec};
use std::hint::black_box;
use std::time::Instant;

const DENSE_MAX_ORDER: usize = 160;

/// Median wall time of five runs of `f`, in milliseconds.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

fn main() {
    println!("# dense full eigensolution vs multi-shift Arnoldi sweep (p = 4, median of 5)");
    println!("# {:>5} {:>12} {:>14}", "n", "dense[ms]", "multishift[ms]");
    for n in [24usize, 48, 96, 160, 320, 640] {
        let ss = generate_case(&CaseSpec::new(n, 4).with_seed(2).with_target_crossings(4))
            .expect("case generation")
            .realize();
        let dense = (n <= DENSE_MAX_ORDER).then(|| {
            median_ms(|| {
                let m = dense_hamiltonian(&ss).expect("dense Hamiltonian");
                black_box(eig_real(&m).expect("dense eigensolution"));
            })
        });
        let sweep = median_ms(|| {
            black_box(find_imaginary_eigenvalues(&ss, &SolverOptions::default()).expect("sweep"));
        });
        match dense {
            Some(d) => println!("{n:>7} {d:>12.2} {sweep:>14.2}"),
            None => println!("{n:>7} {:>12} {sweep:>14.2}", "-"),
        }
    }
}
