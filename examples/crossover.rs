//! The Sec. I/III complexity claim, and where the solver switches: the
//! full dense Hamiltonian eigensolution scales as `O(n^3)` and is
//! overtaken by the structured multi-shift Arnoldi sweep as the dynamic
//! order grows — and below that crossover the dense solve wins.
//!
//! Both columns are `find_imaginary_eigenvalues` as the solver dispatches
//! it: "dense" with `dense_max = usize::MAX` (the whole spectrum plus an
//! eigenvector per crossing), "sweep" with `dense_max = 0`. Each time is
//! the median of five runs.
//!
//! The first table reproduces the paper's motivation at p = 4 (the dense
//! column stops at n = 160). The second covers the grid p in {2, 6, 20} x
//! crossing targets in {2, 10, 40} over n = 16..96 and prints the largest
//! `2n` at which the dense path was no slower than the sweep in every
//! cell; `SolverOptions::dense_max` defaults to that (capped at 190, below
//! the n = 96 sweep pins). Cells the generator cannot build (an order too
//! small for the port count) are left out.
//!
//! Usage: cargo run --release --example crossover

use pheig_core::solver::{find_imaginary_eigenvalues, SolverOptions, DEFAULT_DENSE_MAX};
use pheig_model::generator::{generate_case, CaseSpec};
use pheig_model::StateSpace;
use std::hint::black_box;
use std::time::Instant;

const DENSE_MAX_ORDER: usize = 160;
const GRID_PORTS: [usize; 3] = [2, 6, 20];
const GRID_CROSSINGS: [usize; 3] = [2, 10, 40];
const GRID_ORDERS: [usize; 11] = [16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96];
/// The default threshold may not reach the `2n = 192` of the pinned
/// n = 96 sweep.
const THRESHOLD_CAP: usize = 190;

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

/// Median time of one dispatched solve of `ss` with `dense_max`.
fn solve_ms(ss: &StateSpace, dense_max: usize) -> f64 {
    let opts = SolverOptions::default().with_dense_max(dense_max);
    median_ms(|| {
        black_box(find_imaginary_eigenvalues(ss, &opts).expect("solve"));
    })
}

fn main() {
    println!("# dense full eigensolution vs multi-shift Arnoldi sweep (p = 4, median of 5)");
    println!("# {:>5} {:>12} {:>14}", "n", "dense[ms]", "multishift[ms]");
    for n in [24usize, 48, 96, 160, 320, 640] {
        let ss = generate_case(&CaseSpec::new(n, 4).with_seed(2).with_target_crossings(4))
            .expect("case generation")
            .realize();
        let dense = (n <= DENSE_MAX_ORDER).then(|| solve_ms(&ss, usize::MAX));
        let sweep = solve_ms(&ss, 0);
        match dense {
            Some(d) => println!("{n:>7} {d:>12.2} {sweep:>14.2}"),
            None => println!("{n:>7} {:>12} {sweep:>14.2}", "-"),
        }
    }

    println!();
    println!("# dense / sweep time ratio per cell (p x crossing target), median of 5");
    print!("# {:>5}", "2n");
    for p in GRID_PORTS {
        for c in GRID_CROSSINGS {
            print!(" {:>9}", format!("p{p}c{c}"));
        }
    }
    println!();
    // The largest 2n up to which every measured cell had dense <= sweep.
    let mut largest = 0;
    let mut unbroken = true;
    for n in GRID_ORDERS {
        print!("{:>7}", 2 * n);
        let mut all_faster = true;
        for p in GRID_PORTS {
            for c in GRID_CROSSINGS {
                let spec = CaseSpec::new(n, p).with_seed(2).with_target_crossings(c);
                let Ok(case) = generate_case(&spec) else {
                    print!(" {:>9}", "-");
                    continue;
                };
                let ss = case.realize();
                let ratio = solve_ms(&ss, usize::MAX) / solve_ms(&ss, 0);
                all_faster &= ratio <= 1.0;
                print!(" {ratio:>9.3}");
            }
        }
        println!();
        unbroken &= all_faster;
        if unbroken {
            largest = 2 * n;
        }
    }
    println!(
        "# largest 2n with dense no slower in every cell: {largest} -> dense_max = {} \
         (default in use: {DEFAULT_DENSE_MAX})",
        largest.min(THRESHOLD_CAP)
    );
}
