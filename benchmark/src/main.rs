//! The repo benchmark: five workloads, end-to-end metrics and per-layer
//! attribution, all measured from outside the program (see README.md).
//!
//! ```text
//! pheig-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, in process
//! pheig-benchmark run [--workload W] [--seed N] [--seconds S] [--trace]
//! pheig-benchmark repeat K [--trace] ...    K full sets, must agree within bounds
//! pheig-benchmark compare A.json B.json     apply each metric's bound, row by row
//! pheig-benchmark bless [--workload W]      regenerate golden/<workload>.json
//! pheig-benchmark smoke                     n = 96 sweep must read 948 matvecs
//! pheig-benchmark manifest                  print BENCHMARK.json from spec.rs
//! ```

#![forbid(unsafe_code)]

mod check;
mod compare;
mod harness;
mod host;
mod json;
mod probes;
mod runner;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match runner::main(start, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(usage) => {
            eprintln!("error: {usage}");
            ExitCode::from(2)
        }
    }
}
