//! Differential-oracle fuzzer.
//!
//! Sweeps the three `mmrepl-sim` differential oracles (dense planner vs
//! naive reference, unbounded delta-replan vs cold plan, DES vs Eq. 5)
//! over a deterministic range of seeds and exits non-zero on the first
//! failing sweep, printing each failure's minimized counterexample.
//!
//! ```text
//! cargo run --release -p mmrepl-bench --bin fuzz -- --seeds 64
//! cargo run -p mmrepl-bench --bin fuzz -- --seeds 8 --start 1000
//! ```
//!
//! A debug build (no `--release`) also runs the invariant auditor after
//! every planner stage of every oracle case.
//!
//! Runs are deterministic in `(--start, --seeds)`: the same range always
//! exercises the same systems, so a CI failure reproduces locally with
//! the printed seed alone.

use mmrepl_sim::fuzz;

fn main() {
    let mut seeds = 16u64;
    let mut start = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                seeds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seeds needs a number");
            }
            "--start" => {
                start = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--start needs a number");
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: fuzz [--seeds N] [--start SEED]");
                std::process::exit(2);
            }
        }
    }

    let report = fuzz(start, seeds);
    println!(
        "fuzz: {}/{} oracle cases passed over seeds {start}..{} (audit hooks {})",
        report.passed,
        report.cases,
        start + seeds,
        if cfg!(debug_assertions) {
            "compiled in"
        } else {
            "compiled out"
        }
    );
    if report.is_clean() {
        return;
    }
    for f in &report.failures {
        eprintln!("FAIL [{}] seed {}: {}", f.oracle, f.seed, f.detail);
        if let Some(min) = &f.minimized {
            eprintln!("  {min}");
        }
    }
    std::process::exit(1);
}
