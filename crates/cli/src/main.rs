//! `mmrepl` — command-line front end for the replication toolkit.
//!
//! ```text
//! mmrepl generate  --seed 42 --scale small --out system.json
//! mmrepl inspect   --system system.json
//! mmrepl plan      --system system.json --storage 0.65 --out placement.json
//! mmrepl evaluate  --system system.json --placement placement.json --seed 42
//! mmrepl evaluate  --system system.json --policy lru --seed 42
//! mmrepl study     fig1                    # Figure 1 at paper scale into results/
//! mmrepl study     online --quick --runs 1 --out /tmp/results
//! ```
//!
//! Systems and placements travel as JSON, so plans can be diffed,
//! version-controlled and fed back in.

#![forbid(unsafe_code)]

mod args;
mod commands;
mod dash;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::Command::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(args::ParseError::Help) => {
            println!("{}", args::USAGE);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}\n\n{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}
