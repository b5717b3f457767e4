//! Runs the E-X7 control-plane negotiation study: the asynchronous
//! proposal/counter-proposal off-loading protocol under every
//! (strategy × fault scenario) grid cell, against the default plan
//! (greedy over a reliable bus).
//!
//! ```text
//! cargo run --release -p mmrepl-bench --bin negotiate
//! cargo run -p mmrepl-bench --bin negotiate -- --quick --central 0.2
//! ```
//!
//! `--central` sets the repository capacity fraction the runs are
//! squeezed to (default 0.3; lower forces more negotiation rounds).

use mmrepl_bench::BinArgs;
use mmrepl_sim::negotiate_study;

fn main() -> std::io::Result<()> {
    let args = BinArgs::from_env_with_extras(&["central"]);
    let central: f64 = args.extra_or("central", 0.3).unwrap_or_else(die);
    if !(0.0..=1.0).contains(&central) {
        die::<()>(format!("--central must be in [0, 1], got {central}"));
    }
    let study = negotiate_study(&args.config, central);
    let table = study.to_table();
    print!("{table}");
    std::fs::create_dir_all(&args.out_dir)?;
    std::fs::write(args.out_dir.join("negotiate.txt"), &table)?;
    std::fs::write(
        args.out_dir.join("negotiate.json"),
        serde_json::to_string_pretty(&study).expect("study serializes"),
    )?;
    Ok(())
}

fn die<T>(msg: String) -> T {
    eprintln!("{msg}");
    std::process::exit(2);
}
