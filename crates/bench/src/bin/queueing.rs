//! Runs the queueing-aware replay extension at scale: what does ignoring
//! the processing-capacity constraint actually cost users once queueing
//! delay is charged? Compares the planner's feasible placement against
//! the deliberately-infeasible all-local placement across capacity
//! levels.
//!
//! ```text
//! cargo run --release -p mmrepl-bench --bin queueing
//! cargo run -p mmrepl-bench --bin queueing -- --quick
//! ```

use mmrepl_baselines::StaticRouter;
use mmrepl_bench::BinArgs;
use mmrepl_core::{parallel_map, ReplicationPolicy};
use mmrepl_model::Placement;
use mmrepl_sim::queueing_replay;
use mmrepl_workload::{generate_trace, TraceConfig};

fn main() -> std::io::Result<()> {
    let args = BinArgs::from_env();
    let cfg = &args.config;
    let fractions = [0.4, 0.6, 0.8, 1.0];

    let per_run: Vec<Vec<(f64, f64, f64)>> = parallel_map(cfg.runs, cfg.threads, |run| {
        let seed = cfg
            .base_seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(run as u64);
        let system = mmrepl_workload::generate_system(&cfg.params, seed).expect("valid params");
        let traces = generate_trace(&system, &TraceConfig::from_params(&cfg.params), seed);
        fractions
            .iter()
            .map(|&f| {
                let sys_f = system.with_processing_fraction(f);
                let planned = ReplicationPolicy::new().plan(&sys_f).placement;
                let feasible =
                    queueing_replay(&sys_f, &traces, &mut StaticRouter::new(&planned, "ours"));
                let all_local = Placement::all_local(&sys_f);
                let infeasible =
                    queueing_replay(&sys_f, &traces, &mut StaticRouter::new(&all_local, "local"));
                (
                    feasible.mean_response(),
                    infeasible.mean_response(),
                    infeasible.site_waits.mean().map(|s| s.get()).unwrap_or(0.0),
                )
            })
            .collect()
    });

    let n = per_run.len() as f64;
    let mut table = format!(
        "# queueing extension — response time with queueing delay charged ({} runs)\n\
         {:>10} {:>16} {:>18} {:>18}\n",
        cfg.runs, "capacity", "planner (feas.)", "all-local (infeas.)", "all-local wait"
    );
    for (i, &f) in fractions.iter().enumerate() {
        let mean = |pick: fn(&(f64, f64, f64)) -> f64| {
            per_run.iter().map(|r| pick(&r[i])).sum::<f64>() / n
        };
        table.push_str(&format!(
            "{:>9.0}% {:>14.1} s {:>16.1} s {:>16.1} s\n",
            f * 100.0,
            mean(|t| t.0),
            mean(|t| t.1),
            mean(|t| t.2),
        ));
    }
    print!("{table}");
    std::fs::create_dir_all(&args.out_dir)?;
    std::fs::write(args.out_dir.join("queueing.txt"), &table)?;
    Ok(())
}
