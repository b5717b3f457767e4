//! The distributed off-loading negotiation in action: squeeze the
//! repository's processing capacity and watch the Section 4 protocol push
//! workload back to the sites over the simulated control plane.
//! `run_offload` is exactly the planner's stage 4: the proposal/counter
//! protocol of `core::negotiate` with the paper's greedy rounds over a
//! reliable bus.
//!
//! ```text
//! cargo run --release --example offload_negotiation
//! ```

use mmrepl::core::{
    partition_all, restore_capacity, restore_storage, run_offload, OffloadConfig, SiteWork,
};
use mmrepl::prelude::*;

fn main() {
    let params = WorkloadParams::small();
    let system = generate_system(&params, 99).expect("valid params");
    // Sites have some cpu headroom (120% of the all-local load), so they
    // are able to take work back.
    let system = system.with_processing_fraction(1.2);

    // Run the local stages manually so we can inspect the negotiation.
    let initial = partition_all(&system);
    let mut works: Vec<SiteWork<'_>> = system
        .sites()
        .ids()
        .map(|s| {
            let mut w = SiteWork::new(&system, s, &initial, CostParams::default());
            restore_storage(&mut w);
            restore_capacity(&mut w);
            w
        })
        .collect();

    let repo_load: f64 = works.iter().map(|w| w.repo_load()).sum();
    println!("repository load after local planning: {repo_load:.2} req/s");
    for w in &works {
        println!(
            "  {}: load {:>7.2}/{:>7.2} req/s, free storage {}",
            w.site(),
            w.load(),
            w.capacity(),
            Bytes(w.space_left())
        );
    }

    // Constrain the repository to 60% of that and negotiate.
    let cap = repo_load * 0.6;
    println!("\nconstraining repository to {cap:.2} req/s — negotiating...");
    let outcome = run_offload(&mut works, cap, &OffloadConfig::default());
    let r = outcome.report;
    println!("  rounds        : {}", r.rounds);
    println!("  messages      : {}", r.messages);
    println!("  control time  : {:.2} s (simulated)", r.control_time);
    println!("  absorbed      : {:.2} req/s", r.absorbed);
    println!("  swaps         : {}", r.swaps);
    println!(
        "  repo load     : {:.2} -> {:.2} req/s (feasible: {})",
        r.initial_repo_load, r.final_repo_load, r.feasible
    );

    println!("\nsites after negotiation:");
    for w in &works {
        println!(
            "  {}: load {:>7.2}/{:>7.2} req/s, repo share {:>6.2} req/s",
            w.site(),
            w.load(),
            w.capacity(),
            w.repo_load()
        );
    }
    assert!(r.feasible, "negotiation should succeed with cpu headroom");
    assert!(r.final_repo_load <= cap + 1e-6);
}
