#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # mmrepl-sim
//!
//! The experiment harness: perturbed trace replay plus the sweeps that
//! regenerate every figure in the paper's evaluation (Section 5).
//!
//! * [`replay`] — replays a request trace against any
//!   [`mmrepl_baselines::RequestRouter`], serving each request under its
//!   perturbed network conditions and recording response-time statistics.
//!   One request loop serves both wait models: [`replay_all`] charges no
//!   waits, [`queueing_replay`] charges FIFO waits;
//! * [`queueing`] — the FIFO rules of the queueing extension (arrival
//!   schedule and deterministic FIFO capacity servers): the paper treats
//!   capacity as a planning constraint only; this quantifies what
//!   overload would actually cost;
//! * [`experiment`] — the Figure 1/2/3 sweeps: N independent runs
//!   (fresh workload + trace per run), every policy replayed against the
//!   *same* per-run trace, results normalized to our policy with no
//!   constraints — exactly the paper's methodology;
//! * [`ablation`] / [`drift`] / [`caches`] / [`updates`] — the DESIGN.md
//!   A1-A5 ablations and the extension studies: "breaking news"
//!   replanning, cache-policy comparison, update propagation;
//! * [`online`] — E-X5: the closed-loop `mmrepl-online` controller
//!   (streaming estimation, drift detection, churn-bounded incremental
//!   replanning, bandwidth-charged migration) against the stale plan,
//!   per-epoch full replanning and LRU on identical drift traces;
//! * [`federate`] — E-X6: ancestor selection on federated repository
//!   trees — closest allocation vs the flat root-only policy vs LRU on
//!   identical traces, remote streams priced over per-link bandwidth
//!   and latency;
//! * [`negotiate`] — E-X7: the asynchronous off-loading negotiation
//!   under control-plane faults — negotiation strategies × seeded
//!   drop/duplicate/reorder/jitter scenarios, reporting protocol cost,
//!   resilience counters and placement agreement with the default
//!   (greedy, reliable-bus) plan;
//! * [`differential`] — the differential oracles and their fuzz harness,
//!   among them a crate-private event-driven replay that must agree
//!   exactly with [`queueing_replay`];
//! * [`breakdown`] — per-site result reporting (regional asymmetry).
//!
//! ## Example
//!
//! ```
//! use mmrepl_sim::{figure2, ExperimentConfig};
//!
//! let mut cfg = ExperimentConfig::quick(); // paper() for Table 1 scale
//! cfg.runs = 1;
//! let fig = figure2(&cfg, &[0.5, 1.0]);
//! let ours = fig.series("ours");
//! // Halving the processing capacity cannot improve response time.
//! assert!(ours[0].1 >= ours[1].1 - 1.0);
//! ```

pub mod ablation;
pub mod breakdown;
pub mod caches;
mod des;
pub mod differential;
pub mod drift;
pub mod experiment;
pub mod federate;
pub mod negotiate;
pub mod online;
pub mod queueing;
pub mod replay;
mod server;
mod session;
pub mod updates;

pub use breakdown::{breakdown_table, site_breakdown, SiteReport};
pub use caches::{cache_comparison, run_gds, run_lfu};
pub use differential::{
    check_dense_vs_reference, fuzz, minimize_counterexample, oracle_delta_vs_cold,
    oracle_dense_vs_reference, oracle_des_vs_analytic, reference_plan, FuzzFailure, FuzzReport,
};
pub use drift::{drift_study, DriftEpoch, DriftStudy};
pub use federate::{federate_study, FederateStudy};
pub use negotiate::{negotiate_study, NegotiateCell, NegotiateStudy};
pub use online::{online_study, study_online_config, OnlineEpoch, OnlineStudy};
pub use updates::{update_study, UpdatePoint, UpdateStudy};

pub use ablation::{
    ablation_amortization, ablation_greedy_gap, ablation_offload, ablation_partition_order,
    ablation_weights, all_ablations, AblationResult,
};
pub use experiment::{
    figure1, figure2, figure3, headline, ExperimentConfig, FigureData, FigurePoint, Headline,
};
pub use queueing::queueing_replay;
pub use replay::{replay_all, replay_site, ReplayOutcome};
