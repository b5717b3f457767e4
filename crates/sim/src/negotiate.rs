//! E-X7: the control-plane negotiation study — what the asynchronous
//! proposal/counter-proposal protocol costs, and how it degrades, when
//! the repository's control plane is faulty.
//!
//! Every run squeezes the repository hard enough to force a real
//! multi-round off-loading, plans once with the default configuration
//! (greedy over a reliable bus — the planner's stage 4), and then
//! re-plans under every (strategy × fault scenario) cell of the grid:
//!
//! * **strategies** — `greedy` (the paper's proportional rounds),
//!   `deadline` (over-asks to converge within a round budget) and
//!   `auction` (highest-headroom sites take whole chunks);
//! * **scenarios** — `reliable` (no faults), `lossy`
//!   ([`FaultConfig::lossy`]: 10 % loss, 5 % duplication, 10 %
//!   reordering, sub-latency jitter) and `chaos`
//!   ([`FaultConfig::chaos`]: 25 % loss, multi-latency jitter).
//!
//! Reported per cell: placement agreement with the default plan,
//! protocol cost (rounds, messages, simulated control time)
//! and resilience counters (retries, timeouts, degraded sites).

use crate::experiment::ExperimentConfig;
use mmrepl_core::{
    parallel_map, FaultConfig, NegotiateConfig, PlannerConfig, ReplicationPolicy, StrategyKind,
};
use serde::{Deserialize, Serialize};

/// Fault scenarios in the study grid.
pub const SCENARIOS: [&str; 3] = ["reliable", "lossy", "chaos"];

/// Strategies in the study grid.
pub const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::GreedyProportional,
    StrategyKind::DeadlineBounded,
    StrategyKind::Auction,
];

/// One (strategy × scenario) cell, averaged over runs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NegotiateCell {
    /// Strategy name (`greedy` / `deadline` / `auction`).
    pub strategy: String,
    /// Fault scenario name (`reliable` / `lossy` / `chaos`).
    pub scenario: String,
    /// Mean negotiation rounds.
    pub rounds: f64,
    /// Mean control-plane messages delivered.
    pub messages: f64,
    /// Mean simulated control-plane time, seconds.
    pub control_time: f64,
    /// Mean resends after timeouts.
    pub retries: f64,
    /// Mean expired reply deadlines.
    pub timeouts: f64,
    /// Mean sites degraded to last-known state.
    pub degraded_sites: f64,
    /// Mean envelopes discarded by sequence dedup.
    pub duplicates_ignored: f64,
    /// Mean workload moved back to the sites, req/s.
    pub absorbed: f64,
    /// Runs whose final placement satisfied Eq. 8-10.
    pub feasible_runs: usize,
    /// Runs whose placement was byte-identical to the default plan
    /// (all, for `greedy` × `reliable`, which is that plan).
    pub placements_match: usize,
}

/// The whole study.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NegotiateStudy {
    /// Runs averaged per cell.
    pub runs: usize,
    /// Repository capacity fraction the runs were squeezed to.
    pub central_fraction: f64,
    /// The (strategy × scenario) grid, strategies major.
    pub cells: Vec<NegotiateCell>,
}

impl NegotiateStudy {
    /// The cell for (`strategy`, `scenario`), if present.
    pub fn cell(&self, strategy: &str, scenario: &str) -> Option<&NegotiateCell> {
        self.cells
            .iter()
            .find(|c| c.strategy == strategy && c.scenario == scenario)
    }

    /// Renders an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "# negotiate study — async off-loading under control-plane faults \
             ({} runs/cell, repository at {:.0}% capacity)\n",
            self.runs,
            self.central_fraction * 100.0
        );
        out.push_str(&format!(
            "{:>9}{:>10}{:>8}{:>10}{:>10}{:>9}{:>10}{:>10}{:>10}{:>7}\n",
            "strategy",
            "scenario",
            "rounds",
            "msgs",
            "ctrl s",
            "retries",
            "timeouts",
            "degraded",
            "match",
            "feas"
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:>9}{:>10}{:>8.1}{:>10.1}{:>10.2}{:>9.1}{:>10.1}{:>10.1}{:>7}/{:<2}{:>5}/{}\n",
                c.strategy,
                c.scenario,
                c.rounds,
                c.messages,
                c.control_time,
                c.retries,
                c.timeouts,
                c.degraded_sites,
                c.placements_match,
                self.runs,
                c.feasible_runs,
                self.runs
            ));
        }
        out
    }
}

/// Builds the scenario's fault knobs from its name and a per-run seed.
fn scenario_faults(name: &str, seed: u64) -> FaultConfig {
    match name {
        "reliable" => FaultConfig::reliable(),
        "lossy" => FaultConfig::lossy(seed),
        "chaos" => FaultConfig::chaos(seed),
        other => panic!("unknown fault scenario {other:?}"),
    }
}

/// Runs the study: `cfg.runs` independent workloads, each squeezed to
/// `central_fraction` of its repository capacity and planned under every
/// grid cell plus the default plan as the reference.
pub fn negotiate_study(cfg: &ExperimentConfig, central_fraction: f64) -> NegotiateStudy {
    // One run: per-cell (rounds, messages, control_time, retries,
    // timeouts, degraded, duplicates, absorbed, feasible, matches).
    type CellSample = (f64, f64, f64, f64, f64, f64, f64, f64, bool, bool);
    let per_run: Vec<Vec<CellSample>> = parallel_map(cfg.runs, cfg.threads, |run| {
        let seed = cfg
            .base_seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(run as u64);
        let sys = mmrepl_workload::generate_system(&cfg.params, seed)
            .expect("valid params")
            .with_processing_fraction(1.5)
            .with_central_fraction(central_fraction);
        let reference = ReplicationPolicy::new().plan(&sys);

        let mut samples = Vec::with_capacity(STRATEGIES.len() * SCENARIOS.len());
        for strategy in STRATEGIES {
            for scenario in SCENARIOS {
                let negotiation = NegotiateConfig {
                    strategy,
                    faults: scenario_faults(scenario, seed ^ 0xE0_57),
                };
                let plan = ReplicationPolicy::with_config(PlannerConfig {
                    negotiation,
                    ..PlannerConfig::default()
                })
                .plan(&sys);
                let rep = plan.report.negotiation;
                samples.push((
                    rep.rounds as f64,
                    rep.messages as f64,
                    rep.control_time,
                    rep.retries as f64,
                    rep.timeouts as f64,
                    rep.degraded_sites as f64,
                    rep.duplicates_ignored as f64,
                    rep.absorbed,
                    plan.report.feasible,
                    plan.placement == reference.placement,
                ));
            }
        }
        samples
    });

    let n = per_run.len() as f64;
    let mut cells = Vec::new();
    let mut idx = 0;
    for strategy in STRATEGIES {
        for scenario in SCENARIOS {
            let mut cell = NegotiateCell {
                strategy: strategy.name().to_string(),
                scenario: scenario.to_string(),
                rounds: 0.0,
                messages: 0.0,
                control_time: 0.0,
                retries: 0.0,
                timeouts: 0.0,
                degraded_sites: 0.0,
                duplicates_ignored: 0.0,
                absorbed: 0.0,
                feasible_runs: 0,
                placements_match: 0,
            };
            for samples in &per_run {
                let s = &samples[idx];
                cell.rounds += s.0;
                cell.messages += s.1;
                cell.control_time += s.2;
                cell.retries += s.3;
                cell.timeouts += s.4;
                cell.degraded_sites += s.5;
                cell.duplicates_ignored += s.6;
                cell.absorbed += s.7;
                cell.feasible_runs += s.8 as usize;
                cell.placements_match += s.9 as usize;
            }
            cell.rounds /= n;
            cell.messages /= n;
            cell.control_time /= n;
            cell.retries /= n;
            cell.timeouts /= n;
            cell.degraded_sites /= n;
            cell.duplicates_ignored /= n;
            cell.absorbed /= n;
            cells.push(cell);
            idx += 1;
        }
    }
    NegotiateStudy {
        runs: cfg.runs,
        central_fraction,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_reliable_cell_is_the_default_plan() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 2;
        let study = negotiate_study(&cfg, 0.1);
        let cell = study.cell("greedy", "reliable").expect("cell present");
        assert_eq!(cell.placements_match, 2);
        assert_eq!(cell.retries, 0.0);
        assert_eq!(cell.timeouts, 0.0);
        assert!(cell.rounds >= 1.0, "squeeze must force real rounds");
    }

    #[test]
    fn faulty_cells_terminate_and_render() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 1;
        let study = negotiate_study(&cfg, 0.2);
        assert_eq!(study.cells.len(), STRATEGIES.len() * SCENARIOS.len());
        let chaos = study.cell("greedy", "chaos").expect("cell present");
        // A quarter of messages dropping must surface in the resilience
        // counters (retries or degradations), and the run still ends.
        assert!(chaos.retries > 0.0 || chaos.degraded_sites > 0.0 || chaos.rounds == 0.0);
        let table = study.to_table();
        assert!(table.contains("negotiate study"));
        assert!(table.contains("auction"));
        assert!(table.contains("chaos"));
    }
}
