//! E-X6: the federated-tree study — what ancestor selection buys once the
//! repository is a hierarchy instead of the paper's star.
//!
//! Every run generates one tree workload (edge or regional preset),
//! plans it under both ancestor policies, and replays **identical
//! traces** against each plan:
//!
//! * **closest** — the default [`mmrepl_core::AncestorPolicy::Closest`]:
//!   each site is served by its attach node, promoted toward the origin
//!   only under node-capacity pressure and never past a QoS bound;
//! * **flat** — [`mmrepl_core::AncestorPolicy::Flat`]: the paper's
//!   policy lifted onto the tree — every remote stream drags through
//!   the full constrained path to the origin;
//! * **lru** — the ideal LRU router, fetching misses over the closest
//!   channels (the most favorable network it could see).
//!
//! Replay prices each site's remote stream over its serving channel by
//! substituting the channel's rate and overhead for the site's raw
//! repository estimates — for a static selection the two formulations of
//! Eq. 5 are identical, so the star replayer is reused unchanged.

use crate::experiment::ExperimentConfig;
use crate::replay::replay_all;
use mmrepl_baselines::{LruRouter, StaticRouter};
use mmrepl_core::{parallel_map, AncestorPolicy, PlannerConfig, ReplicationPolicy};
use mmrepl_model::{NodeId, System};
use mmrepl_workload::{generate_trace, TopologyParams, TraceConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The whole study.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FederateStudy {
    /// Tree depth of the preset (1 = star).
    pub levels: usize,
    /// Fanout of the preset.
    pub fanout: usize,
    /// Runs averaged.
    pub runs: usize,
    /// Policy name → mean response time, seconds.
    pub mean_response: BTreeMap<String, f64>,
    /// Policy name → mean % increase over `closest`.
    pub pct_over_closest: BTreeMap<String, f64>,
    /// Mean sites promoted off their attach node (closest policy).
    pub promotions: f64,
    /// Mean promotion attempts vetoed by QoS bounds (closest policy).
    pub qos_blocked: f64,
    /// Policy name → runs whose plan was feasible.
    pub feasible_runs: BTreeMap<String, usize>,
}

impl FederateStudy {
    /// Renders an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "# federate study — mean response time by ancestor policy \
             ({} levels, fanout {}, {} runs)\n",
            self.levels, self.fanout, self.runs
        );
        out.push_str(&format!(
            "{:>10}{:>14}{:>16}{:>12}\n",
            "policy", "response s", "vs closest", "feasible"
        ));
        for (name, mean) in &self.mean_response {
            out.push_str(&format!(
                "{:>10}{:>14.3}{:>15.1}%{:>9}/{}\n",
                name,
                mean,
                self.pct_over_closest[name],
                self.feasible_runs.get(name).copied().unwrap_or(self.runs),
                self.runs
            ));
        }
        out.push_str(&format!(
            "promotions/run {:.1}, qos-blocked/run {:.1}\n",
            self.promotions, self.qos_blocked
        ));
        out
    }
}

/// A copy of `sys` whose per-site repository estimates are the serving
/// channels of `serving` (node index per site, as reported by the
/// planner). Identity when `serving` is empty (star plans).
fn channel_view(sys: &System, serving: &[u32]) -> System {
    if serving.is_empty() {
        return sys.clone();
    }
    sys.map_sites(|sid, site| {
        let ch = sys
            .serving_channel(sid, NodeId::new(serving[sid.index()]))
            .expect("planner-reported serving nodes are reachable ancestors");
        let mut s = site.clone();
        s.repo_rate = ch.rate;
        s.repo_ovhd = ch.ovhd;
        s
    })
}

/// Runs the study on `cfg`'s workload with its topology replaced by
/// `preset`. Sites at 65 % storage, processing relaxed, so the network —
/// not Eq. 8 — differentiates the policies.
pub fn federate_study(cfg: &ExperimentConfig, preset: &TopologyParams) -> FederateStudy {
    /// One run: policy → (mean response, feasible), plus closest's
    /// selection counters.
    type RunOut = (BTreeMap<String, (f64, bool)>, usize, usize);
    let per_run: Vec<RunOut> = parallel_map(cfg.runs, cfg.threads, |run| {
        let seed = cfg
            .base_seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(run as u64);
        let mut params = cfg.params.clone();
        params.topology = *preset;
        let base = mmrepl_workload::generate_system(&params, seed)
            .expect("valid params")
            .with_storage_fraction(0.65)
            .with_processing_fraction(f64::INFINITY);
        let traces = generate_trace(&base, &TraceConfig::from_params(&params), seed);

        let plan_under = |policy: AncestorPolicy| {
            ReplicationPolicy::with_config(PlannerConfig {
                ancestor: policy,
                ..PlannerConfig::default()
            })
            .plan(&base)
        };
        let closest = plan_under(AncestorPolicy::Closest);
        let flat = plan_under(AncestorPolicy::Flat);

        let mut m = BTreeMap::new();
        let closest_view = channel_view(&base, &closest.report.serving);
        m.insert(
            "closest".to_string(),
            (
                replay_all(
                    &closest_view,
                    &traces,
                    &mut StaticRouter::new(&closest.placement, "closest"),
                )
                .mean_response(),
                closest.report.feasible,
            ),
        );
        let flat_view = channel_view(&base, &flat.report.serving);
        m.insert(
            "flat".to_string(),
            (
                replay_all(
                    &flat_view,
                    &traces,
                    &mut StaticRouter::new(&flat.placement, "flat"),
                )
                .mean_response(),
                flat.report.feasible,
            ),
        );
        m.insert(
            "lru".to_string(),
            (
                replay_all(&closest_view, &traces, &mut LruRouter::new(&closest_view))
                    .mean_response(),
                true,
            ),
        );
        (m, closest.report.promotions, closest.report.qos_blocked)
    });

    let n = per_run.len() as f64;
    let mut mean_response: BTreeMap<String, f64> = BTreeMap::new();
    let mut feasible_runs: BTreeMap<String, usize> = BTreeMap::new();
    let mut promotions = 0.0;
    let mut qos_blocked = 0.0;
    for (m, promo, qos) in &per_run {
        for (k, (v, feasible)) in m {
            *mean_response.entry(k.clone()).or_insert(0.0) += v;
            let f = feasible_runs.entry(k.clone()).or_insert(0);
            if *feasible {
                *f += 1;
            }
        }
        promotions += *promo as f64;
        qos_blocked += *qos as f64;
    }
    for v in mean_response.values_mut() {
        *v /= n;
    }
    let closest_mean = mean_response["closest"];
    let pct_over_closest = mean_response
        .iter()
        .map(|(k, v)| (k.clone(), (v / closest_mean - 1.0) * 100.0))
        .collect();
    FederateStudy {
        levels: preset.levels,
        fanout: preset.fanout,
        runs: cfg.runs,
        mean_response,
        pct_over_closest,
        promotions: promotions / n,
        qos_blocked: qos_blocked / n,
        feasible_runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_preset_makes_the_policies_coincide() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 1;
        let study = federate_study(&cfg, &TopologyParams::origin());
        // No tree — both policies are the paper's planner, bit for bit.
        assert_eq!(
            study.mean_response["closest"].to_bits(),
            study.mean_response["flat"].to_bits()
        );
        assert_eq!(study.promotions, 0.0);
    }

    #[test]
    fn closest_beats_flat_on_an_edge_tree() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 2;
        let study = federate_study(&cfg, &TopologyParams::edge());
        assert!(
            study.mean_response["closest"] <= study.mean_response["flat"] + 1e-9,
            "closest {} vs flat {}",
            study.mean_response["closest"],
            study.mean_response["flat"]
        );
        assert!(study.pct_over_closest["flat"] >= -1e-9);
        assert_eq!(study.feasible_runs["closest"], 2);
    }

    #[test]
    fn regional_preset_runs_and_renders() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 1;
        let study = federate_study(&cfg, &TopologyParams::regional());
        assert_eq!(study.levels, 3);
        let t = study.to_table();
        assert!(t.contains("federate study"));
        assert!(t.contains("closest"));
        assert!(t.contains("flat"));
        assert!(t.contains("lru"));
    }
}
