//! The update-propagation study — the read/write extension.
//!
//! The paper's model is read-only; its related work (ADR, HTTP DRP) is
//! all about the cost it omits: refreshing replicas when objects change.
//! This study sweeps the mean per-object update rate and compares:
//!
//! * an **update-aware** planner (`include_update_load`), which charges
//!   each stored replica's refresh rate against site capacity and
//!   therefore replicates *less* as objects get hotter to write;
//! * the paper's **update-blind** planner, whose placements silently
//!   overload sites with refresh traffic.
//!
//! Expected shape: the aware planner's replica count decays toward the
//! Remote policy as updates intensify, its response time rises
//! correspondingly, and it stays feasible throughout — while the blind
//! planner's extended-constraint violations grow without bound.

use crate::experiment::ExperimentConfig;
use crate::replay::replay_all;
use mmrepl_baselines::StaticRouter;
use mmrepl_core::{parallel_map, PlannerConfig, ReplicationPolicy};
use mmrepl_model::{replica_count, UpdateAwareReport};
use mmrepl_workload::{generate_trace, sampling::uniform_in, TraceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One sweep point of the update study, averaged over runs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UpdatePoint {
    /// Mean per-object update rate, updates/second.
    pub mean_update_rate: f64,
    /// Update-aware plan: replicas as a fraction of the read-only plan's.
    pub aware_replica_frac: f64,
    /// Update-aware plan: % response-time increase over the read-only
    /// plan on the same trace.
    pub aware_response_pct: f64,
    /// Update-aware plan: fraction of runs whose extended constraints all
    /// held.
    pub aware_feasible_frac: f64,
    /// Update-blind plan: mean number of sites overloaded once refresh
    /// load is charged.
    pub blind_overloaded_sites: f64,
}

/// The whole study.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UpdateStudy {
    /// Points in sweep order.
    pub points: Vec<UpdatePoint>,
    /// Runs averaged.
    pub runs: usize,
}

impl UpdateStudy {
    /// Renders an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "# update study — replication under update propagation ({} runs)\n\
             {:>10} {:>14} {:>15} {:>14} {:>16}\n",
            self.runs,
            "upd/s",
            "aware replicas",
            "aware response",
            "aware feas.",
            "blind overloads"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>10.3} {:>13.1}% {:>14.1}% {:>13.0}% {:>16.1}\n",
                p.mean_update_rate,
                p.aware_replica_frac * 100.0,
                p.aware_response_pct,
                p.aware_feasible_frac * 100.0,
                p.blind_overloaded_sites,
            ));
        }
        out
    }
}

/// The update study's mean update rates per object, updates/second: 0
/// (the paper's read-only setting) up to 1/s.
pub const UPDATE_RATES: [f64; 6] = [0.0, 0.05, 0.1, 0.25, 0.5, 1.0];

/// Runs the sweep over `mean_rates` (mean updates/second per object; each
/// object draws uniformly from `[0, 2·mean]`).
pub fn update_study(cfg: &ExperimentConfig, mean_rates: &[f64]) -> UpdateStudy {
    let per_run: Vec<Vec<UpdatePoint>> = parallel_map(cfg.runs, cfg.threads, |run| {
        let seed = cfg
            .base_seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(run as u64);
        // One structural workload per run; update intensities are layered
        // on top so plans stay comparable across sweep points.
        let base = mmrepl_workload::generate_system(&cfg.params, seed).expect("valid params");
        let traces = generate_trace(&base, &TraceConfig::from_params(&cfg.params), seed);

        // Read-only references.
        let read_only_plan = ReplicationPolicy::new().plan(&base).placement;
        let read_only_replicas = replica_count(&base, &read_only_plan).max(1);
        let read_only_response = replay_all(
            &base,
            &traces,
            &mut StaticRouter::new(&read_only_plan, "ro"),
        )
        .mean_response();

        mean_rates
            .iter()
            .map(|&mean| {
                // Deterministic per-object rates: uniform in [0, 2 mean].
                let mut rng = StdRng::seed_from_u64(seed ^ (mean * 1e6) as u64 ^ 0x5eed);
                let sys = base.map_update_rates(|_, _| {
                    if mean == 0.0 {
                        0.0
                    } else {
                        uniform_in(&mut rng, 0.0, 2.0 * mean)
                    }
                });

                let aware = ReplicationPolicy::with_config(PlannerConfig {
                    include_update_load: true,
                    ..PlannerConfig::default()
                })
                .plan(&sys);
                let aware_report = UpdateAwareReport::check(&sys, &aware.placement);
                let aware_response = replay_all(
                    &sys,
                    &traces,
                    &mut StaticRouter::new(&aware.placement, "aware"),
                )
                .mean_response();

                let blind = ReplicationPolicy::new().plan(&sys);
                let blind_report = UpdateAwareReport::check(&sys, &blind.placement);

                UpdatePoint {
                    mean_update_rate: mean,
                    aware_replica_frac: replica_count(&sys, &aware.placement) as f64
                        / read_only_replicas as f64,
                    aware_response_pct: (aware_response / read_only_response - 1.0) * 100.0,
                    aware_feasible_frac: if aware_report.is_feasible() { 1.0 } else { 0.0 },
                    blind_overloaded_sites: blind_report.overloaded_sites.len() as f64,
                }
            })
            .collect()
    });

    let n = per_run.len() as f64;
    let points = mean_rates
        .iter()
        .enumerate()
        .map(|(i, &mean)| {
            let sum =
                |f: fn(&UpdatePoint) -> f64| per_run.iter().map(|r| f(&r[i])).sum::<f64>() / n;
            UpdatePoint {
                mean_update_rate: mean,
                aware_replica_frac: sum(|p| p.aware_replica_frac),
                aware_response_pct: sum(|p| p.aware_response_pct),
                aware_feasible_frac: sum(|p| p.aware_feasible_frac),
                blind_overloaded_sites: sum(|p| p.blind_overloaded_sites),
            }
        })
        .collect();
    UpdateStudy {
        points,
        runs: cfg.runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study(rates: &[f64]) -> UpdateStudy {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 2;
        update_study(&cfg, rates)
    }

    #[test]
    fn zero_updates_matches_read_only_plan() {
        let s = study(&[0.0]);
        let p = &s.points[0];
        assert!((p.aware_replica_frac - 1.0).abs() < 1e-9, "{p:?}");
        assert!(p.aware_response_pct.abs() < 1e-9, "{p:?}");
        assert_eq!(p.aware_feasible_frac, 1.0);
        assert_eq!(p.blind_overloaded_sites, 0.0);
    }

    #[test]
    fn heavier_updates_shrink_replication() {
        // Moderate rates are absorbed by shedding read marks; heavy rates
        // force actual deallocation (every stored replica costs refresh
        // capacity whether or not it is read locally).
        let s = study(&[0.0, 5.0, 20.0]);
        let fracs: Vec<f64> = s.points.iter().map(|p| p.aware_replica_frac).collect();
        assert!(
            fracs[1] <= fracs[0] + 1e-9,
            "replication grew under updates: {fracs:?}"
        );
        assert!(
            fracs[2] < fracs[0] * 0.8,
            "heavy updates did not force deallocation: {fracs:?}"
        );
        // And response time pays for it (weakly).
        assert!(s.points[2].aware_response_pct >= -1.0);
    }

    #[test]
    fn aware_planner_stays_feasible_where_blind_overloads() {
        let s = study(&[1.0]);
        let p = &s.points[0];
        assert_eq!(p.aware_feasible_frac, 1.0, "{p:?}");
        assert!(
            p.blind_overloaded_sites > 0.0,
            "blind planner never overloaded despite 1 upd/s per object"
        );
    }

    #[test]
    fn table_renders() {
        let s = study(&[0.0, 0.5]);
        let t = s.to_table();
        assert!(t.contains("update study"));
        assert!(t.contains("blind overloads"));
    }
}
