//! The replanning study — an extension quantifying Section 4.1's claim
//! that "allocation decisions made off-line using the past access
//! patterns may be inaccurate due to the dynamic nature of the Web".
//!
//! Protocol per run: plan once on the epoch-0 workload, then drift the
//! hot set each epoch and replay each epoch's trace three ways:
//!
//! * **stale** — keep using the epoch-0 plan (the off-line decision);
//! * **replanned** — re-run the planner on each epoch's frequencies (the
//!   paper's "execute during off-peak hours" remedy);
//! * **lru** — the ideal LRU cache, which adapts online for free.
//!
//! Everything is normalized to the replanned policy at epoch 0, so the
//! series directly show how much of the policy's advantage survives
//! drift and how much replanning buys back.

use crate::experiment::ExperimentConfig;
use crate::replay::replay_all;
use mmrepl_baselines::{LruRouter, StaticRouter};
use mmrepl_core::{parallel_map, ReplicationPolicy};
use mmrepl_workload::{generate_trace, DriftModel, TraceConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One epoch's mean relative response-time increase per strategy.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftEpoch {
    /// Epoch index (0 = the planning epoch).
    pub epoch: usize,
    /// Strategy name → % increase over replanned-at-epoch-0.
    pub series: BTreeMap<String, f64>,
    /// Mean number of `X`/`X'` marks the re-plan flipped relative to the
    /// stale epoch-0 plan — how much of the placement drift actually
    /// touches.
    #[serde(default)]
    pub replan_changed_marks: f64,
}

/// The whole study.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftStudy {
    /// Hot-set rotation per epoch.
    pub rotation: f64,
    /// Epochs in order.
    pub epochs: Vec<DriftEpoch>,
    /// Runs averaged.
    pub runs: usize,
}

impl DriftStudy {
    /// Renders an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "# drift study — % increase in mean response time vs replanned@epoch0 \
             (rotation {:.0}%, {} runs)\n",
            self.rotation * 100.0,
            self.runs
        );
        let names: Vec<&String> = self
            .epochs
            .first()
            .map(|e| e.series.keys().collect())
            .unwrap_or_default();
        out.push_str(&format!("{:>8}", "epoch"));
        for n in &names {
            out.push_str(&format!("{n:>14}"));
        }
        out.push_str(&format!("{:>16}\n", "replan flips"));
        for e in &self.epochs {
            out.push_str(&format!("{:>8}", e.epoch));
            for n in &names {
                out.push_str(&format!("{:>13.1}%", e.series[*n]));
            }
            out.push_str(&format!("{:>16.0}\n", e.replan_changed_marks));
        }
        out
    }
}

/// Runs the drift study: `epochs` drift steps at `rotation` hot-set
/// turnover, sites at 65 % storage (where placement quality matters most,
/// per Figure 1), processing relaxed.
pub fn drift_study(cfg: &ExperimentConfig, epochs: usize, rotation: f64) -> DriftStudy {
    let drift = DriftModel::new(rotation);
    let per_run: Vec<Vec<(BTreeMap<String, f64>, f64)>> =
        parallel_map(cfg.runs, cfg.threads, |run| {
            let seed = cfg
                .base_seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(run as u64);
            let base = mmrepl_workload::generate_system(&cfg.params, seed)
                .expect("valid params")
                .with_storage_fraction(0.65)
                .with_processing_fraction(f64::INFINITY);

            // The off-line plan, made against epoch 0.
            let stale_plan = ReplicationPolicy::new().plan(&base).placement;
            let trace_cfg = TraceConfig::from_params(&cfg.params);
            let baseline = {
                let traces = generate_trace(&base, &trace_cfg, seed);
                replay_all(&base, &traces, &mut StaticRouter::new(&stale_plan, "ours"))
                    .mean_response()
            };

            // LRU keeps its cache across epochs (it adapts online).
            let mut lru = LruRouter::new(&base);

            let mut system = base.clone();
            (0..=epochs)
                .map(|epoch| {
                    if epoch > 0 {
                        system = drift.apply(&system, seed.wrapping_add(epoch as u64));
                    }
                    let traces =
                        generate_trace(&system, &trace_cfg, seed.wrapping_add(1000 + epoch as u64));
                    let stale = replay_all(
                        &system,
                        &traces,
                        &mut StaticRouter::new(&stale_plan, "stale"),
                    )
                    .mean_response();
                    let replanned_placement = ReplicationPolicy::new().plan(&system).placement;
                    let changed = replanned_placement.diff(&stale_plan).total() as f64;
                    let replanned = replay_all(
                        &system,
                        &traces,
                        &mut StaticRouter::new(&replanned_placement, "replanned"),
                    )
                    .mean_response();
                    let lru_mean = replay_all(&system, &traces, &mut lru).mean_response();
                    let pct = |v: f64| (v / baseline - 1.0) * 100.0;
                    let mut m = BTreeMap::new();
                    m.insert("stale".to_string(), pct(stale));
                    m.insert("replanned".to_string(), pct(replanned));
                    m.insert("lru".to_string(), pct(lru_mean));
                    (m, changed)
                })
                .collect()
        });

    let n = per_run.len() as f64;
    let epochs_out = (0..=epochs)
        .map(|epoch| {
            let mut series: BTreeMap<String, f64> = BTreeMap::new();
            let mut changed = 0.0;
            for run in &per_run {
                for (k, v) in &run[epoch].0 {
                    *series.entry(k.clone()).or_insert(0.0) += v;
                }
                changed += run[epoch].1;
            }
            for v in series.values_mut() {
                *v /= n;
            }
            DriftEpoch {
                epoch,
                series,
                replan_changed_marks: changed / n,
            }
        })
        .collect();
    DriftStudy {
        rotation,
        epochs: epochs_out,
        runs: cfg.runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replanning_beats_stale_after_drift() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 2;
        let study = drift_study(&cfg, 2, 0.8);
        assert_eq!(study.epochs.len(), 3);
        // At epoch 0 stale == replanned (same plan, same trace).
        let e0 = &study.epochs[0];
        assert!(
            (e0.series["stale"] - e0.series["replanned"]).abs() < 1e-9,
            "{e0:?}"
        );
        assert_eq!(e0.replan_changed_marks, 0.0, "epoch-0 replan differed");
        // After drift the re-plan must actually move marks.
        assert!(study.epochs[1].replan_changed_marks > 0.0);
        // After drift, replanning must not lose to the stale plan.
        for e in &study.epochs[1..] {
            assert!(
                e.series["replanned"] <= e.series["stale"] + 1.0,
                "epoch {}: replanned {} vs stale {}",
                e.epoch,
                e.series["replanned"],
                e.series["stale"]
            );
        }
    }

    #[test]
    fn drift_hurts_the_stale_plan() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 2;
        let study = drift_study(&cfg, 2, 1.0);
        let e0 = study.epochs[0].series["stale"];
        let later: f64 = study.epochs[1..]
            .iter()
            .map(|e| e.series["stale"])
            .sum::<f64>()
            / (study.epochs.len() - 1) as f64;
        assert!(
            later > e0 - 1.0,
            "full rotation should not improve the stale plan: {e0} -> {later}"
        );
    }

    #[test]
    fn table_renders() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 1;
        let study = drift_study(&cfg, 1, 0.5);
        let t = study.to_table();
        assert!(t.contains("drift study"));
        assert!(t.contains("stale"));
        assert!(t.contains("replanned"));
    }
}
