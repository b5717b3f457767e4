//! Cache-policy comparison — an extension experiment.
//!
//! The paper evaluates one cache baseline (ideal LRU). Its era produced
//! stronger policies — GreedyDual-Size keys on re-fetch cost per byte,
//! LFU on access counts — and a natural question is whether the paper's
//! conclusion ("partition-aware replication beats caching") survives a
//! better cache. This sweep replays LRU, GDS, LFU and our policy over the
//! same storage fractions and traces as Figure 1.

use crate::experiment::{run_lru, run_ours, ExperimentConfig, FigureData, FigurePoint};
use crate::replay::replay_all;
use mmrepl_baselines::{GdsRouter, LfuRouter};
use mmrepl_core::parallel_map;
use mmrepl_workload::{generate_trace, TraceConfig};
use std::collections::BTreeMap;

/// Mean response time of the GreedyDual-Size router on a trace.
pub fn run_gds(sys: &mmrepl_model::System, traces: &[mmrepl_workload::SiteTrace]) -> f64 {
    replay_all(sys, traces, &mut GdsRouter::new(sys)).mean_response()
}

/// Mean response time of the LFU router on a trace.
pub fn run_lfu(sys: &mmrepl_model::System, traces: &[mmrepl_workload::SiteTrace]) -> f64 {
    replay_all(sys, traces, &mut LfuRouter::new(sys)).mean_response()
}

/// The cache-policy sweep: % increase over the unconstrained paper policy,
/// per storage fraction, for `ours`, `lru`, `gds` and `lfu`.
pub fn cache_comparison(cfg: &ExperimentConfig, fractions: &[f64]) -> FigureData {
    let per_run: Vec<Vec<BTreeMap<String, f64>>> = parallel_map(cfg.runs, cfg.threads, |run| {
        let seed = cfg
            .base_seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(run as u64);
        let system = mmrepl_workload::generate_system(&cfg.params, seed).expect("valid params");
        let traces = generate_trace(&system, &TraceConfig::from_params(&cfg.params), seed);
        let relaxed = system
            .unconstrained()
            .with_processing_fraction(f64::INFINITY);
        let baseline = run_ours(&relaxed, &traces);
        let pct = |v: f64| (v / baseline - 1.0) * 100.0;

        fractions
            .iter()
            .map(|&f| {
                let sys_f = system
                    .with_storage_fraction(f)
                    .with_processing_fraction(f64::INFINITY);
                let mut m = BTreeMap::new();
                m.insert("ours".into(), pct(run_ours(&sys_f, &traces)));
                m.insert("lru".into(), pct(run_lru(&sys_f, &traces)));
                m.insert("gds".into(), pct(run_gds(&sys_f, &traces)));
                m.insert("lfu".into(), pct(run_lfu(&sys_f, &traces)));
                m
            })
            .collect()
    });

    // Re-use the figure shape for output.
    let n = per_run.len() as f64;
    let points = fractions
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let mut series: BTreeMap<String, f64> = BTreeMap::new();
            for run in &per_run {
                for (k, v) in &run[i] {
                    *series.entry(k.clone()).or_insert(0.0) += v;
                }
            }
            for v in series.values_mut() {
                *v /= n;
            }
            FigurePoint {
                x,
                series,
                stderr: BTreeMap::new(),
            }
        })
        .collect();
    FigureData {
        name: "cache_comparison".into(),
        x_label: "storage".into(),
        points,
        runs: cfg.runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ours_beats_every_cache_policy_at_full_storage() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 2;
        let fig = cache_comparison(&cfg, &[1.0]);
        let p = &fig.points[0];
        let ours = p.series["ours"];
        for name in ["lru", "gds", "lfu"] {
            assert!(
                ours < p.series[name],
                "ours {ours}% vs {name} {}%",
                p.series[name]
            );
        }
    }

    #[test]
    fn all_policies_degrade_with_less_storage() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 1;
        let fig = cache_comparison(&cfg, &[0.4, 1.0]);
        for name in ["ours", "lru", "gds", "lfu"] {
            let series = fig.series(name);
            assert!(series[0].1 >= series[1].1 - 2.0, "{name}: {series:?}");
        }
    }

    #[test]
    fn figure_data_shape() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 1;
        let fig = cache_comparison(&cfg, &[0.8]);
        assert_eq!(fig.name, "cache_comparison");
        assert_eq!(fig.series_names(), vec!["gds", "lfu", "lru", "ours"]);
    }
}
