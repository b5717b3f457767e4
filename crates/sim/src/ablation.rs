//! Ablations of the design choices Section 4 makes without evaluating —
//! DESIGN.md A1-A4. Each ablation swaps exactly one ingredient of the
//! policy and measures the replayed mean response time (and, where
//! relevant, protocol or work counters) against the paper's choice.

use crate::experiment::ExperimentConfig;
use crate::replay::replay_all;
use mmrepl_baselines::StaticRouter;
use mmrepl_core::{
    parallel_map, partition_all_ordered, restore_capacity, restore_storage_with, run_offload,
    AssignmentRule, DeallocCriterion, OffloadConfig, PartitionOrder, PlannerConfig,
    ReplicationPolicy, SiteWork,
};
use mmrepl_model::{CostParams, Placement, System};
use mmrepl_workload::{generate_trace, SiteTrace, TraceConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One ablation's outcome: variant name → mean of the measured metric
/// over the runs (lower is better for every metric used here).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AblationResult {
    /// Ablation id ("A1-partition-order", ...).
    pub name: String,
    /// Metric label ("mean response time \[s\]", ...).
    pub metric: String,
    /// Variant label → mean metric value.
    pub variants: BTreeMap<String, f64>,
    /// Runs averaged.
    pub runs: usize,
}

impl AblationResult {
    /// Renders an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!("# {} — {} ({} runs)\n", self.name, self.metric, self.runs);
        let width = self.variants.keys().map(String::len).max().unwrap_or(8);
        for (k, v) in &self.variants {
            out.push_str(&format!("{k:<width$}  {v:>12.3}\n"));
        }
        out
    }
}

fn ctx(cfg: &ExperimentConfig, run: usize) -> (System, Vec<SiteTrace>) {
    let seed = cfg
        .base_seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(run as u64);
    let sys = mmrepl_workload::generate_system(&cfg.params, seed).expect("valid params");
    let traces = generate_trace(&sys, &TraceConfig::from_params(&cfg.params), seed);
    (sys, traces)
}

fn mean_of(values: Vec<BTreeMap<String, f64>>) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for m in &values {
        for (k, v) in m {
            *out.entry(k.clone()).or_insert(0.0) += v;
        }
    }
    for v in out.values_mut() {
        *v /= values.len() as f64;
    }
    out
}

/// A1 — `PARTITION` visit order: decreasing size (paper) vs increasing vs
/// document order, replayed unconstrained. Metric: mean response time.
pub fn ablation_partition_order(cfg: &ExperimentConfig) -> AblationResult {
    let per_run = parallel_map(cfg.runs, cfg.threads, |run| {
        let (sys, traces) = ctx(cfg, run);
        let mut m = BTreeMap::new();
        for (label, order) in [
            ("decreasing-size (paper)", PartitionOrder::DecreasingSize),
            ("increasing-size", PartitionOrder::IncreasingSize),
            ("document-order", PartitionOrder::DocumentOrder),
        ] {
            let placement = partition_all_ordered(&sys, order);
            let mean =
                replay_all(&sys, &traces, &mut StaticRouter::new(&placement, "v")).mean_response();
            m.insert(label.to_string(), mean);
        }
        m
    });
    AblationResult {
        name: "A1-partition-order".into(),
        metric: "mean response time [s]".into(),
        variants: mean_of(per_run),
        runs: cfg.runs,
    }
}

/// A2 — storage deallocation criterion at 50 % storage: ΔD/size (paper)
/// vs raw ΔD. Metric: mean response time.
pub fn ablation_amortization(cfg: &ExperimentConfig) -> AblationResult {
    let per_run = parallel_map(cfg.runs, cfg.threads, |run| {
        let (sys, traces) = ctx(cfg, run);
        let sys = sys
            .with_storage_fraction(0.5)
            .with_processing_fraction(f64::INFINITY);
        let mut m = BTreeMap::new();
        for (label, criterion) in [
            (
                "amortized-over-size (paper)",
                DeallocCriterion::AmortizedOverSize,
            ),
            ("raw-delta", DeallocCriterion::RawDelta),
        ] {
            let initial = mmrepl_core::partition_all(&sys);
            let mut rows: Vec<Option<mmrepl_model::PagePartition>> = vec![None; sys.n_pages()];
            for site in sys.sites().ids() {
                let mut w = SiteWork::new(&sys, site, &initial, CostParams::default());
                restore_storage_with(&mut w, criterion);
                restore_capacity(&mut w);
                for (pid, part) in w.into_partitions() {
                    rows[pid.index()] = Some(part);
                }
            }
            let placement = Placement::new(
                &sys,
                rows.into_iter().map(|r| r.expect("covered")).collect(),
            )
            .expect("consistent");
            let mean =
                replay_all(&sys, &traces, &mut StaticRouter::new(&placement, "v")).mean_response();
            m.insert(label.to_string(), mean);
        }
        m
    });
    AblationResult {
        name: "A2-dealloc-criterion".into(),
        metric: "mean response time [s] @ 50% storage".into(),
        variants: mean_of(per_run),
        runs: cfg.runs,
    }
}

/// A3 — objective weights `(α1, α2)`: the paper's (2, 1) vs response-only
/// (1, 0) vs equal (1, 1), at 50 % storage. Metric: mean response time
/// (weights trade response time against optional-fetch time).
pub fn ablation_weights(cfg: &ExperimentConfig) -> AblationResult {
    let per_run = parallel_map(cfg.runs, cfg.threads, |run| {
        let (sys, traces) = ctx(cfg, run);
        let sys = sys
            .with_storage_fraction(0.5)
            .with_processing_fraction(f64::INFINITY);
        let mut m = BTreeMap::new();
        for (label, a1, a2) in [
            ("(2,1) paper", 2.0, 1.0),
            ("(1,0) response-only", 1.0, 0.0),
            ("(1,1) equal", 1.0, 1.0),
            ("(0,1) optional-only", 1e-6, 1.0),
        ] {
            let policy = ReplicationPolicy::with_config(PlannerConfig {
                cost: CostParams {
                    alpha1: a1,
                    alpha2: a2,
                },
                ..PlannerConfig::default()
            });
            let placement = policy.plan(&sys).placement;
            let out = replay_all(&sys, &traces, &mut StaticRouter::new(&placement, "v"));
            m.insert(label.to_string(), out.mean_response());
        }
        m
    });
    AblationResult {
        name: "A3-objective-weights".into(),
        metric: "mean response time [s] @ 50% storage".into(),
        variants: mean_of(per_run),
        runs: cfg.runs,
    }
}

/// A4 — off-loading assignment rule at 70 % central capacity:
/// proportional-to-headroom (paper) vs equal split. Metric: negotiation
/// rounds (both restore the constraint; the question is protocol cost).
pub fn ablation_offload(cfg: &ExperimentConfig) -> AblationResult {
    let per_run = parallel_map(cfg.runs, cfg.threads, |run| {
        let (sys, _) = ctx(cfg, run);
        let sys = sys.with_processing_fraction(1.3);
        let mut m = BTreeMap::new();
        for (label, rule) in [
            (
                "proportional (paper)",
                AssignmentRule::ProportionalToHeadroom,
            ),
            ("equal-split", AssignmentRule::EqualSplit),
        ] {
            let initial = mmrepl_core::partition_all(&sys);
            let sites: Vec<_> = sys.sites().ids().collect();
            let mut works: Vec<SiteWork<'_>> = ReplicationPolicy::new()
                .restore_sites(&sys, &initial, &sites, None, cfg.threads)
                .into_iter()
                .map(|(w, _, _)| w)
                .collect();
            let repo_load: f64 = works.iter().map(|w| w.repo_load()).sum();
            let cfg_off = OffloadConfig { assignment: rule };
            let outcome = run_offload(&mut works, repo_load * 0.7, &cfg_off);
            m.insert(label.to_string(), outcome.report.rounds as f64);
        }
        m
    });
    AblationResult {
        name: "A4-offload-assignment".into(),
        metric: "negotiation rounds @ 70% central capacity".into(),
        variants: mean_of(per_run),
        runs: cfg.runs,
    }
}

/// A5 — greedy optimality gap: the paper's `PARTITION` vs the exhaustive
/// per-page optimum, on workloads small enough to brute-force (every page
/// of a small-scale system). Metric: mean % excess response time of the
/// greedy over the optimum (plus its observed maximum as a second row).
///
/// The decision problem is NP-complete, so the paper never measures how
/// much its greedy leaves on the table — this does.
pub fn ablation_greedy_gap(cfg: &ExperimentConfig) -> AblationResult {
    let per_run = parallel_map(cfg.runs, cfg.threads, |run| {
        // Brute force needs <= 24 objects per page: use the small-scale
        // workload regardless of the configured params.
        let seed = cfg
            .base_seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(run as u64);
        let params = mmrepl_workload::WorkloadParams::small();
        let sys = mmrepl_workload::generate_system(&params, seed).expect("valid");
        let cm = mmrepl_model::CostModel::with_defaults(&sys);
        let mut total_gap = 0.0;
        let mut max_gap = 0.0f64;
        let mut n = 0usize;
        for pid in sys.pages().ids() {
            let greedy = cm
                .page_response(pid, &mmrepl_core::partition_page(&sys, pid))
                .get();
            let optimal = cm
                .page_response(pid, &mmrepl_core::optimal_partition(&sys, pid))
                .get();
            let gap = (greedy / optimal - 1.0) * 100.0;
            total_gap += gap;
            max_gap = max_gap.max(gap);
            n += 1;
        }
        let mut m = BTreeMap::new();
        m.insert("greedy mean gap".to_string(), total_gap / n as f64);
        m.insert("greedy max gap".to_string(), max_gap);
        m
    });
    AblationResult {
        name: "A5-greedy-optimality-gap".into(),
        metric: "% excess response over brute-force optimum".into(),
        variants: mean_of(per_run),
        runs: cfg.runs,
    }
}

/// Runs all five ablations.
pub fn all_ablations(cfg: &ExperimentConfig) -> Vec<AblationResult> {
    vec![
        ablation_partition_order(cfg),
        ablation_amortization(cfg),
        ablation_weights(cfg),
        ablation_offload(cfg),
        ablation_greedy_gap(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_paper_order_not_worse_than_alternatives() {
        let cfg = ExperimentConfig::quick();
        let a1 = ablation_partition_order(&cfg);
        let paper = a1.variants["decreasing-size (paper)"];
        // The greedy is a heuristic; allow slack but the paper order must
        // be competitive.
        for (k, &v) in &a1.variants {
            assert!(paper <= v * 1.05, "paper order {paper} vs {k} {v}");
        }
    }

    #[test]
    fn a2_amortization_not_worse() {
        let cfg = ExperimentConfig::quick();
        let a2 = ablation_amortization(&cfg);
        let paper = a2.variants["amortized-over-size (paper)"];
        let raw = a2.variants["raw-delta"];
        assert!(paper <= raw * 1.05, "paper {paper} vs raw {raw}");
    }

    #[test]
    fn a3_response_weighting_orders_sensibly() {
        let cfg = ExperimentConfig::quick();
        let a3 = ablation_weights(&cfg);
        // Ignoring response time entirely should not *beat* the paper's
        // weighting on response time.
        let paper = a3.variants["(2,1) paper"];
        let optional_only = a3.variants["(0,1) optional-only"];
        assert!(
            paper <= optional_only * 1.02,
            "paper {paper} vs optional-only {optional_only}"
        );
    }

    #[test]
    fn a4_both_rules_reported() {
        let cfg = ExperimentConfig::quick();
        let a4 = ablation_offload(&cfg);
        assert_eq!(a4.variants.len(), 2);
        for v in a4.variants.values() {
            assert!(*v >= 0.0);
        }
    }

    #[test]
    fn a5_greedy_gap_is_small() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 1;
        let a5 = ablation_greedy_gap(&cfg);
        let mean = a5.variants["greedy mean gap"];
        let max = a5.variants["greedy max gap"];
        assert!(mean >= 0.0, "greedy beat the optimum?! {mean}");
        assert!(mean < 5.0, "mean greedy gap {mean}% is suspiciously large");
        assert!(max >= mean);
    }

    #[test]
    fn tables_render() {
        let cfg = ExperimentConfig::quick();
        let a = ablation_partition_order(&cfg);
        let t = a.to_table();
        assert!(t.contains("A1-partition-order"));
        assert!(t.contains("decreasing-size (paper)"));
    }
}
