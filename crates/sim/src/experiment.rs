//! The Section 5.2 experiments.
//!
//! Methodology, matching the paper:
//!
//! * each **run** generates a fresh synthetic workload and a fresh
//!   10,000-requests-per-site trace from its own seed;
//! * every policy replays the *same* trace (paired comparison);
//! * results are reported as the **relative increase in mean response
//!   time** over our policy with no constraints imposed, averaged over
//!   the runs (the paper uses 20);
//! * Remote and Local are evaluated unconstrained, LRU under Eq. 8 only,
//!   our policy under whatever constraints the sweep imposes.
//!
//! Runs are independent, so they fan out over [`mmrepl_core::parallel_map`].

use crate::replay::replay_all;
use mmrepl_baselines::{LruRouter, StaticRouter};
use mmrepl_core::{parallel_map, ReplicationPolicy};
use mmrepl_model::{Placement, System};
use mmrepl_workload::{generate_trace, SiteTrace, TraceConfig, WorkloadParams};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Experiment-level configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Workload parameters (Table 1 by default).
    pub params: WorkloadParams,
    /// Independent runs to average over (the paper uses 20).
    pub runs: usize,
    /// Base RNG seed; run `r` derives its own stream from it.
    pub base_seed: u64,
    /// Worker threads (`0` = one per core).
    pub threads: usize,
}

impl ExperimentConfig {
    /// The paper's setup: Table 1 workload, 20 runs.
    pub fn paper() -> Self {
        ExperimentConfig {
            params: WorkloadParams::paper(),
            runs: 20,
            base_seed: 0x6d6d_7265_706c,
            threads: 0,
        }
    }

    /// A milliseconds-scale configuration for tests: the small workload
    /// and 2 runs.
    pub fn quick() -> Self {
        ExperimentConfig {
            params: WorkloadParams::small(),
            runs: 2,
            base_seed: 7,
            threads: 0,
        }
    }
}

/// Figure 1's storage sweep (the paper ticks 0-100 % and calls out 65 %
/// as the point where our policy matches LRU at full storage).
pub const STORAGE_FRACTIONS: [f64; 6] = [0.2, 0.4, 0.6, 0.65, 0.8, 1.0];

/// Figure 2 and 3's local processing sweep.
pub const PROCESSING_FRACTIONS: [f64; 8] = [0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Figure 3's repository capacities (90 %, 70 %, 50 %).
pub const CENTRAL_FRACTIONS: [f64; 3] = [0.9, 0.7, 0.5];

/// One x-position of a figure: the sweep value plus every series' mean
/// relative response-time increase (in percent) and its run-to-run
/// standard error.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FigurePoint {
    /// The sweep coordinate (a capacity/storage fraction in `[0, 1]`).
    pub x: f64,
    /// Series name → mean % increase in response time over the
    /// unconstrained baseline.
    pub series: BTreeMap<String, f64>,
    /// Series name → standard error of that mean across runs (zero for a
    /// single run).
    #[serde(default)]
    pub stderr: BTreeMap<String, f64>,
}

/// A regenerated figure: named series sampled at sweep points.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FigureData {
    /// Figure identifier ("figure1", ...).
    pub name: String,
    /// Human-readable x-axis label.
    pub x_label: String,
    /// Points in sweep order.
    pub points: Vec<FigurePoint>,
    /// Runs averaged over.
    pub runs: usize,
}

impl FigureData {
    /// The series' values in point order.
    pub fn series(&self, name: &str) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter_map(|p| p.series.get(name).map(|&v| (p.x, v)))
            .collect()
    }

    /// All series names, sorted.
    pub fn series_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .points
            .first()
            .map(|p| p.series.keys().cloned().collect())
            .unwrap_or_default();
        names.sort();
        names
    }

    /// Renders an aligned text table (`mmrepl study` prints and writes it).
    pub fn to_table(&self) -> String {
        let names = self.series_names();
        let mut out = String::new();
        out.push_str(&format!(
            "# {} — % increase in mean response time vs unconstrained ({} runs)\n",
            self.name, self.runs
        ));
        out.push_str(&format!("{:>10}", self.x_label));
        for n in &names {
            out.push_str(&format!("{n:>14}"));
        }
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!("{:>9.0}%", p.x * 100.0));
            for n in &names {
                match p.series.get(n) {
                    Some(v) => {
                        let se = p.stderr.get(n).copied().unwrap_or(0.0);
                        if se > 0.05 {
                            out.push_str(&format!("{:>8.1}%±{:<4.1}", v, se));
                        } else {
                            out.push_str(&format!("{:>13.1}%", v));
                        }
                    }
                    None => out.push_str(&format!("{:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// The scalar claims of Section 5.2.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Headline {
    /// Remote policy's % increase (paper: 335 %).
    pub remote_pct: f64,
    /// Local policy's % increase (paper: 23.8 %).
    pub local_pct: f64,
    /// Ideal LRU at 100 % storage (paper: ≈ 24 %).
    pub lru_full_pct: f64,
    /// Our policy at 100 % storage (paper: ≈ 0, it is the baseline).
    pub ours_full_pct: f64,
    /// Smallest storage fraction at which our policy matches LRU at
    /// 100 % (paper: ≈ 0.65).
    pub ours_matches_lru_at: Option<f64>,
}

impl Headline {
    /// Renders the claims next to the paper's values (`headline.txt`).
    pub fn to_table(&self) -> String {
        format!(
            "\n# Section 5.2 headline numbers (paper: remote +335%, local +23.8%, \
             lru@100% ~ +24%, ours matches lru@100% at ~65% storage)\n\
             remote             : {:+8.1}%\n\
             local              : {:+8.1}%\n\
             lru @ 100% storage : {:+8.1}%\n\
             ours @ 100% storage: {:+8.1}%\n\
             ours matches lru@100% at storage fraction: {}\n",
            self.remote_pct,
            self.local_pct,
            self.lru_full_pct,
            self.ours_full_pct,
            self.ours_matches_lru_at
                .map(|f| format!("{:.0}%", f * 100.0))
                .unwrap_or_else(|| "not reached".into()),
        )
    }
}

/// Per-run context: the generated system and its trace.
pub(crate) struct RunCtx {
    pub(crate) system: System,
    pub(crate) traces: Vec<SiteTrace>,
}

/// Run `run`'s context: a fresh system and trace from a seed derived
/// from the base seed.
pub(crate) fn run_ctx(cfg: &ExperimentConfig, run: usize) -> RunCtx {
    let seed = cfg
        .base_seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(run as u64);
    let system = generate_trace_system(cfg, seed);
    let traces = generate_trace(&system, &TraceConfig::from_params(&cfg.params), seed);
    RunCtx { system, traces }
}

fn generate_trace_system(cfg: &ExperimentConfig, seed: u64) -> System {
    mmrepl_workload::generate_system(&cfg.params, seed).expect("workload parameters validated")
}

/// Relaxes only the processing capacities (Figure 1 setup: "we relaxed
/// the local site's processing capacity constraint").
fn relax_processing(sys: &System) -> System {
    sys.with_processing_fraction(f64::INFINITY)
}

/// Mean response time of our policy planned on `sys` and replayed on the
/// run's trace.
pub fn run_ours(sys: &System, traces: &[SiteTrace]) -> f64 {
    let placement = ReplicationPolicy::new().plan(sys).placement;
    replay_all(sys, traces, &mut StaticRouter::new(&placement, "ours")).mean_response()
}

/// [`run_ours`] warm-started from a precomputed unconstrained partition.
///
/// The figure sweeps evaluate the policy on many capacity-scaled variants
/// of one generated system; `PARTITION` ignores capacities, so each run
/// computes it once and shares it across every sweep point and policy —
/// bit-identical to the cold path (asserted by property tests).
fn run_ours_warm(sys: &System, traces: &[SiteTrace], initial: &Placement) -> f64 {
    let placement = ReplicationPolicy::new()
        .plan_with_partition(sys, initial)
        .placement;
    replay_all(sys, traces, &mut StaticRouter::new(&placement, "ours")).mean_response()
}

/// Mean response time of a static placement on the run's trace.
pub fn run_static(sys: &System, traces: &[SiteTrace], placement: &Placement) -> f64 {
    replay_all(sys, traces, &mut StaticRouter::new(placement, "static")).mean_response()
}

/// Mean response time of the ideal LRU router on the run's trace.
pub fn run_lru(sys: &System, traces: &[SiteTrace]) -> f64 {
    replay_all(sys, traces, &mut LruRouter::new(sys)).mean_response()
}

fn pct(value: f64, baseline: f64) -> f64 {
    (value / baseline - 1.0) * 100.0
}

/// Figure 1 — response time vs local storage capacity, processing
/// relaxed. Series: `ours`, `lru` (swept), `remote`, `local` (flat
/// references, unconstrained).
pub fn figure1(cfg: &ExperimentConfig, fractions: &[f64]) -> FigureData {
    let per_run: Vec<Vec<BTreeMap<String, f64>>> = parallel_map(cfg.runs, cfg.threads, |run| {
        let ctx = run_ctx(cfg, run);
        let initial = mmrepl_core::partition_all(&ctx.system);
        let relaxed = relax_processing(&ctx.system.unconstrained());
        let baseline = run_ours_warm(&relaxed, &ctx.traces, &initial);

        let remote = pct(
            run_static(
                &ctx.system,
                &ctx.traces,
                &Placement::all_remote(&ctx.system),
            ),
            baseline,
        );
        let local = pct(
            run_static(&ctx.system, &ctx.traces, &Placement::all_local(&ctx.system)),
            baseline,
        );

        fractions
            .iter()
            .map(|&f| {
                let sys_f = relax_processing(&ctx.system.with_storage_fraction(f));
                let mut m = BTreeMap::new();
                m.insert(
                    "ours".into(),
                    pct(run_ours_warm(&sys_f, &ctx.traces, &initial), baseline),
                );
                m.insert("lru".into(), pct(run_lru(&sys_f, &ctx.traces), baseline));
                m.insert("remote".into(), remote);
                m.insert("local".into(), local);
                m
            })
            .collect()
    });
    average_runs("figure1", "storage", fractions, per_run, cfg.runs)
}

/// Figure 2 — response time vs local processing capacity, storage at
/// 100 %. Series: `ours` plus the flat `remote` reference it converges to.
pub fn figure2(cfg: &ExperimentConfig, fractions: &[f64]) -> FigureData {
    let per_run: Vec<Vec<BTreeMap<String, f64>>> = parallel_map(cfg.runs, cfg.threads, |run| {
        let ctx = run_ctx(cfg, run);
        let initial = mmrepl_core::partition_all(&ctx.system);
        let relaxed = relax_processing(&ctx.system.unconstrained());
        let baseline = run_ours_warm(&relaxed, &ctx.traces, &initial);
        let remote = pct(
            run_static(
                &ctx.system,
                &ctx.traces,
                &Placement::all_remote(&ctx.system),
            ),
            baseline,
        );
        fractions
            .iter()
            .map(|&f| {
                let sys_f = ctx.system.with_processing_fraction(f);
                let mut m = BTreeMap::new();
                m.insert(
                    "ours".into(),
                    pct(run_ours_warm(&sys_f, &ctx.traces, &initial), baseline),
                );
                m.insert("remote".into(), remote);
                m
            })
            .collect()
    });
    average_runs("figure2", "processing", fractions, per_run, cfg.runs)
}

/// Figure 3 — response time vs local processing capacity with the
/// repository capacity fixed at 90 %, 70 %, 50 %. One series per central
/// fraction.
///
/// The paper says "the repository can only serve 50 % of the requests":
/// each central fraction caps `C(R)` at that share of the repository load
/// the *unconstrained-repository plan* would impose at the same local
/// capacity, forcing the off-loading negotiation to push the remainder
/// back to the sites (when they have the headroom to take it).
pub fn figure3(cfg: &ExperimentConfig, central_fracs: &[f64], local_fracs: &[f64]) -> FigureData {
    let per_run: Vec<Vec<BTreeMap<String, f64>>> = parallel_map(cfg.runs, cfg.threads, |run| {
        let ctx = run_ctx(cfg, run);
        let initial = mmrepl_core::partition_all(&ctx.system);
        let relaxed = relax_processing(&ctx.system.unconstrained());
        let baseline = run_ours_warm(&relaxed, &ctx.traces, &initial);
        local_fracs
            .iter()
            .map(|&lf| {
                let sys_lf = ctx.system.with_processing_fraction(lf);
                // The repository load this local-capacity level induces
                // when the repository itself is unconstrained.
                let pre = ReplicationPolicy::new().plan_with_partition(&sys_lf, &initial);
                let induced = pre.placement.repo_load(&sys_lf).get();
                let mut m = BTreeMap::new();
                for &cf in central_fracs {
                    let sys_f =
                        sys_lf.with_repository_capacity(mmrepl_model::ReqPerSec(induced * cf));
                    m.insert(
                        format!("central {:.0}%", cf * 100.0),
                        pct(run_ours_warm(&sys_f, &ctx.traces, &initial), baseline),
                    );
                }
                m
            })
            .collect()
    });
    average_runs("figure3", "processing", local_fracs, per_run, cfg.runs)
}

/// The Section 5.2 scalar claims, extracted from a Figure 1 sweep.
pub fn headline(fig1: &FigureData) -> Headline {
    let last = fig1.points.last().expect("figure1 has points");
    let lru_full_pct = *last.series.get("lru").expect("lru series");
    let ours_full_pct = *last.series.get("ours").expect("ours series");
    let remote_pct = *last.series.get("remote").expect("remote series");
    let local_pct = *last.series.get("local").expect("local series");
    let ours_matches_lru_at = fig1
        .points
        .iter()
        .find(|p| p.series["ours"] <= lru_full_pct)
        .map(|p| p.x);
    Headline {
        remote_pct,
        local_pct,
        lru_full_pct,
        ours_full_pct,
        ours_matches_lru_at,
    }
}

fn average_runs(
    name: &str,
    x_label: &str,
    xs: &[f64],
    per_run: Vec<Vec<BTreeMap<String, f64>>>,
    runs: usize,
) -> FigureData {
    let n = per_run.len() as f64;
    let points = xs
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
            // Standard error of the mean across runs.
            let mut stderr: BTreeMap<String, f64> = BTreeMap::new();
            if per_run.len() > 1 {
                for (k, &mean) in &series {
                    let var: f64 = per_run
                        .iter()
                        .filter_map(|run| run[i].get(k))
                        .map(|&v| (v - mean) * (v - mean))
                        .sum::<f64>()
                        / (n - 1.0);
                    stderr.insert(k.clone(), (var / n).sqrt());
                }
            } else {
                for k in series.keys() {
                    stderr.insert(k.clone(), 0.0);
                }
            }
            FigurePoint { x, series, stderr }
        })
        .collect();
    FigureData {
        name: name.into(),
        x_label: x_label.into(),
        points,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape_holds_on_small_workload() {
        let cfg = ExperimentConfig::quick();
        let fig = figure1(&cfg, &[0.4, 0.7, 1.0]);
        assert_eq!(fig.points.len(), 3);
        let ours = fig.series("ours");
        let lru = fig.series("lru");
        let remote = fig.series("remote");
        let local = fig.series("local");

        // Remote is far worse than everything; Local worse than ours@100%.
        assert!(
            remote[0].1 > local[0].1,
            "remote {remote:?} local {local:?}"
        );
        assert!(remote[0].1 > 100.0, "remote only +{}%", remote[0].1);
        // Ours at 100% storage is the (noisy) baseline: near zero.
        let ours_full = ours.last().unwrap().1;
        assert!(
            ours_full.abs() < 10.0,
            "ours@100% should be ~baseline, got {ours_full}%"
        );
        // Ours dominates LRU at full storage.
        let lru_full = lru.last().unwrap().1;
        assert!(
            ours_full < lru_full,
            "ours {ours_full}% should beat lru {lru_full}%"
        );
        // Monotonicity (weak): more storage never hurts ours.
        assert!(ours[0].1 >= ours[2].1 - 1.0, "{ours:?}");
    }

    #[test]
    fn figure2_rises_as_capacity_falls() {
        let cfg = ExperimentConfig::quick();
        let fig = figure2(&cfg, &[0.2, 0.6, 1.0]);
        let ours = fig.series("ours");
        // Tighter capacity → worse (weakly monotone).
        assert!(ours[0].1 >= ours[1].1 - 1.0, "{ours:?}");
        assert!(ours[1].1 >= ours[2].1 - 1.0, "{ours:?}");
        // At full capacity we're near the baseline.
        assert!(ours[2].1.abs() < 10.0, "{ours:?}");
        // And never worse than the Remote extreme.
        let remote = fig.series("remote")[0].1;
        assert!(
            ours[0].1 <= remote + 5.0,
            "ours {} remote {}",
            ours[0].1,
            remote
        );
    }

    #[test]
    fn figure3_orders_by_central_capacity() {
        let cfg = ExperimentConfig::quick();
        let fig = figure3(&cfg, &[0.5, 0.9], &[0.7, 1.0]);
        assert_eq!(fig.points.len(), 2);
        for p in &fig.points {
            let c50 = p.series["central 50%"];
            let c90 = p.series["central 90%"];
            // Tighter repository can't help (weak: small noise allowed).
            assert!(c50 >= c90 - 1.5, "c50 {c50} vs c90 {c90} at x={}", p.x);
        }
    }

    #[test]
    fn headline_extracts_last_point() {
        let cfg = ExperimentConfig::quick();
        let fig = figure1(&cfg, &[0.5, 1.0]);
        let h = headline(&fig);
        assert_eq!(h.remote_pct, fig.points[1].series["remote"]);
        assert!(h.ours_matches_lru_at.is_some());
        assert!(h.ours_matches_lru_at.unwrap() <= 1.0);
    }

    #[test]
    fn figure_table_renders() {
        let cfg = ExperimentConfig::quick();
        let fig = figure1(&cfg, &[1.0]);
        let table = fig.to_table();
        assert!(table.contains("figure1"));
        assert!(table.contains("ours"));
        assert!(table.contains("lru"));
        assert!(table.contains("100%"));
    }

    #[test]
    fn experiments_are_deterministic_across_thread_counts() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 2;
        cfg.threads = 1;
        let a = figure2(&cfg, &[0.8]);
        cfg.threads = 2;
        let b = figure2(&cfg, &[0.8]);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_fraction_sets_are_sane() {
        for f in STORAGE_FRACTIONS
            .into_iter()
            .chain(PROCESSING_FRACTIONS)
            .chain(CENTRAL_FRACTIONS)
        {
            assert!((0.0..=1.0).contains(&f));
        }
        assert!(STORAGE_FRACTIONS.contains(&0.65)); // the headline point
        assert_eq!(CENTRAL_FRACTIONS, [0.9, 0.7, 0.5]);
    }

    #[test]
    fn serde_roundtrip_figure_data() {
        let cfg = ExperimentConfig::quick();
        let fig = figure2(&cfg, &[1.0]);
        let json = serde_json::to_string(&fig).unwrap();
        let back: FigureData = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fig);
    }
}
