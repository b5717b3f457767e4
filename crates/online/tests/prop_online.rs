//! Property tests for the online control plane.
//!
//! The two load-bearing guarantees (ISSUE acceptance criteria):
//!
//! * **Delta-plan equivalence** — with an unlimited churn budget and every
//!   site dirty, the incremental replanner's applied placement is
//!   bit-identical to a cold `plan` on the same estimated rates;
//! * **Estimator soundness** — ingest is order-insensitive within a
//!   window, and on a stationary trace the EWMA converges to the
//!   generator's rates (hot pages estimated hot, cold pages cold).

use mmrepl_core::{NegotiateConfig, PlannerConfig, ReplicationPolicy, StrategyKind};
use mmrepl_model::{Secs, System};
use mmrepl_online::{rate_divergence, ChurnBudget, DeltaPlanner, EstimatorConfig, RateEstimator};
use mmrepl_workload::{generate_trace, DriftModel, SiteTrace, TraceConfig, WorkloadParams};
use proptest::prelude::*;

/// Constrained systems: tight storage makes the restorations (and thus the
/// plan) frequency-sensitive, which is the only interesting case online.
fn constrained_sys(seed: u64, frac: f64) -> System {
    mmrepl_workload::generate_system(&WorkloadParams::small(), seed)
        .expect("valid params")
        .with_storage_fraction(frac)
        .with_processing_fraction(f64::INFINITY)
}

/// The virtual duration one site's trace spans: requests over total rate.
fn trace_duration(sys: &System, t: &SiteTrace) -> Secs {
    let total: f64 = sys
        .pages_of(t.site)
        .iter()
        .map(|&p| sys.page(p).freq.get())
        .sum();
    Secs(t.len() as f64 / total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unlimited budget + all sites dirty == a cold plan of the estimated
    /// system, bit for bit. The delta path (dirty-site restorations warm-
    /// started from the cached partition, offload against net capacity)
    /// must not be an approximation. The repository is squeezed to 20-60 %
    /// of the all-remote load, so stage 4 runs in many cases, under every
    /// negotiation strategy.
    #[test]
    fn delta_replan_matches_cold_plan(
        seed in 0u64..500,
        frac in 0.45f64..0.95,
        rotation in 0.1f64..0.9,
        central in 0.2f64..0.6,
        strategy in 0usize..3,
    ) {
        let base = constrained_sys(seed, frac).with_central_fraction(central);
        let est = DriftModel::new(rotation).apply(&base, seed ^ 0xD1F7);
        let strategy = [
            StrategyKind::GreedyProportional,
            StrategyKind::DeadlineBounded,
            StrategyKind::Auction,
        ][strategy];
        let policy = ReplicationPolicy::with_config(PlannerConfig {
            negotiation: NegotiateConfig { strategy, ..NegotiateConfig::default() },
            ..PlannerConfig::default()
        });

        let mut planner = DeltaPlanner::new(&base, policy);
        let all_sites: Vec<_> = base.sites().ids().collect();
        let outcome = planner.replan(&est, &all_sites, ChurnBudget::unlimited());
        prop_assert_eq!(outcome.report.pages_deferred, 0);
        prop_assert_eq!(outcome.report.bytes_deferred, 0);

        let cold = policy.plan(&est).placement;
        prop_assert_eq!(planner.live(), &cold);
    }

    /// A second replan on the same estimates is a no-op: the live plan
    /// already is the target.
    #[test]
    fn replan_is_idempotent(seed in 0u64..500, rotation in 0.1f64..0.9) {
        let base = constrained_sys(seed, 0.65);
        let est = DriftModel::new(rotation).apply(&base, seed);
        let mut planner = DeltaPlanner::new(&base, ReplicationPolicy::new());
        let all_sites: Vec<_> = base.sites().ids().collect();
        planner.replan(&est, &all_sites, ChurnBudget::unlimited());
        let again = planner.replan(&est, &all_sites, ChurnBudget::unlimited());
        prop_assert_eq!(again.report.pages_changed, 0);
        prop_assert_eq!(again.report.bytes_migrated, 0);
        prop_assert!(again.migrations.is_empty());
    }

    /// Any churn budget never over-spends, and applied + deferred always
    /// accounts for every diffed page.
    #[test]
    fn budget_is_respected(
        seed in 0u64..500,
        rotation in 0.1f64..0.9,
        budget in 0u64..4_000_000,
    ) {
        let base = constrained_sys(seed, 0.65);
        let est = DriftModel::new(rotation).apply(&base, seed);
        let mut planner = DeltaPlanner::new(&base, ReplicationPolicy::new());
        let all_sites: Vec<_> = base.sites().ids().collect();
        let outcome = planner.replan(&est, &all_sites, ChurnBudget::bytes(budget));
        let r = &outcome.report;
        prop_assert!(r.bytes_migrated <= budget,
            "migrated {} over budget {}", r.bytes_migrated, budget);
        prop_assert_eq!(r.pages_applied + r.pages_deferred, r.pages_changed);
        let scheduled: u64 = outcome.migrations.iter().map(|m| m.bytes()).sum();
        prop_assert_eq!(scheduled, r.bytes_migrated);
    }

    /// Ingest is pure counting: any permutation of the same window of
    /// requests yields the same estimates after the window closes.
    #[test]
    fn estimator_is_order_insensitive(
        seed in 0u64..500,
        shuffle_seed in any::<u64>(),
    ) {
        let sys = constrained_sys(seed, 0.65);
        let traces = generate_trace(
            &sys, &TraceConfig::from_params(&WorkloadParams::small()), seed);

        let mut forward = RateEstimator::new(&sys, EstimatorConfig::default());
        let mut shuffled = RateEstimator::new(&sys, EstimatorConfig::default());
        for t in &traces {
            forward.ingest(&t.requests);
            // A cheap deterministic permutation: split at a seed-derived
            // point, ingest the tail first, then the head reversed.
            let cut = (shuffle_seed as usize) % (t.len().max(1));
            let (head, tail) = t.requests.split_at(cut);
            shuffled.ingest(tail);
            for r in head.iter().rev() {
                shuffled.observe(r.page);
            }
        }
        for t in &traces {
            let d = trace_duration(&sys, t);
            forward.close_site_window(&sys, t.site, d);
            shuffled.close_site_window(&sys, t.site, d);
        }
        prop_assert_eq!(forward.rates(), shuffled.rates());
    }

    /// On a stationary trace the EWMA converges toward the generator's
    /// true rates: after a few windows the divergence from the true
    /// frequency matrix is small, and hot pages dominate cold ones.
    #[test]
    fn estimator_converges_on_stationary_traffic(seed in 0u64..200) {
        let sys = constrained_sys(seed, 0.65);
        let cfg = TraceConfig::from_params(&WorkloadParams::small());
        let mut est = RateEstimator::new(&sys, EstimatorConfig { ewma_alpha: 0.7 });

        for window in 0..4u64 {
            let traces = generate_trace(&sys, &cfg, seed ^ (window + 1));
            for t in &traces {
                est.ingest(&t.requests);
            }
            for t in &traces {
                est.close_site_window(&sys, t.site, trace_duration(&sys, t));
            }
        }

        for site in sys.sites().ids() {
            let truth: Vec<f64> =
                sys.pages_of(site).iter().map(|&p| sys.page(p).freq.get()).collect();
            let got: Vec<f64> =
                sys.pages_of(site).iter().map(|&p| est.rate(p)).collect();
            let div = rate_divergence(&truth, &got);
            prop_assert!(div < 0.35, "site {:?} diverges {} from truth", site, div);
        }

        // Rank check: the hottest true page must be estimated well above
        // the coldest true page on every site.
        for site in sys.sites().ids() {
            let pages = sys.pages_of(site);
            let hot = pages.iter().copied()
                .max_by(|&a, &b| sys.page(a).freq.get().total_cmp(&sys.page(b).freq.get()))
                .expect("site has pages");
            let cold = pages.iter().copied()
                .min_by(|&a, &b| sys.page(a).freq.get().total_cmp(&sys.page(b).freq.get()))
                .expect("site has pages");
            prop_assert!(est.rate(hot) > est.rate(cold),
                "hot {} not above cold {}", est.rate(hot), est.rate(cold));
        }
    }
}
