#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # mmrepl-online
//!
//! The online control plane for the IPPS 2000 replication planner. The
//! paper plans offline from "past access patterns" and concedes (Section
//! 4.1) that the plan goes stale as access patterns drift; its only remedy
//! is re-running the whole algorithm off-peak. This crate closes the loop
//! at run time:
//!
//! * [`estimator`] — streaming per-(site, page) request-rate estimation:
//!   sliding-window counters folded into an EWMA at every window close,
//!   yielding a live frequency matrix the planner can consume;
//! * [`detector`] — drift detection with cooldown and hysteresis: replan
//!   only when estimated and planned-for rates diverge past a threshold;
//! * [`delta`] — churn-bounded incremental replanning: re-run the
//!   restorations for the *dirty sites only* (warm-started from the cached
//!   frequency-independent `PARTITION`), diff against the live plan, and
//!   apply the best ΔD-per-byte switches under a migration-byte budget;
//! * [`migrate`] — bandwidth-charged migration replay: new replicas
//!   travel a φ share of the repository link before they can serve, and
//!   foreground remote fetches are derated to `1 − φ` meanwhile.
//!
//! [`OnlineController`] wires the four together: feed it request windows,
//! and it estimates, detects, replans and migrates — `mmrepl-sim`'s
//! `online` experiment (E-X5) compares it against the stale plan, per-epoch
//! full replanning and LRU on identical traces.

pub mod delta;
pub mod detector;
pub mod estimator;
pub mod migrate;

pub use delta::{ChurnBudget, DeltaOutcome, DeltaPlanner, DeltaReport, SiteMigration};
pub use detector::{rate_divergence, DetectorConfig, DriftDecision, DriftDetector, HoldReason};
pub use estimator::{EstimatorConfig, RateEstimator};
pub use migrate::{MigrateConfig, MigrationQueue, OnlineReplayOutcome};

use mmrepl_core::ReplicationPolicy;
use mmrepl_model::{Placement, Secs, SiteId, System};
use mmrepl_workload::Request;
use serde::{Deserialize, Serialize};

/// Tuning for the whole control loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Rate-estimation knobs.
    pub estimator: EstimatorConfig,
    /// Drift-detection knobs.
    pub detector: DetectorConfig,
    /// Migration bytes allowed per replan.
    pub budget: ChurnBudget,
    /// Migration bandwidth share.
    pub migrate: MigrateConfig,
}

/// What one control step (window close) did.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ControlReport {
    /// Windows closed so far (this one included).
    pub window: u64,
    /// Per-site divergence between planned-for and estimated rates,
    /// site-id order.
    pub divergences: Vec<f64>,
    /// Sites whose detectors fired.
    pub dirty: Vec<SiteId>,
    /// The incremental replan, when one ran.
    pub delta: Option<DeltaReport>,
    /// Replica bytes that finished transferring in this window's off-peak
    /// drain (Section 4.1's "off-peak hours").
    pub offpeak_bytes: u64,
}

/// The closed control loop: estimate → detect → delta-replan → migrate.
#[derive(Clone, Debug)]
pub struct OnlineController {
    base: System,
    cfg: OnlineConfig,
    estimator: RateEstimator,
    detectors: Vec<DriftDetector>,
    planner: DeltaPlanner,
    /// The rates each page's current row was planned for (site-granular:
    /// a replan refreshes only the dirty sites' pages).
    planned: Vec<f64>,
    queues: Vec<MigrationQueue>,
    windows: u64,
    replans: u64,
}

impl OnlineController {
    /// Plans `system` cold and starts the loop around the result.
    pub fn new(system: &System, policy: ReplicationPolicy, cfg: OnlineConfig) -> Self {
        cfg.migrate.validate();
        let planner = DeltaPlanner::new(system, policy);
        let queues = system
            .sites()
            .ids()
            .map(|s| MigrationQueue::new(planner.live().stored_set(system, s)))
            .collect();
        OnlineController {
            base: system.clone(),
            estimator: RateEstimator::new(system, cfg.estimator),
            detectors: vec![DriftDetector::new(cfg.detector); system.n_sites()],
            planner,
            planned: system.pages().values().map(|p| p.freq.get()).collect(),
            queues,
            windows: 0,
            replans: 0,
            cfg,
        }
    }

    /// The live placement.
    pub fn placement(&self) -> &Placement {
        self.planner.live()
    }

    /// The configuration in use.
    pub fn config(&self) -> &OnlineConfig {
        &self.cfg
    }

    /// Serves one site's window of requests against the live placement,
    /// draining that site's migration queue on the side, and feeds every
    /// request to the rate estimator. Call [`OnlineController::end_window`]
    /// once all sites' windows are served.
    pub fn serve_window(
        &mut self,
        site: SiteId,
        requests: &[Request],
        duration: Secs,
    ) -> OnlineReplayOutcome {
        self.estimator.ingest(requests);
        migrate::replay_window(
            &self.base,
            site,
            requests,
            self.planner.live(),
            &mut self.queues[site.index()],
            duration,
            &self.cfg.migrate,
        )
    }

    /// Closes every site's estimation window (`durations` in site-id
    /// order), runs the drift detectors, and — if any fired — replans the
    /// dirty sites incrementally and schedules the resulting migrations.
    pub fn end_window(&mut self, durations: &[Secs]) -> ControlReport {
        assert_eq!(
            durations.len(),
            self.base.n_sites(),
            "one duration per site"
        );
        let mut divergences = Vec::with_capacity(self.base.n_sites());
        let mut dirty = Vec::new();
        for (i, site) in self.base.sites().ids().enumerate() {
            self.estimator
                .close_site_window(&self.base, site, durations[i]);
            let pages = self.base.pages_of(site);
            let planned: Vec<f64> = pages.iter().map(|&p| self.planned[p.index()]).collect();
            let estimated: Vec<f64> = pages.iter().map(|&p| self.estimator.rate(p)).collect();
            let div = rate_divergence(&planned, &estimated);
            divergences.push(div);
            if self.detectors[site.index()].observe(div).is_replan() {
                dirty.push(site);
            }
        }

        let delta = if dirty.is_empty() {
            None
        } else {
            let est_sys = self.estimator.estimated_system(&self.base);
            let outcome = self.planner.replan(&est_sys, &dirty, self.cfg.budget);
            for m in &outcome.migrations {
                self.queues[m.site.index()].enqueue(m);
            }
            for &s in &dirty {
                for &p in self.base.pages_of(s) {
                    self.planned[p.index()] = self.estimator.rate(p);
                }
            }
            self.replans += 1;
            Some(outcome.report)
        };
        // The off-peak maintenance window: scheduled transfers run at the
        // full link rate with no foreground traffic to contend with.
        let mut offpeak_bytes = 0u64;
        for site in self.base.sites().ids() {
            let q = &mut self.queues[site.index()];
            offpeak_bytes += match self.cfg.migrate.offpeak_secs {
                None => q.drain_all(),
                Some(s) => q.drain(s * self.base.site(site).repo_rate.get()),
            };
        }

        self.windows += 1;
        ControlReport {
            window: self.windows,
            divergences,
            dirty,
            delta,
            offpeak_bytes,
        }
    }

    /// The live rate estimator.
    pub fn estimator(&self) -> &RateEstimator {
        &self.estimator
    }

    /// One site's migration state.
    pub fn queue(&self, site: SiteId) -> &MigrationQueue {
        &self.queues[site.index()]
    }

    /// Windows closed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Incremental replans run so far.
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Total migration bytes scheduled across all sites.
    pub fn bytes_scheduled(&self) -> u64 {
        self.queues.iter().map(|q| q.scheduled_bytes()).sum()
    }

    /// Total migration bytes that have physically arrived.
    pub fn bytes_completed(&self) -> u64 {
        self.queues.iter().map(|q| q.completed_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmrepl_workload::{generate_trace, DriftModel, SiteTrace, TraceConfig, WorkloadParams};

    fn setup(seed: u64) -> (System, WorkloadParams) {
        let params = WorkloadParams::small();
        // Tight storage makes the restorations frequency-sensitive — with
        // slack storage the whole plan is frequency-independent and drift
        // (correctly) never changes it.
        let sys = mmrepl_workload::generate_system(&params, seed)
            .unwrap()
            .with_storage_fraction(0.65)
            .with_processing_fraction(f64::INFINITY);
        (sys, params)
    }

    fn durations(sys: &System, traces: &[SiteTrace], windows: usize) -> Vec<Secs> {
        traces
            .iter()
            .map(|t| {
                let total: f64 = sys
                    .pages_of(t.site)
                    .iter()
                    .map(|&p| sys.page(p).freq.get())
                    .sum();
                Secs(t.len() as f64 / total / windows as f64)
            })
            .collect()
    }

    #[test]
    fn initial_placement_matches_cold_plan() {
        let (sys, _) = setup(21);
        let ctl = OnlineController::new(&sys, ReplicationPolicy::new(), OnlineConfig::default());
        let cold = ReplicationPolicy::new().plan(&sys).placement;
        assert_eq!(*ctl.placement(), cold);
        assert_eq!(ctl.replans(), 0);
        assert_eq!(ctl.bytes_scheduled(), 0);
    }

    #[test]
    fn drifted_traffic_triggers_incremental_replan() {
        let (sys, params) = setup(22);
        let drifted = DriftModel::new(0.5).apply(&sys, 22);
        let traces = generate_trace(&drifted, &TraceConfig::from_params(&params), 22);
        let mut ctl = OnlineController::new(
            &sys,
            ReplicationPolicy::new(),
            OnlineConfig {
                estimator: EstimatorConfig { ewma_alpha: 1.0 },
                ..OnlineConfig::default()
            },
        );
        for t in &traces {
            ctl.serve_window(t.site, &t.requests, Secs(10.0));
        }
        let report = ctl.end_window(&durations(&sys, &traces, 1));
        assert_eq!(report.window, 1);
        assert!(
            !report.dirty.is_empty(),
            "hot-set rotation must look like drift: {:?}",
            report.divergences
        );
        let delta = report.delta.expect("replan ran");
        assert!(delta.pages_applied > 0);
        assert_eq!(ctl.replans(), 1);
        assert!(ctl.bytes_scheduled() > 0, "replicas must move");
    }

    #[test]
    fn stationary_traffic_holds_the_plan_under_budgeted_controller() {
        let (sys, params) = setup(23);
        let traces = generate_trace(&sys, &TraceConfig::from_params(&params), 23);
        // Smoothed estimation + a threshold above sampling noise.
        let mut ctl = OnlineController::new(
            &sys,
            ReplicationPolicy::new(),
            OnlineConfig {
                estimator: EstimatorConfig { ewma_alpha: 0.3 },
                detector: DetectorConfig {
                    threshold: 1.5,
                    ..DetectorConfig::default()
                },
                ..OnlineConfig::default()
            },
        );
        for t in &traces {
            ctl.serve_window(t.site, &t.requests, Secs(10.0));
        }
        let report = ctl.end_window(&durations(&sys, &traces, 1));
        assert!(
            report.dirty.is_empty(),
            "divergences: {:?}",
            report.divergences
        );
        assert_eq!(ctl.replans(), 0);
    }

    #[test]
    fn churn_budget_defers_migrations() {
        let (sys, params) = setup(24);
        let drifted = DriftModel::new(0.5).apply(&sys, 24);
        let traces = generate_trace(&drifted, &TraceConfig::from_params(&params), 24);
        let run = |budget: ChurnBudget| {
            let mut ctl = OnlineController::new(
                &sys,
                ReplicationPolicy::new(),
                OnlineConfig {
                    estimator: EstimatorConfig { ewma_alpha: 1.0 },
                    budget,
                    ..OnlineConfig::default()
                },
            );
            for t in &traces {
                ctl.serve_window(t.site, &t.requests, Secs(10.0));
            }
            ctl.end_window(&durations(&sys, &traces, 1))
                .delta
                .expect("replan ran")
        };
        let unlimited = run(ChurnBudget::unlimited());
        assert_eq!(unlimited.pages_deferred, 0);
        let tight = run(ChurnBudget::bytes(unlimited.bytes_migrated / 4));
        assert!(tight.bytes_migrated <= unlimited.bytes_migrated / 4);
        assert!(tight.pages_deferred > 0, "tight budget must defer work");
        assert!(tight.bytes_deferred > 0);
    }
}
