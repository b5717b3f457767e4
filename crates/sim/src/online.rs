//! E-X5: the online-controller study — closing the loop Section 4.1
//! leaves open.
//!
//! The drift study ([`crate::drift`]) showed the off-line plan rots as the
//! hot set rotates and that per-epoch *full* replanning buys the quality
//! back — but a full replan assumes a free oracle: it sees each epoch's
//! true frequencies and teleports every replica. This study adds the
//! honest contender, the [`mmrepl_online::OnlineController`]:
//!
//! * it never sees true frequencies — only the request stream, through
//!   the EWMA estimator;
//! * it replans only when its drift detectors fire, only for the dirty
//!   sites, under a migration-byte budget;
//! * every replica it moves is charged to a φ share of the site's
//!   repository link, contending with foreground traffic, and serves
//!   locally only after it has physically arrived.
//!
//! Each epoch splits into [`OnlineStudy::windows_per_epoch`] estimation
//! windows so the controller can react *mid-epoch* instead of only at
//! epoch boundaries. All four strategies (stale, per-epoch full replan,
//! online, LRU) replay identical traces; series are normalized to
//! replanned-at-epoch-0 exactly like the drift study.

use crate::experiment::ExperimentConfig;
use crate::replay::replay_all;
use mmrepl_baselines::{LruRouter, StaticRouter};
use mmrepl_core::{parallel_map, ReplicationPolicy};
use mmrepl_model::{ObjectId, Secs, System};
use mmrepl_online::{ChurnBudget, OnlineConfig, OnlineController, OnlineReplayOutcome};
use mmrepl_serve::{route_traces, EpochCell, PlacementSnapshot};
use mmrepl_workload::{generate_trace, DriftModel, SiteTrace, TraceConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One epoch's results.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OnlineEpoch {
    /// Epoch index (0 = the planning epoch).
    pub epoch: usize,
    /// Strategy name → % increase over replanned-at-epoch-0.
    pub series: BTreeMap<String, f64>,
    /// Mean migration bytes the controller scheduled during the epoch.
    pub online_migrated_bytes: f64,
    /// Mean incremental replans the controller ran during the epoch.
    pub online_replans: f64,
    /// Mean estimated serving-plane latency per request (seconds) when
    /// the epoch's traces are routed through the [`PlacementSnapshot`]
    /// the controller publishes at the epoch boundary.
    #[serde(default)]
    pub served_latency_s: f64,
    /// Mean per-epoch count of requests the snapshot's migration
    /// overlay deflected away from a promised-but-unarrived local copy.
    #[serde(default)]
    pub served_overlay_deflects: f64,
}

/// The whole study.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OnlineStudy {
    /// Hot-set rotation per epoch.
    pub rotation: f64,
    /// Estimation windows per epoch (mid-epoch reaction points).
    pub windows_per_epoch: usize,
    /// Churn budget per replan as a fraction of aggregate site storage
    /// (`<= 0` means unlimited).
    pub budget_frac: f64,
    /// Controller tuning used.
    pub config: OnlineConfig,
    /// Epochs in order.
    pub epochs: Vec<OnlineEpoch>,
    /// Runs averaged.
    pub runs: usize,
}

impl OnlineStudy {
    /// Renders an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "# online study — % increase in mean response time vs replanned@epoch0 \
             (rotation {:.0}%, {} windows/epoch, {} runs)\n",
            self.rotation * 100.0,
            self.windows_per_epoch,
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
        out.push_str(&format!(
            "{:>14}{:>10}{:>12}{:>10}\n",
            "moved MiB", "replans", "serve ms", "deflects"
        ));
        for e in &self.epochs {
            out.push_str(&format!("{:>8}", e.epoch));
            for n in &names {
                out.push_str(&format!("{:>13.1}%", e.series[*n]));
            }
            out.push_str(&format!(
                "{:>14.1}{:>10.1}{:>12.3}{:>10.1}\n",
                e.online_migrated_bytes / (1024.0 * 1024.0),
                e.online_replans,
                e.served_latency_s * 1e3,
                e.served_overlay_deflects
            ));
        }
        out
    }
}

/// Detector/estimator defaults tuned for the drift workload. The EWMA is
/// heavily smoothed (α 0.3) because at a few hundred requests per window
/// the raw per-window rates are noisy enough that planning straight on
/// them thrashes the placement — steady-state EWMA noise scales with
/// `sqrt(α / (2 − α))`, and plans built from a 30 % blend of one drifted
/// window already sit near the full-replan oracle. The threshold sits
/// above that damped sampling noise (~0.15 relative L1) and well below
/// the divergence a hot-set rotation causes (~2x the rotated traffic
/// share). Hysteresis is off — with sampled traces the divergence never
/// settles near zero, so a re-arm level below the noise floor would leave
/// the detector deaf after its first trigger; the cooldown alone paces
/// replans here.
pub fn study_online_config() -> OnlineConfig {
    let mut cfg = OnlineConfig::default();
    cfg.estimator.ewma_alpha = 0.3;
    cfg.detector.threshold = 0.25;
    cfg.detector.rearm = 1.0;
    cfg
}

/// Per-site virtual duration of a trace slice under `system`'s current
/// rates: requests over the site's aggregate request rate.
fn slice_duration(system: &System, trace: &SiteTrace, len: usize) -> Secs {
    let total: f64 = system
        .pages_of(trace.site)
        .iter()
        .map(|&p| system.page(p).freq.get())
        .sum();
    Secs(len as f64 / total)
}

/// Runs the online study: `epochs` drift steps at `rotation` hot-set
/// turnover, `windows_per_epoch` estimation windows per epoch, the
/// controller's churn budget per replan set to `budget_frac` of
/// aggregate site storage. Sites at 65 % storage, processing relaxed —
/// the drift-study conditions.
pub fn online_study(
    cfg: &ExperimentConfig,
    epochs: usize,
    rotation: f64,
    windows_per_epoch: usize,
    budget_frac: f64,
    online_cfg: &OnlineConfig,
) -> OnlineStudy {
    assert!(windows_per_epoch > 0, "at least one window per epoch");
    let drift = DriftModel::new(rotation);
    /// One epoch of one run: the per-strategy % series, the controller's
    /// migrated bytes and replan count, and the serving-plane estimate
    /// (mean routed latency, overlay deflections) from the epoch's
    /// published snapshot.
    type RunEpoch = (BTreeMap<String, f64>, u64, u64, f64, f64);
    let per_run: Vec<Vec<RunEpoch>> = parallel_map(cfg.runs, cfg.threads, |run| {
        let seed = cfg
            .base_seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(run as u64);
        let base = mmrepl_workload::generate_system(&cfg.params, seed)
            .expect("valid params")
            .with_storage_fraction(0.65)
            .with_processing_fraction(f64::INFINITY);

        let stale_plan = ReplicationPolicy::new().plan(&base).placement;
        let trace_cfg = TraceConfig::from_params(&cfg.params);
        let baseline = {
            let traces = generate_trace(&base, &trace_cfg, seed);
            replay_all(&base, &traces, &mut StaticRouter::new(&stale_plan, "ours")).mean_response()
        };

        let mut controller_cfg = *online_cfg;
        if budget_frac > 0.0 {
            let total_storage: u64 = base.sites().iter().map(|(_, s)| s.storage.0).sum();
            controller_cfg.budget = ChurnBudget::bytes((total_storage as f64 * budget_frac) as u64);
        }
        let mut ctl = OnlineController::new(&base, ReplicationPolicy::new(), controller_cfg);
        let mut lru = LruRouter::new(&base);

        // The serving plane reads whatever snapshot the controller last
        // published; epoch 0 starts from the off-line plan.
        let cell = EpochCell::new(Arc::new(PlacementSnapshot::build(
            &base,
            &stale_plan,
            &[],
            0,
        )));
        // The serving-latency SLO tracks the tightest QoS bound in the
        // system; every routed slice below feeds it.
        if mmrepl_obs::enabled() {
            mmrepl_serve::register_latency_slo(&cell.load());
        }

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
                let replanned = replay_all(
                    &system,
                    &traces,
                    &mut StaticRouter::new(&replanned_placement, "replanned"),
                )
                .mean_response();
                let lru_mean = replay_all(&system, &traces, &mut lru).mean_response();

                // The controller serves the same traces window by
                // window, closing every site's estimation window (and
                // possibly replanning) between them.
                let bytes_before = ctl.bytes_scheduled();
                let replans_before = ctl.replans();
                let mut online_out = OnlineReplayOutcome::new();
                let windows: Vec<Vec<&[mmrepl_workload::Request]>> = traces
                    .iter()
                    .map(|t| t.windows(windows_per_epoch))
                    .collect();
                for w in 0..windows_per_epoch {
                    let mut durations = Vec::with_capacity(traces.len());
                    for (t, site_windows) in traces.iter().zip(&windows) {
                        let slice = site_windows[w];
                        let dur = slice_duration(&system, t, slice.len());
                        online_out.merge(&ctl.serve_window(t.site, slice, dur));
                        durations.push(dur);
                    }
                    ctl.end_window(&durations);
                    if mmrepl_obs::enabled() {
                        let queued: f64 = system
                            .sites()
                            .ids()
                            .map(|s| ctl.queue(s).pending_bytes())
                            .sum();
                        mmrepl_obs::set_gauge("online.migration_queue_bytes", queued);
                        mmrepl_obs::flush_thread();
                    }
                }

                // Publish the controller's post-epoch placement as an
                // immutable snapshot, overlay-marking every replica its
                // migration queues have promised but not yet delivered,
                // and price the epoch's traffic through the routed view.
                let snap = PlacementSnapshot::build(&system, ctl.placement(), &[], epoch as u64);
                snap.seed_overlay(system.sites().ids().map(|s| {
                    let q = ctl.queue(s);
                    let pend: Vec<ObjectId> = system
                        .objects()
                        .ids()
                        .filter(|&k| snap.stored(s, k) && !q.is_resident(k))
                        .collect();
                    (s, pend)
                }));
                cell.publish(Arc::new(snap));
                if mmrepl_obs::enabled() {
                    mmrepl_obs::set_gauge("online.epoch", epoch as f64);
                    mmrepl_obs::flush_thread();
                }
                let (_, served) = route_traces(&cell.load(), &traces, 1);
                let served_latency = served.est_latency_s / served.requests.max(1) as f64;

                let pct = |v: f64| (v / baseline - 1.0) * 100.0;
                let mut m = BTreeMap::new();
                m.insert("stale".to_string(), pct(stale));
                m.insert("replanned".to_string(), pct(replanned));
                m.insert("online".to_string(), pct(online_out.mean_response()));
                m.insert("lru".to_string(), pct(lru_mean));
                (
                    m,
                    ctl.bytes_scheduled() - bytes_before,
                    ctl.replans() - replans_before,
                    served_latency,
                    served.overlay_deflected as f64,
                )
            })
            .collect()
    });

    let n = per_run.len() as f64;
    let epochs_out = (0..=epochs)
        .map(|epoch| {
            let mut series: BTreeMap<String, f64> = BTreeMap::new();
            let mut bytes = 0.0;
            let mut replans = 0.0;
            let mut served = 0.0;
            let mut deflects = 0.0;
            for run in &per_run {
                for (k, v) in &run[epoch].0 {
                    *series.entry(k.clone()).or_insert(0.0) += v;
                }
                bytes += run[epoch].1 as f64;
                replans += run[epoch].2 as f64;
                served += run[epoch].3;
                deflects += run[epoch].4;
            }
            for v in series.values_mut() {
                *v /= n;
            }
            OnlineEpoch {
                epoch,
                series,
                online_migrated_bytes: bytes / n,
                online_replans: replans / n,
                served_latency_s: served / n,
                served_overlay_deflects: deflects / n,
            }
        })
        .collect();
    OnlineStudy {
        rotation,
        windows_per_epoch,
        budget_frac,
        config: *online_cfg,
        epochs: epochs_out,
        runs: cfg.runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_site;
    use mmrepl_core::partition_all;
    use mmrepl_online::{migrate, MigrateConfig, MigrationQueue};
    use mmrepl_workload::WorkloadParams;

    /// With an empty migration queue the online replayer must price every
    /// request exactly like the offline replayer — the two series are
    /// directly comparable.
    #[test]
    fn online_replay_matches_offline_without_migration() {
        let params = WorkloadParams::small();
        let sys = mmrepl_workload::generate_system(&params, 31).unwrap();
        let traces = generate_trace(&sys, &TraceConfig::from_params(&params), 31);
        let placement = partition_all(&sys);
        for t in &traces {
            let offline = replay_site(&sys, t, &mut StaticRouter::new(&placement, "ours"));
            let mut q = MigrationQueue::new(placement.stored_set(&sys, t.site));
            let online = migrate::replay_window(
                &sys,
                t.site,
                &t.requests,
                &placement,
                &mut q,
                Secs(100.0),
                &MigrateConfig::default(),
            );
            assert_eq!(online.pages, offline.pages);
            assert_eq!(online.optional, offline.optional);
            assert_eq!(online.local_objects, offline.local_objects);
            assert_eq!(online.remote_objects, offline.remote_objects);
        }
    }

    #[test]
    fn online_controller_recovers_most_of_the_replanning_gain() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 2;
        let study = online_study(&cfg, 2, 0.8, 4, 0.25, &study_online_config());
        assert_eq!(study.epochs.len(), 3);

        for e in &study.epochs[1..] {
            // The controller must beat the stale plan once drift starts…
            assert!(
                e.series["online"] < e.series["stale"],
                "epoch {}: online {} vs stale {}",
                e.epoch,
                e.series["online"],
                e.series["stale"]
            );
            // …and land within 10 % of the full-replan oracle (ratio of
            // absolute response times, not percentage points).
            let online_abs = 1.0 + e.series["online"] / 100.0;
            let replanned_abs = 1.0 + e.series["replanned"] / 100.0;
            assert!(
                online_abs <= replanned_abs * 1.10,
                "epoch {}: online {} more than 10% over replanned {}",
                e.epoch,
                e.series["online"],
                e.series["replanned"]
            );
            // Adaptation must have actually moved bounded replicas.
            assert!(e.online_replans > 0.0, "no replans at epoch {}", e.epoch);
            assert!(e.online_migrated_bytes > 0.0);
        }
    }

    #[test]
    fn churn_budget_caps_migration_per_epoch() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 1;
        let budget_frac = 0.02;
        let study = online_study(&cfg, 1, 0.8, 2, budget_frac, &study_online_config());
        let sys = mmrepl_workload::generate_system(
            &cfg.params,
            cfg.base_seed.wrapping_mul(0x9E3779B97F4A7C15),
        )
        .unwrap()
        .with_storage_fraction(0.65)
        .with_processing_fraction(f64::INFINITY);
        let total_storage: u64 = sys.sites().iter().map(|(_, s)| s.storage.0).sum();
        let per_replan = total_storage as f64 * budget_frac;
        for e in &study.epochs {
            let max_bytes = per_replan * e.online_replans.max(1.0);
            assert!(
                e.online_migrated_bytes <= max_bytes + 1.0,
                "epoch {}: moved {} over cap {}",
                e.epoch,
                e.online_migrated_bytes,
                max_bytes
            );
        }
    }

    #[test]
    fn table_renders() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 1;
        let study = online_study(&cfg, 1, 0.5, 2, 1.0, &study_online_config());
        let t = study.to_table();
        assert!(t.contains("online study"));
        assert!(t.contains("stale"));
        assert!(t.contains("online"));
        assert!(t.contains("replans"));
        assert!(t.contains("serve ms"));
        assert!(t.contains("deflects"));
    }

    /// Every epoch must price its traffic through the snapshot the
    /// controller published at the epoch boundary: the routed latency is
    /// strictly positive, and it is finite even while migrations are
    /// still in flight (the overlay deflects those requests instead of
    /// serving a replica that has not arrived).
    #[test]
    fn published_snapshots_price_served_latency_every_epoch() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 2;
        let study = online_study(&cfg, 2, 0.8, 4, 0.25, &study_online_config());
        for e in &study.epochs {
            assert!(
                e.served_latency_s > 0.0 && e.served_latency_s.is_finite(),
                "epoch {}: served latency {}",
                e.epoch,
                e.served_latency_s
            );
            assert!(e.served_overlay_deflects >= 0.0);
        }
    }
}
