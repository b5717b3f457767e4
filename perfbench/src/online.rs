//! `online-epoch`: one epoch of the online control loop on a drifting
//! paper-scale system, from serving the epoch's request windows to routing
//! its traffic through the freshly published snapshot.

use crate::trace::{busy_s, Scope, Tracer};
use crate::{OpResult, Pair, Workload};
use mmrepl_core::{effective_threads, ReplicationPolicy};
use mmrepl_model::{ConstraintReport, ObjectId, Secs, System};
use mmrepl_online::{ControlReport, OnlineConfig, OnlineController, OnlineReplayOutcome};
use mmrepl_serve::{route_traces, EpochCell, PlacementSnapshot, RouteStats};
use mmrepl_sim::study_online_config;
use mmrepl_workload::{
    generate_system, generate_trace, DriftModel, Range, SiteTrace, TraceConfig, WorkloadParams,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const WINDOWS: usize = 4;
const ROTATION: f64 = 0.5;
/// `download_ratio` covers the routed requests of epochs
/// `1..=SERVED_EPOCHS`, a fixed set, so it repeats exactly for a seed
/// however many epochs a run fits in its time budget.
const SERVED_EPOCHS: u64 = 10;

pub struct OnlineBench {
    seed: u64,
    base: System,
    trace_cfg: TraceConfig,
    cfg: OnlineConfig,
    state: Option<Loop>,
}

/// The control loop between epochs.
struct Loop {
    ctl: OnlineController,
    cell: EpochCell<PlacementSnapshot>,
    /// The drifted system of the last epoch run.
    system: System,
    epoch: u64,
    /// Summed routed latency of epochs `1..=SERVED_EPOCHS`, seconds.
    served_s: f64,
    /// The same requests routed through a full replan at the epoch's
    /// true rates (the oracle the online study measures against).
    oracle_s: f64,
}

/// One epoch's inputs, generated before its clock starts.
struct EpochInput {
    system: System,
    traces: Vec<SiteTrace>,
    /// Per window, each site's virtual window duration (site-id order).
    durations: Vec<Vec<Secs>>,
}

/// What one epoch produced.
#[derive(Debug, PartialEq)]
struct EpochOut {
    reports: Vec<ControlReport>,
    served: OnlineReplayOutcome,
    routed: RouteStats,
}

impl OnlineBench {
    pub fn new(mut params: WorkloadParams, seed: u64) -> Result<Self, String> {
        // Table 1's midpoint for every site: with 10 sites the 400-800
        // draw alone moves epoch time by ±15% between seeds, so the seed
        // changes what the epoch works on, not how much.
        let mid = (params.pages_per_site.lo + params.pages_per_site.hi) / 2.0;
        params.pages_per_site = Range::fixed(mid);
        let base = generate_system(&params, seed)?
            .with_storage_fraction(0.65)
            .with_processing_fraction(f64::INFINITY);
        Ok(OnlineBench {
            seed,
            base,
            trace_cfg: TraceConfig::from_params(&params),
            cfg: study_online_config(),
            state: None,
        })
    }

    fn next_input(&self, from: &System, epoch: u64) -> EpochInput {
        let system = DriftModel::new(ROTATION).apply(from, self.seed.wrapping_add(epoch));
        let traces = generate_trace(
            &system,
            &self.trace_cfg,
            self.seed.wrapping_add(1000 + epoch),
        );
        let durations = (0..WINDOWS)
            .map(|w| {
                traces
                    .iter()
                    .map(|t| {
                        let rate: f64 = system
                            .pages_of(t.site)
                            .iter()
                            .map(|&p| system.page(p).freq.get())
                            .sum();
                        Secs(t.windows(WINDOWS)[w].len() as f64 / rate)
                    })
                    .collect()
            })
            .collect();
        EpochInput {
            system,
            traces,
            durations,
        }
    }
}

/// One epoch: every window's requests served site by site and the window
/// closed; then the controller's placement built into a snapshot, its
/// un-arrived replicas marked in the overlay, the snapshot published, and
/// the epoch's traffic routed through what the cell hands back.
fn run_epoch(lp: &mut Loop, input: &EpochInput, sc: Scope<'_>) -> EpochOut {
    let epoch = lp.epoch + 1;
    let out = sc.span("op", |op| {
        let windows: Vec<Vec<&[mmrepl_workload::Request]>> =
            input.traces.iter().map(|t| t.windows(WINDOWS)).collect();
        let mut served = OnlineReplayOutcome::new();
        let mut reports = Vec::with_capacity(WINDOWS);
        for (w, durations) in input.durations.iter().enumerate() {
            op.span("online.serve_window", |_| {
                for ((t, slices), &dur) in input.traces.iter().zip(&windows).zip(durations) {
                    served.merge(&lp.ctl.serve_window(t.site, slices[w], dur));
                }
            });
            reports.push(op.span("online.end_window", |_| lp.ctl.end_window(durations)));
        }
        let sys = &input.system;
        let snap = op.span("serve.snapshot_build", |_| {
            PlacementSnapshot::build(sys, lp.ctl.placement(), &[], epoch)
        });
        op.span("serve.overlay_seed", |_| {
            snap.seed_overlay(sys.sites().ids().map(|s| {
                let q = lp.ctl.queue(s);
                let pending: Vec<ObjectId> = sys
                    .objects()
                    .ids()
                    .filter(|&k| snap.stored(s, k) && !q.is_resident(k))
                    .collect();
                (s, pending)
            }))
        });
        let loaded = op.span("serve.publish", |_| {
            lp.cell.publish(Arc::new(snap));
            lp.cell.load()
        });
        let (_, routed) = op.span("serve.route", |_| route_traces(&loaded, &input.traces, 0));
        EpochOut {
            reports,
            served,
            routed,
        }
    });
    lp.epoch = epoch;
    out
}

impl Loop {
    fn new(
        ctl: OnlineController,
        cell: EpochCell<PlacementSnapshot>,
        system: System,
        epoch: u64,
    ) -> Self {
        Loop {
            ctl,
            cell,
            system,
            epoch,
            served_s: 0.0,
            oracle_s: 0.0,
        }
    }

    /// Checks the epoch just run, off the clock: Eq. 8-10 hold for the
    /// published placement, and routing the epoch on one thread gives the
    /// same totals and checksum as the auto thread count. Early epochs
    /// also price their traffic through the full-replan oracle.
    fn after_epoch(&mut self, input: EpochInput, out: &EpochOut) -> Option<String> {
        let report = ConstraintReport::check(&input.system, self.ctl.placement());
        let (_, single) = route_traces(&self.cell.load(), &input.traces, 1);
        if self.epoch <= SERVED_EPOCHS {
            let oracle = ReplicationPolicy::new().plan(&input.system);
            let snap = PlacementSnapshot::build(&input.system, &oracle.placement, &[], self.epoch);
            self.served_s += out.routed.est_latency_s;
            self.oracle_s += route_traces(&Arc::new(snap), &input.traces, 0)
                .1
                .est_latency_s;
        }
        self.system = input.system;
        if !report.is_feasible() {
            Some(format!(
                "epoch {}: published placement violates {:?}",
                self.epoch, report.violations
            ))
        } else if single != out.routed {
            Some(format!(
                "epoch {}: routing on 1 thread {single:?} differs from auto threads {:?}",
                self.epoch, out.routed
            ))
        } else {
            None
        }
    }
}

impl Workload for OnlineBench {
    fn threads(&self) -> BTreeMap<String, usize> {
        let n = self.base.n_sites();
        BTreeMap::from([
            ("planner".to_string(), effective_threads(0, n)),
            ("route".to_string(), effective_threads(0, n)),
        ])
    }

    fn set_up(&mut self) -> Result<f64, String> {
        self.state = None;
        let input = self.next_input(&self.base, 1);
        let t = Instant::now();
        let ctl = OnlineController::new(&self.base, ReplicationPolicy::new(), self.cfg);
        let initial = PlacementSnapshot::build(&self.base, ctl.placement(), &[], 0);
        let mut lp = Loop::new(ctl, EpochCell::new(Arc::new(initial)), self.base.clone(), 0);
        let out = run_epoch(&mut lp, &input, Scope::OFF);
        let secs = t.elapsed().as_secs_f64();
        let failure = lp.after_epoch(input, &out);
        self.state = Some(lp);
        match failure {
            Some(why) => Err(why),
            None => Ok(secs),
        }
    }

    fn op(&mut self) -> OpResult {
        let mut lp = self.state.take().expect("set up before the loop");
        let input = self.next_input(&lp.system, lp.epoch + 1);
        let t = Instant::now();
        let out = run_epoch(&mut lp, &input, Scope::OFF);
        let secs = t.elapsed().as_secs_f64();
        let failure = lp.after_epoch(input, &out);
        self.state = Some(lp);
        OpResult { secs, failure }
    }

    fn traced_pair(&mut self, traced_first: bool) -> Result<Pair, String> {
        let mut lp = self.state.take().expect("set up before the loop");
        let input = self.next_input(&lp.system, lp.epoch + 1);
        // Both sides start from the same controller state and published
        // snapshot.
        let mut twin = Loop::new(
            lp.ctl.clone(),
            EpochCell::new(lp.cell.load()),
            lp.system.clone(),
            lp.epoch,
        );
        let tracer = Tracer::new();
        let timed = |lp: &mut Loop, sc: Scope<'_>| {
            let t = Instant::now();
            let out = run_epoch(lp, &input, sc);
            (out, t.elapsed().as_secs_f64())
        };
        let ((out, untraced_s), (rebuilt, traced_s)) = if traced_first {
            let tr = timed(&mut twin, Scope::root(&tracer));
            (timed(&mut lp, Scope::OFF), tr)
        } else {
            let un = timed(&mut lp, Scope::OFF);
            (un, timed(&mut twin, Scope::root(&tracer)))
        };
        if rebuilt != out || twin.ctl.placement() != lp.ctl.placement() {
            return Err(format!(
                "epoch {}: traced epoch differs from untraced",
                lp.epoch
            ));
        }
        let failure = lp.after_epoch(input, &out);
        self.state = Some(lp);

        let spans = tracer.spans();
        let deltas = out.reports.iter().filter_map(|r| r.delta.as_ref());
        let delta_sum =
            |f: fn(&mmrepl_online::DeltaReport) -> u64| deltas.clone().map(f).sum::<u64>() as f64;
        let route_s = busy_s(&spans, "serve.route");
        let r = &out.routed;
        let layers = vec![
            (
                "online.serve_window_s",
                busy_s(&spans, "online.serve_window"),
            ),
            ("online.end_window_s", busy_s(&spans, "online.end_window")),
            (
                "online.dirty_sites",
                out.reports.iter().map(|r| r.dirty.len()).sum::<usize>() as f64,
            ),
            ("online.replans", deltas.clone().count() as f64),
            (
                "online.pages_applied",
                delta_sum(|d| d.pages_applied as u64),
            ),
            (
                "online.pages_deferred",
                delta_sum(|d| d.pages_deferred as u64),
            ),
            ("online.bytes_migrated", delta_sum(|d| d.bytes_migrated)),
            (
                "serve.snapshot_build_s",
                busy_s(&spans, "serve.snapshot_build"),
            ),
            ("serve.overlay_seed_s", busy_s(&spans, "serve.overlay_seed")),
            ("serve.publish_s", busy_s(&spans, "serve.publish")),
            ("serve.route_s", route_s),
            ("serve.route_mreq_s", r.requests as f64 / route_s * 1e-6),
            (
                "serve.route.local_frac",
                r.local as f64 / r.objects.max(1) as f64,
            ),
            ("serve.overlay_deflected", r.overlay_deflected as f64),
        ];
        Ok(Pair {
            untraced_s,
            traced_s,
            spans,
            layers,
            failure,
        })
    }

    fn download_ratio(&mut self) -> f64 {
        let lp = self.state.as_ref().expect("an epoch ran");
        lp.served_s / lp.oracle_s
    }
}
