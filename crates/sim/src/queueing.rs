//! Queueing-aware replay — an extension beyond the paper.
//!
//! The paper enforces processing capacity only as a *planning* constraint
//! (Eq. 8/9) and never charges queueing delay in its evaluation. This
//! replay does: page requests arrive at each site at its aggregate page
//! rate, every HTTP request occupies the serving machine for `1/C`
//! seconds, and the resulting FIFO waits delay the corresponding download
//! stream. It answers the question the paper leaves open — *what does an
//! infeasible or barely-feasible placement actually cost users?* — in
//! [`queueing_study`], and backs the `ablations` bench.
//!
//! The replay itself is [`crate::replay`]'s request loop; this module owns
//! the FIFO rules it adds — the arrival schedule and the servers — which
//! the crate's event-driven oracle reuses.

use crate::experiment::{run_ctx, ExperimentConfig};
use crate::replay::{replay, traced, ReplayOutcome};
use crate::server::QueueingServer;
use mmrepl_baselines::{RequestRouter, RouteDecision, StaticRouter};
use mmrepl_core::{parallel_map, ReplicationPolicy, SimTime};
use mmrepl_model::{Placement, Secs, System};
use mmrepl_workload::{RequestStreams, SiteTrace};

/// The local processing capacities the queueing study sweeps.
pub const QUEUEING_FRACTIONS: [f64; 4] = [0.4, 0.6, 0.8, 1.0];

/// One capacity level of the queueing study, averaged over runs.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueingPoint {
    /// Local processing capacity as a fraction of the all-local load.
    pub capacity: f64,
    /// Mean response of the planner's (feasible) placement, seconds.
    pub planned_s: f64,
    /// Mean response of the (infeasible) all-local placement, seconds.
    pub all_local_s: f64,
    /// Mean site wait of the all-local placement, seconds.
    pub all_local_wait_s: f64,
}

/// The queueing study: what ignoring the processing-capacity constraint
/// costs users once queueing delay is charged.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueingStudy {
    /// Runs averaged over.
    pub runs: usize,
    /// One point per [`QUEUEING_FRACTIONS`] entry, in sweep order.
    pub points: Vec<QueueingPoint>,
}

impl QueueingStudy {
    /// Renders the aligned text table (`queueing.txt`).
    pub fn to_table(&self) -> String {
        let mut table = format!(
            "# queueing extension — response time with queueing delay charged ({} runs)\n\
             {:>10} {:>16} {:>18} {:>18}\n",
            self.runs, "capacity", "planner (feas.)", "all-local (infeas.)", "all-local wait"
        );
        for p in &self.points {
            table.push_str(&format!(
                "{:>9.0}% {:>14.1} s {:>16.1} s {:>16.1} s\n",
                p.capacity * 100.0,
                p.planned_s,
                p.all_local_s,
                p.all_local_wait_s,
            ));
        }
        table
    }
}

/// Replays the planner's feasible placement and the deliberately
/// infeasible all-local placement with FIFO waits charged, at every
/// [`QUEUEING_FRACTIONS`] capacity level, averaged over `cfg.runs` runs.
pub fn queueing_study(cfg: &ExperimentConfig) -> QueueingStudy {
    let per_run: Vec<Vec<(f64, f64, f64)>> = parallel_map(cfg.runs, cfg.threads, |run| {
        let ctx = run_ctx(cfg, run);
        QUEUEING_FRACTIONS
            .iter()
            .map(|&f| {
                let sys_f = ctx.system.with_processing_fraction(f);
                let planned = ReplicationPolicy::new().plan(&sys_f).placement;
                let feasible = queueing_replay(
                    &sys_f,
                    &ctx.traces,
                    &mut StaticRouter::new(&planned, "ours"),
                );
                let all_local = Placement::all_local(&sys_f);
                let infeasible = queueing_replay(
                    &sys_f,
                    &ctx.traces,
                    &mut StaticRouter::new(&all_local, "local"),
                );
                (
                    feasible.mean_response(),
                    infeasible.mean_response(),
                    infeasible.site_waits.mean().map(|s| s.get()).unwrap_or(0.0),
                )
            })
            .collect()
    });
    let n = per_run.len() as f64;
    let points = QUEUEING_FRACTIONS
        .iter()
        .enumerate()
        .map(|(i, &capacity)| {
            let mean = |pick: fn(&(f64, f64, f64)) -> f64| {
                per_run.iter().map(|r| pick(&r[i])).sum::<f64>() / n
            };
            QueueingPoint {
                capacity,
                planned_s: mean(|t| t.0),
                all_local_s: mean(|t| t.1),
                all_local_wait_s: mean(|t| t.2),
            }
        })
        .collect();
    QueueingStudy {
        runs: cfg.runs,
        points,
    }
}

/// Replays all traces with FIFO queueing waits charged. Arrival times
/// interleave across sites: request `i` at site `s` arrives at
/// `i / page_rate(s)`; requests arriving at one instant are served by
/// site, then by request.
pub fn queueing_replay(
    system: &System,
    traces: &[SiteTrace],
    router: &mut dyn RequestRouter,
) -> ReplayOutcome {
    traced(|| {
        let mut order: Vec<(SimTime, usize, usize)> = arrivals(system, traces).collect();
        order.sort_unstable();
        let mut servers = FifoServers::new(system);
        replay(system, traces, order, router, Some(&mut servers))
    })
}

/// The arrival schedule in site-major order: `(arrival, trace index,
/// request index)`, with request `i` of trace `s` arriving at
/// `i / page_rate(s)` (one per second at a site without page rate).
pub(crate) fn arrivals<'a>(
    system: &'a System,
    traces: &'a [SiteTrace],
) -> impl Iterator<Item = (SimTime, usize, usize)> + 'a {
    traces.iter().enumerate().flat_map(move |(si, trace)| {
        let page_rate: f64 = system
            .pages_of(trace.site)
            .iter()
            .map(|&p| system.page(p).freq.get())
            .sum();
        let dt = if page_rate > 0.0 {
            1.0 / page_rate
        } else {
            1.0
        };
        (0..trace.requests.len()).map(move |ri| (SimTime::new(ri as f64 * dt), si, ri))
    })
}

/// The FIFO servers requests are admitted to: one per site, in trace
/// order, plus the repository.
pub(crate) struct FifoServers {
    sites: Vec<QueueingServer>,
    repo: QueueingServer,
}

impl FifoServers {
    /// Idle servers at each site's and the repository's capacity.
    pub fn new(system: &System) -> Self {
        FifoServers {
            sites: system
                .sites()
                .values()
                .map(|s| QueueingServer::new(s.capacity))
                .collect(),
            repo: QueueingServer::new(system.repository().capacity),
        }
    }

    /// Admits one routed request arriving at `arrival` at trace `si`'s
    /// site and returns its site wait and its repository wait (`None`
    /// when it fetches nothing remotely). Each machine is offered one
    /// HTTP request per object it serves — the site also serves the HTML —
    /// optional fetches included as load (their latency is the optional
    /// phase's).
    pub fn admit(
        &mut self,
        si: usize,
        arrival: SimTime,
        streams: &RequestStreams,
        decision: &RouteDecision,
    ) -> (Secs, Option<Secs>) {
        let n_opt_local = decision.local_optional.iter().filter(|&&b| b).count();
        let n_opt_remote = decision.local_optional.len() - n_opt_local;
        let local_http = streams.local_objects + 1 + n_opt_local;
        let remote_http = streams.remote_objects + n_opt_remote;
        let site_wait = self.sites[si].admit(arrival, local_http as f64);
        let repo_wait = (remote_http > 0).then(|| self.repo.admit(arrival, remote_http as f64));
        (site_wait, repo_wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_all;
    use mmrepl_baselines::StaticRouter;
    use mmrepl_core::partition_all;
    use mmrepl_workload::{generate_trace, TraceConfig, WorkloadParams};

    fn setup(seed: u64) -> (System, Vec<SiteTrace>) {
        let params = WorkloadParams::small();
        let sys = mmrepl_workload::generate_system(&params, seed).unwrap();
        let traces = generate_trace(&sys, &TraceConfig::from_params(&params), seed);
        (sys, traces)
    }

    #[test]
    fn ample_capacity_means_no_queueing() {
        let (sys, traces) = setup(1);
        // Capacity >> offered load.
        let sys = sys.with_processing_fraction(100.0);
        let placement = partition_all(&sys);
        let q = queueing_replay(&sys, &traces, &mut StaticRouter::new(&placement, "ours"));
        let plain = replay_all(&sys, &traces, &mut StaticRouter::new(&placement, "ours"));
        // Waits ~0 -> responses match the plain replay.
        assert!(q.site_waits.max().unwrap().get() < 1e-6);
        assert!(
            (q.mean_response() - plain.mean_response()).abs() < 1e-6,
            "{} vs {}",
            q.mean_response(),
            plain.mean_response()
        );
    }

    #[test]
    fn overload_adds_visible_queueing_delay() {
        let (sys, traces) = setup(2);
        // Capacity far below the all-local load, but replay the all-local
        // placement anyway (deliberately infeasible).
        let sys = sys.with_processing_fraction(0.2);
        let placement = mmrepl_model::Placement::all_local(&sys);
        let q = queueing_replay(&sys, &traces, &mut StaticRouter::new(&placement, "local"));
        let plain = replay_all(&sys, &traces, &mut StaticRouter::new(&placement, "local"));
        // Transfer times dominate on this workload (minutes per page at
        // modem-era rates), but sustained 5x overload must still add
        // substantial queueing delay on top.
        assert!(
            q.mean_response() > plain.mean_response() * 1.10,
            "queueing {} vs plain {}",
            q.mean_response(),
            plain.mean_response()
        );
        assert!(q.site_waits.max().unwrap().get() > 10.0);
        assert!(q.site_waits.mean().unwrap().get() > 1.0);
    }

    #[test]
    fn feasible_plan_queues_less_than_infeasible_one() {
        let (sys, traces) = setup(3);
        let sys = sys.with_processing_fraction(0.5);
        // The planner respects the capacity; all-local does not.
        let planned = mmrepl_core::ReplicationPolicy::new().plan(&sys).placement;
        let q_planned = queueing_replay(&sys, &traces, &mut StaticRouter::new(&planned, "ours"));
        let all_local = mmrepl_model::Placement::all_local(&sys);
        let q_local = queueing_replay(&sys, &traces, &mut StaticRouter::new(&all_local, "local"));
        let wait_planned = q_planned.site_waits.mean().unwrap().get();
        let wait_local = q_local.site_waits.mean().unwrap().get();
        assert!(
            wait_planned < wait_local,
            "planned wait {wait_planned} vs all-local wait {wait_local}"
        );
    }

    #[test]
    fn repo_waits_zero_when_nothing_remote() {
        let (sys, traces) = setup(4);
        let placement = mmrepl_model::Placement::all_local(&sys);
        let q = queueing_replay(&sys, &traces, &mut StaticRouter::new(&placement, "local"));
        assert_eq!(q.repo_waits.count(), 0);
    }

    #[test]
    fn study_sweeps_every_capacity_level() {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 1;
        let study = queueing_study(&cfg);
        let caps: Vec<f64> = study.points.iter().map(|p| p.capacity).collect();
        assert_eq!(caps, QUEUEING_FRACTIONS);
        let table = study.to_table();
        assert!(table.starts_with("# queueing extension"), "{table}");
        assert_eq!(table.lines().count(), 2 + QUEUEING_FRACTIONS.len());
    }

    #[test]
    fn deterministic() {
        let (sys, traces) = setup(5);
        let placement = partition_all(&sys);
        let a = queueing_replay(&sys, &traces, &mut StaticRouter::new(&placement, "ours"));
        let b = queueing_replay(&sys, &traces, &mut StaticRouter::new(&placement, "ours"));
        assert_eq!(a, b);
    }
}
