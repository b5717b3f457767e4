//! Queueing-aware replay — an extension beyond the paper.
//!
//! The paper enforces processing capacity only as a *planning* constraint
//! (Eq. 8/9) and never charges queueing delay in its evaluation. This
//! replay does: page requests arrive at each site at its aggregate page
//! rate, every HTTP request occupies the serving machine for `1/C`
//! seconds, and the resulting FIFO waits delay the corresponding download
//! stream. It answers the question the paper leaves open — *what does an
//! infeasible or barely-feasible placement actually cost users?* — and
//! backs the `ablation_queueing` bench.

use crate::replay::RequestStreams;
use mmrepl_baselines::{RequestRouter, RouteDecision};
use mmrepl_model::{Secs, System};
use mmrepl_netsim::{QueueingServer, ResponseStats, SimTime};
use mmrepl_workload::SiteTrace;
use serde::{Deserialize, Serialize};

/// Results of a queueing-aware replay.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueueingOutcome {
    /// Page response times including queueing delays.
    pub pages: ResponseStats,
    /// Queueing waits at the local sites (one sample per page request).
    pub site_waits: ResponseStats,
    /// Queueing waits at the repository (one sample per page request that
    /// touched it).
    pub repo_waits: ResponseStats,
}

impl QueueingOutcome {
    /// Mean response time including queueing.
    pub fn mean_response(&self) -> f64 {
        self.pages.mean().map(|s| s.get()).unwrap_or(0.0)
    }
}

/// Replays all traces with queueing. Arrival times interleave across
/// sites: request `i` at site `s` arrives at `i / page_rate(s)`.
pub fn queueing_replay(
    system: &System,
    traces: &[SiteTrace],
    router: &mut dyn RequestRouter,
) -> QueueingOutcome {
    // Per-site arrival schedules.
    let mut site_servers: Vec<QueueingServer> = system
        .sites()
        .values()
        .map(|s| QueueingServer::new(s.capacity))
        .collect();
    let mut repo_server = QueueingServer::new(system.repository().capacity);

    // Build the merged arrival order: (time, site_index, request_index).
    let mut arrivals: Vec<(f64, usize, usize)> = Vec::new();
    for (si, trace) in traces.iter().enumerate() {
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
        for (ri, _) in trace.requests.iter().enumerate() {
            arrivals.push((ri as f64 * dt, si, ri));
        }
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut out = QueueingOutcome {
        pages: ResponseStats::new(),
        site_waits: ResponseStats::new(),
        repo_waits: ResponseStats::new(),
    };

    let mut decision = RouteDecision::default();
    for (t, si, ri) in arrivals {
        let trace = &traces[si];
        let req = &trace.requests[ri];
        router.route(system, req.page, &req.optional_slots, &mut decision);
        let streams = RequestStreams::new(system, system.site(trace.site), req, &decision);

        // HTTP requests offered to each machine (optional fetches included
        // as load; their latency is accounted in the non-queueing replay).
        let n_opt_local = decision.local_optional.iter().filter(|&&b| b).count();
        let n_opt_remote = decision.local_optional.len() - n_opt_local;
        let local_http = streams.local_objects + 1 + n_opt_local;
        let remote_http = streams.remote_objects + n_opt_remote;

        let arrival = SimTime::new(t);
        let site_wait = site_servers[si].admit(arrival, local_http as f64).wait;
        out.site_waits.record(site_wait);
        let repo_wait = if remote_http > 0 {
            let w = repo_server.admit(arrival, remote_http as f64).wait;
            out.repo_waits.record(w);
            w
        } else {
            Secs::ZERO
        };

        let local_done = site_wait + streams.local_time();
        let remote_done = repo_wait + streams.remote_time();
        out.pages.record(local_done.max(remote_done));
    }
    out
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
    fn deterministic() {
        let (sys, traces) = setup(5);
        let placement = partition_all(&sys);
        let a = queueing_replay(&sys, &traces, &mut StaticRouter::new(&placement, "ours"));
        let b = queueing_replay(&sys, &traces, &mut StaticRouter::new(&placement, "ours"));
        assert_eq!(a, b);
    }
}
