//! Full discrete-event replay.
//!
//! [`crate::queueing_replay`] computes queueing delays analytically from a
//! pre-sorted arrival list. This module runs the *same* semantics through
//! the `mmrepl-netsim` event queue — every page request is an arrival
//! event, service completions advance server state, and per-request
//! session timelines come from [`mmrepl_netsim::simulate_page`]. The two
//! implementations must agree exactly (see the cross-validation tests),
//! which guards both against drift; the DES additionally exposes an
//! event-count/telemetry view and is the natural extension point for
//! behaviour the closed form cannot express (e.g. time-varying capacity).

use crate::replay::RequestStreams;
use mmrepl_baselines::{RequestRouter, RouteDecision};
use mmrepl_model::{Secs, System};
#[cfg(debug_assertions)]
use mmrepl_netsim::{simulate_page, StreamPlan};
use mmrepl_netsim::{EventQueue, QueueingServer, ResponseStats, SimTime};
use mmrepl_workload::SiteTrace;
use serde::{Deserialize, Serialize};

/// A page-request arrival at one site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Arrival {
    site_idx: usize,
    req_idx: usize,
}

/// DES replay results.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DesOutcome {
    /// Page response times including queueing delay.
    pub pages: ResponseStats,
    /// Total events processed by the simulation loop.
    pub events: u64,
    /// Simulated time at which the last request completed service.
    pub makespan: f64,
}

impl DesOutcome {
    /// Mean page response time.
    pub fn mean_response(&self) -> f64 {
        self.pages.mean().map(|s| s.get()).unwrap_or(0.0)
    }
}

/// Runs the event-driven replay over all traces.
pub fn des_replay(
    system: &System,
    traces: &[SiteTrace],
    router: &mut dyn RequestRouter,
) -> DesOutcome {
    let _span = mmrepl_obs::span("des.total");
    let mut queue: EventQueue<Arrival> = EventQueue::new();
    for (site_idx, trace) in traces.iter().enumerate() {
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
        for req_idx in 0..trace.requests.len() {
            queue.schedule(
                SimTime::new(req_idx as f64 * dt),
                Arrival { site_idx, req_idx },
            );
        }
    }

    let mut site_servers: Vec<QueueingServer> = system
        .sites()
        .values()
        .map(|s| QueueingServer::new(s.capacity))
        .collect();
    let mut repo_server = QueueingServer::new(system.repository().capacity);

    let mut pages = ResponseStats::new();
    let mut makespan = 0.0f64;
    let mut decision = RouteDecision::default();
    while let Some((now, arrival)) = queue.pop() {
        let trace = &traces[arrival.site_idx];
        let req = &trace.requests[arrival.req_idx];
        router.route(system, req.page, &req.optional_slots, &mut decision);
        let streams = RequestStreams::new(system, system.site(trace.site), req, &decision);

        // Server occupancy (HTTP requests) and queueing waits.
        let n_opt_local = decision.local_optional.iter().filter(|&&b| b).count();
        let n_opt_remote = decision.local_optional.len() - n_opt_local;
        let local_http = (streams.local_objects + 1 + n_opt_local) as f64;
        let remote_http = (streams.remote_objects + n_opt_remote) as f64;

        let site_wait = site_servers[arrival.site_idx].admit(now, local_http).wait;
        let repo_wait = if remote_http > 0.0 {
            repo_server.admit(now, remote_http).wait
        } else {
            Secs::ZERO
        };

        // Per-request session timing; in debug builds, cross-check the
        // event-by-event session simulation over the full payload lists
        // against the byte-total stream arithmetic for every request.
        #[cfg(debug_assertions)]
        {
            let page = system.page(req.page);
            let mut local_stream = StreamPlan::empty(streams.local);
            local_stream.push(page.html_size);
            let mut remote_stream = StreamPlan::empty(streams.remote);
            for (&k, &local) in page.compulsory.iter().zip(&decision.local_compulsory) {
                let stream = if local {
                    &mut local_stream
                } else {
                    &mut remote_stream
                };
                stream.push(system.object_size(k));
            }
            let timeline = simulate_page(&local_stream, &remote_stream);
            debug_assert!(
                (timeline.page_done.get() - streams.local_time().max(streams.remote_time()).get())
                    .abs()
                    < 1e-9,
                "session events disagree with stream arithmetic"
            );
        }
        // Session clock is request-relative; add waits per stream side.
        let local_done = site_wait + streams.local_time();
        let remote_done = repo_wait + streams.remote_time();
        let response = local_done.max(remote_done);
        pages.record(response);
        makespan = makespan.max(now.get() + response.get());
    }

    let outcome = DesOutcome {
        pages,
        events: queue.processed(),
        makespan,
    };
    if mmrepl_obs::enabled() {
        // One merge for the whole run; the event loop itself stays free
        // of tracing calls.
        mmrepl_obs::merge_histogram("des.response_s", outcome.pages.histogram());
        mmrepl_obs::add("des.events", outcome.events);
        mmrepl_obs::add("des.page_requests", outcome.pages.count());
        // Live mirrors for the telemetry plane.
        mmrepl_obs::counter_add("des.events", outcome.events);
        mmrepl_obs::counter_add("des.page_requests", outcome.pages.count());
        mmrepl_obs::observe_hist(
            "des.response_s",
            outcome.pages.histogram(),
            outcome.mean_response() * outcome.pages.count() as f64,
        );
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queueing::queueing_replay;
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
    fn des_agrees_with_analytic_queueing_replay() {
        let (sys, traces) = setup(1);
        let placement = partition_all(&sys);
        let des = des_replay(&sys, &traces, &mut StaticRouter::new(&placement, "ours"));
        let analytic = queueing_replay(&sys, &traces, &mut StaticRouter::new(&placement, "ours"));
        assert_eq!(des.pages.count(), analytic.pages.count());
        assert!(
            (des.mean_response() - analytic.mean_response()).abs() < 1e-9,
            "DES {} vs analytic {}",
            des.mean_response(),
            analytic.mean_response()
        );
        assert_eq!(
            des.pages.quantile(0.95).unwrap(),
            analytic.pages.quantile(0.95).unwrap()
        );
    }

    #[test]
    fn des_agrees_under_overload_too() {
        let (sys, traces) = setup(2);
        let sys = sys.with_processing_fraction(0.2);
        let placement = mmrepl_model::Placement::all_local(&sys);
        let des = des_replay(&sys, &traces, &mut StaticRouter::new(&placement, "local"));
        let analytic = queueing_replay(&sys, &traces, &mut StaticRouter::new(&placement, "local"));
        assert!((des.mean_response() - analytic.mean_response()).abs() < 1e-9);
    }

    #[test]
    fn event_accounting() {
        let (sys, traces) = setup(3);
        let placement = partition_all(&sys);
        let total: u64 = traces.iter().map(|t| t.len() as u64).sum();
        let des = des_replay(&sys, &traces, &mut StaticRouter::new(&placement, "ours"));
        assert_eq!(des.events, total);
        assert!(des.makespan > 0.0);
        // The makespan is at least the last arrival plus its service.
        let horizon = traces
            .iter()
            .map(|t| t.len() as f64 / 5.0) // site_page_rate = 5 req/s
            .fold(0.0f64, f64::max);
        assert!(des.makespan >= horizon);
    }

    #[test]
    fn deterministic() {
        let (sys, traces) = setup(4);
        let placement = partition_all(&sys);
        let a = des_replay(&sys, &traces, &mut StaticRouter::new(&placement, "x"));
        let b = des_replay(&sys, &traces, &mut StaticRouter::new(&placement, "x"));
        assert_eq!(a, b);
    }
}
