//! Event-driven replay: the oracle twin of [`crate::queueing_replay`].
//!
//! The production replay sorts the arrival schedule and walks it. This
//! module runs the same FIFO rules ([`crate::queueing`]'s arrival schedule
//! and servers) through the [`mmrepl_core::EventQueue`] instead — every
//! page request is an arrival event popped in `(time, insertion)` order —
//! and checks each request's event-driven session from
//! [`crate::session::simulate_page`] against the byte-total stream
//! arithmetic of the request pricer ([`RequestStreams`]). Both loops see
//! requests in (time, site, request) order, so their page statistics must
//! agree exactly, which the tests below assert; oracle 3 of
//! [`crate::differential`] checks this replay against Eq. 5.

use crate::queueing::{arrivals, FifoServers};
use crate::session::{simulate_page, StreamPlan};
use mmrepl_baselines::{RequestRouter, RouteDecision};
use mmrepl_core::EventQueue;
use mmrepl_model::{Secs, System};
use mmrepl_workload::{RequestStreams, ResponseStats, SiteTrace};

/// Runs the event-driven replay over all traces and returns the page
/// response times (queueing waits included) and the number of events
/// processed.
///
/// # Panics
/// Panics when a request's session timeline disagrees with the stream
/// arithmetic.
pub(crate) fn des_replay(
    system: &System,
    traces: &[SiteTrace],
    router: &mut dyn RequestRouter,
) -> (ResponseStats, u64) {
    let mut queue: EventQueue<(usize, usize)> = EventQueue::new();
    for (arrival, si, ri) in arrivals(system, traces) {
        queue.schedule(arrival, (si, ri));
    }
    let mut servers = FifoServers::new(system);
    let mut pages = ResponseStats::new();
    let mut decision = RouteDecision::default();
    while let Some((now, (si, ri))) = queue.pop() {
        let trace = &traces[si];
        let req = &trace.requests[ri];
        router.route(system, req.page, &req.optional_slots, &mut decision);
        let streams = RequestStreams::new(system, system.site(trace.site), req, 1.0, |slot, _| {
            decision.local_compulsory[slot]
        });
        let (site_wait, repo_wait) = servers.admit(si, now, &streams, &decision);

        // Simulate the session event by event over the full payload lists
        // and check it against the pricer's byte-total stream arithmetic.
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
        let page_done = simulate_page(&local_stream, &remote_stream);
        let unqueued = streams.page_time(Secs::ZERO, Secs::ZERO);
        assert!(
            (page_done.get() - unqueued.get()).abs() < 1e-9,
            "session events disagree with stream arithmetic: {} vs {}",
            page_done.get(),
            unqueued.get()
        );

        // Session clock is request-relative; add waits per stream side.
        pages.record(streams.page_time(site_wait, repo_wait.unwrap_or(Secs::ZERO)));
    }
    (pages, queue.processed())
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
        let (des, _) = des_replay(&sys, &traces, &mut StaticRouter::new(&placement, "ours"));
        let fifo = queueing_replay(&sys, &traces, &mut StaticRouter::new(&placement, "ours"));
        assert_eq!(des, fifo.pages);
    }

    #[test]
    fn des_agrees_under_overload_too() {
        let (sys, traces) = setup(2);
        let sys = sys.with_processing_fraction(0.2);
        let placement = mmrepl_model::Placement::all_local(&sys);
        let (des, _) = des_replay(&sys, &traces, &mut StaticRouter::new(&placement, "local"));
        let fifo = queueing_replay(&sys, &traces, &mut StaticRouter::new(&placement, "local"));
        assert!(
            fifo.site_waits.max().unwrap().get() > 10.0,
            "not overloaded"
        );
        assert_eq!(des, fifo.pages);
    }

    #[test]
    fn event_accounting() {
        let (sys, traces) = setup(3);
        let placement = partition_all(&sys);
        let total: u64 = traces.iter().map(|t| t.len() as u64).sum();
        let (pages, events) = des_replay(&sys, &traces, &mut StaticRouter::new(&placement, "ours"));
        assert_eq!(events, total);
        assert_eq!(pages.count(), total);
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
