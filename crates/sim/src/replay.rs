//! Trace replay: what users actually experience.
//!
//! Every request in a [`SiteTrace`] is served under its own perturbed
//! conditions (Section 5.1): the router decides where each object comes
//! from, [`RequestStreams`] — the workspace's one request pricer — prices
//! the two streams with the *actual* rates/overheads, and the response
//! time (Eq. 5) plus any optional-fetch time (Eq. 6 realized, not
//! expected) are recorded.
//!
//! The same replayer serves every policy: static placements ride
//! [`mmrepl_baselines::StaticRouter`], LRU carries its cache state between
//! requests. It also serves both wait models through one request loop:
//! [`replay_all`] walks the traces site by site and charges no waits,
//! [`crate::queueing_replay`] walks them in arrival order and first admits
//! each request to the FIFO servers of [`crate::queueing`].
//!
//! The hot loop allocates nothing per request: each replay holds one
//! [`RouteDecision`] buffer that the router refills, and the compulsory
//! streams are priced from running byte totals rather than from
//! per-request payload lists.

use crate::queueing::FifoServers;
use mmrepl_baselines::{RequestRouter, RouteDecision};
use mmrepl_core::SimTime;
use mmrepl_model::{Secs, System};
use mmrepl_workload::{RequestStreams, ResponseStats, SiteTrace};
use serde::{Deserialize, Serialize};

/// Aggregated replay results.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplayOutcome {
    /// Page response times (Eq. 5 realized, plus any queueing waits), one
    /// sample per page request.
    pub pages: ResponseStats,
    /// Optional-download times (Eq. 6 realized), one sample per request
    /// that fetched at least one optional object.
    pub optional: ResponseStats,
    /// Total objects served locally.
    pub local_objects: u64,
    /// Total objects served by the repository.
    pub remote_objects: u64,
    /// Queueing waits at the local sites, one sample per page request.
    /// Empty unless the replay charges FIFO waits.
    pub site_waits: ResponseStats,
    /// Queueing waits at the repository, one sample per page request that
    /// touched it. Empty unless the replay charges FIFO waits.
    pub repo_waits: ResponseStats,
}

impl ReplayOutcome {
    fn new() -> Self {
        ReplayOutcome {
            pages: ResponseStats::new(),
            optional: ResponseStats::new(),
            local_objects: 0,
            remote_objects: 0,
            site_waits: ResponseStats::new(),
            repo_waits: ResponseStats::new(),
        }
    }

    /// Merges another outcome (parallel accumulation).
    pub fn merge(&mut self, other: &ReplayOutcome) {
        self.pages.merge(&other.pages);
        self.optional.merge(&other.optional);
        self.local_objects += other.local_objects;
        self.remote_objects += other.remote_objects;
        self.site_waits.merge(&other.site_waits);
        self.repo_waits.merge(&other.repo_waits);
    }

    /// Mean page response time, the figure-of-merit of every plot.
    pub fn mean_response(&self) -> f64 {
        self.pages.mean().map(|s| s.get()).unwrap_or(0.0)
    }

    /// Fraction of object downloads served locally.
    pub fn local_fraction(&self) -> f64 {
        let total = self.local_objects + self.remote_objects;
        if total == 0 {
            0.0
        } else {
            self.local_objects as f64 / total as f64
        }
    }
}

/// Replays one site's trace through `router`.
pub fn replay_site(
    system: &System,
    trace: &SiteTrace,
    router: &mut dyn RequestRouter,
) -> ReplayOutcome {
    let order = (0..trace.requests.len()).map(|ri| (SimTime::ZERO, 0, ri));
    replay(system, std::slice::from_ref(trace), order, router, None)
}

/// Replays every site's trace through `router`, merging the results.
/// Sites replay in id order so stateful routers see a deterministic
/// request sequence.
pub fn replay_all(
    system: &System,
    traces: &[SiteTrace],
    router: &mut dyn RequestRouter,
) -> ReplayOutcome {
    traced(|| {
        let mut out = ReplayOutcome::new();
        for trace in traces {
            out.merge(&replay_site(system, trace, router));
        }
        out
    })
}

/// Runs one replay under the `replay.total` span and folds its totals
/// into the trace.
pub(crate) fn traced(run: impl FnOnce() -> ReplayOutcome) -> ReplayOutcome {
    let _span = mmrepl_obs::span("replay.total");
    let out = run();
    if mmrepl_obs::enabled() {
        // The replay hot loop records into its own `ResponseStats`; the
        // whole distribution folds into the trace with one merge, so
        // per-request cost stays zero.
        let sum = out
            .pages
            .mean()
            .map_or(0.0, |m| m.get() * out.pages.count() as f64);
        mmrepl_obs::merge_histogram("replay.response_s", out.pages.histogram(), sum);
        mmrepl_obs::add("replay.page_requests", out.pages.count());
        mmrepl_obs::add("replay.local_objects", out.local_objects);
        mmrepl_obs::add("replay.remote_objects", out.remote_objects);
    }
    out
}

/// The request loop behind every replay. `order` lists `(arrival, trace
/// index, request index)`; each request is routed and priced through
/// [`RequestStreams`]. With `fifo`, it is first admitted to the FIFO
/// servers at its arrival time and each stream waits its server's queue;
/// without, Eq. 5 is recorded as it stands and arrivals are not read.
pub(crate) fn replay(
    system: &System,
    traces: &[SiteTrace],
    order: impl IntoIterator<Item = (SimTime, usize, usize)>,
    router: &mut dyn RequestRouter,
    mut fifo: Option<&mut FifoServers>,
) -> ReplayOutcome {
    let mut out = ReplayOutcome::new();
    let mut decision = RouteDecision::default();
    for (arrival, si, ri) in order {
        let trace = &traces[si];
        let req = &trace.requests[ri];
        let site = system.site(trace.site);
        router.route(system, req.page, &req.optional_slots, &mut decision);
        debug_assert_eq!(
            decision.local_compulsory.len(),
            system.page(req.page).compulsory.len()
        );

        // Compulsory phase: two pipelined parallel streams (Eq. 5).
        let streams = RequestStreams::new(system, site, req, 1.0, |slot, _| {
            decision.local_compulsory[slot]
        });
        out.local_objects += streams.local_objects as u64;
        out.remote_objects += streams.remote_objects as u64;
        let (site_wait, repo_wait) = match fifo.as_deref_mut() {
            None => (Secs::ZERO, Secs::ZERO),
            Some(servers) => {
                let (site_wait, repo_wait) = servers.admit(si, arrival, &streams, &decision);
                out.site_waits.record(site_wait);
                if let Some(w) = repo_wait {
                    out.repo_waits.record(w);
                }
                (site_wait, repo_wait.unwrap_or(Secs::ZERO))
            }
        };
        out.pages.record(streams.page_time(site_wait, repo_wait));

        // Optional phase: each fetch opens its own connection (Eq. 6).
        if !req.optional_slots.is_empty() {
            let (total, n_local) =
                streams.optional_time(system, req, |i, _| decision.local_optional[i]);
            out.local_objects += n_local as u64;
            out.remote_objects += (req.optional_slots.len() - n_local) as u64;
            out.optional.record(total);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmrepl_baselines::{LruRouter, StaticRouter};
    use mmrepl_core::partition_all;
    use mmrepl_model::{CostModel, Placement};
    use mmrepl_workload::{generate_trace, TraceConfig, WorkloadParams};

    fn setup(seed: u64) -> (System, Vec<SiteTrace>, Vec<SiteTrace>) {
        let params = WorkloadParams::small();
        let sys = mmrepl_workload::generate_system(&params, seed).unwrap();
        let perturbed = generate_trace(&sys, &TraceConfig::from_params(&params), seed);
        let nominal = generate_trace(&sys, &TraceConfig::nominal_from_params(&params), seed);
        (sys, perturbed, nominal)
    }

    #[test]
    fn nominal_replay_matches_analytic_cost_model() {
        // With no perturbation, the replayed mean response must equal the
        // trace-weighted analytic Eq. 5 values exactly.
        let (sys, _, nominal) = setup(1);
        let placement = partition_all(&sys);
        let mut router = StaticRouter::new(&placement, "ours");
        let outcome = replay_all(&sys, &nominal, &mut router);

        let cm = CostModel::with_defaults(&sys);
        // Weight each page by its frequency *in the trace* (sampled), so
        // compare per-request: recompute the expected mean from the trace.
        let mut total = 0.0;
        let mut n = 0u64;
        for t in &nominal {
            for r in &t.requests {
                total += cm.page_response(r.page, placement.partition(r.page)).get();
                n += 1;
            }
        }
        let expected = total / n as f64;
        let got = outcome.mean_response();
        assert!(
            (got - expected).abs() < 1e-9,
            "replayed {got} vs analytic {expected}"
        );
    }

    #[test]
    fn perturbed_replay_is_slower_on_average_for_local_heavy_plans() {
        // The perturbation model cuts local rates on 40% of requests, so a
        // local-heavy placement must get slower under perturbation.
        let (sys, perturbed, nominal) = setup(2);
        let placement = Placement::all_local(&sys);
        let mut r1 = StaticRouter::new(&placement, "local");
        let mut r2 = StaticRouter::new(&placement, "local");
        let p = replay_all(&sys, &perturbed, &mut r1);
        let nom = replay_all(&sys, &nominal, &mut r2);
        assert!(
            p.mean_response() > nom.mean_response(),
            "perturbed {} <= nominal {}",
            p.mean_response(),
            nom.mean_response()
        );
    }

    #[test]
    fn remote_policy_is_much_slower_than_local() {
        // Repository pipe is ~6x slower: the Remote extreme must lose big
        // (the paper reports +335% vs our policy, +~250% vs Local).
        let (sys, perturbed, _) = setup(3);
        let local = Placement::all_local(&sys);
        let remote = Placement::all_remote(&sys);
        let l = replay_all(&sys, &perturbed, &mut StaticRouter::new(&local, "local"));
        let r = replay_all(&sys, &perturbed, &mut StaticRouter::new(&remote, "remote"));
        assert!(
            r.mean_response() > l.mean_response() * 1.5,
            "remote {} vs local {}",
            r.mean_response(),
            l.mean_response()
        );
        assert_eq!(l.remote_objects, 0);
        assert_eq!(r.local_objects, 0);
    }

    #[test]
    fn ours_beats_extremes_under_perturbation() {
        let (sys, perturbed, _) = setup(4);
        let ours = partition_all(&sys);
        let local = Placement::all_local(&sys);
        let remote = Placement::all_remote(&sys);
        let o = replay_all(&sys, &perturbed, &mut StaticRouter::new(&ours, "ours"));
        let l = replay_all(&sys, &perturbed, &mut StaticRouter::new(&local, "local"));
        let r = replay_all(&sys, &perturbed, &mut StaticRouter::new(&remote, "remote"));
        assert!(o.mean_response() <= l.mean_response() * 1.02);
        assert!(o.mean_response() < r.mean_response());
    }

    #[test]
    fn lru_warms_up_and_beats_remote() {
        let (sys, perturbed, _) = setup(5);
        let mut lru = LruRouter::new(&sys);
        let lru_out = replay_all(&sys, &perturbed, &mut lru);
        let remote = Placement::all_remote(&sys);
        let r = replay_all(&sys, &perturbed, &mut StaticRouter::new(&remote, "remote"));
        assert!(lru.hits() > 0, "cache never hit");
        assert!(
            lru_out.mean_response() < r.mean_response(),
            "lru {} vs remote {}",
            lru_out.mean_response(),
            r.mean_response()
        );
        assert!(lru_out.local_fraction() > 0.5, "cache barely used");
    }

    #[test]
    fn optional_stats_only_for_requests_with_optionals() {
        let (sys, perturbed, _) = setup(6);
        let placement = partition_all(&sys);
        let outcome = replay_all(&sys, &perturbed, &mut StaticRouter::new(&placement, "ours"));
        let with_opt: u64 = perturbed
            .iter()
            .flat_map(|t| &t.requests)
            .filter(|r| !r.optional_slots.is_empty())
            .count() as u64;
        assert_eq!(outcome.optional.count(), with_opt);
        let total: u64 = perturbed.iter().map(|t| t.len() as u64).sum();
        assert_eq!(outcome.pages.count(), total);
    }

    #[test]
    fn merge_accumulates() {
        let (sys, perturbed, _) = setup(7);
        let placement = partition_all(&sys);
        let mut whole = StaticRouter::new(&placement, "ours");
        let all = replay_all(&sys, &perturbed, &mut whole);

        let mut merged = ReplayOutcome::new();
        for t in &perturbed {
            let mut router = StaticRouter::new(&placement, "ours");
            merged.merge(&replay_site(&sys, t, &mut router));
        }
        assert_eq!(merged.pages.count(), all.pages.count());
        assert!((merged.mean_response() - all.mean_response()).abs() < 1e-9);
        assert_eq!(merged.local_objects, all.local_objects);
    }

    #[test]
    fn replay_is_deterministic() {
        let (sys, perturbed, _) = setup(8);
        let placement = partition_all(&sys);
        let a = replay_all(&sys, &perturbed, &mut StaticRouter::new(&placement, "ours"));
        let b = replay_all(&sys, &perturbed, &mut StaticRouter::new(&placement, "ours"));
        assert_eq!(a, b);
    }
}
