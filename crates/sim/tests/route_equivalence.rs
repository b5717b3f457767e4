//! One routing semantics, first step: on star systems with an empty
//! migration overlay, the serving plane's snapshot router and the static
//! replay router agree on every object of every request.
//!
//! `serve::Router::route_with` must report [`RouteTarget::Local`] for
//! exactly the compulsory and requested optional slots that
//! `baselines::StaticRouter` marks local, and the repository for every
//! other slot (a star system has no peer tier). Checked for the planner's
//! placement and the all-local and all-remote extremes.

use mmrepl_baselines::{RequestRouter, RouteDecision, StaticRouter};
use mmrepl_core::ReplicationPolicy;
use mmrepl_model::{Placement, System};
use mmrepl_serve::{PlacementSnapshot, RouteTarget, Router};
use mmrepl_workload::{generate_trace, TraceConfig, WorkloadParams};
use std::sync::Arc;

/// Checks every request of `sys`'s seeded trace under `placement`;
/// returns the requests compared.
fn assert_routes_agree(sys: &System, placement: &Placement, label: &str, seed: u64) -> usize {
    let params = WorkloadParams::small();
    let traces = generate_trace(sys, &TraceConfig::from_params(&params), seed);
    let snap = Arc::new(PlacementSnapshot::build(sys, placement, &[], 0));
    assert_eq!(snap.overlay().pending_count(), 0);
    let mut fixed = StaticRouter::new(placement, "static");
    let mut decision = RouteDecision::default();
    let mut requests = 0;
    for trace in &traces {
        let mut router = Router::new(Arc::clone(&snap), trace.site);
        for req in &trace.requests {
            fixed.route(sys, req.page, &req.optional_slots, &mut decision);
            let expected: Vec<bool> = decision
                .local_compulsory
                .iter()
                .chain(&decision.local_optional)
                .copied()
                .collect();
            let mut routed = Vec::with_capacity(expected.len());
            router.route_with(req, |_, target| {
                assert!(
                    matches!(target, RouteTarget::Local | RouteTarget::Serving),
                    "{label} seed {seed}: {target:?} on a star system"
                );
                routed.push(target == RouteTarget::Local);
            });
            assert_eq!(
                routed, expected,
                "{label} seed {seed}: page {} slots {:?}",
                req.page, req.optional_slots
            );
            requests += 1;
        }
    }
    requests
}

#[test]
fn snapshot_routes_match_static_router_on_stars() {
    let mut requests = 0;
    for seed in 0..4u64 {
        let sys = mmrepl_workload::generate_system(&WorkloadParams::small(), seed)
            .expect("valid params")
            .with_storage_fraction(0.5)
            .with_processing_fraction(0.8);
        assert!(sys.topology().is_none(), "small params build a star");
        let ours = ReplicationPolicy::new().plan(&sys).placement;
        for (label, placement) in [
            ("ours", ours),
            ("local", Placement::all_local(&sys)),
            ("remote", Placement::all_remote(&sys)),
        ] {
            requests += assert_routes_agree(&sys, &placement, label, seed);
        }
    }
    assert!(requests > 0, "no request compared");
}
