//! One routing semantics, first step: with an empty migration overlay,
//! the serving plane's snapshot router and the static replay router agree
//! on which objects of every request are served locally.
//!
//! `serve::Router::route_with` must report [`RouteTarget::Local`] for
//! exactly the compulsory and requested optional slots that
//! `baselines::StaticRouter` marks local. On star systems every other
//! slot goes to the repository (there is no peer tier); on regional trees
//! every other slot goes to a peer replica or the serving node, with the
//! peer tier on. Checked on stars for the planner's placement and the
//! all-local and all-remote extremes, and on trees for the planner's
//! placement and its serving assignment.

use mmrepl_baselines::{RequestRouter, RouteDecision, StaticRouter};
use mmrepl_core::ReplicationPolicy;
use mmrepl_model::{Placement, System};
use mmrepl_serve::{PlacementSnapshot, RouteTarget, Router};
use mmrepl_workload::{generate_trace, TopologyParams, TraceConfig, WorkloadParams};
use std::sync::Arc;

/// Decisions compared: requests, and slots the snapshot router sent to a
/// peer replica.
#[derive(Default)]
struct Compared {
    requests: usize,
    peer: usize,
}

/// Checks every request of `sys`'s seeded trace under `placement`, frozen
/// into `snap`.
fn assert_routes_agree(
    sys: &System,
    placement: &Placement,
    snap: PlacementSnapshot,
    label: &str,
    seed: u64,
) -> Compared {
    let tree = sys.topology().is_some();
    let params = WorkloadParams::small();
    let traces = generate_trace(sys, &TraceConfig::from_params(&params), seed);
    let snap = Arc::new(snap);
    assert_eq!(snap.overlay().pending_count(), 0);
    let mut fixed = StaticRouter::new(placement, "static");
    let mut decision = RouteDecision::default();
    let mut compared = Compared::default();
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
                match target {
                    RouteTarget::Local | RouteTarget::Serving => {}
                    RouteTarget::Peer(_) => {
                        assert!(tree, "{label} seed {seed}: {target:?} on a star system");
                        compared.peer += 1;
                    }
                }
                routed.push(target == RouteTarget::Local);
            });
            assert_eq!(
                routed, expected,
                "{label} seed {seed}: page {} slots {:?}",
                req.page, req.optional_slots
            );
            compared.requests += 1;
        }
        assert_eq!(router.stats().misroutes, 0, "{label} seed {seed}");
    }
    compared
}

#[test]
fn snapshot_local_set_matches_static_router_on_stars_and_trees() {
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
            let snap = PlacementSnapshot::build(&sys, &placement, &[], 0);
            requests += assert_routes_agree(&sys, &placement, snap, label, seed).requests;
        }
    }

    let mut peer = 0;
    for seed in 0..4u64 {
        let mut params = WorkloadParams::small();
        params.topology = TopologyParams::regional();
        let sys = mmrepl_workload::generate_system(&params, seed)
            .expect("valid params")
            .with_storage_fraction(0.5);
        assert!(sys.topology().is_some(), "regional params build a tree");
        let outcome = ReplicationPolicy::new().plan(&sys);
        let snap = PlacementSnapshot::from_plan(&sys, &outcome, 0);
        let tree = assert_routes_agree(&sys, &outcome.placement, snap, "tree", seed);
        requests += tree.requests;
        peer += tree.peer;
    }
    assert!(requests > 0, "no request compared");
    assert!(peer > 0, "no tree slot reached the peer tier");
}
