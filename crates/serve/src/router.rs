//! Closest-replica request routing over a [`PlacementSnapshot`].
//!
//! Per object, the router applies the same semantics the planner's
//! ancestor-selection stage ([`mmrepl_core::select`]) bakes into the
//! placement, at request time and against the *live* replica state:
//!
//! 1. **Local** — the placement marks the object local at the requesting
//!    site *and* the migration overlay confirms the replica has arrived.
//!    A pending replica deflects the request remotely (the overlay-hit
//!    counter); routing remotely while the object has actually arrived
//!    is safe, routing locally while it has not would be a misroute.
//! 2. **Peer replica** (tree systems only) — among other sites whose
//!    stored set holds the object, pick the cheapest peer channel (the
//!    requester's repository overhead plus the path latency between the
//!    attach nodes; rate the peer's local rate capped by the path
//!    bottleneck), vetoing channels that violate the requester's QoS
//!    bound and peers whose residual-capacity token share is exhausted —
//!    the capacity-aware fallback.
//! 3. **Serving node** — the repository ancestor the planner assigned
//!    (the root repository on star systems), which holds every object:
//!    the always-admissible fallback.
//!
//! Capacity tokens are *per-router* static shares (each site's planned
//! residual capacity divided evenly over requester sites), so routing a
//! trace is bit-deterministic however many router instances run in
//! parallel — no shared atomic buckets, no cross-thread ordering.

use crate::snapshot::PlacementSnapshot;
use mmrepl_model::{ObjectId, SiteId};
use mmrepl_obs::Histogram;
use mmrepl_workload::Request;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Where one object's fetch was routed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteTarget {
    /// Served from the requesting site's own store.
    Local,
    /// Served from another site's replica over the peer channel.
    Peer(SiteId),
    /// Served by the site's serving repository node (or the star
    /// repository).
    Serving,
}

/// One routed request: per-stream byte tallies and the Eq. 5-style
/// response estimate (parallel streams, slowest wins).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RouteOutcome {
    /// Objects routed in total (compulsory + requested optional).
    pub objects: u32,
    /// Objects served locally.
    pub local: u32,
    /// Objects served from peer replicas.
    pub peer: u32,
    /// Objects served by the serving repository node.
    pub repo: u32,
    /// Locally-marked objects deflected remotely by a pending overlay bit.
    pub overlay_deflected: u32,
    /// Estimated response time of the request, seconds.
    pub est_latency: f64,
}

/// Running totals over every request a router served.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RouteStats {
    /// Requests routed.
    pub requests: u64,
    /// Objects routed.
    pub objects: u64,
    /// Objects served locally.
    pub local: u64,
    /// Objects served from peer replicas.
    pub peer: u64,
    /// Objects served by the serving repository node.
    pub repo: u64,
    /// Overlay deflections (locally-marked objects still in flight).
    pub overlay_deflected: u64,
    /// Routing decisions the audit cross-check found pointing at a site
    /// that does not hold the object. Debug builds cross-check every
    /// decision and must count 0; always 0 in release builds, which
    /// compile the check away.
    pub misroutes: u64,
    /// Order-sensitive FNV-1a fold of every decision — the determinism
    /// fingerprint the thread-count `cmp` smoke compares.
    pub checksum: u64,
    /// Summed estimated response seconds (mean = `est_latency_s /
    /// requests`).
    pub est_latency_s: f64,
}

impl RouteStats {
    /// Folds another router's totals in (checksums combine by XOR, so
    /// per-site partials merge associatively and order-independently).
    pub fn merge(&mut self, other: &RouteStats) {
        self.requests += other.requests;
        self.objects += other.objects;
        self.local += other.local;
        self.peer += other.peer;
        self.repo += other.repo;
        self.overlay_deflected += other.overlay_deflected;
        self.misroutes += other.misroutes;
        self.checksum ^= other.checksum;
        self.est_latency_s += other.est_latency_s;
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

#[inline]
fn fnv(h: u64, v: u64) -> u64 {
    let mut h = h ^ v;
    h = h.wrapping_mul(FNV_PRIME);
    h
}

/// A request router for one requesting site. Holds an [`Arc`] to the
/// snapshot it routes against; cheap to rebuild after an epoch swap.
pub struct Router {
    snap: Arc<PlacementSnapshot>,
    from: SiteId,
    /// This requester's token share of every site's residual capacity
    /// (requests, not objects — one admission per routed request).
    peer_tokens: Vec<f64>,
    stats: RouteStats,
    /// Per-request scratch: `(peer, ovhd, rate, bytes)` streams.
    peer_streams: Vec<(u32, f64, f64, u64)>,
}

impl Router {
    /// A router serving requests arriving at `from`.
    pub fn new(snap: Arc<PlacementSnapshot>, from: SiteId) -> Self {
        let n = snap.n_sites().max(1) as f64;
        let peer_tokens = (0..snap.n_sites())
            .map(|s| snap.lane(SiteId::from_index(s)).residual / n)
            .collect();
        Router {
            snap,
            from,
            peer_tokens,
            stats: RouteStats {
                checksum: FNV_OFFSET,
                ..RouteStats::default()
            },
            peer_streams: Vec::new(),
        }
    }

    /// The snapshot this router routes against.
    pub fn snapshot(&self) -> &Arc<PlacementSnapshot> {
        &self.snap
    }

    /// The requesting site.
    pub fn site(&self) -> SiteId {
        self.from
    }

    /// Running totals.
    pub fn stats(&self) -> &RouteStats {
        &self.stats
    }

    /// Routes every object one request fetches: the page's compulsory
    /// set plus the optional slots this user clicked.
    pub fn route(&mut self, req: &Request) -> RouteOutcome {
        self.route_with(req, |_, _| {})
    }

    /// [`Router::route`], reporting each per-object decision to
    /// `observe` — the hook the migration-replay property test uses to
    /// check every target against ground-truth residency.
    pub fn route_with(
        &mut self,
        req: &Request,
        mut observe: impl FnMut(ObjectId, RouteTarget),
    ) -> RouteOutcome {
        let snap = Arc::clone(&self.snap);
        let mut out = RouteOutcome::default();
        let lane = *snap.lane(self.from);
        let mut checksum = fnv(self.stats.checksum, u64::from(req.page.raw()));
        let mut local_bytes = snap.page_html_bytes(req.page);
        let mut chan_bytes = 0u64;
        self.peer_streams.clear();

        let mut route_one = |router: &mut Router, k: ObjectId, marked_local: bool| {
            let size = snap.object_bytes(k);
            out.objects += 1;
            let target = router.route_object(&snap, k, marked_local, &mut out);
            match target {
                RouteTarget::Local => {
                    out.local += 1;
                    local_bytes += size;
                    checksum = fnv(checksum, u64::from(k.raw()) << 2);
                }
                RouteTarget::Peer(p) => {
                    out.peer += 1;
                    match router.peer_streams.iter_mut().find(|s| s.0 == p.raw()) {
                        Some(s) => s.3 += size,
                        None => {
                            let (ovhd, rate) = snap
                                .peer_channel(router.from, p)
                                .expect("peer target implies a priced channel");
                            router.peer_streams.push((p.raw(), ovhd, rate, size));
                        }
                    }
                    checksum = fnv(checksum, (u64::from(k.raw()) << 2) | 1);
                    checksum = fnv(checksum, u64::from(p.raw()));
                }
                RouteTarget::Serving => {
                    out.repo += 1;
                    chan_bytes += size;
                    checksum = fnv(checksum, (u64::from(k.raw()) << 2) | 2);
                }
            }
            #[cfg(debug_assertions)]
            router.audit_target(&snap, k, target);
            observe(k, target);
        };

        let comp: Vec<(ObjectId, bool)> = snap.compulsory(req.page).collect();
        for (k, marked) in comp {
            route_one(self, k, marked);
        }
        for &slot in &req.optional_slots {
            let (k, marked) = snap.optional_slot(req.page, slot);
            route_one(self, k, marked);
        }

        // Eq. 5: parallel streams, the slowest one gates the response.
        let mut latency = lane.local_ovhd + local_bytes as f64 / lane.local_rate;
        if chan_bytes > 0 {
            latency = latency.max(lane.chan_ovhd + chan_bytes as f64 / lane.chan_rate);
        }
        for &(_, ovhd, rate, bytes) in &self.peer_streams {
            latency = latency.max(ovhd + bytes as f64 / rate);
        }
        out.est_latency = latency;

        self.stats.requests += 1;
        self.stats.objects += u64::from(out.objects);
        self.stats.local += u64::from(out.local);
        self.stats.peer += u64::from(out.peer);
        self.stats.repo += u64::from(out.repo);
        self.stats.overlay_deflected += u64::from(out.overlay_deflected);
        self.stats.checksum = checksum;
        self.stats.est_latency_s += latency;
        out
    }

    /// Routes a whole request slice under one `serve.route` span,
    /// returning the totals accumulated over the slice. When recording
    /// is enabled the slice is published once: tier counters and the
    /// `serve.route.latency_s` histogram.
    pub fn route_all(&mut self, requests: &[Request]) -> RouteStats {
        let _span = mmrepl_obs::span("serve.route");
        let before = self.stats.clone();
        let mut latencies = mmrepl_obs::enabled().then(Histogram::for_response_times);
        for req in requests {
            let out = self.route(req);
            if let Some(h) = latencies.as_mut() {
                h.record(out.est_latency);
            }
        }
        let mut delta = self.stats.clone();
        delta.requests -= before.requests;
        delta.objects -= before.objects;
        delta.local -= before.local;
        delta.peer -= before.peer;
        delta.repo -= before.repo;
        delta.overlay_deflected -= before.overlay_deflected;
        delta.misroutes -= before.misroutes;
        delta.est_latency_s -= before.est_latency_s;
        if let Some(h) = latencies {
            publish_route_telemetry(&delta, &h);
        }
        delta
    }

    /// The per-object decision; see the module docs for the three tiers.
    fn route_object(
        &mut self,
        snap: &PlacementSnapshot,
        k: ObjectId,
        marked_local: bool,
        out: &mut RouteOutcome,
    ) -> RouteTarget {
        if marked_local {
            if !snap.overlay().is_pending(self.from, k) {
                return RouteTarget::Local;
            }
            out.overlay_deflected += 1;
        }
        if !snap.node_lanes().is_empty() {
            let qos = snap.lane(self.from).qos;
            let size = snap.object_bytes(k) as f64;
            let mut best: Option<(f64, u32)> = None;
            for &p in snap.replicas(k) {
                if p == self.from.raw() {
                    continue;
                }
                let peer = SiteId::new(p);
                if snap.overlay().is_pending(peer, k) {
                    continue;
                }
                if self.peer_tokens[p as usize] < 1.0 {
                    continue;
                }
                let Some((ovhd, rate)) = snap.peer_channel(self.from, peer) else {
                    continue;
                };
                // The QoS veto: same bound `core::select` enforces on
                // serving channels, applied to the peer channel.
                if ovhd > qos {
                    continue;
                }
                let cost = ovhd + size / rate;
                let better = match best {
                    None => true,
                    Some((c, bp)) => cost < c || (cost == c && p < bp),
                };
                if better {
                    best = Some((cost, p));
                }
            }
            if let Some((_, p)) = best {
                self.peer_tokens[p as usize] -= 1.0;
                return RouteTarget::Peer(SiteId::new(p));
            }
        }
        RouteTarget::Serving
    }

    /// Cross-checks one decision against the snapshot's replica CSR and
    /// the overlay: the target must hold the object *now*. The CSR is an
    /// independent derivation from the per-page marks the fast path
    /// reads, so a disagreement is a real inconsistency, not a tautology.
    #[cfg(debug_assertions)]
    fn audit_target(&mut self, snap: &PlacementSnapshot, k: ObjectId, target: RouteTarget) {
        let holds = match target {
            RouteTarget::Local => {
                snap.stored(self.from, k) && !snap.overlay().is_pending(self.from, k)
            }
            RouteTarget::Peer(p) => snap.stored(p, k) && !snap.overlay().is_pending(p, k),
            // The serving repository node holds every object by the
            // model's definition.
            RouteTarget::Serving => true,
        };
        if !holds {
            self.stats.misroutes += 1;
            mmrepl_obs::event(
                "serve.misroute",
                Some(self.from.raw()),
                "route",
                format!("object {k:?} routed to {target:?} which does not hold it"),
            );
        }
    }
}

/// One routed slice's worth of telemetry, published once into the
/// recorder and flushed so the live view sees it: the tier counters and
/// the `serve.route.latency_s` histogram, which the stage table's
/// tail-latency footer, the exposition's summary and the
/// `serve.latency` SLO (see [`register_latency_slo`]) all read. Only
/// called on the enabled path.
fn publish_route_telemetry(delta: &RouteStats, latencies: &Histogram) {
    mmrepl_obs::add("serve.route.requests", delta.requests);
    mmrepl_obs::add("serve.route.objects", delta.objects);
    mmrepl_obs::add("serve.route.local", delta.local);
    mmrepl_obs::add("serve.route.peer", delta.peer);
    mmrepl_obs::add("serve.route.repo", delta.repo);
    mmrepl_obs::add("serve.route.overlay_deflected", delta.overlay_deflected);
    mmrepl_obs::merge_histogram("serve.route.latency_s", latencies, delta.est_latency_s);
    mmrepl_obs::flush_thread();
}

/// Registers the `serve.latency` SLO from the snapshot's QoS bounds:
/// the tightest finite per-site bound becomes the latency target, with
/// the default target when every bound is unbounded. Call once per
/// study before routing starts; the SLO then judges every latency the
/// routers publish into `serve.route.latency_s`.
pub fn register_latency_slo(snap: &PlacementSnapshot) {
    let mut bound = f64::INFINITY;
    for s in 0..snap.n_sites() {
        bound = bound.min(snap.lane(SiteId::new(s as u32)).qos);
    }
    mmrepl_obs::register_slo(mmrepl_obs::SloSpec::from_qos(
        "serve.latency",
        "serve.route.latency_s",
        bound,
    ));
}

/// Routes every site's trace against `snap` across `threads` workers
/// (one router per site — per-site results are independent, so the
/// merged totals are bit-identical at any thread count) and returns the
/// per-site stats in site order plus the merged totals.
pub fn route_traces(
    snap: &Arc<PlacementSnapshot>,
    traces: &[mmrepl_workload::SiteTrace],
    threads: usize,
) -> (Vec<RouteStats>, RouteStats) {
    let per_site: Vec<RouteStats> = mmrepl_core::parallel_map(traces.len(), threads, |i| {
        let mut router = Router::new(Arc::clone(snap), traces[i].site);
        let out = router.route_all(&traces[i].requests);
        mmrepl_obs::flush_thread();
        out
    });
    let mut total = RouteStats::default();
    for s in &per_site {
        total.merge(s);
    }
    (per_site, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmrepl_core::ReplicationPolicy;
    use mmrepl_model::System;
    use mmrepl_workload::{generate_trace, TopologyParams, TraceConfig, WorkloadParams};

    fn star() -> (System, Arc<PlacementSnapshot>) {
        let sys = mmrepl_workload::generate_system(&WorkloadParams::small(), 51)
            .unwrap()
            .with_storage_fraction(0.6);
        let outcome = ReplicationPolicy::new().plan(&sys);
        let snap = Arc::new(PlacementSnapshot::from_plan(&sys, &outcome, 0));
        (sys, snap)
    }

    fn tree(seed: u64) -> (System, Arc<PlacementSnapshot>) {
        let mut params = WorkloadParams::small();
        params.topology = TopologyParams::regional();
        let sys = mmrepl_workload::generate_system(&params, seed)
            .unwrap()
            .with_storage_fraction(0.6);
        let outcome = ReplicationPolicy::new().plan(&sys);
        let snap = Arc::new(PlacementSnapshot::from_plan(&sys, &outcome, 0));
        (sys, snap)
    }

    fn traces(sys: &System, seed: u64) -> Vec<mmrepl_workload::SiteTrace> {
        generate_trace(
            sys,
            &TraceConfig::from_params(&WorkloadParams::small()),
            seed,
        )
    }

    #[test]
    fn star_routing_is_local_or_repo_and_matches_marks() {
        let (sys, snap) = star();
        for t in traces(&sys, 52) {
            let mut router = Router::new(Arc::clone(&snap), t.site);
            for req in &t.requests {
                let out = router.route(req);
                assert_eq!(out.peer, 0, "star systems have no peer channels");
                assert_eq!(out.local + out.repo, out.objects);
                assert!(out.est_latency > 0.0);
            }
            let st = router.stats();
            assert_eq!(st.misroutes, 0);
            assert_eq!(st.overlay_deflected, 0);
            // Every locally-marked compulsory object of every requested
            // page must have routed local (empty overlay).
            let marked: u64 = t
                .requests
                .iter()
                .map(|r| {
                    let comp: u64 = snap.compulsory(r.page).filter(|&(_, l)| l).count() as u64;
                    let opt: u64 = r
                        .optional_slots
                        .iter()
                        .filter(|&&s| snap.optional_slot(r.page, s).1)
                        .count() as u64;
                    comp + opt
                })
                .sum();
            assert_eq!(st.local, marked);
        }
    }

    #[test]
    fn pending_overlay_deflects_local_requests_remotely() {
        let (sys, snap) = star();
        // Mark every stored object of site 0 as still in flight.
        let s0 = SiteId::new(0);
        let pending: Vec<_> = sys
            .objects()
            .ids()
            .filter(|&k| snap.stored(s0, k))
            .collect();
        snap.seed_overlay([(s0, pending.iter().copied())]);
        let t = &traces(&sys, 53)[0];
        assert_eq!(t.site, s0);
        let mut router = Router::new(Arc::clone(&snap), s0);
        let stats = router.route_all(&t.requests);
        assert_eq!(stats.local, 0, "nothing has arrived yet");
        assert!(stats.overlay_deflected > 0);
        assert_eq!(stats.misroutes, 0);
        // Arrivals flip routing back to local, request by request.
        for &k in &pending {
            snap.overlay().mark_arrived(s0, k);
        }
        let mut after = Router::new(Arc::clone(&snap), s0);
        let stats = after.route_all(&t.requests);
        assert!(stats.local > 0);
        assert_eq!(stats.overlay_deflected, 0);
    }

    #[test]
    fn tree_routing_prefers_cheap_peers_and_never_misroutes() {
        let (sys, snap) = tree(54);
        let mut total = RouteStats::default();
        for t in traces(&sys, 55) {
            let mut router = Router::new(Arc::clone(&snap), t.site);
            total.merge(&router.route_all(&t.requests));
        }
        assert_eq!(total.misroutes, 0);
        assert_eq!(total.local + total.peer + total.repo, total.objects);
        // Peer serving must actually engage on a regional tree with
        // replicated hot objects (weak assertion: it is *allowed* to be
        // zero only if no object has a second replica).
        let any_replicated = sys.objects().ids().any(|k| snap.replicas(k).len() > 1);
        if any_replicated {
            assert!(total.peer > 0, "peer channels never engaged");
        }
    }

    #[test]
    fn route_traces_is_thread_count_invariant() {
        let (sys, snap) = tree(56);
        let tr = traces(&sys, 57);
        let (per1, tot1) = route_traces(&snap, &tr, 1);
        let (per4, tot4) = route_traces(&snap, &tr, 4);
        assert_eq!(per1, per4);
        assert_eq!(tot1, tot4);
        assert!(tot1.requests > 0);
    }

    #[test]
    fn exhausted_peer_tokens_fall_back_to_the_serving_node() {
        let (sys, snap) = tree(58);
        let t = &traces(&sys, 59)[0];
        let mut router = Router::new(Arc::clone(&snap), t.site);
        // Starve the token shares: everything must fall back.
        for tok in &mut router.peer_tokens {
            *tok = 0.0;
        }
        let stats = router.route_all(&t.requests);
        assert_eq!(stats.peer, 0);
        assert_eq!(stats.misroutes, 0);
    }
}
