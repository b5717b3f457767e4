//! Request routing — the interface between policies and the replayer.
//!
//! A *static* policy fixes the `X`/`X'` matrices up front; a *dynamic*
//! policy like LRU decides per request and mutates state (cache contents,
//! capacity budget). [`RequestRouter`] unifies them so the simulator
//! replays every policy through one code path.
//!
//! Routing writes into a caller-owned [`RouteDecision`]: the replay loops
//! hold one buffer per call and every route clears and refills it, so a
//! replayed request allocates nothing once the buffer has grown to the
//! largest page.

use mmrepl_model::{PageId, Placement, System};

/// Where each object of one page request is served from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteDecision {
    /// Per compulsory slot: `true` = local server, `false` = repository.
    pub local_compulsory: Vec<bool>,
    /// Per *requested* optional slot (parallel to the request's
    /// `optional_slots` list): `true` = local.
    pub local_optional: Vec<bool>,
}

impl RouteDecision {
    /// Number of objects served locally (compulsory + optional).
    pub fn n_local(&self) -> usize {
        self.local_compulsory.iter().filter(|&&b| b).count()
            + self.local_optional.iter().filter(|&&b| b).count()
    }
}

/// A policy able to route page requests.
pub trait RequestRouter {
    /// Routes one page request into `out`, clearing whatever it held
    /// first. `optional_slots` lists the optional-object slots this user
    /// fetches after the page loads (empty for most requests). Called in
    /// trace order; implementations may carry state.
    fn route(
        &mut self,
        system: &System,
        page: PageId,
        optional_slots: &[u32],
        out: &mut RouteDecision,
    );

    /// A short label for reports.
    fn name(&self) -> &'static str;
}

/// Routes according to a fixed [`Placement`] — our policy, Remote and
/// Local all replay through this.
pub struct StaticRouter<'a> {
    placement: &'a Placement,
    label: &'static str,
}

impl<'a> StaticRouter<'a> {
    /// Wraps a placement under the given report label.
    pub fn new(placement: &'a Placement, label: &'static str) -> Self {
        StaticRouter { placement, label }
    }
}

impl RequestRouter for StaticRouter<'_> {
    fn route(
        &mut self,
        _system: &System,
        page: PageId,
        optional_slots: &[u32],
        out: &mut RouteDecision,
    ) {
        let part = self.placement.partition(page);
        out.local_compulsory.clear();
        out.local_compulsory
            .extend_from_slice(&part.local_compulsory);
        out.local_optional.clear();
        out.local_optional.extend(
            optional_slots
                .iter()
                .map(|&s| part.local_optional[s as usize]),
        );
    }

    fn name(&self) -> &'static str {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmrepl_model::Placement;
    use mmrepl_workload::{generate_system, WorkloadParams};

    #[test]
    fn static_router_mirrors_placement() {
        let sys = generate_system(&WorkloadParams::small(), 1).unwrap();
        let placement = Placement::all_local(&sys);
        let mut router = StaticRouter::new(&placement, "local");
        assert_eq!(router.name(), "local");
        // Find a page with optional objects to exercise both vectors.
        let (pid, page) = sys
            .pages()
            .iter()
            .find(|(_, p)| p.n_optional() >= 2)
            .expect("no page with optionals");
        let slots = [0u32, 1u32];
        let mut decision = RouteDecision::default();
        router.route(&sys, pid, &slots, &mut decision);
        assert_eq!(decision.local_compulsory.len(), page.n_compulsory());
        assert_eq!(decision.local_optional, vec![true, true]);
        assert_eq!(decision.n_local(), page.n_compulsory() + 2);
    }

    #[test]
    fn static_router_remote_routes_nothing_locally() {
        let sys = generate_system(&WorkloadParams::small(), 2).unwrap();
        let placement = Placement::all_remote(&sys);
        let mut router = StaticRouter::new(&placement, "remote");
        let mut d = RouteDecision::default();
        for (pid, _) in sys.pages().iter().take(20) {
            router.route(&sys, pid, &[], &mut d);
            assert_eq!(d.n_local(), 0);
        }
    }
}
