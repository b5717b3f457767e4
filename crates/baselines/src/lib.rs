#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # mmrepl-baselines
//!
//! The three comparison policies of Section 5.2:
//!
//! * **Remote** — every multimedia object is downloaded from the central
//!   repository (only the HTML comes from the local server);
//! * **Local** — every object is stored and served locally;
//! * **ideal LRU** — a per-site LRU object cache with *zero* redirection
//!   overhead: a request for a cached object is served locally, a miss is
//!   served by the repository and the object is then cached (evicting
//!   least-recently-used objects). Per the paper, LRU is subject only to
//!   the local processing-capacity constraint (Eq. 8), which the replay
//!   enforces with a token bucket refilled at `C(S_i)` requests/second of
//!   simulated arrival time; Remote and Local are evaluated unconstrained.
//!
//! Remote and Local are static placements; LRU is inherently dynamic, so
//! the crate defines the [`RequestRouter`] abstraction the simulator
//! drives: one routing decision per page request, with cache state carried
//! between requests. A route writes into a caller-owned [`RouteDecision`]
//! (cleared and refilled on every call), so the replay loops reuse one
//! buffer rather than allocating per request.
//!
//! [`LruCache`] keeps its recency order as an intrusive list over a slot
//! arena: hits, inserts and evictions are O(1) splices plus one hash
//! lookup. The arena is keyed by object id and grows only with what a site
//! has cached, never with the catalogue (see the [`lru`] module docs).
//!
//! ## Example
//!
//! ```
//! use mmrepl_baselines::{LruRouter, RequestRouter, RouteDecision};
//! use mmrepl_workload::{generate_system, WorkloadParams};
//!
//! let system = generate_system(&WorkloadParams::small(), 1).unwrap();
//! let mut lru = LruRouter::new(&system);
//! let page = system.pages_of(system.sites().ids().next().unwrap())[0];
//! let mut decision = RouteDecision::default();
//!
//! // Cold cache: everything misses and is fetched from the repository...
//! lru.route(&system, page, &[], &mut decision);
//! assert_eq!(decision.n_local(), 0);
//! // ...after which the page's objects are cached and served locally.
//! lru.route(&system, page, &[], &mut decision);
//! assert!(decision.n_local() > 0);
//! ```

pub mod cache;
pub mod gds;
pub mod lfu;
pub mod lru;
pub mod router;

pub use cache::{ObjectCache, TokenBucket};
pub use gds::{GdsCache, GdsRouter};
pub use lfu::{LfuCache, LfuRouter};
pub use lru::{CachingRouter, LruCache, LruRouter};
pub use router::{RequestRouter, RouteDecision, StaticRouter};

use mmrepl_model::{Placement, System};

/// The static "download everything from the repository" policy.
pub fn remote_policy(system: &System) -> Placement {
    Placement::all_remote(system)
}

/// The static "store and serve everything locally" policy.
pub fn local_policy(system: &System) -> Placement {
    Placement::all_local(system)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmrepl_workload::{generate_system, WorkloadParams};

    #[test]
    fn remote_policy_has_no_local_marks() {
        let sys = generate_system(&WorkloadParams::small(), 1).unwrap();
        let p = remote_policy(&sys);
        assert_eq!(p.total_local_marks(), 0);
    }

    #[test]
    fn local_policy_marks_everything() {
        let sys = generate_system(&WorkloadParams::small(), 1).unwrap();
        let p = local_policy(&sys);
        let expected: usize = sys
            .pages()
            .values()
            .map(|pg| pg.n_compulsory() + pg.n_optional())
            .sum();
        assert_eq!(p.total_local_marks(), expected);
    }
}
