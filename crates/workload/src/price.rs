//! The request pricer: what one replayed request costs its user.
//!
//! Every replay prices a request the same way, under the request's own
//! perturbed conditions (Section 5.1):
//!
//! * the compulsory phase is two pipelined streams in parallel — the local
//!   stream carries the HTML plus every locally served compulsory object,
//!   the repository stream the rest — and the page completes with the
//!   slower one (Eq. 5);
//! * each optional object the user then fetches opens its own connection
//!   (Eq. 6), and the fetches add up in request order.
//!
//! [`RequestStreams`] is that pricer, written once. Callers differ only in
//! *where* an object is served from (a locality predicate per slot) and in
//! how much of the repository link the request gets (a share, `1.0` unless
//! a replica migration is draining on the same link). The streams are kept
//! as running byte totals and object counts, so pricing allocates nothing.
//!
//! ## Example
//!
//! ```
//! use mmrepl_model::Secs;
//! use mmrepl_workload::{
//!     generate_system, generate_trace, RequestStreams, TraceConfig, WorkloadParams,
//! };
//!
//! let params = WorkloadParams::small();
//! let system = generate_system(&params, 42).unwrap();
//! let traces = generate_trace(&system, &TraceConfig::from_params(&params), 42);
//! let (site, req) = (system.site(traces[0].site), &traces[0].requests[0]);
//!
//! // Serve only the HTML locally; every compulsory object is remote.
//! let streams = RequestStreams::new(&system, site, req, 1.0, |_, _| false);
//! assert_eq!(streams.local_objects, 0);
//!
//! // Eq. 5: the page completes when the slower stream finishes.
//! let response = streams.page_time(Secs::ZERO, Secs::ZERO);
//! assert_eq!(response, streams.local_time().max(streams.remote_time()));
//!
//! // A migration holding half the repository link slows the remote stream.
//! let contended = RequestStreams::new(&system, site, req, 0.5, |_, _| false);
//! assert!(contended.remote_time() >= streams.remote_time());
//! ```

use crate::transfer::ConnectionProfile;
use crate::Request;
use mmrepl_model::{Bytes, ObjectId, Secs, Site, System};

/// One routed request's compulsory phase: two pipelined streams kept as
/// byte totals and object counts, plus the two connections its optional
/// fetches ride on.
#[derive(Debug)]
pub struct RequestStreams {
    /// The request's actual local-server connection.
    pub local: ConnectionProfile,
    /// The request's actual repository connection.
    pub remote: ConnectionProfile,
    local_bytes: Bytes,
    /// Compulsory objects served locally (the HTML not counted).
    pub local_objects: usize,
    remote_bytes: Bytes,
    /// Compulsory objects served by the repository.
    pub remote_objects: usize,
}

impl RequestStreams {
    /// Splits `req`'s page under the request's perturbed conditions at
    /// `site`. The repository rate is further scaled by `remote_share`,
    /// the fraction of the link the request gets; `local(slot, k)` says
    /// whether compulsory object `k` in page slot `slot` is served
    /// locally. Slots are visited in page order.
    pub fn new(
        system: &System,
        site: &Site,
        req: &Request,
        remote_share: f64,
        mut local: impl FnMut(usize, ObjectId) -> bool,
    ) -> Self {
        let page = system.page(req.page);
        let c = &req.conditions;
        let mut streams = RequestStreams {
            local: ConnectionProfile::new(
                site.local_ovhd * c.local_ovhd_factor,
                site.local_rate.scale(c.local_rate_factor),
            ),
            remote: ConnectionProfile::new(
                site.repo_ovhd * c.repo_ovhd_factor,
                site.repo_rate.scale(c.repo_rate_factor * remote_share),
            ),
            local_bytes: page.html_size,
            local_objects: 0,
            remote_bytes: Bytes::ZERO,
            remote_objects: 0,
        };
        for (slot, &k) in page.compulsory.iter().enumerate() {
            let size = system.object_size(k);
            if local(slot, k) {
                streams.local_bytes += size;
                streams.local_objects += 1;
            } else {
                streams.remote_bytes += size;
                streams.remote_objects += 1;
            }
        }
        streams
    }

    /// Completion time of the local stream (never empty: it carries the
    /// HTML).
    pub fn local_time(&self) -> Secs {
        self.local
            .stream_time(self.local_bytes, self.local_objects + 1)
    }

    /// Completion time of the repository stream; zero when it is empty.
    pub fn remote_time(&self) -> Secs {
        self.remote
            .stream_time(self.remote_bytes, self.remote_objects)
    }

    /// The page response (Eq. 5) when each stream first waits its
    /// server's queue; zero waits give Eq. 5 exactly.
    pub fn page_time(&self, site_wait: Secs, repo_wait: Secs) -> Secs {
        (site_wait + self.local_time()).max(repo_wait + self.remote_time())
    }

    /// The optional phase (Eq. 6): one fresh connection per object in
    /// `req.optional_slots`, summed in that order. `local(i, k)` says
    /// whether the `i`-th requested optional object `k` is served locally.
    /// Returns the total time and how many fetches were local.
    pub fn optional_time(
        &self,
        system: &System,
        req: &Request,
        mut local: impl FnMut(usize, ObjectId) -> bool,
    ) -> (Secs, usize) {
        let page = system.page(req.page);
        let mut total = Secs::ZERO;
        let mut n_local = 0;
        for (i, &slot) in req.optional_slots.iter().enumerate() {
            let k = page.optional[slot as usize].object;
            let size = system.object_size(k);
            if local(i, k) {
                total += self.local.single_fetch(size);
                n_local += 1;
            } else {
                total += self.remote.single_fetch(size);
            }
        }
        (total, n_local)
    }
}
