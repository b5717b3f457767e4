//! The cost model of Section 3: Eq. 3 (local stream time), Eq. 4 (remote
//! stream time), Eq. 5 (page response = max of the parallel streams),
//! Eq. 6 (optional-object time) and Eq. 7 (the weighted objective
//! `D = α1·D1 + α2·D2`).
//!
//! All times here are computed from the *estimated* rates and overheads
//! stored in [`Site`] — this is the planner's view. The request pricer
//! in `mmrepl-workload` (`price::RequestStreams`) re-evaluates the same
//! expressions with per-request perturbed values to measure what users
//! actually experience.
//!
//! ## A note on Eq. 4's constant term
//!
//! The paper initializes the remote stream with `Ovhd(R, S_i)` even when no
//! object ends up remote. For *evaluation* that would floor every
//! response time at the repository overhead although the client never
//! contacts the repository, so [`CostModel::time_remote`] returns zero when
//! the remote compulsory set is empty. The greedy `PARTITION` loop in
//! `mmrepl-core` keeps the paper's verbatim initialization while comparing
//! streams, which only makes it slightly conservative about the first
//! remote download (matching the pseudocode).

use crate::entities::{Site, System};
use crate::ids::{IdVec, PageId, SiteId};
use crate::placement::{PagePartition, Placement};
use crate::topology::ServingChannel;
use crate::units::{BytesPerSec, Secs};
use serde::{Deserialize, Serialize};

/// Weights `(α1, α2)` of the two target functions in Eq. 7.
///
/// The paper argues page retrieval matters more than optional downloads and
/// uses `(2, 1)` in Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Weight of `D1`, the compulsory response-time objective.
    pub alpha1: f64,
    /// Weight of `D2`, the optional download-time objective.
    pub alpha2: f64,
}

impl Default for CostParams {
    /// Table 1's `(α1, α2) = (2, 1)`.
    fn default() -> Self {
        CostParams {
            alpha1: 2.0,
            alpha2: 1.0,
        }
    }
}

/// Per-page cost decomposition, all in estimated seconds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PageCost {
    /// Eq. 3 — `Time(S_i, W_j)`: overhead + HTML + local compulsory objects
    /// over the local pipe.
    pub local: Secs,
    /// Eq. 4 — `Time(R, W_j)`: overhead + remote compulsory objects over
    /// the repository pipe (zero if nothing is remote).
    pub remote: Secs,
    /// Eq. 5 — `Time(W_j) = max(local, remote)`.
    pub response: Secs,
    /// Eq. 6 — `Time(W_j, M)`: expected optional-object time.
    pub optional: Secs,
}

impl PageCost {
    /// This page's contribution to the composite objective:
    /// `f(W_j) (α1·Time(W_j) + α2·Time(W_j, M))`.
    pub fn weighted(&self, freq: f64, params: CostParams) -> f64 {
        freq * (params.alpha1 * self.response.get() + params.alpha2 * self.optional.get())
    }
}

/// Evaluates the Section 3 cost model over a [`System`].
#[derive(Clone, Copy, Debug)]
pub struct CostModel<'a> {
    system: &'a System,
    params: CostParams,
    /// Optional per-site effective remote channels (federated-tree
    /// extension): when set, Eq. 4/6 price the remote stream over the
    /// serving ancestor's constrained path instead of the site's raw
    /// repository estimates.
    channels: Option<&'a IdVec<SiteId, ServingChannel>>,
}

impl<'a> CostModel<'a> {
    /// Creates a cost model with the given weights.
    pub fn new(system: &'a System, params: CostParams) -> Self {
        CostModel {
            system,
            params,
            channels: None,
        }
    }

    /// Creates a cost model whose remote stream is priced through
    /// per-site serving channels (one per site, e.g. from an
    /// ancestor-selection pass over the system's tree topology) instead of
    /// the sites' raw `repo_rate`/`repo_ovhd`.
    ///
    /// A zero-hop channel is bit-identical to the raw estimates, so
    /// passing attach-node channels on any topology — or any channels on a
    /// one-node tree — reproduces [`CostModel::new`] exactly.
    pub fn with_channels(
        system: &'a System,
        params: CostParams,
        channels: &'a IdVec<SiteId, ServingChannel>,
    ) -> Self {
        assert_eq!(
            channels.len(),
            system.n_sites(),
            "one serving channel per site"
        );
        CostModel {
            system,
            params,
            channels: Some(channels),
        }
    }

    /// The effective remote channel for `site`: the override when
    /// present, the site's raw estimates otherwise.
    #[inline]
    fn remote_channel(&self, site_id: SiteId, site: &Site) -> (BytesPerSec, Secs) {
        match self.channels {
            Some(ch) => {
                let c = ch[site_id];
                (c.rate, c.ovhd)
            }
            None => (site.repo_rate, site.repo_ovhd),
        }
    }

    /// Creates a cost model with the paper's `(2, 1)` weights.
    pub fn with_defaults(system: &'a System) -> Self {
        Self::new(system, CostParams::default())
    }

    /// The weights in use.
    pub fn params(&self) -> CostParams {
        self.params
    }

    /// The underlying system.
    pub fn system(&self) -> &'a System {
        self.system
    }

    /// Eq. 3 — time to pull the HTML plus all locally-marked compulsory
    /// objects through the local server's pipe, pipelined on one persistent
    /// connection.
    pub fn time_local(&self, page: PageId, part: &PagePartition) -> Secs {
        let p = self.system.page(page);
        let site = self.system.site(p.site);
        let mut t = site.local_ovhd + p.html_size / site.local_rate;
        for (slot, &k) in p.compulsory.iter().enumerate() {
            if part.local_compulsory[slot] {
                t += self.system.object_size(k) / site.local_rate;
            }
        }
        t
    }

    /// Eq. 4 — time to pull the remotely-marked compulsory objects from
    /// the repository, or zero when nothing is remote (see module docs).
    pub fn time_remote(&self, page: PageId, part: &PagePartition) -> Secs {
        let p = self.system.page(page);
        let site = self.system.site(p.site);
        let (repo_rate, repo_ovhd) = self.remote_channel(p.site, site);
        let mut t = Secs::ZERO;
        let mut any = false;
        for (slot, &k) in p.compulsory.iter().enumerate() {
            if !part.local_compulsory[slot] {
                t += self.system.object_size(k) / repo_rate;
                any = true;
            }
        }
        if any {
            t + repo_ovhd
        } else {
            Secs::ZERO
        }
    }

    /// Eq. 5 — the user-perceived page response time, the max of the two
    /// parallel streams.
    pub fn page_response(&self, page: PageId, part: &PagePartition) -> Secs {
        self.time_local(page, part)
            .max(self.time_remote(page, part))
    }

    /// Eq. 6 — expected time spent on optional objects after the page is
    /// retrieved. Each optional download opens its own connection, so it
    /// pays the full overhead, local or remote according to `X'`.
    pub fn optional_time(&self, page: PageId, part: &PagePartition) -> Secs {
        let p = self.system.page(page);
        let site = self.system.site(p.site);
        let (repo_rate, repo_ovhd) = self.remote_channel(p.site, site);
        let mut t = 0.0;
        for (slot, opt) in p.optional.iter().enumerate() {
            let size = self.system.object_size(opt.object);
            let per = if part.local_optional[slot] {
                site.local_ovhd + size / site.local_rate
            } else {
                repo_ovhd + size / repo_rate
            };
            t += opt.prob * per.get();
        }
        Secs(p.opt_req_factor * t)
    }

    /// All four per-page cost components at once.
    pub fn page_cost(&self, page: PageId, part: &PagePartition) -> PageCost {
        let local = self.time_local(page, part);
        let remote = self.time_remote(page, part);
        PageCost {
            local,
            remote,
            response: local.max(remote),
            optional: self.optional_time(page, part),
        }
    }

    /// `D1 = Σ_j f(W_j) · Time(W_j)` (first target of Eq. 7).
    pub fn d1(&self, placement: &Placement) -> f64 {
        placement
            .iter()
            .map(|(pid, part)| {
                self.system.page(pid).freq.get() * self.page_response(pid, part).get()
            })
            .sum()
    }

    /// `D2 = Σ_j f(W_j) · Time(W_j, M)` (second target of Eq. 7).
    pub fn d2(&self, placement: &Placement) -> f64 {
        placement
            .iter()
            .map(|(pid, part)| {
                self.system.page(pid).freq.get() * self.optional_time(pid, part).get()
            })
            .sum()
    }

    /// The composite objective `D = α1·D1 + α2·D2`.
    pub fn objective(&self, placement: &Placement) -> f64 {
        placement
            .iter()
            .map(|(pid, part)| {
                self.page_cost(pid, part)
                    .weighted(self.system.page(pid).freq.get(), self.params)
            })
            .sum()
    }

    /// Frequency-weighted *mean* response time over page requests,
    /// `Σ f(W_j) Time(W_j) / Σ f(W_j)` — the quantity the paper's figures
    /// plot (as a ratio to the unconstrained policy).
    pub fn mean_response(&self, placement: &Placement) -> Secs {
        let total_freq: f64 = self.system.pages().values().map(|p| p.freq.get()).sum();
        if total_freq == 0.0 {
            return Secs::ZERO;
        }
        Secs(self.d1(placement) / total_freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::{MediaObject, OptionalRef, Site, SystemBuilder, WebPage};
    use crate::units::{Bytes, BytesPerSec, ReqPerSec};

    /// A site with round numbers so every expected value below is exact:
    /// local pipe 10 KiB/s, repo pipe 1 KiB/s, overheads 1 s / 2 s.
    fn round_site() -> Site {
        Site {
            storage: Bytes::gib(10),
            capacity: ReqPerSec::INFINITE,
            local_rate: BytesPerSec::kib_per_sec(10.0),
            repo_rate: BytesPerSec::kib_per_sec(1.0),
            local_ovhd: Secs(1.0),
            repo_ovhd: Secs(2.0),
        }
    }

    /// One page: HTML 10 KiB, compulsory objects of 100 KiB and 50 KiB,
    /// one optional 20 KiB object with probability 0.5.
    fn fixture() -> System {
        let mut b = SystemBuilder::new();
        let s = b.add_site(round_site());
        let m_big = b.add_object(MediaObject::of_size(Bytes::kib(100)));
        let m_small = b.add_object(MediaObject::of_size(Bytes::kib(50)));
        let m_opt = b.add_object(MediaObject::of_size(Bytes::kib(20)));
        b.add_page(WebPage {
            site: s,
            html_size: Bytes::kib(10),
            freq: ReqPerSec(2.0),
            compulsory: vec![m_big, m_small],
            optional: vec![OptionalRef {
                object: m_opt,
                prob: 0.5,
            }],
            opt_req_factor: 1.0,
        });
        b.build().unwrap()
    }

    #[test]
    fn eq3_all_local() {
        let sys = fixture();
        let cm = CostModel::with_defaults(&sys);
        let part = PagePartition::all_local(sys.page(PageId::new(0)));
        // 1 + (10 + 100 + 50)/10 = 17
        assert!((cm.time_local(PageId::new(0), &part).get() - 17.0).abs() < 1e-12);
    }

    #[test]
    fn eq4_all_remote() {
        let sys = fixture();
        let cm = CostModel::with_defaults(&sys);
        let part = PagePartition::all_remote(sys.page(PageId::new(0)));
        // 2 + (100 + 50)/1 = 152
        assert!((cm.time_remote(PageId::new(0), &part).get() - 152.0).abs() < 1e-12);
        // local stream still carries the HTML: 1 + 10/10 = 2
        assert!((cm.time_local(PageId::new(0), &part).get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn eq4_zero_when_nothing_remote() {
        let sys = fixture();
        let cm = CostModel::with_defaults(&sys);
        let part = PagePartition::all_local(sys.page(PageId::new(0)));
        assert_eq!(cm.time_remote(PageId::new(0), &part), Secs::ZERO);
    }

    #[test]
    fn eq5_takes_the_max_stream() {
        let sys = fixture();
        let cm = CostModel::with_defaults(&sys);
        let page = PageId::new(0);

        // Split: big object local, small remote.
        let part = PagePartition {
            local_compulsory: vec![true, false],
            local_optional: vec![false],
        };
        // local: 1 + (10 + 100)/10 = 12; remote: 2 + 50/1 = 52.
        let resp = cm.page_response(page, &part);
        assert!((resp.get() - 52.0).abs() < 1e-12);

        let all_local = PagePartition::all_local(sys.page(page));
        assert!((cm.page_response(page, &all_local).get() - 17.0).abs() < 1e-12);
    }

    #[test]
    fn eq6_weights_by_probability_and_location() {
        let sys = fixture();
        let cm = CostModel::with_defaults(&sys);
        let page = PageId::new(0);

        let remote = PagePartition::all_remote(sys.page(page));
        // remote optional: 0.5 * (2 + 20/1) = 11
        assert!((cm.optional_time(page, &remote).get() - 11.0).abs() < 1e-12);

        let local = PagePartition::all_local(sys.page(page));
        // local optional: 0.5 * (1 + 20/10) = 1.5
        assert!((cm.optional_time(page, &local).get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn eq7_objective_composition() {
        let sys = fixture();
        let cm = CostModel::with_defaults(&sys);
        let placement = Placement::all_local(&sys);
        // D1 = 2.0 * 17; D2 = 2.0 * 1.5; D = 2*34 + 1*3 = 71.
        assert!((cm.d1(&placement) - 34.0).abs() < 1e-12);
        assert!((cm.d2(&placement) - 3.0).abs() < 1e-12);
        assert!((cm.objective(&placement) - 71.0).abs() < 1e-12);
    }

    #[test]
    fn custom_weights_change_objective() {
        let sys = fixture();
        let cm = CostModel::new(
            &sys,
            CostParams {
                alpha1: 1.0,
                alpha2: 0.0,
            },
        );
        let placement = Placement::all_local(&sys);
        assert!((cm.objective(&placement) - cm.d1(&placement)).abs() < 1e-12);
    }

    #[test]
    fn mean_response_is_frequency_weighted() {
        let sys = fixture();
        let cm = CostModel::with_defaults(&sys);
        let placement = Placement::all_local(&sys);
        // Single page: mean = its response time.
        assert!((cm.mean_response(&placement).get() - 17.0).abs() < 1e-12);
    }

    #[test]
    fn page_cost_bundle_consistent() {
        let sys = fixture();
        let cm = CostModel::with_defaults(&sys);
        let page = PageId::new(0);
        let part = PagePartition {
            local_compulsory: vec![false, true],
            local_optional: vec![true],
        };
        let cost = cm.page_cost(page, &part);
        assert_eq!(cost.local, cm.time_local(page, &part));
        assert_eq!(cost.remote, cm.time_remote(page, &part));
        assert_eq!(cost.response, cost.local.max(cost.remote));
        assert_eq!(cost.optional, cm.optional_time(page, &part));
        let w = cost.weighted(2.0, CostParams::default());
        assert!((w - 2.0 * (2.0 * cost.response.get() + 1.0 * cost.optional.get())).abs() < 1e-12);
    }

    #[test]
    fn raw_channels_reproduce_plain_model_bit_for_bit() {
        let sys = fixture();
        let channels: IdVec<SiteId, ServingChannel> = sys
            .sites()
            .iter()
            .map(|(_, s)| ServingChannel {
                rate: s.repo_rate,
                ovhd: s.repo_ovhd,
                hops: 0,
            })
            .collect();
        let plain = CostModel::with_defaults(&sys);
        let routed = CostModel::with_channels(&sys, CostParams::default(), &channels);
        let placement = Placement::all_remote(&sys);
        assert_eq!(
            plain.objective(&placement).to_bits(),
            routed.objective(&placement).to_bits()
        );
        let page = PageId::new(0);
        let part = PagePartition::all_remote(sys.page(page));
        assert_eq!(
            plain.time_remote(page, &part).get().to_bits(),
            routed.time_remote(page, &part).get().to_bits()
        );
        assert_eq!(
            plain.optional_time(page, &part).get().to_bits(),
            routed.optional_time(page, &part).get().to_bits()
        );
    }

    #[test]
    fn degraded_channel_slows_only_the_remote_stream() {
        let sys = fixture();
        // Serving from a distant ancestor: half the rate, +1 s latency.
        let channels: IdVec<SiteId, ServingChannel> = sys
            .sites()
            .iter()
            .map(|(_, s)| ServingChannel {
                rate: BytesPerSec(s.repo_rate.get() / 2.0),
                ovhd: s.repo_ovhd + Secs(1.0),
                hops: 2,
            })
            .collect();
        let cm = CostModel::with_channels(&sys, CostParams::default(), &channels);
        let page = PageId::new(0);
        let part = PagePartition::all_remote(sys.page(page));
        // remote: (2 + 1) + (100 + 50)/0.5 = 303
        assert!((cm.time_remote(page, &part).get() - 303.0).abs() < 1e-12);
        // local stream untouched: 1 + 10/10 = 2
        assert!((cm.time_local(page, &part).get() - 2.0).abs() < 1e-12);
        // optional: 0.5 * (3 + 20/0.5) = 21.5
        assert!((cm.optional_time(page, &part).get() - 21.5).abs() < 1e-12);
    }

    #[test]
    fn moving_everything_local_beats_all_remote_on_fast_local_pipe() {
        // Sanity direction check: with a 10x faster local pipe, the Local
        // extreme dominates the Remote extreme on response time.
        let sys = fixture();
        let cm = CostModel::with_defaults(&sys);
        let local = Placement::all_local(&sys);
        let remote = Placement::all_remote(&sys);
        assert!(cm.d1(&local) < cm.d1(&remote));
    }

    #[test]
    fn balanced_partition_beats_both_extremes_when_pipes_comparable() {
        // With equal pipes, splitting the two objects across streams wins.
        let mut site = round_site();
        site.repo_rate = BytesPerSec::kib_per_sec(10.0);
        site.repo_ovhd = Secs(1.0);
        let mut b = SystemBuilder::new();
        let s = b.add_site(site);
        let m0 = b.add_object(MediaObject::of_size(Bytes::kib(100)));
        let m1 = b.add_object(MediaObject::of_size(Bytes::kib(100)));
        b.add_page(WebPage {
            site: s,
            html_size: Bytes::kib(10),
            freq: ReqPerSec(1.0),
            compulsory: vec![m0, m1],
            optional: vec![],
            opt_req_factor: 1.0,
        });
        let sys = b.build().unwrap();
        let cm = CostModel::with_defaults(&sys);
        let page = PageId::new(0);

        let split = PagePartition {
            local_compulsory: vec![true, false],
            local_optional: vec![],
        };
        let split_resp = cm.page_response(page, &split);
        let local_resp = cm.page_response(page, &PagePartition::all_local(sys.page(page)));
        let remote_resp = cm.page_response(page, &PagePartition::all_remote(sys.page(page)));
        assert!(split_resp < local_resp, "{split_resp:?} vs {local_resp:?}");
        assert!(
            split_resp < remote_resp,
            "{split_resp:?} vs {remote_resp:?}"
        );
    }
}
