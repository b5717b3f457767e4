//! Differential oracles for the planning pipeline.
//!
//! The dense planner state ([`mmrepl_core::SiteWork`]) earns its speed by
//! maintaining every derived quantity incrementally: streams, loads, mark
//! counts, stored bytes, CSR reverse indices. The invariant auditor
//! (`mmrepl_core::audit`) cross-checks those quantities against from-scratch
//! recomputation; this module goes one step further and checks the
//! *decisions*. Three oracle pairs, each asserting that two independent
//! implementations agree:
//!
//! 1. **dense planner ≡ naive reference** — [`reference_plan`] re-runs the
//!    whole pipeline (partition → storage → capacity → off-loading) on a
//!    `RefSite` that keeps only the partition rows and a stored-object
//!    set, recomputing streams, loads, storage and mark counts by full
//!    scans on every query. The greedy keys are bit-identical by
//!    construction (they read only exact integer stream totals and fresh
//!    per-slot deltas), so the final placements must match exactly.
//! 2. **unbounded delta-replan ≡ cold plan** — the online replanner with
//!    every site dirty and an unlimited churn budget must land on the same
//!    placement as a cold plan of the estimated system.
//! 3. **DES ≡ Eq. 5** — on an unconstrained system with a nominal
//!    (unperturbed) trace, the event-driven replay's mean page response
//!    must match the analytic Eq. 5 prediction to within float tolerance:
//!    queueing waits are zero and optional payloads are occupancy only.
//!
//! [`fuzz`] sweeps the three oracles over seeded systems;
//! [`minimize_counterexample`] shrinks a failing system by dropping sites
//! and pages while the failure persists, so divergences arrive as small
//! reproducible cases rather than 25-site haystacks.
//!
//! ## What the reference does and does not share
//!
//! The reference reuses two exported primitives whose behaviour is pinned
//! by their own unit tests: [`LazyMinHeap`] (pop order over a totally
//! ordered key set is independent of internal layout) and
//! [`OptionalCost`]'s flip accumulator (mirrored flip-for-flip so the
//! `repartition_page` keep-decision, which compares accumulated page
//! objectives at a 1e-12 threshold, rounds identically). Everything the
//! dense state maintains incrementally — streams, serving load, storage
//! bytes, mark counts, reverse indices, the orphan worklist — is
//! recomputed naively here, which is exactly the bookkeeping the oracle
//! exists to distrust.

use mmrepl_baselines::StaticRouter;
use mmrepl_core::state::SlotKind;
use mmrepl_core::{
    LazyMinHeap, OffloadConfig, OptionalCost, PlannerConfig, ReplicationPolicy, SiteParams, Streams,
};
use mmrepl_model::{
    CostModel, IdVec, ObjectId, PageId, PagePartition, Placement, SiteId, System, SystemBuilder,
    WebPage,
};
use mmrepl_online::{ChurnBudget, DeltaPlanner};
use mmrepl_workload::{generate_system, generate_trace, DriftModel, TraceConfig, WorkloadParams};
use std::collections::{BTreeSet, HashSet};

/// The negotiation tolerance shared with `mmrepl_core::offload`.
const EPS: f64 = 1e-9;

// ---------------------------------------------------------------------------
// The naive reference site
// ---------------------------------------------------------------------------

/// One site's reference planning state: partition rows, a stored-object
/// set, and the [`OptionalCost`] accumulators (mirrored flip-for-flip, see
/// module docs). Every other quantity is recomputed by full scans.
struct RefSite<'a> {
    sys: &'a System,
    site: SiteId,
    params: SiteParams,
    alpha1: f64,
    alpha2: f64,
    pages: Vec<PageId>,
    parts: Vec<PagePartition>,
    opt_cost: Vec<OptionalCost>,
    store: BTreeSet<ObjectId>,
    html_bytes: u64,
}

impl<'a> RefSite<'a> {
    /// Adopts the initial partition rows for `site`; the store becomes the
    /// locally-marked object set, exactly as [`mmrepl_core::SiteWork`]
    /// does. The reference models the paper's read-only system (no update
    /// accounting).
    fn new(sys: &'a System, site: SiteId, initial: &[PagePartition], cost: CostWeights) -> Self {
        let params = SiteParams::of(sys.site(site));
        let pages: Vec<PageId> = sys.pages_of(site).to_vec();
        let mut parts = Vec::with_capacity(pages.len());
        let mut opt_cost = Vec::with_capacity(pages.len());
        let mut store = BTreeSet::new();
        let mut html_bytes = 0u64;
        for &pid in &pages {
            let page = sys.page(pid);
            let part = initial[pid.index()].clone();
            html_bytes += page.html_size.get();
            for (slot, &k) in page.compulsory.iter().enumerate() {
                if part.local_compulsory[slot] {
                    store.insert(k);
                }
            }
            for (slot, o) in page.optional.iter().enumerate() {
                if part.local_optional[slot] {
                    store.insert(o.object);
                }
            }
            opt_cost.push(OptionalCost::build(
                page.opt_req_factor,
                &params,
                page.optional.iter().enumerate().map(|(slot, o)| {
                    (o.prob, sys.object_size(o.object), part.local_optional[slot])
                }),
            ));
            parts.push(part);
        }
        RefSite {
            sys,
            site,
            params,
            alpha1: cost.alpha1,
            alpha2: cost.alpha2,
            pages,
            parts,
            opt_cost,
            store,
            html_bytes,
        }
    }

    // --- naive recomputation -------------------------------------------

    /// Rebuilds page `idx`'s stream totals from its partition row.
    fn streams(&self, idx: usize) -> Streams {
        let page = self.sys.page(self.pages[idx]);
        let part = &self.parts[idx];
        let mut s = Streams::all_local_base(page.html_size);
        for (slot, &k) in page.compulsory.iter().enumerate() {
            let size = self.sys.object_size(k).get();
            if part.local_compulsory[slot] {
                s.local_bytes += size;
            } else {
                s.remote_bytes += size;
                s.n_remote += 1;
            }
        }
        s
    }

    fn freq(&self, idx: usize) -> f64 {
        self.sys.page(self.pages[idx]).freq.get()
    }

    /// Eq. 8 LHS by full scan (page-index order, the dense constructor's
    /// summation order).
    fn load(&self) -> f64 {
        let mut load = 0.0;
        for (idx, &pid) in self.pages.iter().enumerate() {
            let page = self.sys.page(pid);
            let part = &self.parts[idx];
            let opt_local: f64 = page
                .optional
                .iter()
                .zip(&part.local_optional)
                .filter(|(_, &l)| l)
                .map(|(o, _)| o.prob)
                .sum();
            load += page.freq.get()
                * (1.0 + part.n_local_compulsory() as f64 + page.opt_req_factor * opt_local);
        }
        load
    }

    /// `P(S_i, R)` by full scan.
    fn repo_load(&self) -> f64 {
        let mut total = 0.0;
        for (idx, &pid) in self.pages.iter().enumerate() {
            let page = self.sys.page(pid);
            let part = &self.parts[idx];
            let remote_comp = (page.n_compulsory() - part.n_local_compulsory()) as f64;
            let opt_remote: f64 = page
                .optional
                .iter()
                .zip(&part.local_optional)
                .filter(|(_, &l)| !l)
                .map(|(o, _)| o.prob)
                .sum();
            total += page.freq.get() * (remote_comp + page.opt_req_factor * opt_remote);
        }
        total
    }

    fn capacity(&self) -> f64 {
        self.sys.site(self.site).capacity.get()
    }

    fn headroom(&self) -> f64 {
        (self.capacity() - self.load()).max(0.0)
    }

    /// Eq. 10 LHS: HTML plus the store's bytes, both exact.
    fn storage_used(&self) -> u64 {
        self.html_bytes
            + self
                .store
                .iter()
                .map(|&k| self.sys.object_size(k).get())
                .sum::<u64>()
    }

    fn storage_capacity(&self) -> u64 {
        self.sys.site(self.site).storage.get()
    }

    fn space_left(&self) -> u64 {
        self.storage_capacity().saturating_sub(self.storage_used())
    }

    /// Local-mark count by full scan.
    fn marks_on(&self, object: ObjectId) -> u32 {
        let mut marks = 0;
        for (idx, &pid) in self.pages.iter().enumerate() {
            let page = self.sys.page(pid);
            let part = &self.parts[idx];
            for (slot, &k) in page.compulsory.iter().enumerate() {
                if k == object && part.local_compulsory[slot] {
                    marks += 1;
                }
            }
            for (slot, o) in page.optional.iter().enumerate() {
                if o.object == object && part.local_optional[slot] {
                    marks += 1;
                }
            }
        }
        marks
    }

    /// Objective contribution of page `idx` — same expression as the dense
    /// `page_d`, over the rebuilt streams and the mirrored accumulator.
    fn page_d(&self, idx: usize) -> f64 {
        self.freq(idx)
            * (self.alpha1 * self.streams(idx).response(&self.params)
                + self.alpha2 * self.opt_cost[idx].time())
    }

    /// Objective increase if `object` were deallocated. The page/slot scan
    /// visits references in exactly the dense CSR order (page index
    /// ascending, compulsory slots before optional), so the floating-point
    /// accumulation rounds identically.
    fn delta_d_dealloc(&self, object: ObjectId) -> f64 {
        let size = self.sys.object_size(object);
        let mut delta = 0.0;
        for (idx, &pid) in self.pages.iter().enumerate() {
            let page = self.sys.page(pid);
            for (slot, &k) in page.compulsory.iter().enumerate() {
                if k == object && self.parts[idx].local_compulsory[slot] {
                    let s = self.streams(idx);
                    let before = s.response(&self.params);
                    let after = s.response_if_remote(size, &self.params);
                    delta += self.freq(idx) * self.alpha1 * (after - before);
                }
            }
        }
        for (idx, &pid) in self.pages.iter().enumerate() {
            let page = self.sys.page(pid);
            for (slot, o) in page.optional.iter().enumerate() {
                if o.object == object && self.parts[idx].local_optional[slot] {
                    delta += self.freq(idx)
                        * self.alpha2
                        * self.opt_cost[idx].delta_if_flipped(o.prob, size, false, &self.params);
                }
            }
        }
        delta
    }

    // --- mutation -------------------------------------------------------

    fn set_compulsory(&mut self, idx: usize, slot: usize, local: bool) {
        if self.parts[idx].local_compulsory[slot] == local {
            return;
        }
        if local {
            let object = self.sys.page(self.pages[idx]).compulsory[slot];
            assert!(self.store.contains(&object), "marking unstored {object}");
        }
        self.parts[idx].local_compulsory[slot] = local;
    }

    fn set_optional(&mut self, idx: usize, slot: usize, local: bool) {
        if self.parts[idx].local_optional[slot] == local {
            return;
        }
        let oref = self.sys.page(self.pages[idx]).optional[slot];
        if local {
            assert!(
                self.store.contains(&oref.object),
                "marking unstored optional"
            );
        }
        let size = self.sys.object_size(oref.object);
        self.opt_cost[idx].flip(oref.prob, size, local, &self.params);
        self.parts[idx].local_optional[slot] = local;
    }

    fn alloc(&mut self, object: ObjectId) {
        self.store.insert(object);
    }

    /// Flips every local mark on `object` remote and removes it from the
    /// store, returning the page indices whose compulsory row changed (one
    /// entry per flipped slot, like the dense version).
    fn dealloc(&mut self, object: ObjectId) -> Vec<usize> {
        let mut affected = Vec::new();
        for idx in 0..self.pages.len() {
            let n_comp = self.sys.page(self.pages[idx]).compulsory.len();
            for slot in 0..n_comp {
                if self.sys.page(self.pages[idx]).compulsory[slot] == object
                    && self.parts[idx].local_compulsory[slot]
                {
                    self.set_compulsory(idx, slot, false);
                    affected.push(idx);
                }
            }
        }
        for idx in 0..self.pages.len() {
            let n_opt = self.sys.page(self.pages[idx]).optional.len();
            for slot in 0..n_opt {
                if self.sys.page(self.pages[idx]).optional[slot].object == object
                    && self.parts[idx].local_optional[slot]
                {
                    self.set_optional(idx, slot, false);
                }
            }
        }
        self.store.remove(&object);
        affected
    }

    /// Removes stored objects without any local mark (full-store scan in
    /// ascending id order), returning the bytes freed.
    fn drop_orphans(&mut self) -> u64 {
        let orphans: Vec<ObjectId> = self
            .store
            .iter()
            .copied()
            .filter(|&k| self.marks_on(k) == 0)
            .collect();
        let mut freed = 0;
        for k in orphans {
            self.store.remove(&k);
            freed += self.sys.object_size(k).get();
        }
        freed
    }

    /// The post-deallocation page adjustment, mirroring the dense
    /// `repartition_page` decision-for-decision: stored objects re-balanced
    /// in decreasing size order against the pre-charged fixed-remote
    /// payload; the new row kept only if the page objective improves past
    /// the same 1e-12 threshold.
    fn repartition_page(&mut self, idx: usize) -> bool {
        let pid = self.pages[idx];
        let page = self.sys.page(pid);
        let p = self.params;

        let mut candidates: Vec<usize> = Vec::new();
        let mut fixed_remote_bytes = 0u64;
        for (slot, &k) in page.compulsory.iter().enumerate() {
            if self.store.contains(&k) {
                candidates.push(slot);
            } else {
                fixed_remote_bytes += self.sys.object_size(k).get();
            }
        }
        candidates.sort_by(|&a, &b| {
            let sa = self.sys.object_size(page.compulsory[a]);
            let sb = self.sys.object_size(page.compulsory[b]);
            sb.cmp(&sa).then(a.cmp(&b))
        });

        let mut local = p.local_ovhd + page.html_size.get() as f64 / p.local_rate;
        let mut remote = p.repo_ovhd + fixed_remote_bytes as f64 / p.repo_rate;
        let mut new_marks = vec![false; page.n_compulsory()];
        for &slot in &candidates {
            let size = self.sys.object_size(page.compulsory[slot]).get() as f64;
            let local_if = local + size / p.local_rate;
            let remote_if = remote + size / p.repo_rate;
            if remote_if < local_if {
                remote = remote_if;
            } else {
                local = local_if;
                new_marks[slot] = true;
            }
        }
        let new_opt: Vec<bool> = page
            .optional
            .iter()
            .map(|o| {
                self.store.contains(&o.object) && p.local_fetch_wins(self.sys.object_size(o.object))
            })
            .collect();

        let before = self.page_d(idx);
        let old_comp = self.parts[idx].local_compulsory.clone();
        let old_opt = self.parts[idx].local_optional.clone();
        for (slot, &mark) in new_marks.iter().enumerate() {
            self.set_compulsory(idx, slot, mark);
        }
        for (slot, &mark) in new_opt.iter().enumerate() {
            self.set_optional(idx, slot, mark);
        }
        let after = self.page_d(idx);
        if after < before - 1e-12 {
            true
        } else {
            for (slot, &mark) in old_comp.iter().enumerate() {
                self.set_compulsory(idx, slot, mark);
            }
            for (slot, &mark) in old_opt.iter().enumerate() {
                self.set_optional(idx, slot, mark);
            }
            false
        }
    }

    // --- restoration stages ---------------------------------------------

    /// Eq. 10 restoration — the storage greedy over the shared lazy heap.
    fn restore_storage(&mut self) {
        let capacity = self.storage_capacity();
        if self.storage_used() <= capacity {
            return;
        }
        self.drop_orphans();
        let entries: Vec<(f64, ObjectId)> = self
            .store
            .iter()
            .map(|&k| (self.dealloc_key(k), k))
            .collect();
        let mut heap: LazyMinHeap<ObjectId> = LazyMinHeap::from_entries(entries);
        while self.storage_used() > capacity {
            let Some(object) =
                heap.pop_current(|k| self.store.contains(&k), |k| self.dealloc_key(k))
            else {
                break;
            };
            let affected = self.dealloc(object);
            for idx in affected {
                self.repartition_page(idx);
            }
            self.drop_orphans();
        }
    }

    /// The paper's amortized-over-size deallocation key.
    fn dealloc_key(&self, object: ObjectId) -> f64 {
        self.delta_d_dealloc(object) / self.sys.object_size(object).get() as f64
    }

    /// Eq. 8 restoration — the capacity greedy over the shared lazy heap.
    fn restore_capacity(&mut self) {
        let capacity = self.capacity();
        if self.load() <= capacity + EPS {
            return;
        }
        let mut heap: LazyMinHeap<(u32, u32, SlotKind)> = LazyMinHeap::new();
        for idx in 0..self.pages.len() {
            let part = &self.parts[idx];
            for (slot, &local) in part.local_compulsory.iter().enumerate() {
                if local {
                    let cand = (idx as u32, slot as u32, SlotKind::Compulsory);
                    heap.push(self.move_ratio(cand), cand);
                }
            }
            for (slot, &local) in part.local_optional.iter().enumerate() {
                if local {
                    let cand = (idx as u32, slot as u32, SlotKind::Optional);
                    heap.push(self.move_ratio(cand), cand);
                }
            }
        }
        while self.load() > capacity + EPS {
            let Some(cand) = heap.pop_current(
                |(idx, slot, kind)| match kind {
                    SlotKind::Compulsory => {
                        self.parts[idx as usize].local_compulsory[slot as usize]
                    }
                    SlotKind::Optional => self.parts[idx as usize].local_optional[slot as usize],
                },
                |c| self.move_ratio(c),
            ) else {
                break;
            };
            let (idx, slot, kind) = cand;
            let (idx, slot) = (idx as usize, slot as usize);
            let object = match kind {
                SlotKind::Compulsory => {
                    let k = self.sys.page(self.pages[idx]).compulsory[slot];
                    self.set_compulsory(idx, slot, false);
                    k
                }
                SlotKind::Optional => {
                    let k = self.sys.page(self.pages[idx]).optional[slot].object;
                    self.set_optional(idx, slot, false);
                    k
                }
            };
            if self.marks_on(object) == 0 && self.store.contains(&object) {
                self.dealloc(object);
            }
        }
    }

    /// The capacity greedy key: objective damage per request/second freed
    /// (read-only model — no orphan refresh bonus).
    fn move_ratio(&self, (idx, slot, kind): (u32, u32, SlotKind)) -> f64 {
        let (idx, slot) = (idx as usize, slot as usize);
        let page = self.sys.page(self.pages[idx]);
        let freq = page.freq.get();
        match kind {
            SlotKind::Compulsory => {
                let size = self.sys.object_size(page.compulsory[slot]);
                let s = self.streams(idx);
                let before = s.response(&self.params);
                let after = s.response_if_remote(size, &self.params);
                let delta_d = freq * self.alpha1 * (after - before);
                delta_d / freq.max(f64::MIN_POSITIVE)
            }
            SlotKind::Optional => {
                let oref = page.optional[slot];
                let size = self.sys.object_size(oref.object);
                let delta_d = freq
                    * self.alpha2
                    * self.opt_cost[idx].delta_if_flipped(oref.prob, size, false, &self.params);
                let delta_load = freq * page.opt_req_factor * oref.prob;
                delta_d / delta_load.max(f64::MIN_POSITIVE)
            }
        }
    }

    // --- off-loading absorption -----------------------------------------

    /// The absorption greedy key (objective change per unit of workload
    /// gained).
    fn gain_ratio(&self, (idx, slot, kind): (u32, u32, SlotKind)) -> f64 {
        let (idx, slot) = (idx as usize, slot as usize);
        let page = self.sys.page(self.pages[idx]);
        let freq = page.freq.get();
        match kind {
            SlotKind::Compulsory => {
                let size = self.sys.object_size(page.compulsory[slot]);
                let s = self.streams(idx);
                let before = s.response(&self.params);
                let after = s.response_if_local(size, &self.params);
                freq * self.alpha1 * (after - before) / freq.max(f64::MIN_POSITIVE)
            }
            SlotKind::Optional => {
                let oref = page.optional[slot];
                let size = self.sys.object_size(oref.object);
                let delta_d = freq
                    * self.alpha2
                    * self.opt_cost[idx].delta_if_flipped(oref.prob, size, true, &self.params);
                let delta_load = freq * page.opt_req_factor * oref.prob;
                delta_d / delta_load.max(f64::MIN_POSITIVE)
            }
        }
    }

    /// One absorption pass, mirroring `absorb_workload`.
    fn absorb_workload(&mut self, amount: f64, allow_alloc: bool, max_swaps: usize) -> f64 {
        let mut absorbed = self.absorb_greedy(amount, allow_alloc);
        if absorbed + EPS < amount && max_swaps > 0 {
            let swaps = self.swap_for_workload(amount - absorbed, max_swaps);
            if swaps > 0 {
                absorbed += self.absorb_greedy(amount - absorbed, true);
            }
        }
        absorbed
    }

    /// The greedy re-marking core shared by both absorption phases. The
    /// dense version open-codes the lazy revalidation; its policy is the
    /// same as [`LazyMinHeap::pop_current`], which we use directly. Entries
    /// skipped by the capacity or storage gates are consumed permanently,
    /// exactly like the dense `continue`.
    fn absorb_greedy(&mut self, amount: f64, allow_alloc: bool) -> f64 {
        if amount <= EPS {
            return 0.0;
        }
        let mut heap: LazyMinHeap<(u32, u32, SlotKind)> = LazyMinHeap::new();
        for idx in 0..self.pages.len() {
            let part = &self.parts[idx];
            for (slot, &local) in part.local_compulsory.iter().enumerate() {
                if !local {
                    let cand = (idx as u32, slot as u32, SlotKind::Compulsory);
                    heap.push(self.gain_ratio(cand), cand);
                }
            }
            for (slot, &local) in part.local_optional.iter().enumerate() {
                if !local {
                    let cand = (idx as u32, slot as u32, SlotKind::Optional);
                    heap.push(self.gain_ratio(cand), cand);
                }
            }
        }
        let mut absorbed = 0.0;
        let capacity = self.capacity();
        while absorbed + EPS < amount {
            let Some((idx, slot, kind)) = heap.pop_current(|_| true, |c| self.gain_ratio(c)) else {
                break;
            };
            let (idx, slot) = (idx as usize, slot as usize);
            let page = self.sys.page(self.pages[idx]);
            let (object, gain) = match kind {
                SlotKind::Compulsory => (page.compulsory[slot], page.freq.get()),
                SlotKind::Optional => {
                    let o = page.optional[slot];
                    (o.object, page.freq.get() * page.opt_req_factor * o.prob)
                }
            };
            if self.load() + gain > capacity + EPS {
                continue;
            }
            if !self.store.contains(&object) {
                let size = self.sys.object_size(object).get();
                if !(allow_alloc && self.space_left() >= size) {
                    continue;
                }
                self.alloc(object);
            }
            match kind {
                SlotKind::Compulsory => self.set_compulsory(idx, slot, true),
                SlotKind::Optional => self.set_optional(idx, slot, true),
            }
            absorbed += gain;
        }
        absorbed
    }

    /// Workload the site would gain by serving every remote reference of
    /// `object` locally.
    fn potential_workload(&self, object: ObjectId) -> f64 {
        let mut total = 0.0;
        for (idx, &pid) in self.pages.iter().enumerate() {
            let page = self.sys.page(pid);
            for (slot, &k) in page.compulsory.iter().enumerate() {
                if k == object && !self.parts[idx].local_compulsory[slot] {
                    total += page.freq.get();
                }
            }
        }
        for (idx, &pid) in self.pages.iter().enumerate() {
            let page = self.sys.page(pid);
            for (slot, o) in page.optional.iter().enumerate() {
                if o.object == object && !self.parts[idx].local_optional[slot] {
                    total += page.freq.get() * page.opt_req_factor * o.prob;
                }
            }
        }
        total
    }

    /// Workload currently held by `object`'s local marks.
    fn held_workload(&self, object: ObjectId) -> f64 {
        let mut total = 0.0;
        for (idx, &pid) in self.pages.iter().enumerate() {
            let page = self.sys.page(pid);
            for (slot, &k) in page.compulsory.iter().enumerate() {
                if k == object && self.parts[idx].local_compulsory[slot] {
                    total += page.freq.get();
                }
            }
        }
        for (idx, &pid) in self.pages.iter().enumerate() {
            let page = self.sys.page(pid);
            for (slot, o) in page.optional.iter().enumerate() {
                if o.object == object && self.parts[idx].local_optional[slot] {
                    total += page.freq.get() * page.opt_req_factor * o.prob;
                }
            }
        }
        total
    }

    /// Marks every remote reference of `object` local, capacity permitting.
    fn mark_all_refs_local(&mut self, object: ObjectId) {
        let capacity = self.capacity();
        for idx in 0..self.pages.len() {
            let n_comp = self.sys.page(self.pages[idx]).compulsory.len();
            for slot in 0..n_comp {
                if self.sys.page(self.pages[idx]).compulsory[slot] == object
                    && !self.parts[idx].local_compulsory[slot]
                {
                    let gain = self.freq(idx);
                    if self.load() + gain <= capacity + EPS {
                        self.set_compulsory(idx, slot, true);
                    }
                }
            }
        }
        for idx in 0..self.pages.len() {
            let n_opt = self.sys.page(self.pages[idx]).optional.len();
            for slot in 0..n_opt {
                let page = self.sys.page(self.pages[idx]);
                let oref = page.optional[slot];
                if oref.object == object && !self.parts[idx].local_optional[slot] {
                    let gain = page.freq.get() * page.opt_req_factor * oref.prob;
                    if self.load() + gain <= capacity + EPS {
                        self.set_optional(idx, slot, true);
                    }
                }
            }
        }
    }

    /// The paper's last-ditch swap step, mirroring `swap_for_workload`.
    fn swap_for_workload(&mut self, needed: f64, max_swaps: usize) -> usize {
        let mut candidates: Vec<(ObjectId, f64, u64)> = Vec::new();
        let mut seen: HashSet<ObjectId> = HashSet::new();
        for (idx, &pid) in self.pages.iter().enumerate() {
            let page = self.sys.page(pid);
            for (slot, &k) in page.compulsory.iter().enumerate() {
                if !self.parts[idx].local_compulsory[slot]
                    && !self.store.contains(&k)
                    && seen.insert(k)
                {
                    candidates.push((k, self.potential_workload(k), self.sys.object_size(k).get()));
                }
            }
            for (slot, o) in page.optional.iter().enumerate() {
                if !self.parts[idx].local_optional[slot]
                    && !self.store.contains(&o.object)
                    && seen.insert(o.object)
                {
                    candidates.push((
                        o.object,
                        self.potential_workload(o.object),
                        self.sys.object_size(o.object).get(),
                    ));
                }
            }
        }
        candidates.sort_by(|a, b| {
            let ra = a.1 / a.2.max(1) as f64;
            let rb = b.1 / b.2.max(1) as f64;
            rb.total_cmp(&ra).then(a.0.cmp(&b.0))
        });

        let mut swaps = 0;
        let mut still_needed = needed;
        for (obj, gain, size) in candidates {
            if swaps >= max_swaps || still_needed <= EPS {
                break;
            }
            if gain <= EPS {
                break;
            }
            let mut stored: Vec<(ObjectId, f64, u64)> = self
                .store
                .iter()
                .map(|&k| (k, self.held_workload(k), self.sys.object_size(k).get()))
                .collect();
            stored.sort_by(|a, b| {
                let ra = a.1 / a.2.max(1) as f64;
                let rb = b.1 / b.2.max(1) as f64;
                ra.total_cmp(&rb).then(a.0.cmp(&b.0))
            });
            let mut to_evict = Vec::new();
            let mut freed = self.space_left();
            let mut evicted_value = 0.0;
            for &(k, held, ksize) in &stored {
                if freed >= size {
                    break;
                }
                to_evict.push(k);
                freed += ksize;
                evicted_value += held;
            }
            if freed < size || evicted_value + EPS >= gain {
                continue;
            }
            if self.load() > self.capacity() + EPS {
                continue;
            }
            for k in to_evict {
                self.dealloc(k);
            }
            self.alloc(obj);
            self.mark_all_refs_local(obj);
            still_needed -= gain - evicted_value;
            swaps += 1;
        }
        swaps
    }
}

/// The objective weights the reference shares with the dense planner.
#[derive(Clone, Copy)]
struct CostWeights {
    alpha1: f64,
    alpha2: f64,
}

// ---------------------------------------------------------------------------
// Reference pipeline
// ---------------------------------------------------------------------------

/// Stage 1, reimplemented: the greedy `PARTITION(W_j)` in decreasing size
/// order, with the pseudocode's pre-charged `Ovhd(R, S_i)`.
fn ref_partition_page(sys: &System, pid: PageId) -> PagePartition {
    let page = sys.page(pid);
    let p = SiteParams::of(sys.site(page.site));
    let mut order: Vec<(u64, u32)> = page
        .compulsory
        .iter()
        .enumerate()
        .map(|(slot, &k)| (sys.object_size(k).get(), slot as u32))
        .collect();
    order.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let mut local = p.local_ovhd + page.html_size.get() as f64 / p.local_rate;
    let mut remote = p.repo_ovhd;
    let mut local_compulsory = vec![false; page.n_compulsory()];
    for &(size, slot) in &order {
        let size = size as f64;
        let local_if = local + size / p.local_rate;
        let remote_if = remote + size / p.repo_rate;
        if remote_if < local_if {
            remote = remote_if;
        } else {
            local = local_if;
            local_compulsory[slot as usize] = true;
        }
    }
    let local_optional = page
        .optional
        .iter()
        .map(|o| p.local_fetch_wins(sys.object_size(o.object)))
        .collect();
    PagePartition {
        local_compulsory,
        local_optional,
    }
}

/// Stage 4, as a plain sequential loop. The planner's reliable-bus
/// negotiation reduces to this because the bus is FIFO with uniform
/// latency: all of a round's offers are delivered (and absorbed) in
/// assignment order before any counter, and each counter carries the
/// status of its own site only, so refreshing each status right after
/// its absorption is equivalent.
fn ref_offload(refs: &mut [RefSite<'_>], repo_capacity: f64, config: &OffloadConfig) {
    #[derive(Clone, Copy)]
    struct Status {
        space: u64,
        headroom: f64,
        repo_load: f64,
    }
    let status = |r: &RefSite<'_>| Status {
        space: r.space_left(),
        headroom: r.headroom(),
        repo_load: r.repo_load(),
    };
    let mut statuses: Vec<Status> = refs.iter().map(status).collect();
    let mut demoted = vec![false; refs.len()];
    let mut rounds = 0;

    loop {
        let p_r: f64 = statuses.iter().map(|s| s.repo_load).sum();
        if p_r <= repo_capacity + EPS || rounds >= mmrepl_core::offload::MAX_ROUNDS {
            break;
        }
        let l1: Vec<usize> = (0..refs.len())
            .filter(|&i| !demoted[i] && statuses[i].space > 0 && statuses[i].headroom > EPS)
            .collect();
        let l2: Vec<usize> = (0..refs.len())
            .filter(|&i| !demoted[i] && statuses[i].space == 0 && statuses[i].headroom > EPS)
            .collect();
        if l1.is_empty() && l2.is_empty() {
            break;
        }
        let excess = p_r - repo_capacity;
        let p_l1: f64 = l1.iter().map(|&i| statuses[i].headroom).sum();
        let p_l2: f64 = l2.iter().map(|&i| statuses[i].headroom).sum();

        let split = |class: &[usize], statuses: &[Status], total: f64, class_headroom: f64| {
            use mmrepl_core::AssignmentRule;
            match config.assignment {
                AssignmentRule::ProportionalToHeadroom => class
                    .iter()
                    .map(|&i| statuses[i].headroom * total / class_headroom)
                    .collect::<Vec<f64>>(),
                AssignmentRule::EqualSplit => {
                    let share = total / class.len() as f64;
                    class
                        .iter()
                        .map(|&i| share.min(statuses[i].headroom))
                        .collect()
                }
            }
        };
        let mut assignments: Vec<(usize, f64, bool)> = Vec::new();
        if excess <= p_l1 {
            for (&i, amt) in l1.iter().zip(split(&l1, &statuses, excess, p_l1)) {
                assignments.push((i, amt, true));
            }
        } else {
            for &i in &l1 {
                assignments.push((i, statuses[i].headroom, true));
            }
            if p_l2 > EPS {
                let remainder = excess - p_l1;
                for (&i, amt) in l2.iter().zip(split(&l2, &statuses, remainder, p_l2)) {
                    assignments.push((i, amt, false));
                }
            }
        }

        let mut round_absorbed = 0.0;
        for &(i, amount, allow_alloc) in &assignments {
            let cfg_swaps = if allow_alloc {
                0
            } else {
                mmrepl_core::offload::MAX_SWAPS
            };
            let absorbed = refs[i].absorb_workload(amount, allow_alloc, cfg_swaps);
            statuses[i] = status(&refs[i]);
            if absorbed + EPS < amount {
                demoted[i] = true;
            }
            round_absorbed += absorbed;
        }
        rounds += 1;
        if round_absorbed <= EPS {
            break;
        }
    }
}

/// Runs the whole pipeline through the naive reference state and returns
/// the final placement. Must agree exactly with
/// [`ReplicationPolicy::plan`] under the same configuration — the first
/// differential oracle.
///
/// # Panics
/// Panics if `config.include_update_load` is set: the reference models the
/// paper's read-only system (the update-accounting paths have their own
/// unit tests in `mmrepl-core`).
pub fn reference_plan(system: &System, config: &PlannerConfig) -> Placement {
    assert!(
        !config.include_update_load,
        "the naive reference models the read-only system"
    );
    let initial: Vec<PagePartition> = system
        .pages()
        .ids()
        .map(|pid| ref_partition_page(system, pid))
        .collect();
    let weights = CostWeights {
        alpha1: config.cost.alpha1,
        alpha2: config.cost.alpha2,
    };
    let mut refs: Vec<RefSite<'_>> = system
        .sites()
        .ids()
        .map(|s| RefSite::new(system, s, &initial, weights))
        .collect();
    for r in refs.iter_mut() {
        r.restore_storage();
        r.restore_capacity();
    }
    ref_offload(
        &mut refs,
        system.repository().capacity.get(),
        &config.offload,
    );

    let mut rows: Vec<Option<PagePartition>> = vec![None; system.n_pages()];
    for r in refs {
        for (idx, pid) in r.pages.iter().enumerate() {
            rows[pid.index()] = Some(r.parts[idx].clone());
        }
    }
    let partitions: IdVec<PageId, PagePartition> = rows
        .into_iter()
        .map(|r| r.expect("every page belongs to exactly one site"))
        .collect();
    Placement::new(system, partitions).expect("reference shapes are consistent")
}

// ---------------------------------------------------------------------------
// Seeded oracle cases
// ---------------------------------------------------------------------------

/// SplitMix64 — derives independent per-seed parameters.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform draw in `[0, 1)` from a mixed word.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The fuzzed system for oracles 1 and 2: a seeded small workload
/// squeezed by seed-derived storage, processing and repository fractions,
/// so the fuzz corpus exercises every restoration stage (including
/// infeasible points).
/// The repository gets 10-40 % of the all-remote load: after the local
/// restorations most seeds still overload it, so most plans negotiate.
fn fuzzed_system(seed: u64) -> System {
    let sys = generate_system(&WorkloadParams::small(), seed).expect("small params are valid");
    let storage = 0.3 + 0.9 * unit(splitmix64(seed ^ 0x5704_AA6E));
    let processing = 0.5 + 1.0 * unit(splitmix64(seed ^ 0xCAFA_C117));
    let central = 0.1 + 0.3 * unit(splitmix64(seed ^ 0x0C3A_7EA1));
    sys.with_storage_fraction(storage)
        .with_processing_fraction(processing)
        .with_central_fraction(central)
}

/// Oracle 1: the dense planner and the naive reference must produce
/// byte-identical placements on a seeded constrained system.
pub fn oracle_dense_vs_reference(seed: u64) -> Result<(), String> {
    let sys = fuzzed_system(seed);
    check_dense_vs_reference(&sys).map_err(|e| format!("seed {seed}: {e}"))
}

/// The system-level check behind oracle 1, reusable by the minimizer.
pub fn check_dense_vs_reference(sys: &System) -> Result<(), String> {
    let config = PlannerConfig::default();
    let dense = ReplicationPolicy::with_config(config).plan(sys).placement;
    let reference = reference_plan(sys, &config);
    if dense == reference {
        return Ok(());
    }
    let mut diffs = 0;
    let mut first = None;
    for (pid, part) in dense.iter() {
        if part != reference.partition(pid) {
            diffs += 1;
            first.get_or_insert(pid);
        }
    }
    let pid = first.expect("unequal placements must differ on some page");
    Err(format!(
        "dense and reference placements diverge on {diffs} of {} pages; first at {pid} \
         (site {}): dense {:?} vs reference {:?}",
        sys.n_pages(),
        sys.page(pid).site,
        dense.partition(pid),
        reference.partition(pid),
    ))
}

/// Oracle 2: the online replanner with every site dirty and an unlimited
/// churn budget must land exactly on the cold plan of the drifted system.
/// The base is oracle 1's fuzzed system, squeezed in storage, processing
/// and repository, so the delta replan runs every stage, off-loading
/// included.
pub fn oracle_delta_vs_cold(seed: u64) -> Result<(), String> {
    let rotation = 0.1 + 0.8 * unit(splitmix64(seed ^ 0x0207A7E));
    let base = fuzzed_system(seed);
    let est = DriftModel::new(rotation).apply(&base, seed ^ 0xD1F7);

    let mut planner = DeltaPlanner::new(&base, ReplicationPolicy::new());
    let all_sites: Vec<SiteId> = base.sites().ids().collect();
    let outcome = planner.replan(&est, &all_sites, ChurnBudget::unlimited());
    if outcome.report.pages_deferred != 0 || outcome.report.bytes_deferred != 0 {
        return Err(format!(
            "seed {seed}: unlimited budget deferred work ({} pages, {} bytes)",
            outcome.report.pages_deferred, outcome.report.bytes_deferred
        ));
    }
    let cold = ReplicationPolicy::new().plan(&est).placement;
    if planner.live() != &cold {
        let diffs = planner.live().diff(&cold).pages_changed;
        return Err(format!(
            "seed {seed}: delta replan diverges from cold plan on {diffs} pages \
             (rotation {rotation:.3})"
        ));
    }
    Ok(())
}

/// Oracle 3: on an unconstrained system replaying a nominal trace, the
/// DES mean page response must equal the analytic Eq. 5 mean to within
/// float tolerance (queueing waits are zero, optional payloads are server
/// occupancy only).
pub fn oracle_des_vs_analytic(seed: u64) -> Result<(), String> {
    let params = WorkloadParams::small();
    let sys = generate_system(&params, seed)
        .expect("small params are valid")
        .unconstrained();
    let placement = ReplicationPolicy::new().plan(&sys).placement;
    let traces = generate_trace(&sys, &TraceConfig::nominal_from_params(&params), seed);

    let (des, _) =
        crate::des::des_replay(&sys, &traces, &mut StaticRouter::new(&placement, "oracle"));
    let cm = CostModel::with_defaults(&sys);
    let mut total = 0.0;
    let mut n = 0u64;
    for trace in &traces {
        for req in &trace.requests {
            total += cm
                .page_response(req.page, placement.partition(req.page))
                .get();
            n += 1;
        }
    }
    if n == 0 {
        return Err(format!("seed {seed}: empty trace"));
    }
    let analytic = total / n as f64;
    let measured = des.mean().map_or(0.0, |s| s.get());
    let rel = (measured - analytic).abs() / analytic.max(f64::MIN_POSITIVE);
    if rel > 1e-9 {
        return Err(format!(
            "seed {seed}: DES mean response {measured} vs Eq. 5 prediction {analytic} \
             (relative error {rel:.3e} over {n} requests)"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fuzz harness + minimizer
// ---------------------------------------------------------------------------

/// One oracle failure, with the minimized reproduction when available.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Which oracle failed.
    pub oracle: &'static str,
    /// The failing seed.
    pub seed: u64,
    /// The oracle's divergence description.
    pub detail: String,
    /// For the planner oracle: the divergence re-described on the
    /// minimized system.
    pub minimized: Option<String>,
}

/// Aggregate fuzz results.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Oracle cases run (three per seed).
    pub cases: u64,
    /// Cases that passed.
    pub passed: u64,
    /// The failures, in discovery order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Whether every case passed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs all three differential oracles over `count` consecutive seeds
/// starting at `start`. Planner-oracle failures are minimized before being
/// reported.
pub fn fuzz(start: u64, count: u64) -> FuzzReport {
    let mut report = FuzzReport::default();
    for seed in start..start.saturating_add(count) {
        let cases: [(&'static str, Result<(), String>); 3] = [
            ("dense-vs-reference", oracle_dense_vs_reference(seed)),
            ("delta-vs-cold", oracle_delta_vs_cold(seed)),
            ("des-vs-analytic", oracle_des_vs_analytic(seed)),
        ];
        for (oracle, result) in cases {
            report.cases += 1;
            match result {
                Ok(()) => report.passed += 1,
                Err(detail) => {
                    let minimized = (oracle == "dense-vs-reference").then(|| {
                        let (small, err) = minimize_counterexample(
                            &fuzzed_system(seed),
                            &check_dense_vs_reference,
                        );
                        format!(
                            "minimized to {} sites / {} pages / {} objects: {err}",
                            small.n_sites(),
                            small.n_pages(),
                            small.n_objects()
                        )
                    });
                    report.failures.push(FuzzFailure {
                        oracle,
                        seed,
                        detail,
                        minimized,
                    });
                }
            }
        }
    }
    report
}

/// Shrinks a system on which `check` fails: repeatedly drops whole sites
/// (with their pages), then single pages, keeping each removal that
/// preserves the failure, until a fixpoint. Returns the minimized system
/// and the failure description on it.
///
/// # Panics
/// Panics if `check` passes on `sys` — there is nothing to minimize.
pub fn minimize_counterexample(
    sys: &System,
    check: &dyn Fn(&System) -> Result<(), String>,
) -> (System, String) {
    let mut err = check(sys).expect_err("minimize_counterexample needs a failing system");
    let mut current = sys.clone();
    loop {
        let mut shrunk = false;
        // Drop whole sites first — the biggest steps.
        let mut site_idx = 0;
        while current.n_sites() > 1 && site_idx < current.n_sites() {
            let victim = current.sites().ids().nth(site_idx).expect("index in range");
            if let Some(candidate) = rebuild_without(&current, Some(victim), None) {
                if let Err(e) = check(&candidate) {
                    current = candidate;
                    err = e;
                    shrunk = true;
                    continue; // same index now names the next site
                }
            }
            site_idx += 1;
        }
        // Then single pages (keeping at least one per site).
        let mut page_idx = 0;
        while page_idx < current.n_pages() {
            let victim = current.pages().ids().nth(page_idx).expect("index in range");
            let site = current.page(victim).site;
            if current.pages_of(site).len() > 1 {
                if let Some(candidate) = rebuild_without(&current, None, Some(victim)) {
                    if let Err(e) = check(&candidate) {
                        current = candidate;
                        err = e;
                        shrunk = true;
                        continue;
                    }
                }
            }
            page_idx += 1;
        }
        if !shrunk {
            return (current, err);
        }
    }
}

/// Rebuilds `sys` without the given site (and its pages) or page,
/// remapping object ids over the surviving references and preserving the
/// repository capacity. Returns `None` if the shrunken system fails
/// builder validation.
fn rebuild_without(
    sys: &System,
    drop_site: Option<SiteId>,
    drop_page: Option<PageId>,
) -> Option<System> {
    let mut b = SystemBuilder::new();
    let mut site_map: Vec<Option<SiteId>> = vec![None; sys.n_sites()];
    for old in sys.sites().ids() {
        if Some(old) == drop_site {
            continue;
        }
        site_map[old.index()] = Some(b.add_site(sys.site(old).clone()));
    }
    let keep_page =
        |pid: PageId| -> bool { Some(pid) != drop_page && Some(sys.page(pid).site) != drop_site };
    // Objects referenced by surviving pages, remapped in ascending id order.
    let mut referenced: BTreeSet<ObjectId> = BTreeSet::new();
    for pid in sys.pages().ids().filter(|&p| keep_page(p)) {
        let page = sys.page(pid);
        referenced.extend(page.compulsory.iter().copied());
        referenced.extend(page.optional.iter().map(|o| o.object));
    }
    let mut obj_map: Vec<Option<ObjectId>> = vec![None; sys.n_objects()];
    for &old in &referenced {
        obj_map[old.index()] = Some(b.add_object(sys.object(old).clone()));
    }
    for pid in sys.pages().ids().filter(|&p| keep_page(p)) {
        let page = sys.page(pid);
        b.add_page(WebPage {
            site: site_map[page.site.index()].expect("kept page on kept site"),
            html_size: page.html_size,
            freq: page.freq,
            compulsory: page
                .compulsory
                .iter()
                .map(|&k| obj_map[k.index()].expect("referenced object kept"))
                .collect(),
            optional: page
                .optional
                .iter()
                .map(|o| mmrepl_model::OptionalRef {
                    object: obj_map[o.object.index()].expect("referenced object kept"),
                    prob: o.prob,
                })
                .collect(),
            opt_req_factor: page.opt_req_factor,
        });
    }
    b.repository_capacity(sys.repository().capacity);
    b.build().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_plan_matches_dense_on_probe_seeds() {
        for seed in 0..8 {
            oracle_dense_vs_reference(seed).unwrap();
        }
    }

    #[test]
    fn fuzz_corpus_exercises_offloading() {
        // Stage 4 is checked against an independent implementation only
        // here, so most fuzzed systems must actually negotiate.
        let offloading = (0..64)
            .filter(|&seed| {
                let plan = ReplicationPolicy::new().plan(&fuzzed_system(seed));
                plan.report.offload.rounds > 0
            })
            .count();
        assert!(
            offloading >= 32,
            "only {offloading} of 64 fuzzed systems ran an off-loading round"
        );
    }

    #[test]
    fn reference_plan_matches_dense_unconstrained() {
        // With no constraints both pipelines must reduce to the pure
        // greedy partition.
        let sys = generate_system(&WorkloadParams::small(), 42)
            .unwrap()
            .unconstrained();
        check_dense_vs_reference(&sys).unwrap();
        let reference = reference_plan(&sys, &PlannerConfig::default());
        assert_eq!(reference, mmrepl_core::partition_all(&sys));
    }

    #[test]
    fn delta_oracle_passes_on_probe_seeds() {
        for seed in 0..4 {
            oracle_delta_vs_cold(seed).unwrap();
        }
    }

    #[test]
    fn des_oracle_passes_on_probe_seeds() {
        for seed in 0..4 {
            oracle_des_vs_analytic(seed).unwrap();
        }
    }

    #[test]
    fn fuzz_smoke_is_clean() {
        let report = fuzz(0, 2);
        assert!(report.is_clean(), "failures: {:?}", report.failures);
        assert_eq!(report.cases, 6);
        assert_eq!(report.passed, 6);
    }

    #[test]
    fn minimizer_shrinks_a_synthetic_failure() {
        // A stand-in "bug": the check fails whenever the system still
        // contains an object at least as large as the original maximum.
        let sys = fuzzed_system(3);
        let threshold = sys
            .objects()
            .ids()
            .map(|k| sys.object_size(k).get())
            .max()
            .unwrap();
        let check = move |s: &System| -> Result<(), String> {
            let biggest = s
                .objects()
                .ids()
                .map(|k| s.object_size(k).get())
                .max()
                .unwrap_or(0);
            if biggest >= threshold {
                Err(format!("object of {biggest} bytes present"))
            } else {
                Ok(())
            }
        };
        let (small, err) = minimize_counterexample(&sys, &check);
        assert!(check(&small).is_err(), "minimized system must still fail");
        assert!(err.contains("bytes present"));
        assert_eq!(small.n_sites(), 1, "one site suffices for this failure");
        assert!(
            small.n_pages() < sys.n_pages(),
            "minimizer removed no pages: {} vs {}",
            small.n_pages(),
            sys.n_pages()
        );
        // Dropping any further page must lose the failure (1-minimality
        // over pages is what the fixpoint guarantees, given one page still
        // references the biggest object).
        assert!(small.n_pages() >= 1);
    }

    #[test]
    fn rebuild_without_preserves_repository_capacity() {
        let sys = fuzzed_system(5);
        let victim = sys.sites().ids().next().unwrap();
        let shrunk = rebuild_without(&sys, Some(victim), None).unwrap();
        assert_eq!(shrunk.n_sites(), sys.n_sites() - 1);
        assert_eq!(
            shrunk.repository().capacity.get(),
            sys.repository().capacity.get()
        );
        assert!(shrunk.n_pages() < sys.n_pages());
    }
}
