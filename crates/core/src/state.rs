//! Per-site mutable working state for the restoration algorithms.
//!
//! All three constraint-restoration stages repeatedly flip individual
//! `X`/`X'` marks and need O(1) answers to "what is the site's load now",
//! "how many bytes are stored", "what does the objective lose if this
//! object goes". [`SiteWork`] owns one site's slice of the placement plus
//! every derived quantity, updates them incrementally on each flip, and can
//! cross-check itself against a from-scratch recomputation (used heavily in
//! property tests).
//!
//! ## Layout
//!
//! Everything is indexed in a *site-local* dense object space: the objects
//! this site's pages reference, in ascending id order. Membership lives in
//! a flat [`DenseBits`] word bitset, slot→object resolution in CSR-style
//! arenas built once at construction (forward: page slot → local index,
//! size, fetch-win, serving load; reverse: local index → `(page, slot)`
//! references).
//!
//! The build assigns local indices without sorting the reference list: it
//! marks every referenced id in a transient bitset over the object
//! universe, whose set bits in order are the local objects, and resolves
//! each slot's local index as the rank of its id ([`DenseBits::rank`],
//! O(1) through a per-word popcount prefix). That bitset and its ranks are
//! dropped before the constructor returns: nothing sized by the global
//! object universe outlives construction, and nothing in the hot
//! flip/dealloc/repartition loops looks at it. That is what lets a
//! thousand `SiteWork`s coexist at 100x scale without blowing caches or
//! memory.
//!
//! The restoration loops work on local indices throughout (the storage
//! heap, capacity moves, deallocations); the `ObjectId`-keyed public
//! methods are thin wrappers that resolve the id by binary search first.
//!
//! Invariant maintained throughout: **a mark can be local only if its
//! object is in the site's store**, and the store is exactly the set of
//! objects with at least one local mark (plus objects explicitly allocated
//! during off-loading that are about to gain one).
//!
//! A second per-page count rides on it: `stored_remote[idx]` is the
//! number of page `idx`'s compulsory slots whose object is stored but
//! marked remote. A slot enters the count when its mark flips remote
//! (its object is stored, by the invariant) or when its object is
//! allocated (every slot of an unstored object is remote), and leaves it
//! when its mark flips local or its object leaves the store. At zero, the
//! page's remote stream is exactly its unstored objects, which is what
//! lets [`SiteWork::repartition_page`] prove a call a no-op without
//! running the greedy (see [`crate::storage`]). The auditor recounts it
//! from scratch.

use crate::bits::DenseBits;
use crate::streams::{OptionalCost, SiteParams, Streams};
use mmrepl_model::{Bytes, CostParams, ObjectId, PageId, PagePartition, Placement, SiteId, System};

/// Which half of a page's reference list a mark lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SlotKind {
    /// A compulsory reference (`U` / `X`).
    Compulsory,
    /// An optional reference (`U'` / `X'`).
    Optional,
}

/// One site's mutable planning state.
pub struct SiteWork<'a> {
    sys: &'a System,
    site: SiteId,
    params: SiteParams,
    alpha1: f64,
    alpha2: f64,
    /// Local pages, in id order; all per-page vectors index parallel to it.
    pages: Vec<PageId>,
    freq: Vec<f64>,
    streams: Vec<Streams>,
    opt_cost: Vec<OptionalCost>,
    parts: Vec<PagePartition>,
    /// The objects this site's pages reference, ascending by id. Position
    /// in this vector is the *local index* every dense structure below
    /// shares; `local_of` resolves a global id by binary search.
    local_objects: Vec<ObjectId>,
    /// Store membership, one bit per local index.
    store: DenseBits,
    /// Stored objects *not* referenced by any local page (possible only
    /// through an explicit markless [`SiteWork::alloc`]); sorted ascending.
    /// Empty throughout the planning pipeline, so the hot paths never
    /// touch it.
    foreign: Vec<ObjectId>,
    stored_bytes: u64,
    html_bytes: u64,
    load: f64,
    /// Whether update-propagation load is accounted (read/write
    /// extension; the paper's read-only model leaves this off).
    count_updates: bool,
    /// Refresh load of the current store: `Σ_{k stored} u_k` (zero when
    /// `count_updates` is off).
    update_load: f64,
    /// Local-mark count per local object (orphan detection).
    mark_count: Vec<u32>,
    /// CSR reverse index: compulsory `(page_idx, slot)` references of local
    /// object `o` live at `comp_dat[comp_off[o] .. comp_off[o + 1]]`, in
    /// (page idx, slot) ascending order.
    comp_off: Vec<u32>,
    comp_dat: Vec<(u32, u32)>,
    /// CSR reverse index for optional references, same layout.
    opt_off: Vec<u32>,
    opt_dat: Vec<(u32, u32)>,
    /// Forward arena offsets: page `idx`'s compulsory slots occupy
    /// `comp_slot_off[idx] .. comp_slot_off[idx + 1]` in the `comp_slot_*`
    /// arenas below (slot order preserved).
    comp_slot_off: Vec<u32>,
    /// Local object index per compulsory slot.
    comp_slot_lobj: Vec<u32>,
    /// Object size per compulsory slot (no global table walk on flips).
    comp_slot_size: Vec<Bytes>,
    /// Per page, its compulsory *arena positions* ordered by
    /// (size desc, slot asc) — the repartition greedy's visit order,
    /// computed once instead of sorted on every call.
    comp_slot_ord: Vec<u32>,
    /// Per page, its compulsory slots whose object is stored but marked
    /// remote (see the layout notes above).
    stored_remote: Vec<u32>,
    /// [`SiteWork::repartition_page`] calls the no-op precheck answered
    /// without running the greedy.
    repartition_skipped: u64,
    /// Forward arena offsets for optional slots, like `comp_slot_off`.
    opt_slot_off: Vec<u32>,
    /// Local object index per optional slot.
    opt_slot_lobj: Vec<u32>,
    /// Object size per optional slot.
    opt_slot_size: Vec<Bytes>,
    /// Access probability per optional slot.
    opt_slot_prob: Vec<f64>,
    /// Serving load of the optional slot when local:
    /// `freq · opt_req_factor · prob`, precomputed.
    opt_slot_load: Vec<f64>,
    /// Whether a standalone local fetch beats the repository pipe for the
    /// slot's object (repartitioning's optional rule), precomputed against
    /// this site's (possibly ancestor-constrained) `SiteParams`.
    opt_slot_wins: Vec<bool>,
    /// Local objects whose mark count touched zero since the last
    /// [`SiteWork::drop_orphans`] (plus markless allocs); entries may be
    /// stale (re-marked since) and are re-checked on drain.
    zero_marks: Vec<ObjectId>,
    /// Reusable scratch for [`SiteWork::dealloc`]'s ref walk (the flips
    /// need `&mut self` while the CSR slice borrows `&self`).
    scratch_refs: Vec<(u32, u32)>,
    /// Reusable scratch for [`SiteWork::repartition_page`]: the greedy's
    /// compulsory marks, then the compulsory and optional slots whose
    /// candidate mark differs from the current one (slot order).
    scratch_marks: Vec<bool>,
    scratch_comp_flips: Vec<u32>,
    scratch_opt_flips: Vec<u32>,
}

impl<'a> SiteWork<'a> {
    /// Builds working state for `site` from an initial placement, adopting
    /// its marks. The store becomes exactly the locally-marked object set.
    /// Update-propagation load is not accounted (the paper's model).
    pub fn new(sys: &'a System, site: SiteId, placement: &Placement, cost: CostParams) -> Self {
        Self::with_update_accounting(sys, site, placement, cost, false)
    }

    /// Like [`SiteWork::new`], optionally charging each stored object's
    /// update rate against the site's processing capacity (the read/write
    /// extension).
    pub fn with_update_accounting(
        sys: &'a System,
        site: SiteId,
        placement: &Placement,
        cost: CostParams,
        count_updates: bool,
    ) -> Self {
        let params = SiteParams::of(sys.site(site));
        Self::with_params(sys, site, placement, cost, count_updates, params)
    }

    /// Like [`SiteWork::with_update_accounting`] but against explicit site
    /// estimates. The federated-tree planner passes the effective channel
    /// of the site's serving ancestor; every derived quantity (streams,
    /// optional costs, repartitioning) then prices the remote pipe over
    /// the constrained path. With `SiteParams::of(sys.site(site))` this is
    /// exactly the classic constructor.
    pub fn with_params(
        sys: &'a System,
        site: SiteId,
        placement: &Placement,
        cost: CostParams,
        count_updates: bool,
        params: SiteParams,
    ) -> Self {
        let pages: Vec<PageId> = sys.pages_of(site).to_vec();

        // Pass A — the site-local dense object index: every object some
        // local page references, ascending by id. The referenced ids are
        // marked in a transient bitset over the id space; its set bits in
        // order are the local objects, and a slot's local index is the
        // rank of its id. The bitset and its ranks die with this call.
        let mut referenced = DenseBits::zeros(sys.n_objects());
        let mut n_comp_slots = 0usize;
        let mut n_opt_slots = 0usize;
        for &pid in &pages {
            let page = sys.page(pid);
            n_comp_slots += page.compulsory.len();
            n_opt_slots += page.optional.len();
            for &k in &page.compulsory {
                referenced.set(k.index());
            }
            for r in &page.optional {
                referenced.set(r.object.index());
            }
        }
        let ranks = referenced.word_ranks();
        let local_index = |k: ObjectId| referenced.rank(&ranks, k.index()) as u32;
        let n_local = referenced.count_ones();
        let mut local_objects: Vec<ObjectId> = Vec::with_capacity(n_local);
        local_objects.extend(referenced.iter_ones().map(|i| ObjectId::new(i as u32)));

        // Pass B — forward arenas (slot → local index, size, probability,
        // fetch pricing) and reverse-CSR counts.
        let mut comp_slot_off = Vec::with_capacity(pages.len() + 1);
        let mut opt_slot_off = Vec::with_capacity(pages.len() + 1);
        let mut comp_slot_lobj = Vec::with_capacity(n_comp_slots);
        let mut comp_slot_size = Vec::with_capacity(n_comp_slots);
        let mut opt_slot_lobj = Vec::with_capacity(n_opt_slots);
        let mut opt_slot_size = Vec::with_capacity(n_opt_slots);
        let mut opt_slot_prob = Vec::with_capacity(n_opt_slots);
        let mut opt_slot_load = Vec::with_capacity(n_opt_slots);
        let mut opt_slot_wins = Vec::with_capacity(n_opt_slots);
        let mut comp_off = vec![0u32; n_local + 1];
        let mut opt_off = vec![0u32; n_local + 1];
        comp_slot_off.push(0u32);
        opt_slot_off.push(0u32);
        for &pid in &pages {
            let page = sys.page(pid);
            let f = page.freq.get();
            for &k in &page.compulsory {
                let o = local_index(k);
                comp_slot_lobj.push(o);
                comp_slot_size.push(sys.object_size(k));
                comp_off[o as usize + 1] += 1;
            }
            for r in &page.optional {
                let o = local_index(r.object);
                let size = sys.object_size(r.object);
                opt_slot_lobj.push(o);
                opt_slot_size.push(size);
                opt_slot_prob.push(r.prob);
                opt_slot_load.push(f * page.opt_req_factor * r.prob);
                opt_slot_wins.push(params.local_fetch_wins(size));
                opt_off[o as usize + 1] += 1;
            }
            comp_slot_off.push(comp_slot_lobj.len() as u32);
            opt_slot_off.push(opt_slot_lobj.len() as u32);
        }
        for i in 1..=n_local {
            comp_off[i] += comp_off[i - 1];
            opt_off[i] += opt_off[i - 1];
        }

        // Reverse CSR fill through cursors; (page idx, slot) ascending
        // order reproduces the reference order the restoration algorithms
        // were tuned against.
        let mut comp_cur = comp_off.clone();
        let mut opt_cur = opt_off.clone();
        let mut comp_dat = vec![(0u32, 0u32); n_comp_slots];
        let mut opt_dat = vec![(0u32, 0u32); n_opt_slots];
        for idx in 0..pages.len() {
            let base = comp_slot_off[idx];
            for s in base..comp_slot_off[idx + 1] {
                let o = comp_slot_lobj[s as usize] as usize;
                comp_dat[comp_cur[o] as usize] = (idx as u32, s - base);
                comp_cur[o] += 1;
            }
            let obase = opt_slot_off[idx];
            for s in obase..opt_slot_off[idx + 1] {
                let o = opt_slot_lobj[s as usize] as usize;
                opt_dat[opt_cur[o] as usize] = (idx as u32, s - obase);
                opt_cur[o] += 1;
            }
        }

        // Per-page repartition visit order: (size desc, slot asc). Arena
        // positions are slot-ascending within a page, so position order is
        // slot order, and the packed key `!size << 32 | position` sorts in
        // exactly that order (keys are distinct, so unstable is stable).
        let mut ord_keys: Vec<u128> = comp_slot_size
            .iter()
            .enumerate()
            .map(|(pos, size)| (u128::from(!size.get()) << 32) | pos as u128)
            .collect();
        for idx in 0..pages.len() {
            ord_keys[comp_slot_off[idx] as usize..comp_slot_off[idx + 1] as usize].sort_unstable();
        }
        let comp_slot_ord: Vec<u32> = ord_keys.into_iter().map(|key| key as u32).collect();

        // Pass C — adopt the placement's marks into streams, load, store
        // bits and mark counts.
        let mut freq = Vec::with_capacity(pages.len());
        let mut streams = Vec::with_capacity(pages.len());
        let mut opt_cost = Vec::with_capacity(pages.len());
        let mut parts = Vec::with_capacity(pages.len());
        let mut store = DenseBits::zeros(n_local);
        let mut stored_bytes = 0u64;
        let mut html_bytes = 0u64;
        let mut load = 0.0;
        let mut mark_count = vec![0u32; n_local];

        for (idx, &pid) in pages.iter().enumerate() {
            let page = sys.page(pid);
            let part = placement.partition(pid).clone();
            let f = page.freq.get();
            html_bytes += page.html_size.get();
            let base = comp_slot_off[idx] as usize;
            let obase = opt_slot_off[idx] as usize;

            let mut s = Streams::all_local_base(page.html_size);
            for slot in 0..page.n_compulsory() {
                let o = comp_slot_lobj[base + slot] as usize;
                let size = comp_slot_size[base + slot];
                if part.local_compulsory[slot] {
                    s.local_bytes += size.get();
                    if store.set(o) {
                        stored_bytes += size.get();
                    }
                    mark_count[o] += 1;
                } else {
                    s.remote_bytes += size.get();
                    s.n_remote += 1;
                }
            }
            let oc = OptionalCost::build(
                page.opt_req_factor,
                &params,
                (0..page.optional.len()).map(|slot| {
                    (
                        opt_slot_prob[obase + slot],
                        opt_slot_size[obase + slot],
                        part.local_optional[slot],
                    )
                }),
            );
            for slot in 0..page.optional.len() {
                let o = opt_slot_lobj[obase + slot] as usize;
                if part.local_optional[slot] {
                    if store.set(o) {
                        stored_bytes += opt_slot_size[obase + slot].get();
                    }
                    mark_count[o] += 1;
                }
            }

            let opt_local: f64 = (0..page.optional.len())
                .filter(|&slot| part.local_optional[slot])
                .map(|slot| opt_slot_prob[obase + slot])
                .sum();
            load += f * (1.0 + part.n_local_compulsory() as f64 + page.opt_req_factor * opt_local);

            freq.push(f);
            streams.push(s);
            opt_cost.push(oc);
            parts.push(part);
        }

        let stored_remote: Vec<u32> = (0..pages.len())
            .map(|idx| {
                let base = comp_slot_off[idx] as usize;
                let marks = &parts[idx].local_compulsory;
                (base..comp_slot_off[idx + 1] as usize)
                    .filter(|&s| !marks[s - base] && store.get(comp_slot_lobj[s] as usize))
                    .count() as u32
            })
            .collect();

        let update_load = if count_updates {
            store
                .iter_ones()
                .map(|o| sys.object(local_objects[o]).update_rate)
                .sum()
        } else {
            0.0
        };

        SiteWork {
            sys,
            site,
            params,
            alpha1: cost.alpha1,
            alpha2: cost.alpha2,
            pages,
            freq,
            streams,
            opt_cost,
            parts,
            local_objects,
            store,
            foreign: Vec::new(),
            stored_bytes,
            html_bytes,
            load,
            count_updates,
            update_load,
            mark_count,
            comp_off,
            comp_dat,
            opt_off,
            opt_dat,
            comp_slot_off,
            comp_slot_lobj,
            comp_slot_size,
            comp_slot_ord,
            stored_remote,
            repartition_skipped: 0,
            opt_slot_off,
            opt_slot_lobj,
            opt_slot_size,
            opt_slot_prob,
            opt_slot_load,
            opt_slot_wins,
            zero_marks: Vec::new(),
            scratch_refs: Vec::new(),
            scratch_marks: Vec::new(),
            scratch_comp_flips: Vec::new(),
            scratch_opt_flips: Vec::new(),
        }
    }

    /// The site-local index of `object`, if any local page references it.
    #[inline]
    fn local_of(&self, object: ObjectId) -> Option<usize> {
        self.local_objects.binary_search(&object).ok()
    }

    /// Compulsory `(page_idx, slot)` references of local object `o`.
    #[inline]
    pub(crate) fn comp_refs_local(&self, o: usize) -> &[(u32, u32)] {
        &self.comp_dat[self.comp_off[o] as usize..self.comp_off[o + 1] as usize]
    }

    /// Optional `(page_idx, slot)` references of local object `o`.
    #[inline]
    pub(crate) fn opt_refs_local(&self, o: usize) -> &[(u32, u32)] {
        &self.opt_dat[self.opt_off[o] as usize..self.opt_off[o + 1] as usize]
    }

    /// Removes `object` from the foreign list, returning whether it was
    /// there.
    fn foreign_remove(&mut self, object: ObjectId) -> bool {
        match self.foreign.binary_search(&object) {
            Ok(pos) => {
                self.foreign.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    // --- read access -----------------------------------------------------

    /// The site this state plans for.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The underlying system.
    pub fn system(&self) -> &'a System {
        self.sys
    }

    /// The per-site estimates.
    pub fn params(&self) -> &SiteParams {
        &self.params
    }

    /// Local pages in index order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Number of local pages.
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// The working partition row of local page `idx`.
    pub fn partition(&self, idx: usize) -> &PagePartition {
        &self.parts[idx]
    }

    /// The stream totals of local page `idx`.
    pub fn streams(&self, idx: usize) -> &Streams {
        &self.streams[idx]
    }

    /// The `α1` weight in use.
    pub fn alpha1(&self) -> f64 {
        self.alpha1
    }

    /// The `α2` weight in use.
    pub fn alpha2(&self) -> f64 {
        self.alpha2
    }

    /// The optional-cost accumulator of local page `idx`.
    pub fn optional_cost(&self, idx: usize) -> &OptionalCost {
        &self.opt_cost[idx]
    }

    /// Eq. 10 LHS: HTML plus stored-object bytes.
    pub fn storage_used(&self) -> u64 {
        self.html_bytes + self.stored_bytes
    }

    /// `Size(S_i)` from the system.
    pub fn storage_capacity(&self) -> u64 {
        self.sys.site(self.site).storage.get()
    }

    /// Free storage, `Space(S_i)` in the status message.
    pub fn space_left(&self) -> u64 {
        self.storage_capacity().saturating_sub(self.storage_used())
    }

    /// The site's offered HTTP load: Eq. 8 LHS, plus the store's refresh
    /// load when update accounting is on.
    pub fn load(&self) -> f64 {
        self.load + self.update_load
    }

    /// The refresh load of the current store (zero unless update
    /// accounting is enabled).
    pub fn update_load(&self) -> f64 {
        self.update_load
    }

    /// `u_k` as this state accounts it: the object's update rate when
    /// accounting is on, zero otherwise.
    pub fn update_rate_of(&self, object: ObjectId) -> f64 {
        if self.count_updates {
            self.sys.object(object).update_rate
        } else {
            0.0
        }
    }

    /// `C(S_i)`.
    pub fn capacity(&self) -> f64 {
        self.sys.site(self.site).capacity.get()
    }

    /// Processing headroom, `P(S_i)` in the status message. Charged
    /// against the full Eq. 8 LHS — including the store's refresh load
    /// when update accounting is on, so off-loading never advertises
    /// headroom the update traffic already consumes.
    pub fn headroom(&self) -> f64 {
        (self.capacity() - self.load()).max(0.0)
    }

    /// The repository load this site's pages generate, `P(S_i, R)` — plus
    /// the update pushes this site's replicas demand from the repository,
    /// when update accounting is on.
    pub fn repo_load(&self) -> f64 {
        let mut total = self.update_load;
        for (idx, &pid) in self.pages.iter().enumerate() {
            let page = self.sys.page(pid);
            let part = &self.parts[idx];
            let remote_comp = (page.n_compulsory() - part.n_local_compulsory()) as f64;
            let obase = self.opt_slot_off[idx] as usize;
            let opt_remote: f64 = (0..page.optional.len())
                .filter(|&slot| !part.local_optional[slot])
                .map(|slot| self.opt_slot_prob[obase + slot])
                .sum();
            total += self.freq[idx] * (remote_comp + page.opt_req_factor * opt_remote);
        }
        total
    }

    /// Whether `object` is in this site's store.
    pub fn is_stored(&self, object: ObjectId) -> bool {
        match self.local_of(object) {
            Some(o) => self.store.get(o),
            None => !self.foreign.is_empty() && self.foreign.binary_search(&object).is_ok(),
        }
    }

    /// Number of local marks currently on `object`.
    pub fn marks_on(&self, object: ObjectId) -> u32 {
        self.local_of(object).map_or(0, |o| self.marks_on_local(o))
    }

    /// The stored objects in ascending id order.
    pub fn stored_objects(&self) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> = self
            .store
            .iter_ones()
            .map(|o| self.local_objects[o])
            .collect();
        if !self.foreign.is_empty() {
            out.extend_from_slice(&self.foreign);
            out.sort_unstable();
        }
        out
    }

    /// The objective contribution of local page `idx`:
    /// `f (α1 · response + α2 · optional)`.
    pub fn page_d(&self, idx: usize) -> f64 {
        self.freq[idx]
            * (self.alpha1 * self.streams[idx].response(&self.params)
                + self.alpha2 * self.opt_cost[idx].time())
    }

    /// Total objective contribution of this site's pages.
    pub fn total_d(&self) -> f64 {
        (0..self.pages.len()).map(|i| self.page_d(i)).sum()
    }

    /// Compulsory references to `object` at this site.
    pub fn compulsory_refs(&self, object: ObjectId) -> &[(u32, u32)] {
        match self.local_of(object) {
            Some(o) => self.comp_refs_local(o),
            None => &[],
        }
    }

    /// Optional references to `object` at this site.
    pub fn optional_refs(&self, object: ObjectId) -> &[(u32, u32)] {
        match self.local_of(object) {
            Some(o) => self.opt_refs_local(o),
            None => &[],
        }
    }

    // --- slot arenas, by local page index and slot ------------------------
    //
    // Off-loading's absorption loop reads these instead of walking the
    // system's page and object tables: every value is the one the arena
    // build copied out of those tables, so results are bit-identical.

    /// `f_j` of local page `idx`.
    #[inline]
    pub(crate) fn freq(&self, idx: usize) -> f64 {
        self.freq[idx]
    }

    /// Local object index and size of compulsory slot `(idx, slot)`.
    #[inline]
    pub(crate) fn comp_slot(&self, idx: usize, slot: usize) -> (usize, Bytes) {
        let pos = self.comp_slot_off[idx] as usize + slot;
        (self.comp_slot_lobj[pos] as usize, self.comp_slot_size[pos])
    }

    /// Local object index, size, access probability and serving load
    /// when local (`freq · opt_req_factor · prob`) of optional slot
    /// `(idx, slot)`.
    #[inline]
    pub(crate) fn opt_slot(&self, idx: usize, slot: usize) -> (usize, Bytes, f64, f64) {
        let pos = self.opt_slot_off[idx] as usize + slot;
        (
            self.opt_slot_lobj[pos] as usize,
            self.opt_slot_size[pos],
            self.opt_slot_prob[pos],
            self.opt_slot_load[pos],
        )
    }

    /// Number of site-local objects (the dense index space).
    pub(crate) fn n_local_objects(&self) -> usize {
        self.local_objects.len()
    }

    /// Whether local object `o` is stored.
    #[inline]
    pub(crate) fn is_stored_local(&self, o: usize) -> bool {
        self.store.get(o)
    }

    /// The stored local objects, ascending (local-index order is id
    /// order). Foreign objects are not included.
    pub(crate) fn stored_locals(&self) -> impl Iterator<Item = usize> + '_ {
        self.store.iter_ones()
    }

    /// Whether stored objects no local page references exist (possible
    /// only between a markless [`SiteWork::alloc`] and the next
    /// [`SiteWork::drop_orphans`]).
    pub(crate) fn has_foreign(&self) -> bool {
        !self.foreign.is_empty()
    }

    /// [`SiteWork::marks_on`] for local object `o`.
    #[inline]
    pub(crate) fn marks_on_local(&self, o: usize) -> u32 {
        self.mark_count[o]
    }

    /// The size of local object `o`.
    #[inline]
    pub(crate) fn object_size_local(&self, o: usize) -> Bytes {
        self.sys.object_size(self.local_objects[o])
    }

    /// [`SiteWork::update_rate_of`] for local object `o`.
    #[inline]
    pub(crate) fn update_rate_local(&self, o: usize) -> f64 {
        if self.count_updates {
            self.sys.object(self.local_objects[o]).update_rate
        } else {
            0.0
        }
    }

    // --- mutation ---------------------------------------------------------

    /// Flips compulsory slot `(idx, slot)` to `local`, maintaining streams,
    /// load and mark counts. No-op if already in that state.
    ///
    /// # Panics
    /// Panics if marking local while the object is not stored.
    pub fn set_compulsory(&mut self, idx: usize, slot: usize, local: bool) {
        if self.parts[idx].local_compulsory[slot] == local {
            return;
        }
        let pos = self.comp_slot_off[idx] as usize + slot;
        let o = self.comp_slot_lobj[pos] as usize;
        let size = self.comp_slot_size[pos];
        if local {
            assert!(
                self.store.get(o),
                "marking {} local while not stored at {}",
                self.local_objects[o],
                self.site
            );
            self.streams[idx].move_to_local(size);
            self.load += self.freq[idx];
            self.mark_count[o] += 1;
            self.stored_remote[idx] -= 1;
        } else {
            self.streams[idx].move_to_remote(size);
            self.load -= self.freq[idx];
            self.stored_remote[idx] += 1;
            assert!(self.mark_count[o] > 0, "unmarking an object with no marks");
            self.mark_count[o] -= 1;
            if self.mark_count[o] == 0 {
                self.zero_marks.push(self.local_objects[o]);
            }
        }
        self.parts[idx].local_compulsory[slot] = local;
    }

    /// Flips optional slot `(idx, slot)` to `local`. Same contract as
    /// [`SiteWork::set_compulsory`].
    pub fn set_optional(&mut self, idx: usize, slot: usize, local: bool) {
        if self.parts[idx].local_optional[slot] == local {
            return;
        }
        let pos = self.opt_slot_off[idx] as usize + slot;
        let o = self.opt_slot_lobj[pos] as usize;
        let size = self.opt_slot_size[pos];
        let prob = self.opt_slot_prob[pos];
        let workload = self.opt_slot_load[pos];
        if local {
            assert!(
                self.store.get(o),
                "marking optional {} local while not stored",
                self.local_objects[o]
            );
            self.load += workload;
            self.mark_count[o] += 1;
        } else {
            self.load -= workload;
            assert!(
                self.mark_count[o] > 0,
                "unmarking an optional with no marks"
            );
            self.mark_count[o] -= 1;
            if self.mark_count[o] == 0 {
                self.zero_marks.push(self.local_objects[o]);
            }
        }
        self.opt_cost[idx].flip(prob, size, local, &self.params);
        self.parts[idx].local_optional[slot] = local;
    }

    /// Adds `object` to the store (no marks yet). Returns false if already
    /// stored. Objects no local page references are accepted (they land in
    /// a side list) but stay orphan candidates until a mark arrives.
    pub fn alloc(&mut self, object: ObjectId) -> bool {
        if let Some(o) = self.local_of(object) {
            return self.alloc_local(o);
        }
        let Err(pos) = self.foreign.binary_search(&object) else {
            return false;
        };
        self.foreign.insert(pos, object);
        self.charge_alloc(object);
        true
    }

    /// [`SiteWork::alloc`] of local object `o`.
    pub(crate) fn alloc_local(&mut self, o: usize) -> bool {
        let inserted = self.store.set(o);
        if inserted {
            self.charge_alloc(self.local_objects[o]);
            self.count_store_change(o, true);
        }
        inserted
    }

    /// Moves every compulsory slot of local object `o` into (`stored`) or
    /// out of `stored_remote`, as `o` enters or leaves the store. Every
    /// such slot is marked remote then: an unstored object has no local
    /// mark, and one leaves the store only after its last.
    fn count_store_change(&mut self, o: usize, stored: bool) {
        let refs = &self.comp_dat[self.comp_off[o] as usize..self.comp_off[o + 1] as usize];
        for &(idx, _) in refs {
            let count = &mut self.stored_remote[idx as usize];
            if stored {
                *count += 1;
            } else {
                *count -= 1;
            }
        }
    }

    /// Storage and refresh-load bookkeeping of a fresh allocation.
    fn charge_alloc(&mut self, object: ObjectId) {
        self.stored_bytes += self.sys.object_size(object).get();
        if self.count_updates {
            self.update_load += self.sys.object(object).update_rate;
        }
        // Stored with zero marks until a caller flips one local — an
        // orphan candidate if none ever lands.
        self.zero_marks.push(object);
    }

    /// The objective increase if `object` were deallocated right now
    /// (every local mark on it flipped remote). Non-mutating; exact.
    pub fn delta_d_dealloc(&self, object: ObjectId) -> f64 {
        self.local_of(object)
            .map_or(0.0, |o| self.delta_d_dealloc_local(o))
    }

    /// [`SiteWork::delta_d_dealloc`] of local object `o`.
    pub(crate) fn delta_d_dealloc_local(&self, o: usize) -> f64 {
        let size = self.object_size_local(o);
        let mut delta = 0.0;
        for &(idx, slot) in self.comp_refs_local(o) {
            let (idx, slot) = (idx as usize, slot as usize);
            if self.parts[idx].local_compulsory[slot] {
                let before = self.streams[idx].response(&self.params);
                let after = self.streams[idx].response_if_remote(size, &self.params);
                delta += self.freq[idx] * self.alpha1 * (after - before);
            }
        }
        for &(idx, slot) in self.opt_refs_local(o) {
            let (idx, slot) = (idx as usize, slot as usize);
            if self.parts[idx].local_optional[slot] {
                let prob = self.opt_slot_prob[self.opt_slot_off[idx] as usize + slot];
                delta += self.freq[idx]
                    * self.alpha2
                    * self.opt_cost[idx].delta_if_flipped(prob, size, false, &self.params);
            }
        }
        delta
    }

    /// Deallocates `object`: flips all its local marks remote and removes
    /// it from the store. Returns the indices of pages whose *compulsory*
    /// partition changed (candidates for re-partitioning).
    pub fn dealloc(&mut self, object: ObjectId) -> Vec<usize> {
        let mut affected = Vec::new();
        match self.local_of(object) {
            Some(o) => self.dealloc_local_into(o, &mut affected),
            None => {
                if self.foreign_remove(object) {
                    self.stored_bytes -= self.sys.object_size(object).get();
                    if self.count_updates {
                        self.update_load -= self.sys.object(object).update_rate;
                    }
                }
            }
        }
        affected
    }

    /// [`SiteWork::dealloc`] of local object `o`, into a caller-owned
    /// buffer (cleared first) so the restoration loops reuse one
    /// allocation across thousands of deallocations.
    pub(crate) fn dealloc_local_into(&mut self, o: usize, affected: &mut Vec<usize>) {
        affected.clear();
        // The flips below need `&mut self` while the CSR rows borrow
        // `&self`, so stage the rows through a reusable scratch buffer.
        let mut refs = std::mem::take(&mut self.scratch_refs);
        refs.clear();
        refs.extend_from_slice(self.comp_refs_local(o));
        for &(idx, slot) in &refs {
            let (idx, slot) = (idx as usize, slot as usize);
            if self.parts[idx].local_compulsory[slot] {
                self.set_compulsory(idx, slot, false);
                affected.push(idx);
            }
        }
        refs.clear();
        refs.extend_from_slice(self.opt_refs_local(o));
        for &(idx, slot) in &refs {
            let (idx, slot) = (idx as usize, slot as usize);
            if self.parts[idx].local_optional[slot] {
                self.set_optional(idx, slot, false);
            }
        }
        self.scratch_refs = refs;
        if self.store.clear(o) {
            self.count_store_change(o, false);
            let object = self.local_objects[o];
            self.stored_bytes -= self.sys.object_size(object).get();
            if self.count_updates {
                self.update_load -= self.sys.object(object).update_rate;
            }
        }
        debug_assert_eq!(self.mark_count[o], 0);
    }

    /// Removes stored objects that no longer carry any local mark,
    /// returning the bytes freed. Zero objective cost by construction.
    pub fn drop_orphans(&mut self) -> u64 {
        // Every orphan went through a marks→0 transition (or a markless
        // `alloc`), so the worklist covers them all; entries re-marked
        // since are filtered by the re-check. Ascending-id drain keeps the
        // update-load subtraction order of the old full-store scan.
        let mut worklist = std::mem::take(&mut self.zero_marks);
        worklist.sort_unstable();
        worklist.dedup();
        let mut freed = 0;
        for k in worklist.drain(..) {
            let removed = match self.local_of(k) {
                Some(o) => {
                    let cleared = self.mark_count[o] == 0 && self.store.clear(o);
                    if cleared {
                        self.count_store_change(o, false);
                    }
                    cleared
                }
                None => self.foreign_remove(k),
            };
            if !removed {
                continue;
            }
            let sz = self.sys.object_size(k).get();
            self.stored_bytes -= sz;
            freed += sz;
            if self.count_updates {
                self.update_load -= self.sys.object(k).update_rate;
            }
        }
        self.zero_marks = worklist;
        freed
    }

    /// Re-runs the greedy partition of local page `idx` against the current
    /// store: objects not stored are forced remote, stored objects are
    /// re-balanced in decreasing size order (the paper's post-deallocation
    /// adjustment). The new assignment is applied only if it improves the
    /// page's objective contribution. Returns whether anything changed.
    ///
    /// A page the no-op precheck covers ([`crate::storage`] states the
    /// bound) returns `false` at once: its candidate provably equals its
    /// marks, so the full path would write nothing. Debug builds run the
    /// full candidate anyway and assert that it flips nothing.
    ///
    /// Otherwise the candidate is priced without touching the page: its
    /// streams are integer byte sums and its optional cost is the current
    /// one advanced by the differing slots' flips. A rejected candidate
    /// writes back only the float state (`load` and the page's optional
    /// cost), each advanced through the apply-then-revert sequence a trial
    /// write would have run, so the result is bit-identical to applying
    /// and reverting it.
    pub fn repartition_page(&mut self, idx: usize) -> bool {
        if self.repartition_is_noop(idx) {
            self.repartition_skipped += 1;
            if cfg!(debug_assertions) {
                self.repartition_candidate(idx);
                assert!(
                    self.scratch_comp_flips.is_empty() && self.scratch_opt_flips.is_empty(),
                    "repartition precheck skipped page {idx} of {}, whose candidate flips marks",
                    self.site
                );
            }
            return false;
        }
        let cand = self.repartition_candidate(idx);
        let comp_flips = std::mem::take(&mut self.scratch_comp_flips);
        let opt_flips = std::mem::take(&mut self.scratch_opt_flips);
        let changed = if comp_flips.is_empty() && opt_flips.is_empty() {
            false
        } else {
            let p = self.params;
            let obase = self.opt_slot_off[idx] as usize;
            let part = &self.parts[idx];
            let mut oc = self.opt_cost[idx].clone();
            for &slot in &opt_flips {
                let s = obase + slot as usize;
                let now_local = !part.local_optional[slot as usize];
                oc.flip(self.opt_slot_prob[s], self.opt_slot_size[s], now_local, &p);
            }
            let before = self.page_d(idx);
            let after =
                self.freq[idx] * (self.alpha1 * cand.response(&p) + self.alpha2 * oc.time());
            if after < before - 1e-12 {
                for &slot in &comp_flips {
                    let slot = slot as usize;
                    let mark = !self.parts[idx].local_compulsory[slot];
                    self.set_compulsory(idx, slot, mark);
                }
                for &slot in &opt_flips {
                    let slot = slot as usize;
                    let mark = !self.parts[idx].local_optional[slot];
                    self.set_optional(idx, slot, mark);
                }
                true
            } else {
                self.replay_rejected(idx, &comp_flips, &opt_flips, oc);
                false
            }
        };
        self.scratch_comp_flips = comp_flips;
        self.scratch_opt_flips = opt_flips;
        changed
    }

    /// Whether re-partitioning page `idx` provably changes nothing, decided
    /// without the greedy. Holds when no stored compulsory object is
    /// marked remote, the remote stream (then exactly the unstored
    /// objects, as the greedy pre-charges it) starts no earlier than the
    /// all-local stream ends, with a margin above the float error of the
    /// greedy's running sum, and every optional mark already is `stored ∧
    /// standalone fetch wins`.
    fn repartition_is_noop(&self, idx: usize) -> bool {
        if self.stored_remote[idx] != 0 {
            return false;
        }
        let p = &self.params;
        let streams = &self.streams[idx];
        let n = (self.comp_slot_off[idx + 1] - self.comp_slot_off[idx]) as f64;
        let remote = p.repo_ovhd + streams.remote_bytes as f64 / p.repo_rate;
        let local = p.local_ovhd + streams.local_bytes as f64 / p.local_rate;
        let obase = self.opt_slot_off[idx] as usize;
        let marks = &self.parts[idx].local_optional;
        remote >= local * (1.0 + (n + 8.0) * f64::EPSILON)
            && (obase..self.opt_slot_off[idx + 1] as usize).all(|s| {
                let want = self.opt_slot_wins[s] && self.store.get(self.opt_slot_lobj[s] as usize);
                marks[s - obase] == want
            })
    }

    /// Runs the re-partition greedy of page `idx` without writing it:
    /// returns the candidate's streams and leaves the compulsory and
    /// optional slots whose candidate mark differs from the current one in
    /// `scratch_comp_flips` / `scratch_opt_flips` (slot order).
    fn repartition_candidate(&mut self, idx: usize) -> Streams {
        let base = self.comp_slot_off[idx] as usize;
        let cend = self.comp_slot_off[idx + 1] as usize;
        let obase = self.opt_slot_off[idx] as usize;
        let oend = self.opt_slot_off[idx + 1] as usize;
        let p = self.params;

        let mut new_marks = std::mem::take(&mut self.scratch_marks);
        new_marks.clear();
        new_marks.resize(cend - base, false);

        // Fixed-remote payload: every unstored compulsory slot.
        let html = self.sys.page(self.pages[idx]).html_size;
        let mut cand = Streams::all_local_base(html);
        for s in base..cend {
            if !self.store.get(self.comp_slot_lobj[s] as usize) {
                cand.remote_bytes += self.comp_slot_size[s].get();
                cand.n_remote += 1;
            }
        }

        // Verbatim greedy over the precomputed (size desc, slot asc)
        // order, skipping unstored slots, with the fixed-remote payload
        // pre-charged. The byte sums beside the float times are the
        // candidate's streams.
        let mut local = p.local_ovhd + html.get() as f64 / p.local_rate;
        let mut remote = p.repo_ovhd + cand.remote_bytes as f64 / p.repo_rate;
        for &s in &self.comp_slot_ord[base..cend] {
            let s = s as usize;
            if !self.store.get(self.comp_slot_lobj[s] as usize) {
                continue;
            }
            let bytes = self.comp_slot_size[s].get();
            let size = bytes as f64;
            let local_if = local + size / p.local_rate;
            let remote_if = remote + size / p.repo_rate;
            if remote_if < local_if {
                remote = remote_if;
                cand.remote_bytes += bytes;
                cand.n_remote += 1;
            } else {
                local = local_if;
                cand.local_bytes += bytes;
                new_marks[s - base] = true;
            }
        }

        // The slots whose mark would flip, in slot order. Optional slots
        // are local iff stored and the standalone fetch wins (precomputed
        // per slot).
        let part = &self.parts[idx];
        self.scratch_comp_flips.clear();
        self.scratch_opt_flips.clear();
        self.scratch_comp_flips.extend(
            (0..cend - base)
                .filter(|&slot| new_marks[slot] != part.local_compulsory[slot])
                .map(|slot| slot as u32),
        );
        self.scratch_opt_flips.extend(
            (obase..oend)
                .filter(|&s| {
                    let new =
                        self.store.get(self.opt_slot_lobj[s] as usize) && self.opt_slot_wins[s];
                    new != part.local_optional[s - obase]
                })
                .map(|s| (s - obase) as u32),
        );
        self.scratch_marks = new_marks;
        cand
    }

    /// Page `idx`'s compulsory slots whose object is stored but marked
    /// remote, as tracked (the auditor recounts it).
    pub(crate) fn stored_remote(&self, idx: usize) -> u32 {
        self.stored_remote[idx]
    }

    /// Re-partition calls so far that the no-op precheck answered without
    /// running the greedy.
    pub(crate) fn repartition_skipped(&self) -> u64 {
        self.repartition_skipped
    }

    /// The float state a rejected repartition candidate leaves behind.
    /// Writing the candidate's flips and then the old marks back
    /// round-trips the streams, mark counts and partition exactly, but
    /// not `load` (`x + f - f` need not be `x`) nor the optional cost. So
    /// both run that same sequence: compulsory flips, optional flips, then
    /// both reverted, each in slot order. `oc` is the optional cost with
    /// the candidate's flips already applied.
    fn replay_rejected(
        &mut self,
        idx: usize,
        comp_flips: &[u32],
        opt_flips: &[u32],
        mut oc: OptionalCost,
    ) {
        let obase = self.opt_slot_off[idx] as usize;
        let part = &self.parts[idx];
        let f = self.freq[idx];
        let mut load = self.load;
        for revert in [false, true] {
            for &slot in comp_flips {
                if part.local_compulsory[slot as usize] == revert {
                    load += f;
                } else {
                    load -= f;
                }
            }
            for &slot in opt_flips {
                let s = obase + slot as usize;
                let w = self.opt_slot_load[s];
                let was_local = part.local_optional[slot as usize];
                if was_local == revert {
                    load += w;
                } else {
                    load -= w;
                }
                if revert {
                    oc.flip(
                        self.opt_slot_prob[s],
                        self.opt_slot_size[s],
                        was_local,
                        &self.params,
                    );
                }
            }
        }
        self.load = load;
        self.opt_cost[idx] = oc;
    }

    /// Extracts the final partitions as `(page, partition)` pairs.
    pub fn into_partitions(self) -> Vec<(PageId, PagePartition)> {
        self.pages.into_iter().zip(self.parts).collect()
    }

    /// Expensive from-scratch recomputation of every derived quantity,
    /// panicking on divergence. Delegates to [`crate::audit::audit_site`],
    /// which also covers mark counts and exact storage accounting.
    pub fn validate_consistency(&self) {
        crate::audit::assert_consistent(self, crate::audit::AuditStage::Validate);
    }

    /// Test/demo hook: corrupts the tracked serving load by `delta`
    /// without touching the partitions, so the auditor has a divergence
    /// to find. Never called by the planning pipeline.
    #[doc(hidden)]
    pub fn debug_corrupt_load(&mut self, delta: f64) {
        self.load += delta;
    }

    /// Test/demo hook: corrupts the tracked stored-byte count by `delta`
    /// bytes. Never called by the planning pipeline.
    #[doc(hidden)]
    pub fn debug_corrupt_stored_bytes(&mut self, delta: u64) {
        self.stored_bytes += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_all;
    use mmrepl_workload::{generate_system, WorkloadParams};

    fn make_work(seed: u64) -> (System, usize) {
        let sys = generate_system(&WorkloadParams::small(), seed).unwrap();
        (sys, 0)
    }

    fn work_for<'a>(sys: &'a System, site_idx: usize) -> SiteWork<'a> {
        let placement = partition_all(sys);
        SiteWork::new(
            sys,
            SiteId::new(site_idx as u32),
            &placement,
            CostParams::default(),
        )
    }

    #[test]
    fn new_state_is_consistent() {
        let (sys, i) = make_work(1);
        let w = work_for(&sys, i);
        w.validate_consistency();
        assert!(w.n_pages() > 0);
        assert!(w.load() > 0.0);
        assert!(w.storage_used() > 0);
    }

    #[test]
    fn load_matches_placement_view() {
        let (sys, _) = make_work(2);
        let placement = partition_all(&sys);
        for site in sys.sites().ids() {
            let w = SiteWork::new(&sys, site, &placement, CostParams::default());
            let model_load = placement.site_load(&sys, site).get();
            assert!(
                (w.load() - model_load).abs() < 1e-9,
                "site {site}: {} vs {}",
                w.load(),
                model_load
            );
            let model_repo = placement.repo_load_from(&sys, site).get();
            assert!((w.repo_load() - model_repo).abs() < 1e-9);
        }
    }

    #[test]
    fn storage_matches_placement_view() {
        let (sys, _) = make_work(3);
        let placement = partition_all(&sys);
        for site in sys.sites().ids() {
            let w = SiteWork::new(&sys, site, &placement, CostParams::default());
            let model = placement.storage_used(&sys, site).get();
            assert_eq!(w.storage_used(), model, "site {site}");
        }
    }

    #[test]
    fn total_d_matches_cost_model() {
        let (sys, _) = make_work(4);
        let placement = partition_all(&sys);
        let cm = mmrepl_model::CostModel::with_defaults(&sys);
        let total: f64 = sys
            .sites()
            .ids()
            .map(|s| SiteWork::new(&sys, s, &placement, CostParams::default()).total_d())
            .sum();
        assert!(
            (total - cm.objective(&placement)).abs() / total < 1e-9,
            "{total} vs {}",
            cm.objective(&placement)
        );
    }

    #[test]
    fn set_compulsory_roundtrip_restores_state() {
        let (sys, i) = make_work(5);
        let mut w = work_for(&sys, i);
        let before_load = w.load();
        let before_d = w.total_d();
        // Find a local compulsory mark and flip it away and back.
        let (idx, slot) = (0..w.n_pages())
            .flat_map(|idx| (0..w.partition(idx).local_compulsory.len()).map(move |s| (idx, s)))
            .find(|&(idx, s)| w.partition(idx).local_compulsory[s])
            .expect("no local marks");
        w.set_compulsory(idx, slot, false);
        assert!(w.load() < before_load);
        w.set_compulsory(idx, slot, true);
        assert!((w.load() - before_load).abs() < 1e-9);
        assert!((w.total_d() - before_d).abs() < 1e-9);
        w.validate_consistency();
    }

    #[test]
    fn dealloc_removes_all_marks_and_storage() {
        let (sys, i) = make_work(6);
        let mut w = work_for(&sys, i);
        let object = w
            .stored_objects()
            .into_iter()
            .max_by_key(|&k| w.marks_on(k))
            .expect("store is empty");
        let marks = w.marks_on(object);
        assert!(marks > 0);
        let used_before = w.storage_used();
        let d_before = w.total_d();
        let predicted = w.delta_d_dealloc(object);
        let affected = w.dealloc(object);
        assert!(!w.is_stored(object));
        assert_eq!(w.marks_on(object), 0);
        assert_eq!(
            w.storage_used(),
            used_before - sys.object_size(object).get()
        );
        let actual = w.total_d() - d_before;
        assert!(
            (actual - predicted).abs() < 1e-6,
            "predicted {predicted}, actual {actual}"
        );
        assert!(actual >= -1e-9, "dealloc should not improve D");
        // affected pages are exactly those that had compulsory marks
        assert!(affected.len() as u32 <= marks);
        w.validate_consistency();
    }

    #[test]
    fn repartition_never_worsens_page() {
        let (sys, i) = make_work(7);
        let mut w = work_for(&sys, i);
        // Knock out a chunk of the store to make repartitioning meaningful.
        let victims: Vec<ObjectId> = w.stored_objects().into_iter().take(20).collect();
        for v in victims {
            w.dealloc(v);
        }
        for idx in 0..w.n_pages() {
            let before = w.page_d(idx);
            w.repartition_page(idx);
            let after = w.page_d(idx);
            assert!(after <= before + 1e-9, "page {idx}: {before} -> {after}");
        }
        w.validate_consistency();
    }

    #[test]
    fn drop_orphans_frees_unmarked_objects() {
        let (sys, i) = make_work(8);
        let mut w = work_for(&sys, i);
        // Manufacture an orphan: alloc an object that is nowhere marked.
        let unmarked = sys
            .objects()
            .ids()
            .find(|&k| !w.is_stored(k))
            .expect("all objects stored?");
        w.alloc(unmarked);
        let used = w.storage_used();
        let freed = w.drop_orphans();
        assert!(freed >= sys.object_size(unmarked).get());
        assert_eq!(w.storage_used(), used - freed);
        assert!(!w.is_stored(unmarked));
        w.validate_consistency();
    }

    #[test]
    fn alloc_of_unreferenced_object_roundtrips() {
        let (sys, i) = make_work(12);
        let mut w = work_for(&sys, i);
        // An object no local page references exercises the foreign path.
        let foreign = sys
            .objects()
            .ids()
            .find(|&k| w.compulsory_refs(k).is_empty() && w.optional_refs(k).is_empty())
            .expect("every object referenced by site 0?");
        assert!(!w.is_stored(foreign));
        assert!(w.alloc(foreign));
        assert!(!w.alloc(foreign), "double alloc must report already-stored");
        assert!(w.is_stored(foreign));
        assert!(w.stored_objects().contains(&foreign));
        assert_eq!(w.marks_on(foreign), 0);
        // dealloc must take the foreign path and restore the byte count.
        let used = w.storage_used();
        w.dealloc(foreign);
        assert!(!w.is_stored(foreign));
        assert_eq!(w.storage_used(), used - sys.object_size(foreign).get());
        w.validate_consistency();
    }

    #[test]
    #[should_panic(expected = "not stored")]
    fn marking_unstored_object_local_panics() {
        let (sys, i) = make_work(9);
        let mut w = work_for(&sys, i);
        // Find a remote compulsory mark whose object is not stored.
        let target = (0..w.n_pages()).find_map(|idx| {
            let pid = w.pages()[idx];
            let page = sys.page(pid);
            (0..page.n_compulsory()).find_map(|s| {
                (!w.partition(idx).local_compulsory[s] && !w.is_stored(page.compulsory[s]))
                    .then_some((idx, s))
            })
        });
        // If every remote object happens to be stored, force the situation.
        let (idx, slot) = target.unwrap_or_else(|| {
            let idx = 0;
            let pid = w.pages()[idx];
            let k = sys.page(pid).compulsory[0];
            let mut w2_slot = 0;
            for (s, &kk) in sys.page(pid).compulsory.iter().enumerate() {
                if kk == k {
                    w2_slot = s;
                }
            }
            w.dealloc(k);
            (idx, w2_slot)
        });
        w.set_compulsory(idx, slot, true);
    }

    #[test]
    fn headroom_charges_update_load() {
        let (sys, i) = make_work(11);
        let sys = sys.map_update_rates(|_, _| 0.5);
        let placement = partition_all(&sys);
        let site = SiteId::new(i as u32);
        let w =
            SiteWork::with_update_accounting(&sys, site, &placement, CostParams::default(), true);
        assert!(w.update_load() > 0.0);
        // Headroom must be measured against the full Eq. 8 LHS (serving
        // plus refresh load), not just the serving term — otherwise
        // off-loading hands out capacity the update traffic already uses.
        let expected = (w.capacity() - w.load()).max(0.0);
        assert!(
            (w.headroom() - expected).abs() < 1e-9,
            "headroom {} vs capacity {} - load {}",
            w.headroom(),
            w.capacity(),
            w.load()
        );
    }

    /// Site 0 with every mark local, priced with repository overhead
    /// `repo_ovhd` and a repository pipe slower than the local one (so
    /// every optional fetch wins locally). Each page's remote stream is
    /// then empty, so the greedy's starting remote time is `repo_ovhd`
    /// exactly.
    fn all_local_at(sys: &System, repo_ovhd: f64) -> SiteWork<'_> {
        let params = SiteParams {
            local_ovhd: 0.01,
            repo_ovhd,
            local_rate: 1e6,
            repo_rate: 1e5,
        };
        let placement = Placement::all_local(sys);
        SiteWork::with_params(
            sys,
            SiteId::new(0),
            &placement,
            CostParams::default(),
            false,
            params,
        )
    }

    #[test]
    fn precheck_margin_holds_to_the_ulp() {
        let (sys, _) = make_work(13);
        let probe = all_local_at(&sys, 1.0);
        let idx = (0..probe.n_pages())
            .max_by_key(|&i| probe.partition(i).local_compulsory.len())
            .unwrap();
        let page = sys.page(probe.pages()[idx]);
        let p = *probe.params();
        let n = page.n_compulsory() as f64;
        let local = p.local_ovhd + probe.streams(idx).local_bytes as f64 / p.local_rate;
        let margin = local * (1.0 + (n + 8.0) * f64::EPSILON);
        for (r0, skips) in [
            (margin.next_down(), false),
            (margin, true),
            (margin.next_up(), true),
        ] {
            let mut w = all_local_at(&sys, r0);
            assert_eq!(w.stored_remote(idx), 0);
            let before = w.partition(idx).clone();
            // The greedy, spelled out: every object is stored, so each
            // compulsory slot, largest first, goes local unless the
            // remote stream (starting at `r0`) would end sooner.
            let mut sizes: Vec<(u64, usize)> = page
                .compulsory
                .iter()
                .enumerate()
                .map(|(slot, &k)| (sys.object_size(k).get(), slot))
                .collect();
            sizes.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let (mut l, mut r) = (
                p.local_ovhd + page.html_size.get() as f64 / p.local_rate,
                r0,
            );
            let mut greedy = vec![false; sizes.len()];
            for &(size, slot) in &sizes {
                let (l_if, r_if) = (
                    l + size as f64 / p.local_rate,
                    r + size as f64 / p.repo_rate,
                );
                if r_if < l_if {
                    r = r_if;
                } else {
                    l = l_if;
                    greedy[slot] = true;
                }
            }
            assert_eq!(greedy, before.local_compulsory, "R0 {r0:e}");
            // Below the margin the full path runs; at and above it the
            // precheck answers. Either way the page keeps its marks.
            assert!(!w.repartition_page(idx), "R0 {r0:e}");
            assert_eq!(w.repartition_skipped(), u64::from(skips), "R0 {r0:e}");
            assert_eq!(w.partition(idx), &before);
            w.validate_consistency();
        }
    }

    #[test]
    fn precheck_defers_to_the_greedy_when_a_stored_object_is_remote() {
        let (sys, _) = make_work(13);
        // A repository far slower than any local stream: the greedy puts
        // every stored object local.
        let mut w = all_local_at(&sys, 1e6);
        let idx = (0..w.n_pages())
            .find(|&i| !w.partition(i).local_compulsory.is_empty())
            .unwrap();
        w.set_compulsory(idx, 0, false);
        assert_eq!(w.stored_remote(idx), 1);
        assert!(w.repartition_page(idx), "the greedy takes the slot back");
        assert_eq!(w.repartition_skipped(), 0);
        assert_eq!(w.stored_remote(idx), 0);
        assert!(!w.repartition_page(idx));
        assert_eq!(w.repartition_skipped(), 1);
    }

    #[test]
    fn auditor_recounts_stored_remote() {
        let (sys, i) = make_work(14);
        let mut w = work_for(&sys, i);
        crate::audit::audit_site(&w, crate::audit::AuditStage::Validate).unwrap();
        w.stored_remote[0] += 1;
        let err = crate::audit::audit_site(&w, crate::audit::AuditStage::Validate).unwrap_err();
        assert!(err.to_string().contains("stored-but-remote"), "{err}");
    }

    #[test]
    fn headroom_and_space_saturate() {
        let (sys, i) = make_work(10);
        let w = work_for(&sys, i);
        // Storage is at 100% demand, so space_left is >= 0 by construction.
        assert!(w.space_left() <= w.storage_capacity());
        assert!(w.headroom() >= 0.0);
    }
}
