//! `OFF_LOADING_REPOSITORY()` — Section 4.2's distributed negotiation:
//! its per-round arithmetic, the site-side absorption, and
//! [`run_offload`], the stage-4 entry point.
//!
//! After every site has restored its own storage and processing
//! constraints, each sends the repository a status message with its free
//! storage `Space(S_i)`, processing headroom `P(S_i)` and the repository
//! workload its current assignment generates `P(S_i, R)`. If the summed
//! workload `P(R)` exceeds `C(R)`, the repository pushes the excess back:
//!
//! * **L1** — sites with both free storage and free cpu — absorb first,
//!   proportionally to their headroom;
//! * **L2** — sites with free cpu but no storage — absorb the remainder,
//!   proportionally, by re-marking *already stored* objects for local
//!   download (and, as the paper sketches, by swapping stored objects for
//!   ones that carry more workload);
//! * **L3** — everyone else — is left alone.
//!
//! A site that cannot absorb its assignment replies with what it managed
//! and demotes itself to L3; the repository re-collects answers and
//! iterates until the constraint is met or nobody can take more.
//!
//! The message protocol itself lives in [`crate::negotiate`];
//! [`run_offload`] runs it with the paper's greedy rounds over a reliable
//! bus. This module keeps what every negotiation strategy shares:
//! [`paper_round_plan`] and [`absorb_workload`].

use crate::bits::DenseBits;
use crate::lazyheap::{pack_slot, unpack_slot, LazyMinHeap};
use crate::negotiate::{run_negotiation, NegotiateConfig};
use crate::state::{SiteWork, SlotKind};
use mmrepl_model::{ObjectId, Secs};
use serde::{Deserialize, Serialize};

/// How the repository splits excess workload across willing sites
/// (A4 ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AssignmentRule {
    /// `NewReq(S_i) = P(S_i) · excess / P(L)` — proportional to headroom,
    /// the paper's formula.
    #[default]
    ProportionalToHeadroom,
    /// Naive equal split of the excess across the class, capped at each
    /// site's headroom.
    EqualSplit,
}

/// One-way control-plane latency per hop: Table 1's repository RTT of
/// 200 ms, halved.
pub const BUS_LATENCY: Secs = Secs(0.1);

/// Safety bound on negotiation rounds.
pub const MAX_ROUNDS: usize = 32;

/// Maximum object swaps a storage-full site attempts per assignment.
pub const MAX_SWAPS: usize = 64;

/// Off-loading configuration: the excess-splitting rule. Latency, the
/// round bound and the swap bound are the constants [`BUS_LATENCY`],
/// [`MAX_ROUNDS`] and [`MAX_SWAPS`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OffloadConfig {
    /// Excess-splitting rule.
    pub assignment: AssignmentRule,
}

/// One site's status message payload.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// `Space(S_i)` — free storage, bytes.
    pub space: u64,
    /// `P(S_i)` — processing headroom, req/s.
    pub headroom: f64,
    /// `P(S_i, R)` — repository workload generated by this site, req/s.
    pub repo_load: f64,
}

/// Result of the negotiation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OffloadReport {
    /// Rounds of offer/counter exchange.
    pub rounds: usize,
    /// Total control-plane messages.
    pub messages: u64,
    /// Simulated control-plane time elapsed, seconds.
    pub control_time: f64,
    /// Repository workload before negotiation, req/s.
    pub initial_repo_load: f64,
    /// Repository workload after, req/s.
    pub final_repo_load: f64,
    /// Total workload moved back to the sites, req/s, as confirmed by
    /// the sites' replies; `final_repo_load` stays authoritative.
    pub absorbed: f64,
    /// Object swaps performed by storage-full sites.
    pub swaps: usize,
    /// Whether Eq. 9 holds afterwards.
    pub feasible: bool,
    /// Control-plane messages the bus dropped. Always zero on the
    /// reliable bus [`run_offload`] uses.
    #[serde(default)]
    pub dropped: u64,
}

/// Outcome bundle: report plus whether anything changed at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OffloadOutcome {
    /// The negotiation report.
    pub report: OffloadReport,
    /// Whether any placement marks changed.
    pub changed: bool,
}

pub(crate) const EPS: f64 = 1e-9;

/// One round's offer to one site: `(site index, amount req/s,
/// allow_alloc)` — exactly the triple `OFF_LOADING_REPOSITORY` sends as
/// its `NewReq`.
pub type Assignment = (usize, f64, bool);

/// What a negotiation round should do, as decided from the repository's
/// current (possibly stale) view of the sites.
#[derive(Clone, Debug, PartialEq)]
pub enum RoundPlan {
    /// Eq. 9 already holds — stop, feasible.
    Met,
    /// No site can absorb anything — the paper's "CONSTRAINT CAN NOT BE
    /// RESTORED": stop, infeasible.
    Stuck,
    /// Send these offers and collect replies.
    Assign(Vec<Assignment>),
}

/// Splits site indices into the paper's L1 (free storage AND cpu) and L2
/// (free cpu only) classes; everyone else — demoted or out of headroom —
/// is L3 and left alone.
pub(crate) fn classify(statuses: &[StatusReport], demoted: &[bool]) -> (Vec<usize>, Vec<usize>) {
    let l1: Vec<usize> = (0..statuses.len())
        .filter(|&i| !demoted[i] && statuses[i].space > 0 && statuses[i].headroom > EPS)
        .collect();
    let l2: Vec<usize> = (0..statuses.len())
        .filter(|&i| !demoted[i] && statuses[i].space == 0 && statuses[i].headroom > EPS)
        .collect();
    if mmrepl_obs::enabled() {
        // Per-round class sizes: L3 is everyone not in L1/L2 this round
        // (demoted, or no cpu headroom).
        mmrepl_obs::add("offload.l1_sites", l1.len() as u64);
        mmrepl_obs::add("offload.l2_sites", l2.len() as u64);
        mmrepl_obs::add(
            "offload.l3_sites",
            (statuses.len() - l1.len() - l2.len()) as u64,
        );
    }
    (l1, l2)
}

/// One round of `OFF_LOADING_REPOSITORY`'s assignment arithmetic:
/// classify L1/L2/L3, then split the excess `P(R) − C(R)` over L1
/// (storing allowed) and, if L1's headroom is short, the remainder over
/// L2 (re-marking only). The greedy strategy of [`crate::negotiate`]
/// runs it verbatim; the deadline-bounded strategy scales its asks.
pub fn paper_round_plan(
    statuses: &[StatusReport],
    demoted: &[bool],
    repo_capacity: f64,
    rule: AssignmentRule,
) -> RoundPlan {
    let p_r: f64 = statuses.iter().map(|s| s.repo_load).sum();
    if p_r <= repo_capacity + EPS {
        return RoundPlan::Met;
    }
    let (l1, l2) = classify(statuses, demoted);
    if l1.is_empty() && l2.is_empty() {
        return RoundPlan::Stuck;
    }

    let excess = p_r - repo_capacity;
    let p_l1: f64 = l1.iter().map(|&i| statuses[i].headroom).sum();
    let p_l2: f64 = l2.iter().map(|&i| statuses[i].headroom).sum();

    // Compute assignments per the pseudocode (or the naive equal-split
    // variant for the A4 ablation).
    let split = |class: &[usize], total: f64, class_headroom: f64| -> Vec<f64> {
        match rule {
            AssignmentRule::ProportionalToHeadroom => class
                .iter()
                .map(|&i| statuses[i].headroom * total / class_headroom)
                .collect(),
            AssignmentRule::EqualSplit => {
                let share = total / class.len() as f64;
                class
                    .iter()
                    .map(|&i| share.min(statuses[i].headroom))
                    .collect()
            }
        }
    };
    let mut assignments: Vec<Assignment> = Vec::new();
    if excess <= p_l1 {
        for (&i, amt) in l1.iter().zip(split(&l1, excess, p_l1)) {
            assignments.push((i, amt, true));
        }
    } else {
        for &i in &l1 {
            assignments.push((i, statuses[i].headroom, true));
        }
        if p_l2 > EPS {
            let remainder = excess - p_l1;
            for (&i, amt) in l2.iter().zip(split(&l2, remainder, p_l2)) {
                assignments.push((i, amt, false));
            }
        }
    }
    RoundPlan::Assign(assignments)
}

/// Runs `OFF_LOADING_REPOSITORY` over `works` (one [`SiteWork`] per site,
/// in site-id order) against a repository of capacity `repo_capacity`
/// req/s: the paper's greedy rounds over a reliable control plane, i.e.
/// [`run_negotiation`] under [`NegotiateConfig::default`].
pub fn run_offload(
    works: &mut [SiteWork<'_>],
    repo_capacity: f64,
    config: &OffloadConfig,
) -> OffloadOutcome {
    let out = run_negotiation(works, repo_capacity, config, &NegotiateConfig::default());
    OffloadOutcome {
        report: out.report.as_offload(),
        changed: out.changed,
    }
}

pub(crate) fn status_of(w: &SiteWork<'_>) -> StatusReport {
    StatusReport {
        space: w.space_left(),
        headroom: w.headroom(),
        repo_load: w.repo_load(),
    }
}

/// Result of one site absorbing an assignment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbsorbResult {
    /// Workload actually taken, req/s.
    pub absorbed: f64,
    /// Whether the site fell short of the request.
    pub exhausted: bool,
    /// Object swaps performed.
    pub swaps: usize,
}

/// One absorption pass: mark remote `(page, object)` downloads local, in
/// ascending objective-damage-per-workload order, until `amount` req/s of
/// repository workload has been taken or nothing more fits.
///
/// `allow_alloc` gates storing new objects (L1 vs L2); `max_swaps > 0`
/// additionally lets a storage-full site swap low-value stored objects for
/// higher-workload ones (the paper's last-ditch step).
pub fn absorb_workload(
    work: &mut SiteWork<'_>,
    amount: f64,
    allow_alloc: bool,
    max_swaps: usize,
) -> AbsorbResult {
    let mut absorbed = 0.0;
    let mut swaps = 0;

    absorbed += absorb_greedy(work, amount, allow_alloc);

    if absorbed + EPS < amount && max_swaps > 0 {
        swaps = swap_for_workload(work, amount - absorbed, max_swaps);
        if swaps > 0 {
            absorbed += absorb_greedy(work, amount - absorbed, true);
        }
    }

    AbsorbResult {
        absorbed,
        exhausted: absorbed + EPS < amount,
        swaps,
    }
}

/// A remote download `(local page idx, slot, kind)`, packed by
/// [`pack_slot`] so that integer order is the `(idx, slot, kind)` order
/// greedy ties break on.
type Candidate = u64;

/// Greedy re-marking core shared by both absorption phases: every remote
/// slot, cheapest objective damage per unit of workload first, through
/// the shared [`LazyMinHeap`] (revalidated before the take/skip checks).
fn absorb_greedy(work: &mut SiteWork<'_>, amount: f64, allow_alloc: bool) -> f64 {
    if amount <= EPS {
        return 0.0;
    }
    let mut entries: Vec<(f64, Candidate)> = Vec::new();
    for idx in 0..work.n_pages() {
        let part = work.partition(idx);
        for (slot, &local) in part.local_compulsory.iter().enumerate() {
            if !local {
                let cand = pack_slot(idx, slot, SlotKind::Compulsory);
                entries.push((gain_ratio(work, cand), cand));
            }
        }
        for (slot, &local) in part.local_optional.iter().enumerate() {
            if !local {
                let cand = pack_slot(idx, slot, SlotKind::Optional);
                entries.push((gain_ratio(work, cand), cand));
            }
        }
    }
    let mut heap = LazyMinHeap::from_entries(entries);

    let mut absorbed = 0.0;
    let capacity = work.capacity();
    while absorbed + EPS < amount {
        let Some(cand) = heap.pop_current(|_| true, |c| gain_ratio(work, c)) else {
            break;
        };
        let (idx, slot, kind) = unpack_slot(cand);
        let (o, size, gain) = match kind {
            SlotKind::Compulsory => {
                let (o, size) = work.comp_slot(idx, slot);
                (o, size, work.freq(idx))
            }
            SlotKind::Optional => {
                let (o, size, _, load) = work.opt_slot(idx, slot);
                (o, size, load)
            }
        };
        // Processing capacity must keep holding (Eq. 8) — including the
        // refresh load a fresh replica would add under update accounting.
        let stored = work.is_stored_local(o);
        let alloc_extra = if stored {
            0.0
        } else {
            work.update_rate_local(o)
        };
        if work.load() + gain + alloc_extra > capacity + EPS {
            continue; // permanently: load only grows during absorption
        }
        // Storage: stored objects are free; new ones need permission+space.
        if !stored {
            if !(allow_alloc && work.space_left() >= size.get()) {
                continue;
            }
            work.alloc_local(o);
        }
        match kind {
            SlotKind::Compulsory => work.set_compulsory(idx, slot, true),
            SlotKind::Optional => work.set_optional(idx, slot, true),
        }
        absorbed += gain;
    }
    absorbed
}

/// The greedy key for absorption: objective change per unit of workload
/// gained (negative = taking this download actually *improves* response
/// time — those go first).
fn gain_ratio(work: &SiteWork<'_>, cand: Candidate) -> f64 {
    let (idx, slot, kind) = unpack_slot(cand);
    let freq = work.freq(idx);
    match kind {
        SlotKind::Compulsory => {
            let (_, size) = work.comp_slot(idx, slot);
            let before = work.streams(idx).response(work.params());
            let after = work.streams(idx).response_if_local(size, work.params());
            freq * work.alpha1() * (after - before) / freq.max(f64::MIN_POSITIVE)
        }
        SlotKind::Optional => {
            let (_, size, prob, delta_load) = work.opt_slot(idx, slot);
            let delta_d = freq
                * work.alpha2()
                * work
                    .optional_cost(idx)
                    .delta_if_flipped(prob, size, true, work.params());
            delta_d / delta_load.max(f64::MIN_POSITIVE)
        }
    }
}

/// Stored objects as `(id, held workload, size)`, lowest workload per
/// byte first — the order [`swap_for_workload`] evicts in.
fn stored_by_value(work: &SiteWork<'_>) -> Vec<(ObjectId, f64, u64)> {
    let mut stored: Vec<(ObjectId, f64, u64)> = work
        .stored_objects()
        .into_iter()
        .map(|k| {
            (
                k,
                held_workload(work, k),
                work.system().object_size(k).get(),
            )
        })
        .collect();
    stored.sort_by(|a, b| {
        let ra = a.1 / a.2.max(1) as f64;
        let rb = b.1 / b.2.max(1) as f64;
        ra.total_cmp(&rb).then(a.0.cmp(&b.0))
    });
    stored
}

/// The paper's swap step: deallocate stored objects that hold little
/// workload per byte and make room for unstored objects whose remote
/// references would let the site absorb more. Returns swaps performed.
fn swap_for_workload(work: &mut SiteWork<'_>, needed: f64, max_swaps: usize) -> usize {
    // Potential workload of unstored objects (by local index, which
    // orders like the object id): sum over remote references (what
    // absorb_greedy could take if the object were stored).
    let mut candidates: Vec<(usize, f64, u64)> = Vec::new();
    let mut seen = DenseBits::zeros(work.n_local_objects());
    for idx in 0..work.n_pages() {
        let part = work.partition(idx);
        for (slot, &local) in part.local_compulsory.iter().enumerate() {
            let (o, size) = work.comp_slot(idx, slot);
            if !local && !work.is_stored_local(o) && seen.set(o) {
                candidates.push((o, potential_workload(work, o), size.get()));
            }
        }
        for (slot, &local) in part.local_optional.iter().enumerate() {
            let (o, size, _, _) = work.opt_slot(idx, slot);
            if !local && !work.is_stored_local(o) && seen.set(o) {
                candidates.push((o, potential_workload(work, o), size.get()));
            }
        }
    }
    // Highest workload-per-byte first.
    candidates.sort_by(|a, b| {
        let ra = a.1 / a.2.max(1) as f64;
        let rb = b.1 / b.2.max(1) as f64;
        rb.total_cmp(&ra).then(a.0.cmp(&b.0))
    });

    let mut swaps = 0;
    let mut still_needed = needed;
    // The eviction order only changes when a swap changes the store.
    let mut stored: Option<Vec<(ObjectId, f64, u64)>> = None;
    for (obj, gain, size) in candidates {
        if swaps >= max_swaps || still_needed <= EPS {
            break;
        }
        if gain <= EPS {
            break; // sorted: nothing useful follows
        }
        // Free space by evicting the lowest-value stored objects, as long
        // as the value evicted stays below the value gained.
        let by_value = stored.get_or_insert_with(|| stored_by_value(work));
        let mut to_evict = Vec::new();
        let mut freed = work.space_left();
        let mut evicted_value = 0.0;
        for &(k, held, ksize) in by_value.iter() {
            if freed >= size {
                break;
            }
            to_evict.push(k);
            freed += ksize;
            evicted_value += held;
        }
        if freed < size || evicted_value + EPS >= gain {
            continue; // not worth it (or impossible)
        }
        // Under update accounting the incoming replica adds refresh load.
        if work.load() + work.update_rate_local(obj) > work.capacity() + EPS {
            continue;
        }
        for k in to_evict {
            work.dealloc(k);
        }
        work.alloc_local(obj);
        // Mark the new object's remote references local, capacity
        // permitting (net workload change: +gain - evicted_value).
        mark_all_refs_local(work, obj);
        still_needed -= gain - evicted_value;
        swaps += 1;
        stored = None;
    }
    swaps
}

/// Workload the site would gain by serving every remote reference of
/// local object `o` locally, capacity permitting.
fn potential_workload(work: &SiteWork<'_>, o: usize) -> f64 {
    let mut total = 0.0;
    for &(idx, slot) in work.comp_refs_local(o) {
        let (idx, slot) = (idx as usize, slot as usize);
        if !work.partition(idx).local_compulsory[slot] {
            total += work.freq(idx);
        }
    }
    for &(idx, slot) in work.opt_refs_local(o) {
        let (idx, slot) = (idx as usize, slot as usize);
        if !work.partition(idx).local_optional[slot] {
            total += work.opt_slot(idx, slot).3;
        }
    }
    total
}

/// Workload currently held by `object`'s local marks.
fn held_workload(work: &SiteWork<'_>, object: ObjectId) -> f64 {
    let mut total = 0.0;
    for &(idx, slot) in work.compulsory_refs(object) {
        let (idx, slot) = (idx as usize, slot as usize);
        if work.partition(idx).local_compulsory[slot] {
            total += work.freq(idx);
        }
    }
    for &(idx, slot) in work.optional_refs(object) {
        let (idx, slot) = (idx as usize, slot as usize);
        if work.partition(idx).local_optional[slot] {
            total += work.opt_slot(idx, slot).3;
        }
    }
    total
}

/// Marks every remote reference of local object `o` local, capacity
/// permitting.
fn mark_all_refs_local(work: &mut SiteWork<'_>, o: usize) {
    let capacity = work.capacity();
    let comp: Vec<(u32, u32)> = work.comp_refs_local(o).to_vec();
    for (idx, slot) in comp {
        let (idx, slot) = (idx as usize, slot as usize);
        if !work.partition(idx).local_compulsory[slot] {
            let gain = work.freq(idx);
            if work.load() + gain <= capacity + EPS {
                work.set_compulsory(idx, slot, true);
            }
        }
    }
    let opt: Vec<(u32, u32)> = work.opt_refs_local(o).to_vec();
    for (idx, slot) in opt {
        let (idx, slot) = (idx as usize, slot as usize);
        if !work.partition(idx).local_optional[slot] {
            let gain = work.opt_slot(idx, slot).3;
            if work.load() + gain <= capacity + EPS {
                work.set_optional(idx, slot, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::restore_capacity;
    use crate::partition::partition_all;
    use crate::storage::restore_storage;
    use mmrepl_model::{CostParams, System};
    use mmrepl_workload::{generate_system, WorkloadParams};

    /// Builds per-site works after local restorations, as the planner does.
    fn restored_works(sys: &System) -> Vec<SiteWork<'_>> {
        let placement = partition_all(sys);
        sys.sites()
            .ids()
            .map(|s| {
                let mut w = SiteWork::new(sys, s, &placement, CostParams::default());
                restore_storage(&mut w);
                restore_capacity(&mut w);
                w
            })
            .collect()
    }

    #[test]
    fn unconstrained_repository_ends_immediately() {
        let sys = generate_system(&WorkloadParams::small(), 1).unwrap();
        let mut works = restored_works(&sys);
        let outcome = run_offload(&mut works, f64::INFINITY, &OffloadConfig::default());
        assert!(outcome.report.feasible);
        assert_eq!(outcome.report.rounds, 0);
        assert!(!outcome.changed);
        assert_eq!(outcome.report.absorbed, 0.0);
        // Status + End per site.
        assert_eq!(outcome.report.messages, 2 * sys.n_sites() as u64);
    }

    #[test]
    fn negotiation_restores_repo_constraint() {
        let sys = generate_system(&WorkloadParams::small(), 2).unwrap();
        // Give sites slack so they genuinely can absorb (L1 sites), but
        // squeeze the repository to 70% of the current planner-induced
        // load.
        let sys = sys.with_processing_fraction(1.2);
        let mut works = restored_works(&sys);
        let initial: f64 = works.iter().map(|w| w.repo_load()).sum();
        assert!(initial > 0.0, "planner left nothing on the repository");
        let cap = initial * 0.7;

        let outcome = run_offload(&mut works, cap, &OffloadConfig::default());
        let after: f64 = works.iter().map(|w| w.repo_load()).sum();
        assert!(outcome.report.feasible, "{:?}", outcome.report);
        assert!(after <= cap + 1e-6, "repo load {after} > cap {cap}");
        assert!(outcome.changed);
        assert!(outcome.report.rounds >= 1);
        assert!(outcome.report.absorbed > 0.0);
        assert!(
            (initial - after - outcome.report.absorbed).abs() < 1e-6,
            "absorbed accounting: {} vs {}",
            initial - after,
            outcome.report.absorbed
        );
        for w in &works {
            assert!(
                w.load() <= w.capacity() + 1e-6,
                "Eq. 8 broken at {}",
                w.site()
            );
            assert!(
                w.storage_used() <= w.storage_capacity(),
                "Eq. 10 broken at {}",
                w.site()
            );
            w.validate_consistency();
        }
    }

    #[test]
    fn infeasible_when_sites_have_no_headroom() {
        let sys = generate_system(&WorkloadParams::small(), 3).unwrap();
        // Capacity exactly at the all-local load; after the planner the
        // load is below that, but squeeze to 30% so restoration leaves
        // sites pinned at capacity with no headroom.
        let sys = sys.with_processing_fraction(0.3);
        let mut works = restored_works(&sys);
        let initial: f64 = works.iter().map(|w| w.repo_load()).sum();
        let outcome = run_offload(&mut works, initial * 0.2, &OffloadConfig::default());
        // Sites are pinned at capacity: nothing can move.
        assert!(!outcome.report.feasible, "{:?}", outcome.report);
        for w in &works {
            assert!(w.load() <= w.capacity() + 1e-6);
        }
    }

    #[test]
    fn rounds_and_messages_accounted() {
        let sys = generate_system(&WorkloadParams::small(), 4).unwrap();
        let sys = sys.with_processing_fraction(1.5);
        let mut works = restored_works(&sys);
        let initial: f64 = works.iter().map(|w| w.repo_load()).sum();
        let outcome = run_offload(&mut works, initial * 0.8, &OffloadConfig::default());
        assert!(outcome.report.feasible);
        // messages = status (n) + per-round NewReq+Absorbed pairs + End (n)
        let n = sys.n_sites() as u64;
        assert!(outcome.report.messages >= 2 * n);
        assert!(outcome.report.control_time > 0.0);
    }

    #[test]
    fn absorb_respects_local_capacity() {
        let sys = generate_system(&WorkloadParams::small(), 5).unwrap();
        let sys = sys.with_processing_fraction(1.1);
        let placement = partition_all(&sys);
        let mut w = SiteWork::new(
            &sys,
            mmrepl_model::SiteId::new(0),
            &placement,
            CostParams::default(),
        );
        restore_storage(&mut w);
        restore_capacity(&mut w);
        // Ask for far more than the headroom.
        let result = absorb_workload(&mut w, 1e9, true, 0);
        assert!(result.exhausted);
        assert!(w.load() <= w.capacity() + 1e-6);
        w.validate_consistency();
    }

    #[test]
    fn absorb_without_alloc_only_uses_stored_objects() {
        let sys = generate_system(&WorkloadParams::small(), 6).unwrap();
        let placement = partition_all(&sys);
        let mut w = SiteWork::new(
            &sys,
            mmrepl_model::SiteId::new(1),
            &placement,
            CostParams::default(),
        );
        restore_storage(&mut w);
        restore_capacity(&mut w);
        let stored_before: std::collections::HashSet<ObjectId> =
            w.stored_objects().into_iter().collect();
        let _ = absorb_workload(&mut w, 0.5, false, 0);
        for k in w.stored_objects() {
            assert!(
                stored_before.contains(&k),
                "L2 absorption allocated new object {k}"
            );
        }
        w.validate_consistency();
    }

    #[test]
    fn absorb_zero_amount_is_noop() {
        let sys = generate_system(&WorkloadParams::small(), 7).unwrap();
        let placement = partition_all(&sys);
        let mut w = SiteWork::new(
            &sys,
            mmrepl_model::SiteId::new(0),
            &placement,
            CostParams::default(),
        );
        let d = w.total_d();
        let result = absorb_workload(&mut w, 0.0, true, 0);
        assert_eq!(result.absorbed, 0.0);
        assert!(!result.exhausted);
        assert!((w.total_d() - d).abs() < 1e-12);
    }

    #[test]
    fn equal_split_also_restores_but_proportional_uses_no_more_rounds() {
        // A4 ablation: the naive equal split can leave headroom stranded
        // at small sites and need extra rounds; the paper's proportional
        // rule never does worse on rounds here.
        let sys = generate_system(&WorkloadParams::small(), 9).unwrap();
        let sys = sys.with_processing_fraction(1.4);
        let run = |rule: AssignmentRule| {
            let mut works = restored_works(&sys);
            let initial: f64 = works.iter().map(|w| w.repo_load()).sum();
            let cfg = OffloadConfig { assignment: rule };
            run_offload(&mut works, initial * 0.7, &cfg).report
        };
        let prop = run(AssignmentRule::ProportionalToHeadroom);
        let eq = run(AssignmentRule::EqualSplit);
        assert!(prop.feasible);
        assert!(eq.feasible);
        assert!(
            prop.rounds <= eq.rounds,
            "proportional {} rounds vs equal {} rounds",
            prop.rounds,
            eq.rounds
        );
    }

    #[test]
    fn storage_bound_site_forces_a_second_round() {
        // Hand-built scenario: two sites with equal cpu headroom, but one
        // can store almost nothing. Round 1 splits the excess equally; the
        // storage-bound site falls short and demotes itself to L3; round 2
        // reassigns the shortfall to the other site.
        use mmrepl_model::{
            Bytes, BytesPerSec, MediaObject, Placement, ReqPerSec, Secs, Site, SystemBuilder,
            WebPage,
        };
        let object_kib = 100u64;
        let mut b = SystemBuilder::new();
        let make_site = |storage: Bytes| Site {
            storage,
            capacity: ReqPerSec(1000.0),
            local_rate: BytesPerSec::kib_per_sec(10.0),
            repo_rate: BytesPerSec::kib_per_sec(1.0),
            local_ovhd: Secs(1.0),
            repo_ovhd: Secs(2.0),
        };
        // Site B: room for ~1 object beyond its HTML (10 pages x 1 KiB).
        let site_b = b.add_site(make_site(Bytes::kib(10 + object_kib + 20)));
        // Site C: effectively unlimited storage.
        let site_c = b.add_site(make_site(Bytes::gib(1)));
        for site in [site_b, site_c] {
            for _ in 0..10 {
                let obj = b.add_object(MediaObject::of_size(Bytes::kib(object_kib)));
                b.add_page(WebPage {
                    site,
                    html_size: Bytes::kib(1),
                    freq: ReqPerSec(1.0),
                    compulsory: vec![obj],
                    optional: vec![],
                    opt_req_factor: 1.0,
                });
            }
        }
        let sys = b.build().unwrap();

        // Start all-remote: every object download hits the repository.
        let placement = Placement::all_remote(&sys);
        let mut works: Vec<SiteWork<'_>> = sys
            .sites()
            .ids()
            .map(|s| SiteWork::new(&sys, s, &placement, mmrepl_model::CostParams::default()))
            .collect();
        let initial: f64 = works.iter().map(|w| w.repo_load()).sum();
        assert_eq!(initial, 20.0);

        // Demand 10 req/s back: equal headroom means 5 req/s each in round
        // 1, but site B can store only one object (1 req/s).
        let outcome = run_offload(&mut works, initial - 10.0, &OffloadConfig::default());
        assert!(outcome.report.feasible, "{:?}", outcome.report);
        assert!(
            outcome.report.rounds >= 2,
            "expected a multi-round negotiation: {:?}",
            outcome.report
        );
        assert!((outcome.report.absorbed - 10.0).abs() < 1e-9);
        // Site B is storage-capped at one stored object's worth of load.
        let b_load = works[0].load();
        // Base load: 10 pages x 1 req/s HTML = 10; plus at most ~1 for the
        // single storable object.
        assert!(b_load <= 11.0 + 1e-9, "site B over-absorbed: {b_load}");
        for w in &works {
            assert!(w.storage_used() <= w.storage_capacity());
            w.validate_consistency();
        }
    }

    #[test]
    fn clean_negotiation_reports_zero_dropped() {
        let sys = generate_system(&WorkloadParams::small(), 12).unwrap();
        let sys = sys.with_processing_fraction(1.2);
        let mut works = restored_works(&sys);
        let initial: f64 = works.iter().map(|w| w.repo_load()).sum();
        let outcome = run_offload(&mut works, initial * 0.8, &OffloadConfig::default());
        assert_eq!(outcome.report.dropped, 0);
    }

    #[test]
    fn offload_is_deterministic() {
        let sys = generate_system(&WorkloadParams::small(), 8).unwrap();
        let sys = sys.with_processing_fraction(1.3);
        let run = || {
            let mut works = restored_works(&sys);
            let initial: f64 = works.iter().map(|w| w.repo_load()).sum();
            let o = run_offload(&mut works, initial * 0.75, &OffloadConfig::default());
            let d: f64 = works.iter().map(|w| w.total_d()).sum();
            (o.report, d)
        };
        let (ra, da) = run();
        let (rb, db) = run();
        assert_eq!(ra, rb);
        assert!((da - db).abs() < 1e-12);
    }

    /// FNV-1a over a stream of words: a fingerprint that stays stable
    /// across toolchains (std's hashers promise no such thing).
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Storage-full sites asked for more than their stored objects carry
    /// must swap, and the swap step's output — every mark, the store, the
    /// load and the report — is pinned to a fingerprint of the output the
    /// per-candidate rebuild of the eviction order produced, with and
    /// without update accounting.
    #[test]
    fn swaps_are_pinned_to_a_fingerprint() {
        let mut words = Vec::new();
        let mut total_swaps = 0;
        for seed in 0..6u64 {
            for updates in [false, true] {
                let sys = generate_system(&WorkloadParams::small(), 100 + seed)
                    .unwrap()
                    .with_storage_fraction(0.3)
                    .with_processing_fraction(3.0)
                    .map_update_rates(|k, _| 0.001 * (k.raw() % 7) as f64);
                let placement = partition_all(&sys);
                for s in sys.sites().ids() {
                    let mut w = SiteWork::with_update_accounting(
                        &sys,
                        s,
                        &placement,
                        CostParams::default(),
                        updates,
                    );
                    restore_storage(&mut w);
                    restore_capacity(&mut w);
                    let ask = w.headroom();
                    let r = absorb_workload(&mut w, ask, false, 64);
                    w.validate_consistency();
                    total_swaps += r.swaps;
                    words.extend([r.swaps as u64, r.absorbed.to_bits(), r.exhausted as u64]);
                    words.extend([w.load().to_bits(), w.storage_used(), w.total_d().to_bits()]);
                    words.extend(w.stored_objects().iter().map(|k| k.raw() as u64));
                    for idx in 0..w.n_pages() {
                        let part = w.partition(idx);
                        words.extend(part.local_compulsory.iter().map(|&b| b as u64));
                        words.extend(part.local_optional.iter().map(|&b| b as u64));
                    }
                }
            }
        }
        assert_eq!(total_swaps, 742, "the scenario's swap count moved");
        assert_eq!(fnv(words), 0x09fb_928c_6314_5bf5, "swap output changed");
    }
}
