//! Storage-constraint restoration (Eq. 10), Section 4.2.
//!
//! While a site stores more bytes than `Size(S_i)`, deallocate the stored
//! object whose removal raises the objective least **per byte freed**
//! ("the difference in D ... is amortized over the size of an object ...
//! to make our criterion more judicious over large objects"), then give
//! the pages that lost a local download a chance to re-balance against the
//! shrunken store ("after each deallocation we check whether we can reduce
//! the download time for pages previously marking the deallocated MO").
//!
//! The candidate ranking lives in a lazily-revalidated min-heap
//! ([`crate::lazyheap`]): deltas of
//! objects sharing a page with the victim go stale on each deallocation,
//! so each pop re-computes the candidate's current delta and re-inserts it
//! unless it is still at least as good as the next-best key. With ~4,500
//! stored objects per site and a handful of references each, restoration
//! is near-linear in the number of deallocations. The heap holds site-local
//! object indices ([`crate::state`]), whose order is id order, so no pop,
//! validity check or re-key resolves an id.
//!
//! Re-partitioning an affected page ([`SiteWork::repartition_page`]) prices
//! the greedy candidate without writing it: the candidate's streams are
//! integer byte sums and its optional cost is a copy advanced by the
//! differing slots' flips. Only a winning candidate is applied. A losing
//! one leaves the page as it was, except that `load` and the page's
//! optional cost are advanced through the same apply-then-revert float
//! sequence a trial write would have run, so every later key and the
//! capacity stage's feasibility test see the bits they always saw.
//!
//! ## The no-op precheck
//!
//! About half of all re-partition attempts end with a candidate equal to
//! the page's current marks, and almost all of those are decided before
//! the greedy runs. When no stored compulsory object of the page is
//! marked remote (`SiteWork` tracks that count per page), the remote
//! stream is exactly the unstored objects, so
//! `R0 = repo_ovhd + remote_bytes / repo_rate` is, bit for bit, the
//! remote time the greedy starts from. Let `L` be
//! `local_ovhd + local_bytes / local_rate` and `n` the page's compulsory
//! slot count. If
//!
//! ```text
//! R0 ≥ L · (1 + (n + 8) · f64::EPSILON)
//! ```
//!
//! then every partial local sum the greedy forms is at most `R0`: an
//! in-order sum of `n + 2` non-negative rounded terms exceeds the direct
//! expression `L` by at most `(n + 5) · 2⁻⁵³` relative, and the margin is
//! about twice that. Every `remote_if` is at least `R0`, so the greedy
//! marks every stored slot local — the marks the page already has. If
//! every optional mark also equals `stored ∧ local fetch wins`, the call
//! returns `false` without running the greedy: the full path would have
//! written nothing. Every other page, including one near the margin, runs
//! the unchanged greedy. Debug builds run the greedy on skipped pages too
//! and assert that it flips nothing. [`StorageReport::repartition_skipped`]
//! counts the skips; [`StorageReport::repartition_calls`] still counts
//! every attempt.

use crate::lazyheap::LazyMinHeap;
use crate::state::SiteWork;
use serde::{Deserialize, Serialize};

/// The greedy deallocation criterion (A2 ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeallocCriterion {
    /// Objective damage divided by bytes freed — the paper's criterion
    /// ("amortized over the size of an object").
    #[default]
    AmortizedOverSize,
    /// Raw objective damage, ignoring object size.
    RawDelta,
}

/// What storage restoration did to one site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StorageReport {
    /// Objects deallocated by the greedy criterion.
    pub deallocated: usize,
    /// Orphaned objects dropped for free (lost their last mark during
    /// re-partitioning).
    pub orphaned: usize,
    /// Pages whose partition improved after a deallocation.
    pub repartitioned: usize,
    /// Re-partitioning attempts, kept or not: one per page that lost a
    /// local download to a deallocation.
    #[serde(default)]
    pub repartition_calls: u64,
    /// The attempts among those that the no-op precheck answered without
    /// running the greedy (see the module docs).
    #[serde(default)]
    pub repartition_skipped: u64,
    /// Bytes freed in total.
    pub bytes_freed: u64,
    /// Raw candidate-heap pops, including dead/stale entries the lazy
    /// revalidation cycled through (see [`crate::lazyheap`]).
    #[serde(default)]
    pub heap_pops: u64,
    /// Whether the constraint was met. `false` only when even the empty
    /// store (HTML alone) exceeds capacity.
    pub feasible: bool,
}

/// Restores Eq. 10 for one site with the paper's amortized criterion.
/// Idempotent: returns immediately (feasible, zero work) when the site
/// already fits.
pub fn restore_storage(work: &mut SiteWork<'_>) -> StorageReport {
    restore_storage_with(work, DeallocCriterion::AmortizedOverSize)
}

/// Restores Eq. 10 with an explicit deallocation criterion (A2 ablation).
pub fn restore_storage_with(work: &mut SiteWork<'_>, criterion: DeallocCriterion) -> StorageReport {
    let mut report = StorageReport {
        feasible: true,
        ..StorageReport::default()
    };
    let capacity = work.storage_capacity();
    if work.storage_used() <= capacity {
        return report;
    }

    // Free orphans first — they cost nothing.
    let freed = work.drop_orphans();
    if freed > 0 {
        report.bytes_freed += freed;
    }

    // Every markless `alloc` queued its object for `drop_orphans`, which
    // just dropped them all: the store is now local objects only, so the
    // heap can key by local index (ascending like the ids it stands for,
    // so ties break as they would by id).
    debug_assert!(!work.has_foreign());

    // Min-heap of (criterion key, local object). Lazy revalidation on pop:
    // entries whose object was orphaned meanwhile are dead, entries whose
    // delta grew are re-keyed.
    let mut heap = LazyMinHeap::from_entries(
        work.stored_locals()
            .map(|o| (dealloc_key(work, o, criterion), o as u64)),
    );

    let skipped_before = work.repartition_skipped();
    let mut affected = Vec::new();
    while work.storage_used() > capacity {
        let Some(o) = heap.pop_current(
            |o| work.is_stored_local(o as usize),
            |o| dealloc_key(work, o as usize, criterion),
        ) else {
            // Store is empty but HTML alone overflows: infeasible.
            report.feasible = false;
            break;
        };

        let o = o as usize;
        let size = work.object_size_local(o).get();
        work.dealloc_local_into(o, &mut affected);
        report.deallocated += 1;
        report.bytes_freed += size;

        // Let the pages that lost a local download re-balance.
        report.repartition_calls += affected.len() as u64;
        for &idx in &affected {
            if work.repartition_page(idx) {
                report.repartitioned += 1;
            }
        }
        // Re-partitioning may strip the last mark from other objects.
        let orphan_bytes = work.drop_orphans();
        if orphan_bytes > 0 {
            report.bytes_freed += orphan_bytes;
            report.orphaned += 1;
        }
    }

    if work.storage_used() > capacity {
        report.feasible = false;
    }
    report.heap_pops = heap.pops();
    report.repartition_skipped = work.repartition_skipped() - skipped_before;
    report
}

/// The greedy key of local object `o` under the chosen criterion.
fn dealloc_key(work: &SiteWork<'_>, o: usize, criterion: DeallocCriterion) -> f64 {
    let delta = work.delta_d_dealloc_local(o);
    match criterion {
        DeallocCriterion::AmortizedOverSize => delta / work.object_size_local(o).get() as f64,
        DeallocCriterion::RawDelta => delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_all;
    use mmrepl_model::{CostParams, SiteId, System};
    use mmrepl_workload::{generate_system, WorkloadParams};

    fn constrained_system(frac: f64, seed: u64) -> System {
        generate_system(&WorkloadParams::small(), seed)
            .unwrap()
            .with_storage_fraction(frac)
            .with_processing_fraction(10.0) // relax Eq. 8 (Figure 1 setup)
    }

    fn restored(sys: &System, site: u32) -> (SiteWork<'_>, StorageReport) {
        let placement = partition_all(sys);
        let mut w = SiteWork::new(sys, SiteId::new(site), &placement, CostParams::default());
        let report = restore_storage(&mut w);
        (w, report)
    }

    #[test]
    fn already_feasible_is_a_noop() {
        let sys = constrained_system(1.0, 1);
        let (w, report) = restored(&sys, 0);
        assert!(report.feasible);
        assert_eq!(report.deallocated, 0);
        assert!(w.storage_used() <= w.storage_capacity());
    }

    #[test]
    fn restores_constraint_at_every_sweep_point() {
        for &frac in &[0.8, 0.6, 0.4, 0.2] {
            let sys = constrained_system(frac, 2);
            for site in 0..sys.n_sites() as u32 {
                let (w, report) = restored(&sys, site);
                assert!(report.feasible, "frac {frac} site {site}");
                assert!(
                    w.storage_used() <= w.storage_capacity(),
                    "frac {frac} site {site}: {} > {}",
                    w.storage_used(),
                    w.storage_capacity()
                );
                w.validate_consistency();
            }
        }
    }

    #[test]
    fn deallocation_count_tracks_pressure() {
        let sys_mild = constrained_system(0.8, 3);
        let sys_hard = constrained_system(0.3, 3);
        let (_, mild) = restored(&sys_mild, 0);
        let (_, hard) = restored(&sys_hard, 0);
        assert!(
            hard.deallocated > mild.deallocated,
            "mild {mild:?} hard {hard:?}"
        );
        assert!(hard.bytes_freed > mild.bytes_freed);
    }

    #[test]
    fn objective_degrades_gracefully_not_catastrophically() {
        // The criterion's job: losing 40% of storage must land the
        // objective far closer to the unconstrained optimum than to the
        // all-remote catastrophe (the small test workload shares little
        // between pages, so some degradation is unavoidable).
        let sys = constrained_system(10.0, 4); // effectively unconstrained
        let placement = partition_all(&sys);
        let w_free = SiteWork::new(&sys, SiteId::new(0), &placement, CostParams::default());
        let d_free = w_free.total_d();
        let remote = mmrepl_model::Placement::all_remote(&sys);
        let d_remote =
            SiteWork::new(&sys, SiteId::new(0), &remote, CostParams::default()).total_d();
        assert!(d_remote > d_free * 2.0, "workload too easy to discriminate");

        let sys_tight = constrained_system(0.6, 4);
        let (w_tight, report) = restored(&sys_tight, 0);
        assert!(report.feasible);
        let d_tight = w_tight.total_d();
        assert!(d_tight >= d_free - 1e-9, "constraint can't improve D");
        // Closer to the optimum than to all-remote.
        assert!(
            d_tight - d_free < (d_remote - d_free) * 0.5,
            "60% storage: D {d_tight:.1} vs free {d_free:.1}, remote {d_remote:.1}"
        );
    }

    #[test]
    fn greedy_beats_random_deallocation() {
        let sys = constrained_system(0.5, 5);
        let placement = partition_all(&sys);

        let mut greedy = SiteWork::new(&sys, SiteId::new(0), &placement, CostParams::default());
        let report = restore_storage(&mut greedy);
        assert!(report.feasible);

        // Random-order (id-order) deallocation to the same capacity.
        let mut blind = SiteWork::new(&sys, SiteId::new(0), &placement, CostParams::default());
        let mut stored = blind.stored_objects();
        stored.sort(); // deterministic "uninformed" order
        let mut i = 0;
        while blind.storage_used() > blind.storage_capacity() && i < stored.len() {
            if blind.is_stored(stored[i]) {
                blind.dealloc(stored[i]);
            }
            i += 1;
        }
        assert!(blind.storage_used() <= blind.storage_capacity());
        assert!(
            greedy.total_d() <= blind.total_d(),
            "greedy {} should beat blind {}",
            greedy.total_d(),
            blind.total_d()
        );
    }

    #[test]
    fn infeasible_when_html_alone_overflows() {
        let sys = generate_system(&WorkloadParams::small(), 6)
            .unwrap()
            .with_storage_fraction(0.0001);
        let placement = partition_all(&sys);
        let mut w = SiteWork::new(&sys, SiteId::new(0), &placement, CostParams::default());
        let report = restore_storage(&mut w);
        assert!(!report.feasible);
        // Everything deallocatable was deallocated.
        assert!(w.stored_objects().is_empty());
    }

    #[test]
    fn amortized_criterion_not_worse_than_raw_delta() {
        // A2 ablation: the paper's per-byte amortization should not lose
        // to raw-delta on the very workload it was designed for.
        let sys = constrained_system(0.5, 11);
        let placement = partition_all(&sys);
        let mut amortized = SiteWork::new(&sys, SiteId::new(0), &placement, CostParams::default());
        let ra = restore_storage_with(&mut amortized, DeallocCriterion::AmortizedOverSize);
        let mut raw = SiteWork::new(&sys, SiteId::new(0), &placement, CostParams::default());
        let rr = restore_storage_with(&mut raw, DeallocCriterion::RawDelta);
        assert!(ra.feasible && rr.feasible);
        // Raw delta deallocates cheap-but-tiny objects first and needs
        // far more deallocations to free the same bytes.
        assert!(
            rr.deallocated >= ra.deallocated,
            "raw {} vs amortized {}",
            rr.deallocated,
            ra.deallocated
        );
        assert!(
            amortized.total_d() <= raw.total_d() * 1.05,
            "amortized D {} vs raw D {}",
            amortized.total_d(),
            raw.total_d()
        );
    }

    #[test]
    fn restoration_is_deterministic() {
        let sys = constrained_system(0.5, 7);
        let (a, ra) = restored(&sys, 1);
        let (b, rb) = restored(&sys, 1);
        assert_eq!(ra, rb);
        assert_eq!(a.storage_used(), b.storage_used());
        assert!((a.total_d() - b.total_d()).abs() < 1e-12);
    }
}
