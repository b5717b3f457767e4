//! Local processing-capacity restoration (Eq. 8), Section 4.2.
//!
//! While a site's offered HTTP load exceeds `C(S_i)`, move the
//! `(page, local MO)` download whose transfer back to the repository
//! degrades the objective least **per request/second freed** ("amortized
//! over the difference between the new workload and the required one" —
//! per unit of workload, to be judicious over frequently-accessed pages).
//! An object that loses its last local mark is deallocated, "further
//! reducing the storage space required".
//!
//! Candidates live in the same lazily-revalidated min-heap
//! ([`crate::lazyheap`]) as storage restoration; flipping a slot only
//! staleness-es the other slots of the same page, which the pop-time
//! recheck fixes. Keys and moves read the site's slot arenas and local
//! mark counts ([`crate::state`]), never the system's page or object
//! tables.

use crate::lazyheap::{pack_slot, unpack_slot, LazyMinHeap};
use crate::state::{SiteWork, SlotKind};
use serde::{Deserialize, Serialize};

/// What capacity restoration did to one site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CapacityReport {
    /// `(page, object)` downloads moved back to the repository.
    pub moves: usize,
    /// Objects deallocated after losing their last local mark.
    pub deallocated: usize,
    /// Bytes freed by those deallocations.
    pub bytes_freed: u64,
    /// Raw candidate-heap pops, including dead/stale entries the lazy
    /// revalidation cycled through (see [`crate::lazyheap`]).
    #[serde(default)]
    pub heap_pops: u64,
    /// Whether the constraint was met. `false` means even serving HTML
    /// alone exceeds the capacity (the deep end of the Figure 2 sweep).
    pub feasible: bool,
}

/// One candidate mark: page index, slot and kind, packed by
/// [`pack_slot`].
type Candidate = u64;

/// Restores Eq. 8 for one site.
pub fn restore_capacity(work: &mut SiteWork<'_>) -> CapacityReport {
    let mut report = CapacityReport {
        feasible: true,
        ..CapacityReport::default()
    };
    let capacity = work.capacity();
    const EPS: f64 = 1e-9;
    if work.load() <= capacity + EPS {
        return report;
    }

    // Seed the heap with every local mark. Marks already flipped are dead
    // entries (shouldn't happen — each is pushed once — but cheap to
    // guard); deltas stale-d by earlier flips on the same page are
    // re-keyed on pop.
    let mut seed: Vec<(f64, Candidate)> = Vec::new();
    for idx in 0..work.n_pages() {
        let part = work.partition(idx);
        for (slot, &local) in part.local_compulsory.iter().enumerate() {
            if local {
                let cand = pack_slot(idx, slot, SlotKind::Compulsory);
                seed.push((ratio(work, cand), cand));
            }
        }
        for (slot, &local) in part.local_optional.iter().enumerate() {
            if local {
                let cand = pack_slot(idx, slot, SlotKind::Optional);
                seed.push((ratio(work, cand), cand));
            }
        }
    }
    let mut heap = LazyMinHeap::from_entries(seed);

    let still_local = |work: &SiteWork<'_>, cand: Candidate| match unpack_slot(cand) {
        (idx, slot, SlotKind::Compulsory) => work.partition(idx).local_compulsory[slot],
        (idx, slot, SlotKind::Optional) => work.partition(idx).local_optional[slot],
    };

    let mut affected = Vec::new();
    while work.load() > capacity + EPS {
        let Some(cand) = heap.pop_current(|c| still_local(work, c), |c| ratio(work, c)) else {
            report.feasible = false;
            break;
        };
        let (idx, slot, kind) = unpack_slot(cand);
        let (o, size) = match kind {
            SlotKind::Compulsory => {
                work.set_compulsory(idx, slot, false);
                work.comp_slot(idx, slot)
            }
            SlotKind::Optional => {
                work.set_optional(idx, slot, false);
                let (o, size, _, _) = work.opt_slot(idx, slot);
                (o, size)
            }
        };
        report.moves += 1;

        // "If through this process an object is marked in all the pages as
        // not to be downloaded locally, we deallocate it."
        if work.marks_on_local(o) == 0 && work.is_stored_local(o) {
            work.dealloc_local_into(o, &mut affected);
            report.deallocated += 1;
            report.bytes_freed += size.get();
        }
    }

    if work.load() > capacity + EPS {
        report.feasible = false;
    }
    report.heap_pops = heap.pops();
    report
}

/// The greedy key: objective damage per request/second of load freed.
/// Reads the site's slot arenas only.
fn ratio(work: &SiteWork<'_>, cand: Candidate) -> f64 {
    let (idx, slot, kind) = unpack_slot(cand);
    let freq = work.freq(idx);
    // Moving the object's *last* local mark lets the dealloc that follows
    // also shed its refresh load (zero unless update accounting is on).
    let orphan_bonus = |o| {
        if work.marks_on_local(o) == 1 {
            work.update_rate_local(o)
        } else {
            0.0
        }
    };
    match kind {
        SlotKind::Compulsory => {
            let (o, size) = work.comp_slot(idx, slot);
            let before = work.streams(idx).response(work.params());
            let after = work.streams(idx).response_if_remote(size, work.params());
            let delta_d = freq * work.alpha1() * (after - before);
            let delta_load = freq + orphan_bonus(o);
            delta_d / delta_load.max(f64::MIN_POSITIVE)
        }
        SlotKind::Optional => {
            let (o, size, prob, load) = work.opt_slot(idx, slot);
            let delta_d = freq
                * work.alpha2()
                * work
                    .optional_cost(idx)
                    .delta_if_flipped(prob, size, false, work.params());
            let delta_load = load + orphan_bonus(o);
            delta_d / delta_load.max(f64::MIN_POSITIVE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_all;
    use crate::storage::restore_storage;
    use mmrepl_model::{CostParams, SiteId, System};
    use mmrepl_workload::{generate_system, WorkloadParams};

    fn system_at(frac: f64, seed: u64) -> System {
        generate_system(&WorkloadParams::small(), seed)
            .unwrap()
            .with_processing_fraction(frac)
    }

    fn restored(sys: &System, site: u32) -> (SiteWork<'_>, CapacityReport) {
        let placement = partition_all(sys);
        let mut w = SiteWork::new(sys, SiteId::new(site), &placement, CostParams::default());
        restore_storage(&mut w);
        let report = restore_capacity(&mut w);
        (w, report)
    }

    #[test]
    fn full_capacity_is_a_noop() {
        // 100% capacity = the all-local load, and the greedy partition
        // marks at most everything local, so the constraint already holds.
        let sys = system_at(1.0, 1);
        let (w, report) = restored(&sys, 0);
        assert!(report.feasible);
        assert_eq!(report.moves, 0);
        assert!(w.load() <= w.capacity() + 1e-9);
    }

    #[test]
    fn restores_constraint_across_the_sweep() {
        for &frac in &[0.9, 0.7, 0.5, 0.3] {
            let sys = system_at(frac, 2);
            for site in 0..sys.n_sites() as u32 {
                let (w, report) = restored(&sys, site);
                assert!(report.feasible, "frac {frac} site {site}: {report:?}");
                assert!(
                    w.load() <= w.capacity() + 1e-6,
                    "frac {frac} site {site}: load {} cap {}",
                    w.load(),
                    w.capacity()
                );
                w.validate_consistency();
            }
        }
    }

    #[test]
    fn moves_scale_with_pressure() {
        let (_, mild) = restored(&system_at(0.9, 3), 0);
        let (_, hard) = restored(&system_at(0.4, 3), 0);
        assert!(hard.moves > mild.moves, "mild {mild:?} hard {hard:?}");
    }

    #[test]
    fn infeasible_below_html_floor() {
        // Capacity below the irreducible 1-request-per-page-view floor.
        let sys = generate_system(&WorkloadParams::small(), 4).unwrap();
        // full_local_load >> Σf; take 1% of it, below Σf.
        let sys = sys.with_processing_fraction(0.01);
        let (w, report) = restored(&sys, 0);
        assert!(!report.feasible);
        // Every movable mark was moved.
        let marks: usize = (0..w.n_pages())
            .map(|i| w.partition(i).n_local_compulsory() + w.partition(i).n_local_optional())
            .sum();
        assert_eq!(marks, 0, "marks remain despite infeasibility");
    }

    #[test]
    fn deallocates_fully_unmarked_objects() {
        let sys = system_at(0.3, 5);
        let (w, report) = restored(&sys, 0);
        assert!(report.feasible);
        assert!(report.deallocated > 0, "{report:?}");
        assert!(report.bytes_freed > 0);
        // No stored object may be completely unmarked afterwards.
        for k in w.stored_objects() {
            assert!(w.marks_on(k) > 0, "orphan {k} survived");
        }
    }

    #[test]
    fn capacity_restoration_prefers_cheap_moves() {
        // D should degrade sublinearly: cutting capacity to 70% costs far
        // less than 30% of the objective (the paper's Figure 2 plateau).
        let free_sys = system_at(10.0, 6);
        let placement = partition_all(&free_sys);
        let d_free =
            SiteWork::new(&free_sys, SiteId::new(0), &placement, CostParams::default()).total_d();

        let tight_sys = system_at(0.7, 6);
        let (w, report) = restored(&tight_sys, 0);
        assert!(report.feasible);
        assert!(
            w.total_d() < d_free * 1.25,
            "30% capacity loss cost {}% of D",
            (w.total_d() / d_free - 1.0) * 100.0
        );
    }

    #[test]
    fn deterministic() {
        let sys = system_at(0.5, 7);
        let (a, ra) = restored(&sys, 1);
        let (b, rb) = restored(&sys, 1);
        assert_eq!(ra, rb);
        assert!((a.load() - b.load()).abs() < 1e-12);
        assert!((a.total_d() - b.total_d()).abs() < 1e-12);
    }
}
