//! `PARTITION(W_j)` — Section 4.2's greedy per-page object partitioning,
//! implemented verbatim from the pseudocode.
//!
//! For each page, compulsory objects are visited in decreasing size order.
//! Both running stream totals are tentatively charged with the object; if
//! the repository stream would then be the shorter one, the object goes
//! remote (`X_jk = 0`) and the local charge is rolled back, otherwise it
//! stays local (`X_jk = 1`) and the remote charge is rolled back.
//!
//! Two faithful details worth noting:
//!
//! * the pseudocode initializes `RemoteDownload` with `Ovhd(R, S_i)` even
//!   before any object is remote — we keep that, so the comparison is
//!   exactly the paper's (it makes the greedy slightly reluctant to start
//!   a repository stream, which is correct: the first remote object pays
//!   the connection overhead);
//! * optional objects are all marked for local download ("Store all
//!   optional objects") *when the local fetch is faster by the estimates*;
//!   with the Table 1 estimate ranges the local pipe always wins, so this
//!   matches the paper, while degenerate configurations (repository faster
//!   than the site) sensibly leave them remote.

use crate::pool::parallel_map;
use crate::streams::SiteParams;
use mmrepl_model::{IdVec, PageId, PagePartition, Placement, SiteId, System};
use serde::{Deserialize, Serialize};

/// The order in which `PARTITION` visits a page's compulsory objects.
///
/// The paper sorts by decreasing size; the other orders exist for the A1
/// ablation, which quantifies how much that choice matters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionOrder {
    /// Largest object first — the paper's choice.
    #[default]
    DecreasingSize,
    /// Smallest object first.
    IncreasingSize,
    /// Document order (no sorting).
    DocumentOrder,
}

/// Largest byte count `f64` can hold exactly: every integer up to `2^53`
/// is representable.
const MAX_EXACT_F64_BYTES: u64 = 1 << 53;

/// Exact `u64 → f64` byte conversion. The greedy's stream comparisons
/// assume sizes convert without rounding; a size beyond `2^53` would
/// silently lose precision and corrupt the placement, so it is rejected
/// loudly instead (9 PiB — far beyond any modelled object or page).
///
/// # Panics
/// Panics if `bytes > 2^53`.
pub(crate) fn exact_size_f64(bytes: u64) -> f64 {
    assert!(
        bytes <= MAX_EXACT_F64_BYTES,
        "size {bytes} B exceeds 2^53 and cannot be represented exactly as f64"
    );
    bytes as f64
}

/// Runs `PARTITION` for one page, returning its row of the `X`/`X'`
/// matrices.
pub fn partition_page(system: &System, page: PageId) -> PagePartition {
    partition_page_ordered(system, page, PartitionOrder::DecreasingSize)
}

/// `PARTITION` with an explicit visit order (A1 ablation).
pub fn partition_page_ordered(
    system: &System,
    page: PageId,
    visit: PartitionOrder,
) -> PagePartition {
    let params = SiteParams::of(system.site(system.page(page).site));
    partition_page_ordered_with(system, page, visit, &params)
}

/// `PARTITION` against explicit site estimates. The federated-tree planner
/// passes the *effective channel* of the site's serving ancestor (rate
/// capped by the path bottleneck, overhead plus path latency) instead of
/// the raw repository estimates; [`partition_page_ordered`] is exactly this
/// with [`SiteParams::of`], so the star path is unchanged bit for bit.
pub fn partition_page_ordered_with(
    system: &System,
    page: PageId,
    visit: PartitionOrder,
    params: &SiteParams,
) -> PagePartition {
    let mut decisions = Vec::new();
    let row = partition_row(system, page, visit, params, &mut decisions);
    decisions.into_iter().for_each(mmrepl_obs::decision);
    row
}

/// [`partition_page_ordered_with`], appending each compulsory choice's
/// provenance to `decisions` (when tracing) instead of recording it, so
/// pages partitioned on workers can be recorded in page order.
fn partition_row(
    system: &System,
    page: PageId,
    visit: PartitionOrder,
    params: &SiteParams,
    decisions: &mut Vec<mmrepl_obs::Decision>,
) -> PagePartition {
    let p = system.page(page);

    // Order `(size, slot)` pairs so the sort compares plain integers
    // instead of chasing object ids; ties break by slot order for
    // determinism (the keys are distinct, so the unstable sort is exact).
    let mut order: Vec<(u64, u32)> = p
        .compulsory
        .iter()
        .enumerate()
        .map(|(slot, &k)| {
            let slot = u32::try_from(slot).expect("more than u32::MAX compulsory slots");
            (system.object_size(k).get(), slot)
        })
        .collect();
    match visit {
        PartitionOrder::DecreasingSize => {
            order.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)))
        }
        PartitionOrder::IncreasingSize => order.sort_unstable(),
        PartitionOrder::DocumentOrder => {}
    }

    let mut local = params.local_ovhd + exact_size_f64(p.html_size.get()) / params.local_rate;
    let mut remote = params.repo_ovhd;
    let mut local_compulsory = vec![false; p.n_compulsory()];

    for &(size, slot) in &order {
        let size = exact_size_f64(size);
        let slot = slot as usize;
        let local_cost = size / params.local_rate;
        let remote_cost = size / params.repo_rate;
        // Tentatively charge both streams (paper pseudocode).
        let local_if = local + local_cost;
        let remote_if = remote + remote_cost;
        let go_remote = remote_if < local_if;
        if mmrepl_obs::enabled() {
            // Provenance: both hypothetical stream finish times at the
            // moment of the choice, so a trace can answer "why remote?".
            decisions.push(mmrepl_obs::Decision {
                site: p.site.raw(),
                page: page.raw(),
                object: p.compulsory[slot].raw(),
                local: !go_remote,
                local_s: local_if,
                remote_s: remote_if,
            });
        }
        if go_remote {
            // Repository download is more beneficial; roll back local.
            remote = remote_if;
        } else {
            local = local_if;
            local_compulsory[slot] = true;
        }
    }
    if mmrepl_obs::enabled() {
        let n_local = local_compulsory.iter().filter(|&&m| m).count() as u64;
        mmrepl_obs::add("partition.objects_local", n_local);
        mmrepl_obs::add("partition.objects_remote", order.len() as u64 - n_local);
    }

    // "Store all optional objects" — marked local whenever the estimated
    // standalone local fetch beats the repository fetch.
    let local_optional = p
        .optional
        .iter()
        .map(|o| params.local_fetch_wins(system.object_size(o.object)))
        .collect();

    PagePartition {
        local_compulsory,
        local_optional,
    }
}

/// Exhaustively optimal single-page partition, by enumerating all `2^n`
/// assignments of the compulsory objects (optional marks use the same
/// standalone-fetch rule as the greedy).
///
/// The paper's decision problem is NP-complete (knapsack reduction), so
/// this exists to *measure* the greedy's optimality gap, not to replace
/// it: Table 1 pages carry 5-45 compulsory objects and 2^45 is out of
/// reach, but the small test workload (≤ ~16) brute-forces in
/// microseconds.
///
/// # Panics
/// Panics if the page has more than `24` compulsory objects.
pub fn optimal_partition(system: &System, page: PageId) -> PagePartition {
    let p = system.page(page);
    let n = p.n_compulsory();
    assert!(
        n <= 24,
        "brute force limited to 24 compulsory objects, page has {n}"
    );
    let params = SiteParams::of(system.site(p.site));
    let sizes: Vec<f64> = p
        .compulsory
        .iter()
        .map(|&k| exact_size_f64(system.object_size(k).get()))
        .collect();
    let html_time = params.local_ovhd + exact_size_f64(p.html_size.get()) / params.local_rate;

    let mut best_mask = 0u32;
    let mut best_time = f64::INFINITY;
    for mask in 0..(1u32 << n) {
        let mut local = html_time;
        let mut remote_bytes = 0.0;
        let mut any_remote = false;
        for (slot, &size) in sizes.iter().enumerate() {
            if mask & (1 << slot) != 0 {
                local += size / params.local_rate;
            } else {
                remote_bytes += size;
                any_remote = true;
            }
        }
        let remote = if any_remote {
            params.repo_ovhd + remote_bytes / params.repo_rate
        } else {
            0.0
        };
        let response = local.max(remote);
        if response < best_time {
            best_time = response;
            best_mask = mask;
        }
    }

    PagePartition {
        local_compulsory: (0..n).map(|slot| best_mask & (1 << slot) != 0).collect(),
        local_optional: p
            .optional
            .iter()
            .map(|o| params.local_fetch_wins(system.object_size(o.object)))
            .collect(),
    }
}

/// Runs `PARTITION` for every page — the unconstrained placement the
/// restorations start from (and the paper's normalization baseline when no
/// constraint is imposed). Pages are independent, so they fan out over one
/// worker per core; the placement does not depend on the thread count.
pub fn partition_all(system: &System) -> Placement {
    partition_all_ordered(system, PartitionOrder::DecreasingSize)
}

/// [`partition_all`] over up to `threads` workers (`0` = one per core).
pub(crate) fn partition_all_threads(system: &System, threads: usize) -> Placement {
    partition_pages(system, threads, |pid, decisions| {
        partition_row(
            system,
            pid,
            PartitionOrder::DecreasingSize,
            &SiteParams::of(system.site(system.page(pid).site)),
            decisions,
        )
    })
}

/// [`partition_all`] with an explicit visit order (A1 ablation).
pub fn partition_all_ordered(system: &System, visit: PartitionOrder) -> Placement {
    partition_pages(system, 0, |pid, decisions| {
        partition_row(
            system,
            pid,
            visit,
            &SiteParams::of(system.site(system.page(pid).site)),
            decisions,
        )
    })
}

/// [`partition_all`] against per-site explicit estimates (one
/// [`SiteParams`] per site, e.g. the effective serving channels of an
/// ancestor-selection pass).
pub fn partition_all_with(system: &System, params: &IdVec<SiteId, SiteParams>) -> Placement {
    partition_all_with_threads(system, params, 0)
}

/// [`partition_all_with`] over up to `threads` workers (`0` = one per
/// core).
pub(crate) fn partition_all_with_threads(
    system: &System,
    params: &IdVec<SiteId, SiteParams>,
    threads: usize,
) -> Placement {
    assert_eq!(params.len(), system.n_sites(), "one SiteParams per site");
    partition_pages(system, threads, |pid, decisions| {
        partition_row(
            system,
            pid,
            PartitionOrder::DecreasingSize,
            &params[system.page(pid).site],
            decisions,
        )
    })
}

/// Partitions every page with `partition` on the worker pool, assembling
/// the rows in page-id order. The provenance ring keeps the last records
/// in arrival order, so workers hand each page's decisions back and they
/// are recorded here in page order, as a sequential pass records them.
fn partition_pages(
    system: &System,
    threads: usize,
    partition: impl Fn(PageId, &mut Vec<mmrepl_obs::Decision>) -> PagePartition + Sync,
) -> Placement {
    let rows = parallel_map(system.n_pages(), threads, |i| {
        let mut decisions = Vec::new();
        let row = partition(PageId::new(i as u32), &mut decisions);
        (row, decisions)
    });
    let rows = rows
        .into_iter()
        .map(|(row, decisions)| {
            decisions.into_iter().for_each(mmrepl_obs::decision);
            row
        })
        .collect();
    Placement::new(system, rows).expect("partition shapes match by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmrepl_model::{
        Bytes, BytesPerSec, CostModel, MediaObject, OptionalRef, ReqPerSec, Secs, Site,
        SystemBuilder, WebPage,
    };

    fn site(local_kibs: f64, repo_kibs: f64) -> Site {
        Site {
            storage: Bytes::gib(10),
            capacity: ReqPerSec::INFINITE,
            local_rate: BytesPerSec::kib_per_sec(local_kibs),
            repo_rate: BytesPerSec::kib_per_sec(repo_kibs),
            local_ovhd: Secs(1.0),
            repo_ovhd: Secs(2.0),
        }
    }

    fn one_page_system(site: Site, sizes_kib: &[u64], optionals_kib: &[u64]) -> System {
        let mut b = SystemBuilder::new();
        let s = b.add_site(site);
        let compulsory: Vec<_> = sizes_kib
            .iter()
            .map(|&k| b.add_object(MediaObject::of_size(Bytes::kib(k))))
            .collect();
        let optional: Vec<_> = optionals_kib
            .iter()
            .map(|&k| OptionalRef {
                object: b.add_object(MediaObject::of_size(Bytes::kib(k))),
                prob: 0.03,
            })
            .collect();
        b.add_page(WebPage {
            site: s,
            html_size: Bytes::kib(10),
            freq: ReqPerSec(1.0),
            compulsory,
            optional,
            opt_req_factor: 1.0,
        });
        b.build().unwrap()
    }

    #[test]
    fn fast_local_pipe_keeps_everything_local() {
        // Local pipe 10x the repository: remote always loses.
        let sys = one_page_system(site(10.0, 1.0), &[100, 50, 25], &[]);
        let part = partition_page(&sys, PageId::new(0));
        assert_eq!(part.local_compulsory, vec![true, true, true]);
    }

    #[test]
    fn symmetric_pipes_split_the_load() {
        let sys = one_page_system(site(5.0, 5.0), &[100, 100, 100, 100], &[]);
        let part = partition_page(&sys, PageId::new(0));
        let n_local = part.n_local_compulsory();
        // With equal rates the greedy must offload some but not all.
        assert!((1..4).contains(&n_local), "n_local = {n_local}");
        // And the resulting response beats both extremes.
        let cm = CostModel::with_defaults(&sys);
        let page = PageId::new(0);
        let split = cm.page_response(page, &part).get();
        let all_local = cm
            .page_response(page, &PagePartition::all_local(sys.page(page)))
            .get();
        let all_remote = cm
            .page_response(page, &PagePartition::all_remote(sys.page(page)))
            .get();
        assert!(split <= all_local + 1e-9, "{split} vs local {all_local}");
        assert!(split <= all_remote + 1e-9, "{split} vs remote {all_remote}");
    }

    #[test]
    fn fast_repository_pushes_objects_remote() {
        // Repository pipe 10x the local pipe: large objects go remote.
        let sys = one_page_system(site(1.0, 10.0), &[200, 150, 100], &[]);
        let part = partition_page(&sys, PageId::new(0));
        assert!(
            part.n_local_compulsory() < 3,
            "nothing offloaded despite a 10x faster repository"
        );
    }

    #[test]
    fn visits_objects_in_decreasing_size_order() {
        // The largest object must be placed first: with symmetric pipes and
        // sizes [10, 1000], the 1000 KiB object determines stream choice
        // before the small one is considered. Verify via the invariant that
        // the greedy never leaves the big object on the crowded stream.
        let sys = one_page_system(site(5.0, 5.0), &[10, 1000], &[]);
        let part = partition_page(&sys, PageId::new(0));
        // Local stream starts with HTML handicap, so the 1000 KiB object
        // (slot 1) is placed while streams are nearly empty and stays
        // local only if local <= remote at that point: local has 1 + 2 =
        // 3 s head start vs repo 2 s... verify against a brute-force best.
        let cm = CostModel::with_defaults(&sys);
        let page = PageId::new(0);
        let greedy = cm.page_response(page, &part).get();
        // Brute force all 4 assignments.
        let mut best = f64::INFINITY;
        for a in [false, true] {
            for bflag in [false, true] {
                let p = PagePartition {
                    local_compulsory: vec![a, bflag],
                    local_optional: vec![],
                };
                best = best.min(cm.page_response(page, &p).get());
            }
        }
        // Greedy is not optimal in general, but on two objects with this
        // geometry it should land within 20% of brute force.
        assert!(
            greedy <= best * 1.2 + 1e-9,
            "greedy {greedy} vs best {best}"
        );
    }

    #[test]
    fn greedy_matches_paper_walkthrough() {
        // Hand-traced example. Site: local 10 KiB/s, repo 1 KiB/s,
        // ovhd 1 s / 2 s, HTML 10 KiB.
        //   local = 1 + 1 = 2.0, remote = 2.0
        // Objects (KiB): 100, 60, 30 (already decreasing).
        //   obj 100: local_if = 2 + 10 = 12, remote_if = 2 + 100 = 102
        //     -> local wins: local = 12, X = 1
        //   obj 60:  local_if = 12 + 6 = 18, remote_if = 2 + 60 = 62
        //     -> local: local = 18
        //   obj 30:  local_if = 18 + 3 = 21, remote_if = 2 + 30 = 32
        //     -> local: local = 21
        let sys = one_page_system(site(10.0, 1.0), &[100, 60, 30], &[]);
        let part = partition_page(&sys, PageId::new(0));
        assert_eq!(part.local_compulsory, vec![true, true, true]);
        let cm = CostModel::with_defaults(&sys);
        assert!((cm.page_response(PageId::new(0), &part).get() - 21.0).abs() < 1e-9);
    }

    #[test]
    fn remote_branch_taken_when_remote_strictly_smaller() {
        // Geometry where the remote stream genuinely wins for one object:
        // local 1 KiB/s, repo 8 KiB/s.
        //   local = 1 + 10 = 11, remote = 2
        //   obj 40: local_if = 11 + 40 = 51, remote_if = 2 + 5 = 7 -> remote
        let sys = one_page_system(site(1.0, 8.0), &[40], &[]);
        let part = partition_page(&sys, PageId::new(0));
        assert_eq!(part.local_compulsory, vec![false]);
    }

    #[test]
    fn optional_objects_marked_local_when_local_fetch_wins() {
        let sys = one_page_system(site(10.0, 1.0), &[50], &[100, 200]);
        let part = partition_page(&sys, PageId::new(0));
        assert_eq!(part.local_optional, vec![true, true]);

        // With a dominant repository pipe, optional marks flip remote.
        let sys = one_page_system(site(0.5, 10.0), &[50], &[100, 200]);
        let part = partition_page(&sys, PageId::new(0));
        assert_eq!(part.local_optional, vec![false, false]);
    }

    #[test]
    fn partition_all_covers_every_page() {
        let mut b = SystemBuilder::new();
        let s0 = b.add_site(site(10.0, 1.0));
        let s1 = b.add_site(site(2.0, 2.0));
        let m: Vec<_> = (0..6)
            .map(|i| b.add_object(MediaObject::of_size(Bytes::kib(50 + i * 37))))
            .collect();
        for (i, &site_id) in [s0, s1, s0].iter().enumerate() {
            b.add_page(WebPage {
                site: site_id,
                html_size: Bytes::kib(5),
                freq: ReqPerSec(1.0 + i as f64),
                compulsory: vec![m[i], m[i + 1]],
                optional: vec![OptionalRef {
                    object: m[i + 3],
                    prob: 0.03,
                }],
                opt_req_factor: 1.0,
            });
        }
        let sys = b.build().unwrap();
        let placement = partition_all(&sys);
        assert_eq!(placement.len(), 3);
        for (pid, part) in placement.iter() {
            assert!(part.matches(sys.page(pid)));
        }
    }

    #[test]
    fn optimal_partition_never_loses_to_greedy() {
        // On a batch of random pages with symmetric pipes (the hard case
        // for the greedy), the brute force must weakly dominate.
        for seed in 0..20u64 {
            let sizes: Vec<u64> = (0..10).map(|i| 40 + (seed * 997 + i * 131) % 760).collect();
            let sys = one_page_system(site(4.0, 4.0), &sizes, &[]);
            let cm = CostModel::with_defaults(&sys);
            let page = PageId::new(0);
            let greedy = cm.page_response(page, &partition_page(&sys, page)).get();
            let optimal = cm.page_response(page, &optimal_partition(&sys, page)).get();
            assert!(
                optimal <= greedy + 1e-9,
                "seed {seed}: optimal {optimal} > greedy {greedy}"
            );
            // And the greedy stays within a modest factor (LPT-style
            // heuristics on two machines are 7/6-competitive; the extra
            // overhead terms loosen that slightly).
            assert!(
                greedy <= optimal * 1.25 + 1e-9,
                "seed {seed}: greedy {greedy} vs optimal {optimal}"
            );
        }
    }

    #[test]
    fn optimal_matches_greedy_on_dominant_local_pipe() {
        // With a 10x faster local pipe keeping everything local is
        // optimal, and the greedy finds exactly that.
        let sys = one_page_system(site(10.0, 1.0), &[100, 60, 30], &[]);
        let page = PageId::new(0);
        assert_eq!(optimal_partition(&sys, page), partition_page(&sys, page));
    }

    #[test]
    #[should_panic(expected = "brute force limited")]
    fn optimal_partition_rejects_large_pages() {
        let sizes: Vec<u64> = vec![50; 25];
        let sys = one_page_system(site(5.0, 5.0), &sizes, &[]);
        let _ = optimal_partition(&sys, PageId::new(0));
    }

    #[test]
    fn partition_is_deterministic() {
        let sys = one_page_system(site(5.0, 5.0), &[100, 100, 50, 50], &[30]);
        let a = partition_page(&sys, PageId::new(0));
        let b = partition_page(&sys, PageId::new(0));
        assert_eq!(a, b);
    }

    #[test]
    fn visit_orders_differ_and_decreasing_wins_on_average() {
        // With symmetric pipes the greedy is order-sensitive; decreasing
        // size is the classic LPT-style heuristic and should not lose to
        // document order over a batch of random-ish pages.
        let mut dec_total = 0.0;
        let mut doc_total = 0.0;
        for seed in 0..10u64 {
            let sizes: Vec<u64> = (0..8).map(|i| 37 + (seed * 131 + i * 97) % 400).collect();
            let sys = one_page_system(site(5.0, 5.0), &sizes, &[]);
            let cm = CostModel::with_defaults(&sys);
            let page = PageId::new(0);
            let dec = partition_page_ordered(&sys, page, PartitionOrder::DecreasingSize);
            let doc = partition_page_ordered(&sys, page, PartitionOrder::DocumentOrder);
            dec_total += cm.page_response(page, &dec).get();
            doc_total += cm.page_response(page, &doc).get();
        }
        assert!(
            dec_total <= doc_total + 1e-9,
            "decreasing {dec_total} vs document {doc_total}"
        );
    }

    #[test]
    fn default_order_is_decreasing_size() {
        let sys = one_page_system(site(5.0, 5.0), &[10, 500, 90], &[20]);
        let a = partition_page(&sys, PageId::new(0));
        let b = partition_page_ordered(&sys, PageId::new(0), PartitionOrder::DecreasingSize);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_compulsory_list_is_fine() {
        let sys = one_page_system(site(5.0, 5.0), &[], &[20]);
        let part = partition_page(&sys, PageId::new(0));
        assert!(part.local_compulsory.is_empty());
        assert_eq!(part.local_optional.len(), 1);
    }

    #[test]
    fn exact_size_f64_is_exact_up_to_the_boundary() {
        // Every integer up to 2^53 round-trips through f64 unchanged.
        for bytes in [0, 1, (1u64 << 53) - 1, 1u64 << 53] {
            let as_float = exact_size_f64(bytes);
            assert_eq!(as_float as u64, bytes, "{bytes} did not round-trip");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 2^53")]
    fn exact_size_f64_rejects_unrepresentable_sizes() {
        // 2^53 + 1 is the first integer f64 cannot represent.
        let _ = exact_size_f64((1u64 << 53) + 1);
    }
}
