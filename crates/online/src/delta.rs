//! Churn-bounded incremental replanning.
//!
//! A cold [`ReplicationPolicy::plan`] rebuilds everything: the
//! unconstrained `PARTITION`, per-site state, both restorations, the
//! off-loading negotiation. Online we exploit two structural facts:
//!
//! 1. **`PARTITION` is frequency-independent** (it balances stream
//!    *sizes*; PR 1's warm-start invariant), so the unconstrained
//!    partition computed once at start-up keeps warm-starting every
//!    replan no matter how the rates drift;
//! 2. **sites are independent until the off-loading stage**, so only the
//!    sites whose rates actually drifted ("dirty" sites) need their
//!    storage/capacity restorations re-run — the dominant cost at scale
//!    (`restore_storage` is ~90 % of a paper-scale plan). Clean sites
//!    keep their live rows, and the repository negotiation runs over the
//!    dirty subset against the capacity left after the clean sites'
//!    (unchanged) repository load.
//!
//! Both halves are the cold planner's own code, not a copy: the dirty
//! sites go through [`ReplicationPolicy::restore_sites`] (one shard per
//! site on the worker pool, with the planner's spans and audit hooks),
//! and the negotiation runs the policy's own protocol
//! ([`run_negotiation`] with its `offload` and `negotiation` configs),
//! so a policy with a non-default strategy replans the way it plans.
//!
//! The resulting *target* rows are then **diffed against the live plan**
//! and applied under a *churn budget*: switching a page's row is free
//! when every newly-marked object is already resident at the site
//! (including objects another page keeps stored), otherwise it costs the
//! bytes that must be fetched from the repository. Free switches always
//! apply; paid switches apply highest-ΔD-per-byte first until the budget
//! runs out, and the rest are deferred to a later replan. With an
//! unlimited budget and every site dirty, the applied placement is
//! **bit-identical** to a cold plan on the same estimated rates — pinned
//! by a property test.

use mmrepl_core::{partition_all, run_negotiation, ReplicationPolicy, SiteWork};
use mmrepl_model::{
    Bytes, CostModel, ObjectId, PageId, PagePartition, Placement, SiteId, StoredSet, System,
};
use serde::{Deserialize, Serialize};

/// Maximum bytes a single replan may schedule for migration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnBudget {
    /// `None` = unlimited (every diffed page applies).
    pub bytes_per_replan: Option<u64>,
}

impl ChurnBudget {
    /// No limit: track the target plan exactly.
    pub fn unlimited() -> Self {
        ChurnBudget {
            bytes_per_replan: None,
        }
    }

    /// At most `bytes` migrated per replan.
    pub fn bytes(bytes: u64) -> Self {
        ChurnBudget {
            bytes_per_replan: Some(bytes),
        }
    }

    fn allows(&self, spent: u64, cost: u64) -> bool {
        match self.bytes_per_replan {
            None => true,
            Some(limit) => spent.saturating_add(cost) <= limit,
        }
    }
}

/// The replica transfers one replan scheduled for one site.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SiteMigration {
    /// The site receiving the replicas.
    pub site: SiteId,
    /// Objects to fetch from the repository, in application (priority)
    /// order, with their sizes.
    pub fetches: Vec<(ObjectId, Bytes)>,
    /// Objects no longer stored at the site (deletion is free).
    pub drops: Vec<ObjectId>,
}

impl SiteMigration {
    /// Total bytes to fetch.
    pub fn bytes(&self) -> u64 {
        self.fetches.iter().map(|&(_, b)| b.0).sum()
    }
}

/// What one incremental replan did.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DeltaReport {
    /// Sites replanned.
    pub dirty_sites: usize,
    /// Pages whose target row differed from the live row.
    pub pages_changed: usize,
    /// Diffed pages actually switched to the target row.
    pub pages_applied: usize,
    /// Diffed pages deferred by the churn budget.
    pub pages_deferred: usize,
    /// `X`/`X'` marks flipped by the applied switches.
    pub marks_flipped: usize,
    /// Bytes scheduled for migration (fetches from the repository).
    pub bytes_migrated: u64,
    /// Bytes the deferred switches would additionally have needed.
    pub bytes_deferred: u64,
}

/// The outcome of one incremental replan.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaOutcome {
    /// Accounting.
    pub report: DeltaReport,
    /// Per-dirty-site migration schedules (sites with work only).
    pub migrations: Vec<SiteMigration>,
}

/// One diffed page awaiting application.
struct Candidate {
    page: PageId,
    dirty_idx: usize,
    /// Objective improvement (estimated system) of switching this page.
    gain: f64,
    /// Fetch bytes against the pre-replan stored set (refined at apply
    /// time against the evolving resident set).
    est_bytes: u64,
}

/// The incremental replanner: owns the live placement and the cached
/// frequency-independent unconstrained partition.
#[derive(Clone, Debug)]
pub struct DeltaPlanner {
    policy: ReplicationPolicy,
    /// `partition_all` of the base system — valid for every rate estimate
    /// because `PARTITION` never reads frequencies.
    partition: Placement,
    live: Placement,
}

impl DeltaPlanner {
    /// Plans `system` cold and caches the warm-start partition.
    pub fn new(system: &System, policy: ReplicationPolicy) -> Self {
        let partition = partition_all(system);
        let live = policy.plan_with_partition(system, &partition).placement;
        DeltaPlanner {
            policy,
            partition,
            live,
        }
    }

    /// The live placement.
    pub fn live(&self) -> &Placement {
        &self.live
    }

    /// The policy driving the restorations.
    pub fn policy(&self) -> &ReplicationPolicy {
        &self.policy
    }

    /// Replans the `dirty` sites against `est` (the base system carrying
    /// the estimated rates), then applies the diff to the live placement
    /// under `budget`. Clean sites are untouched.
    pub fn replan(&mut self, est: &System, dirty: &[SiteId], budget: ChurnBudget) -> DeltaOutcome {
        let _span = mmrepl_obs::span("online.replan");
        let mut dirty: Vec<SiteId> = dirty.to_vec();
        dirty.sort_unstable();
        dirty.dedup();
        let mut report = DeltaReport {
            dirty_sites: dirty.len(),
            ..DeltaReport::default()
        };
        if dirty.is_empty() {
            return DeltaOutcome {
                report,
                migrations: Vec::new(),
            };
        }

        let target = self.target_rows(est, &dirty);

        // Diff the target against the live plan, page by page.
        let cfg = *self.policy.config();
        let cm = CostModel::new(est, cfg.cost);
        let mut residents: Vec<StoredSet> = dirty
            .iter()
            .map(|&s| self.live.stored_set(est, s))
            .collect();
        let old_stored = residents.clone();
        let mut candidates: Vec<Candidate> = Vec::new();
        for (dirty_idx, &site) in dirty.iter().enumerate() {
            for &p in est.pages_of(site) {
                let target_row = target[p.index()].as_ref().expect("dirty page planned");
                let live_row = self.live.partition(p);
                if target_row == live_row {
                    continue;
                }
                let freq = est.page(p).freq.get();
                let gain = cm.page_cost(p, live_row).weighted(freq, cfg.cost)
                    - cm.page_cost(p, target_row).weighted(freq, cfg.cost);
                let est_bytes = fetch_bytes(est, p, target_row, &residents[dirty_idx]);
                candidates.push(Candidate {
                    page: p,
                    dirty_idx,
                    gain,
                    est_bytes,
                });
            }
        }
        report.pages_changed = candidates.len();

        // Free switches first, then best objective improvement per byte.
        candidates.sort_by(|a, b| {
            let free_a = a.est_bytes == 0;
            let free_b = b.est_bytes == 0;
            free_b
                .cmp(&free_a)
                .then_with(|| ratio(b).total_cmp(&ratio(a)))
                .then_with(|| a.page.cmp(&b.page))
        });

        let mut fetches: Vec<Vec<(ObjectId, Bytes)>> = vec![Vec::new(); dirty.len()];
        let mut spent = 0u64;
        for c in &candidates {
            let row = target[c.page.index()].as_ref().expect("dirty page planned");
            let resident = &mut residents[c.dirty_idx];
            let new_objects = missing_objects(est, c.page, row, resident);
            let cost: u64 = new_objects.iter().map(|&(_, b)| b.0).sum();
            if cost > 0 && !budget.allows(spent, cost) {
                report.pages_deferred += 1;
                report.bytes_deferred += cost;
                continue;
            }
            spent += cost;
            for &(k, size) in &new_objects {
                resident.insert(k);
                fetches[c.dirty_idx].push((k, size));
            }
            report.marks_flipped += marks_flipped(self.live.partition(c.page), row);
            *self.live.partition_mut(c.page) = row.clone();
            report.pages_applied += 1;
        }
        report.bytes_migrated = spent;

        // Per-site migration schedules: the fetches accumulated above plus
        // the objects that lost their last mark (free deletions).
        let mut migrations = Vec::new();
        for (dirty_idx, &site) in dirty.iter().enumerate() {
            let new_stored = self.live.stored_set(est, site);
            let drops: Vec<ObjectId> = old_stored[dirty_idx]
                .iter()
                .filter(|&k| !new_stored.contains(k))
                .collect();
            let site_fetches = std::mem::take(&mut fetches[dirty_idx]);
            debug_assert!(site_fetches.iter().all(|&(k, _)| new_stored.contains(k)));
            if !site_fetches.is_empty() || !drops.is_empty() {
                migrations.push(SiteMigration {
                    site,
                    fetches: site_fetches,
                    drops,
                });
            }
        }
        if mmrepl_obs::enabled() {
            mmrepl_obs::add("replan.dirty_sites", report.dirty_sites as u64);
            mmrepl_obs::add("replan.pages_changed", report.pages_changed as u64);
            mmrepl_obs::add("replan.pages_applied", report.pages_applied as u64);
            mmrepl_obs::add("replan.pages_deferred", report.pages_deferred as u64);
            mmrepl_obs::add("replan.marks_flipped", report.marks_flipped as u64);
            // Churn spent vs budget: what the budget allowed through and
            // what it pushed to later replans.
            mmrepl_obs::add("online.migrated_bytes", report.bytes_migrated);
            mmrepl_obs::add("replan.churn_deferred_bytes", report.bytes_deferred);
            if let Some(limit) = budget.bytes_per_replan {
                mmrepl_obs::add("replan.churn_budget_bytes", limit);
            }
            mmrepl_obs::add("online.replans", 1);
            mmrepl_obs::flush_thread();
        }
        DeltaOutcome { report, migrations }
    }

    /// Computes the target rows for every page of the dirty sites: the
    /// policy's per-site pass ([`ReplicationPolicy::restore_sites`])
    /// re-run per dirty site from the cached partition, then the policy's
    /// off-loading negotiation over the dirty subset against the
    /// repository capacity net of the clean sites' unchanged load.
    fn target_rows(&self, est: &System, dirty: &[SiteId]) -> Vec<Option<PagePartition>> {
        let cfg = self.policy.config();
        let mut works: Vec<SiteWork<'_>> = self
            .policy
            .restore_sites(est, &self.partition, dirty, None, 0)
            .into_iter()
            .map(|(w, _, _)| w)
            .collect();

        let clean_repo_load: f64 = est
            .sites()
            .ids()
            .filter(|s| dirty.binary_search(s).is_err())
            .map(|s| self.live.repo_load_from(est, s).get())
            .sum();
        let eff_capacity = (est.repository().capacity.get() - clean_repo_load).max(0.0);
        run_negotiation(&mut works, eff_capacity, &cfg.offload, &cfg.negotiation);

        let mut rows: Vec<Option<PagePartition>> = vec![None; est.n_pages()];
        for w in works {
            for (pid, part) in w.into_partitions() {
                rows[pid.index()] = Some(part);
            }
        }
        rows
    }
}

/// Gain per fetched byte (free switches are handled before this applies).
fn ratio(c: &Candidate) -> f64 {
    c.gain / (c.est_bytes.max(1) as f64)
}

/// `X`/`X'` marks that differ between two rows of the same page.
fn marks_flipped(a: &PagePartition, b: &PagePartition) -> usize {
    let comp = a
        .local_compulsory
        .iter()
        .zip(&b.local_compulsory)
        .filter(|(x, y)| x != y)
        .count();
    let opt = a
        .local_optional
        .iter()
        .zip(&b.local_optional)
        .filter(|(x, y)| x != y)
        .count();
    comp + opt
}

/// Objects the target row marks local that are not yet resident.
fn missing_objects(
    system: &System,
    page: PageId,
    row: &PagePartition,
    resident: &StoredSet,
) -> Vec<(ObjectId, Bytes)> {
    let p = system.page(page);
    let mut out = Vec::new();
    let mut push = |k: ObjectId| {
        if !resident.contains(k) && !out.iter().any(|&(seen, _)| seen == k) {
            out.push((k, system.object_size(k)));
        }
    };
    for (slot, &k) in p.compulsory.iter().enumerate() {
        if row.local_compulsory[slot] {
            push(k);
        }
    }
    for (slot, o) in p.optional.iter().enumerate() {
        if row.local_optional[slot] {
            push(o.object);
        }
    }
    out
}

/// Fetch bytes of switching `page` to `row` against `resident`.
fn fetch_bytes(system: &System, page: PageId, row: &PagePartition, resident: &StoredSet) -> u64 {
    missing_objects(system, page, row, resident)
        .iter()
        .map(|&(_, b)| b.0)
        .sum()
}
