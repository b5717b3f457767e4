//! The invariant auditor: from-scratch recomputation of every derived
//! quantity that [`SiteWork`] maintains incrementally, with pinpointed
//! divergence reports.
//!
//! The planner's hot paths (dense CSR state, storage/capacity
//! restoration, off-loading, delta replanning) all mutate one shared set
//! of incrementally-maintained aggregates — stream totals, optional
//! cost, HTTP load, update load, stored bytes, mark counts. A single
//! missed update in any flip path silently corrupts every later greedy
//! decision. [`audit_site`] re-derives all of them from nothing but the
//! partition rows and the store, compares against the tracked values,
//! and reports the **first** divergence with enough context (site, page,
//! object, stage) to localize the broken mutation.
//!
//! In every build with debug assertions on (`cargo test`, `cargo run`
//! without `--release`), the per-site pass (partition adoption, storage
//! and capacity restoration, shared by cold plans, tree re-selection
//! and the online delta replan) and every off-loading absorption call
//! [`assert_consistent`] under a `plan.audit` span, so a debug run's
//! stage table shows what the auditor costs. Release builds compile the
//! hooks away and benchmarks are unaffected. The functions themselves
//! are always compiled (tests and the `mmrepl audit` CLI use them in
//! every profile).
//!
//! Separately, [`check_site_constraints`] and [`check_repo_constraint`]
//! verify the paper's feasibility constraints — Eq. 8 (site processing),
//! Eq. 9 (repository processing) and Eq. 10 (storage). They are *not*
//! part of [`audit_site`] because they legitimately do not hold in the
//! middle of the pipeline (after partitioning, before the restorations);
//! property tests apply them at stage boundaries where the stage reports
//! claim feasibility.

use crate::state::SiteWork;
use crate::streams::{OptionalCost, Streams};
use mmrepl_model::{ObjectId, SiteId};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Absolute tolerance for floating-point bookkeeping comparisons. The
/// incremental updates and the from-scratch recomputation sum the same
/// terms in different orders, so they agree only up to rounding.
const FP_EPS: f64 = 1e-6;

/// Tolerance for the Eq. 8/9 constraint checks — matches the `EPS`
/// slack the restoration and off-loading stopping rules allow, with
/// headroom for summation-order rounding.
const CONSTRAINT_EPS: f64 = 1e-6;

static AUDITS: AtomicU64 = AtomicU64::new(0);

/// Number of [`audit_site`] passes performed by this process (all
/// threads, monotone). Lets tests assert that a debug build's pipeline
/// hooks actually fired.
pub fn audits_performed() -> u64 {
    AUDITS.load(Ordering::Relaxed)
}

/// Which planner mutation an audit ran after. Carried in the
/// [`Divergence`] report to localize the broken stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditStage {
    /// After the initial greedy partition ([`SiteWork`] construction).
    Partition,
    /// After storage restoration (Eq. 10 repair).
    StorageRestore,
    /// After capacity restoration (Eq. 8 repair).
    CapacityRestore,
    /// After one site absorbed workload during an off-loading round.
    OffloadRound,
    /// An explicit validation call outside the pipeline (tests).
    Validate,
}

impl fmt::Display for AuditStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AuditStage::Partition => "initial partition",
            AuditStage::StorageRestore => "storage restoration",
            AuditStage::CapacityRestore => "capacity restoration",
            AuditStage::OffloadRound => "offload round",
            AuditStage::Validate => "explicit validation",
        })
    }
}

/// One detected divergence between the incrementally tracked bookkeeping
/// and the from-scratch recomputation: the first inconsistency found,
/// with enough context to pinpoint the broken mutation path.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The site whose state diverged (`None` for the repository-level
    /// Eq. 9 check).
    pub site: Option<SiteId>,
    /// The pipeline stage the audit ran after.
    pub stage: AuditStage,
    /// Which derived quantity diverged (e.g. `"stream totals"`,
    /// `"site load"`, `"storage bytes"`).
    pub quantity: String,
    /// The incrementally maintained value.
    pub tracked: String,
    /// The value re-derived from scratch.
    pub recomputed: String,
    /// Where exactly: page, object, slot — whatever narrows it down.
    pub context: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let place = match self.site {
            Some(s) => format!("site {s}"),
            None => "repository".to_string(),
        };
        writeln!(
            f,
            "invariant divergence after {} at {place}: {}",
            self.stage, self.quantity
        )?;
        writeln!(f, "  tracked:    {}", self.tracked)?;
        writeln!(f, "  recomputed: {}", self.recomputed)?;
        write!(f, "  context:    {}", self.context)
    }
}

impl std::error::Error for Divergence {}

fn diverged(
    site: Option<SiteId>,
    stage: AuditStage,
    quantity: &str,
    tracked: impl fmt::Display,
    recomputed: impl fmt::Display,
    context: impl Into<String>,
) -> Box<Divergence> {
    let d = Box::new(Divergence {
        site,
        stage,
        quantity: quantity.to_string(),
        tracked: tracked.to_string(),
        recomputed: recomputed.to_string(),
        context: context.into(),
    });
    // Every divergence — whether from a planner hook or an injected-fault
    // audit run — also lands in the trace, pinned to its site and stage.
    if mmrepl_obs::enabled() {
        mmrepl_obs::event(
            "audit_divergence",
            d.site.map(SiteId::raw),
            &d.stage.to_string(),
            format!(
                "{}: tracked {} vs recomputed {} ({})",
                d.quantity, d.tracked, d.recomputed, d.context
            ),
        );
    }
    d
}

/// Re-derives every incrementally maintained quantity of `work` from its
/// partition rows and store, returning the first divergence found.
///
/// Checks, in order:
/// 1. per-page stream totals (exact `u64` equality — Eq. 3/4 inputs);
/// 2. local marks only on stored objects (the store invariant);
/// 3. per-page optional-cost accumulators (Eq. 6, within `1e-6`);
/// 4. per-object mark counts (orphan detection);
/// 5. the serving load (Eq. 8 LHS minus update accounting, `1e-6`);
/// 6. the update/refresh load against the store (`1e-6`);
/// 7. stored bytes: `Σ HTML + Σ stored object sizes` — **exact**;
/// 8. demand conservation: serving load + repository request load must
///    equal the partition-independent total demand (`Σ f·(1 + |U_j| +
///    f(W_j,M)·Σ U'_jk)`).
///
/// The Eq. 8/9/10 *feasibility* constraints are deliberately not checked
/// here — see [`check_site_constraints`].
pub fn audit_site(work: &SiteWork<'_>, stage: AuditStage) -> Result<(), Box<Divergence>> {
    AUDITS.fetch_add(1, Ordering::Relaxed);
    let sys = work.system();
    let site = Some(work.site());
    let params = work.params();

    let mut raw_load = 0.0;
    let mut total_demand = 0.0;
    let mut marks: HashMap<ObjectId, u32> = HashMap::new();

    for (idx, &pid) in work.pages().iter().enumerate() {
        let page = sys.page(pid);
        let part = work.partition(idx);
        let f = page.freq.get();

        let mut s = Streams::all_local_base(page.html_size);
        for (slot, &k) in page.compulsory.iter().enumerate() {
            let size = sys.object_size(k);
            if part.local_compulsory[slot] {
                if !work.is_stored(k) {
                    return Err(diverged(
                        site,
                        stage,
                        "store invariant",
                        "object not in store",
                        "compulsory slot marked local",
                        format!("page {pid} (index {idx}), slot {slot}, object {k}"),
                    ));
                }
                s.local_bytes += size.get();
                *marks.entry(k).or_insert(0) += 1;
            } else {
                s.remote_bytes += size.get();
                s.n_remote += 1;
            }
        }
        if s != *work.streams(idx) {
            return Err(diverged(
                site,
                stage,
                "stream totals",
                format!("{:?}", work.streams(idx)),
                format!("{s:?}"),
                format!("page {pid} (index {idx})"),
            ));
        }

        let mut opt_local = 0.0;
        for (slot, o) in page.optional.iter().enumerate() {
            if part.local_optional[slot] {
                if !work.is_stored(o.object) {
                    return Err(diverged(
                        site,
                        stage,
                        "store invariant",
                        "object not in store",
                        "optional slot marked local",
                        format!("page {pid} (index {idx}), slot {slot}, object {}", o.object),
                    ));
                }
                *marks.entry(o.object).or_insert(0) += 1;
                opt_local += o.prob;
            }
        }

        let oc = OptionalCost::build(
            page.opt_req_factor,
            params,
            page.optional
                .iter()
                .enumerate()
                .map(|(slot, o)| (o.prob, sys.object_size(o.object), part.local_optional[slot])),
        );
        let tracked_oc = work.optional_cost(idx);
        if (oc.time() - tracked_oc.time()).abs() > FP_EPS {
            return Err(diverged(
                site,
                stage,
                "optional download cost (Eq. 6 accumulator)",
                tracked_oc.time(),
                oc.time(),
                format!("page {pid} (index {idx})"),
            ));
        }

        raw_load += f * (1.0 + part.n_local_compulsory() as f64 + page.opt_req_factor * opt_local);
        total_demand += f * (1.0 + page.n_compulsory() as f64 + page.expected_optional_requests());
    }

    // Per-object mark counts. Every marked object is stored (checked
    // above), so the stored set covers all objects with marks; stored
    // objects without marks (allocated mid-offload) must read zero.
    let stored = work.stored_objects();
    for &k in &stored {
        let recomputed = marks.get(&k).copied().unwrap_or(0);
        let tracked = work.marks_on(k);
        if tracked != recomputed {
            return Err(diverged(
                site,
                stage,
                "local mark count",
                tracked,
                recomputed,
                format!("object {k}"),
            ));
        }
    }

    // Serving load: the tracked Eq. 8 LHS minus the update-accounting
    // term, which is audited separately against the store below.
    let tracked_raw = work.load() - work.update_load();
    if (raw_load - tracked_raw).abs() > FP_EPS {
        return Err(diverged(
            site,
            stage,
            "site serving load (Eq. 8 LHS)",
            tracked_raw,
            raw_load,
            "HTTP requests/s from local page serving, excluding update accounting",
        ));
    }

    let upd: f64 = stored.iter().map(|&k| work.update_rate_of(k)).sum();
    if (upd - work.update_load()).abs() > FP_EPS {
        return Err(diverged(
            site,
            stage,
            "update/refresh load",
            work.update_load(),
            upd,
            "sum of stored objects' update rates (read/write extension)",
        ));
    }

    // Storage is integer bookkeeping, so the check is exact: HTML of
    // every local page plus the size of every stored object.
    let html: u64 = work
        .pages()
        .iter()
        .map(|&p| sys.page(p).html_size.get())
        .sum();
    let bytes = html
        + stored
            .iter()
            .map(|&k| sys.object_size(k).get())
            .sum::<u64>();
    if bytes != work.storage_used() {
        return Err(diverged(
            site,
            stage,
            "storage bytes (Eq. 10 LHS)",
            work.storage_used(),
            bytes,
            format!("HTML {html} B + {} stored objects", stored.len()),
        ));
    }

    // Demand conservation: every reference is served either locally or
    // by the repository, so serving load + repository request load must
    // equal the partition-independent total demand.
    let repo_requests = work.repo_load() - work.update_load();
    let conserved = raw_load + repo_requests;
    if (conserved - total_demand).abs() > FP_EPS * (1.0 + total_demand.abs()) {
        return Err(diverged(
            site,
            stage,
            "demand conservation (site + repository split)",
            conserved,
            total_demand,
            "serving load + repository request load vs total reference demand",
        ));
    }

    Ok(())
}

/// [`audit_site`] that panics with the full divergence report.
pub fn assert_consistent(work: &SiteWork<'_>, stage: AuditStage) {
    if let Err(d) = audit_site(work, stage) {
        panic!("{d}");
    }
}

/// The pipeline hook debug builds run after each mutation stage:
/// [`assert_consistent`] under a `plan.audit` span.
#[cfg(debug_assertions)]
pub(crate) fn hook(work: &SiteWork<'_>, stage: AuditStage) {
    let _s = mmrepl_obs::span("plan.audit");
    assert_consistent(work, stage);
}

/// Checks the per-site feasibility constraints against the *recomputable*
/// state: Eq. 8 (`load ≤ C(S_i)`, within `CONSTRAINT_EPS` = 1e-6) and Eq. 10
/// (`storage used ≤ Size(S_i)`, exact). Call at stage boundaries where
/// the stage report claims feasibility.
pub fn check_site_constraints(
    work: &SiteWork<'_>,
    stage: AuditStage,
) -> Result<(), Box<Divergence>> {
    let cap = work.capacity();
    if work.load() > cap + CONSTRAINT_EPS {
        return Err(diverged(
            Some(work.site()),
            stage,
            "Eq. 8 violated: site load exceeds C(S_i)",
            format!("capacity {cap}"),
            format!("load {}", work.load()),
            "restoration claimed feasibility with an overloaded site",
        ));
    }
    if work.storage_used() > work.storage_capacity() {
        return Err(diverged(
            Some(work.site()),
            stage,
            "Eq. 10 violated: storage use exceeds Size(S_i)",
            format!("capacity {} B", work.storage_capacity()),
            format!("used {} B", work.storage_used()),
            "restoration claimed feasibility with an overfull store",
        ));
    }
    Ok(())
}

/// Checks Eq. 9: the aggregate repository request load of all sites must
/// not exceed `C(R)` (within `CONSTRAINT_EPS` = 1e-6).
pub fn check_repo_constraint(
    works: &[SiteWork<'_>],
    repo_capacity: f64,
    stage: AuditStage,
) -> Result<(), Box<Divergence>> {
    let total: f64 = works.iter().map(|w| w.repo_load()).sum();
    if total > repo_capacity + CONSTRAINT_EPS {
        return Err(diverged(
            None,
            stage,
            "Eq. 9 violated: repository load exceeds C(R)",
            format!("capacity {repo_capacity}"),
            format!("load {total}"),
            format!("summed over {} sites", works.len()),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::restore_capacity;
    use crate::partition::partition_all;
    use crate::storage::restore_storage;
    use mmrepl_model::CostParams;
    use mmrepl_workload::{generate_system, WorkloadParams};

    fn audited_sys(seed: u64) -> mmrepl_model::System {
        generate_system(&WorkloadParams::small(), seed)
            .unwrap()
            .with_storage_fraction(0.6)
            .with_processing_fraction(0.9)
    }

    #[test]
    fn fresh_and_restored_state_audits_clean() {
        let sys = audited_sys(11);
        let placement = partition_all(&sys);
        for s in sys.sites().ids() {
            let mut w = SiteWork::new(&sys, s, &placement, CostParams::default());
            audit_site(&w, AuditStage::Partition).unwrap();
            let st = restore_storage(&mut w);
            audit_site(&w, AuditStage::StorageRestore).unwrap();
            let cp = restore_capacity(&mut w);
            audit_site(&w, AuditStage::CapacityRestore).unwrap();
            if st.feasible {
                assert!(w.storage_used() <= w.storage_capacity());
            }
            if cp.feasible {
                check_site_constraints(&w, AuditStage::CapacityRestore).unwrap();
            }
        }
        assert!(audits_performed() > 0);
    }

    #[test]
    fn corrupted_load_is_pinpointed() {
        let sys = audited_sys(12);
        let placement = partition_all(&sys);
        let site = sys.sites().ids().next().unwrap();
        let mut w = SiteWork::new(&sys, site, &placement, CostParams::default());
        w.debug_corrupt_load(0.25);
        let d = audit_site(&w, AuditStage::OffloadRound).unwrap_err();
        assert_eq!(d.site, Some(site));
        assert_eq!(d.stage, AuditStage::OffloadRound);
        assert!(d.quantity.contains("serving load"), "{d}");
        let report = d.to_string();
        assert!(report.contains("offload round"), "{report}");
        assert!(report.contains("tracked"), "{report}");
    }

    #[test]
    fn corrupted_storage_is_pinpointed() {
        let sys = audited_sys(13);
        let placement = partition_all(&sys);
        let site = sys.sites().ids().next().unwrap();
        let mut w = SiteWork::new(&sys, site, &placement, CostParams::default());
        w.debug_corrupt_stored_bytes(1);
        let d = audit_site(&w, AuditStage::Validate).unwrap_err();
        assert!(d.quantity.contains("storage"), "{d}");
    }

    #[test]
    fn overload_trips_the_constraint_check() {
        let sys = audited_sys(14).with_processing_fraction(0.05);
        let placement = partition_all(&sys);
        let overloaded = sys.sites().ids().find(|&s| {
            let w = SiteWork::new(&sys, s, &placement, CostParams::default());
            w.load() > w.capacity()
        });
        let s = overloaded.expect("5% processing capacity should overload some site");
        let w = SiteWork::new(&sys, s, &placement, CostParams::default());
        let d = check_site_constraints(&w, AuditStage::Partition).unwrap_err();
        assert!(d.quantity.contains("Eq. 8"), "{d}");
    }
}
