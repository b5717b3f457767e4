//! Debug builds run the invariant auditor inside the pipeline: every
//! site is audited after partition adoption, storage restoration and
//! capacity restoration, and again after every off-loading absorption.
//! Release builds compile the hooks away, so this file is debug-only. Its
//! single test is the only code in this process that audits, so the
//! process-wide counter moves only by the hooks under test.

#![cfg(debug_assertions)]

use mmrepl_core::{audits_performed, partition_all, ReplicationPolicy};
use mmrepl_model::SiteId;
use mmrepl_workload::{generate_system, WorkloadParams};

#[test]
fn debug_builds_audit_every_per_site_stage_and_every_absorption() {
    let sys = generate_system(&WorkloadParams::small(), 3)
        .unwrap()
        .with_storage_fraction(0.6)
        .with_processing_fraction(0.9)
        .with_central_fraction(0.1);
    let policy = ReplicationPolicy::new();
    let sites: Vec<SiteId> = sys.sites().ids().collect();
    let per_site = 3 * sites.len() as u64;

    let before = audits_performed();
    policy.restore_sites(&sys, &partition_all(&sys), &sites, None, 2);
    assert_eq!(
        audits_performed() - before,
        per_site,
        "one audit per site after each of the three per-site stages"
    );

    // A star plan runs the per-site pass once, so every audit beyond
    // `per_site` comes from an off-loading absorption.
    let before = audits_performed();
    let plan = policy.plan(&sys);
    assert!(plan.report.offload.rounds > 0, "the squeeze must off-load");
    assert!(
        audits_performed() - before > per_site,
        "off-loading absorbed workload without an audit"
    );
}
