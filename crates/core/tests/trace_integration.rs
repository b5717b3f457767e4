//! End-to-end tracing through the planner pipeline: every stage shows up
//! in the trace, stage wall times account for the total, and parallel
//! runs aggregate worker recorders identically to sequential ones.

use mmrepl_core::{audit_site, partition_all, AuditStage, ReplicationPolicy, SiteWork};
use mmrepl_model::CostParams;
use mmrepl_workload::{generate_system, WorkloadParams};
use std::sync::Mutex;

// The obs enabled flag and sink are process-wide; every test here
// serialises on this lock.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn constrained_system(seed: u64) -> mmrepl_model::System {
    generate_system(&WorkloadParams::small(), seed)
        .unwrap()
        .with_storage_fraction(0.5)
        .with_processing_fraction(0.8)
}

/// Runs `f` with tracing enabled and returns the drained trace.
fn traced(f: impl FnOnce()) -> mmrepl_obs::Recorder {
    mmrepl_obs::reset();
    mmrepl_obs::set_enabled(true);
    f();
    mmrepl_obs::set_enabled(false);
    mmrepl_obs::take()
}

const STAGES: [&str; 4] = [
    "plan.partition",
    "plan.storage_restore",
    "plan.capacity_restore",
    "plan.offload",
];

#[test]
fn every_planner_stage_lands_in_the_trace() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sys = constrained_system(11);
    let trace = traced(|| {
        ReplicationPolicy::new().plan(&sys);
    });
    for stage in STAGES {
        let s = trace
            .span(stage)
            .unwrap_or_else(|| panic!("missing span {stage}"));
        assert!(s.count > 0, "{stage} never closed");
    }
    assert!(trace.span("plan.total").is_some());
    assert!(trace.span("plan.assemble").is_some());
    // Debug builds price the invariant auditor in its own span.
    assert_eq!(trace.span("plan.audit").is_some(), cfg!(debug_assertions));
    // Stage counters: the squeeze forces real restoration work.
    assert!(trace.counter("storage.heap_pops") > 0);
    assert!(trace.counter("storage.deallocated") > 0);
    // Every kept re-partition was an attempt first.
    let calls = trace.counter("storage.repartition_calls");
    assert!(calls > 0);
    assert!(calls >= trace.counter("storage.repartitioned"));
    // Capacity restoration may be a no-op at this squeeze, but its
    // counters are always stamped.
    assert!(trace.counters().contains_key("capacity.moves"));
    assert!(trace.counters().contains_key("capacity.heap_pops"));
    assert!(trace.counter("partition.objects_local") > 0);
    // Decision provenance covers the compulsory objects (ring permitting).
    assert!(trace.decisions_len() > 0);
    let d = trace.decisions().next().unwrap();
    assert!(d.local_s > 0.0 && d.remote_s > 0.0);
}

#[test]
fn stage_times_sum_to_within_ten_percent_of_total() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sys = constrained_system(12);
    // Warm up (pool, allocator, page cache) so the measured run is steady.
    // Pin to one thread: stage spans sum *thread* time, so the
    // stages-partition-the-total claim only holds sequentially.
    ReplicationPolicy::new().plan_parallel(&sys, 1);
    let trace = traced(|| {
        ReplicationPolicy::new().plan_parallel(&sys, 1);
    });
    let total = trace.span("plan.total").expect("total span").total_s();
    // Debug builds run the invariant auditor between the per-site stages,
    // under its own `plan.audit` span; release builds record none. This
    // squeeze leaves the repository feasible, so no absorption (and no
    // audit span) nests inside `plan.offload`.
    assert_eq!(trace.counter("negotiate.rounds"), 0);
    let sum: f64 = STAGES
        .iter()
        .chain(["plan.assemble", "plan.audit"].iter())
        .map(|s| trace.span(s).map(|v| v.total_s()).unwrap_or(0.0))
        .sum();
    assert!(total > 0.0);
    // Single-threaded plan: the stages partition the total wall time up
    // to loop glue, so their sum must land within 10% of the total.
    assert!(
        sum <= total * 1.001,
        "stages sum {sum} exceeds total {total}"
    );
    assert!(
        sum >= total * 0.9,
        "stages sum {sum} covers less than 90% of total {total}"
    );
}

#[test]
fn parallel_plan_trace_matches_sequential_counters() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sys = constrained_system(13);
    let policy = ReplicationPolicy::new();
    // The default provenance ring, then one small enough to wrap.
    for cap in [mmrepl_obs::DEFAULT_PROVENANCE_CAP, 64] {
        mmrepl_obs::set_provenance_cap(cap);
        let seq = traced(|| {
            policy.plan_parallel(&sys, 1);
        });
        let par = traced(|| {
            policy.plan_parallel(&sys, 4);
        });
        // Worker recorders flush through the pool, so the aggregate
        // counters are identical to the sequential run's — except the
        // shard-imbalance diagnostic, which measures wall time and
        // legitimately varies.
        let algorithmic = |r: &mmrepl_obs::Recorder| {
            let mut c = r.counters().clone();
            c.remove("plan.restore.shard.imbalance_x100");
            c
        };
        assert_eq!(algorithmic(&seq), algorithmic(&par));
        // PARTITION runs on the pool, yet the ring keeps the sequential
        // run's decisions in the sequential run's order.
        let ring = |r: &mmrepl_obs::Recorder| {
            let kept: Vec<mmrepl_obs::Decision> = r.decisions().copied().collect();
            (kept, r.decisions_dropped())
        };
        assert_eq!(ring(&seq), ring(&par), "provenance cap {cap}");
        assert!(seq.decisions_len() > 0);
        assert!(
            cap > 64 || seq.decisions_dropped() > 0,
            "the ring must wrap"
        );
        // Same spans close the same number of times, whatever the
        // threading.
        let counts = |r: &mmrepl_obs::Recorder| -> Vec<(String, u64)> {
            r.spans()
                .iter()
                .map(|(k, v)| (k.clone(), v.count))
                .collect()
        };
        assert_eq!(counts(&seq), counts(&par));
    }
    mmrepl_obs::set_provenance_cap(mmrepl_obs::DEFAULT_PROVENANCE_CAP);
}

#[test]
fn audit_divergence_is_routed_into_the_trace() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sys = generate_system(&WorkloadParams::small(), 14).unwrap();
    let placement = partition_all(&sys);
    let site = sys.sites().ids().next().unwrap();
    let trace = traced(|| {
        let mut work = SiteWork::new(&sys, site, &placement, CostParams::default());
        work.debug_corrupt_load(0.25);
        let err = audit_site(&work, AuditStage::Validate);
        assert!(err.is_err(), "corrupted load must diverge");
    });
    let ev = trace
        .events()
        .iter()
        .find(|e| e.kind == "audit_divergence")
        .expect("divergence event in trace");
    assert_eq!(ev.site, Some(site.raw()));
    assert_eq!(ev.stage, AuditStage::Validate.to_string());
    assert!(ev.detail.contains("tracked"), "detail: {}", ev.detail);
}
