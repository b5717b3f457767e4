#![deny(unsafe_code)]
#![warn(missing_docs)]

//! # mmrepl-core
//!
//! The paper's contribution (Section 4): a distributed replication policy
//! that decides, per page, which multimedia objects each local site stores
//! and serves itself and which it leaves to the central repository, so the
//! two parallel download streams finish together — subject to storage
//! (Eq. 10) and processing-capacity (Eq. 8/9) constraints.
//!
//! Pipeline, exactly as the paper orders it:
//!
//! 1. [`partition`] — the greedy `PARTITION(W_j)` balancing, run
//!    independently per page (decreasing object size, each object placed on
//!    whichever stream stays shorter);
//! 2. [`storage`] — restore Eq. 10 by repeatedly deallocating the stored
//!    object whose removal hurts the objective least *per byte freed*,
//!    re-partitioning the affected pages against the shrunken store;
//! 3. [`capacity`] — restore Eq. 8 by moving the `(page, object)` local
//!    download with the least performance loss *per unit of workload
//!    freed* back to the repository, deallocating objects that lose their
//!    last local mark;
//! 4. [`offload`] + [`negotiate`] — restore Eq. 9 with the distributed
//!    `OFF_LOADING_REPOSITORY` negotiation: sites report
//!    `(Space(S_i), P(S_i), P(S_i,R))` status messages over a simulated
//!    control plane, the repository pushes excess workload back
//!    proportionally to headroom (L1 = sites with space and cpu, L2 = cpu
//!    only), sites absorb what they can and acknowledge, over as many
//!    rounds as needed. [`negotiate`] is the one protocol: its default
//!    configuration (greedy rounds over a reliable bus) is the paper's
//!    stage 4, and seeded bus faults and alternative strategies are knobs
//!    on the same run; [`offload`] holds the round arithmetic and the
//!    site-side absorption it shares. The control plane it runs on is a
//!    crate-private seeded fault-injecting message bus ([`FaultConfig`],
//!    [`BusStats`]) over the deterministic [`event`] queue (which the
//!    simulator's event-driven replay reuses).
//!
//! [`planner::ReplicationPolicy`] glues the stages together and returns the
//! final [`mmrepl_model::Placement`] plus a [`planner::PlanReport`] of what
//! each stage did.
//!
//! ## Example
//!
//! ```
//! use mmrepl_core::ReplicationPolicy;
//! use mmrepl_model::ConstraintReport;
//! use mmrepl_workload::{generate_system, WorkloadParams};
//!
//! let system = generate_system(&WorkloadParams::small(), 7)
//!     .unwrap()
//!     .with_storage_fraction(0.6)   // Figure 1-style squeeze
//!     .with_processing_fraction(0.9);
//!
//! let outcome = ReplicationPolicy::new().plan(&system);
//! assert!(outcome.report.feasible);
//! assert!(ConstraintReport::check(&system, &outcome.placement).is_feasible());
//! ```

pub mod audit;
pub mod bits;
mod bus;
pub mod capacity;
pub mod event;
pub mod lazyheap;
pub mod negotiate;
pub mod offload;
pub mod partition;
pub mod planner;
#[allow(unsafe_code)]
pub mod pool;
pub mod select;
pub mod state;
pub mod storage;
pub mod streams;

pub use audit::{
    assert_consistent, audit_site, audits_performed, check_repo_constraint, check_site_constraints,
    AuditStage, Divergence,
};
pub use bits::DenseBits;
pub use bus::{BusStats, FaultConfig};
pub use capacity::{restore_capacity, CapacityReport};
pub use event::{EventQueue, SimTime};
pub use lazyheap::{pack_slot, unpack_slot, LazyMinHeap};
pub use negotiate::{
    run_negotiation, NegotiateConfig, NegotiateMsg, NegotiateOutcome, NegotiateReport, StrategyKind,
};
pub use offload::{
    absorb_workload, paper_round_plan, run_offload, Assignment, AssignmentRule, OffloadConfig,
    OffloadOutcome, OffloadReport, RoundPlan,
};
pub use partition::{
    optimal_partition, partition_all, partition_all_ordered, partition_all_with, partition_page,
    partition_page_ordered, partition_page_ordered_with, PartitionOrder,
};
pub use planner::{PlanOutcome, PlanReport, PlannerConfig, ReplicationPolicy};
pub use pool::{effective_threads, parallel_map};
pub use select::{select_ancestors, select_ancestors_with_demand, AncestorPolicy, Selection};
pub use state::SiteWork;
pub use storage::{restore_storage, restore_storage_with, DeallocCriterion, StorageReport};
pub use streams::{OptionalCost, SiteParams, Streams};
