//! The serving plane: what answers requests *between* plans.
//!
//! The planner in `mmrepl-core` decides where replicas should live; the
//! online controller in `mmrepl-online` migrates toward that decision.
//! This crate is the third leg — the read path that turns a finished
//! plan into request routing at memory speed:
//!
//! * [`PlacementSnapshot`] — an immutable, flat-array view of one plan:
//!   dense page→object CSRs with locality marks, per-object sorted
//!   replica lists, per-site serving lanes (channel parameters, QoS
//!   bound, residual capacity) and the topology's node table. Built once
//!   per epoch from a [`mmrepl_core::PlanOutcome`], then shared
//!   read-only.
//! * [`EpochCell`] — the publication point. The controller publishes a
//!   fresh snapshot atomically while reader threads keep routing
//!   against the old one until their next load; an old epoch is freed
//!   when its last reader drops it.
//! * [`MigrationOverlay`] — the one mutable structure *inside* a
//!   snapshot: an atomic bitset of replicas the plan promises but the
//!   migration queues have not delivered yet. Routers consult it so
//!   mid-migration requests go to where an object currently lives, not
//!   where it will.
//! * [`Router`] — per-site closest-replica selection with QoS vetoes and
//!   capacity-aware fallback, mirroring `core::select` semantics at
//!   request time, with an `audit`-feature cross-check that every
//!   decision targets a site that actually holds the object.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod router;
pub mod snapshot;

pub use epoch::EpochCell;
pub use router::{
    register_latency_slo, route_traces, RouteOutcome, RouteStats, RouteTarget, Router,
};
pub use snapshot::{MigrationOverlay, NodeLane, PlacementSnapshot, SiteLane, NO_NODE};
