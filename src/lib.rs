#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # mmrepl
//!
//! A from-scratch Rust reproduction of *"Replicating the Contents of a
//! WWW Multimedia Repository to Minimize Download Time"* (Loukopoulos &
//! Ahmad, IPPS 2000).
//!
//! The paper's setting: a company hosts web pages at dispersed local
//! sites while their heavy multimedia objects live in one central
//! repository. Browsers fetch a page's objects over two **parallel**
//! pipelined connections — local server and repository — so the page
//! response time is the *max* of the two streams. The replication policy
//! decides per page which objects each site stores and serves itself so
//! the streams finish together, under storage and processing-capacity
//! constraints, with a distributed off-loading negotiation protecting the
//! repository.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`model`] — entities, typed units, the Eq. 3-7 cost model and the
//!   Eq. 8-10 constraints;
//! * [`workload`] — the Table 1 synthetic workload, request traces, the
//!   Section 5.1 perturbation model and the one request pricer (Eq. 5/6
//!   under each request's conditions) with mergeable statistics;
//! * [`core`] — the paper's algorithms: `PARTITION`, the storage and
//!   capacity restorations and the `OFF_LOADING_REPOSITORY` negotiation
//!   over its control-plane message bus and event queue;
//! * [`baselines`] — Remote, Local and the ideal LRU cache;
//! * [`online`] — the online control plane: streaming rate estimation,
//!   drift detection, churn-bounded incremental replanning and
//!   bandwidth-charged migration;
//! * [`sim`] — trace replay and the Figure 1/2/3 experiment harness;
//! * [`obs`] — structured tracing: spans, counters, histograms and
//!   planner decision provenance behind a single atomic enabled flag.
//!
//! ## Quickstart
//!
//! ```
//! use mmrepl::prelude::*;
//!
//! // A small synthetic company: 3 sites, ~40 pages each, 600 objects.
//! let params = WorkloadParams::small();
//! let system = generate_system(&params, 42).unwrap();
//!
//! // Plan the replication under 60% of full storage.
//! let constrained = system.with_storage_fraction(0.6);
//! let outcome = ReplicationPolicy::new().plan(&constrained);
//! assert!(outcome.report.feasible);
//!
//! // Replay the Table-1-style trace and measure what users experience.
//! let traces = generate_trace(&constrained, &TraceConfig::from_params(&params), 42);
//! let mut router = StaticRouter::new(&outcome.placement, "ours");
//! let result = replay_all(&constrained, &traces, &mut router);
//! assert!(result.mean_response() > 0.0);
//! ```

pub use mmrepl_baselines as baselines;
pub use mmrepl_core as core;
pub use mmrepl_model as model;
pub use mmrepl_obs as obs;
pub use mmrepl_online as online;
pub use mmrepl_sim as sim;
pub use mmrepl_workload as workload;

/// The most common imports, bundled.
pub mod prelude {
    pub use mmrepl_baselines::{
        local_policy, remote_policy, GdsRouter, LfuRouter, LruRouter, RequestRouter, StaticRouter,
    };
    pub use mmrepl_core::{
        partition_all, partition_page, OffloadConfig, PlannerConfig, ReplicationPolicy,
    };
    pub use mmrepl_model::{
        Bytes, BytesPerSec, ConstraintReport, CostModel, CostParams, MediaObject, ObjectId,
        OptionalRef, PageId, PagePartition, Placement, ReqPerSec, Secs, Site, SiteId, System,
        SystemBuilder, WebPage,
    };
    pub use mmrepl_online::{OnlineConfig, OnlineController};
    pub use mmrepl_sim::{
        cache_comparison, drift_study, figure1, figure2, figure3, headline, online_study,
        queueing_replay, replay_all, ExperimentConfig,
    };
    pub use mmrepl_workload::{
        generate_system, generate_trace, DriftModel, PerturbModel, TraceConfig, WorkloadParams,
    };
}
