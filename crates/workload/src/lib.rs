#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # mmrepl-workload
//!
//! Synthetic workload for the IPPS 2000 multimedia-repository replication
//! paper, reproducing Section 5.1:
//!
//! * [`config`] — every Table 1 parameter as a validated, serializable
//!   [`WorkloadParams`] struct (with [`WorkloadParams::paper`] giving the
//!   published values);
//! * [`generator`] — builds a [`mmrepl_model::System`] from the parameters
//!   and a seed: 10 sites, 400-800 pages each, 15,000 multimedia objects in
//!   three size bands, 10 % hot pages carrying 60 % of the traffic;
//! * [`trace`] — the 10,000-requests-per-server request trace, including
//!   which optional objects each request fetches;
//! * [`perturb`] — the "actuals differ from estimates" model: 60 % of local
//!   requests within ±10 % of the estimated rate, 30 % at 1/2-1/3, 10 % at
//!   1/4-1/6 (congestion), repository rates/overheads within ±20 %, local
//!   overheads −10 %..+50 %;
//! * [`sampling`] — an O(1) alias-method sampler for frequency-weighted
//!   page selection (100,000 draws per experiment run);
//! * [`drift`] — the "breaking news" hot-set rotation backing the
//!   replanning study (extension of Section 4.1);
//! * [`price`] — the one request pricer every replay uses: Eq. 5's two
//!   parallel pipelined streams and Eq. 6's per-fetch optional
//!   connections under each request's perturbed conditions, over the
//!   [`transfer`] connection arithmetic; [`metrics`] accumulates the
//!   priced response times in mergeable statistics.
//!
//! Everything is deterministic given a seed: the same `(params, seed)` pair
//! reproduces the same system and the same trace, which the experiment
//! harness relies on to pair policies against identical request sequences.
//!
//! ## Example
//!
//! ```
//! use mmrepl_workload::*;
//!
//! let params = WorkloadParams::small(); // paper() for full Table 1 scale
//! let system = generate_system(&params, 42).unwrap();
//! assert_eq!(system.n_sites(), params.n_sites);
//!
//! // The 10,000-requests-per-server trace (500 at small scale), with the
//! // Section 5.1 perturbation baked into each request.
//! let traces = generate_trace(&system, &TraceConfig::from_params(&params), 42);
//! assert_eq!(traces.len(), system.n_sites());
//! assert!(traces.iter().all(|t| t.len() == params.requests_per_site));
//! ```

pub mod config;
pub mod drift;
pub mod generator;
pub mod metrics;
pub mod perturb;
pub mod price;
pub mod sampling;
pub mod trace;
pub mod transfer;

pub use config::{Range, TopologyParams, WorkloadParams};
pub use drift::DriftModel;
pub use generator::generate_system;
pub use metrics::ResponseStats;
pub use perturb::{PerturbModel, RequestConditions};
pub use price::RequestStreams;
pub use sampling::AliasTable;
pub use trace::{
    events_of, generate_site_trace, generate_trace, Request, SiteTrace, TraceConfig, TraceEvent,
};
pub use transfer::ConnectionProfile;
