#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # mmrepl-model
//!
//! Foundation types for the reproduction of *"Replicating the Contents of a
//! WWW Multimedia Repository to Minimize Download Time"* (Loukopoulos &
//! Ahmad, IPPS 2000).
//!
//! The paper models a company that operates `s` dispersed **local sites**
//! `S_1..S_s` and one central **multimedia repository** `R`. Each web page
//! `W_j` hosted at a local site embeds *compulsory* multimedia objects (MOs)
//! and may link to *optional* ones. Because a browser downloads the page's
//! HTML from the local server and can fetch embedded objects from the
//! repository **in parallel**, the page response time is the *maximum* of
//! the two pipelined streams (paper Eq. 5). The replication problem is to
//! choose, per page, which objects are served locally (the `X`/`X'`
//! allocation matrices) so as to minimize the frequency-weighted response
//! time subject to processing- and storage-capacity constraints
//! (Eq. 7-10).
//!
//! This crate provides:
//!
//! * [`ids`] — typed indices ([`SiteId`], [`PageId`], [`ObjectId`]) and the
//!   [`IdVec`] typed vector they index into;
//! * [`units`] — dimension-bearing newtypes ([`Bytes`], [`Secs`],
//!   [`BytesPerSec`]) so transfer-time arithmetic cannot mix units;
//! * [`entities`] — [`MediaObject`], [`WebPage`], [`Site`], [`Repository`]
//!   and the assembled [`System`];
//! * [`placement`] — the decision variables: per-page [`PagePartition`]
//!   rows of the `X`/`X'` matrices and the whole-system [`Placement`];
//! * [`matrix`] — an explicit [`BitMatrix`] form of the paper's `U`, `A`,
//!   `X`, `X'` matrices, used to cross-validate the list-based fast path;
//! * [`cost`] — the cost model, Eq. 3 through Eq. 7;
//! * [`constraints`] — the feasibility checks, Eq. 8 through Eq. 10;
//! * [`topology`] — the federated-tree extension ([`Topology`], [`NodeId`]):
//!   a validated hierarchy of repository nodes with per-link bandwidth and
//!   latency plus per-site QoS bounds, whose one-node degenerate case is
//!   exactly the paper's star.
//!
//! ## Unit convention
//!
//! The paper's Eq. 3/4 write `B(S_i) * Size(M_k)` while calling `B` a
//! "transfer rate"; dimensional analysis shows `B` is used as *seconds per
//! byte*. We store true rates (bytes/second) and compute transfer time as
//! `size / rate`, which is the same quantity with honest units. See
//! `DESIGN.md` §2.
//!
//! ## Example
//!
//! ```
//! use mmrepl_model::*;
//!
//! // One site, one page with two objects; the cost model prices the
//! // parallel streams.
//! let mut b = SystemBuilder::new();
//! let site = b.add_site(default_site());
//! let big = b.add_object(MediaObject::of_size(Bytes::mib(1)));
//! let small = b.add_object(MediaObject::of_size(Bytes::kib(64)));
//! let page = b.add_page(WebPage {
//!     site,
//!     html_size: Bytes::kib(8),
//!     freq: ReqPerSec(2.0),
//!     compulsory: vec![big, small],
//!     optional: vec![],
//!     opt_req_factor: 1.0,
//! });
//! let system = b.build().unwrap();
//!
//! let cm = CostModel::with_defaults(&system);
//! // Serve the big object locally, the small one from the repository.
//! let split = PagePartition {
//!     local_compulsory: vec![true, false],
//!     local_optional: vec![],
//! };
//! let response = cm.page_response(page, &split); // Eq. 5
//! assert!(response > Secs::ZERO);
//!
//! // Constraint checking over a whole placement (Eq. 8-10):
//! let placement = Placement::all_local(&system);
//! let report = ConstraintReport::check(&system, &placement);
//! assert!(report.is_feasible());
//! ```

pub mod constraints;
pub mod cost;
pub mod entities;
pub mod error;
pub mod ids;
pub mod matrix;
pub mod placement;
pub mod topology;
pub mod units;
pub mod updates;

pub use constraints::{ConstraintReport, Violation};
pub use cost::{CostModel, CostParams, PageCost};
pub use entities::{
    default_site, MediaObject, OptionalRef, Repository, Site, SizeClass, System, SystemBuilder,
    WebPage,
};
pub use error::ModelError;
pub use ids::{IdVec, NodeId, ObjectId, PageId, SiteId};
pub use matrix::BitMatrix;
pub use placement::{PagePartition, Placement, PlacementDiff, StoredSet};
pub use topology::{Attachment, Link, RepoNode, ServingChannel, Topology};
pub use units::{Bytes, BytesPerSec, ReqPerSec, Secs};
pub use updates::{replica_count, repo_update_load, site_update_load, UpdateAwareReport};
