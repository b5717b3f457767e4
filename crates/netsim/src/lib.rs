#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # mmrepl-netsim
//!
//! Discrete-event network and server substrate for the replication
//! simulator. The paper's evaluation needs three things from its
//! "network":
//!
//! 1. **Transfer timing** — how long a pipelined sequence of downloads
//!    takes over one persistent connection ([`transfer`]), including the
//!    parallel local/repository stream composition of Eq. 5;
//! 2. **Server queueing** — what happens when a server's processing
//!    capacity is exceeded, used by the queueing-aware replay extension
//!    ([`server`], [`event`]);
//! 3. **A control plane** — the repository off-loading negotiation of
//!    Section 4 is a real message protocol (status messages, workload
//!    assignments, acknowledgements); [`bus`] simulates the exchange with
//!    latency and round/message accounting so the protocol's cost is
//!    measurable, not hand-waved.
//!
//! [`metrics`] collects response-time statistics with mergeable
//! accumulators so the experiment harness can fan replay out across
//! threads and combine the results, and [`session`] replays a single page
//! download event-by-event to cross-validate the closed-form arithmetic.
//!
//! ## Example
//!
//! ```
//! use mmrepl_model::{Bytes, BytesPerSec, Secs};
//! use mmrepl_netsim::{parallel_page_time, ConnectionProfile, StreamPlan};
//!
//! // Local pipe: fast but pays 1.5 s of setup; repository pipe: slow.
//! let local = ConnectionProfile::new(Secs(1.5), BytesPerSec::kib_per_sec(8.0));
//! let repo = ConnectionProfile::new(Secs(2.2), BytesPerSec::kib_per_sec(1.0));
//!
//! let mut local_stream = StreamPlan::empty(local);
//! local_stream.push(Bytes::kib(12));   // the HTML document
//! local_stream.push(Bytes::kib(400));  // a locally replicated image
//! let mut repo_stream = StreamPlan::empty(repo);
//! repo_stream.push(Bytes::kib(60));    // one object left remote
//!
//! // Eq. 5: the page completes when the slower stream finishes.
//! let response = parallel_page_time(&local_stream, &repo_stream);
//! assert_eq!(response, local_stream.total_time().max(repo_stream.total_time()));
//! ```

pub mod bus;
pub mod event;
pub mod metrics;
pub mod server;
pub mod session;
pub mod transfer;

pub use bus::{BusStats, Endpoint, Envelope, FaultConfig, MessageBus};
pub use event::{EventQueue, SimTime};
pub use metrics::{Histogram, ResponseStats};
pub use server::{QueueingServer, ServiceOutcome};
pub use session::{simulate_page, SessionEvent, SessionTimeline, StreamSide};
pub use transfer::{parallel_page_time, pipeline_time, ConnectionProfile, StreamPlan};
