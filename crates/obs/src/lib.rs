#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # mmrepl-obs
//!
//! Structured tracing and metrics for the whole workspace: lightweight
//! spans, counters, gauges, log-spaced histograms, decision-provenance
//! records and typed events, all behind one atomic enabled-check so the
//! disabled path costs a single relaxed load per call site.
//!
//! Recording is thread-local ([`Recorder`] per thread, no locks in hot
//! paths); `mmrepl-core`'s worker pool flushes each worker's recorder
//! into a global sink after every dispatch, and live publishers flush
//! after each batch, so parallel planner and replay runs aggregate
//! deterministically. The sink is the one metric store, with two views:
//!
//! * the **trace** — [`snapshot`]/[`take`] read the aggregate,
//!   [`to_jsonl`]/[`write_jsonl`] export it and [`stage_table`] renders
//!   the per-stage wall-time breakdown;
//! * the **live view** — [`gather`] computes the exposed series (one
//!   const table of names, kinds and help texts) and SLO statuses from
//!   the sink, with rates and windowed quantiles closed by [`tick`];
//!   [`to_prometheus`] and the [`Exporter`] serve it.
//!
//! ## Example
//!
//! ```
//! mmrepl_obs::reset();
//! mmrepl_obs::set_enabled(true);
//! {
//!     let _span = mmrepl_obs::span("plan.partition");
//!     mmrepl_obs::add("partition.objects_local", 3);
//! }
//! mmrepl_obs::set_enabled(false);
//! let trace = mmrepl_obs::take();
//! assert_eq!(trace.counter("partition.objects_local"), 3);
//! assert!(mmrepl_obs::to_jsonl(&trace).contains("plan.partition"));
//! ```

mod export;
mod expose;
mod hist;
mod recorder;
mod slo;
mod timeseries;

pub use export::{stage_table, to_jsonl, write_atomic, write_jsonl, TRACE_SCHEMA};
pub use expose::{gather, to_prometheus, Exporter, ScrapeTarget, TelemetrySnapshot};
pub use hist::Histogram;
pub use recorder::{
    add, decision, enabled, event, flush_thread, merge_histogram, provenance_cap, record_value,
    reset, set_enabled, set_gauge, set_provenance_cap, snapshot, span, take, Decision, Event,
    Recorder, Span, SpanStat, DEFAULT_PROVENANCE_CAP, EVENT_CAP,
};
pub use slo::{
    register_slo, take_slo_events, SloEvent, SloEventKind, SloSpec, SloStatus,
    DEFAULT_LATENCY_TARGET_S,
};
pub use timeseries::{tick, TsCounter, TsGauge, TsReservoir, TsSnapshot, RESERVOIR_WINDOWS};

/// Serialises tests that toggle the process-wide enabled flag or read
/// the global sink: the whole crate's stateful tests share one lock so
/// parallel test threads can't interleave global state.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
