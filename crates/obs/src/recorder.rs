//! Recorders, spans and the process-wide trace pipeline.
//!
//! The design has three layers:
//!
//! 1. a process-wide **enabled flag** ([`enabled`]) — one relaxed atomic
//!    load. Every recording entry point checks it first, so the disabled
//!    path (the production default) does no other work at all;
//! 2. a **thread-local [`Recorder`]** that each recording call mutates
//!    without synchronisation. Hot loops never touch a lock;
//! 3. a **global sink** recorder that thread-locals merge into via
//!    [`flush_thread`]. `mmrepl-core`'s worker pool calls it after every
//!    dispatch, and every live publisher calls it after its batch, so
//!    the sink is the one store both views read: [`snapshot`]/[`take`]
//!    for the trace and stage table, [`crate::gather`] for the
//!    Prometheus exposition and `mmrepl top`.
//!
//! [`Recorder::merge`] is commutative up to provenance *content* (the
//! ring buffer keeps whichever `cap` decisions arrive last) and gauges
//! (last write wins): counters, span totals and histogram buckets come
//! out identical whatever the merge order, which is what makes
//! per-thread recording deterministic to aggregate. The property tests
//! in `tests/prop_recorder.rs` pin this down.

use crate::Histogram;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default capacity of the decision-provenance ring buffer.
pub const DEFAULT_PROVENANCE_CAP: usize = 4096;

/// Capacity of the typed-event buffer (audit divergences and the like are
/// rare; a run that produces more than this keeps the first ones and
/// counts the rest).
pub const EVENT_CAP: usize = 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);
static PROVENANCE_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_PROVENANCE_CAP);

/// True when tracing is enabled. This is the *entire* disabled-path cost
/// of every recording entry point: one relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Sets the decision-provenance ring capacity for recorders created after
/// this call (at least 1).
pub fn set_provenance_cap(cap: usize) {
    PROVENANCE_CAP.store(cap.max(1), Ordering::Relaxed);
}

/// Current decision-provenance ring capacity.
pub fn provenance_cap() -> usize {
    PROVENANCE_CAP.load(Ordering::Relaxed)
}

/// Aggregate timing for one named span: how many times it closed and the
/// total nanoseconds spent inside it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanStat {
    /// Completed enter/exit pairs.
    pub count: u64,
    /// Total wall time inside the span, in nanoseconds.
    pub total_ns: u64,
}

impl SpanStat {
    /// Total seconds inside the span.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }
}

/// One decision-provenance record from `PARTITION`: which stream got the
/// object and what both stream finish times were at that moment.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Site whose page was being partitioned.
    pub site: u32,
    /// Page the object belongs to.
    pub page: u32,
    /// Object being placed.
    pub object: u32,
    /// True when the object went to the local stream (site stores it).
    pub local: bool,
    /// Local stream finish time had the object gone local, seconds.
    pub local_s: f64,
    /// Remote stream finish time had the object stayed remote, seconds.
    pub remote_s: f64,
}

/// A typed event: something notable and rare (an audit divergence, a
/// dropped offload) pinned to an optional site and a pipeline stage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Event class, e.g. `audit_divergence`.
    pub kind: String,
    /// Site the event concerns, if any.
    pub site: Option<u32>,
    /// Pipeline stage the event occurred in.
    pub stage: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

/// A mergeable bundle of counters, gauges, span timings, histograms,
/// decision provenance and events. One lives per thread; merged copies
/// form snapshots.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Recorder {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, SpanStat>,
    hists: BTreeMap<String, Histogram>,
    /// Cumulative sum of every value each histogram absorbed.
    sums: BTreeMap<String, f64>,
    // Ring buffer: once `decisions` reaches `cap`, `head` is the slot the
    // next decision overwrites (also the oldest entry).
    decisions: Vec<Decision>,
    head: usize,
    cap: usize,
    decisions_dropped: u64,
    events: Vec<Event>,
    events_dropped: u64,
    ops: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder using the global provenance capacity.
    pub fn new() -> Self {
        Self::with_cap(provenance_cap())
    }

    /// An empty recorder whose decision ring holds at most `cap` entries.
    pub fn with_cap(cap: usize) -> Self {
        Recorder {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            spans: BTreeMap::new(),
            hists: BTreeMap::new(),
            sums: BTreeMap::new(),
            decisions: Vec::new(),
            head: 0,
            cap: cap.max(1),
            decisions_dropped: 0,
            events: Vec::new(),
            events_dropped: 0,
            ops: 0,
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// Number of recording operations that landed in this recorder
    /// (including merged-in ones). Each would have cost one enabled-check
    /// on the disabled path, which is what the perfsuite overhead model
    /// multiplies out.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Adds `delta` to the named counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        self.ops += 1;
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Sets the named gauge; the last write wins, in merges too.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.ops += 1;
        if let Some(g) = self.gauges.get_mut(name) {
            *g = v;
        } else {
            self.gauges.insert(name.to_owned(), v);
        }
    }

    /// Folds one completed span into the named span's aggregate.
    pub fn record_span_ns(&mut self, name: &str, ns: u64) {
        // A span costs two enabled-checks on the disabled path (enter and
        // exit), so it counts as two ops.
        self.ops += 2;
        let s = self.spans.entry(name.to_owned()).or_default();
        s.count += 1;
        s.total_ns += ns;
    }

    /// Records `v` into the named histogram, creating it with the
    /// [`Histogram::for_traced_values`] range on first use.
    pub fn record_value(&mut self, name: &str, v: f64) {
        self.ops += 1;
        if let Some(h) = self.hists.get_mut(name) {
            h.record(v);
        } else {
            let mut h = Histogram::for_traced_values();
            h.record(v);
            self.hists.insert(name.to_owned(), h);
        }
        self.add_sum(name, v);
    }

    /// Merges an externally-built histogram (any layout) whose samples
    /// sum to `sum` into the named slot. A name must always carry one
    /// layout; see [`Histogram::merge`].
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram, sum: f64) {
        self.ops += 1;
        if let Some(mine) = self.hists.get_mut(name) {
            mine.merge(h);
        } else {
            self.hists.insert(name.to_owned(), h.clone());
        }
        self.add_sum(name, sum);
    }

    fn add_sum(&mut self, name: &str, v: f64) {
        if let Some(s) = self.sums.get_mut(name) {
            *s += v;
        } else {
            self.sums.insert(name.to_owned(), v);
        }
    }

    /// Pushes a provenance record, overwriting the oldest once the ring
    /// is full.
    pub fn push_decision(&mut self, d: Decision) {
        self.ops += 1;
        if self.decisions.len() < self.cap {
            self.decisions.push(d);
        } else {
            self.decisions[self.head] = d;
            self.head = (self.head + 1) % self.cap;
            self.decisions_dropped += 1;
        }
    }

    /// Pushes a typed event, counting instead of storing past [`EVENT_CAP`].
    pub fn push_event(&mut self, e: Event) {
        self.ops += 1;
        if self.events.len() < EVENT_CAP {
            self.events.push(e);
        } else {
            self.events_dropped += 1;
        }
    }

    /// Named counters, sorted by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Value of one counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauges, sorted by name.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// Value of one gauge (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Span aggregates, sorted by name.
    pub fn spans(&self) -> &BTreeMap<String, SpanStat> {
        &self.spans
    }

    /// One span's aggregate, if it ever closed.
    pub fn span(&self, name: &str) -> Option<SpanStat> {
        self.spans.get(name).copied()
    }

    /// Histograms, sorted by name.
    pub fn hists(&self) -> &BTreeMap<String, Histogram> {
        &self.hists
    }

    /// Sum of every value the named histogram absorbed (0 when absent).
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Decision provenance in arrival order (oldest surviving first).
    pub fn decisions(&self) -> impl Iterator<Item = &Decision> {
        let (newer, older) = self.decisions.split_at(self.head.min(self.decisions.len()));
        older.iter().chain(newer.iter())
    }

    /// Number of surviving provenance records.
    pub fn decisions_len(&self) -> usize {
        self.decisions.len()
    }

    /// Decisions overwritten by ring wrap-around.
    pub fn decisions_dropped(&self) -> u64 {
        self.decisions_dropped
    }

    /// Typed events in arrival order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events discarded past [`EVENT_CAP`].
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Merges another recorder into this one. Counters, span aggregates
    /// and histogram buckets are order-independent; gauges take
    /// `other`'s value and the decision ring keeps the last `cap` records
    /// in merge order.
    pub fn merge(&mut self, other: &Recorder) {
        for (k, &v) in &other.counters {
            if let Some(c) = self.counters.get_mut(k) {
                *c += v;
            } else {
                self.counters.insert(k.clone(), v);
            }
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, &v) in &other.spans {
            let s = self.spans.entry(k.clone()).or_default();
            s.count += v.count;
            s.total_ns += v.total_ns;
        }
        for (k, h) in &other.hists {
            if let Some(mine) = self.hists.get_mut(k) {
                mine.merge(h);
            } else {
                self.hists.insert(k.clone(), h.clone());
            }
        }
        for (k, &v) in &other.sums {
            self.add_sum(k, v);
        }
        for d in other.decisions() {
            if self.decisions.len() < self.cap {
                self.decisions.push(*d);
            } else {
                self.decisions[self.head] = *d;
                self.head = (self.head + 1) % self.cap;
                self.decisions_dropped += 1;
            }
        }
        self.decisions_dropped += other.decisions_dropped;
        for e in &other.events {
            if self.events.len() < EVENT_CAP {
                self.events.push(e.clone());
            } else {
                self.events_dropped += 1;
            }
        }
        self.events_dropped += other.events_dropped;
        self.ops += other.ops;
    }
}

thread_local! {
    static TLS: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// The global sink every thread flushes into: the one store behind the
/// trace ([`snapshot`]/[`take`]) and the live view ([`crate::gather`]).
pub(crate) fn sink() -> &'static Mutex<Recorder> {
    static SINK: OnceLock<Mutex<Recorder>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Recorder::new()))
}

/// A live span: created by [`span`], records its wall time into the
/// thread-local recorder when dropped. When tracing was disabled at
/// creation it is inert.
#[must_use = "a span measures the scope it is bound to; dropping it immediately measures nothing"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            TLS.with(|r| r.borrow_mut().record_span_ns(self.name, ns));
        }
    }
}

/// Opens a named span; wall time from now until the guard drops is added
/// to the span's aggregate. Inert (no clock read) when tracing is
/// disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: enabled().then(Instant::now),
    }
}

/// Adds `delta` to a named counter on the current thread's recorder.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if enabled() {
        TLS.with(|r| r.borrow_mut().add(name, delta));
    }
}

/// Sets a named gauge on the current thread's recorder (last write
/// wins).
#[inline]
pub fn set_gauge(name: &'static str, v: f64) {
    if enabled() {
        TLS.with(|r| r.borrow_mut().set_gauge(name, v));
    }
}

/// Records a value into a named histogram on the current thread's
/// recorder.
#[inline]
pub fn record_value(name: &'static str, v: f64) {
    if enabled() {
        TLS.with(|r| r.borrow_mut().record_value(name, v));
    }
}

/// Merges an externally-accumulated histogram, whose samples sum to
/// `sum`, into the named slot.
#[inline]
pub fn merge_histogram(name: &'static str, h: &Histogram, sum: f64) {
    if enabled() {
        TLS.with(|r| r.borrow_mut().merge_histogram(name, h, sum));
    }
}

/// Records one partition decision into the provenance ring.
#[inline]
pub fn decision(d: Decision) {
    if enabled() {
        TLS.with(|r| r.borrow_mut().push_decision(d));
    }
}

/// Records a typed event.
#[inline]
pub fn event(kind: &str, site: Option<u32>, stage: &str, detail: String) {
    if enabled() {
        TLS.with(|r| {
            r.borrow_mut().push_event(Event {
                kind: kind.to_owned(),
                site,
                stage: stage.to_owned(),
                detail,
            })
        });
    }
}

/// Merges the current thread's recorder into the global sink and clears
/// it. Cheap no-op when the thread recorded nothing. `mmrepl-core`'s
/// worker pool calls this after every dispatch, and every live publisher
/// after its batch so the exposition sees it; call it yourself on any
/// thread you spawned by hand before reading a snapshot.
pub fn flush_thread() {
    TLS.with(|r| {
        let mut tls = r.borrow_mut();
        if tls.is_empty() {
            return;
        }
        let taken = std::mem::take(&mut *tls);
        sink().lock().unwrap().merge(&taken);
    });
}

/// Flushes the calling thread and returns a copy of the global sink.
pub fn snapshot() -> Recorder {
    flush_thread();
    sink().lock().unwrap().clone()
}

/// Flushes the calling thread and drains the global sink, leaving it
/// empty.
pub fn take() -> Recorder {
    flush_thread();
    std::mem::take(&mut *sink().lock().unwrap())
}

/// Clears the calling thread's recorder, the global sink, and the live
/// view's window state and SLO trackers, so back-to-back studies in one
/// process cannot leak metrics between runs. Recorders on other threads
/// are expected to already be flushed (the pool flushes after every
/// dispatch).
pub fn reset() {
    TLS.with(|r| *r.borrow_mut() = Recorder::new());
    *sink().lock().unwrap() = Recorder::new();
    crate::timeseries::reset_windows();
    crate::slo::reset_slo();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global enabled flag and sink are process-wide; tests that use
    // them serialise on the crate-wide lock so they cannot observe each
    // other's state — including the timeseries/slo/expose test modules.
    // (Tests touching only owned `Recorder`s need no lock.)
    use crate::TEST_LOCK as GLOBAL_LOCK;

    #[test]
    fn disabled_records_nothing() {
        let _g = GLOBAL_LOCK.lock().unwrap();
        reset();
        set_enabled(false);
        add("x", 5);
        record_value("y", 1.0);
        set_gauge("g", 1.0);
        let _s = span("z");
        decision(Decision {
            site: 0,
            page: 0,
            object: 0,
            local: true,
            local_s: 1.0,
            remote_s: 2.0,
        });
        event("k", None, "stage", "detail".into());
        assert!(snapshot().is_empty());
    }

    #[test]
    fn enabled_roundtrip_and_reset() {
        let _g = GLOBAL_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        add("c", 2);
        add("c", 3);
        {
            let _s = span("s");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        record_value("v", 2.5);
        set_gauge("g", 1.0);
        set_gauge("g", 4.0);
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.gauge("g"), Some(4.0));
        assert_eq!(snap.hist_sum("v"), 2.5);
        let s = snap.span("s").unwrap();
        assert_eq!(s.count, 1);
        assert!(s.total_ns >= 1_000_000, "span measured {} ns", s.total_ns);
        assert_eq!(snap.hists()["v"].count(), 1);
        assert!(snap.ops() >= 5);
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn cross_thread_flush_aggregates() {
        let _g = GLOBAL_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    add("t", 1);
                    flush_thread();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let snap = take();
        assert_eq!(snap.counter("t"), 4);
    }

    #[test]
    fn ring_keeps_last_cap_decisions() {
        let mut r = Recorder::with_cap(3);
        for i in 0..7u32 {
            r.push_decision(Decision {
                site: 0,
                page: 0,
                object: i,
                local: false,
                local_s: 0.0,
                remote_s: 0.0,
            });
        }
        let kept: Vec<u32> = r.decisions().map(|d| d.object).collect();
        assert_eq!(kept, vec![4, 5, 6]);
        assert_eq!(r.decisions_dropped(), 4);
        assert_eq!(r.decisions_len(), 3);
    }

    #[test]
    fn event_buffer_saturates() {
        let mut r = Recorder::new();
        for i in 0..(EVENT_CAP + 10) {
            r.push_event(Event {
                kind: "k".into(),
                site: None,
                stage: "s".into(),
                detail: format!("{i}"),
            });
        }
        assert_eq!(r.events().len(), EVENT_CAP);
        assert_eq!(r.events_dropped(), 10);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Recorder::with_cap(8);
        let mut b = Recorder::with_cap(8);
        a.add("c", 1);
        b.add("c", 2);
        b.add("d", 7);
        a.record_span_ns("s", 10);
        b.record_span_ns("s", 30);
        a.record_value("h", 1.0);
        b.record_value("h", 2.0);
        a.set_gauge("g", 1.0);
        b.set_gauge("g", 2.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("d"), 7);
        let s = a.span("s").unwrap();
        assert_eq!((s.count, s.total_ns), (2, 40));
        assert_eq!(a.hists()["h"].count(), 2);
        assert_eq!(a.hist_sum("h"), 3.0);
        assert_eq!(a.gauge("g"), Some(2.0), "the merged-in write wins");
        assert_eq!(a.ops(), b.ops() + 5);
    }
}
