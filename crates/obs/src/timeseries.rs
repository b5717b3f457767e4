//! The live view: the continuously-published side of obs, read from
//! the same store as the trace.
//!
//! There is no second registry. Publishers (the router, the online
//! controller, the negotiation state machine, the online study) record
//! through the ordinary [`crate::add`]/[`crate::set_gauge`]/
//! [`crate::merge_histogram`] calls and flush their batch into the
//! global sink; this module computes the exposed series from that sink.
//! [`SERIES`] is the one table of what a scrape carries — name, kind and
//! help text, read at render time — so every series is present,
//! zero-valued until first published, from the first tick on.
//!
//! Three kinds:
//!
//! * **counters** — the sink's monotone `u64` totals. [`tick`] turns the
//!   change since the previous tick into a rate;
//! * **gauges** — the sink's last-write-wins levels;
//! * **summaries** — the sink's cumulative histogram and exact sum give
//!   the Prometheus `_count` and `_sum`. The quantiles describe a
//!   sliding window: the bucket counts of the histogram now minus those
//!   of the copy kept `RESERVOIR_WINDOWS - 1` ticks back, so a sample
//!   ages out on the [`RESERVOIR_WINDOWS`]-th tick after it.
//!
//! The same [`tick`] closes one window of every SLO tracker
//! ([`crate::register_slo`]).

use crate::{Histogram, Recorder};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, OnceLock};

/// Ticks a summary's quantile window spans: the open tick and the
/// `RESERVOIR_WINDOWS - 1` closed before it.
pub const RESERVOIR_WINDOWS: usize = 8;

/// How an exposed series renders, and which store of the sink it reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Family {
    Counter,
    Gauge,
    Summary,
}

use Family::{Counter, Gauge, Summary};

/// Every series the live view exposes, sorted by name: the sink name,
/// its kind and its `# HELP` text.
#[rustfmt::skip]
pub(crate) const SERIES: &[(&str, Family, &str)] = &[
    ("negotiate.degraded_sites",      Counter, "sites degraded to last-known state on silence"),
    ("negotiate.duplicates_ignored",  Counter, "duplicated control messages absorbed by seq-dedup"),
    ("negotiate.messages",            Counter, "control-plane messages delivered"),
    ("negotiate.retries",             Counter, "negotiation offers re-sent after a timeout"),
    ("negotiate.rounds",              Counter, "offer/counter negotiation rounds"),
    ("negotiate.timeouts",            Counter, "negotiation deadlines that expired"),
    ("netsim.bus.delivered",          Counter, "messages delivered by the bus"),
    ("netsim.bus.dropped",            Counter, "messages dropped by fault injection"),
    ("netsim.bus.duplicated",         Counter, "extra copies scheduled by fault injection"),
    ("netsim.bus.in_flight",          Gauge,   "messages currently in flight"),
    ("netsim.bus.reordered",          Counter, "messages held back past later sends by fault injection"),
    ("netsim.bus.sent",               Counter, "messages posted on the bus"),
    ("online.epoch",                  Gauge,   "drift epoch the online study is serving"),
    ("online.migrated_bytes",         Counter, "replica bytes the controller scheduled for migration"),
    ("online.migration_queue_bytes",  Gauge,   "bytes still queued on the sites' migration queues"),
    ("online.replans",                Counter, "incremental replans the controller ran"),
    ("serve.epoch_swaps",             Counter, "placement snapshots published"),
    ("serve.route.latency_s",         Summary, "estimated per-request response time, seconds (Eq. 5)"),
    ("serve.route.local",             Counter, "objects served from the local store"),
    ("serve.route.objects",           Counter, "objects routed"),
    ("serve.route.overlay_deflected", Counter, "locally-marked objects deflected remotely by a pending overlay bit"),
    ("serve.route.peer",              Counter, "objects served from peer replicas"),
    ("serve.route.repo",              Counter, "objects served by the serving repository node"),
    ("serve.route.requests",          Counter, "requests routed"),
];

/// The `# HELP` text of an exposed series (empty for any other name).
pub(crate) fn help(name: &str) -> &'static str {
    SERIES
        .iter()
        .find(|s| s.0 == name)
        .map_or("", |&(_, _, help)| help)
}

/// What the view remembers between ticks.
#[derive(Default)]
struct Windows {
    /// Each counter's total at the last tick and the rate that tick
    /// measured.
    counters: BTreeMap<&'static str, (u64, f64)>,
    /// Each summary's cumulative histogram at the last
    /// `RESERVOIR_WINDOWS` ticks, oldest first (`None` before its first
    /// sample).
    summaries: BTreeMap<&'static str, VecDeque<Option<Histogram>>>,
}

fn windows() -> &'static Mutex<Windows> {
    static WINDOWS: OnceLock<Mutex<Windows>> = OnceLock::new();
    WINDOWS.get_or_init(|| Mutex::new(Windows::default()))
}

/// Closes one window of `dt_s` seconds: every counter's rate becomes
/// `(now - last tick) / dt_s`, every summary keeps a copy of its
/// histogram, and every SLO tracker closes a tick. Called by the
/// exposition clock ([`crate::Exporter`] or `mmrepl top`), never by
/// publishers.
pub fn tick(dt_s: f64) {
    let dt = dt_s.max(1e-9);
    let sink = crate::recorder::sink().lock().unwrap();
    crate::slo::tick(&sink);
    let mut w = windows().lock().unwrap();
    for &(name, family, _) in SERIES {
        match family {
            Counter => {
                let now = sink.counter(name);
                let (last, rate) = w.counters.entry(name).or_default();
                *rate = now.saturating_sub(*last) as f64 / dt;
                *last = now;
            }
            Gauge => {}
            Summary => {
                let ring = w.summaries.entry(name).or_default();
                if ring.len() == RESERVOIR_WINDOWS {
                    ring.pop_front();
                }
                ring.push_back(sink.hists().get(name).cloned());
            }
        }
    }
}

/// Forgets every tick. Called by [`crate::reset`].
pub(crate) fn reset_windows() {
    *windows().lock().unwrap() = Windows::default();
}

/// One counter sample in a [`TsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct TsCounter {
    /// Metric name (dotted, unsanitized).
    pub name: String,
    /// Cumulative value.
    pub value: u64,
    /// Rate over the last closed window (0 before the first tick).
    pub rate_per_s: f64,
}

/// One gauge sample in a [`TsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct TsGauge {
    /// Metric name (dotted, unsanitized).
    pub name: String,
    /// Current level (0 until first set).
    pub value: f64,
}

/// One summary sample in a [`TsSnapshot`]: cumulative count/sum plus
/// sliding-window quantiles.
#[derive(Clone, Debug, PartialEq)]
pub struct TsReservoir {
    /// Metric name (dotted, unsanitized).
    pub name: String,
    /// Cumulative samples ever observed.
    pub count: u64,
    /// Cumulative sum of observed values, seconds.
    pub sum_s: f64,
    /// Samples inside the current sliding window.
    pub window_count: u64,
    /// Sliding-window median (`None` while the window is empty).
    pub p50: Option<f64>,
    /// Sliding-window 90th percentile.
    pub p90: Option<f64>,
    /// Sliding-window 99th percentile.
    pub p99: Option<f64>,
    /// Sliding-window 99.9th percentile.
    pub p999: Option<f64>,
}

/// The exposed series, name-sorted within each kind.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<TsCounter>,
    /// Gauges, sorted by name.
    pub gauges: Vec<TsGauge>,
    /// Summaries, sorted by name.
    pub reservoirs: Vec<TsReservoir>,
}

impl TsSnapshot {
    /// One counter's cumulative value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// One gauge's level (`None` when absent).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// One summary, when present.
    pub fn reservoir(&self, name: &str) -> Option<&TsReservoir> {
        self.reservoirs.iter().find(|r| r.name == name)
    }
}

/// Computes every [`SERIES`] entry from the sink and the tick state.
/// Deterministic: the sink's counters and buckets do not depend on the
/// order threads flushed in.
pub(crate) fn view(sink: &Recorder) -> TsSnapshot {
    let w = windows().lock().unwrap();
    let mut snap = TsSnapshot::default();
    for &(name, family, _) in SERIES {
        match family {
            Counter => snap.counters.push(TsCounter {
                name: name.to_owned(),
                value: sink.counter(name),
                rate_per_s: w.counters.get(name).map_or(0.0, |c| c.1),
            }),
            Gauge => snap.gauges.push(TsGauge {
                name: name.to_owned(),
                value: sink.gauge(name).unwrap_or(0.0),
            }),
            Summary => {
                let now = sink.hists().get(name);
                let base = w
                    .summaries
                    .get(name)
                    .filter(|ring| ring.len() == RESERVOIR_WINDOWS)
                    .and_then(|ring| ring.front()?.as_ref());
                let window = match (now, base) {
                    (Some(h), Some(b)) => h.since(b),
                    (Some(h), None) => h.clone(),
                    (None, _) => Histogram::for_response_times(),
                };
                snap.reservoirs.push(TsReservoir {
                    name: name.to_owned(),
                    count: now.map_or(0, Histogram::count),
                    sum_s: sink.hist_sum(name),
                    window_count: window.count(),
                    p50: window.quantile(0.5),
                    p90: window.quantile(0.9),
                    p99: window.quantile(0.99),
                    p999: window.quantile(0.999),
                });
            }
        }
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather;

    /// One routed batch of `n` latencies of `v` seconds, flushed.
    fn route_batch(n: u64, v: f64) {
        let mut h = Histogram::for_response_times();
        for _ in 0..n {
            h.record(v);
        }
        crate::merge_histogram("serve.route.latency_s", &h, n as f64 * v);
        crate::flush_thread();
    }

    #[test]
    fn disabled_records_nothing_and_counts_no_ops() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(false);
        crate::add("serve.route.requests", 5);
        crate::set_gauge("online.epoch", 1.0);
        route_batch(1, 0.5);
        let snap = gather().series;
        assert!(snap.counters.iter().all(|c| c.value == 0));
        assert!(snap.gauges.iter().all(|g| g.value == 0.0));
        assert!(snap.reservoirs.iter().all(|r| r.count == 0));
        assert_eq!(crate::snapshot().ops(), 0);
    }

    #[test]
    fn counters_gauges_and_reservoirs_roundtrip() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(true);
        crate::add("serve.route.requests", 3);
        crate::add("serve.route.requests", 4);
        crate::set_gauge("online.migration_queue_bytes", 12.5);
        route_batch(1, 0.2);
        route_batch(1, 0.4);
        crate::set_enabled(false);
        let snap = gather().series;
        assert_eq!(snap.counter("serve.route.requests"), 7);
        assert_eq!(snap.gauge("online.migration_queue_bytes"), Some(12.5));
        let r = snap.reservoir("serve.route.latency_s").unwrap();
        assert_eq!((r.count, r.window_count), (2, 2));
        assert!((r.sum_s - 0.6).abs() < 1e-12);
        assert!(r.p50.is_some() && r.p999.is_some());
        assert_eq!(help("serve.route.requests"), "requests routed");
        crate::reset();
        assert_eq!(gather().series.counter("serve.route.requests"), 0);
    }

    #[test]
    fn tick_computes_rates_and_slides_quantiles() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(true);
        crate::add("negotiate.rounds", 10);
        crate::flush_thread();
        tick(2.0);
        let snap = gather().series;
        let c = snap
            .counters
            .iter()
            .find(|c| c.name == "negotiate.rounds")
            .unwrap();
        assert!((c.rate_per_s - 5.0).abs() < 1e-12, "rate {}", c.rate_per_s);
        // A second tick with no increments drops the rate to zero but
        // keeps the cumulative value.
        tick(1.0);
        let snap = gather().series;
        let c = snap
            .counters
            .iter()
            .find(|c| c.name == "negotiate.rounds")
            .unwrap();
        assert_eq!((c.value, c.rate_per_s as u64), (10, 0));

        // Samples age out after RESERVOIR_WINDOWS ticks while the
        // cumulative count stays monotone.
        route_batch(1, 1.0);
        for _ in 0..RESERVOIR_WINDOWS - 1 {
            tick(1.0);
        }
        let r = gather().series.reservoir("serve.route.latency_s").cloned();
        assert_eq!(r.unwrap().window_count, 1, "still inside the window");
        tick(1.0);
        let snap = gather().series;
        let r = snap.reservoir("serve.route.latency_s").unwrap();
        assert_eq!(r.count, 1, "cumulative count is monotone");
        assert_eq!(r.window_count, 0, "sample aged out of the window");
        assert_eq!(r.p50, None);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn kind_collisions_no_op_instead_of_corrupting() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(true);
        // A counter under a gauge's name lands in the counter store,
        // which the view never reads for that series.
        crate::add("online.epoch", 7);
        crate::set_gauge("online.epoch", 2.0);
        crate::set_enabled(false);
        let snap = gather().series;
        assert_eq!(snap.counter("online.epoch"), 0);
        assert_eq!(snap.gauge("online.epoch"), Some(2.0));
        crate::reset();
    }

    #[test]
    fn core_metric_set_registers_zero_valued_series() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        // The table is sorted and names each series once, so the
        // exposition order is the name order.
        assert!(SERIES.windows(2).all(|p| p[0].0 < p[1].0));
        assert!(SERIES.iter().all(|s| !s.2.is_empty()));
        let snap = gather().series;
        for name in [
            "serve.route.requests",
            "negotiate.rounds",
            "netsim.bus.sent",
            "online.replans",
        ] {
            assert!(
                snap.counters.iter().any(|c| c.name == name && c.value == 0),
                "missing {name}"
            );
            assert!(!help(name).is_empty(), "{name} has no help");
        }
        assert!(snap.reservoir("serve.route.latency_s").is_some());
        assert_eq!(snap.gauge("online.migration_queue_bytes"), Some(0.0));
        let n = |f: Family| SERIES.iter().filter(|s| s.1 == f).count();
        assert_eq!(snap.counters.len(), n(Counter));
        assert_eq!(snap.gauges.len(), n(Gauge));
        assert_eq!(snap.reservoirs.len(), n(Summary));
        assert_eq!(help("plan.total"), "");
    }
}
