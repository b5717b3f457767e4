//! Live time-series metrics: the continuously-published side of obs.
//!
//! The [`crate::Recorder`] pipeline is post-hoc — a trace read after a
//! run ends. This module is the *live* complement: a process-wide
//! registry of named metrics the router, online controller, negotiation
//! state machine and netsim bus publish into while they run, read
//! concurrently by the exposition layer ([`crate::expose`])
//! and the `mmrepl top` dashboard.
//!
//! Three metric kinds:
//!
//! * **counters** — monotone `u64` totals (`serve.route.requests`). A
//!   windowed rate is computed at every [`advance_windows`] tick;
//! * **gauges** — last-write-wins `f64` levels
//!   (`online.migration_queue_bytes`);
//! * **reservoirs** — sliding-quantile latency reservoirs: a ring of
//!   [`RESERVOIR_WINDOWS`] sub-window [`Histogram`]s rotated by
//!   [`advance_windows`], so p50/p99/p999 always describe the recent
//!   window, while the cumulative count/sum stay monotone for
//!   Prometheus summary semantics.
//!
//! Recording stays behind the same single atomic enabled-check as the
//! recorder ([`crate::enabled`]): the disabled path costs one relaxed
//! load. The enabled path takes the registry's read lock (writes happen
//! only at registration) and then touches one atomic — lock-light, not
//! lock-free, which is fine because every publisher batches (one call
//! per routed *slice*, not per request).

use crate::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Sub-windows in a sliding-quantile reservoir: quantiles cover the last
/// `RESERVOIR_WINDOWS` ticks of [`advance_windows`].
pub const RESERVOIR_WINDOWS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Reservoir,
}

/// Per-kind state mutated only at ticks, observations and snapshots.
enum Windowed {
    /// Counter value at the last tick and the rate computed from it.
    Counter { last: u64, rate_per_s: f64 },
    /// Gauges carry no windowed state.
    Gauge,
    /// The sub-window ring plus cumulative count/sum.
    Reservoir {
        ring: Vec<Histogram>,
        slot: usize,
        count: u64,
        sum: f64,
    },
}

struct Metric {
    kind: Kind,
    help: String,
    /// Counter: cumulative count. Gauge: `f64` bits. Unused by
    /// reservoirs.
    value: AtomicU64,
    windowed: Mutex<Windowed>,
}

impl Metric {
    fn new(kind: Kind, help: &str) -> Metric {
        let windowed = match kind {
            Kind::Counter => Windowed::Counter {
                last: 0,
                rate_per_s: 0.0,
            },
            Kind::Gauge => Windowed::Gauge,
            Kind::Reservoir => Windowed::Reservoir {
                ring: (0..RESERVOIR_WINDOWS)
                    .map(|_| Histogram::for_response_times())
                    .collect(),
                slot: 0,
                count: 0,
                sum: 0.0,
            },
        };
        Metric {
            kind,
            help: help.to_owned(),
            value: AtomicU64::new(0),
            windowed: Mutex::new(windowed),
        }
    }
}

struct Registry {
    metrics: RwLock<BTreeMap<String, Arc<Metric>>>,
    /// Recording calls that passed the enabled-check — the count the
    /// perfsuite `telemetry_overhead` model prices at the disabled-path
    /// per-call cost.
    ops: AtomicU64,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        metrics: RwLock::new(BTreeMap::new()),
        ops: AtomicU64::new(0),
    })
}

/// Looks a metric up, auto-registering it with an empty help string on
/// first use. Returns `None` on a kind collision (the name is already
/// registered as a different kind) — recording then silently no-ops
/// rather than corrupting the other kind's state.
fn metric(name: &str, kind: Kind) -> Option<Arc<Metric>> {
    let reg = registry();
    if let Some(m) = reg.metrics.read().unwrap().get(name) {
        return (m.kind == kind).then(|| Arc::clone(m));
    }
    let mut map = reg.metrics.write().unwrap();
    let m = map
        .entry(name.to_owned())
        .or_insert_with(|| Arc::new(Metric::new(kind, "")));
    (m.kind == kind).then(|| Arc::clone(m))
}

fn register(name: &str, kind: Kind, help: &str) {
    let reg = registry();
    let mut map = reg.metrics.write().unwrap();
    map.insert(name.to_owned(), Arc::new(Metric::new(kind, help)));
}

/// Registers (or re-registers, zeroing) a rate counter, so the
/// exposition carries the series even before its first increment.
pub fn register_counter(name: &str, help: &str) {
    register(name, Kind::Counter, help);
}

/// Registers (or re-registers, zeroing) a gauge.
pub fn register_gauge(name: &str, help: &str) {
    register(name, Kind::Gauge, help);
}

/// Registers (or re-registers, clearing) a sliding-quantile reservoir.
pub fn register_reservoir(name: &str, help: &str) {
    register(name, Kind::Reservoir, help);
}

/// Adds `delta` to a live counter. One relaxed load when disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    registry().ops.fetch_add(1, Ordering::Relaxed);
    if let Some(m) = metric(name, Kind::Counter) {
        m.value.fetch_add(delta, Ordering::Relaxed);
    }
}

/// Sets a live gauge (last write wins). One relaxed load when disabled.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if !crate::enabled() {
        return;
    }
    registry().ops.fetch_add(1, Ordering::Relaxed);
    if let Some(m) = metric(name, Kind::Gauge) {
        m.value.store(v.to_bits(), Ordering::Relaxed);
    }
}

/// Records one sample into a reservoir's current sub-window.
#[inline]
pub fn observe(name: &str, v: f64) {
    if !crate::enabled() {
        return;
    }
    registry().ops.fetch_add(1, Ordering::Relaxed);
    if let Some(m) = metric(name, Kind::Reservoir) {
        if let Windowed::Reservoir {
            ring,
            slot,
            count,
            sum,
        } = &mut *m.windowed.lock().unwrap()
        {
            ring[*slot].record(v);
            *count += 1;
            *sum += v;
        }
    }
}

/// Merges a batch of samples (pre-accumulated in `h`, summing to
/// `sum_s` seconds) into a reservoir — the one-call-per-slice form the
/// router uses. `h` must share the [`Histogram::for_response_times`]
/// layout; an incompatible batch is dropped.
#[inline]
pub fn observe_hist(name: &str, h: &Histogram, sum_s: f64) {
    if !crate::enabled() {
        return;
    }
    registry().ops.fetch_add(1, Ordering::Relaxed);
    if let Some(m) = metric(name, Kind::Reservoir) {
        if let Windowed::Reservoir {
            ring,
            slot,
            count,
            sum,
        } = &mut *m.windowed.lock().unwrap()
        {
            if !ring[*slot].compatible(h) {
                debug_assert!(false, "incompatible batch layout for reservoir {name}");
                return;
            }
            ring[*slot].merge(h);
            *count += h.count();
            *sum += sum_s;
        }
    }
}

/// Closes one window of `dt_s` seconds: every counter's rate becomes
/// `(now - last) / dt_s`, and every reservoir rotates to (and clears)
/// its next sub-window. Called by the exposition ticker, never by
/// publishers.
pub fn advance_windows(dt_s: f64) {
    let dt = dt_s.max(1e-9);
    for m in registry().metrics.read().unwrap().values() {
        match &mut *m.windowed.lock().unwrap() {
            Windowed::Counter { last, rate_per_s } => {
                let now = m.value.load(Ordering::Relaxed);
                *rate_per_s = now.saturating_sub(*last) as f64 / dt;
                *last = now;
            }
            Windowed::Gauge => {}
            Windowed::Reservoir { ring, slot, .. } => {
                *slot = (*slot + 1) % ring.len();
                ring[*slot] = Histogram::for_response_times();
            }
        }
    }
}

/// One counter sample in a [`TsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct TsCounter {
    /// Metric name (dotted, unsanitized).
    pub name: String,
    /// Help text from registration (empty when auto-registered).
    pub help: String,
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
    /// Help text from registration.
    pub help: String,
    /// Current level.
    pub value: f64,
}

/// One reservoir sample in a [`TsSnapshot`]: cumulative count/sum plus
/// sliding-window quantiles.
#[derive(Clone, Debug, PartialEq)]
pub struct TsReservoir {
    /// Metric name (dotted, unsanitized).
    pub name: String,
    /// Help text from registration.
    pub help: String,
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

/// A deterministic (name-sorted) copy of the live registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<TsCounter>,
    /// Gauges, sorted by name.
    pub gauges: Vec<TsGauge>,
    /// Reservoirs, sorted by name.
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

    /// One reservoir, when present.
    pub fn reservoir(&self, name: &str) -> Option<&TsReservoir> {
        self.reservoirs.iter().find(|r| r.name == name)
    }
}

/// Reads the whole registry into a [`TsSnapshot`]. Deterministic: the
/// registry map is name-ordered, so two snapshots of identical state
/// render identically whatever thread interleaving produced the state.
pub fn ts_snapshot() -> TsSnapshot {
    let mut snap = TsSnapshot::default();
    for (name, m) in registry().metrics.read().unwrap().iter() {
        match &*m.windowed.lock().unwrap() {
            Windowed::Counter { rate_per_s, .. } => snap.counters.push(TsCounter {
                name: name.clone(),
                help: m.help.clone(),
                value: m.value.load(Ordering::Relaxed),
                rate_per_s: *rate_per_s,
            }),
            Windowed::Gauge => snap.gauges.push(TsGauge {
                name: name.clone(),
                help: m.help.clone(),
                value: f64::from_bits(m.value.load(Ordering::Relaxed)),
            }),
            Windowed::Reservoir {
                ring, count, sum, ..
            } => {
                let mut merged = ring[0].clone();
                for h in &ring[1..] {
                    merged.merge(h);
                }
                snap.reservoirs.push(TsReservoir {
                    name: name.clone(),
                    help: m.help.clone(),
                    count: *count,
                    sum_s: *sum,
                    window_count: merged.count(),
                    p50: merged.quantile(0.5),
                    p90: merged.quantile(0.9),
                    p99: merged.quantile(0.99),
                    p999: merged.quantile(0.999),
                });
            }
        }
    }
    snap
}

/// Recording calls the registry absorbed since the last reset — the
/// input to the perfsuite's disabled-path `telemetry_overhead` model.
pub fn ts_ops() -> u64 {
    registry().ops.load(Ordering::Relaxed)
}

/// Clears every registered metric and the ops counter. Called by
/// [`crate::reset`] so back-to-back studies in one process cannot leak
/// series between runs.
pub fn reset_timeseries() {
    let reg = registry();
    reg.metrics.write().unwrap().clear();
    reg.ops.store(0, Ordering::Relaxed);
}

/// Registers the canonical metric set every instrumented subsystem
/// publishes into, so a scrape carries each series (zero-valued) from
/// the first tick — before the study's publishers have touched them.
pub fn register_core_metrics() {
    register_counter("serve.route.requests", "requests routed");
    register_counter("serve.route.objects", "objects routed");
    register_counter("serve.route.local", "objects served from the local store");
    register_counter("serve.route.peer", "objects served from peer replicas");
    register_counter(
        "serve.route.repo",
        "objects served by the serving repository node",
    );
    register_counter(
        "serve.route.overlay_deflected",
        "locally-marked objects deflected remotely by a pending overlay bit",
    );
    register_reservoir(
        "serve.route.latency_s",
        "estimated per-request response time, seconds (Eq. 5)",
    );
    register_counter("serve.epoch_swaps", "placement snapshots published");
    register_counter("negotiate.rounds", "offer/counter negotiation rounds");
    register_counter(
        "negotiate.retries",
        "negotiation offers re-sent after a timeout",
    );
    register_counter("negotiate.timeouts", "negotiation deadlines that expired");
    register_counter(
        "negotiate.degraded_sites",
        "sites degraded to last-known state on silence",
    );
    register_counter(
        "negotiate.duplicates_ignored",
        "duplicated control messages absorbed by seq-dedup",
    );
    register_counter("negotiate.messages", "control-plane messages delivered");
    register_counter("netsim.bus.sent", "messages posted on the bus");
    register_counter("netsim.bus.delivered", "messages delivered by the bus");
    register_counter("netsim.bus.dropped", "messages dropped by fault injection");
    register_counter(
        "netsim.bus.duplicated",
        "extra copies scheduled by fault injection",
    );
    register_counter(
        "netsim.bus.reordered",
        "messages held back past later sends by fault injection",
    );
    register_gauge("netsim.bus.in_flight", "messages currently in flight");
    register_counter("online.replans", "incremental replans the controller ran");
    register_counter(
        "online.migrated_bytes",
        "replica bytes the controller scheduled for migration",
    );
    register_gauge(
        "online.migration_queue_bytes",
        "bytes still queued on the sites' migration queues",
    );
    register_gauge("online.epoch", "drift epoch the online study is serving");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_counts_no_ops() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(false);
        counter_add("ts.c", 5);
        gauge_set("ts.g", 1.0);
        observe("ts.r", 0.5);
        let snap = ts_snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty());
        assert_eq!(ts_ops(), 0);
    }

    #[test]
    fn counters_gauges_and_reservoirs_roundtrip() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(true);
        register_counter("ts.req", "requests");
        counter_add("ts.req", 3);
        counter_add("ts.req", 4);
        gauge_set("ts.depth", 12.5);
        observe("ts.lat", 0.2);
        observe("ts.lat", 0.4);
        crate::set_enabled(false);
        let snap = ts_snapshot();
        assert_eq!(snap.counter("ts.req"), 7);
        assert_eq!(snap.gauge("ts.depth"), Some(12.5));
        let r = snap.reservoir("ts.lat").unwrap();
        assert_eq!((r.count, r.window_count), (2, 2));
        assert!((r.sum_s - 0.6).abs() < 1e-12);
        assert!(r.p50.is_some() && r.p999.is_some());
        assert_eq!(
            snap.counters
                .iter()
                .find(|c| c.name == "ts.req")
                .unwrap()
                .help,
            "requests"
        );
        crate::reset();
        assert!(ts_snapshot().counters.is_empty());
    }

    #[test]
    fn advance_windows_computes_rates_and_slides_quantiles() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(true);
        counter_add("ts.rate", 10);
        advance_windows(2.0);
        let snap = ts_snapshot();
        let c = snap.counters.iter().find(|c| c.name == "ts.rate").unwrap();
        assert!((c.rate_per_s - 5.0).abs() < 1e-12, "rate {}", c.rate_per_s);
        // A second tick with no increments drops the rate to zero but
        // keeps the cumulative value.
        advance_windows(1.0);
        let snap = ts_snapshot();
        let c = snap.counters.iter().find(|c| c.name == "ts.rate").unwrap();
        assert_eq!((c.value, c.rate_per_s as u64), (10, 0));

        // Reservoir samples age out after RESERVOIR_WINDOWS rotations
        // while the cumulative count stays monotone.
        observe("ts.win", 1.0);
        for _ in 0..RESERVOIR_WINDOWS {
            advance_windows(1.0);
        }
        let snap = ts_snapshot();
        let r = snap.reservoir("ts.win").unwrap();
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
        register_gauge("ts.kind", "a gauge");
        counter_add("ts.kind", 7); // wrong kind: dropped
        gauge_set("ts.kind", 2.0);
        crate::set_enabled(false);
        let snap = ts_snapshot();
        assert_eq!(snap.counter("ts.kind"), 0);
        assert_eq!(snap.gauge("ts.kind"), Some(2.0));
        crate::reset();
    }

    #[test]
    fn core_metric_set_registers_zero_valued_series() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        register_core_metrics();
        let snap = ts_snapshot();
        for name in [
            "serve.route.requests",
            "negotiate.rounds",
            "netsim.bus.sent",
            "online.replans",
        ] {
            assert!(
                snap.counters.iter().any(|c| c.name == name),
                "missing {name}"
            );
        }
        assert!(snap.reservoir("serve.route.latency_s").is_some());
        assert!(snap.gauge("online.migration_queue_bytes").is_some());
        crate::reset();
        assert!(ts_snapshot().reservoirs.is_empty());
    }
}
