//! SLO tracking: per-site latency/availability objectives with
//! multi-window error-budget burn rates.
//!
//! An SLO here is "fraction of requests answered within the latency
//! target must stay above the objective". Targets come straight from
//! the QoS bounds the placement optimizes against (Eq. 5 response-time
//! ceilings), via [`SloSpec::from_qos`].
//!
//! Burn rate is the standard error-budget form: with `objective` = o,
//! the budget is `1 - o`; a window whose bad fraction is `b` burns the
//! budget at rate `b / (1 - o)`. Burn 1.0 spends the budget exactly on
//! schedule; burn 6.0 exhausts a 30-day budget in 5 days. Alerting uses
//! two windows — a short one for responsiveness and a long one to
//! suppress blips — and fires only when **both** exceed the threshold,
//! which is the classic multi-window multi-burn-rate construction.
//!
//! Windows are ticks of the exposition clock ([`crate::tick`]), not
//! wall seconds, so replayed (simulated-time) studies burn budget in
//! the same units they publish metrics.
//!
//! A tracker keeps no counts of its own: it reads good and total from
//! the registry histogram its spec names — total is the sample count,
//! good is [`crate::Histogram::count_below`] the target, which adds exactly
//! across merges of one layout — and differences them per tick.

use crate::Recorder;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, OnceLock};

/// Latency target assumed when a site's QoS bound is unbounded.
pub const DEFAULT_LATENCY_TARGET_S: f64 = 10.0;

/// Retained threshold-crossing events before older ones are dropped.
const EVENT_CAP: usize = 256;

/// One latency/availability objective.
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// Objective name, e.g. `serve.latency`.
    pub name: String,
    /// Registry histogram whose samples the objective judges, e.g.
    /// `serve.route.latency_s`.
    pub histogram: String,
    /// A request answered within this many seconds is "good".
    pub latency_target_s: f64,
    /// Required good fraction, e.g. `0.999`.
    pub objective: f64,
    /// Ticks in the short alerting window.
    pub short_windows: usize,
    /// Ticks in the long alerting window.
    pub long_windows: usize,
    /// Burn rate both windows must exceed to alert.
    pub burn_alert: f64,
}

impl SloSpec {
    /// Derives a spec judging the samples of `histogram` from a QoS
    /// response-time bound: the bound becomes the latency target
    /// (falling back to [`DEFAULT_LATENCY_TARGET_S`] when unbounded),
    /// with a 99.9% objective and a 6x two-window burn alert.
    pub fn from_qos(name: &str, histogram: &str, qos_bound_s: f64) -> SloSpec {
        let latency_target_s = if qos_bound_s.is_finite() && qos_bound_s > 0.0 {
            qos_bound_s
        } else {
            DEFAULT_LATENCY_TARGET_S
        };
        SloSpec {
            name: name.to_owned(),
            histogram: histogram.to_owned(),
            latency_target_s,
            objective: 0.999,
            short_windows: 6,
            long_windows: 36,
            burn_alert: 6.0,
        }
    }

    /// Cumulative (good, total) of the judged histogram in `sink`.
    fn judged(&self, sink: &Recorder) -> (u64, u64) {
        sink.hists().get(&self.histogram).map_or((0, 0), |h| {
            (h.count_below(self.latency_target_s), h.count())
        })
    }
}

/// What a threshold crossing did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloEventKind {
    /// Both burn windows crossed above the alert threshold.
    BurnAlert,
    /// A previously alerting SLO dropped back under the threshold.
    Recovered,
}

/// A typed threshold-crossing event emitted by [`crate::tick`].
#[derive(Clone, Debug, PartialEq)]
pub struct SloEvent {
    /// Name of the SLO that crossed.
    pub slo: String,
    /// Crossing direction.
    pub kind: SloEventKind,
    /// Short-window burn at the crossing.
    pub short_burn: f64,
    /// Long-window burn at the crossing.
    pub long_burn: f64,
}

/// Point-in-time view of one tracked SLO.
#[derive(Clone, Debug, PartialEq)]
pub struct SloStatus {
    /// Objective name.
    pub name: String,
    /// Latency target, seconds.
    pub latency_target_s: f64,
    /// Required good fraction.
    pub objective: f64,
    /// Error-budget burn over the short window.
    pub short_burn: f64,
    /// Error-budget burn over the long window.
    pub long_burn: f64,
    /// Whether the SLO is currently in the alerting state.
    pub alerting: bool,
    /// Times the SLO entered the alerting state.
    pub alerts: u64,
    /// Cumulative good requests.
    pub good: u64,
    /// Cumulative total requests.
    pub total: u64,
}

struct Tracker {
    spec: SloSpec,
    /// Cumulative (good, total) when the tracker was registered: it
    /// judges only later samples.
    base: (u64, u64),
    /// Cumulative (good, total) at the last tick.
    last: (u64, u64),
    /// Closed ticks, newest last, capped at `spec.long_windows`.
    ticks: VecDeque<(u64, u64)>,
    alerting: bool,
    alerts: u64,
}

impl Tracker {
    /// Burn over the newest `windows` closed ticks. An empty window
    /// burns nothing: no traffic spends no budget.
    fn burn(&self, windows: usize) -> f64 {
        let take = windows.min(self.ticks.len());
        let (mut good, mut total) = (0u64, 0u64);
        for &(g, t) in self.ticks.iter().rev().take(take) {
            good += g;
            total += t;
        }
        if total == 0 {
            return 0.0;
        }
        let bad_frac = (total - good) as f64 / total as f64;
        let budget = (1.0 - self.spec.objective).max(f64::EPSILON);
        bad_frac / budget
    }
}

#[derive(Default)]
struct SloState {
    trackers: BTreeMap<String, Tracker>,
    events: Vec<SloEvent>,
}

fn state() -> &'static Mutex<SloState> {
    static STATE: OnceLock<Mutex<SloState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(SloState::default()))
}

/// Registers (or replaces, zeroing) an objective to track. It judges
/// the samples its histogram receives from now on.
pub fn register_slo(spec: SloSpec) {
    let sink = crate::recorder::sink().lock().unwrap();
    let base = spec.judged(&sink);
    let mut st = state().lock().unwrap();
    st.trackers.insert(
        spec.name.clone(),
        Tracker {
            spec,
            base,
            last: base,
            ticks: VecDeque::new(),
            alerting: false,
            alerts: 0,
        },
    );
}

/// Closes the open tick on every tracker, recomputes both window burns,
/// and emits [`SloEvent`]s on threshold crossings. Driven by
/// [`crate::tick`] with the sink locked.
pub(crate) fn tick(sink: &Recorder) {
    let mut st = state().lock().unwrap();
    let mut events = Vec::new();
    for t in st.trackers.values_mut() {
        let now = t.spec.judged(sink);
        let closed = (
            now.0.saturating_sub(t.last.0),
            now.1.saturating_sub(t.last.1),
        );
        t.last = now;
        t.ticks.push_back(closed);
        while t.ticks.len() > t.spec.long_windows.max(1) {
            t.ticks.pop_front();
        }
        let (short, long) = (t.burn(t.spec.short_windows), t.burn(t.spec.long_windows));
        let firing = short > t.spec.burn_alert && long > t.spec.burn_alert;
        if firing != t.alerting {
            t.alerting = firing;
            if firing {
                t.alerts += 1;
            }
            events.push(SloEvent {
                slo: t.spec.name.clone(),
                kind: if firing {
                    SloEventKind::BurnAlert
                } else {
                    SloEventKind::Recovered
                },
                short_burn: short,
                long_burn: long,
            });
        }
    }
    st.events.extend(events);
    let excess = st.events.len().saturating_sub(EVENT_CAP);
    if excess > 0 {
        st.events.drain(..excess);
    }
}

/// Drains the pending threshold-crossing events.
pub fn take_slo_events() -> Vec<SloEvent> {
    std::mem::take(&mut state().lock().unwrap().events)
}

/// Point-in-time statuses for every tracked SLO, name-sorted. Good and
/// total count every sample published since registration, open tick
/// included; the burns describe closed ticks only.
pub(crate) fn statuses(sink: &Recorder) -> Vec<SloStatus> {
    let st = state().lock().unwrap();
    st.trackers
        .values()
        .map(|t| {
            let now = t.spec.judged(sink);
            SloStatus {
                name: t.spec.name.clone(),
                latency_target_s: t.spec.latency_target_s,
                objective: t.spec.objective,
                short_burn: t.burn(t.spec.short_windows),
                long_burn: t.burn(t.spec.long_windows),
                alerting: t.alerting,
                alerts: t.alerts,
                good: now.0.saturating_sub(t.base.0),
                total: now.1.saturating_sub(t.base.1),
            }
        })
        .collect()
}

/// Drops every tracker and pending event. Called by [`crate::reset`].
pub(crate) fn reset_slo() {
    let mut st = state().lock().unwrap();
    st.trackers.clear();
    st.events.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gather, tick, Histogram};

    fn spec(short: usize, long: usize) -> SloSpec {
        SloSpec {
            name: "t.latency".into(),
            histogram: "t.latency_s".into(),
            latency_target_s: 1.0,
            objective: 0.9,
            short_windows: short,
            long_windows: long,
            burn_alert: 2.0,
        }
    }

    /// Publishes `good` samples inside the 1 s target and `bad` far
    /// outside it into `hist`, flushed.
    fn publish(hist: &'static str, good: u64, bad: u64) {
        let mut h = Histogram::for_response_times();
        for _ in 0..good {
            h.record(0.5);
        }
        for _ in 0..bad {
            h.record(50.0);
        }
        crate::merge_histogram(hist, &h, 0.5 * good as f64 + 50.0 * bad as f64);
        crate::flush_thread();
    }

    fn slo_statuses() -> Vec<SloStatus> {
        gather().slos
    }

    #[test]
    fn from_qos_uses_the_bound_and_falls_back_when_unbounded() {
        let s = SloSpec::from_qos("site.3", "h", 2.5);
        assert_eq!(s.latency_target_s, 2.5);
        assert_eq!(s.histogram, "h");
        let s = SloSpec::from_qos("site.4", "h", f64::INFINITY);
        assert_eq!(s.latency_target_s, DEFAULT_LATENCY_TARGET_S);
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(true);
        register_slo(spec(2, 4));
        // 85% good against a 90% objective: bad 0.15, budget 0.1 ->
        // burn 1.5, safely under the 2x alert threshold.
        publish("t.latency_s", 85, 15);
        tick(1.0);
        let st = &slo_statuses()[0];
        assert!(
            (st.short_burn - 1.5).abs() < 1e-9,
            "short {}",
            st.short_burn
        );
        assert!((st.long_burn - 1.5).abs() < 1e-9);
        assert!(!st.alerting);
        assert_eq!((st.good, st.total), (85, 100));
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn alert_needs_both_windows_and_recovery_emits_an_event() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(true);
        register_slo(spec(1, 3));
        // One catastrophic tick: short window (1 tick) burns hot, but
        // the long window still averages it with nothing else... with an
        // empty history the long window IS that tick, so both fire.
        publish("t.latency_s", 0, 100);
        tick(1.0);
        let events = take_slo_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, SloEventKind::BurnAlert);
        assert!(slo_statuses()[0].alerting);
        assert_eq!(slo_statuses()[0].alerts, 1);
        // Two clean ticks dilute the long window below 2x and clear the
        // short window entirely: recovery.
        publish("t.latency_s", 100, 0);
        tick(1.0);
        publish("t.latency_s", 100, 0);
        tick(1.0);
        let events = take_slo_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, SloEventKind::Recovered);
        assert!(!slo_statuses()[0].alerting);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn empty_windows_burn_nothing_and_latency_batches_use_the_target() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(true);
        // Samples published before registration are not judged.
        publish("t.latency_s", 0, 5);
        register_slo(spec(2, 4));
        tick(1.0);
        tick(1.0);
        let st = &slo_statuses()[0];
        assert_eq!((st.short_burn, st.long_burn), (0.0, 0.0));
        assert_eq!(st.total, 0);

        publish("t.latency_s", 1, 1);
        publish("t.unjudged_s", 1, 1); // no tracker names it
        tick(1.0);
        let st = &slo_statuses()[0];
        assert_eq!(st.total, 2);
        assert_eq!(st.good, 1);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(false);
        register_slo(spec(2, 4));
        publish("t.latency_s", 0, 100);
        tick(1.0);
        let st = &slo_statuses()[0];
        assert_eq!(st.total, 0);
        assert_eq!(st.short_burn, 0.0);
        crate::reset();
    }
}
