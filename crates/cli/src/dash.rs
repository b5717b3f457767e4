//! Pure rendering for the `mmrepl top` live dashboard.
//!
//! The render loop in `commands::top` drives the exposition clock and
//! hands consecutive [`TelemetrySnapshot`]s to [`render_dashboard`];
//! everything here is a snapshot-to-string function so the layout is
//! unit-testable without threads, timers or a terminal.

use mmrepl_obs::TelemetrySnapshot;
use std::fmt::Write as _;

/// Renders one dashboard frame.
///
/// Counter rates are differenced against `prev` over `dt` seconds when
/// a previous frame exists, falling back to the view's own windowed
/// rate on the first frame (the two agree whenever the caller drives
/// `mmrepl_obs::tick` at the same cadence).
pub fn render_dashboard(
    prev: Option<&TelemetrySnapshot>,
    cur: &TelemetrySnapshot,
    dt: f64,
) -> String {
    let mut out = String::from("mmrepl top — live telemetry\n");
    if cur.series.counters.is_empty()
        && cur.series.gauges.is_empty()
        && cur.series.reservoirs.is_empty()
        && cur.slos.is_empty()
    {
        out.push_str("  (no metrics registered)\n");
        return out;
    }

    if !cur.series.counters.is_empty() {
        let _ = writeln!(out, "\n{:<36} {:>14} {:>12}", "counter", "total", "rate/s");
        for c in &cur.series.counters {
            let rate = match prev.and_then(|p| p.series.counters.iter().find(|o| o.name == c.name))
            {
                Some(old) if dt > 0.0 => c.value.saturating_sub(old.value) as f64 / dt,
                _ => c.rate_per_s,
            };
            let _ = writeln!(out, "{:<36} {:>14} {:>12.1}", c.name, c.value, rate);
        }
    }

    if !cur.series.gauges.is_empty() {
        let _ = writeln!(out, "\n{:<36} {:>14}", "gauge", "value");
        for g in &cur.series.gauges {
            let _ = writeln!(out, "{:<36} {:>14.1}", g.name, g.value);
        }
    }

    if !cur.series.reservoirs.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<28} {:>10} {:>9} {:>9} {:>9} {:>9}",
            "latency", "n(win)", "p50", "p90", "p99", "p999"
        );
        for r in &cur.series.reservoirs {
            let q = |v: Option<f64>| match v {
                Some(v) => format!("{v:.3}s"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>9} {:>9} {:>9} {:>9}",
                r.name,
                r.window_count,
                q(r.p50),
                q(r.p90),
                q(r.p99),
                q(r.p999)
            );
        }
    }

    if !cur.slos.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<20} {:>7} {:>8} {:>8} {:>7} {:>15}  state",
            "slo", "obj%", "short", "long", "alerts", "good/total"
        );
        for s in &cur.slos {
            let _ = writeln!(
                out,
                "{:<20} {:>7.2} {:>8.2} {:>8.2} {:>7} {:>15}  {}",
                s.name,
                100.0 * s.objective,
                s.short_burn,
                s.long_burn,
                s.alerts,
                format!("{}/{}", s.good, s.total),
                if s.alerting { "ALERT" } else { "ok" }
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmrepl_obs::{SloStatus, TsCounter, TsGauge, TsReservoir, TsSnapshot};

    fn counter(name: &str, value: u64, rate: f64) -> TsCounter {
        TsCounter {
            name: name.to_string(),
            value,
            rate_per_s: rate,
        }
    }

    fn snap(counters: Vec<TsCounter>) -> TelemetrySnapshot {
        TelemetrySnapshot {
            series: TsSnapshot {
                counters,
                gauges: vec![],
                reservoirs: vec![],
            },
            slos: vec![],
        }
    }

    #[test]
    fn empty_registry_renders_a_placeholder() {
        let frame = render_dashboard(None, &snap(vec![]), 1.0);
        assert!(frame.contains("no metrics registered"), "{frame}");
    }

    #[test]
    fn first_frame_uses_the_windowed_rate_then_differences() {
        let a = snap(vec![counter("serve.route.requests", 100, 42.0)]);
        let b = snap(vec![counter("serve.route.requests", 160, 99.0)]);
        let first = render_dashboard(None, &a, 2.0);
        assert!(first.contains("42.0"), "{first}");
        // (160 - 100) / 2 s = 30/s; the stale windowed 99.0 is ignored.
        let second = render_dashboard(Some(&a), &b, 2.0);
        assert!(second.contains("30.0"), "{second}");
        assert!(!second.contains("99.0"), "{second}");
        // A counter the previous frame never saw falls back too.
        let fresh = snap(vec![counter("negotiate.rounds", 5, 2.5)]);
        let frame = render_dashboard(Some(&a), &fresh, 2.0);
        assert!(frame.contains("2.5"), "{frame}");
    }

    #[test]
    fn every_section_renders_when_populated() {
        let cur = TelemetrySnapshot {
            series: TsSnapshot {
                counters: vec![counter("serve.route.requests", 7, 7.0)],
                gauges: vec![TsGauge {
                    name: "online.epoch".to_string(),
                    value: 3.0,
                }],
                reservoirs: vec![TsReservoir {
                    name: "serve.route.latency_s".to_string(),
                    count: 7,
                    sum_s: 0.7,
                    window_count: 7,
                    p50: Some(0.1),
                    p90: Some(0.2),
                    p99: Some(0.4),
                    p999: None,
                }],
            },
            slos: vec![SloStatus {
                name: "serve.latency".to_string(),
                latency_target_s: 10.0,
                objective: 0.999,
                short_burn: 8.5,
                long_burn: 7.0,
                alerting: true,
                alerts: 2,
                good: 5,
                total: 7,
            }],
        };
        let frame = render_dashboard(None, &cur, 1.0);
        for needle in [
            "serve.route.requests",
            "online.epoch",
            "serve.route.latency_s",
            "0.100s",
            "serve.latency",
            "99.90",
            "5/7",
            "ALERT",
        ] {
            assert!(frame.contains(needle), "missing {needle:?} in:\n{frame}");
        }
        // Unanswerable quantiles render as a dash, not a fake number.
        assert!(frame.contains(" -\n") || frame.ends_with(" -"), "{frame}");
    }
}
