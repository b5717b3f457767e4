//! JSONL export and the end-of-run stage table.
//!
//! Each trace line is one JSON object with a `record` field naming its
//! kind: `meta`, `span`, `counter`, `gauge`, `hist`, `decision` or
//! `event`. The
//! schema is flat on purpose — `json.loads` per line is all a consumer
//! needs (see the smoke check in `scripts/check.sh`).

use crate::{Recorder, SpanStat};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Trace schema version stamped into the `meta` line.
/// Version 2 added the `gauge` record.
pub const TRACE_SCHEMA: u32 = 2;

#[derive(Serialize, Deserialize)]
struct MetaLine {
    record: String,
    schema: u32,
    ops: u64,
    decisions: usize,
    decisions_dropped: u64,
    events: usize,
    events_dropped: u64,
}

#[derive(Serialize, Deserialize)]
struct SpanLine {
    record: String,
    name: String,
    count: u64,
    total_s: f64,
}

#[derive(Serialize, Deserialize)]
struct CounterLine {
    record: String,
    name: String,
    value: u64,
}

#[derive(Serialize, Deserialize)]
struct GaugeLine {
    record: String,
    name: String,
    value: f64,
}

#[derive(Serialize, Deserialize)]
struct HistLine {
    record: String,
    name: String,
    count: u64,
    p50: Option<f64>,
    p90: Option<f64>,
    p99: Option<f64>,
}

#[derive(Serialize, Deserialize)]
struct DecisionLine {
    record: String,
    site: u32,
    page: u32,
    object: u32,
    stream: String,
    local_s: f64,
    remote_s: f64,
}

#[derive(Serialize, Deserialize)]
struct EventLine {
    record: String,
    kind: String,
    site: Option<u32>,
    stage: String,
    detail: String,
}

/// Serialises a recorder as JSON Lines: one `meta` line, then every span,
/// counter, gauge, histogram, decision and event.
pub fn to_jsonl(rec: &Recorder) -> String {
    let mut out = String::new();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        out.push('\n');
    };
    push(
        &mut out,
        serde_json::to_string(&MetaLine {
            record: "meta".into(),
            schema: TRACE_SCHEMA,
            ops: rec.ops(),
            decisions: rec.decisions_len(),
            decisions_dropped: rec.decisions_dropped(),
            events: rec.events().len(),
            events_dropped: rec.events_dropped(),
        })
        .expect("serialise meta line"),
    );
    for (name, stat) in rec.spans() {
        push(
            &mut out,
            serde_json::to_string(&SpanLine {
                record: "span".into(),
                name: name.clone(),
                count: stat.count,
                total_s: stat.total_s(),
            })
            .expect("serialise span line"),
        );
    }
    for (name, &value) in rec.counters() {
        push(
            &mut out,
            serde_json::to_string(&CounterLine {
                record: "counter".into(),
                name: name.clone(),
                value,
            })
            .expect("serialise counter line"),
        );
    }
    for (name, &value) in rec.gauges() {
        push(
            &mut out,
            serde_json::to_string(&GaugeLine {
                record: "gauge".into(),
                name: name.clone(),
                value,
            })
            .expect("serialise gauge line"),
        );
    }
    for (name, h) in rec.hists() {
        push(
            &mut out,
            serde_json::to_string(&HistLine {
                record: "hist".into(),
                name: name.clone(),
                count: h.count(),
                p50: h.quantile(0.5),
                p90: h.quantile(0.9),
                p99: h.quantile(0.99),
            })
            .expect("serialise hist line"),
        );
    }
    for d in rec.decisions() {
        push(
            &mut out,
            serde_json::to_string(&DecisionLine {
                record: "decision".into(),
                site: d.site,
                page: d.page,
                object: d.object,
                stream: if d.local { "local" } else { "remote" }.into(),
                local_s: d.local_s,
                remote_s: d.remote_s,
            })
            .expect("serialise decision line"),
        );
    }
    for e in rec.events() {
        push(
            &mut out,
            serde_json::to_string(&EventLine {
                record: "event".into(),
                kind: e.kind.clone(),
                site: e.site,
                stage: e.stage.clone(),
                detail: e.detail.clone(),
            })
            .expect("serialise event line"),
        );
    }
    out
}

/// Writes [`to_jsonl`] output to a file, crash-safely: an interrupted
/// run never leaves a truncated trace behind (see [`write_atomic`]).
pub fn write_jsonl(rec: &Recorder, path: &Path) -> std::io::Result<()> {
    write_atomic(path, to_jsonl(rec).as_bytes())
}

/// Writes `bytes` to `path` via a sibling `<path>.tmp` file renamed
/// over the target only once fully written, so readers (and restarts)
/// only ever see a complete file. On failure the previous content of
/// `path`, if any, is left untouched and the temp file is removed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    write_atomic_with(path, |w| w.write_all(bytes))
}

fn write_atomic_with(
    path: &Path,
    f: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let written = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        f(&mut file)?;
        file.flush()
    })();
    match written {
        Ok(()) => std::fs::rename(&tmp, path),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:9.3} s ")
    } else if s >= 1e-3 {
        format!("{:9.3} ms", s * 1e3)
    } else {
        format!("{:9.3} µs", s * 1e6)
    }
}

/// The canonical pipeline order for the stage table: planner stages in
/// the order the planner runs them — with the negotiation sub-spans
/// under `plan.offload`, where they execute — then the serving plane.
/// Spans not listed here (auxiliary or future stages) sort after the
/// known ones, alphabetically, and `plan.total` always closes the table.
const STAGE_ORDER: &[&str] = &[
    "plan.select",
    "plan.partition",
    "plan.storage_restore",
    "plan.capacity_restore",
    "plan.restore.shard",
    "plan.offload",
    "negotiate.round",
    "negotiate.settle",
    "plan.assemble",
    "serve.route",
];

/// Renders a human-readable stage-breakdown table of every recorded span.
/// When a `plan.total` span exists, each other span gets a share column
/// relative to it.
pub fn stage_table(rec: &Recorder) -> String {
    let total = rec.span("plan.total").map(|s| s.total_s());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26} {:>7} {:>12} {:>7}",
        "span", "calls", "time", "share"
    );
    let mut rows: Vec<(&String, &SpanStat)> = rec.spans().iter().collect();
    // Pipeline order, unknown spans after the known ones by name, total
    // last — so the table reads as the pass sequence, not as whichever
    // insertion order the run happened to produce.
    fn order_of(name: &str) -> usize {
        STAGE_ORDER
            .iter()
            .position(|s| *s == name)
            .unwrap_or(STAGE_ORDER.len())
    }
    rows.sort_by(|a, b| {
        let ka = (a.0.as_str() == "plan.total", order_of(a.0), a.0);
        let kb = (b.0.as_str() == "plan.total", order_of(b.0), b.0);
        ka.cmp(&kb)
    });
    for (name, stat) in rows {
        let share = match total {
            Some(t) if t > 0.0 && name != "plan.total" => {
                format!("{:6.1}%", 100.0 * stat.total_s() / t)
            }
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "{:<26} {:>7} {:>12} {:>7}",
            name,
            stat.count,
            fmt_time(stat.total_s()),
            share
        );
    }
    // The planner's shard-imbalance diagnostic: slowest over fastest
    // restoration shard, recorded ×100 (so 100 = perfectly balanced).
    if let Some(&x100) = rec.counters().get("plan.restore.shard.imbalance_x100") {
        let _ = writeln!(
            out,
            "shard imbalance (max/min wall time) {:.2}x",
            x100 as f64 / 100.0
        );
    }
    // Serving-plane tail latency, when the router recorded its
    // per-request response-time histogram.
    if let Some(h) = rec.hists().get("serve.route.latency_s") {
        if let (Some(p50), Some(p99), Some(p999)) =
            (h.quantile(0.5), h.quantile(0.99), h.quantile(0.999))
        {
            let _ = writeln!(
                out,
                "serve.route latency p50 {} p99 {} p999 {} ({} requests)",
                fmt_time(p50).trim(),
                fmt_time(p99).trim(),
                fmt_time(p999).trim(),
                h.count()
            );
        }
    }
    if rec.decisions_len() > 0 || rec.decisions_dropped() > 0 {
        let _ = writeln!(
            out,
            "decisions kept {} (dropped {})",
            rec.decisions_len(),
            rec.decisions_dropped()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decision, Event, Recorder};

    fn sample() -> Recorder {
        let mut r = Recorder::with_cap(16);
        r.add("storage.heap_pops", 12);
        r.set_gauge("online.epoch", 3.0);
        r.record_span_ns("plan.total", 2_000_000);
        r.record_span_ns("plan.partition", 500_000);
        r.record_value("offload.absorbed", 3.5);
        r.push_decision(Decision {
            site: 1,
            page: 2,
            object: 3,
            local: true,
            local_s: 0.5,
            remote_s: 0.7,
        });
        r.push_event(Event {
            kind: "audit_divergence".into(),
            site: Some(1),
            stage: "storage restoration".into(),
            detail: "load mismatch".into(),
        });
        r
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_item() {
        let text = to_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        // meta + 2 spans + 1 counter + 1 gauge + 1 hist + 1 decision + 1
        // event.
        assert_eq!(lines.len(), 8);
        assert!(lines[0].contains("\"record\":\"meta\""));
        // Every line round-trips through the discriminating field.
        for line in &lines {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line {line}"
            );
            assert!(line.contains("\"record\":\""), "no record field in {line}");
        }
        // Typed round-trips.
        let span: SpanLine = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(span.name, "plan.partition");
        assert!((span.total_s - 5e-4).abs() < 1e-12);
        let gauge: GaugeLine = serde_json::from_str(lines[4]).unwrap();
        assert_eq!((gauge.name.as_str(), gauge.value), ("online.epoch", 3.0));
        let dec: DecisionLine = serde_json::from_str(lines[6]).unwrap();
        assert_eq!((dec.site, dec.page, dec.object), (1, 2, 3));
        assert_eq!(dec.stream, "local");
        let ev: EventLine = serde_json::from_str(lines[7]).unwrap();
        assert_eq!(ev.kind, "audit_divergence");
        assert_eq!(ev.site, Some(1));
    }

    #[test]
    fn stage_table_renders_shard_imbalance_as_a_ratio() {
        let mut r = sample();
        r.add("plan.restore.shard.imbalance_x100", 237);
        let table = stage_table(&r);
        assert!(
            table.contains("shard imbalance (max/min wall time) 2.37x"),
            "{table}"
        );
        // Absent counter → no imbalance line.
        let plain = stage_table(&sample());
        assert!(!plain.contains("shard imbalance"), "{plain}");
    }

    #[test]
    fn stage_table_follows_the_pipeline_order() {
        let mut r = Recorder::with_cap(4);
        // Scrambled insertion order, including a span the canonical
        // list doesn't know about.
        r.record_span_ns("serve.route", 9_000_000);
        r.record_span_ns("plan.total", 2_000_000);
        r.record_span_ns("zz.custom", 8_000_000);
        r.record_span_ns("plan.storage_restore", 1_000);
        r.record_span_ns("plan.select", 500);
        r.record_span_ns("plan.partition", 700_000);
        let table = stage_table(&r);
        let pos = |name: &str| table.find(name).unwrap_or_else(|| panic!("{name} missing"));
        // Known stages in pass order regardless of recorded time…
        assert!(pos("plan.select") < pos("plan.partition"), "{table}");
        assert!(
            pos("plan.partition") < pos("plan.storage_restore"),
            "{table}"
        );
        assert!(pos("plan.storage_restore") < pos("serve.route"), "{table}");
        // …unknown spans after the known ones, total always last.
        assert!(pos("serve.route") < pos("zz.custom"), "{table}");
        assert!(pos("zz.custom") < pos("plan.total"), "{table}");
    }

    #[test]
    fn stage_table_orders_negotiation_and_serving_spans_fed_in_reverse() {
        // Feed every canonical stage in exactly reversed order: the
        // table must still come out in pipeline order, with the
        // negotiation sub-spans sitting under plan.offload.
        let mut r = Recorder::with_cap(4);
        for (i, name) in STAGE_ORDER.iter().rev().enumerate() {
            r.record_span_ns(name, 1_000 * (i as u64 + 1));
        }
        let table = stage_table(&r);
        let pos = |name: &str| table.find(name).unwrap_or_else(|| panic!("{name} missing"));
        for pair in STAGE_ORDER.windows(2) {
            assert!(
                pos(pair[0]) < pos(pair[1]),
                "{} before {}:\n{table}",
                pair[0],
                pair[1]
            );
        }
        assert!(pos("plan.offload") < pos("negotiate.round"), "{table}");
        assert!(pos("negotiate.round") < pos("negotiate.settle"), "{table}");
        assert!(pos("negotiate.settle") < pos("serve.route"), "{table}");
    }

    #[test]
    fn stage_table_prints_route_tail_latency_when_recorded() {
        let mut r = sample();
        let mut h = crate::Histogram::for_response_times();
        for _ in 0..99 {
            h.record(0.010);
        }
        h.record(2.0);
        r.merge_histogram("serve.route.latency_s", &h, 2.99);
        let table = stage_table(&r);
        assert!(table.contains("serve.route latency p50"), "{table}");
        assert!(table.contains("p99"), "{table}");
        assert!(table.contains("(100 requests)"), "{table}");
        // Without the histogram there is no footer.
        assert!(
            !stage_table(&sample()).contains("serve.route latency"),
            "footer must be conditional"
        );
    }

    #[test]
    fn write_jsonl_is_atomic_under_partial_writes() {
        let dir = std::env::temp_dir().join("mmrepl-export-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, "original contents\n").unwrap();

        // A writer that dies mid-stream must leave the previous file
        // intact and clean up its temp file.
        let err = write_atomic_with(&path, |w| {
            w.write_all(b"partial garbage")?;
            Err(std::io::Error::other("disk full"))
        });
        assert!(err.is_err());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "original contents\n",
            "interrupted write clobbered the target"
        );
        let tmp = dir.join("trace.jsonl.tmp");
        assert!(!tmp.exists(), "temp file leaked");

        // A successful write replaces the file wholesale…
        write_jsonl(&sample(), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.contains("\"record\":\"meta\""));
        // …and leaves no temp file either.
        assert!(!tmp.exists(), "temp file leaked after success");
    }

    #[test]
    fn stage_table_shows_share_of_total() {
        let table = stage_table(&sample());
        assert!(table.contains("plan.partition"), "{table}");
        assert!(table.contains("25.0%"), "{table}");
        assert!(table.contains("plan.total"), "{table}");
        assert!(table.contains("decisions kept 1"), "{table}");
        // Total row is last among spans.
        let part = table.find("plan.partition").unwrap();
        let total = table.find("plan.total").unwrap();
        assert!(part < total);
    }
}
