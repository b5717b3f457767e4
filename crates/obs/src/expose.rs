//! Prometheus text-format exposition of the live view.
//!
//! [`gather`] computes the live view of the global sink — the exposed
//! series and the SLO statuses; [`to_prometheus`] renders it as
//! Prometheus text format 0.0.4 (`# HELP`/`# TYPE` comments from the
//! series table, `_total` counters, summary quantiles). [`Exporter`]
//! runs a background ticker that closes the view's windows and either
//! answers HTTP `GET`s on a bound address or atomically rewrites a
//! scrape file every interval — the `--expose <addr|file>` flag on
//! `mmrepl study` and `mmrepl route`.
//!
//! The HTTP endpoint answers only `GET /metrics`. It reads at most
//! [`MAX_HEAD`] bytes of request head within [`HEAD_TIMEOUT`], and refuses
//! everything else with a status: 404 for another path, 405 for another
//! method, 400 for a head it cannot parse, 408 for a client that stalls,
//! 431 for an oversized head.
//!
//! Exactly one clock may drive [`crate::tick`] at a time: the
//! [`Exporter`] owns it when running, and `mmrepl top` drives it from
//! its render loop instead of starting an exporter.

use crate::slo::SloStatus;
use crate::timeseries::{help, tick, TsSnapshot};
use std::fmt::Write as _;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One coherent view of everything the telemetry plane tracks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Counters, gauges and latency reservoirs.
    pub series: TsSnapshot,
    /// SLO burn-rate statuses.
    pub slos: Vec<SloStatus>,
}

/// Flushes the calling thread and computes the live view of the sink:
/// the exposed series and the SLO statuses, read under one lock.
pub fn gather() -> TelemetrySnapshot {
    crate::flush_thread();
    let sink = crate::recorder::sink().lock().unwrap();
    TelemetrySnapshot {
        series: crate::timeseries::view(&sink),
        slos: crate::slo::statuses(&sink),
    }
}

/// `serve.route.latency_s` → `mmrepl_serve_route_latency_s`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("mmrepl_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    if !help.is_empty() {
        let _ = writeln!(out, "# HELP {name} {help}");
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders a snapshot as Prometheus text exposition format 0.0.4.
/// Deterministic: identical snapshots render to identical bytes, and
/// series appear in name order within each section.
pub fn to_prometheus(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for c in &snap.series.counters {
        let name = prom_name(&c.name);
        header(&mut out, &format!("{name}_total"), help(&c.name), "counter");
        let _ = writeln!(out, "{name}_total {}", c.value);
        header(
            &mut out,
            &format!("{name}_per_s"),
            "windowed rate of the matching _total counter",
            "gauge",
        );
        let _ = writeln!(out, "{name}_per_s {}", c.rate_per_s);
    }
    for g in &snap.series.gauges {
        let name = prom_name(&g.name);
        header(&mut out, &name, help(&g.name), "gauge");
        let _ = writeln!(out, "{name} {}", g.value);
    }
    for r in &snap.series.reservoirs {
        let name = prom_name(&r.name);
        header(&mut out, &name, help(&r.name), "summary");
        for (q, v) in [
            ("0.5", r.p50),
            ("0.9", r.p90),
            ("0.99", r.p99),
            ("0.999", r.p999),
        ] {
            let v = v.unwrap_or(f64::NAN);
            let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "{name}_sum {}", r.sum_s);
        let _ = writeln!(out, "{name}_count {}", r.count);
    }
    if !snap.slos.is_empty() {
        header(
            &mut out,
            "mmrepl_slo_burn_rate",
            "error-budget burn rate over the labelled window",
            "gauge",
        );
        for s in &snap.slos {
            let _ = writeln!(
                out,
                "mmrepl_slo_burn_rate{{slo=\"{}\",window=\"short\"}} {}",
                s.name, s.short_burn
            );
            let _ = writeln!(
                out,
                "mmrepl_slo_burn_rate{{slo=\"{}\",window=\"long\"}} {}",
                s.name, s.long_burn
            );
        }
        header(
            &mut out,
            "mmrepl_slo_alerting",
            "1 while both burn windows exceed the alert threshold",
            "gauge",
        );
        for s in &snap.slos {
            let _ = writeln!(
                out,
                "mmrepl_slo_alerting{{slo=\"{}\"}} {}",
                s.name,
                u8::from(s.alerting)
            );
        }
        header(
            &mut out,
            "mmrepl_slo_alerts_total",
            "times the SLO entered the alerting state",
            "counter",
        );
        for s in &snap.slos {
            let _ = writeln!(
                out,
                "mmrepl_slo_alerts_total{{slo=\"{}\"}} {}",
                s.name, s.alerts
            );
        }
        header(
            &mut out,
            "mmrepl_slo_good_total",
            "requests that met the SLO latency target",
            "counter",
        );
        for s in &snap.slos {
            let _ = writeln!(
                out,
                "mmrepl_slo_good_total{{slo=\"{}\"}} {}",
                s.name, s.good
            );
        }
        header(
            &mut out,
            "mmrepl_slo_requests_total",
            "requests the SLO judged",
            "counter",
        );
        for s in &snap.slos {
            let _ = writeln!(
                out,
                "mmrepl_slo_requests_total{{slo=\"{}\"}} {}",
                s.name, s.total
            );
        }
    }
    out
}

/// Where the exporter publishes scrapes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScrapeTarget {
    /// Serve `GET /metrics` on this address.
    Http(SocketAddr),
    /// Atomically rewrite this file every interval.
    File(PathBuf),
}

impl FromStr for ScrapeTarget {
    type Err = String;

    /// Anything that parses as a socket address (`127.0.0.1:9184`)
    /// serves HTTP; everything else is a scrape-file path.
    fn from_str(s: &str) -> Result<ScrapeTarget, String> {
        if s.is_empty() {
            return Err("empty --expose target".into());
        }
        match s.parse::<SocketAddr>() {
            Ok(addr) => Ok(ScrapeTarget::Http(addr)),
            Err(_) => Ok(ScrapeTarget::File(PathBuf::from(s))),
        }
    }
}

/// Background scrape publisher: ticks the telemetry clock every
/// interval and exposes [`to_prometheus`] output at its target.
pub struct Exporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    endpoint: String,
}

impl Exporter {
    /// Starts the publisher thread. Binding errors (HTTP target) and
    /// thread-spawn errors surface here, before anything runs.
    pub fn start(target: ScrapeTarget, interval: Duration) -> std::io::Result<Exporter> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let interval = interval.max(Duration::from_millis(10));
        let builder = std::thread::Builder::new().name("mmrepl-expose".into());
        let (endpoint, handle) = match target {
            ScrapeTarget::File(path) => {
                let endpoint = path.display().to_string();
                let handle = builder.spawn(move || file_loop(&path, interval, &flag))?;
                (endpoint, handle)
            }
            ScrapeTarget::Http(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                let endpoint = format!("http://{}/metrics", listener.local_addr()?);
                let handle = builder.spawn(move || http_loop(&listener, interval, &flag))?;
                (endpoint, handle)
            }
        };
        Ok(Exporter {
            stop,
            handle: Some(handle),
            endpoint,
        })
    }

    /// Where scrapes are served: `http://addr/metrics` or a file path.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Stops the publisher and joins its thread. A file target gets one
    /// final flush, so even a sub-interval run leaves a complete scrape
    /// behind.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn file_loop(path: &Path, interval: Duration, stop: &AtomicBool) {
    let mut last = Instant::now();
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        if last.elapsed() >= interval || stopping {
            tick(last.elapsed().as_secs_f64());
            last = Instant::now();
            let body = to_prometheus(&gather());
            let _ = crate::export::write_atomic(path, body.as_bytes());
        }
        if stopping {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The largest request head the scrape endpoint reads (431 beyond it).
pub const MAX_HEAD: usize = 8 * 1024;

/// How long a scrape client has to send its whole request head (408
/// beyond it). The endpoint serves one connection at a time, so this also
/// bounds how long a stalled client delays the next scrape.
pub const HEAD_TIMEOUT: Duration = Duration::from_millis(200);

/// The scrape endpoint's answer to one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reply {
    Metrics,
    BadRequest,
    NotFound,
    MethodNotAllowed,
    Timeout,
    HeadTooLarge,
}

impl Reply {
    fn status(self) -> &'static str {
        match self {
            Reply::Metrics => "200 OK",
            Reply::BadRequest => "400 Bad Request",
            Reply::NotFound => "404 Not Found",
            Reply::MethodNotAllowed => "405 Method Not Allowed",
            Reply::Timeout => "408 Request Timeout",
            Reply::HeadTooLarge => "431 Request Header Fields Too Large",
        }
    }
}

/// Reads one request head, up to the blank line that ends it, within
/// [`MAX_HEAD`] bytes and [`HEAD_TIMEOUT`] in total.
fn read_head(conn: &mut TcpStream) -> Result<Vec<u8>, Reply> {
    let deadline = Instant::now() + HEAD_TIMEOUT;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        if let Some(end) = head.windows(4).position(|w| w == b"\r\n\r\n") {
            if end + 4 > MAX_HEAD {
                return Err(Reply::HeadTooLarge);
            }
            head.truncate(end);
            return Ok(head);
        }
        if head.len() >= MAX_HEAD {
            return Err(Reply::HeadTooLarge);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            return Err(Reply::Timeout);
        }
        match conn.read(&mut buf) {
            Ok(0) => return Err(Reply::BadRequest),
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(Reply::Timeout)
            }
            Err(_) => return Err(Reply::BadRequest),
        }
    }
}

/// Classifies a complete request head by its request line.
fn classify(head: &[u8]) -> Reply {
    let Ok(head) = std::str::from_utf8(head) else {
        return Reply::BadRequest;
    };
    let line = head.split("\r\n").next().unwrap_or_default();
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Reply::BadRequest;
    };
    if method.is_empty() || !target.starts_with('/') || !version.starts_with("HTTP/1.") {
        Reply::BadRequest
    } else if method != "GET" {
        Reply::MethodNotAllowed
    } else if target.split('?').next() == Some("/metrics") {
        Reply::Metrics
    } else {
        Reply::NotFound
    }
}

/// Answers one scrape connection.
fn serve_scrape(conn: &mut TcpStream) {
    let reply = match read_head(conn) {
        Ok(head) => classify(&head),
        Err(refusal) => refusal,
    };
    let (content_type, body) = match reply {
        Reply::Metrics => (
            "text/plain; version=0.0.4; charset=utf-8",
            to_prometheus(&gather()),
        ),
        _ => ("text/plain; charset=utf-8", format!("{}\n", reply.status())),
    };
    let allow = if reply == Reply::MethodNotAllowed {
        "Allow: GET\r\n"
    } else {
        ""
    };
    let _ = write!(
        conn,
        "HTTP/1.1 {}\r\nContent-Type: {content_type}\r\n{allow}Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        reply.status(),
        body.len()
    );
    let _ = conn.write_all(body.as_bytes());
    if !matches!(reply, Reply::Metrics | Reply::Timeout) {
        drain(conn);
    }
}

/// Discards what a refused client is still sending (the rest of an
/// oversized head, a request body), so that closing the connection with
/// unread input does not reset it before the client reads the refusal.
/// Bounded like the head: [`HEAD_TIMEOUT`] and a few times [`MAX_HEAD`].
fn drain(conn: &mut TcpStream) {
    let _ = conn.shutdown(Shutdown::Write);
    let deadline = Instant::now() + HEAD_TIMEOUT;
    let mut buf = [0u8; 1024];
    let mut budget = 8 * MAX_HEAD;
    while budget > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

fn http_loop(listener: &TcpListener, interval: Duration, stop: &AtomicBool) {
    let mut last = Instant::now();
    loop {
        if last.elapsed() >= interval {
            tick(last.elapsed().as_secs_f64());
            last = Instant::now();
        }
        match listener.accept() {
            Ok((mut conn, _)) => serve_scrape(&mut conn),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{register_slo, SloSpec};
    use crate::Histogram;

    #[test]
    fn scrape_target_parses_addresses_and_paths() {
        assert_eq!(
            "127.0.0.1:9184".parse::<ScrapeTarget>(),
            Ok(ScrapeTarget::Http("127.0.0.1:9184".parse().unwrap()))
        );
        assert_eq!(
            "out/metrics.prom".parse::<ScrapeTarget>(),
            Ok(ScrapeTarget::File(PathBuf::from("out/metrics.prom")))
        );
        assert!("".parse::<ScrapeTarget>().is_err());
    }

    #[test]
    fn exposition_carries_every_metric_kind() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(true);
        crate::add("serve.route.requests", 41);
        crate::set_gauge("online.migration_queue_bytes", 3.5);
        register_slo(SloSpec::from_qos("ex.slo", "serve.route.latency_s", 1.0));
        // All good: burn 0, not alerting (a 99.9% objective fires on
        // nearly any miss).
        let mut h = Histogram::for_response_times();
        for _ in 0..10 {
            h.record(0.25);
        }
        crate::merge_histogram("serve.route.latency_s", &h, 2.5);
        crate::flush_thread();
        tick(1.0);
        crate::set_enabled(false);
        let text = to_prometheus(&gather());
        assert!(text.contains("# HELP mmrepl_serve_route_requests_total requests routed"));
        assert!(text.contains("# TYPE mmrepl_serve_route_requests_total counter"));
        assert!(text.contains("mmrepl_serve_route_requests_total 41"));
        assert!(text.contains("mmrepl_online_migration_queue_bytes 3.5"));
        assert!(text.contains("# TYPE mmrepl_serve_route_latency_s summary"));
        assert!(text.contains("mmrepl_serve_route_latency_s{quantile=\"0.999\"}"));
        assert!(text.contains("mmrepl_serve_route_latency_s_sum 2.5"));
        assert!(text.contains("mmrepl_serve_route_latency_s_count 10"));
        assert!(text.contains("mmrepl_slo_burn_rate{slo=\"ex.slo\",window=\"short\"}"));
        assert!(text.contains("mmrepl_slo_burn_rate{slo=\"ex.slo\",window=\"long\"}"));
        assert!(text.contains("mmrepl_slo_alerting{slo=\"ex.slo\"} 0"));
        assert!(text.contains("mmrepl_slo_requests_total{slo=\"ex.slo\"} 10"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok() || value == "NaN",
                "bad sample value in {line}"
            );
            assert!(parts.next().is_some(), "no name in {line}");
        }
        crate::reset();
    }

    #[test]
    fn file_exporter_flushes_on_stop_even_before_the_interval() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(true);
        crate::add("serve.route.requests", 7);
        crate::flush_thread();
        let dir = std::env::temp_dir().join("mmrepl-expose-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scrape.prom");
        let _ = std::fs::remove_file(&path);
        let exporter =
            Exporter::start(ScrapeTarget::File(path.clone()), Duration::from_secs(3600)).unwrap();
        assert_eq!(exporter.endpoint(), path.display().to_string());
        exporter.stop();
        crate::set_enabled(false);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("mmrepl_serve_route_requests_total 7"),
            "{text}"
        );
        crate::reset();
    }

    /// Runs `body` against a live HTTP exporter holding one counter.
    fn with_http_exporter(body: impl FnOnce(&str)) {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        crate::set_enabled(true);
        crate::add("negotiate.rounds", 3);
        crate::flush_thread();
        let exporter = Exporter::start(
            ScrapeTarget::Http("127.0.0.1:0".parse().unwrap()),
            Duration::from_millis(50),
        )
        .unwrap();
        let addr = exporter
            .endpoint()
            .trim_start_matches("http://")
            .trim_end_matches("/metrics")
            .to_owned();
        body(&addr);
        exporter.stop();
        crate::set_enabled(false);
        crate::reset();
    }

    /// Sends `request` on a fresh connection and returns the response.
    fn send(addr: &str, request: &[u8]) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(request).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn http_exporter_answers_a_scrape() {
        with_http_exporter(|addr| {
            let response = send(
                addr,
                format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes(),
            );
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            assert!(response.contains("text/plain; version=0.0.4"), "{response}");
            assert!(
                response.contains("mmrepl_negotiate_rounds_total 3"),
                "{response}"
            );
            // A query string still names the metrics path.
            let response = send(addr, b"GET /metrics?x=1 HTTP/1.0\r\n\r\n");
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        });
    }

    #[test]
    fn http_exporter_refuses_other_paths() {
        with_http_exporter(|addr| {
            for path in ["/", "/metrics/", "/favicon.ico"] {
                let response = send(addr, format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes());
                assert!(response.starts_with("HTTP/1.1 404 "), "{path}: {response}");
                assert!(
                    !response.contains("mmrepl_negotiate_rounds_total"),
                    "{response}"
                );
            }
        });
    }

    #[test]
    fn http_exporter_refuses_other_methods() {
        with_http_exporter(|addr| {
            for method in ["POST", "HEAD", "DELETE"] {
                let response = send(
                    addr,
                    format!("{method} /metrics HTTP/1.1\r\n\r\n").as_bytes(),
                );
                assert!(
                    response.starts_with("HTTP/1.1 405 "),
                    "{method}: {response}"
                );
                assert!(response.contains("Allow: GET\r\n"), "{response}");
            }
        });
    }

    #[test]
    fn http_exporter_rejects_unparsable_heads() {
        with_http_exporter(|addr| {
            for request in [
                &b"hello\r\n\r\n"[..],
                b"GET /metrics\r\n\r\n",
                b"GET metrics HTTP/1.1\r\n\r\n",
                b"GET /metrics HTTP/1.1 extra\r\n\r\n",
                b"GET /metrics SPDY/3\r\n\r\n",
                b"GET /\xff\xfe HTTP/1.1\r\n\r\n",
                // The client hangs up before the blank line.
                b"GET /metrics HTTP/1.1\r\n",
            ] {
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.write_all(request).unwrap();
                conn.shutdown(std::net::Shutdown::Write).unwrap();
                let mut response = String::new();
                conn.read_to_string(&mut response).unwrap();
                assert!(
                    response.starts_with("HTTP/1.1 400 "),
                    "{:?}: {response}",
                    String::from_utf8_lossy(request)
                );
            }
        });
    }

    #[test]
    fn http_exporter_bounds_the_request_head() {
        with_http_exporter(|addr| {
            // A head that reaches the bound without ending is refused
            // unread past it.
            let response = send(addr, &vec![b'a'; MAX_HEAD]);
            assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
            // One whose terminator lands past the bound is refused too.
            let mut request = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
            request.resize(MAX_HEAD - 2, b'p');
            request.extend_from_slice(b"\r\n\r\n");
            let response = send(addr, &request);
            assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
            // Just inside the bound is still served.
            request.truncate(MAX_HEAD - 6);
            request.extend_from_slice(b"\r\n\r\n");
            let response = send(addr, &request);
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        });
    }

    #[test]
    fn a_silent_client_does_not_block_the_next_scrape() {
        with_http_exporter(|addr| {
            let started = Instant::now();
            let mut silent = TcpStream::connect(addr).unwrap();
            let response = send(addr, b"GET /metrics HTTP/1.1\r\n\r\n");
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            assert!(
                response.contains("mmrepl_negotiate_rounds_total 3"),
                "{response}"
            );
            // The stalled client was timed out rather than held open.
            let mut timed_out = String::new();
            silent.read_to_string(&mut timed_out).unwrap();
            assert!(timed_out.starts_with("HTTP/1.1 408 "), "{timed_out}");
            assert!(started.elapsed() < HEAD_TIMEOUT * 10);
        });
    }
}
