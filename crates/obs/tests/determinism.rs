//! Exposition determinism under multi-threaded recording.
//!
//! Telemetry is recorded by worker threads in whatever interleaving the
//! scheduler produces; neither view of the sink may depend on it. Two
//! identical multi-threaded runs must render byte-identical Prometheus
//! text and byte-identical JSONL traces.

use mmrepl_obs::Histogram;

/// One run: `threads` workers each record a trace-only counter, an
/// exposed counter and an exposed latency histogram, flushing their
/// thread-local recorders as a worker pool would. Returns the rendered
/// exposition and trace.
fn run(threads: usize, per_thread: u64) -> (String, String) {
    mmrepl_obs::reset();
    mmrepl_obs::set_enabled(true);
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut h = Histogram::for_response_times();
                for i in 0..per_thread {
                    mmrepl_obs::add("det.recorder_ops", 1);
                    mmrepl_obs::add("serve.route.requests", 1);
                    // Deterministic per-thread sample values.
                    let v = 0.01 * (1 + (t as u64 * per_thread + i) % 7) as f64;
                    h.record(v);
                }
                mmrepl_obs::merge_histogram("serve.route.latency_s", &h, 0.0);
                mmrepl_obs::flush_thread();
            });
        }
    });
    mmrepl_obs::set_enabled(false);
    let exposition = mmrepl_obs::to_prometheus(&mmrepl_obs::gather());
    let trace = mmrepl_obs::to_jsonl(&mmrepl_obs::take());
    mmrepl_obs::reset();
    (exposition, trace)
}

#[test]
fn exposition_is_deterministic_across_thread_interleavings() {
    let (expo_a, trace_a) = run(8, 500);
    let (expo_b, trace_b) = run(8, 500);
    assert_eq!(expo_a, expo_b, "exposition depends on thread schedule");
    assert_eq!(trace_a, trace_b, "trace depends on thread schedule");
    // Sanity: the run actually aggregated all 8 threads' work.
    assert!(
        expo_a.contains("mmrepl_serve_route_requests_total 4000"),
        "{expo_a}"
    );
    assert!(
        expo_a.contains("mmrepl_serve_route_latency_s_count 4000"),
        "{expo_a}"
    );
    assert!(trace_a.contains("\"name\":\"det.recorder_ops\",\"value\":4000"));
    // One store, two views: the exposed counter is the traced one.
    assert!(trace_a.contains("\"name\":\"serve.route.requests\",\"value\":4000"));
}
