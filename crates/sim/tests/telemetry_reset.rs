//! Regression test: `obs::reset` clears the live telemetry plane.
//!
//! Two sequential E-X5 (online study) invocations with recording
//! enabled, a reset between them, must publish identical telemetry —
//! if reset leaked sink, window or SLO state the second run would start
//! from the first run's totals. Lives in its own integration-test
//! binary so no concurrently running unit test publishes into the
//! global sink while recording is enabled.

use mmrepl_sim::{online_study, study_online_config, ExperimentConfig};

fn run_once() -> (mmrepl_obs::TsSnapshot, Vec<mmrepl_obs::SloStatus>) {
    mmrepl_obs::set_enabled(true);
    let mut cfg = ExperimentConfig::quick();
    cfg.runs = 1;
    online_study(&cfg, 1, 0.5, 2, 0.25, &study_online_config());
    mmrepl_obs::set_enabled(false);
    let view = mmrepl_obs::gather();
    (view.series, view.slos)
}

#[test]
fn reset_clears_timeseries_and_slo_state_between_studies() {
    mmrepl_obs::reset();
    let (ts1, slo1) = run_once();
    assert!(
        ts1.counter("serve.route.requests") > 0,
        "study published nothing"
    );
    assert_eq!(slo1.len(), 1, "serve.latency SLO registered");
    assert!(slo1[0].total > 0, "SLO judged no requests");

    // Reset must leave a blank plane: every series back at zero...
    mmrepl_obs::reset();
    let blank = mmrepl_obs::gather();
    assert!(blank.series.counters.iter().all(|c| c.value == 0));
    assert!(blank.series.reservoirs.iter().all(|r| r.count == 0));
    assert!(blank.slos.is_empty());

    // ...so an identical second invocation reproduces the first run's
    // telemetry exactly instead of doubling it.
    let (ts2, slo2) = run_once();
    assert_eq!(
        ts1.counter("serve.route.requests"),
        ts2.counter("serve.route.requests"),
        "counter state leaked across reset"
    );
    assert_eq!(
        ts1.reservoir("serve.route.latency_s").map(|r| r.count),
        ts2.reservoir("serve.route.latency_s").map(|r| r.count),
        "reservoir state leaked across reset"
    );
    assert_eq!(
        (slo1[0].good, slo1[0].total),
        (slo2[0].good, slo2[0].total),
        "SLO accumulators leaked across reset"
    );
    mmrepl_obs::reset();
}
