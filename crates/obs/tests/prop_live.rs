//! Property test: the live view of the sink equals a brute-force model.
//!
//! Random sequences of counter adds, latency batches and ticks go
//! through the ordinary recording path. After every step the exposed
//! rates, totals, windowed counts and quantiles must equal those of a
//! model that keeps every raw sample of the last `RESERVOIR_WINDOWS`
//! tick windows, and the SLO's good/total must equal the sum of each
//! batch's own `count_below`.

use mmrepl_obs::{Histogram, SloSpec, RESERVOIR_WINDOWS};
use proptest::prelude::*;
use std::collections::VecDeque;

const COUNTERS: [&str; 3] = [
    "serve.route.requests",
    "negotiate.rounds",
    "online.migrated_bytes",
];
const LATENCY: &str = "serve.route.latency_s";
const TARGET_S: f64 = 0.5;

#[derive(Clone, Debug)]
enum Op {
    Add(usize, u64),
    Record(Vec<f64>),
    Tick(f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest has no `prop_oneof`; pick the variant from a
    // generated selector instead.
    (
        0u8..3,
        0usize..COUNTERS.len(),
        1u64..1000,
        prop::collection::vec(0.001f64..2000.0, 0..12),
        0.01f64..3.0,
    )
        .prop_map(|(sel, c, d, batch, dt)| match sel {
            0 => Op::Add(c, d),
            1 => Op::Record(batch),
            _ => Op::Tick(dt),
        })
}

fn spec() -> SloSpec {
    SloSpec {
        name: "prop.latency".into(),
        histogram: LATENCY.into(),
        latency_target_s: TARGET_S,
        objective: 0.9,
        short_windows: 2,
        long_windows: 4,
        burn_alert: 2.0,
    }
}

/// Everything the view should report, kept the slow way.
struct Model {
    totals: [u64; COUNTERS.len()],
    at_last_tick: [u64; COUNTERS.len()],
    rates: [f64; COUNTERS.len()],
    /// Raw samples per tick window, the open window last.
    windows: VecDeque<Vec<f64>>,
    count: u64,
    good: u64,
    /// Per-tick (good, total) of closed ticks, and of the open one.
    slo_ticks: Vec<(u64, u64)>,
    slo_open: (u64, u64),
}

impl Model {
    fn new() -> Model {
        Model {
            totals: [0; COUNTERS.len()],
            at_last_tick: [0; COUNTERS.len()],
            rates: [0.0; COUNTERS.len()],
            windows: VecDeque::from([Vec::new()]),
            count: 0,
            good: 0,
            slo_ticks: Vec::new(),
            slo_open: (0, 0),
        }
    }

    fn window(&self) -> Histogram {
        let mut h = Histogram::for_response_times();
        for v in self.windows.iter().flatten() {
            h.record(*v);
        }
        h
    }

    fn burn(&self, n: usize) -> f64 {
        let recent = &self.slo_ticks[self.slo_ticks.len().saturating_sub(n)..];
        let (good, total) = recent
            .iter()
            .fold((0, 0), |(g, t), &(dg, dt)| (g + dg, t + dt));
        if total == 0 {
            return 0.0;
        }
        let bad_frac = (total - good) as f64 / total as f64;
        bad_frac / (1.0f64 - 0.9).max(f64::EPSILON)
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Add(c, d) => {
                mmrepl_obs::add(COUNTERS[*c], *d);
                mmrepl_obs::flush_thread();
                self.totals[*c] += d;
            }
            Op::Record(batch) => {
                let mut h = Histogram::for_response_times();
                for &v in batch {
                    h.record(v);
                }
                mmrepl_obs::merge_histogram(LATENCY, &h, batch.iter().sum());
                mmrepl_obs::flush_thread();
                self.windows.back_mut().unwrap().extend(batch);
                self.count += h.count();
                self.good += h.count_below(TARGET_S);
                self.slo_open.0 += h.count_below(TARGET_S);
                self.slo_open.1 += h.count();
            }
            Op::Tick(dt) => {
                mmrepl_obs::tick(*dt);
                for i in 0..COUNTERS.len() {
                    self.rates[i] = (self.totals[i] - self.at_last_tick[i]) as f64 / dt.max(1e-9);
                    self.at_last_tick[i] = self.totals[i];
                }
                self.windows.push_back(Vec::new());
                if self.windows.len() > RESERVOIR_WINDOWS {
                    self.windows.pop_front();
                }
                self.slo_ticks.push(std::mem::take(&mut self.slo_open));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn live_view_equals_a_per_tick_ring_model(
        ops in prop::collection::vec(op_strategy(), 0..48),
    ) {
        mmrepl_obs::reset();
        mmrepl_obs::set_enabled(true);
        mmrepl_obs::register_slo(spec());
        let mut model = Model::new();
        for op in &ops {
            model.apply(op);
            let view = mmrepl_obs::gather();
            for (i, name) in COUNTERS.iter().enumerate() {
                let c = view.series.counters.iter().find(|c| c.name == *name).unwrap();
                prop_assert_eq!(c.value, model.totals[i]);
                prop_assert_eq!(c.rate_per_s, model.rates[i]);
            }
            let r = view.series.reservoir(LATENCY).unwrap();
            let window = model.window();
            prop_assert_eq!(r.count, model.count);
            prop_assert_eq!(r.window_count, window.count());
            prop_assert_eq!(r.p50, window.quantile(0.5));
            prop_assert_eq!(r.p90, window.quantile(0.9));
            prop_assert_eq!(r.p99, window.quantile(0.99));
            prop_assert_eq!(r.p999, window.quantile(0.999));
            let slo = &view.slos[0];
            prop_assert_eq!((slo.good, slo.total), (model.good, model.count));
            prop_assert_eq!(slo.short_burn, model.burn(2));
            prop_assert_eq!(slo.long_burn, model.burn(4));
        }
        mmrepl_obs::set_enabled(false);
        mmrepl_obs::reset();
    }
}
