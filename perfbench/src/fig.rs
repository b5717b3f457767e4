//! `fig-cell`: one Figure 1 cell, `sim::figure1(&cfg, &[0.6])` with one
//! run on one thread, rebuilt call by call for the traced run.

use crate::trace::{busy_s, Scope, Tracer};
use crate::{OpResult, Pair, Workload};
use mmrepl_baselines::{LruRouter, StaticRouter};
use mmrepl_core::{effective_threads, partition_all, ReplicationPolicy};
use mmrepl_model::{Placement, System};
use mmrepl_sim::{figure1, replay_all, ExperimentConfig, ReplayOutcome};
use mmrepl_workload::{generate_system, generate_trace, SiteTrace, TraceConfig, WorkloadParams};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const STORAGE: f64 = 0.6;

type Series = BTreeMap<String, f64>;

pub struct FigBench {
    cfg: ExperimentConfig,
    reference: Series,
}

/// Everything the rebuilt cell computes.
struct Cell {
    series: Series,
    lru_local_frac: f64,
    requests: u64,
}

impl FigBench {
    pub fn new(params: WorkloadParams, seed: u64) -> Result<Self, String> {
        params.validate()?;
        let cfg = ExperimentConfig {
            params,
            runs: 1,
            base_seed: seed,
            threads: 1,
        };
        let cell = rebuilt_cell(&cfg, Scope::OFF);
        if cell.series.values().any(|v| !v.is_finite()) {
            return Err(format!("non-finite figure series {:?}", cell.series));
        }
        Ok(FigBench {
            cfg,
            reference: cell.series,
        })
    }

    fn timed_cell(&self) -> (Series, f64) {
        let t = Instant::now();
        let fig = black_box(figure1(black_box(&self.cfg), &[STORAGE]));
        let secs = t.elapsed().as_secs_f64();
        let series = fig.points.into_iter().next().expect("one point").series;
        (series, secs)
    }

    fn check(&self, series: &Series) -> Option<String> {
        (*series != self.reference).then(|| {
            format!(
                "figure1 cell {series:?} differs from the rebuilt {:?}",
                self.reference
            )
        })
    }
}

/// `figure1` with one run at one storage fraction, rebuilt from public
/// calls: the run's seed derivation, PARTITION once, the unconstrained
/// baseline plan, the Remote/Local references, our plan and LRU at the
/// cell's storage fraction. With one run the averaged series is each
/// run's value unchanged.
fn rebuilt_cell(cfg: &ExperimentConfig, sc: Scope<'_>) -> Cell {
    sc.span("op", |op| {
        let seed = cfg.base_seed.wrapping_mul(0x9E3779B97F4A7C15);
        let (system, traces) = op.span("workload.generate", |_| {
            let system = generate_system(&cfg.params, seed).expect("validated parameters");
            let traces = generate_trace(&system, &TraceConfig::from_params(&cfg.params), seed);
            (system, traces)
        });
        let mut requests = 0u64;
        let mut replay_static = |sys: &System, placement: &Placement| -> f64 {
            let out: ReplayOutcome = op.span("sim.replay_static", |_| {
                replay_all(sys, &traces, &mut StaticRouter::new(placement, "static"))
            });
            requests += out.pages.count();
            out.mean_response()
        };
        let plan = |sys: &System, initial: &Placement| -> Placement {
            op.span("core.plan", |_| {
                ReplicationPolicy::new()
                    .plan_with_partition(sys, initial)
                    .placement
            })
        };

        let initial = op.span("core.partition", |_| partition_all(&system));
        let relaxed = system
            .unconstrained()
            .with_processing_fraction(f64::INFINITY);
        let baseline = replay_static(&relaxed, &plan(&relaxed, &initial));
        let remote = replay_static(&system, &Placement::all_remote(&system));
        let local = replay_static(&system, &Placement::all_local(&system));

        let sys_f = system
            .with_storage_fraction(STORAGE)
            .with_processing_fraction(f64::INFINITY);
        let ours = replay_static(&sys_f, &plan(&sys_f, &initial));
        let (lru, lru_local_frac) = lru_replay(&sys_f, &traces, op);
        requests += lru.pages.count();

        let pct = |v: f64| (v / baseline - 1.0) * 100.0;
        let series = BTreeMap::from([
            ("ours".to_string(), pct(ours)),
            ("lru".to_string(), pct(lru.mean_response())),
            ("remote".to_string(), pct(remote)),
            ("local".to_string(), pct(local)),
        ]);
        Cell {
            series,
            lru_local_frac,
            requests,
        }
    })
}

/// The LRU replay and its useful-hit ratio: objects served from cache
/// over objects looked up.
fn lru_replay(sys: &System, traces: &[SiteTrace], op: Scope<'_>) -> (ReplayOutcome, f64) {
    op.span("baselines.lru_replay", |_| {
        let mut lru = LruRouter::new(sys);
        let out = replay_all(sys, traces, &mut lru);
        let attempts = lru.hits() + lru.misses() + lru.denied();
        (out, lru.hits() as f64 / attempts.max(1) as f64)
    })
}

impl Workload for FigBench {
    fn threads(&self) -> BTreeMap<String, usize> {
        BTreeMap::from([
            ("runs".to_string(), self.cfg.threads),
            (
                "planner".to_string(),
                effective_threads(0, self.cfg.params.n_sites),
            ),
        ])
    }

    fn set_up(&mut self) -> Result<f64, String> {
        let (series, secs) = self.timed_cell();
        match self.check(&series) {
            Some(why) => Err(why),
            None => Ok(secs),
        }
    }

    fn op(&mut self) -> OpResult {
        let (series, secs) = self.timed_cell();
        OpResult {
            secs,
            failure: self.check(&series),
        }
    }

    fn traced_pair(&mut self, traced_first: bool) -> Result<Pair, String> {
        let tracer = Tracer::new();
        let traced = || {
            let t = Instant::now();
            let cell = rebuilt_cell(&self.cfg, Scope::root(&tracer));
            (cell, t.elapsed().as_secs_f64())
        };
        let ((series, untraced_s), (cell, traced_s)) = if traced_first {
            let tr = traced();
            (self.timed_cell(), tr)
        } else {
            let un = self.timed_cell();
            (un, traced())
        };
        if cell.series != series {
            return Err(format!(
                "rebuilt cell {:?} differs from figure1 {series:?}",
                cell.series
            ));
        }
        let spans = tracer.spans();
        let layers = vec![
            ("workload.generate_s", busy_s(&spans, "workload.generate")),
            ("core.partition_s", busy_s(&spans, "core.partition")),
            ("core.plan_s", busy_s(&spans, "core.plan")),
            ("sim.replay_static_s", busy_s(&spans, "sim.replay_static")),
            (
                "baselines.lru_replay_s",
                busy_s(&spans, "baselines.lru_replay"),
            ),
            ("baselines.lru.local_frac", cell.lru_local_frac),
            ("sim.replay.requests", cell.requests as f64),
            ("sim.fig_ours_pct", cell.series["ours"]),
            ("sim.fig_lru_pct", cell.series["lru"]),
        ];
        Ok(Pair {
            untraced_s,
            traced_s,
            spans,
            layers,
            failure: self.check(&series),
        })
    }

    /// Our mean response over LRU's at the cell's storage, on the same
    /// requests: Figure 1's comparison, read off the two series.
    fn download_ratio(&mut self) -> f64 {
        (100.0 + self.reference["ours"]) / (100.0 + self.reference["lru"])
    }
}
