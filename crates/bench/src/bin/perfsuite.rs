//! Tracked planner performance baseline.
//!
//! Times the hot paths the planner optimisation work targets — a full
//! single-threaded `plan`, the sharded parallel `plan` at the auto thread
//! count, the storage and capacity restorations in isolation (sequential
//! and sharded), and one end-to-end Figure 1 cell (generate + plan +
//! replay every policy at one storage fraction) — at paper scale
//! (Table 1), at 10× scale, and a reduced planner-only set at 100× scale
//! (1000 sites, 1.5M objects), and writes the medians to
//! `BENCH_PLANNER.json` at the repo root. Every parallel metric records
//! the worker-thread count it actually ran with (`threads`);
//! `scripts/bench_regress.sh` compares a fresh run against the committed
//! file, refuses baselines measured at a different thread count, and
//! fails on regressions.
//!
//! ```text
//! cargo run --release -p mmrepl-bench --bin perfsuite            # full suite
//! cargo run --release -p mmrepl-bench --bin perfsuite -- --iters 3
//! cargo run -p mmrepl-bench --bin perfsuite -- --quick           # smoke test
//! ```

use mmrepl_bench::{BenchDoc, ScaleTimings, BENCH_SCHEMA};
use mmrepl_core::{
    effective_threads, parallel_map, partition_all, restore_capacity, restore_storage,
    ReplicationPolicy, SiteWork,
};
use mmrepl_model::{CostParams, Secs, SiteId};
use mmrepl_online::{ChurnBudget, DeltaPlanner, EstimatorConfig, RateEstimator};
use mmrepl_serve::{route_traces, PlacementSnapshot};
use mmrepl_sim::{figure1, ExperimentConfig};
use mmrepl_workload::{
    generate_system, generate_trace, DriftModel, TopologyParams, TraceConfig, WorkloadParams,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    xs[xs.len() / 2]
}

fn time_median(iters: usize, mut f: impl FnMut()) -> f64 {
    median(
        (0..iters)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Benchmarks one scale. With `full == false` only the planner metrics
/// run (sequential + sharded plan and restorations) — the reduced set
/// that keeps the 100× tier to seconds per metric.
fn bench_scale(
    label: &str,
    params: &WorkloadParams,
    seed: u64,
    iters: usize,
    full: bool,
) -> ScaleTimings {
    // Constrain storage and processing so every pipeline stage does real
    // work (unconstrained systems make the restorations no-ops).
    let system = generate_system(params, seed)
        .expect("workload generates")
        .with_storage_fraction(0.5)
        .with_processing_fraction(0.8);
    let policy = ReplicationPolicy::new();
    let cost = CostParams::default();
    let auto_threads = effective_threads(0, system.n_sites());
    let mut threads = BTreeMap::new();
    threads.insert("plan_s".to_string(), 1);
    threads.insert("plan_par_s".to_string(), auto_threads);
    threads.insert("restore_storage_par_s".to_string(), auto_threads);

    let plan_s = time_median(iters, || {
        std::hint::black_box(policy.plan_parallel(&system, 1));
    });
    // The default path: per-site restoration shards on the worker pool.
    let plan_par_s = time_median(iters, || {
        std::hint::black_box(policy.plan(&system));
    });

    let (plan_unconstrained_s, plan_tree_s) = if full {
        let unconstrained = generate_system(params, seed).expect("workload generates");
        let unc = time_median(iters, || {
            std::hint::black_box(policy.plan_parallel(&unconstrained, 1));
        });
        // Same constrained workload on an edge repository tree: topology
        // draws come after all star draws, so the sites match `system`
        // and the delta over `plan_s` is the cost of the tree pipeline.
        let mut tree_params = params.clone();
        tree_params.topology = TopologyParams::edge();
        let tree_system = generate_system(&tree_params, seed)
            .expect("workload generates")
            .with_storage_fraction(0.5)
            .with_processing_fraction(0.8);
        let tree = time_median(iters, || {
            std::hint::black_box(policy.plan_parallel(&tree_system, 1));
        });
        (Some(unc), Some(tree))
    } else {
        (None, None)
    };

    // Observability cost model: how many obs calls one traced plan makes
    // (counted by the recorder itself), priced at the measured disabled-
    // path cost per call, as a fraction of the untraced plan time.
    let obs_overhead = if full {
        mmrepl_obs::reset();
        mmrepl_obs::set_enabled(true);
        policy.plan_parallel(&system, 1);
        mmrepl_obs::set_enabled(false);
        let obs_ops = mmrepl_obs::take().ops();
        const NOOP_CALLS: u64 = 10_000_000;
        let t = Instant::now();
        for i in 0..NOOP_CALLS {
            mmrepl_obs::add("bench.noop", std::hint::black_box(i));
        }
        let per_op_disabled_s = t.elapsed().as_secs_f64() / NOOP_CALLS as f64;
        Some(obs_ops as f64 * per_op_disabled_s / plan_s)
    } else {
        None
    };

    // Live-telemetry cost model, same shape for the serving plane: how
    // many recording calls one traced routing pass makes (counted by the
    // merged recorder, which both the trace and the exposition read),
    // priced at the measured disabled-path cost of `obs::add`, as a
    // fraction of the untraced routing time.
    let telemetry_overhead = if full {
        let outcome = policy.plan(&system);
        let snap = std::sync::Arc::new(PlacementSnapshot::from_plan(&system, &outcome, 0));
        let traces = generate_trace(&system, &TraceConfig::from_params(params), seed);
        let route_s = time_median(iters, || {
            std::hint::black_box(route_traces(&snap, &traces, 1));
        });
        mmrepl_obs::reset();
        mmrepl_obs::set_enabled(true);
        route_traces(&snap, &traces, 1);
        mmrepl_obs::set_enabled(false);
        let route_ops = mmrepl_obs::take().ops();
        const NOOP_CALLS: u64 = 10_000_000;
        let t = Instant::now();
        for i in 0..NOOP_CALLS {
            mmrepl_obs::add("bench.noop", std::hint::black_box(i));
        }
        let per_op_disabled_s = t.elapsed().as_secs_f64() / NOOP_CALLS as f64;
        Some(route_ops as f64 * per_op_disabled_s / route_s)
    } else {
        None
    };

    // Time the restorations without the state builds: rebuild the
    // per-site state fresh each iteration, clock only the restoration
    // calls (capacity runs on storage-restored state, as in the planner).
    let initial = partition_all(&system);
    let site_ids: Vec<_> = system.sites().ids().collect();
    let mut storage_times = Vec::with_capacity(iters);
    let mut capacity_times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let mut works: Vec<_> = site_ids
            .iter()
            .map(|&s| SiteWork::new(&system, s, &initial, cost))
            .collect();
        let t = Instant::now();
        for w in &mut works {
            std::hint::black_box(restore_storage(w));
        }
        storage_times.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for w in &mut works {
            std::hint::black_box(restore_capacity(w));
        }
        capacity_times.push(t.elapsed().as_secs_f64());
    }
    let restore_storage_s = median(storage_times);
    let restore_capacity_s = median(capacity_times);

    // Sharded storage restoration: the per-site states are built and
    // parked in mutexed slots off the clock; the timed region is the
    // pool fan-out, each worker taking its site and restoring it.
    let mut par_times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let works: Vec<Mutex<Option<SiteWork<'_>>>> = site_ids
            .iter()
            .map(|&s| Mutex::new(Some(SiteWork::new(&system, s, &initial, cost))))
            .collect();
        let t = Instant::now();
        parallel_map(works.len(), 0, |i| {
            let mut w = works[i]
                .lock()
                .expect("slot lock")
                .take()
                .expect("each site taken exactly once");
            std::hint::black_box(restore_storage(&mut w));
        });
        par_times.push(t.elapsed().as_secs_f64());
    }
    let restore_storage_par_s = median(par_times);

    let (fig1_cell_s, estimator_ingest_s, delta_replan_s) = if full {
        // One end-to-end Figure 1 cell (cells are seconds-scale; a single
        // timed pass keeps the suite fast and the medians above carry the
        // low-variance signal).
        let cell_iters = iters.min(3);
        let cfg = ExperimentConfig {
            params: params.clone(),
            runs: 1,
            base_seed: seed,
            threads: 1,
        };
        cfg.params.validate().expect("params are valid");
        let fig1_cell_s = time_median(cell_iters, || {
            std::hint::black_box(figure1(&cfg, &[0.6]));
        });

        // Online control-plane hot paths. Ingest: one full trace through
        // the streaming estimator (fresh estimator per iteration, built
        // off the clock). Delta replan: one dirty site, on drifted
        // estimates, warm-started from the cached PARTITION — the
        // latency a controller pays per localized reaction, to be read
        // against the cold `plan_s`.
        let drifted = DriftModel::new(0.5).apply(&system, seed.wrapping_add(1));
        let traces = generate_trace(&drifted, &TraceConfig::from_params(params), seed);
        let durations: Vec<Secs> = traces
            .iter()
            .map(|t| {
                let total: f64 = system
                    .pages_of(t.site)
                    .iter()
                    .map(|&p| system.page(p).freq.get())
                    .sum();
                Secs(t.len() as f64 / total)
            })
            .collect();
        // One full-trace pass is only milliseconds; repeat it within each
        // timed iteration (same estimator — EWMA state evolves, per-
        // request cost doesn't) so the median reads steady-state
        // streaming cost instead of allocation jitter.
        const INGEST_REPS: u32 = 8;
        let mut ingest_times = Vec::with_capacity(iters);
        let mut est = RateEstimator::new(&system, EstimatorConfig::default());
        for _ in 0..iters {
            let mut fresh = RateEstimator::new(&system, EstimatorConfig::default());
            let t = Instant::now();
            for _ in 0..INGEST_REPS {
                for tr in &traces {
                    fresh.ingest(&tr.requests);
                }
                for (tr, &d) in traces.iter().zip(&durations) {
                    fresh.close_site_window(&system, tr.site, d);
                }
            }
            ingest_times.push(t.elapsed().as_secs_f64() / f64::from(INGEST_REPS));
            est = fresh;
        }
        let estimator_ingest_s = median(ingest_times);

        let est_sys = est.estimated_system(&system);
        let dirty: Vec<SiteId> = system.sites().ids().take(1).collect();
        let pristine = DeltaPlanner::new(&system, ReplicationPolicy::new());
        let mut delta_times = Vec::with_capacity(iters);
        for _ in 0..iters {
            let mut planner = pristine.clone();
            let t = Instant::now();
            std::hint::black_box(planner.replan(&est_sys, &dirty, ChurnBudget::unlimited()));
            delta_times.push(t.elapsed().as_secs_f64());
        }
        let delta_replan_s = median(delta_times);
        (
            Some(fig1_cell_s),
            Some(estimator_ingest_s),
            Some(delta_replan_s),
        )
    } else {
        (None, None, None)
    };

    let t = ScaleTimings {
        n_sites: params.n_sites,
        n_objects: params.n_objects,
        plan_s,
        plan_par_s,
        plan_unconstrained_s,
        plan_tree_s,
        restore_storage_s,
        restore_storage_par_s,
        restore_capacity_s,
        fig1_cell_s,
        estimator_ingest_s,
        delta_replan_s,
        // The serving-plane route metrics are measured by the `router`
        // bin, which amends the written document in place.
        route_mreq_s: None,
        route_p50_us: None,
        route_p99_us: None,
        route_p999_us: None,
        obs_overhead,
        telemetry_overhead,
        threads,
    };
    let opt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.4}s"),
        None => "-".to_string(),
    };
    let pct = |v: Option<f64>| match v {
        Some(x) => format!("{:.4}%", x * 100.0),
        None => "-".to_string(),
    };
    println!(
        "{label:>6}: plan {:.4}s  plan(par,{auto_threads}t) {:.4}s  \
         plan(unconstrained) {}  plan(tree) {}  \
         storage {:.4}s  storage(par,{auto_threads}t) {:.4}s  capacity {:.4}s  \
         fig1 cell {}  est ingest {}  delta replan {}  obs overhead {}  \
         telemetry overhead {}",
        t.plan_s,
        t.plan_par_s,
        opt(t.plan_unconstrained_s),
        opt(t.plan_tree_s),
        t.restore_storage_s,
        t.restore_storage_par_s,
        t.restore_capacity_s,
        opt(t.fig1_cell_s),
        opt(t.estimator_ingest_s),
        opt(t.delta_replan_s),
        pct(t.obs_overhead),
        pct(t.telemetry_overhead),
    );
    t
}

fn main() -> std::io::Result<()> {
    let mut iters = 5usize;
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--iters needs a number");
                iters = iters.max(1);
            }
            "--quick" => quick = true,
            "--out" => out = Some(PathBuf::from(args.next().expect("--out needs a path"))),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: perfsuite [--iters N] [--quick] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        // Default: BENCH_PLANNER.json at the repo root, wherever the
        // suite is invoked from.
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PLANNER.json")
    });

    let mut scales: BTreeMap<String, ScaleTimings> = BTreeMap::new();
    if quick {
        scales.insert(
            "quick".into(),
            bench_scale("quick", &WorkloadParams::small(), 42, iters, true),
        );
    } else {
        let paper = WorkloadParams::paper();
        scales.insert(
            "paper".into(),
            bench_scale("paper", &paper, 42, iters, true),
        );
        let mut big = paper.clone();
        big.n_sites *= 10;
        big.n_objects *= 10;
        scales.insert("10x".into(), bench_scale("10x", &big, 42, iters, true));
        // The 100× tier (1000 sites, 1.5M objects) runs the reduced
        // planner-only set — each metric is seconds-scale, so fewer
        // iterations keep the whole tier tractable.
        let mut huge = paper.clone();
        huge.n_sites *= 100;
        huge.n_objects *= 100;
        scales.insert(
            "100x".into(),
            bench_scale("100x", &huge, 42, iters.min(3), false),
        );
    }

    let doc = BenchDoc {
        schema: BENCH_SCHEMA,
        suite: "perfsuite".into(),
        iters,
        note: "median seconds per operation; see crates/bench/src/bin/perfsuite.rs".into(),
        audit_hooks: cfg!(feature = "audit"),
        scales,
    };
    doc.write(&out)?;
    println!("wrote {}", out.display());
    Ok(())
}
