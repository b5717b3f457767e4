//! Criterion benches for the extension studies: cache-policy routers
//! (LRU vs GreedyDual-Size vs LFU) and one epoch of the drift study.

use criterion::{criterion_group, criterion_main, Criterion};
use mmrepl_baselines::{GdsRouter, LfuRouter, LruRouter};
use mmrepl_sim::{drift_study, replay_all, ExperimentConfig};
use mmrepl_workload::{generate_trace, TraceConfig, WorkloadParams};
use std::hint::black_box;

fn bench_cache_routers(c: &mut Criterion) {
    let params = WorkloadParams::small();
    let sys = mmrepl_workload::generate_system(&params, 1)
        .unwrap()
        .with_storage_fraction(0.6);
    let traces = generate_trace(&sys, &TraceConfig::from_params(&params), 1);
    let mut g = c.benchmark_group("cache_routers");
    g.sample_size(20);
    g.bench_function("lru_replay", |b| {
        b.iter(|| black_box(replay_all(&sys, &traces, &mut LruRouter::new(&sys))))
    });
    g.bench_function("gds_replay", |b| {
        b.iter(|| black_box(replay_all(&sys, &traces, &mut GdsRouter::new(&sys))))
    });
    g.bench_function("lfu_replay", |b| {
        b.iter(|| black_box(replay_all(&sys, &traces, &mut LfuRouter::new(&sys))))
    });
    g.finish();
}

fn bench_drift_epoch(c: &mut Criterion) {
    let mut g = c.benchmark_group("drift");
    g.sample_size(10);
    g.bench_function("one_epoch_quick", |b| {
        let mut cfg = ExperimentConfig::quick();
        cfg.runs = 1;
        cfg.threads = 1;
        b.iter(|| black_box(drift_study(&cfg, 1, 0.5)))
    });
    g.finish();
}

criterion_group!(extensions, bench_cache_routers, bench_drift_epoch);
criterion_main!(extensions);
