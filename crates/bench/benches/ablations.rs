//! Criterion benches for the A1-A4 ablations plus the queueing-aware
//! replay extension: each variant's end-to-end runtime at quick scale.
//! The quality comparison (who produces better response times) is
//! `mmrepl study ablations`; these track compute cost.

use criterion::{criterion_group, criterion_main, Criterion};
use mmrepl_baselines::StaticRouter;
use mmrepl_core::{partition_all, partition_all_ordered, PartitionOrder};
use mmrepl_sim::{
    ablation_amortization, ablation_offload, ablation_partition_order, ablation_weights,
    queueing_replay, replay_all, ExperimentConfig,
};
use mmrepl_workload::{generate_trace, TraceConfig, WorkloadParams};
use std::hint::black_box;

fn quick_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.runs = 1;
    cfg.threads = 1;
    cfg
}

fn bench_partition_orders(c: &mut Criterion) {
    let sys = mmrepl_workload::generate_system(&WorkloadParams::small(), 1).unwrap();
    let mut g = c.benchmark_group("a1_partition_order");
    for (label, order) in [
        ("decreasing", PartitionOrder::DecreasingSize),
        ("increasing", PartitionOrder::IncreasingSize),
        ("document", PartitionOrder::DocumentOrder),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| black_box(partition_all_ordered(&sys, order)))
        });
    }
    g.finish();
}

fn bench_ablation_pipelines(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_pipelines");
    g.sample_size(10);
    g.bench_function("a1_quality_sweep", |b| {
        let cfg = quick_cfg();
        b.iter(|| black_box(ablation_partition_order(&cfg)))
    });
    g.bench_function("a2_quality_sweep", |b| {
        let cfg = quick_cfg();
        b.iter(|| black_box(ablation_amortization(&cfg)))
    });
    g.bench_function("a3_quality_sweep", |b| {
        let cfg = quick_cfg();
        b.iter(|| black_box(ablation_weights(&cfg)))
    });
    g.bench_function("a4_quality_sweep", |b| {
        let cfg = quick_cfg();
        b.iter(|| black_box(ablation_offload(&cfg)))
    });
    g.finish();
}

fn bench_queueing_extension(c: &mut Criterion) {
    let params = WorkloadParams::small();
    let sys = mmrepl_workload::generate_system(&params, 2).unwrap();
    let traces = generate_trace(&sys, &TraceConfig::from_params(&params), 2);
    let placement = partition_all(&sys);
    let mut g = c.benchmark_group("queueing_extension");
    g.sample_size(20);
    g.bench_function("plain_replay", |b| {
        b.iter(|| {
            let mut router = StaticRouter::new(&placement, "ours");
            black_box(replay_all(&sys, &traces, &mut router))
        })
    });
    g.bench_function("queueing_replay", |b| {
        b.iter(|| {
            let mut router = StaticRouter::new(&placement, "ours");
            black_box(queueing_replay(&sys, &traces, &mut router))
        })
    });
    g.finish();
}

criterion_group!(
    ablations,
    bench_partition_orders,
    bench_ablation_pipelines,
    bench_queueing_extension
);
criterion_main!(ablations);
