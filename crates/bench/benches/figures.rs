//! One Criterion bench per paper artifact (Table 1, Figures 1-3).
//!
//! Each bench regenerates its artifact end-to-end at the quick scale (the
//! full Table 1 scale lives in `mmrepl study fig1`/`fig2`/`fig3`, which
//! print the actual numbers); Criterion tracks how fast the whole
//! pipeline — workload generation, planning, replay, normalization — runs
//! and flags regressions.

use criterion::{criterion_group, criterion_main, Criterion};
use mmrepl_sim::{figure1, figure2, figure3, ExperimentConfig};
use mmrepl_workload::WorkloadParams;
use std::hint::black_box;

fn quick_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.runs = 1;
    cfg.threads = 1;
    cfg
}

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1_workload_generation", |b| {
        let params = WorkloadParams::small();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(mmrepl_workload::generate_system(&params, seed).unwrap())
        })
    });
}

fn bench_figure1(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("figure1_storage_sweep", |b| {
        let cfg = quick_cfg();
        b.iter(|| black_box(figure1(&cfg, &[0.5, 1.0])))
    });
    g.finish();
}

fn bench_figure2(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("figure2_processing_sweep", |b| {
        let cfg = quick_cfg();
        b.iter(|| black_box(figure2(&cfg, &[0.5, 1.0])))
    });
    g.finish();
}

fn bench_figure3(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("figure3_central_sweep", |b| {
        let cfg = quick_cfg();
        b.iter(|| black_box(figure3(&cfg, &[0.9, 0.5], &[0.7, 1.0])))
    });
    g.finish();
}

criterion_group!(
    figures,
    bench_table1,
    bench_figure1,
    bench_figure2,
    bench_figure3
);
criterion_main!(figures);
