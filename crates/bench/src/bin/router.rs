//! Tracked serving-plane routing baseline.
//!
//! Builds a [`PlacementSnapshot`] from a planned edge-tree system at the
//! paper and 10× scales, drives generated traces through per-site
//! [`Router`]s across the worker pool, and amends `BENCH_PLANNER.json`
//! in place with the routing throughput (`route_mreq_s`, millions of
//! requests per second — **higher is better**, and
//! `scripts/bench_regress.sh` inverts its comparison accordingly) and
//! the per-request latency tail (`route_p50_us` / `route_p99_us` /
//! `route_p999_us`).
//!
//! `--summary-out FILE` additionally writes the *deterministic* routing
//! totals (counts and checksums, no timings); `scripts/check.sh` diffs
//! that file between `--threads 1` and `--threads 4` runs to pin the
//! router's thread-count invariance.
//!
//! ```text
//! cargo run --release -p mmrepl-bench --bin router                 # amend baseline
//! cargo run -p mmrepl-bench --bin router -- --quick --summary-only --summary-out /tmp/s.json
//! ```

use mmrepl_bench::{BenchDoc, BENCH_SCHEMA};
use mmrepl_core::{effective_threads, ReplicationPolicy};
use mmrepl_obs::Histogram;
use mmrepl_serve::{route_traces, PlacementSnapshot, RouteStats, Router};
use mmrepl_workload::{generate_trace, TopologyParams, TraceConfig, WorkloadParams};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Keep each timed pass routing at least this many requests so the
/// medians read steady-state throughput instead of timer resolution.
const MIN_TIMED_REQUESTS: u64 = 200_000;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    xs[xs.len() / 2]
}

/// Deterministic routing totals for one tier — everything here must be
/// bit-identical at any thread count.
#[derive(Debug, serde::Serialize)]
struct TierSummary {
    scale: String,
    totals: RouteStats,
    per_site_checksums: Vec<u64>,
}

struct TierResult {
    mreq_s: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    threads_used: usize,
    summary: TierSummary,
}

fn bench_tier(
    label: &str,
    params: &WorkloadParams,
    seed: u64,
    iters: usize,
    threads: usize,
) -> TierResult {
    // The same constrained workload the perfsuite tiers plan, attached
    // to an edge repository tree so peer-replica routing is live.
    let mut params = params.clone();
    params.topology = TopologyParams::edge();
    let system = mmrepl_workload::generate_system(&params, seed)
        .expect("workload generates")
        .with_storage_fraction(0.5)
        .with_processing_fraction(0.8);
    let outcome = ReplicationPolicy::new().plan(&system);
    let snap = Arc::new(PlacementSnapshot::from_plan(&system, &outcome, 0));
    let traces = generate_trace(&system, &TraceConfig::from_params(&params), seed);
    let n_requests: u64 = traces.iter().map(|t| t.requests.len() as u64).sum();
    let threads_used = effective_threads(threads, traces.len());

    // Throughput: fan the per-site traces across the pool, repeating the
    // whole sweep until the timed region is large enough to trust.
    let reps = (MIN_TIMED_REQUESTS / n_requests.max(1)).max(1);
    let times: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(route_traces(&snap, &traces, threads));
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    let mreq_s = n_requests as f64 / median(times) / 1e6;

    // Latency tail: each request individually clocked on one thread into
    // a log-spaced histogram (10 ns – 1 s at ~5% relative resolution).
    let mut hist = Histogram::new(1e-8, 1.0, 800);
    for t in &traces {
        let mut router = Router::new(Arc::clone(&snap), t.site);
        for req in &t.requests {
            let start = Instant::now();
            std::hint::black_box(router.route(req));
            hist.record(start.elapsed().as_secs_f64());
        }
    }
    let us = |q: f64| hist.quantile(q).expect("histogram is non-empty") * 1e6;
    let (p50_us, p99_us, p999_us) = (us(0.5), us(0.99), us(0.999));

    // The deterministic totals, measured at the requested thread count.
    let (per_site, totals) = route_traces(&snap, &traces, threads);
    let summary = TierSummary {
        scale: label.to_string(),
        per_site_checksums: per_site.iter().map(|s| s.checksum).collect(),
        totals,
    };
    println!(
        "{label:>6}: route {mreq_s:.3} Mreq/s ({threads_used}t)  p50 {p50_us:.2}us  \
         p99 {p99_us:.2}us  p999 {p999_us:.2}us  \
         [{} reqs: {} local / {} peer / {} repo, {} misroutes]",
        summary.totals.requests,
        summary.totals.local,
        summary.totals.peer,
        summary.totals.repo,
        summary.totals.misroutes,
    );
    TierResult {
        mreq_s,
        p50_us,
        p99_us,
        p999_us,
        threads_used,
        summary,
    }
}

fn main() -> std::io::Result<()> {
    let mut iters = 5usize;
    let mut quick = false;
    let mut threads = 0usize;
    let mut out: Option<PathBuf> = None;
    let mut summary_out: Option<PathBuf> = None;
    let mut summary_only = false;
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
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a number");
            }
            "--out" => out = Some(PathBuf::from(args.next().expect("--out needs a path"))),
            "--summary-out" => {
                summary_out = Some(PathBuf::from(
                    args.next().expect("--summary-out needs a path"),
                ));
            }
            "--summary-only" => summary_only = true,
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: router [--iters N] [--quick] [--threads N] [--out FILE] \
                     [--summary-out FILE] [--summary-only]"
                );
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PLANNER.json")
    });

    let mut tiers: Vec<(String, WorkloadParams)> = Vec::new();
    if quick {
        tiers.push(("quick".into(), WorkloadParams::small()));
    } else {
        let paper = WorkloadParams::paper();
        let mut big = paper.clone();
        big.n_sites *= 10;
        big.n_objects *= 10;
        tiers.push(("paper".into(), paper));
        tiers.push(("10x".into(), big));
    }

    let results: Vec<TierResult> = tiers
        .iter()
        .map(|(label, params)| bench_tier(label, params, 42, iters, threads))
        .collect();

    if let Some(path) = &summary_out {
        let summaries: Vec<&TierSummary> = results.iter().map(|r| &r.summary).collect();
        let mut body = serde_json::to_string_pretty(&summaries).expect("summary serializes");
        body.push('\n');
        std::fs::write(path, body)?;
        println!("wrote {}", path.display());
    }

    if summary_only {
        return Ok(());
    }

    // Amend the baseline in place: the planner medians stay whatever
    // perfsuite measured; only the route metrics (and the schema stamp)
    // change. A missing document or tier means perfsuite has not run —
    // refuse rather than write a partial baseline.
    let mut doc = match BenchDoc::read(&out) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{e}\nrun the perfsuite bin first, or pass --summary-only");
            std::process::exit(1);
        }
    };
    for ((label, _), r) in tiers.iter().zip(&results) {
        let Some(scale) = doc.scales.get_mut(label) else {
            eprintln!(
                "baseline {} has no {label:?} tier; rerun perfsuite",
                out.display()
            );
            std::process::exit(1);
        };
        scale.route_mreq_s = Some(r.mreq_s);
        scale.route_p50_us = Some(r.p50_us);
        scale.route_p99_us = Some(r.p99_us);
        scale.route_p999_us = Some(r.p999_us);
        scale
            .threads
            .insert("route_mreq_s".to_string(), r.threads_used);
    }
    doc.schema = BENCH_SCHEMA;
    doc.audit_hooks |= cfg!(debug_assertions);
    doc.write(&out)?;
    println!("amended {}", out.display());
    Ok(())
}
