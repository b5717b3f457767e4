//! The mmrepl benchmark: the paths a user of the planner waits on, each
//! timed end to end in its own process and split by layer in a separate
//! traced run. See README.md for the workloads, the metrics and how to
//! read a traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-plan --seed 42 --seconds 20 --trace 0
//! ```

mod fig;
mod online;
mod plan;
mod stats;
mod trace;

use serde::{Deserialize, Serialize};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::Span;

const USAGE: &str = "\
usage: mmrepl-perfbench --workload <cold-plan|offload-plan|online-epoch|fig-cell|all>
                        [--seed N] [--seconds N] [--trace 0|1]
       mmrepl-perfbench --smoke
       mmrepl-perfbench --compare A.json B.json";

/// End-to-end metrics (name, unit), printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("download_ratio", "ratio"),
];

/// Per-layer metrics (name, unit), printed with `--trace 1`. A workload
/// reports 0 for a layer its op does not reach.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("core.partition_s", "s"),
    ("core.state_build_s", "s"),
    ("core.storage_s", "s"),
    ("core.capacity_s", "s"),
    ("core.per_site_wall_s", "s"),
    ("core.per_site_imbalance", "ratio"),
    ("core.offload_s", "s"),
    ("core.assemble_s", "s"),
    ("model.check_s", "s"),
    ("core.negotiate_s", "s"),
    ("core.storage.heap_pops", "count"),
    ("core.storage.deallocated", "count"),
    ("core.capacity.moves", "count"),
    ("core.offload.rounds", "count"),
    ("core.offload.messages", "count"),
    ("model.objective_d", "weighted_s"),
    ("online.serve_window_s", "s"),
    ("online.end_window_s", "s"),
    ("online.dirty_sites", "count"),
    ("online.replans", "count"),
    ("online.pages_applied", "count"),
    ("online.pages_deferred", "count"),
    ("online.bytes_migrated", "B"),
    ("serve.snapshot_build_s", "s"),
    ("serve.overlay_seed_s", "s"),
    ("serve.publish_s", "s"),
    ("serve.route_s", "s"),
    ("serve.route_mreq_s", "Mreq/s"),
    ("serve.route.local_frac", "ratio"),
    ("serve.overlay_deflected", "count"),
    ("workload.generate_s", "s"),
    ("core.plan_s", "s"),
    ("sim.replay_static_s", "s"),
    ("baselines.lru_replay_s", "s"),
    ("baselines.lru.local_frac", "ratio"),
    ("sim.replay.requests", "count"),
    ("sim.fig_ours_pct", "%"),
    ("sim.fig_lru_pct", "%"),
    ("trace.untraced_frac", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Timed ops (or traced pairs) a run makes at least, however short its
/// time budget.
const MIN_OPS: usize = 5;
/// A traced run fails when its spans leave more than this share of the
/// op uncovered, or when tracing slows the op by more than this share
/// (with 95% confidence).
const MAX_TRACE_GAP: f64 = 0.10;
const SMOKE_OPS: usize = 3;
const SMOKE_SEED: u64 = 42;
const RESULTS_DIR: &str = ".bench_results";

/// One timed op.
pub struct OpResult {
    pub secs: f64,
    /// Why the op's output is wrong, if it is.
    pub failure: Option<String>,
}

/// An untraced call and its rebuilt, traced twin, run from the same state.
pub struct Pair {
    pub untraced_s: f64,
    pub traced_s: f64,
    pub spans: Vec<Span>,
    pub layers: Vec<(&'static str, f64)>,
    pub failure: Option<String>,
}

/// One benchmark workload. Inputs are generated when it is built, and
/// before each op's clock starts.
pub trait Workload {
    /// The worker count each parallel stage resolved to.
    fn threads(&self) -> BTreeMap<String, usize>;
    /// Builds the program state the loop reuses and runs the first op;
    /// returns the seconds that took, or why the op's output is wrong.
    fn set_up(&mut self) -> Result<f64, String>;
    /// One timed op.
    fn op(&mut self) -> OpResult;
    /// Errs when the rebuilt op's output differs from the untraced call's.
    fn traced_pair(&mut self, traced_first: bool) -> Result<Pair, String>;
    /// Mean page download time the workload's output gives users, over
    /// that of the point the paper or study compares it with, on the same
    /// requests; computed after the timed loop.
    fn download_ratio(&mut self) -> f64;
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    ColdPlan,
    OffloadPlan,
    OnlineEpoch,
    FigCell,
}

const KINDS: [Kind; 4] = [
    Kind::ColdPlan,
    Kind::OffloadPlan,
    Kind::OnlineEpoch,
    Kind::FigCell,
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::ColdPlan => "cold-plan",
            Kind::OffloadPlan => "offload-plan",
            Kind::OnlineEpoch => "online-epoch",
            Kind::FigCell => "fig-cell",
        }
    }

    fn parse(name: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.name() == name)
    }

    /// Generates the workload's inputs: the sizes in README.md when
    /// `full`, `WorkloadParams::small()` otherwise.
    fn build(self, full: bool, seed: u64) -> Result<Box<dyn Workload>, String> {
        use mmrepl_workload::WorkloadParams;
        let params = |tenfold: bool| {
            let mut p = if full {
                WorkloadParams::paper()
            } else {
                WorkloadParams::small()
            };
            if full && tenfold {
                p.n_sites *= 10;
                p.n_objects *= 10;
            }
            p
        };
        Ok(match self {
            Kind::ColdPlan => Box::new(plan::PlanBench::new(params(true), seed, plan::COLD)?),
            Kind::OffloadPlan => Box::new(plan::PlanBench::new(params(true), seed, plan::OFFLOAD)?),
            Kind::OnlineEpoch => Box::new(online::OnlineBench::new(params(false), seed)?),
            Kind::FigCell => Box::new(fig::FigBench::new(params(false), seed)?),
        })
    }
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Metric {
    value: f64,
    unit: String,
}

/// The last line of standard output.
#[derive(Serialize)]
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// What one run leaves in `.bench_results/`.
#[derive(Serialize, Deserialize)]
struct ResultFile {
    workload: String,
    seed: u64,
    trace: u64,
    seconds: u64,
    nproc: usize,
    threads: BTreeMap<String, usize>,
    git_rev: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Every timed op's (with `--trace 1`, every untraced twin's) seconds.
    samples_s: Vec<f64>,
    metrics: BTreeMap<String, Metric>,
}

struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
    samples_s: Vec<f64>,
    threads: BTreeMap<String, usize>,
    spans: Vec<Vec<Span>>,
}

fn metric(value: f64, unit: &str) -> Metric {
    Metric {
        value,
        unit: unit.to_string(),
    }
}

/// Runs one workload: set-up, one more untimed op, then timed ops (or
/// traced pairs) until `min_ops` are done and `seconds` have passed.
fn run(
    kind: Kind,
    full: bool,
    seed: u64,
    min_ops: usize,
    seconds: f64,
    traced: bool,
) -> Result<Run, String> {
    let mut w = kind.build(full, seed)?;
    let setups = (0..SETUP_REPS)
        .map(|_| w.set_up())
        .collect::<Result<Vec<f64>, String>>()?;
    if let Some(why) = w.op().failure {
        return Err(why);
    }

    let mut failed = 0u64;
    let mut note = |failure: Option<String>| {
        if let Some(why) = failure {
            failed += 1;
            eprintln!("{}: op failed: {why}", kind.name());
        }
    };
    let start = Instant::now();
    let more = |done: usize| done < min_ops || start.elapsed().as_secs_f64() < seconds;
    let mut metrics = BTreeMap::new();
    let mut samples_s = Vec::new();
    let mut spans = Vec::new();
    let mut correct = true;
    if !traced {
        while more(samples_s.len()) {
            let op = w.op();
            note(op.failure);
            samples_s.push(op.secs);
        }
        let rss = stats::peak_rss_mib()?;
        let values = [median(&setups), median(&samples_s), rss, w.download_ratio()];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.insert(name.to_string(), metric(value, unit));
        }
    } else {
        let mut layers: Vec<BTreeMap<&str, f64>> = Vec::new();
        while more(samples_s.len()) {
            let pair = w.traced_pair(samples_s.len() % 2 == 1)?;
            note(pair.failure);
            let op = trace::root(&pair.spans);
            let untraced_frac =
                1.0 - trace::children_ns(op, &pair.spans) as f64 / op.dur_ns() as f64;
            let mut l: BTreeMap<&str, f64> = pair.layers.into_iter().collect();
            l.insert("trace.untraced_frac", untraced_frac);
            // Per pair, so the machine's slow and fast phases, which last
            // longer than a pair, cancel out.
            l.insert("trace.overhead", pair.traced_s / pair.untraced_s - 1.0);
            layers.push(l);
            samples_s.push(pair.untraced_s);
            spans.push(pair.spans);
        }
        for (name, unit) in PER_LAYER {
            let xs: Vec<f64> = layers
                .iter()
                .map(|l| l.get(name).copied().unwrap_or(0.0))
                .collect();
            metrics.insert(name.to_string(), metric(median(&xs), unit));
        }
        let uncovered = metrics["trace.untraced_frac"].value;
        let overhead = metrics["trace.overhead"].value;
        let overhead_low = lower_bound_95(
            &layers
                .iter()
                .map(|l| l["trace.overhead"])
                .collect::<Vec<_>>(),
        );
        if full && (uncovered > MAX_TRACE_GAP || overhead_low > MAX_TRACE_GAP) {
            eprintln!(
                "{}: spans leave {:.1}% of the op uncovered and tracing costs {:.1}% \
                 (at least {:.1}% with 95% confidence); both must stay under {:.0}%",
                kind.name(),
                uncovered * 100.0,
                overhead * 100.0,
                overhead_low * 100.0,
                MAX_TRACE_GAP * 100.0
            );
            correct = false;
        }
    }
    correct &= failed == 0 && metrics.values().all(|m| m.value.is_finite());
    Ok(Run {
        correct,
        attempted: samples_s.len() as u64,
        failed,
        metrics,
        samples_s,
        threads: w.threads(),
        spans,
    })
}

/// One-sided 95% lower confidence bound on the median of `xs`: the
/// median less 1.645 standard errors, the spread estimated robustly from
/// the interquartile range. Per-pair tracing overheads scatter by about
/// ±9% with the machine, so a bare median of a dozen pairs would cross a
/// 10% limit by chance now and then.
fn lower_bound_95(xs: &[f64]) -> f64 {
    let sigma = (percentile(xs, 0.75) - percentile(xs, 0.25)) / 1.349;
    let se = 1.2533 * sigma / (xs.len() as f64).sqrt();
    median(xs) - 1.645 * se
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `git rev-parse HEAD` of the working directory, or `unknown` outside a
/// git checkout. Git does not look above the working directory.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

fn write_results(kind: Kind, seed: u64, seconds: u64, traced: bool, r: &Run) -> Result<(), String> {
    let io = |e: std::io::Error| format!("writing {RESULTS_DIR}: {e}");
    std::fs::create_dir_all(RESULTS_DIR).map_err(io)?;
    let stem = format!("{RESULTS_DIR}/{}-seed{seed}", kind.name());
    let file = ResultFile {
        workload: kind.name().to_string(),
        seed,
        trace: u64::from(traced),
        seconds,
        nproc: nproc(),
        threads: r.threads.clone(),
        git_rev: git_rev(),
        correct: r.correct,
        attempted: r.attempted,
        failed: r.failed,
        samples_s: r.samples_s.clone(),
        metrics: r.metrics.clone(),
    };
    let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(format!("{stem}-trace{}.json", u8::from(traced)), json).map_err(io)?;
    if traced {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(format!("{stem}.trace.jsonl")).map_err(io)?,
        );
        for (op, spans) in r.spans.iter().enumerate() {
            trace::write_jsonl(&mut out, op, spans).map_err(io)?;
        }
        out.flush().map_err(io)?;
    }
    Ok(())
}

fn load_result(path: &Path) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Refuses to compare results of different workloads or modes, or taken
/// at different thread counts.
fn comparable(a: &ResultFile, b: &ResultFile) -> Result<(), String> {
    if (&a.workload, a.trace) != (&b.workload, b.trace) {
        return Err(format!(
            "{} --trace {} is not comparable with {} --trace {}",
            a.workload, a.trace, b.workload, b.trace
        ));
    }
    if (a.nproc, &a.threads) != (b.nproc, &b.threads) {
        return Err(format!(
            "refusing to compare results taken at different thread counts: \
             nproc {} threads {:?} vs nproc {} threads {:?}",
            a.nproc, a.threads, b.nproc, b.threads
        ));
    }
    Ok(())
}

/// Prints every metric two result files share, plus the op-time tail
/// from their samples (reported, not gated: see README.md).
fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let (ra, rb) = (load_result(a)?, load_result(b)?);
    comparable(&ra, &rb)?;
    println!(
        "{} --trace {}: {} vs {}",
        ra.workload, ra.trace, ra.git_rev, rb.git_rev
    );
    let tail = |r: &ResultFile| metric(percentile(&r.samples_s, 0.8), "s");
    let shared = ra.metrics.iter().filter_map(|(name, ma)| {
        let mb = rb.metrics.get(name)?;
        Some((name.as_str(), ma.clone(), mb.clone()))
    });
    for (name, ma, mb) in shared.chain([("op_p80_s", tail(&ra), tail(&rb))]) {
        let change = (mb.value / ma.value - 1.0) * 100.0;
        println!(
            "{name:<28} {:>16.6} {:>16.6} {change:>+9.2}% {}",
            ma.value, mb.value, ma.unit
        );
    }
    Ok(())
}

/// Runs every workload at `WorkloadParams::small()` with a few ops, timed
/// and traced, through the same code as a real run. Errs on any failed
/// op, wrong output, or rebuilt op that differs from its untraced call.
fn smoke() -> Result<Vec<(Kind, bool, Run)>, String> {
    let mut runs = Vec::new();
    for kind in KINDS {
        for traced in [false, true] {
            let r = run(kind, false, SMOKE_SEED, SMOKE_OPS, 0.0, traced)
                .map_err(|e| format!("{} --trace {}: {e}", kind.name(), u8::from(traced)))?;
            if !r.correct {
                return Err(format!(
                    "{} --trace {}: {} of {} ops failed",
                    kind.name(),
                    u8::from(traced),
                    r.failed,
                    r.attempted
                ));
            }
            runs.push((kind, traced, r));
        }
    }
    Ok(runs)
}

enum Cmd {
    Run {
        kinds: Vec<Kind>,
        seed: u64,
        seconds: u64,
        traced: bool,
    },
    Smoke,
    Compare(PathBuf, PathBuf),
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cmd, String> {
    let mut kinds = None;
    let mut seed = 42u64;
    let mut seconds = 20u64;
    let mut traced = false;
    let mut other = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kinds = Some(match name.as_str() {
                    "all" => KINDS.to_vec(),
                    _ => vec![Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?],
                });
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}, expected 0 or 1")),
                }
            }
            "--smoke" => other = Some(Cmd::Smoke),
            "--compare" => other = Some(Cmd::Compare(value()?.into(), value()?.into())),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    match (kinds, other) {
        (Some(kinds), None) => Ok(Cmd::Run {
            kinds,
            seed,
            seconds,
            traced,
        }),
        (None, Some(cmd)) => Ok(cmd),
        (None, None) => Err("one of --workload, --smoke or --compare is required".into()),
        (Some(_), Some(_)) => Err("--workload does not combine with --smoke or --compare".into()),
    }
}

/// Runs each workload in its own process, one after another.
fn run_each(kinds: &[Kind], seed: u64, seconds: u64, traced: bool) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for kind in kinds {
        let status = Command::new(&exe)
            .args(["--workload", kind.name(), "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
            ])
            .status()
            .map_err(|e| format!("starting {}: {e}", kind.name()))?;
        if !status.success() {
            return Ok(status.code().unwrap_or(1));
        }
    }
    Ok(0)
}

fn real_main() -> Result<i32, String> {
    let cmd = match parse_args(std::env::args().skip(1)) {
        Ok(cmd) => cmd,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return Ok(2);
        }
    };
    match cmd {
        Cmd::Smoke => {
            for (kind, traced, r) in smoke()? {
                println!(
                    "{} --trace {}: {} ops ok",
                    kind.name(),
                    u8::from(traced),
                    r.attempted
                );
            }
        }
        Cmd::Compare(a, b) => compare(&a, &b)?,
        Cmd::Run {
            kinds,
            seed,
            seconds,
            traced,
        } => {
            let [kind] = kinds[..] else {
                return run_each(&kinds, seed, seconds, traced);
            };
            let r = run(kind, true, seed, MIN_OPS, seconds as f64, traced)?;
            write_results(kind, seed, seconds, traced, &r)?;
            let line = Line {
                correct: r.correct,
                attempted: r.attempted,
                failed: r.failed,
                metrics: r.metrics,
            };
            println!(
                "{}",
                serde_json::to_string(&line).map_err(|e| e.to_string())?
            );
            return Ok(if line.correct { 0 } else { 1 });
        }
    }
    Ok(0)
}

fn main() {
    let code = real_main().unwrap_or_else(|why| {
        eprintln!("error: {why}");
        1
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Deserialize)]
    struct Spec {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<SpecWorkload>,
        end_to_end: Vec<SpecMetric>,
        per_layer: Vec<SpecLayer>,
    }

    #[derive(Deserialize)]
    struct SpecWorkload {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct SpecMetric {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Deserialize)]
    struct SpecLayer {
        name: String,
        unit: String,
        better: String,
    }

    fn spec() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_names_what_the_binary_reports() {
        let spec = spec();
        assert_eq!(spec.paths, ["perfbench"]);
        assert!(spec.command.iter().any(|a| a == "perfbench/Cargo.toml"));
        assert!((1..=60).contains(&spec.run_seconds));
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, KINDS.map(Kind::name));
        assert!(spec.workloads.iter().all(|w| !w.why.is_empty()));
        let e2e: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.better == "lower" && m.bound > 0.0 && m.bound <= 0.25));
        let layers: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(layers, PER_LAYER);
        assert!(spec
            .per_layer
            .iter()
            .all(|m| m.better == "lower" || m.better == "higher"));
    }

    /// The smoke run passes, and every metric `BENCHMARK.json` names for
    /// a mode is present and finite in each workload's output.
    #[test]
    fn smoke_reports_every_named_metric() {
        let spec = spec();
        for (kind, traced, r) in smoke().expect("smoke run passes") {
            let names: Vec<&str> = if traced {
                spec.per_layer.iter().map(|m| m.name.as_str()).collect()
            } else {
                spec.end_to_end.iter().map(|m| m.name.as_str()).collect()
            };
            assert_eq!(r.metrics.len(), names.len());
            for name in names {
                let m = r
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{kind:?} lacks {name}"));
                assert!(m.value.is_finite(), "{kind:?} {name} = {}", m.value);
            }
            assert_eq!(r.attempted, SMOKE_OPS as u64);
        }
    }

    #[test]
    fn overhead_gate_fails_only_with_confidence() {
        // A 12% median from pairs scattered by ±9%: not surely over 10%.
        let noisy: Vec<f64> = (-4..=4).map(|k| 0.12 + 0.03 * f64::from(k)).collect();
        assert!(median(&noisy) > MAX_TRACE_GAP);
        assert!(lower_bound_95(&noisy) < MAX_TRACE_GAP);
        // The same scatter around 25% is.
        let slow: Vec<f64> = noisy.iter().map(|x| x + 0.13).collect();
        assert!(lower_bound_95(&slow) > MAX_TRACE_GAP);
        assert_eq!(lower_bound_95(&[0.2; 9]), 0.2);
    }

    #[test]
    fn results_at_different_thread_counts_are_not_compared() {
        let result = |threads: usize| ResultFile {
            workload: "cold-plan".into(),
            seed: 1,
            trace: 0,
            seconds: 20,
            nproc: 2,
            threads: BTreeMap::from([("planner".to_string(), threads)]),
            git_rev: "unknown".into(),
            correct: true,
            attempted: 5,
            failed: 0,
            samples_s: vec![0.5; 5],
            metrics: BTreeMap::new(),
        };
        assert!(comparable(&result(2), &result(2)).is_ok());
        let err = comparable(&result(2), &result(1)).unwrap_err();
        assert!(err.contains("different thread counts"), "{err}");
        let mut traced = result(2);
        traced.trace = 1;
        assert!(comparable(&result(2), &traced).is_err());
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--workload", "fig-cell", "--seed", "-1"]).is_err());
        assert!(parse(&["--workload", "fig-cell", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "fig-cell", "--frobnicate"]).is_err());
        assert!(parse(&["--workload", "fig-cell", "--smoke"]).is_err());
        assert!(matches!(
            parse(&["--workload", "all", "--seed", "7", "--seconds", "3", "--trace", "1"]),
            Ok(Cmd::Run { ref kinds, seed: 7, seconds: 3, traced: true }) if kinds.len() == 4
        ));
    }
}
