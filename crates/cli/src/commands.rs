//! Command implementations for the `mmrepl` binary.

use crate::args::{Command, PolicyName, Scale, StudyName};
use mmrepl_baselines::{GdsRouter, LfuRouter, LruRouter, StaticRouter};
use mmrepl_core::{
    audit_site, partition_all, AncestorPolicy, AuditStage, PlannerConfig, ReplicationPolicy,
    SiteWork,
};
use mmrepl_model::{Bytes, ConstraintReport, CostParams, NodeId, Placement, System};
use mmrepl_serve::{route_traces, PlacementSnapshot, RouteStats};
use mmrepl_sim::replay_all;
use mmrepl_workload::{
    generate_system, generate_trace, TopologyParams, TraceConfig, WorkloadParams,
};
use std::fmt::Write as _;
use std::io::IsTerminal as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A CLI-level error: message plus context, printed to stderr.
pub type CliError = String;

/// Dispatches a parsed command.
pub fn run(cmd: Command) -> Result<(), CliError> {
    match cmd {
        Command::Generate {
            seed,
            scale,
            topology,
            out,
        } => generate(seed, scale, topology, &out),
        Command::Inspect { system } => inspect(&system),
        Command::Plan {
            system,
            storage,
            processing,
            central,
            alpha,
            ancestor,
            threads,
            out,
            trace_out,
        } => plan(
            &system,
            storage,
            processing,
            central,
            alpha,
            ancestor,
            threads,
            &out,
            trace_out.as_deref(),
        ),
        Command::Evaluate {
            system,
            placement,
            policy,
            seed,
            storage,
            processing,
        } => evaluate(
            &system,
            placement.as_deref(),
            policy,
            seed,
            storage,
            processing,
        ),
        Command::Compare {
            system,
            seed,
            storage,
            processing,
        } => compare(&system, seed, storage, processing),
        Command::Sweep {
            figure,
            runs,
            seed,
            paper,
            out,
            trace_out,
        } => sweep(figure, runs, seed, paper, &out, trace_out.as_deref()),
        Command::Online {
            epochs,
            rotation,
            windows,
            budget,
            runs,
            seed,
            paper,
            out,
            trace_out,
            expose,
            scrape_interval,
        } => online(
            epochs,
            rotation,
            windows,
            budget,
            runs,
            seed,
            paper,
            &out,
            trace_out.as_deref(),
            expose.as_deref(),
            scrape_interval,
        ),
        Command::Federate {
            preset,
            runs,
            seed,
            paper,
            out,
            trace_out,
        } => federate(preset, runs, seed, paper, &out, trace_out.as_deref()),
        Command::Negotiate {
            central,
            runs,
            seed,
            paper,
            out,
            trace_out,
            expose,
            scrape_interval,
        } => negotiate(
            central,
            runs,
            seed,
            paper,
            &out,
            trace_out.as_deref(),
            expose.as_deref(),
            scrape_interval,
        ),
        Command::Audit {
            seeds,
            start,
            inject,
            trace_out,
        } => audit(seeds, start, inject, trace_out.as_deref()),
        Command::Trace {
            system,
            seed,
            storage,
            processing,
            out,
        } => trace(system.as_deref(), seed, storage, processing, &out),
        Command::Route {
            system,
            placement,
            seed,
            storage,
            processing,
            threads,
            out,
            expose,
            scrape_interval,
        } => route(
            &system,
            placement.as_deref(),
            seed,
            storage,
            processing,
            threads,
            out.as_deref(),
            expose.as_deref(),
            scrape_interval,
        ),
        Command::Top {
            study,
            refresh_ms,
            frames,
            dump,
            seed,
        } => top(study, refresh_ms, frames, dump.as_deref(), seed),
    }
}

/// The observability envelope around one command: structured tracing to
/// `trace_out` and/or the live telemetry exporter on `expose` (a
/// `host:port` HTTP endpoint or a scrape-file path, flushed every
/// `scrape_interval` seconds). With both `None` the closure runs
/// untouched — the disabled-path cost is a single relaxed atomic load
/// per call site.
fn with_obs<T>(
    trace_out: Option<&Path>,
    expose: Option<&str>,
    scrape_interval: f64,
    f: impl FnOnce() -> T,
) -> Result<T, CliError> {
    if trace_out.is_none() && expose.is_none() {
        return Ok(f());
    }
    // Parse the exporter target before touching global state so a bad
    // --expose spec fails cleanly.
    let target = expose
        .map(str::parse::<mmrepl_obs::ScrapeTarget>)
        .transpose()
        .map_err(|e| format!("--expose: {e}"))?;
    mmrepl_obs::reset();
    mmrepl_obs::set_enabled(true);
    let exporter = target
        .map(|t| {
            let exp = mmrepl_obs::Exporter::start(t, Duration::from_secs_f64(scrape_interval))
                .map_err(|e| format!("starting telemetry exporter: {e}"))?;
            println!("telemetry exposition at {}", exp.endpoint());
            Ok::<_, CliError>(exp)
        })
        .transpose()?;
    let value = f();
    if let Some(exp) = exporter {
        exp.stop();
    }
    mmrepl_obs::set_enabled(false);
    if let Some(path) = trace_out {
        let rec = mmrepl_obs::take();
        mmrepl_obs::write_jsonl(&rec, path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        print!("{}", mmrepl_obs::stage_table(&rec));
        println!("wrote trace {}", path.display());
    }
    Ok(value)
}

/// Runs `f` with the structured tracer enabled, writes the drained trace
/// as JSON Lines to `out`, and prints the per-stage breakdown table.
fn with_trace<T>(out: Option<&Path>, f: impl FnOnce() -> T) -> Result<T, CliError> {
    with_obs(out, None, 1.0, f)
}

/// `mmrepl top`: drive a quick study on a background thread and render
/// the live view until it finishes.
///
/// The render loop owns the exposition clock ([`mmrepl_obs::tick`] once
/// per frame); no [`mmrepl_obs::Exporter`] runs concurrently, so the
/// windowed rates and SLO burn windows advance exactly once per refresh
/// period.
fn top(
    study: StudyName,
    refresh_ms: u64,
    frames: usize,
    dump: Option<&Path>,
    seed: Option<u64>,
) -> Result<(), CliError> {
    if let Some(dir) = dump {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    mmrepl_obs::reset();
    mmrepl_obs::set_enabled(true);
    let done = Arc::new(AtomicBool::new(false));
    let runner = {
        let done = Arc::clone(&done);
        std::thread::Builder::new()
            .name("mmrepl-top-study".into())
            .spawn(move || {
                run_top_study(study, seed);
                done.store(true, Ordering::SeqCst);
            })
            .map_err(|e| format!("spawning the study thread: {e}"))?
    };

    let refresh = Duration::from_millis(refresh_ms);
    let dt = refresh.as_secs_f64();
    let ansi = std::io::stdout().is_terminal();
    let mut prev: Option<mmrepl_obs::TelemetrySnapshot> = None;
    let mut frame = 0usize;
    loop {
        std::thread::sleep(refresh);
        mmrepl_obs::tick(dt);
        let cur = mmrepl_obs::gather();
        let screen = crate::dash::render_dashboard(prev.as_ref(), &cur, dt);
        if ansi {
            // Clear and home between frames; plain appended frames when
            // piped so the output stays greppable.
            print!("\x1b[2J\x1b[H{screen}");
            let _ = std::io::Write::flush(&mut std::io::stdout());
        } else {
            println!("--- frame {frame} ---");
            print!("{screen}");
        }
        if let Some(dir) = dump {
            let path = dir.join(format!("scrape-{frame}.prom"));
            mmrepl_obs::write_atomic(&path, mmrepl_obs::to_prometheus(&cur).as_bytes())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        prev = Some(cur);
        frame += 1;
        if done.load(Ordering::SeqCst) && frame >= frames.max(1) {
            break;
        }
    }
    runner
        .join()
        .map_err(|_| "the study thread panicked".to_string())?;
    mmrepl_obs::set_enabled(false);
    println!("{study} study finished after {frame} frame(s)");
    mmrepl_obs::reset();
    Ok(())
}

/// The background workload one `mmrepl top` invocation watches: a
/// single quick-scale run of the named study, publishing into the
/// recorder as it goes.
fn run_top_study(study: StudyName, seed: Option<u64>) {
    let quick = |seed: Option<u64>| {
        let mut cfg = mmrepl_sim::ExperimentConfig::quick();
        cfg.runs = 1;
        if let Some(s) = seed {
            cfg.base_seed = s;
        }
        cfg
    };
    match study {
        StudyName::Online => {
            mmrepl_sim::online_study(
                &quick(seed),
                2,
                0.5,
                2,
                0.25,
                &mmrepl_sim::study_online_config(),
            );
        }
        StudyName::Negotiate => {
            mmrepl_sim::negotiate_study(&quick(seed), 0.3);
        }
        StudyName::Route => {
            let seed = seed.unwrap_or(0);
            let Ok(system) = generate_system(&WorkloadParams::small(), seed) else {
                return;
            };
            let outcome = ReplicationPolicy::new().plan(&system);
            let snap = std::sync::Arc::new(PlacementSnapshot::from_plan(&system, &outcome, 0));
            mmrepl_serve::register_latency_slo(&snap);
            let traces = generate_trace(
                &system,
                &TraceConfig::from_params(&WorkloadParams::small()),
                seed,
            );
            for _ in 0..40 {
                route_traces(&snap, &traces, 1);
            }
        }
    }
}

/// `mmrepl trace`: plan + FIFO queueing replay of one system under the
/// tracer.
fn trace(
    system: Option<&Path>,
    seed: u64,
    storage: Option<f64>,
    processing: Option<f64>,
    out: &Path,
) -> Result<(), CliError> {
    let sys = match system {
        Some(p) => load_system(p)?,
        None => generate_system(&WorkloadParams::small(), seed)?,
    };
    let sys = apply_fractions(sys, storage, processing, None);
    let params = if sys.n_sites() >= 10 {
        WorkloadParams::paper()
    } else {
        WorkloadParams::small()
    };
    let traces = generate_trace(&sys, &TraceConfig::from_params(&params), seed);
    let replayed = with_trace(Some(out), || {
        let planned = ReplicationPolicy::new().plan(&sys).placement;
        let mut router = StaticRouter::new(&planned, "ours");
        mmrepl_sim::queueing_replay(&sys, &traces, &mut router)
    })?;
    println!(
        "plan + queueing replay: {} requests, mean response {:.2} s, mean site wait {:.2} s",
        replayed.pages.count(),
        replayed.mean_response(),
        replayed.site_waits.mean().map_or(0.0, |s| s.get())
    );
    Ok(())
}

fn audit(seeds: u64, start: u64, inject: bool, trace_out: Option<&Path>) -> Result<(), CliError> {
    if inject {
        // Divergences construct through one choke point that also emits
        // an obs event, so --trace-out captures the auditor's report.
        return with_trace(trace_out, audit_inject)?;
    }
    let report = with_trace(trace_out, || mmrepl_sim::fuzz(start, seeds))?;
    println!(
        "audit: {}/{} oracle cases passed over seeds {start}..{}",
        report.passed,
        report.cases,
        start.saturating_add(seeds)
    );
    if report.is_clean() {
        return Ok(());
    }
    for f in &report.failures {
        println!("FAIL [{}] seed {}: {}", f.oracle, f.seed, f.detail);
        if let Some(min) = &f.minimized {
            println!("  {min}");
        }
    }
    Err(format!("{} oracle case(s) diverged", report.failures.len()))
}

/// Demonstrates the invariant auditor: corrupts one site's incremental
/// load accumulator on purpose and prints the divergence report the
/// auditor produces. Fails if the corruption goes undetected.
fn audit_inject() -> Result<(), CliError> {
    let system = generate_system(&WorkloadParams::small(), 0).map_err(|e| e.to_string())?;
    let initial = partition_all(&system);
    let site = system
        .sites()
        .ids()
        .next()
        .expect("generated systems have at least one site");
    let mut work = SiteWork::new(&system, site, &initial, CostParams::default());
    audit_site(&work, AuditStage::Validate)
        .map_err(|d| format!("pristine state failed its own audit:\n{d}"))?;
    println!("pristine {site}: audit clean; injecting +0.25 req/s into the load accumulator");
    work.debug_corrupt_load(0.25);
    match audit_site(&work, AuditStage::Validate) {
        Err(divergence) => {
            println!("caught:\n{divergence}");
            Ok(())
        }
        Ok(()) => Err("injected corruption was NOT detected by the auditor".into()),
    }
}

fn params_for(scale: Scale) -> WorkloadParams {
    match scale {
        Scale::Small => WorkloadParams::small(),
        Scale::Paper => WorkloadParams::paper(),
    }
}

fn load_system(path: &Path) -> Result<System, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn apply_fractions(
    system: System,
    storage: Option<f64>,
    processing: Option<f64>,
    central: Option<f64>,
) -> System {
    let mut sys = system;
    if let Some(f) = storage {
        sys = sys.with_storage_fraction(f);
    }
    if let Some(f) = processing {
        sys = sys.with_processing_fraction(f);
    }
    if let Some(f) = central {
        sys = sys.with_central_fraction(f);
    }
    sys
}

fn generate(seed: u64, scale: Scale, topology: TopologyParams, out: &Path) -> Result<(), CliError> {
    let mut params = params_for(scale);
    params.topology = topology;
    let system = generate_system(&params, seed)?;
    let json = serde_json::to_string(&system).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("writing {}: {e}", out.display()))?;
    let tree = match system.topology() {
        Some(t) => format!(", {} repository nodes", t.n_nodes()),
        None => String::new(),
    };
    println!(
        "wrote {} ({} sites, {} pages, {} objects{tree}, seed {})",
        out.display(),
        system.n_sites(),
        system.n_pages(),
        system.n_objects(),
        seed
    );
    Ok(())
}

fn inspect(path: &Path) -> Result<(), CliError> {
    let system = load_system(path)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "system: {} sites, {} pages, {} objects",
        system.n_sites(),
        system.n_pages(),
        system.n_objects()
    );
    let _ = writeln!(out, "repository capacity: {}", system.repository().capacity);
    let _ = writeln!(
        out,
        "all-remote repository load: {}",
        system.full_remote_load()
    );
    let _ = writeln!(
        out,
        "\n{:>5} {:>7} {:>14} {:>14} {:>14} {:>12}",
        "site", "pages", "storage", "full demand", "capacity", "full load"
    );
    for site in system.sites().ids() {
        let s = system.site(site);
        let _ = writeln!(
            out,
            "{:>5} {:>7} {:>14} {:>14} {:>14} {:>12}",
            site.to_string(),
            system.pages_of(site).len(),
            s.storage.to_string(),
            system.full_storage_demand(site).to_string(),
            s.capacity.to_string(),
            system.full_local_load(site).to_string(),
        );
    }
    print!("{out}");
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn plan(
    path: &Path,
    storage: Option<f64>,
    processing: Option<f64>,
    central: Option<f64>,
    alpha: (f64, f64),
    ancestor: AncestorPolicy,
    threads: usize,
    out: &Path,
    trace_out: Option<&Path>,
) -> Result<(), CliError> {
    let system = apply_fractions(load_system(path)?, storage, processing, central);
    let policy = ReplicationPolicy::with_config(PlannerConfig {
        cost: CostParams {
            alpha1: alpha.0,
            alpha2: alpha.1,
        },
        ancestor,
        ..PlannerConfig::default()
    });
    let outcome = with_trace(trace_out, || policy.plan_parallel(&system, threads))?;
    let r = &outcome.report;
    println!(
        "plan: feasible={} objective D={:.2}",
        r.feasible, r.objective
    );
    let dealloc: usize = r.storage.iter().map(|s| s.deallocated).sum();
    let freed: u64 = r.storage.iter().map(|s| s.bytes_freed).sum();
    let moves: usize = r.capacity.iter().map(|c| c.moves).sum();
    if !r.serving.is_empty() {
        let promoted = r.promotions;
        let nodes = {
            let mut n: Vec<u32> = r.serving.clone();
            n.sort_unstable();
            n.dedup();
            n.len()
        };
        println!(
            "  ancestor selection  : {ancestor} policy, {} sites over {nodes} node(s), \
             {promoted} promoted, {} QoS-blocked",
            r.serving.len(),
            r.qos_blocked
        );
    }
    println!(
        "  storage restoration : {dealloc} deallocations, {} freed",
        Bytes(freed)
    );
    println!("  capacity restoration: {moves} downloads moved to repository");
    println!(
        "  off-loading         : {} rounds, {} messages, {:.2} req/s pushed back",
        r.offload.rounds, r.offload.messages, r.offload.absorbed
    );
    // Tree plans are feasibility-checked against the serving nodes the
    // planner actually picked; star plans against the repository.
    let check = if r.serving.is_empty() {
        ConstraintReport::check(&system, &outcome.placement)
    } else {
        let serving = r.serving.iter().map(|&n| NodeId::new(n)).collect();
        ConstraintReport::check_with_serving(&system, &outcome.placement, &serving)
    };
    for v in &check.violations {
        println!("  VIOLATION: {v}");
    }
    let json = serde_json::to_string(&outcome.placement).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

/// The JSON document `mmrepl route --out` writes: the merged totals plus
/// one [`RouteStats`] per requester site, in site-id order.
#[derive(serde::Serialize, serde::Deserialize)]
struct RouteDoc {
    total: RouteStats,
    sites: Vec<RouteStats>,
}

#[allow(clippy::too_many_arguments)]
fn route(
    path: &Path,
    placement_path: Option<&Path>,
    seed: u64,
    storage: Option<f64>,
    processing: Option<f64>,
    threads: usize,
    out: Option<&Path>,
    expose: Option<&str>,
    scrape_interval: f64,
) -> Result<(), CliError> {
    let system = apply_fractions(load_system(path)?, storage, processing, None);
    let snap = match placement_path {
        Some(p) => {
            let text =
                std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            let placement: Placement = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            placement
                .validate(&system)
                .map_err(|e| format!("placement does not fit this system: {e}"))?;
            PlacementSnapshot::build(&system, &placement, &[], 0)
        }
        None => {
            let outcome = ReplicationPolicy::new().plan(&system);
            PlacementSnapshot::from_plan(&system, &outcome, 0)
        }
    };
    let snap = std::sync::Arc::new(snap);
    let params = if system.n_sites() >= 10 {
        WorkloadParams::paper()
    } else {
        WorkloadParams::small()
    };
    let traces = generate_trace(&system, &TraceConfig::from_params(&params), seed);
    let (per_site, total) = with_obs(None, expose, scrape_interval, || {
        if mmrepl_obs::enabled() {
            mmrepl_serve::register_latency_slo(&snap);
        }
        route_traces(&snap, &traces, threads)
    })?;

    let pct = |n: u64| 100.0 * n as f64 / total.objects.max(1) as f64;
    println!("route: seed {seed}, {} sites", per_site.len());
    println!("  requests          : {}", total.requests);
    println!(
        "  objects           : {} ({:.1}% local / {:.1}% peer / {:.1}% serving node)",
        total.objects,
        pct(total.local),
        pct(total.peer),
        pct(total.repo),
    );
    println!("  overlay deflected : {}", total.overlay_deflected);
    println!(
        "  est mean latency  : {:.3} s",
        total.est_latency_s / total.requests.max(1) as f64
    );
    println!(
        "  misroutes         : {}{}",
        total.misroutes,
        if cfg!(debug_assertions) {
            " (audit-verified)"
        } else {
            " (not cross-checked in release builds)"
        }
    );
    println!("  checksum          : {:016x}", total.checksum);
    if let Some(out) = out {
        let doc = RouteDoc {
            total,
            sites: per_site,
        };
        let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| format!("writing {}: {e}", out.display()))?;
        println!("wrote {}", out.display());
    }
    Ok(())
}

fn evaluate(
    path: &Path,
    placement_path: Option<&Path>,
    policy: Option<PolicyName>,
    seed: u64,
    storage: Option<f64>,
    processing: Option<f64>,
) -> Result<(), CliError> {
    let system = apply_fractions(load_system(path)?, storage, processing, None);
    // The trace scale mirrors the system's own page-rate structure; the
    // small/paper request counts only differ via the params, so pick by
    // system size.
    let params = if system.n_sites() >= 10 {
        WorkloadParams::paper()
    } else {
        WorkloadParams::small()
    };
    let traces = generate_trace(&system, &TraceConfig::from_params(&params), seed);

    let (label, outcome) = match (placement_path, policy) {
        (Some(p), None) => {
            let text =
                std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            let placement: Placement = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            placement
                .validate(&system)
                .map_err(|e| format!("placement does not fit this system: {e}"))?;
            (
                "placement".to_string(),
                replay_all(&system, &traces, &mut StaticRouter::new(&placement, "file")),
            )
        }
        (None, Some(PolicyName::Ours)) => {
            let planned = ReplicationPolicy::new().plan(&system).placement;
            (
                "ours".to_string(),
                replay_all(&system, &traces, &mut StaticRouter::new(&planned, "ours")),
            )
        }
        (None, Some(PolicyName::Remote)) => {
            let p = Placement::all_remote(&system);
            (
                "remote".to_string(),
                replay_all(&system, &traces, &mut StaticRouter::new(&p, "remote")),
            )
        }
        (None, Some(PolicyName::Local)) => {
            let p = Placement::all_local(&system);
            (
                "local".to_string(),
                replay_all(&system, &traces, &mut StaticRouter::new(&p, "local")),
            )
        }
        (None, Some(PolicyName::Lru)) => (
            "lru".to_string(),
            replay_all(&system, &traces, &mut LruRouter::new(&system)),
        ),
        _ => unreachable!("arg parser enforces exactly one source"),
    };

    println!("policy: {label} (seed {seed})");
    println!("  requests        : {}", outcome.pages.count());
    println!("  mean response   : {:.2} s", outcome.mean_response());
    println!(
        "  p50 / p95 / p99 : {:.1} / {:.1} / {:.1} s",
        outcome.pages.quantile(0.50).map(|s| s.get()).unwrap_or(0.0),
        outcome.pages.quantile(0.95).map(|s| s.get()).unwrap_or(0.0),
        outcome.pages.quantile(0.99).map(|s| s.get()).unwrap_or(0.0),
    );
    println!(
        "  min / max       : {:.1} / {:.1} s",
        outcome.pages.min().map(|s| s.get()).unwrap_or(0.0),
        outcome.pages.max().map(|s| s.get()).unwrap_or(0.0),
    );
    println!(
        "  served locally  : {:.1}%",
        outcome.local_fraction() * 100.0
    );
    if outcome.optional.count() > 0 {
        println!(
            "  optional fetches: {} requests, mean {:.2} s",
            outcome.optional.count(),
            outcome.optional.mean().map(|s| s.get()).unwrap_or(0.0)
        );
    }
    Ok(())
}

fn compare(
    path: &Path,
    seed: u64,
    storage: Option<f64>,
    processing: Option<f64>,
) -> Result<(), CliError> {
    let system = apply_fractions(load_system(path)?, storage, processing, None);
    let params = if system.n_sites() >= 10 {
        WorkloadParams::paper()
    } else {
        WorkloadParams::small()
    };
    let traces = generate_trace(&system, &TraceConfig::from_params(&params), seed);

    let planned = ReplicationPolicy::new().plan(&system).placement;
    let local = Placement::all_local(&system);
    let remote = Placement::all_remote(&system);

    let mut rows: Vec<(&str, mmrepl_sim::ReplayOutcome)> = vec![
        (
            "ours",
            replay_all(&system, &traces, &mut StaticRouter::new(&planned, "ours")),
        ),
        (
            "lru",
            replay_all(&system, &traces, &mut LruRouter::new(&system)),
        ),
        (
            "gds",
            replay_all(&system, &traces, &mut GdsRouter::new(&system)),
        ),
        (
            "lfu",
            replay_all(&system, &traces, &mut LfuRouter::new(&system)),
        ),
        (
            "local",
            replay_all(&system, &traces, &mut StaticRouter::new(&local, "local")),
        ),
        (
            "remote",
            replay_all(&system, &traces, &mut StaticRouter::new(&remote, "remote")),
        ),
    ];
    rows.sort_by(|a, b| a.1.mean_response().total_cmp(&b.1.mean_response()));

    println!("policy      mean        p95       local%   (seed {seed})");
    for (name, out) in &rows {
        println!(
            "{:<10} {:>7.1} s {:>9.1} s {:>8.1}%",
            name,
            out.mean_response(),
            out.pages.quantile(0.95).map(|s| s.get()).unwrap_or(0.0),
            out.local_fraction() * 100.0
        );
    }
    Ok(())
}

fn sweep(
    figure: u8,
    runs: usize,
    seed: u64,
    paper: bool,
    out: &Path,
    trace_out: Option<&Path>,
) -> Result<(), CliError> {
    let mut cfg = if paper {
        mmrepl_sim::ExperimentConfig::paper()
    } else {
        mmrepl_sim::ExperimentConfig::quick()
    };
    cfg.runs = runs;
    cfg.base_seed = seed;
    let fig = with_trace(trace_out, || match figure {
        1 => mmrepl_sim::figure1(&cfg, &[0.2, 0.4, 0.6, 0.65, 0.8, 1.0]),
        2 => mmrepl_sim::figure2(&cfg, &[0.2, 0.4, 0.6, 0.8, 1.0]),
        3 => mmrepl_sim::figure3(&cfg, &[0.9, 0.7, 0.5], &[0.6, 0.8, 1.0]),
        _ => unreachable!("parser validated the figure number"),
    })?;
    print!("{}", fig.to_table());
    std::fs::write(
        out,
        serde_json::to_string_pretty(&fig).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn online(
    epochs: usize,
    rotation: f64,
    windows: usize,
    budget: f64,
    runs: usize,
    seed: Option<u64>,
    paper: bool,
    out: &Path,
    trace_out: Option<&Path>,
    expose: Option<&str>,
    scrape_interval: f64,
) -> Result<(), CliError> {
    let mut cfg = if paper {
        mmrepl_sim::ExperimentConfig::paper()
    } else {
        mmrepl_sim::ExperimentConfig::quick()
    };
    cfg.runs = runs;
    if let Some(s) = seed {
        cfg.base_seed = s;
    }
    let study = with_obs(trace_out, expose, scrape_interval, || {
        mmrepl_sim::online_study(
            &cfg,
            epochs,
            rotation,
            windows,
            budget,
            &mmrepl_sim::study_online_config(),
        )
    })?;
    print!("{}", study.to_table());
    std::fs::write(
        out,
        serde_json::to_string_pretty(&study).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

fn federate(
    preset: TopologyParams,
    runs: usize,
    seed: Option<u64>,
    paper: bool,
    out: &Path,
    trace_out: Option<&Path>,
) -> Result<(), CliError> {
    let mut cfg = if paper {
        mmrepl_sim::ExperimentConfig::paper()
    } else {
        mmrepl_sim::ExperimentConfig::quick()
    };
    cfg.runs = runs;
    if let Some(s) = seed {
        cfg.base_seed = s;
    }
    let study = with_trace(trace_out, || mmrepl_sim::federate_study(&cfg, &preset))?;
    print!("{}", study.to_table());
    std::fs::write(
        out,
        serde_json::to_string_pretty(&study).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn negotiate(
    central: f64,
    runs: usize,
    seed: Option<u64>,
    paper: bool,
    out: &Path,
    trace_out: Option<&Path>,
    expose: Option<&str>,
    scrape_interval: f64,
) -> Result<(), CliError> {
    let mut cfg = if paper {
        mmrepl_sim::ExperimentConfig::paper()
    } else {
        mmrepl_sim::ExperimentConfig::quick()
    };
    cfg.runs = runs;
    if let Some(s) = seed {
        cfg.base_seed = s;
    }
    let study = with_obs(trace_out, expose, scrape_interval, || {
        mmrepl_sim::negotiate_study(&cfg, central)
    })?;
    print!("{}", study.to_table());
    std::fs::write(
        out,
        serde_json::to_string_pretty(&study).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mmrepl-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn generate_inspect_plan_evaluate_roundtrip() {
        let sys_path = tmp("roundtrip-system.json");
        let place_path = tmp("roundtrip-placement.json");

        run(Command::Generate {
            seed: 5,
            scale: Scale::Small,
            topology: TopologyParams::origin(),
            out: sys_path.clone(),
        })
        .unwrap();
        assert!(sys_path.exists());

        run(Command::Inspect {
            system: sys_path.clone(),
        })
        .unwrap();

        run(Command::Plan {
            system: sys_path.clone(),
            storage: Some(0.7),
            processing: None,
            central: None,
            alpha: (2.0, 1.0),
            ancestor: AncestorPolicy::Closest,
            threads: 0,
            out: place_path.clone(),
            trace_out: None,
        })
        .unwrap();
        assert!(place_path.exists());

        run(Command::Evaluate {
            system: sys_path.clone(),
            placement: Some(place_path.clone()),
            policy: None,
            seed: 5,
            storage: Some(0.7),
            processing: None,
        })
        .unwrap();

        run(Command::Evaluate {
            system: sys_path,
            placement: None,
            policy: Some(PolicyName::Lru),
            seed: 5,
            storage: None,
            processing: None,
        })
        .unwrap();
    }

    #[test]
    fn route_reports_and_writes_stats() {
        let sys_path = tmp("route-system.json");
        let place_path = tmp("route-placement.json");
        let stats_path = tmp("route-stats.json");
        run(Command::Generate {
            seed: 5,
            scale: Scale::Small,
            topology: TopologyParams::edge(),
            out: sys_path.clone(),
        })
        .unwrap();
        // Planned fresh, routed across 2 worker threads.
        run(Command::Route {
            system: sys_path.clone(),
            placement: None,
            seed: 5,
            storage: Some(0.6),
            processing: None,
            threads: 2,
            out: Some(stats_path.clone()),
            expose: None,
            scrape_interval: 1.0,
        })
        .unwrap();
        let doc: RouteDoc =
            serde_json::from_str(&std::fs::read_to_string(&stats_path).unwrap()).unwrap();
        assert!(doc.total.requests > 0);
        assert_eq!(doc.total.misroutes, 0);
        assert_eq!(doc.sites.len(), 3);

        // And against a planned placement loaded from disk.
        run(Command::Plan {
            system: sys_path.clone(),
            storage: Some(0.6),
            processing: None,
            central: None,
            alpha: (2.0, 1.0),
            ancestor: AncestorPolicy::Closest,
            threads: 0,
            out: place_path.clone(),
            trace_out: None,
        })
        .unwrap();
        run(Command::Route {
            system: sys_path,
            placement: Some(place_path),
            seed: 5,
            storage: Some(0.6),
            processing: None,
            threads: 0,
            out: None,
            expose: None,
            scrape_interval: 1.0,
        })
        .unwrap();
    }

    #[test]
    fn compare_runs_all_policies() {
        let sys_path = tmp("compare-system.json");
        run(Command::Generate {
            seed: 9,
            scale: Scale::Small,
            topology: TopologyParams::origin(),
            out: sys_path.clone(),
        })
        .unwrap();
        run(Command::Compare {
            system: sys_path,
            seed: 9,
            storage: Some(0.8),
            processing: None,
        })
        .unwrap();
    }

    #[test]
    fn evaluate_rejects_mismatched_placement() {
        let sys_a = tmp("mismatch-a.json");
        let sys_b = tmp("mismatch-b.json");
        let place_a = tmp("mismatch-a-placement.json");
        run(Command::Generate {
            seed: 1,
            scale: Scale::Small,
            topology: TopologyParams::origin(),
            out: sys_a.clone(),
        })
        .unwrap();
        run(Command::Generate {
            seed: 2,
            scale: Scale::Small,
            topology: TopologyParams::origin(),
            out: sys_b.clone(),
        })
        .unwrap();
        run(Command::Plan {
            system: sys_a,
            storage: None,
            processing: None,
            central: None,
            alpha: (2.0, 1.0),
            ancestor: AncestorPolicy::Closest,
            threads: 0,
            out: place_a.clone(),
            trace_out: None,
        })
        .unwrap();
        let err = run(Command::Evaluate {
            system: sys_b,
            placement: Some(place_a),
            policy: None,
            seed: 1,
            storage: None,
            processing: None,
        })
        .unwrap_err();
        assert!(err.contains("does not fit"), "{err}");
    }

    #[test]
    fn sweep_writes_figure_json() {
        let out = tmp("sweep-fig2.json");
        run(Command::Sweep {
            figure: 2,
            runs: 1,
            seed: 4,
            paper: false,
            out: out.clone(),
            trace_out: None,
        })
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let fig: mmrepl_sim::FigureData = serde_json::from_str(&text).unwrap();
        assert_eq!(fig.name, "figure2");
        assert!(!fig.points.is_empty());
    }

    #[test]
    fn online_writes_study_json() {
        let out = tmp("online-study.json");
        run(Command::Online {
            epochs: 1,
            rotation: 0.5,
            windows: 2,
            budget: 0.25,
            runs: 1,
            seed: Some(7),
            paper: false,
            out: out.clone(),
            trace_out: None,
            expose: None,
            scrape_interval: 1.0,
        })
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let study: mmrepl_sim::OnlineStudy = serde_json::from_str(&text).unwrap();
        assert_eq!(study.epochs.len(), 2);
        assert!(study.epochs[1].series.contains_key("online"));
    }

    #[test]
    fn federate_writes_study_json() {
        let out = tmp("federate-study.json");
        run(Command::Federate {
            preset: TopologyParams::edge(),
            runs: 1,
            seed: Some(11),
            paper: false,
            out: out.clone(),
            trace_out: None,
        })
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let study: mmrepl_sim::FederateStudy = serde_json::from_str(&text).unwrap();
        assert_eq!(study.levels, 2);
        assert!(study.mean_response.contains_key("closest"));
        assert!(study.mean_response.contains_key("flat"));
        assert!(study.mean_response.contains_key("lru"));
    }

    #[test]
    fn negotiate_writes_study_json() {
        let out = tmp("negotiate-study.json");
        run(Command::Negotiate {
            central: 0.1,
            runs: 1,
            seed: Some(11),
            paper: false,
            out: out.clone(),
            trace_out: None,
            expose: None,
            scrape_interval: 1.0,
        })
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let study: mmrepl_sim::NegotiateStudy = serde_json::from_str(&text).unwrap();
        assert_eq!(study.runs, 1);
        let cell = study.cell("greedy", "reliable").expect("cell present");
        assert_eq!(cell.placements_match, 1);
        assert!(study.cell("auction", "chaos").is_some());
    }

    #[test]
    fn audit_sweep_and_injection_demo() {
        run(Command::Audit {
            seeds: 1,
            start: 0,
            inject: false,
            trace_out: None,
        })
        .unwrap();
        run(Command::Audit {
            seeds: 1,
            start: 0,
            inject: true,
            trace_out: None,
        })
        .unwrap();
    }

    // The obs enabled flag and sink are process-wide; tests that turn
    // the tracer on serialise here so they don't bleed into each other.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn plan_trace_out_writes_parseable_jsonl() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sys_path = tmp("trace-plan-system.json");
        let place_path = tmp("trace-plan-placement.json");
        let trace_path = tmp("trace-plan.jsonl");
        run(Command::Generate {
            seed: 3,
            scale: Scale::Small,
            topology: TopologyParams::origin(),
            out: sys_path.clone(),
        })
        .unwrap();
        run(Command::Plan {
            system: sys_path,
            storage: Some(0.5),
            processing: Some(0.8),
            central: None,
            alpha: (2.0, 1.0),
            ancestor: AncestorPolicy::Closest,
            threads: 0,
            out: place_path,
            trace_out: Some(trace_path.clone()),
        })
        .unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        // Flat JSONL: every line is one object with a record field.
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line {line}"
            );
            assert!(line.contains("\"record\":\""), "no record field in {line}");
        }
        assert!(text.lines().next().unwrap().contains("\"record\":\"meta\""));
        for stage in [
            "plan.total",
            "plan.partition",
            "plan.storage_restore",
            "plan.capacity_restore",
            "plan.offload",
        ] {
            assert!(
                text.contains(&format!("\"name\":\"{stage}\"")),
                "missing span {stage}"
            );
        }
        assert!(text.contains("\"record\":\"decision\""));
    }

    #[test]
    fn tree_plan_trace_records_the_selection_stage() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sys_path = tmp("trace-tree-system.json");
        let place_path = tmp("trace-tree-placement.json");
        let trace_path = tmp("trace-tree.jsonl");
        run(Command::Generate {
            seed: 3,
            scale: Scale::Small,
            topology: TopologyParams::edge(),
            out: sys_path.clone(),
        })
        .unwrap();
        run(Command::Plan {
            system: sys_path,
            storage: Some(0.7),
            processing: None,
            central: None,
            alpha: (2.0, 1.0),
            ancestor: AncestorPolicy::Closest,
            threads: 0,
            out: place_path,
            trace_out: Some(trace_path.clone()),
        })
        .unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(
            text.contains("\"name\":\"plan.select\""),
            "tree plans must trace the ancestor-selection stage"
        );
        assert!(text.contains("\"name\":\"plan.offload\""));
    }

    #[test]
    fn trace_subcommand_covers_plan_and_replay() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace_path = tmp("trace-subcommand.jsonl");
        run(Command::Trace {
            system: None,
            seed: 6,
            storage: Some(0.5),
            processing: Some(0.8),
            out: trace_path.clone(),
        })
        .unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(text.contains("\"name\":\"plan.total\""));
        assert!(text.contains("\"name\":\"replay.total\""));
        assert!(text.contains("\"name\":\"replay.response_s\""));
        assert!(text.contains("\"name\":\"replay.page_requests\""));
    }

    #[test]
    fn audit_inject_routes_divergence_into_trace() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let trace_path = tmp("trace-audit-inject.jsonl");
        run(Command::Audit {
            seeds: 1,
            start: 0,
            inject: true,
            trace_out: Some(trace_path.clone()),
        })
        .unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(
            text.contains("\"kind\":\"audit_divergence\""),
            "no divergence event in {text}"
        );
    }

    #[test]
    fn online_expose_writes_a_parseable_scrape_file() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = tmp("expose-online.json");
        let scrape = tmp("expose-online.prom");
        let _ = std::fs::remove_file(&scrape);
        run(Command::Online {
            epochs: 1,
            rotation: 0.5,
            windows: 2,
            budget: 0.25,
            runs: 1,
            seed: Some(7),
            paper: false,
            out,
            trace_out: None,
            expose: Some(scrape.to_string_lossy().into_owned()),
            scrape_interval: 0.05,
        })
        .unwrap();
        // The exporter flushes once more on stop, so even a run shorter
        // than the interval leaves a final scrape behind.
        let text = std::fs::read_to_string(&scrape).unwrap();
        for needle in [
            "# TYPE mmrepl_serve_route_requests_total counter",
            "mmrepl_serve_route_latency_s{quantile=\"0.99\"}",
            "mmrepl_negotiate_rounds_total",
            "mmrepl_slo_burn_rate{slo=\"serve.latency\",window=\"short\"}",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        mmrepl_obs::reset();
    }

    #[test]
    fn expose_rejects_an_empty_target() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let err = run(Command::Negotiate {
            central: 0.3,
            runs: 1,
            seed: None,
            paper: false,
            out: tmp("expose-bad.json"),
            trace_out: None,
            expose: Some(String::new()),
            scrape_interval: 1.0,
        })
        .unwrap_err();
        assert!(err.contains("--expose"), "{err}");
    }

    #[test]
    fn top_dumps_one_scrape_per_frame() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp("top-frames");
        let _ = std::fs::remove_dir_all(&dir);
        run(Command::Top {
            study: crate::args::StudyName::Route,
            refresh_ms: 50,
            frames: 2,
            dump: Some(dir.clone()),
            seed: Some(3),
        })
        .unwrap();
        for frame in 0..2 {
            let text = std::fs::read_to_string(dir.join(format!("scrape-{frame}.prom")))
                .unwrap_or_else(|e| panic!("frame {frame} missing: {e}"));
            assert!(text.contains("# TYPE"), "frame {frame} not exposition");
            assert!(
                text.contains("mmrepl_serve_route_requests_total"),
                "frame {frame} lacks the routing counter:\n{text}"
            );
        }
        mmrepl_obs::reset();
    }

    #[test]
    fn missing_files_are_reported() {
        let err = run(Command::Inspect {
            system: PathBuf::from("/nonexistent/system.json"),
        })
        .unwrap_err();
        assert!(err.contains("reading"), "{err}");
    }
}
