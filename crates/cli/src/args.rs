//! Argument parsing for the `mmrepl` binary — plain `std`, no external
//! parser, so the CLI stays within the workspace's dependency policy.

use mmrepl_core::AncestorPolicy;
use mmrepl_workload::TopologyParams;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;

/// Top-level usage text.
pub const USAGE: &str = "\
usage: mmrepl <command> [options]

commands:
  generate   --seed N [--scale small|paper] [--out FILE]
             [--topology origin|edge|regional] [--levels N] [--fanout N]
             [--node-capacity F|inf] [--qos-prob F]
             Generate a synthetic Table-1 workload and write it as JSON.
             --topology picks a repository-tree preset (origin = the
             paper's star); --levels/--fanout/--node-capacity/--qos-prob
             override individual preset knobs.
  inspect    --system FILE
             Print a summary of a system: sites, pages, demands, loads.
  plan       --system FILE [--storage F] [--processing F] [--central F]
             [--alpha1 A] [--alpha2 B] [--ancestor closest|flat]
             [--threads N] [--out FILE] [--trace-out FILE]
             Run the replication policy; print the stage report and write
             the placement as JSON. --ancestor picks the serving node per
             site on tree systems (closest = attach node with capacity
             promotion, flat = always the origin); star systems ignore it.
             --threads caps the planner's worker threads (partition,
             restorations, off-loading absorptions; 0 = one per core, the
             default); the placement is bit-identical at any thread count.
  evaluate   --system FILE (--placement FILE | --policy ours|remote|local|lru)
             [--seed N] [--storage F] [--processing F]
             Replay the perturbed request trace and print response-time
             statistics.
  compare    --system FILE [--seed N] [--storage F] [--processing F]
             Replay every policy (ours, lru, gds, lfu, local, remote) on
             the same trace and print a comparison table.
  sweep      --figure 1|2|3 [--runs N] [--seed S] [--paper] [--out FILE]
             [--trace-out FILE]
             Regenerate one of the paper's figures (quick scale unless
             --paper) and write it as JSON.
  online     [--epochs N] [--rotation F] [--windows N] [--budget F]
             [--runs N] [--seed S] [--paper] [--out FILE] [--trace-out FILE]
             [--expose ADDR|FILE] [--scrape-interval S]
             Run the E-X5 online-controller study: stale plan vs per-epoch
             full replan vs the streaming estimate/detect/delta-replan
             controller vs LRU, on identical drift traces. --budget is the
             migration-byte budget per replan as a fraction of aggregate
             site storage (0 = unlimited).
  federate   [--preset edge|regional] [--runs N] [--seed S] [--paper]
             [--out FILE] [--trace-out FILE]
             Run the E-X6 federated-tree study: closest ancestor
             allocation vs the flat root-only policy vs LRU on identical
             traces, remote streams priced over per-link bandwidth and
             latency.
  negotiate  [--central F] [--runs N] [--seed S] [--paper] [--out FILE]
             [--trace-out FILE] [--expose ADDR|FILE] [--scrape-interval S]
             Run the E-X7 control-plane negotiation study: the
             asynchronous proposal/counter-proposal off-loading protocol
             under every strategy (greedy, deadline, auction) × fault
             scenario (reliable, lossy, chaos) grid cell, reporting
             protocol cost, resilience counters and placement agreement
             with the default plan. --central squeezes the
             repository to that fraction of its capacity (default 0.3).
  route      --system FILE [--placement FILE] [--seed N] [--storage F]
             [--processing F] [--threads N] [--out FILE]
             [--expose ADDR|FILE] [--scrape-interval S]
             Plan the system (or load a --placement file), freeze the
             result into an immutable serving snapshot and route the
             generated request trace through it; print the
             local/peer/repository split, the estimated served latency
             and the misroute count (cross-checked in debug builds),
             and write the routing stats as JSON to --out.
  audit      [--seeds N] [--start S] [--inject] [--trace-out FILE]
             Run the three differential oracles (dense planner vs naive
             reference, unbounded delta-replan vs cold plan, the
             event-driven replay oracle vs the Eq. 5 analytic
             prediction) over N deterministic seeds; failures are
             minimized and printed. --inject instead
             corrupts a site's incremental bookkeeping on purpose and
             shows the invariant auditor's divergence report.
  trace      [--system FILE] [--seed N] [--storage F] [--processing F]
             [--out FILE]
             Plan a system (loaded from --system, or generated small-scale
             from --seed) and replay its perturbed trace with FIFO
             queueing waits charged and structured tracing enabled;
             print the request count, mean response and mean site wait
             and the per-stage breakdown table, and write the full trace
             (spans, counters, histograms, decision provenance, events)
             as JSON Lines to --out (default trace.jsonl).
  top        [--study online|route|negotiate] [--refresh MS] [--frames N]
             [--dump DIR] [--seed S]
             Run a quick study on a background thread and render a live
             telemetry dashboard from the in-process registry while it
             executes: routing throughput, latency quantiles, epoch
             swaps, negotiation counters, migration-queue depth and SLO
             burn-rate alerts. --refresh is the frame period in
             milliseconds (default 500, floor 50); --frames sets a
             minimum frame count; --dump writes each frame's Prometheus
             scrape to DIR/scrape-N.prom.

Fractions F scale the derived 100% points (full storage demand /
all-local load / all-remote load), exactly like the paper's sweeps; F
must be >= 0, and inf means unbounded. The objective weights A and B
must be finite and >= 0. A subcommand rejects options it does not read.

--trace-out FILE enables the same structured tracer around the planner /
experiment run and writes its trace as JSON Lines to FILE.

--expose ADDR|FILE starts the live telemetry exporter for the run:
host:port serves Prometheus text exposition at /metrics over HTTP, any
other value is a file path rewritten atomically every --scrape-interval
seconds (default 1).";

/// A typed argument-parsing failure.
///
/// `main` maps `Help` to the usage text on stdout (exit 0) and everything
/// else to `{error}\n\n{USAGE}` on stderr (exit 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The user asked for help (`--help`, `-h`, `help`).
    Help,
    /// The first word was not a known subcommand.
    UnknownCommand(String),
    /// A known subcommand was given malformed options.
    Invalid(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Help => write!(f, "help requested"),
            ParseError::UnknownCommand(cmd) => write!(f, "unknown command {cmd:?}"),
            ParseError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<String> for ParseError {
    fn from(msg: String) -> Self {
        ParseError::Invalid(msg)
    }
}

impl From<&str> for ParseError {
    fn from(msg: &str) -> Self {
        ParseError::Invalid(msg.to_string())
    }
}

/// Workload scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 3 sites, runs in milliseconds.
    Small,
    /// The full Table 1 configuration.
    Paper,
}

/// Which study `mmrepl top` drives in the background.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StudyName {
    /// The E-X5 online-controller study.
    Online,
    /// Snapshot routing in a loop.
    Route,
    /// The E-X7 negotiation study.
    Negotiate,
}

impl fmt::Display for StudyName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StudyName::Online => "online",
            StudyName::Route => "route",
            StudyName::Negotiate => "negotiate",
        })
    }
}

/// Which policy `evaluate` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyName {
    /// The paper's policy, planned fresh.
    Ours,
    /// All objects from the repository.
    Remote,
    /// All objects local.
    Local,
    /// The ideal LRU cache.
    Lru,
}

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `mmrepl generate`.
    Generate {
        /// RNG seed.
        seed: u64,
        /// Workload scale.
        scale: Scale,
        /// Repository-tree preset plus any per-knob overrides
        /// (`levels == 1` keeps the paper's star).
        topology: TopologyParams,
        /// Output path (default `system.json`).
        out: PathBuf,
    },
    /// `mmrepl inspect`.
    Inspect {
        /// System JSON path.
        system: PathBuf,
    },
    /// `mmrepl plan`.
    Plan {
        /// System JSON path.
        system: PathBuf,
        /// Storage fraction (`None` = leave as stored in the file).
        storage: Option<f64>,
        /// Processing-capacity fraction.
        processing: Option<f64>,
        /// Central-capacity fraction (of the all-remote load).
        central: Option<f64>,
        /// Objective weights.
        alpha: (f64, f64),
        /// Ancestor-selection policy for tree systems (ignored on stars).
        ancestor: AncestorPolicy,
        /// Restoration worker-thread cap (`0` = one per core). The
        /// placement is bit-identical at any value.
        threads: usize,
        /// Output path (default `placement.json`).
        out: PathBuf,
        /// Structured-trace JSONL path (`None` = tracing stays off).
        trace_out: Option<PathBuf>,
    },
    /// `mmrepl compare`.
    Compare {
        /// System JSON path.
        system: PathBuf,
        /// Trace seed.
        seed: u64,
        /// Storage fraction override.
        storage: Option<f64>,
        /// Processing fraction override.
        processing: Option<f64>,
    },
    /// `mmrepl sweep`.
    Sweep {
        /// Which figure (1, 2 or 3).
        figure: u8,
        /// Runs to average.
        runs: usize,
        /// Base seed.
        seed: u64,
        /// Full Table 1 scale instead of the quick workload.
        paper: bool,
        /// Output JSON path.
        out: PathBuf,
        /// Structured-trace JSONL path (`None` = tracing stays off).
        trace_out: Option<PathBuf>,
    },
    /// `mmrepl online`.
    Online {
        /// Drift epochs after the planning epoch.
        epochs: usize,
        /// Hot-set rotation per epoch.
        rotation: f64,
        /// Estimation windows per epoch.
        windows: usize,
        /// Churn budget per replan as a fraction of aggregate site
        /// storage (`0` = unlimited).
        budget: f64,
        /// Runs to average.
        runs: usize,
        /// Base seed (`None` = the experiment config's default).
        seed: Option<u64>,
        /// Full Table 1 scale instead of the quick workload.
        paper: bool,
        /// Output JSON path.
        out: PathBuf,
        /// Structured-trace JSONL path (`None` = tracing stays off).
        trace_out: Option<PathBuf>,
        /// Telemetry exporter target (`host:port` or a scrape-file
        /// path; `None` = exporter stays off).
        expose: Option<String>,
        /// Seconds between exporter flushes.
        scrape_interval: f64,
    },
    /// `mmrepl federate`.
    Federate {
        /// Tree preset the study runs on.
        preset: TopologyParams,
        /// Runs to average.
        runs: usize,
        /// Base seed (`None` = the experiment config's default).
        seed: Option<u64>,
        /// Full Table 1 scale instead of the quick workload.
        paper: bool,
        /// Output JSON path.
        out: PathBuf,
        /// Structured-trace JSONL path (`None` = tracing stays off).
        trace_out: Option<PathBuf>,
    },
    /// `mmrepl negotiate`.
    Negotiate {
        /// Repository capacity fraction the runs are squeezed to.
        central: f64,
        /// Runs to average per grid cell.
        runs: usize,
        /// Base seed (`None` = the experiment config's default).
        seed: Option<u64>,
        /// Full Table 1 scale instead of the quick workload.
        paper: bool,
        /// Output JSON path.
        out: PathBuf,
        /// Structured-trace JSONL path (`None` = tracing stays off).
        trace_out: Option<PathBuf>,
        /// Telemetry exporter target (`host:port` or a scrape-file
        /// path; `None` = exporter stays off).
        expose: Option<String>,
        /// Seconds between exporter flushes.
        scrape_interval: f64,
    },
    /// `mmrepl audit`.
    Audit {
        /// Seeds to sweep.
        seeds: u64,
        /// First seed.
        start: u64,
        /// Demonstrate the auditor on an injected bookkeeping bug
        /// instead of fuzzing.
        inject: bool,
        /// Structured-trace JSONL path (`None` = tracing stays off).
        trace_out: Option<PathBuf>,
    },
    /// `mmrepl trace`.
    Trace {
        /// System JSON path (`None` = generate a small system from
        /// `seed`).
        system: Option<PathBuf>,
        /// Seed for generation and the replayed request trace.
        seed: u64,
        /// Storage fraction override.
        storage: Option<f64>,
        /// Processing fraction override.
        processing: Option<f64>,
        /// Trace JSONL output path (default `trace.jsonl`).
        out: PathBuf,
    },
    /// `mmrepl route`.
    Route {
        /// System JSON path.
        system: PathBuf,
        /// Placement JSON path (`None` = plan the system fresh).
        placement: Option<PathBuf>,
        /// Trace seed.
        seed: u64,
        /// Storage fraction override.
        storage: Option<f64>,
        /// Processing fraction override.
        processing: Option<f64>,
        /// Routing worker-thread cap (`0` = one per core). The stats
        /// are bit-identical at any value.
        threads: usize,
        /// Routing-stats JSON output path (`None` = print only).
        out: Option<PathBuf>,
        /// Telemetry exporter target (`host:port` or a scrape-file
        /// path; `None` = exporter stays off).
        expose: Option<String>,
        /// Seconds between exporter flushes.
        scrape_interval: f64,
    },
    /// `mmrepl evaluate`.
    Evaluate {
        /// System JSON path.
        system: PathBuf,
        /// Placement JSON path (mutually exclusive with `policy`).
        placement: Option<PathBuf>,
        /// Named policy (mutually exclusive with `placement`).
        policy: Option<PolicyName>,
        /// Trace seed.
        seed: u64,
        /// Storage fraction override.
        storage: Option<f64>,
        /// Processing fraction override.
        processing: Option<f64>,
    },
    /// `mmrepl top`.
    Top {
        /// Which study the dashboard drives.
        study: StudyName,
        /// Frame period in milliseconds.
        refresh_ms: u64,
        /// Minimum number of frames to render.
        frames: usize,
        /// Directory receiving one `scrape-N.prom` file per frame
        /// (`None` = render only).
        dump: Option<PathBuf>,
        /// Base seed (`None` = the study's default).
        seed: Option<u64>,
    },
}

impl Command {
    /// Parses an argv slice (without the program name).
    pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
        let (cmd, rest) = argv.split_first().ok_or("missing command")?;
        // Every `take` consumes its key; whatever is left once the
        // subcommand is built is an option it does not read.
        let opts = RefCell::new(parse_options(rest)?);
        let take = |key: &str| opts.borrow_mut().remove(key);
        let take_f64 = |key: &str| -> Result<Option<f64>, String> {
            take(key)
                .map(|v| v.parse::<f64>().map_err(|e| format!("--{key}: {e}")))
                .transpose()
        };
        // Fractions and weights must be non-negative numbers; a fraction
        // may be `inf` (unbounded), a weight must be finite.
        let take_nonneg = |key: &str, allow_inf: bool| -> Result<Option<f64>, String> {
            let v = take_f64(key)?;
            match v {
                Some(x) if x.is_nan() || x < 0.0 || (x.is_infinite() && !allow_inf) => {
                    let what = if allow_inf {
                        "a number >= 0"
                    } else {
                        "a finite number >= 0"
                    };
                    Err(format!("--{key} must be {what}, got {x}"))
                }
                _ => Ok(v),
            }
        };
        let take_fraction = |key: &str| take_nonneg(key, true);
        let take_u64 = |key: &str, default: u64| -> Result<u64, String> {
            Ok(take(key)
                .map(|v| v.parse::<u64>().map_err(|e| format!("--{key}: {e}")))
                .transpose()?
                .unwrap_or(default))
        };
        let take_usize = |key: &str, default: usize| -> Result<usize, String> {
            Ok(take(key)
                .map(|v| v.parse::<usize>().map_err(|e| format!("--{key}: {e}")))
                .transpose()?
                .unwrap_or(default))
        };
        let require_path = |key: &str| -> Result<PathBuf, String> {
            take(key)
                .map(PathBuf::from)
                .ok_or_else(|| format!("missing required --{key}"))
        };
        let take_scrape_interval = || -> Result<f64, String> {
            let v = take_f64("scrape-interval")?.unwrap_or(1.0);
            if !(v > 0.0 && std::time::Duration::try_from_secs_f64(v).is_ok()) {
                return Err(format!(
                    "--scrape-interval must be a positive number of seconds a timer can hold, got {v}"
                ));
            }
            Ok(v)
        };

        let command = match cmd.as_str() {
            "generate" => {
                let mut topology = match take("topology").as_deref() {
                    None | Some("origin") => TopologyParams::origin(),
                    Some("edge") => TopologyParams::edge(),
                    Some("regional") => TopologyParams::regional(),
                    Some(other) => {
                        return Err(format!(
                            "--topology must be origin, edge or regional, got {other:?}"
                        )
                        .into())
                    }
                };
                topology.levels = take_usize("levels", topology.levels)?;
                topology.fanout = take_usize("fanout", topology.fanout)?;
                if let Some(cap) = take_f64("node-capacity")? {
                    topology.node_capacity = cap;
                }
                if let Some(p) = take_f64("qos-prob")? {
                    topology.qos_prob = p;
                }
                topology.validate()?;
                Ok(Command::Generate {
                    seed: take_u64("seed", 0)?,
                    scale: match take("scale").as_deref() {
                        None | Some("small") => Scale::Small,
                        Some("paper") => Scale::Paper,
                        Some(other) => return Err(format!("unknown scale {other:?}").into()),
                    },
                    topology,
                    out: take("out")
                        .map(PathBuf::from)
                        .unwrap_or_else(|| PathBuf::from("system.json")),
                })
            }
            "inspect" => Ok(Command::Inspect {
                system: require_path("system")?,
            }),
            "plan" => Ok(Command::Plan {
                system: require_path("system")?,
                storage: take_fraction("storage")?,
                processing: take_fraction("processing")?,
                central: take_fraction("central")?,
                alpha: (
                    take_nonneg("alpha1", false)?.unwrap_or(2.0),
                    take_nonneg("alpha2", false)?.unwrap_or(1.0),
                ),
                ancestor: match take("ancestor").as_deref() {
                    None | Some("closest") => AncestorPolicy::Closest,
                    Some("flat") => AncestorPolicy::Flat,
                    Some(other) => {
                        return Err(
                            format!("--ancestor must be closest or flat, got {other:?}").into()
                        )
                    }
                },
                threads: take_usize("threads", 0)?,
                out: take("out")
                    .map(PathBuf::from)
                    .unwrap_or_else(|| PathBuf::from("placement.json")),
                trace_out: take("trace-out").map(PathBuf::from),
            }),
            "sweep" => {
                let figure: u8 = take("figure")
                    .ok_or("missing required --figure")?
                    .parse()
                    .map_err(|e| format!("--figure: {e}"))?;
                if !(1..=3).contains(&figure) {
                    return Err(format!("--figure must be 1, 2 or 3, got {figure}").into());
                }
                Ok(Command::Sweep {
                    figure,
                    runs: take("runs")
                        .map(|v| v.parse::<usize>().map_err(|e| format!("--runs: {e}")))
                        .transpose()?
                        .unwrap_or(3)
                        .max(1),
                    seed: take_u64("seed", 0)?,
                    paper: take("paper").is_some(),
                    out: take("out")
                        .map(PathBuf::from)
                        .unwrap_or_else(|| PathBuf::from("figure.json")),
                    trace_out: take("trace-out").map(PathBuf::from),
                })
            }
            "online" => {
                let rotation = take_f64("rotation")?.unwrap_or(0.5);
                if !(0.0..=1.0).contains(&rotation) {
                    return Err(format!("--rotation must be in [0, 1], got {rotation}").into());
                }
                let budget = take_f64("budget")?.unwrap_or(0.25);
                if !(0.0..=1.0).contains(&budget) {
                    return Err(format!("--budget must be in [0, 1], got {budget}").into());
                }
                Ok(Command::Online {
                    epochs: take_usize("epochs", 3)?.max(1),
                    rotation,
                    windows: take_usize("windows", 4)?.max(1),
                    budget,
                    runs: take_usize("runs", 3)?.max(1),
                    seed: take("seed")
                        .map(|v| v.parse::<u64>().map_err(|e| format!("--seed: {e}")))
                        .transpose()?,
                    paper: take("paper").is_some(),
                    out: take("out")
                        .map(PathBuf::from)
                        .unwrap_or_else(|| PathBuf::from("online.json")),
                    trace_out: take("trace-out").map(PathBuf::from),
                    expose: take("expose"),
                    scrape_interval: take_scrape_interval()?,
                })
            }
            "federate" => Ok(Command::Federate {
                preset: match take("preset").as_deref() {
                    None | Some("regional") => TopologyParams::regional(),
                    Some("edge") => TopologyParams::edge(),
                    Some(other) => {
                        return Err(
                            format!("--preset must be edge or regional, got {other:?}").into()
                        )
                    }
                },
                runs: take_usize("runs", 3)?.max(1),
                seed: take("seed")
                    .map(|v| v.parse::<u64>().map_err(|e| format!("--seed: {e}")))
                    .transpose()?,
                paper: take("paper").is_some(),
                out: take("out")
                    .map(PathBuf::from)
                    .unwrap_or_else(|| PathBuf::from("federate.json")),
                trace_out: take("trace-out").map(PathBuf::from),
            }),
            "negotiate" => {
                let central = take_f64("central")?.unwrap_or(0.3);
                if !(0.0..=1.0).contains(&central) {
                    return Err(format!("--central must be in [0, 1], got {central}").into());
                }
                Ok(Command::Negotiate {
                    central,
                    runs: take_usize("runs", 3)?.max(1),
                    seed: take("seed")
                        .map(|v| v.parse::<u64>().map_err(|e| format!("--seed: {e}")))
                        .transpose()?,
                    paper: take("paper").is_some(),
                    out: take("out")
                        .map(PathBuf::from)
                        .unwrap_or_else(|| PathBuf::from("negotiate.json")),
                    trace_out: take("trace-out").map(PathBuf::from),
                    expose: take("expose"),
                    scrape_interval: take_scrape_interval()?,
                })
            }
            "audit" => Ok(Command::Audit {
                seeds: take_u64("seeds", 16)?.max(1),
                start: take_u64("start", 0)?,
                inject: take("inject").is_some(),
                trace_out: take("trace-out").map(PathBuf::from),
            }),
            "trace" => Ok(Command::Trace {
                system: take("system").map(PathBuf::from),
                seed: take_u64("seed", 0)?,
                storage: take_fraction("storage")?,
                processing: take_fraction("processing")?,
                out: take("out")
                    .map(PathBuf::from)
                    .unwrap_or_else(|| PathBuf::from("trace.jsonl")),
            }),
            "compare" => Ok(Command::Compare {
                system: require_path("system")?,
                seed: take_u64("seed", 0)?,
                storage: take_fraction("storage")?,
                processing: take_fraction("processing")?,
            }),
            "route" => Ok(Command::Route {
                system: require_path("system")?,
                placement: take("placement").map(PathBuf::from),
                seed: take_u64("seed", 0)?,
                storage: take_fraction("storage")?,
                processing: take_fraction("processing")?,
                threads: take_usize("threads", 0)?,
                out: take("out").map(PathBuf::from),
                expose: take("expose"),
                scrape_interval: take_scrape_interval()?,
            }),
            "evaluate" => {
                let placement = take("placement").map(PathBuf::from);
                let policy = match take("policy").as_deref() {
                    None => None,
                    Some("ours") => Some(PolicyName::Ours),
                    Some("remote") => Some(PolicyName::Remote),
                    Some("local") => Some(PolicyName::Local),
                    Some("lru") => Some(PolicyName::Lru),
                    Some(other) => return Err(format!("unknown policy {other:?}").into()),
                };
                if placement.is_some() == policy.is_some() {
                    return Err("evaluate needs exactly one of --placement or --policy".into());
                }
                Ok(Command::Evaluate {
                    system: require_path("system")?,
                    placement,
                    policy,
                    seed: take_u64("seed", 0)?,
                    storage: take_fraction("storage")?,
                    processing: take_fraction("processing")?,
                })
            }
            "top" => Ok(Command::Top {
                study: match take("study").as_deref() {
                    None | Some("online") => StudyName::Online,
                    Some("route") => StudyName::Route,
                    Some("negotiate") => StudyName::Negotiate,
                    Some(other) => {
                        return Err(format!(
                            "--study must be online, route or negotiate, got {other:?}"
                        )
                        .into())
                    }
                },
                refresh_ms: take_u64("refresh", 500)?.max(50),
                frames: take_usize("frames", 0)?,
                dump: take("dump").map(PathBuf::from),
                seed: take("seed")
                    .map(|v| v.parse::<u64>().map_err(|e| format!("--seed: {e}")))
                    .transpose()?,
            }),
            "--help" | "-h" | "help" => Err(ParseError::Help),
            other => Err(ParseError::UnknownCommand(other.to_string())),
        }?;
        if let Some(key) = opts.borrow().keys().min() {
            return Err(ParseError::Invalid(format!("{cmd} does not take --{key}")));
        }
        Ok(command)
    }
}

/// Options that are bare flags (no value).
const BOOL_FLAGS: &[&str] = &["paper", "inject"];

/// Parses `--key value` pairs (and bare boolean flags), rejecting dangling
/// or duplicate keys. `--help` or `-h` anywhere asks for the usage text.
fn parse_options(rest: &[String]) -> Result<HashMap<String, String>, ParseError> {
    let mut opts = HashMap::new();
    let mut it = rest.iter();
    while let Some(key) = it.next() {
        if key == "--help" || key == "-h" {
            return Err(ParseError::Help);
        }
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected an option, got {key:?}"))?;
        let value = if BOOL_FLAGS.contains(&name) {
            "true".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone()
        };
        if opts.insert(name.to_string(), value).is_some() {
            return Err(format!("duplicate option --{name}").into());
        }
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Command, ParseError> {
        Command::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn generate_defaults() {
        let cmd = parse(&["generate"]).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                seed: 0,
                scale: Scale::Small,
                topology: TopologyParams::origin(),
                out: PathBuf::from("system.json"),
            }
        );
    }

    #[test]
    fn generate_with_options() {
        let cmd = parse(&[
            "generate", "--seed", "9", "--scale", "paper", "--out", "x.json",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                seed: 9,
                scale: Scale::Paper,
                topology: TopologyParams::origin(),
                out: PathBuf::from("x.json"),
            }
        );
    }

    #[test]
    fn generate_parses_topology_presets_and_overrides() {
        let Command::Generate { topology, .. } = parse(&[
            "generate",
            "--topology",
            "regional",
            "--fanout",
            "3",
            "--node-capacity",
            "12.5",
            "--qos-prob",
            "0.5",
        ])
        .unwrap() else {
            unreachable!("generate input parses to Command::Generate")
        };
        let mut want = TopologyParams::regional();
        want.fanout = 3;
        want.node_capacity = 12.5;
        want.qos_prob = 0.5;
        assert_eq!(topology, want);
        // `inf` lifts a preset's finite node capacity.
        let Command::Generate { topology, .. } =
            parse(&["generate", "--topology", "edge", "--node-capacity", "inf"]).unwrap()
        else {
            unreachable!("generate input parses to Command::Generate")
        };
        assert_eq!(topology.node_capacity, f64::INFINITY);
        // Overrides are validated at parse time.
        assert!(matches!(
            parse(&["generate", "--topology", "edge", "--fanout", "0"]),
            Err(ParseError::Invalid(_))
        ));
        assert!(matches!(
            parse(&["generate", "--topology", "galactic"]),
            Err(ParseError::Invalid(_))
        ));
    }

    #[test]
    fn plan_parses_fractions_and_weights() {
        let cmd = parse(&[
            "plan",
            "--system",
            "s.json",
            "--storage",
            "0.65",
            "--alpha1",
            "3",
        ])
        .unwrap();
        let Command::Plan {
            storage,
            processing,
            alpha,
            ancestor,
            threads,
            ..
        } = cmd
        else {
            unreachable!("plan input parses to Command::Plan")
        };
        assert_eq!(storage, Some(0.65));
        assert_eq!(processing, None);
        assert_eq!(alpha, (3.0, 1.0));
        assert_eq!(ancestor, AncestorPolicy::Closest);
        assert_eq!(threads, 0, "threads defaults to auto");
    }

    #[test]
    fn plan_parses_thread_cap() {
        let Command::Plan { threads, .. } =
            parse(&["plan", "--system", "s.json", "--threads", "4"]).unwrap()
        else {
            unreachable!("plan input parses to Command::Plan")
        };
        assert_eq!(threads, 4);
        assert!(matches!(
            parse(&["plan", "--system", "s.json", "--threads", "many"]),
            Err(ParseError::Invalid(_))
        ));
    }

    #[test]
    fn plan_parses_ancestor_policy() {
        let Command::Plan { ancestor, .. } =
            parse(&["plan", "--system", "s.json", "--ancestor", "flat"]).unwrap()
        else {
            unreachable!("plan input parses to Command::Plan")
        };
        assert_eq!(ancestor, AncestorPolicy::Flat);
        assert!(matches!(
            parse(&["plan", "--system", "s.json", "--ancestor", "random"]),
            Err(ParseError::Invalid(_))
        ));
    }

    #[test]
    fn federate_parses_and_defaults() {
        assert_eq!(
            parse(&["federate"]).unwrap(),
            Command::Federate {
                preset: TopologyParams::regional(),
                runs: 3,
                seed: None,
                paper: false,
                out: PathBuf::from("federate.json"),
                trace_out: None,
            }
        );
        assert_eq!(
            parse(&[
                "federate", "--preset", "edge", "--runs", "5", "--seed", "9", "--paper", "--out",
                "f.json",
            ])
            .unwrap(),
            Command::Federate {
                preset: TopologyParams::edge(),
                runs: 5,
                seed: Some(9),
                paper: true,
                out: PathBuf::from("f.json"),
                trace_out: None,
            }
        );
        assert!(matches!(
            parse(&["federate", "--preset", "mesh"]),
            Err(ParseError::Invalid(_))
        ));
    }

    #[test]
    fn route_parses_and_defaults() {
        assert_eq!(
            parse(&["route", "--system", "s.json"]).unwrap(),
            Command::Route {
                system: PathBuf::from("s.json"),
                placement: None,
                seed: 0,
                storage: None,
                processing: None,
                threads: 0,
                out: None,
                expose: None,
                scrape_interval: 1.0,
            }
        );
        assert_eq!(
            parse(&[
                "route",
                "--system",
                "s.json",
                "--placement",
                "p.json",
                "--seed",
                "7",
                "--threads",
                "4",
                "--out",
                "r.json",
            ])
            .unwrap(),
            Command::Route {
                system: PathBuf::from("s.json"),
                placement: Some(PathBuf::from("p.json")),
                seed: 7,
                storage: None,
                processing: None,
                threads: 4,
                out: Some(PathBuf::from("r.json")),
                expose: None,
                scrape_interval: 1.0,
            }
        );
        // --system is required.
        assert!(parse(&["route"]).is_err());
    }

    #[test]
    fn evaluate_requires_exactly_one_source() {
        assert!(parse(&["evaluate", "--system", "s.json"]).is_err());
        assert!(parse(&[
            "evaluate",
            "--system",
            "s.json",
            "--policy",
            "lru",
            "--placement",
            "p.json"
        ])
        .is_err());
        assert!(parse(&["evaluate", "--system", "s.json", "--policy", "lru"]).is_ok());
        assert!(parse(&["evaluate", "--system", "s.json", "--placement", "p.json"]).is_ok());
    }

    #[test]
    fn sweep_parses_and_validates() {
        let cmd = parse(&["sweep", "--figure", "2", "--runs", "5", "--paper"]).unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                figure: 2,
                runs: 5,
                seed: 0,
                paper: true,
                out: PathBuf::from("figure.json"),
                trace_out: None,
            }
        );
        assert!(parse(&["sweep", "--figure", "4"]).is_err());
        assert!(parse(&["sweep"]).is_err());
        // Default is quick scale, 3 runs.
        let cmd = parse(&["sweep", "--figure", "1"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Sweep {
                figure: 1,
                runs: 3,
                paper: false,
                ..
            }
        ));
    }

    #[test]
    fn online_parses_and_validates() {
        let cmd = parse(&[
            "online",
            "--epochs",
            "2",
            "--rotation",
            "0.8",
            "--windows",
            "6",
            "--budget",
            "0.1",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Online {
                epochs: 2,
                rotation: 0.8,
                windows: 6,
                budget: 0.1,
                runs: 3,
                seed: None,
                paper: false,
                out: PathBuf::from("online.json"),
                trace_out: None,
                expose: None,
                scrape_interval: 1.0,
            }
        );
        // Defaults.
        assert!(matches!(
            parse(&["online"]).unwrap(),
            Command::Online {
                epochs: 3,
                windows: 4,
                ..
            }
        ));
        assert!(parse(&["online", "--rotation", "1.5"]).is_err());
        assert!(parse(&["online", "--budget", "-0.1"]).is_err());
    }

    #[test]
    fn negotiate_parses_and_defaults() {
        assert_eq!(
            parse(&["negotiate"]).unwrap(),
            Command::Negotiate {
                central: 0.3,
                runs: 3,
                seed: None,
                paper: false,
                out: PathBuf::from("negotiate.json"),
                trace_out: None,
                expose: None,
                scrape_interval: 1.0,
            }
        );
        assert_eq!(
            parse(&[
                "negotiate",
                "--central",
                "0.1",
                "--runs",
                "5",
                "--seed",
                "9",
                "--paper",
                "--out",
                "n.json",
            ])
            .unwrap(),
            Command::Negotiate {
                central: 0.1,
                runs: 5,
                seed: Some(9),
                paper: true,
                out: PathBuf::from("n.json"),
                trace_out: None,
                expose: None,
                scrape_interval: 1.0,
            }
        );
        assert!(matches!(
            parse(&["negotiate", "--central", "1.5"]),
            Err(ParseError::Invalid(_))
        ));
    }

    #[test]
    fn audit_parses_and_defaults() {
        assert_eq!(
            parse(&["audit"]).unwrap(),
            Command::Audit {
                seeds: 16,
                start: 0,
                inject: false,
                trace_out: None,
            }
        );
        assert_eq!(
            parse(&["audit", "--seeds", "64", "--start", "100", "--inject"]).unwrap(),
            Command::Audit {
                seeds: 64,
                start: 100,
                inject: true,
                trace_out: None,
            }
        );
        // --seeds 0 is clamped to 1 so the sweep always runs something.
        assert!(matches!(
            parse(&["audit", "--seeds", "0"]).unwrap(),
            Command::Audit { seeds: 1, .. }
        ));
    }

    #[test]
    fn trace_parses_and_defaults() {
        assert_eq!(
            parse(&["trace"]).unwrap(),
            Command::Trace {
                system: None,
                seed: 0,
                storage: None,
                processing: None,
                out: PathBuf::from("trace.jsonl"),
            }
        );
        assert_eq!(
            parse(&[
                "trace",
                "--system",
                "s.json",
                "--seed",
                "7",
                "--storage",
                "0.5",
                "--out",
                "t.jsonl",
            ])
            .unwrap(),
            Command::Trace {
                system: Some(PathBuf::from("s.json")),
                seed: 7,
                storage: Some(0.5),
                processing: None,
                out: PathBuf::from("t.jsonl"),
            }
        );
    }

    #[test]
    fn trace_out_rides_along_on_plan_and_audit() {
        let Command::Plan { trace_out, .. } =
            parse(&["plan", "--system", "s.json", "--trace-out", "t.jsonl"]).unwrap()
        else {
            unreachable!("plan input parses to Command::Plan")
        };
        assert_eq!(trace_out, Some(PathBuf::from("t.jsonl")));
        let Command::Audit { trace_out, .. } =
            parse(&["audit", "--inject", "--trace-out", "t.jsonl"]).unwrap()
        else {
            unreachable!("audit input parses to Command::Audit")
        };
        assert_eq!(trace_out, Some(PathBuf::from("t.jsonl")));
        assert!(parse(&["plan", "--system", "s.json", "--trace-out"]).is_err());
    }

    #[test]
    fn top_parses_and_defaults() {
        assert_eq!(
            parse(&["top"]).unwrap(),
            Command::Top {
                study: StudyName::Online,
                refresh_ms: 500,
                frames: 0,
                dump: None,
                seed: None,
            }
        );
        assert_eq!(
            parse(&[
                "top",
                "--study",
                "negotiate",
                "--refresh",
                "200",
                "--frames",
                "3",
                "--dump",
                "frames",
                "--seed",
                "7",
            ])
            .unwrap(),
            Command::Top {
                study: StudyName::Negotiate,
                refresh_ms: 200,
                frames: 3,
                dump: Some(PathBuf::from("frames")),
                seed: Some(7),
            }
        );
        // The refresh period floors at 50 ms so the render loop never
        // busy-spins against the registry.
        assert!(matches!(
            parse(&["top", "--refresh", "1"]).unwrap(),
            Command::Top { refresh_ms: 50, .. }
        ));
        assert!(matches!(
            parse(&["top", "--study", "federate"]),
            Err(ParseError::Invalid(_))
        ));
    }

    #[test]
    fn expose_rides_along_on_online_route_and_negotiate() {
        let Command::Online {
            expose,
            scrape_interval,
            ..
        } = parse(&[
            "online",
            "--expose",
            "127.0.0.1:0",
            "--scrape-interval",
            "0.2",
        ])
        .unwrap()
        else {
            unreachable!("online input parses to Command::Online")
        };
        assert_eq!(expose.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(scrape_interval, 0.2);
        let Command::Route { expose, .. } =
            parse(&["route", "--system", "s.json", "--expose", "m.prom"]).unwrap()
        else {
            unreachable!("route input parses to Command::Route")
        };
        assert_eq!(expose.as_deref(), Some("m.prom"));
        let Command::Negotiate { expose, .. } =
            parse(&["negotiate", "--expose", "m.prom"]).unwrap()
        else {
            unreachable!("negotiate input parses to Command::Negotiate")
        };
        assert_eq!(expose.as_deref(), Some("m.prom"));
        // A non-positive flush period can never scrape.
        assert!(matches!(
            parse(&["online", "--scrape-interval", "0"]),
            Err(ParseError::Invalid(_))
        ));
        assert!(matches!(
            parse(&["online", "--scrape-interval", "-1"]),
            Err(ParseError::Invalid(_))
        ));
        // Nor can one no timer holds: a typed error, not a panic later.
        for huge in ["1e30", "inf", "NaN"] {
            assert!(
                matches!(
                    parse(&["route", "--system", "s.json", "--scrape-interval", huge]),
                    Err(ParseError::Invalid(_))
                ),
                "{huge}"
            );
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["generate", "stray"]).is_err());
        assert!(parse(&["generate", "--seed"]).is_err());
        assert!(parse(&["generate", "--seed", "1", "--seed", "2"]).is_err());
        assert!(parse(&["generate", "--scale", "huge"]).is_err());
        assert!(parse(&["evaluate", "--system", "s", "--policy", "apache"]).is_err());
        assert!(parse(&["inspect"]).is_err()); // missing --system
    }

    #[test]
    fn errors_are_typed() {
        assert_eq!(parse(&["--help"]), Err(ParseError::Help));
        assert_eq!(parse(&["-h"]), Err(ParseError::Help));
        assert_eq!(parse(&["help"]), Err(ParseError::Help));
        assert_eq!(
            parse(&["frobnicate"]),
            Err(ParseError::UnknownCommand("frobnicate".to_string()))
        );
        let err = parse(&["generate", "--seed"]).unwrap_err();
        assert!(matches!(err, ParseError::Invalid(_)));
        assert_eq!(err.to_string(), "--seed needs a value");
        assert_eq!(
            parse(&["frobnicate"]).unwrap_err().to_string(),
            "unknown command \"frobnicate\""
        );
    }

    #[test]
    fn rejects_options_the_subcommand_does_not_read() {
        let err = parse(&["plan", "--system", "s.json", "--storag", "0.5"]).unwrap_err();
        assert_eq!(
            err,
            ParseError::Invalid("plan does not take --storag".into())
        );
        // An option valid elsewhere is still foreign here.
        assert!(matches!(
            parse(&["inspect", "--system", "s.json", "--seed", "1"]),
            Err(ParseError::Invalid(msg)) if msg.contains("--seed")
        ));
        assert!(matches!(
            parse(&["audit", "--paper"]),
            Err(ParseError::Invalid(msg)) if msg.contains("--paper")
        ));
    }

    #[test]
    fn help_after_a_subcommand_asks_for_usage() {
        for words in [
            &["plan", "--help"][..],
            &["plan", "-h"],
            &["route", "--system", "s.json", "--help"],
            &["generate", "--seed", "1", "-h"],
        ] {
            assert_eq!(parse(words), Err(ParseError::Help), "{words:?}");
        }
    }

    #[test]
    fn rejects_bad_fractions_and_weights() {
        let invalid = |words: &[&str]| matches!(parse(words), Err(ParseError::Invalid(_)));
        for cmd in ["plan", "route", "compare", "evaluate", "trace"] {
            for flag in ["--storage", "--processing"] {
                for bad in ["nan", "-1", "-0.5", "-inf"] {
                    let mut words = vec![cmd, "--system", "s.json", flag, bad];
                    if cmd == "evaluate" {
                        words.extend(["--policy", "ours"]);
                    }
                    assert!(invalid(&words), "{words:?}");
                }
                // `inf` still means unbounded.
                let mut words = vec![cmd, "--system", "s.json", flag, "inf"];
                if cmd == "evaluate" {
                    words.extend(["--policy", "ours"]);
                }
                assert!(parse(&words).is_ok(), "{words:?}");
            }
        }
        for bad in ["nan", "-1"] {
            assert!(invalid(&["plan", "--system", "s.json", "--central", bad]));
        }
        for flag in ["--alpha1", "--alpha2"] {
            for bad in ["nan", "-1", "inf"] {
                assert!(invalid(&["plan", "--system", "s.json", flag, bad]));
            }
        }
        assert!(matches!(
            parse(&["plan", "--system", "s.json", "--alpha1", "0", "--central", "inf"]),
            Ok(Command::Plan { alpha: (a1, _), central: Some(c), .. }) if a1 == 0.0 && c.is_infinite()
        ));
    }
}
