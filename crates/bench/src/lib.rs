#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every bin accepts the same flags:
//!
//! * `--quick` — run the milliseconds-scale workload (3 sites) instead of
//!   the full Table 1 scale; useful for smoke-testing the harness;
//! * `--runs N` — override the number of averaged runs (paper: 20);
//! * `--seed S` — override the base seed;
//! * `--out DIR` — where to write `<name>.json` and `<name>.txt`
//!   (default `results/`).

use mmrepl_sim::{ExperimentConfig, FigureData};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

/// The tracked baseline schema version. Bumped whenever the shape of
/// `BENCH_PLANNER.json` changes (6 = `negotiate_s` retired: stage 4 has
/// one protocol, timed inside `plan_s`).
pub const BENCH_SCHEMA: u32 = 6;

/// The whole tracked baseline document (`BENCH_PLANNER.json`). Written
/// by the `perfsuite` bin, amended in place by the `router` bin, and
/// compared by `scripts/bench_regress.sh`.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct BenchDoc {
    /// [`BENCH_SCHEMA`] at write time.
    pub schema: u32,
    /// Which suite produced the document.
    pub suite: String,
    /// Iterations each median was taken over.
    pub iters: usize,
    /// Human-readable provenance note.
    pub note: String,
    /// Whether the invariant-audit hooks were compiled into this run.
    /// Tracked baselines must be measured with auditing compiled out;
    /// `scripts/bench_regress.sh` fails if this is ever true.
    #[serde(default)]
    pub audit_hooks: bool,
    /// Per-scale timings, keyed `paper` / `10x` / `100x` (or `quick`).
    pub scales: BTreeMap<String, ScaleTimings>,
}

impl BenchDoc {
    /// Reads a baseline document from `path`.
    pub fn read(path: &Path) -> Result<Self, String> {
        let body = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        serde_json::from_str(&body).map_err(|e| format!("parsing {}: {e}", path.display()))
    }

    /// Writes the document to `path`, pretty-printed with a trailing
    /// newline (the committed-file convention).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut body = serde_json::to_string_pretty(self).expect("baseline serializes");
        body.push('\n');
        std::fs::write(path, body)
    }
}

/// Medians (seconds) for one workload scale. The `Option` metrics are
/// absent at the 100× scale, which runs the planner-only reduced set;
/// the `route_*` metrics are recorded by the `router` bin (paper and
/// 10× tiers) rather than `perfsuite`.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct ScaleTimings {
    /// Sites × objects, for the record.
    pub n_sites: usize,
    /// Objects at this scale.
    pub n_objects: usize,
    /// Full single-threaded `plan` on a storage+processing-constrained
    /// system (`plan_parallel(sys, 1)`).
    pub plan_s: f64,
    /// The same plan through the default sharded path (auto thread
    /// count); bit-identical output, wall time divided by the shards.
    #[serde(default)]
    pub plan_par_s: f64,
    /// Full single-threaded `plan` on the default (unconstrained)
    /// generated system — partition + state builds only, no restoration.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub plan_unconstrained_s: Option<f64>,
    /// Full single-threaded `plan` on the same constrained workload
    /// attached to an edge repository tree — ancestor selection,
    /// channel-parameterised partition and per-node off-loading included.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub plan_tree_s: Option<f64>,
    /// `restore_storage` summed over all sites, sequentially (state
    /// builds untimed).
    pub restore_storage_s: f64,
    /// `restore_storage` over all sites sharded across the pool at the
    /// auto thread count (state builds untimed).
    #[serde(default)]
    pub restore_storage_par_s: f64,
    /// `restore_capacity` summed over all sites, on storage-restored
    /// state.
    pub restore_capacity_s: f64,
    /// One end-to-end Figure 1 cell: workload + trace generation, every
    /// policy planned and replayed at a single storage fraction.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fig1_cell_s: Option<f64>,
    /// Streaming rate-estimator ingest of one full trace (every site)
    /// plus the per-site window closes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub estimator_ingest_s: Option<f64>,
    /// Single-dirty-site incremental replan on drifted estimates, warm-
    /// started from the cached partition — the latency the controller
    /// pays per localized drift reaction (the cold plan is `plan_s`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub delta_replan_s: Option<f64>,
    /// Snapshot routing throughput in millions of routed requests per
    /// second across the pool (the `router` bin; higher is better —
    /// `scripts/bench_regress.sh` inverts the comparison for `_mreq_s`
    /// metrics).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub route_mreq_s: Option<f64>,
    /// Median per-request routing latency, microseconds.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub route_p50_us: Option<f64>,
    /// 99th-percentile per-request routing latency, microseconds.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub route_p99_us: Option<f64>,
    /// 99.9th-percentile per-request routing latency, microseconds.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub route_p999_us: Option<f64>,
    /// Disabled-tracer cost of one full plan as a fraction of `plan_s`:
    /// the number of obs calls a traced plan records, times the measured
    /// per-call cost when tracing is off (a single relaxed atomic load).
    /// `scripts/bench_regress.sh` fails if this exceeds 2%.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub obs_overhead: Option<f64>,
    /// Disabled-telemetry cost of one full routed trace as a fraction of
    /// the untraced routing time: the number of recording calls the
    /// merged recorder counts for one traced routing pass, times the
    /// measured per-call cost of `obs::add` when recording is off (a
    /// single relaxed atomic load).
    /// `scripts/bench_regress.sh` fails if this exceeds 2%.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub telemetry_overhead: Option<f64>,
    /// Worker-thread count each parallel metric actually ran with
    /// (resolved through `effective_threads`, so the machine's core
    /// count is baked in). Thread-count mismatches make timings
    /// incomparable, so `scripts/bench_regress.sh` refuses baselines
    /// whose counts differ from the candidate run's.
    #[serde(default)]
    pub threads: BTreeMap<String, usize>,
}

/// Parsed command-line options.
#[derive(Clone, Debug, PartialEq)]
pub struct BinArgs {
    /// Experiment configuration (paper or quick scale).
    pub config: ExperimentConfig,
    /// Output directory.
    pub out_dir: PathBuf,
    /// Values of bin-specific flags registered via
    /// [`BinArgs::parse_with_extras`], keyed without the `--` prefix.
    pub extras: HashMap<String, String>,
}

impl BinArgs {
    /// Parses `std::env::args`-style arguments.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        Self::parse_with_extras(args, &[])
    }

    /// Parses the shared flags plus a bin-specific set of extra
    /// `--name value` flags (names without the `--` prefix); their values
    /// land in [`BinArgs::extras`].
    pub fn parse_with_extras(
        args: impl Iterator<Item = String>,
        extra_flags: &[&str],
    ) -> Result<Self, String> {
        let mut quick = false;
        let mut runs: Option<usize> = None;
        let mut seed: Option<u64> = None;
        let mut out_dir = PathBuf::from("results");
        let mut extras = HashMap::new();
        let mut it = args.peekable();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--runs" => {
                    let v = it.next().ok_or("--runs needs a value")?;
                    runs = Some(v.parse().map_err(|e| format!("--runs: {e}"))?);
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    seed = Some(v.parse().map_err(|e| format!("--seed: {e}"))?);
                }
                "--out" => {
                    out_dir = PathBuf::from(it.next().ok_or("--out needs a value")?);
                }
                "--help" | "-h" => {
                    let mut usage =
                        "usage: [--quick] [--runs N] [--seed S] [--out DIR]".to_string();
                    for f in extra_flags {
                        usage.push_str(&format!(" [--{f} V]"));
                    }
                    return Err(usage);
                }
                other => match other.strip_prefix("--") {
                    Some(name) if extra_flags.contains(&name) => {
                        let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                        if extras.insert(name.to_string(), v).is_some() {
                            return Err(format!("duplicate option --{name}"));
                        }
                    }
                    _ => return Err(format!("unknown argument {other:?}")),
                },
            }
        }
        let mut config = if quick {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::paper()
        };
        if let Some(r) = runs {
            config.runs = r.max(1);
        }
        if let Some(s) = seed {
            config.base_seed = s;
        }
        Ok(BinArgs {
            config,
            out_dir,
            extras,
        })
    }

    /// An extra flag's value parsed as `T`, or `default` when absent.
    pub fn extra_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.extras.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
        }
    }

    /// Parses the process arguments, exiting with the usage string on
    /// error.
    pub fn from_env() -> Self {
        Self::from_env_with_extras(&[])
    }

    /// Like [`BinArgs::from_env`] but registering bin-specific flags.
    pub fn from_env_with_extras(extra_flags: &[&str]) -> Self {
        match Self::parse_with_extras(std::env::args().skip(1), extra_flags) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
}

/// Writes a figure as both JSON and a text table under `out_dir`, and
/// echoes the table to stdout.
pub fn emit_figure(out_dir: &Path, fig: &FigureData) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let table = fig.to_table();
    print!("{table}");
    std::fs::write(out_dir.join(format!("{}.txt", fig.name)), &table)?;
    std::fs::write(
        out_dir.join(format!("{}.json", fig.name)),
        serde_json::to_string_pretty(fig).expect("figure serializes"),
    )?;
    Ok(())
}

/// The storage sweep fractions for Figure 1 (the paper ticks 0-100 % and
/// calls out 65 % as the LRU-matching point).
pub fn storage_fractions() -> Vec<f64> {
    vec![0.2, 0.4, 0.6, 0.65, 0.8, 1.0]
}

/// Figure 2/3 processing fractions.
pub fn processing_fractions() -> Vec<f64> {
    vec![0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
}

/// Figure 3 central-capacity fractions (90 %, 70 %, 50 %).
pub fn central_fractions() -> Vec<f64> {
    vec![0.9, 0.7, 0.5]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<BinArgs, String> {
        BinArgs::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_is_paper_scale() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.config.runs, 20);
        assert_eq!(a.config.params.n_sites, 10);
        assert_eq!(a.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn quick_flag_switches_workload() {
        let a = parse(&["--quick"]).unwrap();
        assert_eq!(a.config.params.n_sites, 3);
    }

    #[test]
    fn runs_seed_and_out_overrides() {
        let a = parse(&["--runs", "5", "--seed", "99", "--out", "/tmp/x"]).unwrap();
        assert_eq!(a.config.runs, 5);
        assert_eq!(a.config.base_seed, 99);
        assert_eq!(a.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn zero_runs_clamped_to_one() {
        let a = parse(&["--runs", "0"]).unwrap();
        assert_eq!(a.config.runs, 1);
    }

    #[test]
    fn extra_flags_are_collected_and_typed() {
        let a = BinArgs::parse_with_extras(
            ["--quick", "--epochs", "6", "--rotation", "0.8"]
                .iter()
                .map(|s| s.to_string()),
            &["epochs", "rotation"],
        )
        .unwrap();
        assert_eq!(a.extra_or("epochs", 4usize).unwrap(), 6);
        assert_eq!(a.extra_or("rotation", 0.5f64).unwrap(), 0.8);
        // Absent flag falls back to the default.
        assert_eq!(a.extra_or("windows", 4usize).unwrap(), 4);
        // Unregistered flags still rejected; malformed values surface.
        assert!(
            BinArgs::parse_with_extras(["--epochs", "6"].iter().map(|s| s.to_string()), &[])
                .is_err()
        );
        let bad = BinArgs::parse_with_extras(
            ["--epochs", "x"].iter().map(|s| s.to_string()),
            &["epochs"],
        )
        .unwrap();
        assert!(bad.extra_or("epochs", 4usize).is_err());
    }

    #[test]
    fn rejects_unknown_and_missing_values() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--runs"]).is_err());
        assert!(parse(&["--runs", "abc"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn sweep_fraction_sets_are_sane() {
        for f in storage_fractions()
            .into_iter()
            .chain(processing_fractions())
            .chain(central_fractions())
        {
            assert!((0.0..=1.0).contains(&f));
        }
        assert!(storage_fractions().contains(&0.65)); // the headline point
        assert_eq!(central_fractions(), vec![0.9, 0.7, 0.5]);
    }
}
