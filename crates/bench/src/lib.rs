#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The tracked performance baseline (`BENCH_PLANNER.json`) shared by the
//! `perfsuite` and `router` bins and `scripts/bench_regress.sh`. The
//! paper's tables and figures are regenerated by `mmrepl study NAME`.

use std::collections::BTreeMap;
use std::path::Path;

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
    /// Whether the invariant-audit hooks were compiled into this run
    /// (any build with debug assertions on). Tracked baselines must be
    /// measured in release builds, with auditing compiled out;
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
