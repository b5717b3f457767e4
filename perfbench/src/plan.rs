//! `cold-plan` and `offload-plan`: one `ReplicationPolicy::plan` call on
//! a squeezed 10x star, rebuilt stage by stage for the traced run.

use crate::trace::{busy_s, Scope, Span, Tracer};
use crate::{OpResult, Pair, Workload};
use mmrepl_baselines::StaticRouter;
use mmrepl_core::{
    effective_threads, parallel_map, partition_all, restore_capacity, restore_storage,
    run_negotiation, run_offload, CapacityReport, NegotiateConfig, OffloadReport, PlanOutcome,
    ReplicationPolicy, SiteWork, StorageReport,
};
use mmrepl_model::{
    ConstraintReport, CostModel, IdVec, PageId, PagePartition, Placement, ReqPerSec, SiteId, System,
};
use mmrepl_sim::replay_all;
use mmrepl_workload::{generate_system, generate_trace, TraceConfig, WorkloadParams};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Requests per site in the trace `download_ratio` replays plans on.
const DOWNLOAD_REQUESTS_PER_SITE: usize = 2_000;

/// The capacities a plan workload squeezes the generated system to.
#[derive(Clone, Copy)]
pub struct Squeeze {
    storage: f64,
    processing: f64,
    /// Repository capacity as a share of the load the plan with an
    /// unbounded repository puts on it (Figure 3's rule); `None` leaves
    /// the repository unbounded.
    repo_share: Option<f64>,
}

/// Storage and local capacity squeezed, repository unbounded: storage and
/// capacity restoration do the work, off-loading has nothing to do.
pub const COLD: Squeeze = Squeeze {
    storage: 0.5,
    processing: 0.5,
    repo_share: None,
};

/// Local capacity at the all-local load, so capacity restoration has
/// nothing to do, and the repository 10% short of what the restored plan
/// sends it: off-loading runs for rounds on every seed. A share of the
/// all-remote load instead would leave some seeds with nothing to
/// off-load and others infeasible.
pub const OFFLOAD: Squeeze = Squeeze {
    storage: 0.5,
    processing: 1.0,
    repo_share: Some(0.9),
};

/// The generated system at the workload's capacities.
fn squeezed(raw: &System, squeeze: Squeeze, repo_capacity: Option<ReqPerSec>) -> System {
    let sys = raw
        .with_storage_fraction(squeeze.storage)
        .with_processing_fraction(squeeze.processing);
    match repo_capacity {
        Some(cap) => sys.with_repository_capacity(cap),
        None => sys,
    }
}

pub struct PlanBench {
    params: WorkloadParams,
    seed: u64,
    raw: System,
    squeeze: Squeeze,
    repo_capacity: Option<ReqPerSec>,
    sys: System,
    policy: ReplicationPolicy,
    reference: Placement,
    last: Option<PlanOutcome>,
}

impl PlanBench {
    pub fn new(params: WorkloadParams, seed: u64, squeeze: Squeeze) -> Result<Self, String> {
        let raw = generate_system(&params, seed)?;
        let policy = ReplicationPolicy::new();
        let repo_capacity = squeeze.repo_share.map(|share| {
            let local = raw
                .with_storage_fraction(squeeze.storage)
                .with_processing_fraction(squeeze.processing);
            let induced = policy.plan(&local).placement.repo_load(&local);
            ReqPerSec(induced.get() * share)
        });
        let sys = squeezed(&raw, squeeze, repo_capacity);
        let reference = policy.plan_parallel(&sys, 1).placement;
        Ok(PlanBench {
            params,
            seed,
            raw,
            squeeze,
            repo_capacity,
            sys,
            policy,
            reference,
            last: None,
        })
    }

    fn check(&self, out: &PlanOutcome) -> Option<String> {
        let independent = ConstraintReport::check(&self.sys, &out.placement);
        if !out.report.feasible {
            Some("plan reports infeasible".into())
        } else if !independent.is_feasible() {
            Some(format!(
                "plan claims feasible, ConstraintReport finds {:?}",
                independent.violations
            ))
        } else if out.placement != self.reference {
            Some("placement differs from the single-threaded reference plan".into())
        } else {
            None
        }
    }

    fn timed_plan(&self) -> (PlanOutcome, f64) {
        let t = Instant::now();
        let out = black_box(self.policy.plan(black_box(&self.sys)));
        (out, t.elapsed().as_secs_f64())
    }
}

/// What the rebuilt plan produces: every field of `PlanReport` a star
/// plan fills, plus the placement.
#[derive(Debug, PartialEq)]
struct Rebuilt {
    placement: Placement,
    storage: Vec<StorageReport>,
    capacity: Vec<CapacityReport>,
    offload: OffloadReport,
    feasible: bool,
    objective_bits: u64,
}

impl Rebuilt {
    fn of(out: &PlanOutcome) -> Self {
        Rebuilt {
            placement: out.placement.clone(),
            storage: out.report.storage.clone(),
            capacity: out.report.capacity.clone(),
            offload: out.report.offload,
            feasible: out.report.feasible,
            objective_bits: out.report.objective.to_bits(),
        }
    }
}

/// Restores every site's storage and capacity from the unconstrained
/// partition, on the auto thread count, in site-id order.
fn restore_sites<'a>(
    sys: &'a System,
    initial: &Placement,
    policy: &ReplicationPolicy,
    sc: Scope<'_>,
) -> Vec<(SiteWork<'a>, StorageReport, CapacityReport)> {
    let cost = policy.config().cost;
    let sites: Vec<SiteId> = sys.sites().ids().collect();
    parallel_map(sites.len(), 0, |i| {
        sc.span("core.site", |site| {
            let mut w = site.span("core.state_build", |_| {
                SiteWork::new(sys, sites[i], initial, cost)
            });
            let st = site.span("core.storage", |_| restore_storage(&mut w));
            let cap = site.span("core.capacity", |_| restore_capacity(&mut w));
            (w, st, cap)
        })
    })
}

fn assemble(sys: &System, works: Vec<SiteWork<'_>>) -> Placement {
    let mut rows: Vec<Option<PagePartition>> = vec![None; sys.n_pages()];
    for work in works {
        for (pid, part) in work.into_partitions() {
            rows[pid.index()] = Some(part);
        }
    }
    let partitions: IdVec<PageId, PagePartition> = rows
        .into_iter()
        .map(|r| r.expect("every page belongs to exactly one site"))
        .collect();
    Placement::new(sys, partitions).expect("plan shapes are consistent")
}

/// `ReplicationPolicy::plan` on a star system, rebuilt from the stages'
/// public functions in the planner's order.
fn rebuilt_plan(sys: &System, policy: &ReplicationPolicy, sc: Scope<'_>) -> Rebuilt {
    sc.span("op", |op| {
        let initial = op.span("core.partition", |_| partition_all(sys));
        let per_site = op.span("core.per_site", |ps| {
            restore_sites(sys, &initial, policy, ps)
        });
        let mut works = Vec::with_capacity(per_site.len());
        let mut storage = Vec::with_capacity(per_site.len());
        let mut capacity = Vec::with_capacity(per_site.len());
        for (w, st, cap) in per_site {
            works.push(w);
            storage.push(st);
            capacity.push(cap);
        }
        let offload = op.span("core.offload", |_| {
            run_offload(
                &mut works,
                sys.repository().capacity.get(),
                &policy.config().offload,
            )
        });
        let placement = op.span("core.assemble", |_| assemble(sys, works));
        let (feasible, objective) = op.span("model.check", |_| {
            let check = ConstraintReport::check(sys, &placement);
            let cm = CostModel::new(sys, policy.config().cost);
            (check.is_feasible(), cm.objective(&placement))
        });
        Rebuilt {
            placement,
            storage,
            capacity,
            offload: offload.report,
            feasible,
            objective_bits: objective.to_bits(),
        }
    })
}

/// Slowest site over fastest, by each site's restore wall time.
fn imbalance(spans: &[Span]) -> f64 {
    let sites = spans.iter().filter(|s| s.name == "core.site");
    let (lo, hi) = sites.fold((u64::MAX, 0), |(lo, hi), s| {
        (lo.min(s.dur_ns()), hi.max(s.dur_ns()))
    });
    hi as f64 / lo.max(1) as f64
}

impl Workload for PlanBench {
    fn threads(&self) -> BTreeMap<String, usize> {
        BTreeMap::from([(
            "planner".to_string(),
            effective_threads(0, self.sys.n_sites()),
        )])
    }

    fn set_up(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        self.sys = squeezed(&self.raw, self.squeeze, self.repo_capacity);
        let out = self.policy.plan(&self.sys);
        let secs = t.elapsed().as_secs_f64();
        match self.check(&out) {
            Some(why) => Err(why),
            None => Ok(secs),
        }
    }

    fn op(&mut self) -> OpResult {
        let (out, secs) = self.timed_plan();
        let failure = self.check(&out);
        self.last = Some(out);
        OpResult { secs, failure }
    }

    fn traced_pair(&mut self, traced_first: bool) -> Result<Pair, String> {
        let tracer = Tracer::new();
        let traced = || {
            let t = Instant::now();
            let r = rebuilt_plan(&self.sys, &self.policy, Scope::root(&tracer));
            (r, t.elapsed().as_secs_f64())
        };
        let ((out, untraced_s), (rebuilt, traced_s)) = if traced_first {
            let tr = traced();
            (self.timed_plan(), tr)
        } else {
            let un = self.timed_plan();
            (un, traced())
        };
        if rebuilt != Rebuilt::of(&out) {
            return Err("rebuilt plan differs from ReplicationPolicy::plan".into());
        }
        let failure = self.check(&out);

        // Stage 4 as the negotiation protocol, on a second restored copy
        // of the state (`SiteWork` is not `Clone`), built off the clock.
        let initial = partition_all(&self.sys);
        let mut works: Vec<SiteWork<'_>> =
            restore_sites(&self.sys, &initial, &self.policy, Scope::OFF)
                .into_iter()
                .map(|(w, _, _)| w)
                .collect();
        let t = Instant::now();
        let negotiated = run_negotiation(
            &mut works,
            self.sys.repository().capacity.get(),
            &self.policy.config().offload,
            &NegotiateConfig::default(),
        );
        let negotiate_s = t.elapsed().as_secs_f64();
        black_box(negotiated);
        if assemble(&self.sys, works) != out.placement {
            return Err("negotiated placement differs from the off-loading placement".into());
        }

        let spans = tracer.spans();
        let sum = |f: fn(&StorageReport) -> u64| rebuilt.storage.iter().map(f).sum::<u64>() as f64;
        let layers = vec![
            ("core.partition_s", busy_s(&spans, "core.partition")),
            ("core.state_build_s", busy_s(&spans, "core.state_build")),
            ("core.storage_s", busy_s(&spans, "core.storage")),
            ("core.capacity_s", busy_s(&spans, "core.capacity")),
            ("core.per_site_wall_s", busy_s(&spans, "core.per_site")),
            ("core.per_site_imbalance", imbalance(&spans)),
            ("core.offload_s", busy_s(&spans, "core.offload")),
            ("core.assemble_s", busy_s(&spans, "core.assemble")),
            ("model.check_s", busy_s(&spans, "model.check")),
            ("core.negotiate_s", negotiate_s),
            ("core.storage.heap_pops", sum(|s| s.heap_pops)),
            ("core.storage.deallocated", sum(|s| s.deallocated as u64)),
            (
                "core.capacity.moves",
                rebuilt.capacity.iter().map(|c| c.moves).sum::<usize>() as f64,
            ),
            ("core.offload.rounds", rebuilt.offload.rounds as f64),
            ("core.offload.messages", rebuilt.offload.messages as f64),
            ("model.objective_d", f64::from_bits(rebuilt.objective_bits)),
        ];
        self.last = Some(out);
        Ok(Pair {
            untraced_s,
            traced_s,
            spans,
            layers,
            failure,
        })
    }

    fn download_ratio(&mut self) -> f64 {
        let placement = &self.last.as_ref().expect("an op ran").placement;
        let mut params = self.params.clone();
        params.requests_per_site = DOWNLOAD_REQUESTS_PER_SITE;
        let traces = generate_trace(&self.sys, &TraceConfig::from_params(&params), self.seed);
        let mean = |sys: &System, placement: &Placement| {
            replay_all(sys, &traces, &mut StaticRouter::new(placement, "ours")).mean_response()
        };
        let unconstrained = self.raw.unconstrained();
        let reference = self.policy.plan(&unconstrained).placement;
        mean(&self.sys, placement) / mean(&unconstrained, &reference)
    }
}
