//! The end-to-end replication policy: partition → restore storage →
//! restore local capacity → off-load the repository.

use crate::capacity::{restore_capacity, CapacityReport};
use crate::negotiate::{run_negotiation_with_threads, NegotiateConfig, NegotiateReport};
use crate::offload::{OffloadConfig, OffloadReport};
use crate::partition::{partition_all_threads, partition_all_with_threads};
use crate::select::{select_ancestors, AncestorPolicy, Selection};
use crate::state::SiteWork;
use crate::storage::{restore_storage, StorageReport};
use crate::streams::SiteParams;
use mmrepl_model::{
    ConstraintReport, CostParams, IdVec, PageId, PagePartition, Placement, ServingChannel, SiteId,
    System,
};
use serde::{Deserialize, Serialize};

/// Planner configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Objective weights `(α1, α2)`.
    pub cost: CostParams,
    /// Stage 4's excess-splitting rule.
    pub offload: OffloadConfig,
    /// Charge each stored object's update rate against site and
    /// repository capacity (read/write extension; the paper's read-only
    /// model leaves this off).
    #[serde(default)]
    pub include_update_load: bool,
    /// How sites pick the repository node that serves their remote
    /// stream on tree systems. Ignored (no-op) on star systems.
    #[serde(default)]
    pub ancestor: AncestorPolicy,
    /// Tree systems only: after the restorations, re-run ancestor
    /// selection against each site's *measured* repository load instead
    /// of the conservative all-remote proxy, and re-restore the sites
    /// whose serving node changes. Replication absorbs demand locally,
    /// so the proxy systematically over-promotes under tight node
    /// capacities; this pass walks those sites back to cheaper channels
    /// (or promotes ones whose ancestor genuinely saturates). Off by
    /// default; a no-op on star and single-node systems.
    #[serde(default)]
    pub reselect: bool,
    /// Stage 4's protocol knobs ([`crate::negotiate`]). The default —
    /// greedy rounds over a reliable bus — is the paper's
    /// `OFF_LOADING_REPOSITORY`; seeded fault injection and alternative
    /// strategies live behind this knob.
    #[serde(default)]
    pub negotiation: NegotiateConfig,
}

/// What each stage of the pipeline did, per site where applicable.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// Per-site storage restoration summaries (site-id order).
    pub storage: Vec<StorageReport>,
    /// Per-site capacity restoration summaries (site-id order).
    pub capacity: Vec<CapacityReport>,
    /// The repository off-loading negotiation summary
    /// ([`PlanReport::negotiation`] without the protocol counters).
    pub offload: OffloadReport,
    /// Final feasibility verdict over Eq. 8-10.
    pub feasible: bool,
    /// The objective value `D` of the final placement (planner estimates).
    pub objective: f64,
    /// Tree systems only: the serving-node index chosen for each site
    /// (site-id order). Empty on star systems.
    #[serde(default)]
    pub serving: Vec<u32>,
    /// Tree systems only: one off-loading summary per serving node
    /// (ascending node order, nodes that serve at least one site).
    /// Empty on star systems, where [`PlanReport::offload`] is the
    /// single global negotiation.
    #[serde(default)]
    pub offload_by_node: Vec<OffloadReport>,
    /// Tree systems only: sites promoted off their attach node by the
    /// ancestor-selection stage.
    #[serde(default)]
    pub promotions: usize,
    /// Tree systems only: promotion attempts vetoed by a QoS bound.
    #[serde(default)]
    pub qos_blocked: usize,
    /// Tree systems with [`PlannerConfig::reselect`] on: sites whose
    /// serving node changed in the measured-demand re-selection pass.
    #[serde(default)]
    pub reselections: usize,
    /// Stage 4's protocol-level accounting (retries, timeouts, degraded
    /// sites, bus fault counters); tree systems aggregate their per-node
    /// negotiations.
    #[serde(default)]
    pub negotiation: NegotiateReport,
}

/// A planned placement plus its report.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanOutcome {
    /// The final `X`/`X'` assignment.
    pub placement: Placement,
    /// Stage-by-stage accounting.
    pub report: PlanReport,
}

/// The paper's replication policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicationPolicy {
    config: PlannerConfig,
}

impl ReplicationPolicy {
    /// A policy with the Table 1 weights and default negotiation knobs.
    pub fn new() -> Self {
        Self::default()
    }

    /// A policy with custom configuration.
    pub fn with_config(config: PlannerConfig) -> Self {
        ReplicationPolicy { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Stages 2 and 3 of the paper's per-site pipeline for `sites`:
    /// adopt `initial`'s rows into dense per-site state, restore storage
    /// (Eq. 10), then local capacity (Eq. 8). `params` overrides each
    /// site's planner estimates (the serving channel on tree systems);
    /// `None` prices against the sites' own estimates.
    ///
    /// Each site is one shard on [`crate::pool`] with up to `threads`
    /// workers (`0` = one per core), under a `plan.restore.shard` span,
    /// with the auditor run after each stage in debug builds. Sites are
    /// independent, so the results, returned in `sites` order, do not
    /// depend on the thread count. Cold plans, the tree re-selection pass
    /// and the online delta replan all run this one routine.
    pub fn restore_sites<'a>(
        &self,
        system: &'a System,
        initial: &Placement,
        sites: &[SiteId],
        params: Option<&IdVec<SiteId, SiteParams>>,
        threads: usize,
    ) -> Vec<(SiteWork<'a>, StorageReport, CapacityReport)> {
        let cfg = &self.config;
        let shards = crate::pool::parallel_map(sites.len(), threads, |i| {
            let s = sites[i];
            // The wall time feeds the shard-imbalance counter below.
            let shard_start = std::time::Instant::now();
            let _shard = mmrepl_obs::span("plan.restore.shard");
            let mut w = {
                // Adopting the partition into dense per-site state is the
                // tail of stage 1, so it counts toward `plan.partition`.
                let _s = mmrepl_obs::span("plan.partition");
                let p = params.map_or_else(|| SiteParams::of(system.site(s)), |p| p[s]);
                SiteWork::with_params(system, s, initial, cfg.cost, cfg.include_update_load, p)
            };
            #[cfg(debug_assertions)]
            crate::audit::hook(&w, crate::audit::AuditStage::Partition);
            let st = {
                let _s = mmrepl_obs::span("plan.storage_restore");
                restore_storage(&mut w)
            };
            #[cfg(debug_assertions)]
            crate::audit::hook(&w, crate::audit::AuditStage::StorageRestore);
            let cap = {
                let _s = mmrepl_obs::span("plan.capacity_restore");
                restore_capacity(&mut w)
            };
            #[cfg(debug_assertions)]
            crate::audit::hook(&w, crate::audit::AuditStage::CapacityRestore);
            ((w, st, cap), shard_start.elapsed().as_nanos() as u64)
        });
        if mmrepl_obs::enabled() {
            // Shard imbalance: slowest over fastest shard wall time, ×100
            // (100 = perfectly balanced). Accumulates (sums) over every
            // call under one recorder; a trace of one plain cold plan
            // reads it directly as a ratio.
            let max_ns = shards.iter().map(|s| s.1).max().unwrap_or(0);
            let min_ns = shards.iter().map(|s| s.1).min().unwrap_or(0);
            if let Some(x100) = (max_ns * 100).checked_div(min_ns) {
                mmrepl_obs::add("plan.restore.shard.imbalance_x100", x100);
            }
        }
        shards.into_iter().map(|(r, _)| r).collect()
    }

    /// Runs the full pipeline over `system`, fanning `PARTITION`, the
    /// per-site shards (partition adoption + both restorations) and
    /// off-loading's same-instant absorptions out over one worker per
    /// core. The shards merge in site-id order, so the outcome is
    /// **bit-identical** to [`ReplicationPolicy::plan_parallel`] at any
    /// thread count, including 1.
    pub fn plan(&self, system: &System) -> PlanOutcome {
        let _total = mmrepl_obs::span("plan.total");
        self.plan_with_threads(system, None, 0)
    }

    /// Like [`ReplicationPolicy::plan`], but adopting a caller-provided
    /// unconstrained partition instead of recomputing it.
    ///
    /// `PARTITION` depends only on transfer rates, connection overheads
    /// and object sizes — never on storage, processing or repository
    /// capacities — so one [`crate::partition_all`] result can warm-start every
    /// capacity sweep point derived from the same system, bit-identically
    /// to a cold [`ReplicationPolicy::plan`].
    ///
    /// Tree systems repartition with the ancestor-selection channel
    /// estimates regardless, so the warm start only applies to star
    /// systems.
    pub fn plan_with_partition(&self, system: &System, initial: &Placement) -> PlanOutcome {
        let _total = mmrepl_obs::span("plan.total");
        self.plan_with_threads(system, Some(initial), 0)
    }

    /// Like [`ReplicationPolicy::plan`], but runs the parallel stages —
    /// `PARTITION` over pages, the per-site restorations over sites, and
    /// off-loading's same-instant absorptions — on up to `threads` worker
    /// threads (`0` = one per core). The result is **bit-identical** to
    /// the sequential plan — asserted by tests.
    pub fn plan_parallel(&self, system: &System, threads: usize) -> PlanOutcome {
        let _total = mmrepl_obs::span("plan.total");
        self.plan_with_threads(system, None, threads)
    }

    fn plan_with_threads(
        &self,
        system: &System,
        warm_start: Option<&Placement>,
        threads: usize,
    ) -> PlanOutcome {
        // Stage 1 (the `initial` partition) is per-site independent, as
        // are stages 2 & 3 (the local restorations), so the per-site state
        // build and both restorations run in one fused pass per site
        // ([`ReplicationPolicy::restore_sites`]) on the shared worker
        // pool. Results come back in site-id order, so the outcome is
        // bit-identical to the sequential plan.
        let site_ids: Vec<_> = system.sites().ids().collect();

        // Stage 0 (tree systems only): pick the repository node serving
        // each site's remote stream, deriving per-site planner estimates
        // from the constrained ancestor path. Star systems skip this
        // entirely and follow the exact paper pipeline.
        let mut selection: Option<Selection> = system.topology().map(|_| {
            let _s = mmrepl_obs::span("plan.select");
            select_ancestors(system, self.config.ancestor)
        });

        // Stage 1: the unconstrained `PARTITION`. Tree systems always
        // repartition with the channel-derived estimates; star systems
        // adopt the warm start verbatim or recompute with the paper's
        // per-site estimates.
        let owned_initial: Option<Placement>;
        let initial: &Placement = if let Some(sel) = &selection {
            owned_initial = Some({
                let _s = mmrepl_obs::span("plan.partition");
                partition_all_with_threads(system, &sel.params, threads)
            });
            owned_initial.as_ref().expect("just assigned")
        } else if let Some(p) = warm_start {
            p
        } else {
            owned_initial = Some({
                let _s = mmrepl_obs::span("plan.partition");
                partition_all_threads(system, threads)
            });
            owned_initial.as_ref().expect("just assigned")
        };

        // Stages 2 & 3, one shard per site on the pool.
        let params = selection.as_ref().map(|sel| &sel.params);
        let mut works = Vec::with_capacity(site_ids.len());
        let mut storage = Vec::with_capacity(site_ids.len());
        let mut capacity = Vec::with_capacity(site_ids.len());
        for (w, st, cap) in self.restore_sites(system, initial, &site_ids, params, threads) {
            works.push(w);
            storage.push(st);
            capacity.push(cap);
        }

        // Stage 3.5 (tree systems, opt-in): measured-demand re-selection.
        // The first selection pass budgeted nodes with the conservative
        // all-remote proxy; the restorations have since decided what is
        // actually replicated, so each site's true repository load is
        // known. Re-run the selection against it and rebuild the sites
        // whose serving node changes. One pass: repartitioning under the
        // new channel shifts demand again, but only by replicating more
        // or less locally — the assignment stays budgeted against loads
        // no smaller than what the final placement imposes.
        let mut reselections = 0usize;
        if self.config.reselect {
            if let Some(sel) = &selection {
                let demand: Vec<f64> = works.iter().map(|w| w.repo_load()).collect();
                let resel = {
                    let _s = mmrepl_obs::span("plan.select");
                    crate::select::select_ancestors_with_demand(
                        system,
                        self.config.ancestor,
                        &demand,
                    )
                };
                let changed: Vec<SiteId> = site_ids
                    .iter()
                    .copied()
                    .filter(|&s| resel.serving[s] != sel.serving[s])
                    .collect();
                if !changed.is_empty() {
                    let mut repart = initial.clone();
                    {
                        let _s = mmrepl_obs::span("plan.partition");
                        for &s in &changed {
                            for &p in system.pages_of(s) {
                                *repart.partition_mut(p) =
                                    crate::partition::partition_page_ordered_with(
                                        system,
                                        p,
                                        crate::partition::PartitionOrder::DecreasingSize,
                                        &resel.params[s],
                                    );
                            }
                        }
                    }
                    let redone =
                        self.restore_sites(system, &repart, &changed, Some(&resel.params), threads);
                    for (&s, (w, st, cap)) in changed.iter().zip(redone) {
                        works[s.index()] = w;
                        storage[s.index()] = st;
                        capacity[s.index()] = cap;
                    }
                }
                reselections = changed.len();
                if mmrepl_obs::enabled() {
                    mmrepl_obs::add("select.reselections", reselections as u64);
                }
                selection = Some(resel);
            }
        }

        if mmrepl_obs::enabled() {
            let mut pops = 0u64;
            let (mut dealloc, mut orphaned, mut repart, mut freed) = (0u64, 0u64, 0u64, 0u64);
            let (mut repart_calls, mut repart_skipped) = (0u64, 0u64);
            for st in &storage {
                pops += st.heap_pops;
                dealloc += st.deallocated as u64;
                orphaned += st.orphaned as u64;
                repart += st.repartitioned as u64;
                repart_calls += st.repartition_calls;
                repart_skipped += st.repartition_skipped;
                freed += st.bytes_freed;
            }
            mmrepl_obs::add("storage.heap_pops", pops);
            mmrepl_obs::add("storage.deallocated", dealloc);
            mmrepl_obs::add("storage.orphaned", orphaned);
            mmrepl_obs::add("storage.repartitioned", repart);
            mmrepl_obs::add("storage.repartition_calls", repart_calls);
            mmrepl_obs::add("storage.repartition_skipped", repart_skipped);
            mmrepl_obs::add("storage.bytes_freed", freed);
            let mut pops = 0u64;
            let (mut moves, mut dealloc, mut freed) = (0u64, 0u64, 0u64);
            for cap in &capacity {
                pops += cap.heap_pops;
                moves += cap.moves as u64;
                dealloc += cap.deallocated as u64;
                freed += cap.bytes_freed;
            }
            mmrepl_obs::add("capacity.heap_pops", pops);
            mmrepl_obs::add("capacity.moves", moves);
            mmrepl_obs::add("capacity.deallocated", dealloc);
            mmrepl_obs::add("capacity.bytes_freed", freed);
        }

        // Stage 4: distributed repository off-loading. On star systems
        // the single repository negotiates with every site (the paper's
        // protocol, bit-identical to before the tree refactor). On tree
        // systems each serving node negotiates with its own client group
        // against the node's Eq. 9 budget.
        let negotiate = |ws: &mut [SiteWork<'_>], cap: f64| {
            run_negotiation_with_threads(
                ws,
                cap,
                &self.config.offload,
                &self.config.negotiation,
                threads,
            )
            .report
        };
        let (negotiation, offload_by_node) = {
            let _s = mmrepl_obs::span("plan.offload");
            match &selection {
                None => (
                    negotiate(&mut works, system.repository().capacity.get()),
                    Vec::new(),
                ),
                Some(sel) => {
                    let topo = system.topology().expect("selection implies topology");
                    // Group the per-site states contiguously by serving
                    // node (ascending node, then site id — deterministic).
                    // The final assembly indexes by page id, so reordering
                    // the works is placement-neutral.
                    works.sort_by_key(|w| (sel.serving[w.site()].index(), w.site()));
                    let mut by_node = Vec::new();
                    let mut start = 0;
                    while start < works.len() {
                        let node = sel.serving[works[start].site()];
                        let mut end = start;
                        while end < works.len() && sel.serving[works[end].site()] == node {
                            end += 1;
                        }
                        let cap = topo.node(node).capacity.get();
                        by_node.push(negotiate(&mut works[start..end], cap));
                        start = end;
                    }
                    (
                        NegotiateReport::aggregate(&by_node),
                        by_node.iter().map(NegotiateReport::as_offload).collect(),
                    )
                }
            }
        };

        // Assemble the final placement.
        let _assemble = mmrepl_obs::span("plan.assemble");
        let mut rows: Vec<Option<PagePartition>> = vec![None; system.n_pages()];
        for work in works {
            for (pid, part) in work.into_partitions() {
                rows[pid.index()] = Some(part);
            }
        }
        let partitions: IdVec<PageId, PagePartition> = rows
            .into_iter()
            .map(|r| r.expect("every page belongs to exactly one site"))
            .collect();
        let placement = Placement::new(system, partitions).expect("plan shapes are consistent");

        // Feasibility and objective: tree systems check Eq. 9 per
        // serving node and price the remote stream over the selected
        // channels; star systems keep the paper's global check verbatim.
        // The two are independent reads of the final placement, so they
        // run as two jobs on the pool (one after the other at one thread
        // or inside a pool worker), each computed exactly as it would be
        // alone.
        enum Verdict {
            Check(ConstraintReport),
            Objective(f64),
        }
        let verdicts = crate::pool::parallel_map(2, threads, |job| match (job, &selection) {
            (0, None) => Verdict::Check(ConstraintReport::check(system, &placement)),
            (0, Some(sel)) => Verdict::Check(ConstraintReport::check_with_serving(
                system,
                &placement,
                &sel.serving,
            )),
            (_, None) => Verdict::Objective(
                mmrepl_model::CostModel::new(system, self.config.cost).objective(&placement),
            ),
            (_, Some(sel)) => {
                let channels: IdVec<SiteId, ServingChannel> = system
                    .sites()
                    .ids()
                    .map(|s| {
                        system
                            .serving_channel(s, sel.serving[s])
                            .expect("serving node is an ancestor of the attach node")
                    })
                    .collect();
                let cm =
                    mmrepl_model::CostModel::with_channels(system, self.config.cost, &channels);
                Verdict::Objective(cm.objective(&placement))
            }
        });
        let mut verdicts = verdicts.into_iter();
        let (Some(Verdict::Check(check)), Some(Verdict::Objective(objective))) =
            (verdicts.next(), verdicts.next())
        else {
            unreachable!("job 0 checks, job 1 prices")
        };
        let update_ok = !self.config.include_update_load
            || mmrepl_model::UpdateAwareReport::check(system, &placement).is_feasible();
        let (promotions, qos_blocked, serving) = match &selection {
            None => (0, 0, Vec::new()),
            Some(sel) => (
                sel.promotions,
                sel.qos_blocked,
                sel.serving.iter().map(|(_, n)| n.index() as u32).collect(),
            ),
        };
        let report = PlanReport {
            feasible: check.is_feasible() && update_ok,
            objective,
            storage,
            capacity,
            offload: negotiation.as_offload(),
            serving,
            offload_by_node,
            promotions,
            qos_blocked,
            reselections,
            negotiation,
        };
        PlanOutcome { placement, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_all;
    use mmrepl_model::{
        Attachment, BytesPerSec, CostModel, Link, NodeId, RepoNode, ReqPerSec, Secs, Topology,
    };
    use mmrepl_workload::{generate_system, WorkloadParams};

    fn small_system(seed: u64) -> mmrepl_model::System {
        generate_system(&WorkloadParams::small(), seed).unwrap()
    }

    /// Wraps `sys` in a three-node chain: origin `N0` ← `N1`
    /// (8 KiB/s, 0.2 s) ← `N2` (4 KiB/s, 0.1 s), every site attached to
    /// the deepest node. Node capacities default to unbounded unless
    /// `edge_cap` bounds `N2`.
    fn chain_tree(sys: &System, edge_cap: ReqPerSec) -> System {
        let nodes = IdVec::from_vec(vec![
            RepoNode::default(),
            RepoNode::default(),
            RepoNode { capacity: edge_cap },
        ]);
        let parents = IdVec::from_vec(vec![
            None,
            Some((
                NodeId::new(0),
                Link {
                    bandwidth: BytesPerSec::kib_per_sec(8.0),
                    latency: Secs(0.2),
                },
            )),
            Some((
                NodeId::new(1),
                Link {
                    bandwidth: BytesPerSec::kib_per_sec(4.0),
                    latency: Secs(0.1),
                },
            )),
        ]);
        let attachments = IdVec::from_vec(
            (0..sys.n_sites())
                .map(|_| Attachment {
                    node: NodeId::new(2),
                    qos: None,
                })
                .collect(),
        );
        let topo = Topology::new(nodes, parents, attachments).unwrap();
        sys.with_topology(topo).unwrap()
    }

    #[test]
    fn single_node_tree_plan_is_bit_identical_to_star() {
        let star = small_system(9)
            .with_storage_fraction(0.5)
            .with_processing_fraction(0.8)
            .with_central_fraction(0.9);
        let topo = Topology::single_node(star.n_sites(), star.repository().capacity);
        let tree = star.with_topology(topo).unwrap();
        let a = ReplicationPolicy::new().plan(&star);
        for policy in [AncestorPolicy::Closest, AncestorPolicy::Flat] {
            let b = ReplicationPolicy::with_config(PlannerConfig {
                ancestor: policy,
                ..PlannerConfig::default()
            })
            .plan(&tree);
            assert_eq!(a.placement, b.placement, "policy {policy}");
            assert_eq!(
                a.report.objective.to_bits(),
                b.report.objective.to_bits(),
                "policy {policy}"
            );
            assert_eq!(a.report.storage, b.report.storage);
            assert_eq!(a.report.capacity, b.report.capacity);
            assert_eq!(a.report.offload, b.report.offload);
            assert_eq!(a.report.feasible, b.report.feasible);
            assert_eq!(b.report.serving, vec![0u32; star.n_sites()]);
            assert_eq!(b.report.offload_by_node.len(), 1);
            assert_eq!(b.report.promotions, 0);
        }
    }

    #[test]
    fn closest_beats_flat_on_a_constrained_chain() {
        let tree = chain_tree(&small_system(10), ReqPerSec::INFINITE);
        let plan_with = |policy| {
            ReplicationPolicy::with_config(PlannerConfig {
                ancestor: policy,
                ..PlannerConfig::default()
            })
            .plan(&tree)
        };
        let closest = plan_with(AncestorPolicy::Closest);
        let flat = plan_with(AncestorPolicy::Flat);
        // Closest keeps every site on its attach node; flat drags every
        // remote stream through both constrained links to the origin.
        assert!(closest.report.serving.iter().all(|&n| n == 2));
        assert!(flat.report.serving.iter().all(|&n| n == 0));
        assert_eq!(closest.report.offload_by_node.len(), 1);
        assert_eq!(flat.report.offload_by_node.len(), 1);
        assert!(closest.report.feasible);
        assert!(flat.report.feasible);
        assert!(
            closest.report.objective <= flat.report.objective + 1e-9,
            "closest {} vs flat {}",
            closest.report.objective,
            flat.report.objective
        );
    }

    #[test]
    fn tight_edge_node_promotes_sites_and_splits_offload() {
        // The deepest node can barely serve anything, so closest
        // allocation promotes sites up the chain and the off-loading
        // stage negotiates per serving node.
        let tree = chain_tree(&small_system(11), ReqPerSec(0.001));
        let outcome = ReplicationPolicy::with_config(PlannerConfig {
            ancestor: AncestorPolicy::Closest,
            ..PlannerConfig::default()
        })
        .plan(&tree);
        // Nothing fits on the starved edge: every site promotes to N1.
        assert!(outcome.report.promotions >= 1);
        assert!(outcome.report.serving.iter().all(|&n| n != 2));
        let serving: IdVec<SiteId, NodeId> = outcome
            .report
            .serving
            .iter()
            .map(|&n| NodeId::new(n))
            .collect();
        let check = ConstraintReport::check_with_serving(&tree, &outcome.placement, &serving);
        assert_eq!(check.is_feasible(), outcome.report.feasible);
    }

    #[test]
    fn sites_split_across_nodes_offload_per_node() {
        // Alternate site attachments between N1 and N2 so closest
        // allocation yields two serving groups, each with its own
        // Eq. 9 negotiation.
        let sys = small_system(13);
        let nodes = IdVec::from_vec(vec![
            RepoNode::default(),
            RepoNode::default(),
            RepoNode::default(),
        ]);
        let parents = IdVec::from_vec(vec![
            None,
            Some((
                NodeId::new(0),
                Link {
                    bandwidth: BytesPerSec::kib_per_sec(8.0),
                    latency: Secs(0.2),
                },
            )),
            Some((
                NodeId::new(1),
                Link {
                    bandwidth: BytesPerSec::kib_per_sec(4.0),
                    latency: Secs(0.1),
                },
            )),
        ]);
        let attachments = IdVec::from_vec(
            (0..sys.n_sites())
                .map(|i| Attachment {
                    node: NodeId::new(1 + (i as u32 % 2)),
                    qos: None,
                })
                .collect(),
        );
        let tree = sys
            .with_topology(Topology::new(nodes, parents, attachments).unwrap())
            .unwrap();
        let outcome = ReplicationPolicy::with_config(PlannerConfig {
            ancestor: AncestorPolicy::Closest,
            ..PlannerConfig::default()
        })
        .plan(&tree);
        assert_eq!(outcome.report.promotions, 0);
        assert_eq!(outcome.report.offload_by_node.len(), 2);
        assert!(outcome.report.serving.contains(&1));
        assert!(outcome.report.serving.contains(&2));
        assert!(outcome.report.feasible);
    }

    #[test]
    fn reselect_walks_overpromoted_sites_back_to_cheaper_ancestors() {
        // The all-remote proxy overloads the 32 req/s edge node, so the
        // first selection pass promotes every site to N1. With 90% of
        // storage available the restorations replicate most demand
        // locally, and the measured repository load fits the edge — the
        // re-selection pass walks every site back to its attach node and
        // the (channel-priced) objective can only improve.
        let tree = chain_tree(
            &small_system(11).with_storage_fraction(0.9),
            ReqPerSec(32.0),
        );
        let plan = |reselect| {
            ReplicationPolicy::with_config(PlannerConfig {
                ancestor: AncestorPolicy::Closest,
                reselect,
                ..PlannerConfig::default()
            })
            .plan(&tree)
        };
        let off = plan(false);
        let on = plan(true);
        assert!(off.report.promotions >= 3);
        assert!(
            off.report.serving.iter().all(|&n| n == 1),
            "{:?}",
            off.report.serving
        );
        assert_eq!(on.report.reselections, 3);
        assert!(
            on.report.serving.iter().all(|&n| n == 2),
            "{:?}",
            on.report.serving
        );
        assert!(on.report.feasible);
        assert!(
            on.report.objective <= off.report.objective + 1e-9,
            "reselect worsened the objective: {} vs {}",
            on.report.objective,
            off.report.objective
        );
        // The pass rides the same merge discipline as every other stage:
        // bit-identical at any thread count.
        let par = ReplicationPolicy::with_config(PlannerConfig {
            ancestor: AncestorPolicy::Closest,
            reselect: true,
            ..PlannerConfig::default()
        })
        .plan_parallel(&tree, 3);
        assert_eq!(on.placement, par.placement);
        assert_eq!(on.report, par.report);
    }

    #[test]
    fn tree_plan_is_deterministic() {
        let tree = chain_tree(&small_system(12).with_storage_fraction(0.6), ReqPerSec(2.0));
        let policy = ReplicationPolicy::with_config(PlannerConfig {
            ancestor: AncestorPolicy::Closest,
            ..PlannerConfig::default()
        });
        let a = policy.plan(&tree);
        let b = policy.plan_parallel(&tree, 3);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn unconstrained_plan_is_feasible_and_matches_partition() {
        let sys = small_system(1).unconstrained();
        let outcome = ReplicationPolicy::new().plan(&sys);
        assert!(outcome.report.feasible);
        assert_eq!(outcome.report.offload.rounds, 0);
        // With no constraints, the plan must be exactly the greedy
        // partition (no restoration may fire).
        let pure = partition_all(&sys);
        assert_eq!(outcome.placement, pure);
    }

    #[test]
    fn plan_satisfies_all_constraints_under_pressure() {
        let sys = small_system(2)
            .with_storage_fraction(0.5)
            .with_processing_fraction(0.7);
        let sys = {
            // Also constrain the repository to 90% of the all-remote load.
            let full_remote = sys.full_remote_load();
            let mut s = sys.clone();
            s = s.with_central_fraction(0.9);
            assert!(s.repository().capacity.get() < full_remote.get() + 1.0);
            s
        };
        let outcome = ReplicationPolicy::new().plan(&sys);
        let check = ConstraintReport::check(&sys, &outcome.placement);
        assert!(check.is_feasible(), "violations: {:?}", check.violations);
        assert!(outcome.report.feasible);
    }

    #[test]
    fn plan_report_objective_matches_cost_model() {
        let sys = small_system(3).with_storage_fraction(0.8);
        let outcome = ReplicationPolicy::new().plan(&sys);
        let cm = CostModel::with_defaults(&sys);
        let d = cm.objective(&outcome.placement);
        assert!((outcome.report.objective - d).abs() / d < 1e-9);
    }

    #[test]
    fn tighter_storage_never_improves_objective() {
        let base = small_system(4);
        let policy = ReplicationPolicy::new();
        let mut last = f64::NEG_INFINITY;
        for &frac in &[1.0, 0.8, 0.6, 0.4, 0.2] {
            let sys = base
                .with_storage_fraction(frac)
                .with_processing_fraction(10.0);
            let outcome = policy.plan(&sys);
            // Compare on the *same* cost model (the base system estimates).
            let cm = CostModel::with_defaults(&base);
            let d = cm.objective(&outcome.placement);
            assert!(
                d >= last - 1e-6,
                "objective improved when storage shrank: {d} < {last} at {frac}"
            );
            last = d;
        }
    }

    #[test]
    fn plan_beats_extremes_on_estimates() {
        let sys = small_system(5).unconstrained();
        let outcome = ReplicationPolicy::new().plan(&sys);
        let cm = CostModel::with_defaults(&sys);
        let ours = cm.d1(&outcome.placement);
        let local = cm.d1(&Placement::all_local(&sys));
        let remote = cm.d1(&Placement::all_remote(&sys));
        assert!(ours <= local + 1e-9, "ours {ours} vs local {local}");
        assert!(ours <= remote + 1e-9, "ours {ours} vs remote {remote}");
    }

    #[test]
    fn plan_is_deterministic() {
        let sys = small_system(6).with_storage_fraction(0.6);
        let a = ReplicationPolicy::new().plan(&sys);
        let b = ReplicationPolicy::new().plan(&sys);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn parallel_plan_is_bit_identical_to_sequential() {
        let sys = small_system(8)
            .with_storage_fraction(0.5)
            .with_processing_fraction(0.8);
        let policy = ReplicationPolicy::new();
        let seq = policy.plan_parallel(&sys, 1);
        for threads in [0, 2, 3, 7] {
            let par = policy.plan_parallel(&sys, threads);
            assert_eq!(par.placement, seq.placement, "threads = {threads}");
            assert_eq!(par.report, seq.report, "threads = {threads}");
        }
    }

    /// The same bit-identity claim at paper scale (10 sites, 15k objects)
    /// and 10× scale (100 sites, 150k objects) — the tiers the tracked
    /// perf baseline runs — once with an unbounded repository and once
    /// squeezed to 90% of the load the unbounded plan sends it, so
    /// off-loading absorbs on the pool. Minutes-long in debug builds, so
    /// run it as `cargo test --release -p mmrepl-core -- --ignored`.
    #[test]
    #[ignore = "paper/10x scale; run with --release -- --ignored"]
    fn parallel_plan_is_bit_identical_at_paper_and_ten_x_scale() {
        for mult in [1, 10] {
            let mut params = WorkloadParams::paper();
            params.n_sites *= mult;
            params.n_objects *= mult;
            let raw = generate_system(&params, 42).unwrap();
            let policy = ReplicationPolicy::new();
            let squeezed = {
                let local = raw.with_storage_fraction(0.5).with_processing_fraction(1.0);
                let induced = policy.plan(&local).placement.repo_load(&local);
                local.with_repository_capacity(ReqPerSec(induced.get() * 0.9))
            };
            let cases = [
                (
                    "unbounded",
                    raw.with_storage_fraction(0.5).with_processing_fraction(0.8),
                ),
                ("squeezed", squeezed),
            ];
            for (name, sys) in cases {
                let seq = policy.plan_parallel(&sys, 1);
                if name == "squeezed" {
                    assert!(
                        seq.report.offload.rounds >= 1,
                        "x{mult}: nothing off-loaded"
                    );
                }
                for threads in [0, 4] {
                    let par = policy.plan_parallel(&sys, threads);
                    assert_eq!(
                        par.placement, seq.placement,
                        "x{mult} {name}, threads = {threads}"
                    );
                    assert_eq!(
                        par.report, seq.report,
                        "x{mult} {name}, threads = {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn custom_weights_shift_the_tradeoff() {
        let sys = small_system(7).with_storage_fraction(0.4);
        let d1_heavy = ReplicationPolicy::with_config(PlannerConfig {
            cost: CostParams {
                alpha1: 10.0,
                alpha2: 0.1,
            },
            ..PlannerConfig::default()
        })
        .plan(&sys);
        let d2_heavy = ReplicationPolicy::with_config(PlannerConfig {
            cost: CostParams {
                alpha1: 0.1,
                alpha2: 10.0,
            },
            ..PlannerConfig::default()
        })
        .plan(&sys);
        let cm = CostModel::with_defaults(&sys);
        // The response-time-heavy plan should win on D1, the optional-heavy
        // plan on D2 (weak inequality: small systems can tie).
        assert!(
            cm.d1(&d1_heavy.placement) <= cm.d1(&d2_heavy.placement) + 1e-9,
            "d1: {} vs {}",
            cm.d1(&d1_heavy.placement),
            cm.d1(&d2_heavy.placement)
        );
        assert!(
            cm.d2(&d2_heavy.placement) <= cm.d2(&d1_heavy.placement) + 1e-9,
            "d2: {} vs {}",
            cm.d2(&d2_heavy.placement),
            cm.d2(&d1_heavy.placement)
        );
    }
}
