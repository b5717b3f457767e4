//! Property tests for the policy's working state: arbitrary mark-flip
//! sequences must keep the incremental bookkeeping exactly consistent
//! with a from-scratch recomputation, and the restoration stages must
//! deliver what they claim for arbitrary constraint tightness.

use mmrepl_core::{
    audit_site, check_repo_constraint, check_site_constraints, partition_all, restore_capacity,
    restore_storage, run_negotiation, run_offload, AncestorPolicy, AuditStage, EventQueue,
    FaultConfig, NegotiateConfig, OffloadConfig, PlannerConfig, ReplicationPolicy, SimTime,
    SiteWork, StrategyKind,
};
use mmrepl_model::{
    ConstraintReport, CostParams, IdVec, NodeId, ReqPerSec, Secs, SiteId, Topology,
};
use mmrepl_workload::{generate_system, TopologyParams, WorkloadParams};
use proptest::prelude::*;

fn small_sys(seed: u64) -> mmrepl_model::System {
    generate_system(&WorkloadParams::small(), seed).expect("valid params")
}

/// Figure 3's squeeze: with `share`, caps the repository at that share of
/// the load the unbounded-repository plan sends it.
fn with_repository_share(sys: mmrepl_model::System, share: Option<f64>) -> mmrepl_model::System {
    match share {
        Some(share) => {
            let induced = ReplicationPolicy::new()
                .plan(&sys)
                .placement
                .repo_load(&sys);
            sys.with_repository_capacity(ReqPerSec(induced.get() * share))
        }
        None => sys,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random flip sequences keep every derived quantity consistent.
    #[test]
    fn random_flips_stay_consistent(
        seed in 0u64..1000,
        flips in prop::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..60),
    ) {
        let sys = small_sys(seed);
        let placement = partition_all(&sys);
        let mut w = SiteWork::new(&sys, SiteId::new(0), &placement, CostParams::default());
        for (pi, si, to_local) in flips {
            let idx = (pi as usize) % w.n_pages();
            let page = sys.page(w.pages()[idx]);
            if page.n_compulsory() == 0 {
                continue;
            }
            let slot = (si as usize) % page.n_compulsory();
            let object = page.compulsory[slot];
            if to_local {
                // Only legal if the object is stored.
                if w.is_stored(object) {
                    w.set_compulsory(idx, slot, true);
                }
            } else {
                w.set_compulsory(idx, slot, false);
            }
        }
        w.validate_consistency();
    }

    /// delta_d_dealloc is an exact prediction for arbitrary victims.
    #[test]
    fn dealloc_prediction_exact(seed in 0u64..1000, pick in any::<u64>()) {
        let sys = small_sys(seed);
        let placement = partition_all(&sys);
        let mut w = SiteWork::new(&sys, SiteId::new(0), &placement, CostParams::default());
        let stored = w.stored_objects();
        prop_assume!(!stored.is_empty());
        let victim = stored[(pick as usize) % stored.len()];
        let predicted = w.delta_d_dealloc(victim);
        let before = w.total_d();
        w.dealloc(victim);
        let actual = w.total_d() - before;
        prop_assert!((actual - predicted).abs() < 1e-6,
            "predicted {} actual {}", predicted, actual);
        prop_assert!(actual >= -1e-9, "dealloc improved D by {}", -actual);
        w.validate_consistency();
    }

    /// Storage restoration always ends within capacity (or with an empty
    /// store), for arbitrary tightness.
    #[test]
    fn storage_restore_postcondition(seed in 0u64..500, frac in 0.01f64..1.2) {
        let sys = small_sys(seed)
            .with_storage_fraction(frac)
            .with_processing_fraction(f64::INFINITY);
        let placement = partition_all(&sys);
        let mut w = SiteWork::new(&sys, SiteId::new(0), &placement, CostParams::default());
        let report = restore_storage(&mut w);
        if report.feasible {
            prop_assert!(w.storage_used() <= w.storage_capacity());
        } else {
            prop_assert!(w.stored_objects().is_empty());
        }
        w.validate_consistency();
    }

    /// Capacity restoration always ends within capacity (or with zero
    /// movable marks), for arbitrary tightness.
    #[test]
    fn capacity_restore_postcondition(seed in 0u64..500, frac in 0.01f64..1.2) {
        let sys = small_sys(seed).with_processing_fraction(frac);
        let placement = partition_all(&sys);
        let mut w = SiteWork::new(&sys, SiteId::new(0), &placement, CostParams::default());
        restore_storage(&mut w);
        let report = restore_capacity(&mut w);
        if report.feasible {
            prop_assert!(w.load() <= w.capacity() + 1e-6);
        } else {
            let marks: usize = (0..w.n_pages())
                .map(|i| w.partition(i).n_local_compulsory() + w.partition(i).n_local_optional())
                .sum();
            prop_assert_eq!(marks, 0);
        }
        w.validate_consistency();
    }

    /// Off-loading protocol invariants for arbitrary repository caps:
    /// workload is conserved (repository reduction == site absorption),
    /// no site constraint is ever broken to satisfy the repository, and
    /// the repository load never increases.
    #[test]
    fn offload_conserves_workload_and_respects_sites(
        seed in 0u64..300,
        cap_frac in 0.0f64..1.2,
        headroom in 1.0f64..1.6,
    ) {
        let sys = small_sys(seed).with_processing_fraction(headroom);
        let placement = partition_all(&sys);
        let mut works: Vec<SiteWork<'_>> = sys
            .sites()
            .ids()
            .map(|s| {
                let mut w = SiteWork::new(&sys, s, &placement, CostParams::default());
                restore_storage(&mut w);
                restore_capacity(&mut w);
                w
            })
            .collect();
        let before: f64 = works.iter().map(|w| w.repo_load()).sum();
        let cap = before * cap_frac;
        let outcome = run_offload(&mut works, cap, &OffloadConfig::default());
        let after: f64 = works.iter().map(|w| w.repo_load()).sum();

        // Repository load never grows; the report accounts it exactly.
        prop_assert!(after <= before + 1e-6);
        prop_assert!((before - after - outcome.report.absorbed).abs() < 1e-6,
            "conservation: moved {} vs absorbed {}", before - after, outcome.report.absorbed);
        // Feasibility claims are honest and sites stay within Eq. 8/10.
        if outcome.report.feasible {
            prop_assert!(after <= cap + 1e-6);
        }
        for w in &works {
            prop_assert!(w.load() <= w.capacity() + 1e-6, "Eq. 8 broken at {}", w.site());
            prop_assert!(w.storage_used() <= w.storage_capacity(),
                "Eq. 10 broken at {}", w.site());
            w.validate_consistency();
        }
    }

    /// Duplication and reordering without loss are invisible to the
    /// off-loading protocol: sequence dedup and the per-round counter
    /// cache make every offer absorb exactly once, and each absorption
    /// reads only its own site's state. So the paper strategy lands on
    /// **exactly** the reliable-bus placement — same per-site
    /// load/storage bit patterns, same rounds and swaps — and no site is
    /// ever degraded, however many retries the reordering provokes.
    #[test]
    fn duplicating_reordering_bus_matches_reliable_bus_bit_for_bit(
        seed in 0u64..300,
        fault_seed in any::<u64>(),
        duplicate in 0.0f64..0.9,
        reorder in 0.0f64..0.9,
        cap_frac in 0.0f64..1.2,
        headroom in 1.0f64..1.6,
    ) {
        let sys = small_sys(seed).with_processing_fraction(headroom);
        let placement = partition_all(&sys);
        let build = || -> Vec<SiteWork<'_>> {
            sys.sites()
                .ids()
                .map(|s| {
                    let mut w = SiteWork::new(&sys, s, &placement, CostParams::default());
                    restore_storage(&mut w);
                    restore_capacity(&mut w);
                    w
                })
                .collect()
        };
        let mut reliable_works = build();
        let before: f64 = reliable_works.iter().map(|w| w.repo_load()).sum();
        let cap = before * cap_frac;
        let reliable = run_negotiation(
            &mut reliable_works,
            cap,
            &OffloadConfig::default(),
            &NegotiateConfig::default(),
        );

        let mut faulty_works = build();
        let config = NegotiateConfig {
            faults: FaultConfig {
                drop: 0.0,
                duplicate,
                reorder,
                jitter: Secs(0.0),
                seed: fault_seed,
            },
            ..NegotiateConfig::default()
        };
        let faulty = run_negotiation(&mut faulty_works, cap, &OffloadConfig::default(), &config);

        for (a, b) in reliable_works.iter().zip(&faulty_works) {
            prop_assert_eq!(a.site(), b.site());
            prop_assert_eq!(a.load().to_bits(), b.load().to_bits(), "site {}", a.site());
            prop_assert_eq!(a.repo_load().to_bits(), b.repo_load().to_bits(),
                "site {}", a.site());
            prop_assert_eq!(a.space_left(), b.space_left(), "site {}", a.site());
            prop_assert_eq!(a.total_d().to_bits(), b.total_d().to_bits(),
                "site {}", a.site());
        }
        prop_assert_eq!(faulty.report.rounds, reliable.report.rounds);
        prop_assert_eq!(faulty.report.swaps, reliable.report.swaps);
        prop_assert_eq!(faulty.report.feasible, reliable.report.feasible);
        prop_assert_eq!(faulty.changed, reliable.changed);
        prop_assert_eq!(faulty.report.degraded_sites, 0);
    }

    /// Acceptance property 2: under seeded loss / reorder / duplication /
    /// jitter, any strategy's negotiation always terminates and its final
    /// placement satisfies Eq. 8 and Eq. 10 at every site, with Eq. 9
    /// feasibility reported from the authoritative final state (not the
    /// protocol's possibly stale belief). `validate_consistency` audits
    /// the full derived-state bookkeeping site by site.
    #[test]
    fn faulty_negotiation_terminates_with_feasible_placement(
        seed in 0u64..200,
        fault_seed in any::<u64>(),
        drop in 0.0f64..0.9,
        duplicate in 0.0f64..0.9,
        reorder in 0.0f64..0.9,
        jitter in 0.0f64..0.5,
        strategy_pick in 0u8..3,
        cap_frac in 0.0f64..1.2,
        headroom in 1.0f64..1.6,
    ) {
        let sys = small_sys(seed).with_processing_fraction(headroom);
        let placement = partition_all(&sys);
        let mut works: Vec<SiteWork<'_>> = sys
            .sites()
            .ids()
            .map(|s| {
                let mut w = SiteWork::new(&sys, s, &placement, CostParams::default());
                restore_storage(&mut w);
                restore_capacity(&mut w);
                w
            })
            .collect();
        let before: f64 = works.iter().map(|w| w.repo_load()).sum();
        let cap = before * cap_frac;
        let strategy = match strategy_pick {
            0 => StrategyKind::GreedyProportional,
            1 => StrategyKind::DeadlineBounded,
            _ => StrategyKind::Auction,
        };
        let config = NegotiateConfig {
            strategy,
            faults: FaultConfig { drop, duplicate, reorder, jitter: Secs(jitter), seed: fault_seed },
        };
        let neg = run_negotiation(&mut works, cap, &OffloadConfig::default(), &config);

        prop_assert!(neg.report.rounds <= mmrepl_core::offload::MAX_ROUNDS);
        let after: f64 = works.iter().map(|w| w.repo_load()).sum();
        prop_assert!(after <= before + 1e-6, "repository load grew");
        prop_assert!((neg.report.final_repo_load - after).abs() < 1e-9,
            "final_repo_load not authoritative");
        prop_assert_eq!(neg.report.feasible, after <= cap + 1e-9);
        for w in &works {
            prop_assert!(w.load() <= w.capacity() + 1e-6, "Eq. 8 broken at {}", w.site());
            prop_assert!(w.storage_used() <= w.storage_capacity(),
                "Eq. 10 broken at {}", w.site());
            w.validate_consistency();
        }
        // The bus fault ledger closes after the protocol's closing drain.
        let st = neg.report.bus;
        prop_assert_eq!(st.sent + st.duplicated_extra, st.delivered + st.dropped);
    }

    /// The dense (CSR) per-site state yields the same plan every time and
    /// on every thread count: placement and report must be byte-identical
    /// across repeated cold plans and pool-parallel plans — including
    /// when a squeezed repository makes off-loading absorb in parallel.
    #[test]
    fn plan_is_bit_identical_across_runs_and_threads(
        seed in 0u64..200,
        sf in 0.05f64..1.2,
        pf in 0.05f64..1.2,
        threads in 1usize..5,
        squeezed in any::<bool>(),
        share in 0.3f64..0.9,
    ) {
        let sys = with_repository_share(
            small_sys(seed)
                .with_storage_fraction(sf)
                .with_processing_fraction(pf),
            squeezed.then_some(share),
        );
        let policy = ReplicationPolicy::new();
        let a = policy.plan(&sys);
        let b = policy.plan(&sys);
        prop_assert_eq!(&a.placement, &b.placement);
        prop_assert_eq!(&a.report, &b.report);
        let par = policy.plan_parallel(&sys, threads);
        prop_assert_eq!(&a.placement, &par.placement, "threads {}", threads);
        prop_assert_eq!(&a.report, &par.report, "threads {}", threads);
    }

    /// Sharded restoration and parallel off-loading are invisible end to
    /// end: `plan_parallel` at 1, 2 and N threads yields byte-identical
    /// `PlanOutcome`s, the per-site reports aggregate to the same work
    /// counters, and stage 4 ran the same rounds, messages and absorbed
    /// workload — the shards did the *same* work, not merely equivalent
    /// work. Half the cases squeeze the repository (Figure 3's rule) so
    /// off-loading has work to do.
    #[test]
    fn sharded_plans_agree_on_outcome_and_work_counters(
        seed in 0u64..200,
        sf in 0.05f64..1.2,
        pf in 0.05f64..1.2,
        n in 3usize..9,
        squeezed in any::<bool>(),
        share in 0.3f64..0.9,
    ) {
        let sys = with_repository_share(
            small_sys(seed)
                .with_storage_fraction(sf)
                .with_processing_fraction(pf),
            squeezed.then_some(share),
        );
        let policy = ReplicationPolicy::new();
        let aggregate = |o: &mmrepl_core::PlanOutcome| {
            let heap_pops: u64 = o.report.storage.iter().map(|s| s.heap_pops).sum();
            let bytes_freed: u64 = o.report.storage.iter().map(|s| s.bytes_freed).sum();
            let orphaned: usize = o.report.storage.iter().map(|s| s.orphaned).sum();
            (heap_pops, bytes_freed, orphaned)
        };
        let offload = |o: &mmrepl_core::PlanOutcome| {
            let r = &o.report.offload;
            (r.rounds, r.messages, r.absorbed.to_bits(), r.swaps)
        };
        let one = policy.plan_parallel(&sys, 1);
        for threads in [2, n] {
            let par = policy.plan_parallel(&sys, threads);
            prop_assert_eq!(&one.placement, &par.placement, "threads {}", threads);
            prop_assert_eq!(&one.report, &par.report, "threads {}", threads);
            prop_assert_eq!(aggregate(&one), aggregate(&par), "threads {}", threads);
            prop_assert_eq!(offload(&one), offload(&par), "threads {}", threads);
        }
    }

    /// Warm-starting from a partition computed on the *unconstrained*
    /// base system matches a cold plan exactly: `PARTITION` reads only
    /// rates, overheads and sizes, so capacity scaling cannot change it.
    #[test]
    fn warm_started_plan_matches_cold_plan(
        seed in 0u64..200,
        sf in 0.05f64..1.2,
        pf in 0.05f64..1.2,
    ) {
        let base = small_sys(seed);
        let initial = partition_all(&base);
        let sys = base
            .with_storage_fraction(sf)
            .with_processing_fraction(pf);
        let policy = ReplicationPolicy::new();
        let warm = policy.plan_with_partition(&sys, &initial);
        let cold = policy.plan(&sys);
        prop_assert_eq!(&warm.placement, &cold.placement);
        prop_assert_eq!(&warm.report, &cold.report);
    }

    /// The full planner never *reports* feasible while violating a
    /// constraint, under joint random tightness.
    #[test]
    fn planner_feasibility_is_honest(
        seed in 0u64..200,
        sf in 0.05f64..1.2,
        pf in 0.05f64..1.2,
        cf in 0.3f64..1.2,
    ) {
        let sys = small_sys(seed)
            .with_storage_fraction(sf)
            .with_processing_fraction(pf)
            .with_central_fraction(cf);
        let outcome = ReplicationPolicy::new().plan(&sys);
        let check = ConstraintReport::check(&sys, &outcome.placement);
        prop_assert_eq!(outcome.report.feasible, check.is_feasible(),
            "report {} vs check {:?}", outcome.report.feasible, check.violations);
    }

    /// Capacity restoration never leaves Eq. 8 (or, summed over sites,
    /// Eq. 9's per-site contributions) violated when it claims success,
    /// and never corrupts the bookkeeping either way — checked through
    /// the invariant auditor rather than ad-hoc assertions.
    #[test]
    fn capacity_restore_never_leaves_eq8_violated(
        seed in 0u64..400,
        sf in 0.05f64..1.2,
        pf in 0.01f64..1.2,
    ) {
        let sys = small_sys(seed)
            .with_storage_fraction(sf)
            .with_processing_fraction(pf);
        let placement = partition_all(&sys);
        let mut works: Vec<SiteWork<'_>> = sys
            .sites()
            .ids()
            .map(|s| SiteWork::new(&sys, s, &placement, CostParams::default()))
            .collect();
        for w in &mut works {
            restore_storage(w);
            let report = restore_capacity(w);
            if let Err(d) = audit_site(w, AuditStage::CapacityRestore) {
                prop_assert!(false, "bookkeeping diverged: {}", d);
            }
            if report.feasible {
                if let Err(d) = check_site_constraints(w, AuditStage::CapacityRestore) {
                    prop_assert!(false, "Eq. 8/10 violated: {}", d);
                }
            }
        }
        // Eq. 9 with the repository capacity set to exactly the residual
        // load must hold trivially — the checker itself must agree.
        let residual: f64 = works.iter().map(|w| w.repo_load()).sum();
        prop_assert!(check_repo_constraint(&works, residual, AuditStage::CapacityRestore).is_ok());
    }

    /// Star-degeneracy oracle: wrapping a star system in the degenerate
    /// single-node tree must not change one bit of the plan, under either
    /// ancestor policy and arbitrary constraint tightness. The tree code
    /// path (selection, channel-parameterised partition, per-node
    /// off-loading, serving-aware pricing) must collapse exactly onto the
    /// paper's planner when the hierarchy is trivial.
    #[test]
    fn single_node_tree_plans_bit_identical_to_star(
        seed in 0u64..200,
        sf in 0.05f64..1.2,
        pf in 0.05f64..1.2,
        flat in any::<bool>(),
    ) {
        let star = small_sys(seed)
            .with_storage_fraction(sf)
            .with_processing_fraction(pf);
        let topo = Topology::single_node(star.n_sites(), star.repository().capacity);
        let tree = star.with_topology(topo).expect("degenerate tree is valid");
        let policy = ReplicationPolicy::with_config(PlannerConfig {
            ancestor: if flat { AncestorPolicy::Flat } else { AncestorPolicy::Closest },
            ..PlannerConfig::default()
        });
        let a = policy.plan(&star);
        let b = policy.plan(&tree);
        prop_assert_eq!(&a.placement, &b.placement);
        prop_assert_eq!(a.report.objective.to_bits(), b.report.objective.to_bits(),
            "objective {} vs {}", a.report.objective, b.report.objective);
        prop_assert_eq!(&a.report.storage, &b.report.storage);
        prop_assert_eq!(&a.report.capacity, &b.report.capacity);
        prop_assert_eq!(&a.report.offload, &b.report.offload);
        prop_assert_eq!(a.report.feasible, b.report.feasible);
        prop_assert!(b.report.serving.iter().all(|&n| n == 0));
        prop_assert_eq!(b.report.promotions, 0);
        prop_assert_eq!(b.report.qos_blocked, 0);
    }

    /// On genuine trees the planner's feasibility claim must agree with
    /// the serving-aware constraint checker, for arbitrary tightness and
    /// both ancestor policies. (In debug builds every plan in here also
    /// runs the per-stage invariant auditor over the tree path's
    /// channel-parameterised bookkeeping.)
    #[test]
    fn tree_planner_feasibility_is_honest(
        seed in 0u64..100,
        sf in 0.05f64..1.2,
        pf in 0.05f64..1.2,
        flat in any::<bool>(),
    ) {
        let mut params = WorkloadParams::small();
        params.topology = TopologyParams::edge();
        let sys = generate_system(&params, seed)
            .expect("valid params")
            .with_storage_fraction(sf)
            .with_processing_fraction(pf);
        let policy = ReplicationPolicy::with_config(PlannerConfig {
            ancestor: if flat { AncestorPolicy::Flat } else { AncestorPolicy::Closest },
            ..PlannerConfig::default()
        });
        let outcome = policy.plan(&sys);
        let serving: IdVec<SiteId, NodeId> = outcome
            .report
            .serving
            .iter()
            .map(|&n| NodeId::new(n))
            .collect();
        let check = ConstraintReport::check_with_serving(&sys, &outcome.placement, &serving);
        prop_assert_eq!(outcome.report.feasible, check.is_feasible(),
            "report {} vs check {:?}", outcome.report.feasible, check.violations);
    }

    /// The measured-demand re-selection knob is a strict no-op wherever
    /// there is nothing to re-select: star systems (no topology) and
    /// single-node trees plan bit-identically with it on or off.
    #[test]
    fn reselect_is_bit_identical_on_star_systems(
        seed in 0u64..300,
        sf in 0.3f64..1.1,
        pf in 0.3f64..1.1,
        wrap in any::<bool>(),
    ) {
        let star = small_sys(seed)
            .with_storage_fraction(sf)
            .with_processing_fraction(pf);
        let sys = if wrap {
            let topo = Topology::single_node(star.n_sites(), star.repository().capacity);
            star.with_topology(topo).unwrap()
        } else {
            star
        };
        let plan = |reselect| {
            ReplicationPolicy::with_config(PlannerConfig {
                reselect,
                ..PlannerConfig::default()
            })
            .plan(&sys)
        };
        let off = plan(false);
        let on = plan(true);
        prop_assert_eq!(off.placement, on.placement);
        prop_assert_eq!(off.report, on.report);
    }

    /// Storage restoration never leaves Eq. 10 violated when it claims
    /// success, and the dense bookkeeping survives the dealloc /
    /// repartition / orphan-drop churn — checked through the auditor.
    #[test]
    fn storage_restore_never_leaves_eq10_violated(
        seed in 0u64..400,
        frac in 0.01f64..1.2,
    ) {
        let sys = small_sys(seed)
            .with_storage_fraction(frac)
            .with_processing_fraction(f64::INFINITY);
        let placement = partition_all(&sys);
        for site in sys.sites().ids() {
            let mut w = SiteWork::new(&sys, site, &placement, CostParams::default());
            let report = restore_storage(&mut w);
            if let Err(d) = audit_site(&w, AuditStage::StorageRestore) {
                prop_assert!(false, "bookkeeping diverged: {}", d);
            }
            if report.feasible {
                prop_assert!(w.storage_used() <= w.storage_capacity());
                // The auditor's constraint check must concur (its Eq. 8
                // arm is vacuous here — processing is unconstrained).
                if let Err(d) = check_site_constraints(&w, AuditStage::StorageRestore) {
                    prop_assert!(false, "Eq. 10 violated: {}", d);
                }
            }
        }
    }

    /// Events always pop in non-decreasing time order, with FIFO ties.
    #[test]
    fn event_queue_orders_any_schedule(times in prop::collection::vec(0.0f64..100.0, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::new(t), i);
        }
        let mut last_t = -1.0;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut last_time = f64::NAN;
        while let Some((t, i)) = q.pop() {
            prop_assert!(t.get() >= last_t);
            if t.get() == last_time {
                // FIFO among equal times: indices ascend.
                prop_assert!(seen_at_time.last().is_none_or(|&p| p < i));
            } else {
                seen_at_time.clear();
                last_time = t.get();
            }
            seen_at_time.push(i);
            last_t = t.get();
        }
        prop_assert_eq!(q.processed() as usize, times.len());
    }
}
