//! The off-loading protocol: `OFF_LOADING_REPOSITORY` as typed
//! proposal/counter-proposal messages over the [`crate::bus`] control
//! plane, robust to the bus's seeded fault injection
//! ([`crate::bus::FaultConfig`]). With the default configuration —
//! greedy strategy, reliable bus — it is the paper's stage 4, which the
//! planner and [`crate::offload::run_offload`] run.
//!
//! * the repository sends [`NegotiateMsg::Offer`]s (round-stamped
//!   workload proposals) and sites answer with
//!   [`NegotiateMsg::Counter`]s (what they actually took plus a fresh
//!   status) — the counter *is* the counter-proposal: a site that
//!   absorbs less than asked implicitly proposes its remainder go
//!   elsewhere;
//! * lost replies time out and are retried with bounded exponential
//!   backoff; after the retry budget the repository **degrades to its
//!   last-known view** of the silent site and demotes it to L3 for the
//!   rest of the negotiation;
//! * duplicated deliveries are deduplicated by envelope sequence
//!   number, and a *resent* offer for an already-absorbed round replays
//!   the cached counter instead of absorbing twice — per-round
//!   idempotence;
//! * [`NegotiateMsg::Accept`] / [`NegotiateMsg::Abort`] close the
//!   session either way, so the protocol always terminates.
//!
//! Safety under every fault mix: absorption happens site-side through
//! [`crate::offload::absorb_workload`], which enforces Eq. 8 (site
//! processing) and Eq. 10 (storage) locally — no lost or duplicated
//! message can overcommit a site. Stale repository state only
//! *overestimates* the repository load (a lost counter hides an
//! absorption), so degradation errs toward extra offers, never toward
//! declaring Eq. 9 restored when it is not; the final report recomputes
//! the repository load from the authoritative site states.
//!
//! The [`StrategyKind`] plans each round from the repository's view:
//! the greedy strategy runs [`crate::offload::paper_round_plan`]
//! verbatim, the deadline-bounded one over-asks to converge within a
//! round deadline, and the auction lets the highest-headroom bidders take
//! whole chunks. Duplication and reordering without loss leave the
//! greedy placement bit-identical to the reliable run (property-tested).
//!
//! ## Same-instant batches
//!
//! As in the paper, every site absorbs its share on its own machine, so
//! the run of site-bound offers due at one instant (one per site) is
//! delivered as a batch: a sequential pass does envelope dedup and
//! the counter cache in delivery order, the fresh absorptions run on
//! [`crate::pool`], and a second sequential pass records the counters
//! and sends the replies in delivery order. The result is exactly that
//! of one-envelope-at-a-time delivery (tested at 1, 2 and 4 threads on
//! reliable, duplicating, reordering and lossy buses):
//!
//! * handling a site-bound message never changes what the repository
//!   waits for, so no early stop is skipped;
//! * a reply is queued behind every envelope already in flight for its
//!   instant, so none could have been delivered inside the batch;
//! * distinct sites' absorptions touch disjoint state;
//! * replies go out in delivery order, so bus sequence numbers and fault
//!   draws are unchanged.
//!
//! On the reliable bus one round's offers form one batch; fault injection
//! only splits batches.

use crate::bus::{BusStats, Endpoint, Envelope, FaultConfig, MessageBus};
use crate::event::SimTime;
use crate::offload::{
    absorb_workload, classify, paper_round_plan, status_of, AbsorbResult, AssignmentRule,
    OffloadConfig, OffloadReport, RoundPlan, StatusReport, BUS_LATENCY, EPS, MAX_ROUNDS, MAX_SWAPS,
};
use crate::pool::parallel_map;
use crate::state::SiteWork;
use mmrepl_model::{Secs, SiteId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Mutex;

/// Typed protocol messages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NegotiateMsg {
    /// Site → repository: current status (initial report, and the reply
    /// to a [`NegotiateMsg::Probe`]).
    Status(StatusReport),
    /// Repository → site: "your status never arrived — report again".
    Probe,
    /// Repository → site: proposal — absorb `amount` req/s this round.
    Offer {
        /// Negotiation round the offer belongs to.
        round: usize,
        /// Resend attempt (0 = original). Lets traces distinguish
        /// retransmissions; sites treat every attempt identically.
        attempt: u32,
        /// Proposed workload transfer, req/s.
        amount: f64,
        /// Whether the site may allocate new objects (L1) or only
        /// re-mark stored ones (L2).
        allow_alloc: bool,
    },
    /// Site → repository: counter-proposal — what the site actually
    /// took, with its post-absorption status. Resent verbatim (from a
    /// per-round cache) if the offer is retransmitted.
    Counter {
        /// Round being answered.
        round: usize,
        /// Workload actually absorbed, req/s.
        taken: f64,
        /// Status after absorption.
        status: StatusReport,
        /// True when the site fell short of the proposal (self-demotes
        /// to L3).
        exhausted: bool,
    },
    /// Repository → site: negotiation closed, constraint restored.
    Accept,
    /// Repository → site: negotiation closed without restoring Eq. 9.
    Abort,
}

/// Which negotiation strategy the repository runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// The paper's proportional-to-headroom rounds
    /// ([`paper_round_plan`]); the planner's stage 4.
    #[default]
    GreedyProportional,
    /// Over-ask progressively so the negotiation converges within
    /// [`DEADLINE_ROUNDS`].
    DeadlineBounded,
    /// Highest-headroom bidders absorb whole chunks.
    Auction,
}

impl StrategyKind {
    /// Parses a CLI name (`greedy` / `deadline` / `auction`).
    pub fn parse(name: &str) -> Option<StrategyKind> {
        match name {
            "greedy" | "greedy-proportional" | "paper" => Some(StrategyKind::GreedyProportional),
            "deadline" | "deadline-bounded" => Some(StrategyKind::DeadlineBounded),
            "auction" => Some(StrategyKind::Auction),
            _ => None,
        }
    }

    /// The CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::GreedyProportional => "greedy",
            StrategyKind::DeadlineBounded => "deadline",
            StrategyKind::Auction => "auction",
        }
    }
}

/// The deadline-bounded strategy: over-asks so the negotiation lands
/// within [`DEADLINE_ROUNDS`]. Round `round` scales the paper's
/// proportional ask by `deadline / (deadline − round)` (capped at each
/// site's headroom), and the final pre-deadline round asks for full
/// headroom outright. Trades absorbed-workload precision for fewer
/// rounds — useful when control-plane time is the scarce resource (high
/// latency or heavy loss).
fn deadline_round(
    statuses: &[StatusReport],
    demoted: &[bool],
    repo_capacity: f64,
    rule: AssignmentRule,
    round: usize,
) -> RoundPlan {
    let base = paper_round_plan(statuses, demoted, repo_capacity, rule);
    let RoundPlan::Assign(assignments) = base else {
        return base;
    };
    let deadline = DEADLINE_ROUNDS;
    let remaining = deadline.saturating_sub(round);
    let boosted = assignments
        .into_iter()
        .map(|(i, amount, allow_alloc)| {
            let headroom = statuses[i].headroom;
            let ask = if remaining <= 1 {
                // Last round before the deadline: ask for everything
                // the site can take.
                headroom.max(amount)
            } else {
                (amount * deadline as f64 / remaining as f64).min(headroom.max(amount))
            };
            (i, ask, allow_alloc)
        })
        .collect();
    RoundPlan::Assign(boosted)
}

/// Auction-style rounds: every non-demoted site with headroom "bids" its
/// headroom; the repository awards the excess to the highest bidders in
/// whole-headroom chunks (ties broken by site order, L1 before L2 at the
/// same index via classification order). Fewer, larger transfers —
/// fewer messages, lumpier placement.
fn auction_round(statuses: &[StatusReport], demoted: &[bool], repo_capacity: f64) -> RoundPlan {
    let p_r: f64 = statuses.iter().map(|s| s.repo_load).sum();
    if p_r <= repo_capacity + EPS {
        return RoundPlan::Met;
    }
    let (l1, l2) = classify(statuses, demoted);
    if l1.is_empty() && l2.is_empty() {
        return RoundPlan::Stuck;
    }
    let mut bidders: Vec<(usize, bool)> = l1
        .into_iter()
        .map(|i| (i, true))
        .chain(l2.into_iter().map(|i| (i, false)))
        .collect();
    bidders.sort_by(|a, b| {
        statuses[b.0]
            .headroom
            .total_cmp(&statuses[a.0].headroom)
            .then(a.0.cmp(&b.0))
    });
    let mut excess = p_r - repo_capacity;
    let mut assignments = Vec::new();
    for (i, allow_alloc) in bidders {
        if excess <= EPS {
            break;
        }
        let take = statuses[i].headroom.min(excess);
        assignments.push((i, take, allow_alloc));
        excess -= take;
    }
    RoundPlan::Assign(assignments)
}

/// Round budget the [`StrategyKind::DeadlineBounded`] strategy converges
/// within.
pub const DEADLINE_ROUNDS: usize = 4;

/// Initial reply timeout: 5x the one-way [`crate::offload::BUS_LATENCY`],
/// so one round trip always fits.
pub const TIMEOUT: Secs = Secs(0.5);

/// Resend attempts per exchange before degrading to last-known state.
pub const MAX_RETRIES: u32 = 3;

/// Timeout multiplier per retry (bounded exponential backoff).
pub const BACKOFF: f64 = 2.0;

/// Negotiation protocol configuration: the round-planning strategy and
/// the bus's fault injection. The split rule lives in [`OffloadConfig`];
/// the protocol's timing and retry budget are the constants
/// [`DEADLINE_ROUNDS`], [`TIMEOUT`], [`MAX_RETRIES`] and [`BACKOFF`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NegotiateConfig {
    /// Round-planning strategy.
    pub strategy: StrategyKind,
    /// Control-plane fault injection (drop/duplicate/reorder/jitter).
    pub faults: FaultConfig,
}

impl NegotiateConfig {
    /// Plans round `round` with the configured strategy from the
    /// repository's last-known (possibly stale) view. A pure function of
    /// its arguments — the driver owns all protocol state — so every
    /// strategy stays replayable and fault-agnostic.
    fn plan_round(
        &self,
        statuses: &[StatusReport],
        demoted: &[bool],
        repo_capacity: f64,
        rule: AssignmentRule,
        round: usize,
    ) -> RoundPlan {
        match self.strategy {
            StrategyKind::GreedyProportional => {
                paper_round_plan(statuses, demoted, repo_capacity, rule)
            }
            StrategyKind::DeadlineBounded => {
                deadline_round(statuses, demoted, repo_capacity, rule, round)
            }
            StrategyKind::Auction => auction_round(statuses, demoted, repo_capacity),
        }
    }

    /// Validates the fault injection settings.
    pub fn validate(&self) -> Result<(), String> {
        self.faults.validate()
    }
}

/// What the negotiation did and what it cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NegotiateReport {
    /// Strategy that ran.
    pub strategy: StrategyKind,
    /// Offer/counter rounds executed.
    pub rounds: usize,
    /// Messages resent after timeouts (probes + offers).
    pub retries: u64,
    /// Reply deadlines that expired.
    pub timeouts: u64,
    /// Exchanges the repository gave up on: the silent site's last-known
    /// status was kept and the site demoted to L3.
    pub degraded_sites: u64,
    /// Envelope copies discarded by sequence-number dedup.
    pub duplicates_ignored: u64,
    /// In-order-but-late messages ignored (old-round counters, repeat
    /// statuses); fresher ones still refresh the repository's view.
    pub stale_replies: u64,
    /// Cached counters replayed for retransmitted offers (per-round
    /// idempotence at the sites).
    pub replayed_counters: u64,
    /// Envelopes delivered in total.
    pub messages: u64,
    /// Simulated control-plane time, seconds.
    pub control_time: f64,
    /// `P(R)` before negotiation (believed, from collected statuses).
    pub initial_repo_load: f64,
    /// `P(R)` after — recomputed from the authoritative site states,
    /// not from the possibly stale protocol view.
    pub final_repo_load: f64,
    /// Workload the repository saw confirmed by counters, req/s (lost
    /// counters undercount; `final_repo_load` stays authoritative).
    pub absorbed: f64,
    /// Object swaps performed by storage-full sites.
    pub swaps: usize,
    /// Whether Eq. 9 holds on the authoritative final state.
    pub feasible: bool,
    /// Bus-level fault accounting.
    pub bus: BusStats,
}

impl NegotiateReport {
    /// The stage-4 summary without the protocol-level counters, for
    /// report slots that expect an [`OffloadReport`].
    pub fn as_offload(&self) -> OffloadReport {
        OffloadReport {
            rounds: self.rounds,
            messages: self.messages,
            control_time: self.control_time,
            initial_repo_load: self.initial_repo_load,
            final_repo_load: self.final_repo_load,
            absorbed: self.absorbed,
            swaps: self.swaps,
            feasible: self.feasible,
            dropped: self.bus.dropped,
        }
    }

    /// Rolls per-serving-node reports into one (tree systems).
    /// Negotiations at distinct nodes run concurrently: `rounds` and
    /// `control_time` take the slowest node, counters sum, feasibility
    /// ANDs.
    pub fn aggregate(by_node: &[NegotiateReport]) -> NegotiateReport {
        let mut agg = NegotiateReport {
            strategy: by_node.first().map(|r| r.strategy).unwrap_or_default(),
            feasible: true,
            ..NegotiateReport::default()
        };
        for r in by_node {
            agg.rounds = agg.rounds.max(r.rounds);
            agg.retries += r.retries;
            agg.timeouts += r.timeouts;
            agg.degraded_sites += r.degraded_sites;
            agg.duplicates_ignored += r.duplicates_ignored;
            agg.stale_replies += r.stale_replies;
            agg.replayed_counters += r.replayed_counters;
            agg.messages += r.messages;
            agg.control_time = agg.control_time.max(r.control_time);
            agg.initial_repo_load += r.initial_repo_load;
            agg.final_repo_load += r.final_repo_load;
            agg.absorbed += r.absorbed;
            agg.swaps += r.swaps;
            agg.feasible &= r.feasible;
            agg.bus.sent += r.bus.sent;
            agg.bus.delivered += r.bus.delivered;
            agg.bus.dropped += r.bus.dropped;
            agg.bus.duplicated_extra += r.bus.duplicated_extra;
            agg.bus.reordered += r.bus.reordered;
            agg.bus.jittered += r.bus.jittered;
        }
        agg
    }
}

/// Report plus whether any placement marks changed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NegotiateOutcome {
    /// The negotiation report.
    pub report: NegotiateReport,
    /// Whether any placement marks changed.
    pub changed: bool,
}

/// One site's protocol agent: envelope dedup plus the per-round counter
/// cache that makes offers idempotent.
struct SiteAgent {
    /// Envelope seqs already handled (duplicate copies are discarded).
    seen: HashSet<u64>,
    /// Cached counter per round: `(taken, status, exhausted)`. A resent
    /// offer replays this instead of absorbing again.
    counters: Vec<Option<(f64, StatusReport, bool)>>,
    /// Accept/Abort received.
    done: bool,
}

/// Per-site info-freshness tag: 0 = nothing, 1 = initial status, round
/// `r`'s counter = `r + 2`. Late messages only refresh strictly fresher
/// state.
type Tag = u64;

/// The repository's protocol state.
struct RepoState {
    statuses: Vec<StatusReport>,
    tags: Vec<Tag>,
    demoted: Vec<bool>,
    /// Sites with an outstanding offer this round.
    pending: Vec<bool>,
    current_round: usize,
    round_absorbed: f64,
    seen: HashSet<u64>,
}

/// Counters the driver accumulates into the report.
#[derive(Default)]
struct Tally {
    retries: u64,
    timeouts: u64,
    degraded_sites: u64,
    duplicates_ignored: u64,
    stale_replies: u64,
    replayed_counters: u64,
    swaps: usize,
    changed: bool,
}

/// One negotiation in flight: the bus, both parties' protocol state and
/// the authoritative site states the offers are absorbed into.
struct Session<'s, 'a> {
    bus: MessageBus<NegotiateMsg>,
    works: &'s mut [SiteWork<'a>],
    agents: Vec<SiteAgent>,
    repo: RepoState,
    tally: Tally,
    offload: &'s OffloadConfig,
    /// Worker threads for same-instant absorptions (`0` = one per core).
    threads: usize,
    /// Most envelopes one delivery step takes: 1 for the one-at-a-time
    /// reference the batching is tested against.
    #[cfg(test)]
    max_batch: usize,
}

/// Drives the negotiation over `works` against a repository (or serving
/// node) of capacity `repo_capacity` req/s, with `config.strategy`
/// planning each round. Always terminates: rounds are bounded by
/// [`crate::offload::MAX_ROUNDS`], each exchange by [`MAX_RETRIES`], and the
/// closing drain by fuel. Same-instant absorptions run on one worker per
/// core; the outcome does not depend on the thread count.
pub fn run_negotiation(
    works: &mut [SiteWork<'_>],
    repo_capacity: f64,
    offload: &OffloadConfig,
    config: &NegotiateConfig,
) -> NegotiateOutcome {
    run_negotiation_with_threads(works, repo_capacity, offload, config, 0)
}

/// [`run_negotiation`] with same-instant absorptions fanned out over up
/// to `threads` workers (`0` = one per core).
pub(crate) fn run_negotiation_with_threads(
    works: &mut [SiteWork<'_>],
    repo_capacity: f64,
    offload: &OffloadConfig,
    config: &NegotiateConfig,
    threads: usize,
) -> NegotiateOutcome {
    let session = Session::new(works, offload, config, threads);
    negotiate(session, repo_capacity, config)
}

impl<'s, 'a> Session<'s, 'a> {
    /// A session over `works` before any message is sent.
    fn new(
        works: &'s mut [SiteWork<'a>],
        offload: &'s OffloadConfig,
        config: &NegotiateConfig,
        threads: usize,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid negotiation config: {e}"));
        let n = works.len();
        Session {
            bus: MessageBus::with_faults(BUS_LATENCY, config.faults),
            works,
            agents: (0..n)
                .map(|_| SiteAgent {
                    seen: HashSet::new(),
                    counters: Vec::new(),
                    done: false,
                })
                .collect(),
            repo: RepoState {
                statuses: vec![
                    StatusReport {
                        space: 0,
                        headroom: 0.0,
                        repo_load: 0.0,
                    };
                    n
                ],
                tags: vec![0; n],
                demoted: vec![false; n],
                pending: vec![false; n],
                current_round: 0,
                round_absorbed: 0.0,
                seen: HashSet::new(),
            },
            tally: Tally::default(),
            offload,
            threads,
            #[cfg(test)]
            max_batch: usize::MAX,
        }
    }
}

/// Runs the negotiation `s` was set up for against a repository (or
/// serving node) of capacity `repo_capacity` req/s.
fn negotiate(
    mut s: Session<'_, '_>,
    repo_capacity: f64,
    config: &NegotiateConfig,
) -> NegotiateOutcome {
    let n = s.works.len();
    let offload = s.offload;

    // Phase A — status collection. Sites report proactively; the
    // repository probes whoever stays silent, and after the retry budget
    // falls back to its last-known model of the site: the state it
    // computed when it handed out the placement, which is exactly
    // `status_of` before any absorption has run.
    for w in s.works.iter() {
        s.bus.send(
            Endpoint::Site(w.site()),
            Endpoint::Repository,
            NegotiateMsg::Status(status_of(w)),
        );
    }
    let mut attempt = 0u32;
    loop {
        let deadline = s.bus.now().after(backoff_timeout(attempt));
        s.pump(deadline, |repo| repo.tags.iter().all(|&t| t > 0));
        if s.repo.tags.iter().all(|&t| t > 0) {
            break;
        }
        s.bus.advance_to(deadline);
        s.tally.timeouts += 1;
        if attempt >= MAX_RETRIES {
            for (i, work) in s.works.iter().enumerate() {
                if s.repo.tags[i] == 0 {
                    s.repo.statuses[i] = status_of(work);
                    s.repo.tags[i] = 1;
                    s.tally.degraded_sites += 1;
                }
            }
            break;
        }
        for (i, work) in s.works.iter().enumerate() {
            if s.repo.tags[i] == 0 {
                s.bus.send(
                    Endpoint::Repository,
                    Endpoint::Site(work.site()),
                    NegotiateMsg::Probe,
                );
                s.tally.retries += 1;
            }
        }
        attempt += 1;
    }

    let initial_repo_load: f64 = s.repo.statuses.iter().map(|st| st.repo_load).sum();
    let mut rounds = 0usize;
    let mut absorbed_total = 0.0f64;
    let mut believed_feasible = true;

    // Phase B — offer/counter rounds.
    loop {
        let p_r: f64 = s.repo.statuses.iter().map(|st| st.repo_load).sum();
        if p_r <= repo_capacity + EPS {
            break;
        }
        if rounds >= MAX_ROUNDS {
            believed_feasible = false;
            break;
        }
        let assignments = match config.plan_round(
            &s.repo.statuses,
            &s.repo.demoted,
            repo_capacity,
            offload.assignment,
            rounds,
        ) {
            RoundPlan::Met => break, // unreachable: checked above
            RoundPlan::Stuck => {
                believed_feasible = false;
                break;
            }
            RoundPlan::Assign(a) => a,
        };
        let _round_span = mmrepl_obs::span("negotiate.round");

        s.repo.current_round = rounds;
        s.repo.round_absorbed = 0.0;
        s.repo.pending.iter_mut().for_each(|p| *p = false);
        for &(i, amount, allow_alloc) in &assignments {
            s.repo.pending[i] = true;
            s.bus.send(
                Endpoint::Repository,
                Endpoint::Site(s.works[i].site()),
                NegotiateMsg::Offer {
                    round: rounds,
                    attempt: 0,
                    amount,
                    allow_alloc,
                },
            );
        }
        let mut attempt = 0u32;
        loop {
            let deadline = s.bus.now().after(backoff_timeout(attempt));
            s.pump(deadline, |repo| !repo.pending.iter().any(|&p| p));
            if !s.repo.pending.iter().any(|&p| p) {
                break;
            }
            s.bus.advance_to(deadline);
            s.tally.timeouts += 1;
            if attempt >= MAX_RETRIES {
                // Degrade: keep the silent sites' last-known statuses
                // (stale at worst overestimates their repository load —
                // a lost counter hides an absorption, never invents one)
                // and demote them to L3 for the remaining rounds.
                for i in 0..n {
                    if s.repo.pending[i] {
                        s.repo.pending[i] = false;
                        s.repo.demoted[i] = true;
                        s.tally.degraded_sites += 1;
                    }
                }
                break;
            }
            for &(i, amount, allow_alloc) in &assignments {
                if s.repo.pending[i] {
                    s.bus.send(
                        Endpoint::Repository,
                        Endpoint::Site(s.works[i].site()),
                        NegotiateMsg::Offer {
                            round: rounds,
                            attempt: attempt + 1,
                            amount,
                            allow_alloc,
                        },
                    );
                    s.tally.retries += 1;
                }
            }
            attempt += 1;
        }

        rounds += 1;
        absorbed_total += s.repo.round_absorbed;
        if s.repo.round_absorbed <= EPS {
            // Nobody moved (or every counter was lost): terminate rather
            // than spin.
            believed_feasible =
                s.repo.statuses.iter().map(|st| st.repo_load).sum::<f64>() <= repo_capacity + EPS;
            break;
        }
    }

    // Close the session either way, then drain the bus with fuel — a
    // still-in-flight duplicated offer can trigger one cached-counter
    // replay each, so the cascade is one level deep and the fuel bound
    // is belt-and-braces.
    let settle_span = mmrepl_obs::span("negotiate.settle");
    let closing = if believed_feasible {
        NegotiateMsg::Accept
    } else {
        NegotiateMsg::Abort
    };
    for w in s.works.iter() {
        s.bus
            .send(Endpoint::Repository, Endpoint::Site(w.site()), closing);
    }
    let fuel = s.bus.in_flight() * 4 + 16 * n + 64;
    let _left = s.drain(fuel);
    drop(settle_span);

    // The report's final view is authoritative, not the protocol's
    // belief: recompute Eq. 9 from the actual site states.
    let final_repo_load: f64 = s.works.iter().map(|w| w.repo_load()).sum();
    let tally = &s.tally;
    let report = NegotiateReport {
        strategy: config.strategy,
        rounds,
        retries: tally.retries,
        timeouts: tally.timeouts,
        degraded_sites: tally.degraded_sites,
        duplicates_ignored: tally.duplicates_ignored,
        stale_replies: tally.stale_replies,
        replayed_counters: tally.replayed_counters,
        messages: s.bus.stats().delivered,
        control_time: s.bus.now().get(),
        initial_repo_load,
        final_repo_load,
        absorbed: absorbed_total,
        swaps: tally.swaps,
        feasible: final_repo_load <= repo_capacity + EPS,
        bus: s.bus.stats(),
    };
    if mmrepl_obs::enabled() {
        mmrepl_obs::add("negotiate.rounds", report.rounds as u64);
        mmrepl_obs::add("negotiate.retries", report.retries);
        mmrepl_obs::add("negotiate.timeouts", report.timeouts);
        mmrepl_obs::add("negotiate.degraded_sites", report.degraded_sites);
        mmrepl_obs::add("negotiate.duplicates_ignored", report.duplicates_ignored);
        mmrepl_obs::add("negotiate.messages", report.messages);
        mmrepl_obs::record_value("negotiate.absorbed_reqps", report.absorbed);
        // The bus's cost, once per run: this is its only user.
        let bus = &report.bus;
        mmrepl_obs::add("netsim.bus.sent", bus.sent);
        mmrepl_obs::add("netsim.bus.delivered", bus.delivered);
        mmrepl_obs::add("netsim.bus.dropped", bus.dropped);
        mmrepl_obs::add("netsim.bus.duplicated", bus.duplicated_extra);
        mmrepl_obs::add("netsim.bus.reordered", bus.reordered);
        mmrepl_obs::set_gauge("netsim.bus.in_flight", s.bus.in_flight() as f64);
        mmrepl_obs::flush_thread();
    }
    NegotiateOutcome {
        report,
        changed: tally.changed,
    }
}

/// The retry deadline grows exponentially but stays bounded (the
/// exponent caps at 16 doublings — far beyond any real retry budget —
/// so the deadline cannot overflow to infinity).
fn backoff_timeout(attempt: u32) -> f64 {
    TIMEOUT.get() * BACKOFF.powi(attempt.min(16) as i32)
}

/// Position of `site`'s state in `works`.
fn site_index(works: &[SiteWork<'_>], site: SiteId) -> usize {
    works
        .iter()
        .position(|w| w.site() == site)
        .expect("message for unknown site")
}

/// A delivered site-bound offer: the addressee's index in `works`, the
/// envelope's sequence number and the proposal.
struct Offered {
    site: usize,
    seq: u64,
    round: usize,
    amount: f64,
    allow_alloc: bool,
}

/// What a site does with one delivered offer, decided before any
/// absorption of its batch runs.
enum OfferAction {
    /// A duplicate copy: discarded.
    Ignore,
    /// A resent offer for a round already absorbed: replay the counter.
    Reply((f64, StatusReport, bool)),
    /// A fresh offer: the batch's `k`-th absorption answers it.
    Absorb(usize),
}

impl Session<'_, '_> {
    /// Delivers every message due at or before `deadline`, stopping early
    /// when `done` says the repository got what it was waiting for.
    fn pump(&mut self, deadline: SimTime, done: impl Fn(&RepoState) -> bool) {
        while !done(&self.repo) {
            match self.bus.peek_time() {
                Some(t) if t <= deadline => {
                    self.step(usize::MAX);
                }
                _ => break,
            }
        }
    }

    /// Fuel-bounded closing drain; returns messages left in flight.
    fn drain(&mut self, fuel: usize) -> usize {
        let mut left = fuel;
        while left > 0 {
            match self.step(left) {
                0 => return 0,
                delivered => left -= delivered,
            }
        }
        self.bus.in_flight()
    }

    /// Delivers and handles the next envelope — or, when it is a
    /// site-bound offer, the run of up to `max` offers due at that same
    /// instant for distinct sites. Returns the envelopes delivered (0 =
    /// the bus is empty).
    ///
    /// Batching is exact. Handling a site-bound message changes nothing
    /// the repository's `done` predicates read, and every reply it sends
    /// is queued behind the whole run (later sequence, same or later
    /// time), so no reply could have been delivered inside the run. The
    /// absorptions of distinct sites touch disjoint states, and the
    /// replies go out in delivery order, so bus sequence numbers and
    /// fault draws match one-at-a-time delivery.
    fn step(&mut self, max: usize) -> usize {
        #[cfg(test)]
        let max = max.min(self.max_batch);
        let mut batch: Vec<Offered> = Vec::new();
        let mut instant = None;
        while batch.len() < max {
            let Some(env) = self.bus.peek() else {
                break;
            };
            let (
                Endpoint::Site(site),
                NegotiateMsg::Offer {
                    round,
                    amount,
                    allow_alloc,
                    ..
                },
            ) = (env.to, env.payload)
            else {
                break;
            };
            if *instant.get_or_insert(env.deliver_at) != env.deliver_at {
                break;
            }
            let i = site_index(self.works, site);
            if batch.iter().any(|o| o.site == i) {
                break;
            }
            let seq = self.bus.deliver_next().expect("peeked").seq;
            batch.push(Offered {
                site: i,
                seq,
                round,
                amount,
                allow_alloc,
            });
        }
        if batch.is_empty() {
            let Some(env) = self.bus.deliver_next() else {
                return 0;
            };
            self.handle(env);
            return 1;
        }
        let delivered = batch.len();
        self.handle_offers(&batch);
        delivered
    }

    /// Site-side handling of a batch of offers to distinct sites: dedup
    /// and the counter cache in delivery order, then the fresh
    /// absorptions on the worker pool, then every counter in delivery
    /// order.
    fn handle_offers(&mut self, batch: &[Offered]) {
        let mut fresh: Vec<(usize, f64, bool)> = Vec::new();
        let actions: Vec<OfferAction> = batch
            .iter()
            .map(|o| {
                let agent = &mut self.agents[o.site];
                if !agent.seen.insert(o.seq) {
                    self.tally.duplicates_ignored += 1;
                    return OfferAction::Ignore;
                }
                if agent.counters.len() <= o.round {
                    agent.counters.resize(o.round + 1, None);
                }
                match agent.counters[o.round] {
                    // A retransmitted offer for a round this site already
                    // absorbed: replay the cached counter verbatim —
                    // absorbing twice would double-take.
                    Some(cached) => {
                        self.tally.replayed_counters += 1;
                        OfferAction::Reply(cached)
                    }
                    None => {
                        fresh.push((o.site, o.amount, o.allow_alloc));
                        OfferAction::Absorb(fresh.len() - 1)
                    }
                }
            })
            .collect();

        let results = self.absorb_all(&fresh);

        for (o, action) in batch.iter().zip(actions) {
            let (taken, status, exhausted) = match action {
                OfferAction::Ignore => continue,
                OfferAction::Reply(cached) => cached,
                OfferAction::Absorb(k) => {
                    let (result, status) = results[k];
                    self.tally.swaps += result.swaps;
                    if result.absorbed > EPS {
                        self.tally.changed = true;
                    }
                    let reply = (result.absorbed, status, result.exhausted);
                    self.agents[o.site].counters[o.round] = Some(reply);
                    reply
                }
            };
            self.bus.send(
                Endpoint::Site(self.works[o.site].site()),
                Endpoint::Repository,
                NegotiateMsg::Counter {
                    round: o.round,
                    taken,
                    status,
                    exhausted,
                },
            );
        }
    }

    /// Runs `(site index, amount, allow_alloc)` absorptions — distinct
    /// sites — on the worker pool, returning each result with the site's
    /// post-absorption status, in job order.
    fn absorb_all(&mut self, jobs: &[(usize, f64, bool)]) -> Vec<(AbsorbResult, StatusReport)> {
        let mut slots: Vec<Option<&mut SiteWork<'_>>> = self.works.iter_mut().map(Some).collect();
        let works: Vec<Mutex<&mut SiteWork<'_>>> = jobs
            .iter()
            .map(|&(i, _, _)| Mutex::new(slots[i].take().expect("one job per site")))
            .collect();
        parallel_map(jobs.len(), self.threads, |k| {
            let (_, amount, allow_alloc) = jobs[k];
            let mut guard = works[k].lock().expect("absorption job poisoned");
            let work: &mut SiteWork<'_> = &mut guard;
            let swaps = if allow_alloc { 0 } else { MAX_SWAPS };
            let result = absorb_workload(work, amount, allow_alloc, swaps);
            #[cfg(debug_assertions)]
            crate::audit::hook(work, crate::audit::AuditStage::OffloadRound);
            (result, status_of(work))
        })
    }

    /// Dispatches one delivered envelope (anything but a site-bound
    /// offer, which [`Session::handle_offers`] takes) to its party's
    /// state machine.
    fn handle(&mut self, env: Envelope<NegotiateMsg>) {
        match env.to {
            Endpoint::Site(site) => {
                let i = site_index(self.works, site);
                if !self.agents[i].seen.insert(env.seq) {
                    self.tally.duplicates_ignored += 1;
                    return;
                }
                match env.payload {
                    NegotiateMsg::Probe => {
                        // Idempotent read: always answer with fresh status.
                        self.bus.send(
                            Endpoint::Site(site),
                            Endpoint::Repository,
                            NegotiateMsg::Status(status_of(&self.works[i])),
                        );
                    }
                    NegotiateMsg::Offer { .. } => {
                        unreachable!("site-bound offers go through handle_offers")
                    }
                    NegotiateMsg::Accept | NegotiateMsg::Abort => self.agents[i].done = true,
                    // Site-bound Status/Counter never happens; ignore.
                    NegotiateMsg::Status(_) | NegotiateMsg::Counter { .. } => {
                        self.tally.stale_replies += 1;
                    }
                }
            }
            Endpoint::Repository => {
                let Endpoint::Site(site) = env.from else {
                    self.tally.stale_replies += 1;
                    return;
                };
                let i = site_index(self.works, site);
                let (repo, tally) = (&mut self.repo, &mut self.tally);
                if !repo.seen.insert(env.seq) {
                    tally.duplicates_ignored += 1;
                    return;
                }
                match env.payload {
                    NegotiateMsg::Status(st) => {
                        if repo.tags[i] == 0 {
                            repo.statuses[i] = st;
                            repo.tags[i] = 1;
                        } else {
                            tally.stale_replies += 1;
                        }
                    }
                    NegotiateMsg::Counter {
                        round,
                        taken,
                        status,
                        exhausted,
                    } => {
                        let tag: Tag = round as Tag + 2;
                        if round == repo.current_round && repo.pending[i] {
                            repo.pending[i] = false;
                            repo.statuses[i] = status;
                            repo.tags[i] = tag;
                            if exhausted {
                                repo.demoted[i] = true;
                            }
                            repo.round_absorbed += taken;
                        } else {
                            // Late counter (the exchange already timed out
                            // or this is a replay): it still carries the
                            // site's freshest state — refresh the view if
                            // it is strictly newer, but never un-demote.
                            tally.stale_replies += 1;
                            if tag > repo.tags[i] {
                                repo.statuses[i] = status;
                                repo.tags[i] = tag;
                                if exhausted {
                                    repo.demoted[i] = true;
                                }
                            }
                        }
                    }
                    // Repository-bound Probe/Offer/Accept/Abort never
                    // happens; ignore.
                    _ => tally.stale_replies += 1,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::restore_capacity;
    use crate::partition::partition_all;
    use crate::storage::restore_storage;
    use mmrepl_model::{CostParams, System};
    use mmrepl_workload::{generate_system, WorkloadParams};

    fn restored_works(sys: &System) -> Vec<SiteWork<'_>> {
        let placement = partition_all(sys);
        sys.sites()
            .ids()
            .map(|s| {
                let mut w = SiteWork::new(sys, s, &placement, CostParams::default());
                restore_storage(&mut w);
                restore_capacity(&mut w);
                w
            })
            .collect()
    }

    fn site_fingerprints(works: &[SiteWork<'_>]) -> Vec<(u64, u64, u64, u64)> {
        works
            .iter()
            .map(|w| {
                (
                    w.load().to_bits(),
                    w.repo_load().to_bits(),
                    w.space_left(),
                    w.total_d().to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn lossy_bus_terminates_and_preserves_feasibility_invariants() {
        for seed in 0..8u64 {
            let sys = generate_system(&WorkloadParams::small(), 2)
                .unwrap()
                .with_processing_fraction(1.2);
            let mut works = restored_works(&sys);
            let initial: f64 = works.iter().map(|w| w.repo_load()).sum();
            let cap = initial * 0.7;
            let config = NegotiateConfig {
                faults: FaultConfig::lossy(seed),
                ..NegotiateConfig::default()
            };
            let neg = run_negotiation(&mut works, cap, &OffloadConfig::default(), &config);
            // Eq. 8 + 10 are site-local and must hold under every fault
            // mix; Eq. 9 feasibility must be reported from the
            // authoritative state.
            for w in &works {
                assert!(
                    w.load() <= w.capacity() + 1e-6,
                    "Eq. 8 broken (seed {seed})"
                );
                assert!(
                    w.storage_used() <= w.storage_capacity(),
                    "Eq. 10 broken (seed {seed})"
                );
                w.validate_consistency();
            }
            let actual: f64 = works.iter().map(|w| w.repo_load()).sum();
            assert!(
                (neg.report.final_repo_load - actual).abs() < 1e-9,
                "final_repo_load not authoritative (seed {seed})"
            );
            assert_eq!(neg.report.feasible, actual <= cap + EPS, "seed {seed}");
            // The accounting ledger closes.
            let st = neg.report.bus;
            assert_eq!(st.sent + st.duplicated_extra, st.delivered + st.dropped);
        }
    }

    #[test]
    fn chaos_bus_terminates_for_every_strategy() {
        for strategy in [
            StrategyKind::GreedyProportional,
            StrategyKind::DeadlineBounded,
            StrategyKind::Auction,
        ] {
            for seed in [3u64, 17, 99] {
                let sys = generate_system(&WorkloadParams::small(), 4)
                    .unwrap()
                    .with_processing_fraction(1.3);
                let mut works = restored_works(&sys);
                let initial: f64 = works.iter().map(|w| w.repo_load()).sum();
                let config = NegotiateConfig {
                    strategy,
                    faults: FaultConfig::chaos(seed),
                };
                let neg = run_negotiation(
                    &mut works,
                    initial * 0.8,
                    &OffloadConfig::default(),
                    &config,
                );
                assert!(neg.report.rounds <= MAX_ROUNDS);
                for w in &works {
                    assert!(w.load() <= w.capacity() + 1e-6);
                    assert!(w.storage_used() <= w.storage_capacity());
                    w.validate_consistency();
                }
            }
        }
    }

    #[test]
    fn total_silence_degrades_to_last_known_state() {
        // Nearly every message drops (the bus requires drop < 1.0, so
        // 0.99), exhausting the retry budget. With nothing delivered, the
        // repository falls back to its own model of every site and the
        // negotiation still terminates with a sane report.
        let sys = generate_system(&WorkloadParams::small(), 5)
            .unwrap()
            .with_processing_fraction(1.2);
        let mut works = restored_works(&sys);
        let initial: f64 = works.iter().map(|w| w.repo_load()).sum();
        let cap = initial * 0.7;
        let config = NegotiateConfig {
            faults: FaultConfig {
                drop: 0.99,
                duplicate: 0.0,
                reorder: 0.0,
                jitter: Secs(0.0),
                seed: 11,
            },
            ..NegotiateConfig::default()
        };
        let neg = run_negotiation(&mut works, cap, &OffloadConfig::default(), &config);
        assert!(neg.report.timeouts > 0 || neg.report.bus.dropped == 0);
        let actual: f64 = works.iter().map(|w| w.repo_load()).sum();
        assert!((neg.report.final_repo_load - actual).abs() < 1e-9);
        for w in &works {
            w.validate_consistency();
        }
    }

    #[test]
    fn duplicated_offers_absorb_exactly_once() {
        // Heavy duplication, zero loss: every offer may arrive twice, but
        // the per-round counter cache means each round absorbs once — so
        // the outcome must be bit-identical to the reliable run.
        let sys = generate_system(&WorkloadParams::small(), 2)
            .unwrap()
            .with_processing_fraction(1.2);
        let mut reliable_works = restored_works(&sys);
        let initial: f64 = reliable_works.iter().map(|w| w.repo_load()).sum();
        let cap = initial * 0.7;
        let reliable = run_negotiation(
            &mut reliable_works,
            cap,
            &OffloadConfig::default(),
            &NegotiateConfig::default(),
        );

        let mut dup_works = restored_works(&sys);
        let config = NegotiateConfig {
            faults: FaultConfig {
                drop: 0.0,
                duplicate: 0.9,
                reorder: 0.0,
                jitter: Secs(0.0),
                seed: 21,
            },
            ..NegotiateConfig::default()
        };
        let dup = run_negotiation(&mut dup_works, cap, &OffloadConfig::default(), &config);
        assert!(dup.report.duplicates_ignored > 0, "{:?}", dup.report);
        assert_eq!(
            site_fingerprints(&reliable_works),
            site_fingerprints(&dup_works)
        );
        assert_eq!(dup.report.rounds, reliable.report.rounds);
        assert!((dup.report.absorbed - reliable.report.absorbed).abs() < 1e-12);
    }

    #[test]
    fn batched_delivery_matches_one_envelope_at_a_time() {
        // Same-instant offers absorbed together on the pool must leave
        // every site, every counter and the bus exactly as delivering one
        // envelope at a time does — on the reliable bus (one batch per
        // round) and on duplicating, reordering and jitter-free lossy
        // buses, where batches shrink, duplicates and replays ride along,
        // and which counter a fault draw hits depends on send order.
        let mut params = WorkloadParams::small();
        params.n_sites = 8;
        params.n_objects = 1600;
        let sys = generate_system(&params, 2)
            .unwrap()
            .with_processing_fraction(1.2);
        let initial: f64 = restored_works(&sys).iter().map(|w| w.repo_load()).sum();
        let cap = initial * 0.7;
        let mut buses = vec![FaultConfig::reliable()];
        for seed in 0..6u64 {
            for drop in [0.0, 0.2] {
                buses.push(FaultConfig {
                    drop,
                    duplicate: 0.3,
                    reorder: 0.3,
                    jitter: Secs(0.0),
                    seed,
                });
            }
        }
        for faults in buses {
            let config = NegotiateConfig {
                faults,
                ..NegotiateConfig::default()
            };
            let offload = OffloadConfig::default();
            let run = |threads: usize, max_batch: usize| {
                let mut works = restored_works(&sys);
                let mut session = Session::new(&mut works, &offload, &config, threads);
                session.max_batch = max_batch;
                let out = negotiate(session, cap, &config);
                (out.report, out.changed, site_fingerprints(&works))
            };
            let reference = run(1, 1);
            assert!(reference.0.rounds > 0, "{faults:?}: nothing negotiated");
            for threads in [1, 2, 4] {
                assert_eq!(
                    run(threads, usize::MAX),
                    reference,
                    "{faults:?}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn negotiation_is_deterministic_per_seed() {
        let sys = generate_system(&WorkloadParams::small(), 8)
            .unwrap()
            .with_processing_fraction(1.3);
        let run = |seed: u64| {
            let mut works = restored_works(&sys);
            let initial: f64 = works.iter().map(|w| w.repo_load()).sum();
            let config = NegotiateConfig {
                faults: FaultConfig::lossy(seed),
                ..NegotiateConfig::default()
            };
            let o = run_negotiation(
                &mut works,
                initial * 0.75,
                &OffloadConfig::default(),
                &config,
            );
            (o.report, site_fingerprints(&works))
        };
        let (ra, fa) = run(7);
        let (rb, fb) = run(7);
        assert_eq!(ra, rb);
        assert_eq!(fa, fb);
    }

    #[test]
    fn deadline_strategy_converges_in_fewer_or_equal_rounds() {
        let sys = generate_system(&WorkloadParams::small(), 9)
            .unwrap()
            .with_processing_fraction(1.4);
        let run = |strategy: StrategyKind| {
            let mut works = restored_works(&sys);
            let initial: f64 = works.iter().map(|w| w.repo_load()).sum();
            let config = NegotiateConfig {
                strategy,
                ..NegotiateConfig::default()
            };
            run_negotiation(
                &mut works,
                initial * 0.6,
                &OffloadConfig::default(),
                &config,
            )
            .report
        };
        let greedy = run(StrategyKind::GreedyProportional);
        let deadline = run(StrategyKind::DeadlineBounded);
        assert!(greedy.feasible);
        assert!(deadline.feasible);
        assert!(
            deadline.rounds <= greedy.rounds,
            "deadline {} rounds vs greedy {}",
            deadline.rounds,
            greedy.rounds
        );
    }

    #[test]
    fn auction_restores_the_constraint() {
        let sys = generate_system(&WorkloadParams::small(), 10)
            .unwrap()
            .with_processing_fraction(1.4);
        let mut works = restored_works(&sys);
        let initial: f64 = works.iter().map(|w| w.repo_load()).sum();
        let cap = initial * 0.7;
        let config = NegotiateConfig {
            strategy: StrategyKind::Auction,
            ..NegotiateConfig::default()
        };
        let neg = run_negotiation(&mut works, cap, &OffloadConfig::default(), &config);
        assert!(neg.report.feasible, "{:?}", neg.report);
        let actual: f64 = works.iter().map(|w| w.repo_load()).sum();
        assert!(actual <= cap + 1e-6);
        for w in &works {
            w.validate_consistency();
        }
    }

    #[test]
    fn strategy_names_round_trip() {
        for k in [
            StrategyKind::GreedyProportional,
            StrategyKind::DeadlineBounded,
            StrategyKind::Auction,
        ] {
            assert_eq!(StrategyKind::parse(k.name()), Some(k));
        }
        assert_eq!(StrategyKind::parse("nope"), None);
    }
}
