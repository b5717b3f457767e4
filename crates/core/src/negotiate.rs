//! The off-loading protocol: `OFF_LOADING_REPOSITORY` as typed
//! proposal/counter-proposal messages over the netsim control plane,
//! robust to the bus's seeded fault injection
//! ([`mmrepl_netsim::FaultConfig`]). With the default configuration —
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

use crate::offload::{
    absorb_workload, classify, paper_round_plan, status_of, AssignmentRule, OffloadConfig,
    OffloadReport, RoundPlan, StatusReport, EPS,
};
use crate::state::SiteWork;
use mmrepl_model::{Secs, SiteId};
use mmrepl_netsim::{BusStats, Endpoint, Envelope, FaultConfig, MessageBus, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

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
    /// [`NegotiateConfig::deadline_rounds`].
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
/// within `deadline_rounds`. Round `round` scales the paper's
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
    deadline_rounds: usize,
    round: usize,
) -> RoundPlan {
    let base = paper_round_plan(statuses, demoted, repo_capacity, rule);
    let RoundPlan::Assign(assignments) = base else {
        return base;
    };
    let deadline = deadline_rounds.max(1);
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

/// Negotiation protocol knobs, layered on top of [`OffloadConfig`]
/// (which keeps owning latency, `max_rounds`, `max_swaps` and the split
/// rule).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NegotiateConfig {
    /// Round-planning strategy.
    pub strategy: StrategyKind,
    /// Round budget the [`StrategyKind::DeadlineBounded`] strategy
    /// converges within (ignored by the other strategies).
    pub deadline_rounds: usize,
    /// Control-plane fault injection (drop/duplicate/reorder/jitter).
    pub faults: FaultConfig,
    /// Initial reply timeout. Must exceed one round trip or every
    /// exchange times out spuriously; the default is 5× the default
    /// one-way latency.
    pub timeout: Secs,
    /// Resend attempts per exchange before degrading to last-known
    /// state.
    pub max_retries: u32,
    /// Timeout multiplier per retry (bounded exponential backoff).
    pub backoff: f64,
}

impl Default for NegotiateConfig {
    fn default() -> Self {
        NegotiateConfig {
            strategy: StrategyKind::GreedyProportional,
            deadline_rounds: 4,
            faults: FaultConfig::reliable(),
            timeout: Secs(0.5),
            max_retries: 3,
            backoff: 2.0,
        }
    }
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
            StrategyKind::DeadlineBounded => deadline_round(
                statuses,
                demoted,
                repo_capacity,
                rule,
                self.deadline_rounds,
                round,
            ),
            StrategyKind::Auction => auction_round(statuses, demoted, repo_capacity),
        }
    }

    /// Validates the knobs.
    pub fn validate(&self) -> Result<(), String> {
        self.faults.validate()?;
        if !(self.timeout.is_valid() && self.timeout.get() > 0.0) {
            return Err(format!(
                "negotiation timeout {:?} must be > 0",
                self.timeout
            ));
        }
        if !(self.backoff.is_finite() && self.backoff >= 1.0) {
            return Err(format!("backoff {} must be >= 1", self.backoff));
        }
        Ok(())
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

/// Drives the negotiation over `works` against a repository (or serving
/// node) of capacity `repo_capacity` req/s, with `config.strategy`
/// planning each round. Always terminates: rounds are bounded by
/// `offload.max_rounds`, each exchange by `config.max_retries`, and the
/// closing drain by fuel.
pub fn run_negotiation(
    works: &mut [SiteWork<'_>],
    repo_capacity: f64,
    offload: &OffloadConfig,
    config: &NegotiateConfig,
) -> NegotiateOutcome {
    config
        .validate()
        .unwrap_or_else(|e| panic!("invalid negotiation config: {e}"));
    let n = works.len();
    let mut bus: MessageBus<NegotiateMsg> =
        MessageBus::with_faults(offload.bus_latency, config.faults);
    let mut agents: Vec<SiteAgent> = (0..n)
        .map(|_| SiteAgent {
            seen: HashSet::new(),
            counters: Vec::new(),
            done: false,
        })
        .collect();
    let mut repo = RepoState {
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
    };
    let mut tally = Tally::default();

    // Phase A — status collection. Sites report proactively; the
    // repository probes whoever stays silent, and after the retry budget
    // falls back to its last-known model of the site: the state it
    // computed when it handed out the placement, which is exactly
    // `status_of` before any absorption has run.
    for w in works.iter() {
        bus.send(
            Endpoint::Site(w.site()),
            Endpoint::Repository,
            NegotiateMsg::Status(status_of(w)),
        );
    }
    let mut attempt = 0u32;
    loop {
        let deadline = bus.now().after(backoff_timeout(config, attempt));
        pump(
            &mut bus,
            works,
            &mut agents,
            &mut repo,
            &mut tally,
            offload,
            deadline,
            |repo| repo.tags.iter().all(|&t| t > 0),
        );
        if repo.tags.iter().all(|&t| t > 0) {
            break;
        }
        bus.advance_to(deadline);
        tally.timeouts += 1;
        if attempt >= config.max_retries {
            for (i, work) in works.iter().enumerate().take(n) {
                if repo.tags[i] == 0 {
                    repo.statuses[i] = status_of(work);
                    repo.tags[i] = 1;
                    tally.degraded_sites += 1;
                }
            }
            break;
        }
        for (i, work) in works.iter().enumerate().take(n) {
            if repo.tags[i] == 0 {
                bus.send(
                    Endpoint::Repository,
                    Endpoint::Site(work.site()),
                    NegotiateMsg::Probe,
                );
                tally.retries += 1;
            }
        }
        attempt += 1;
    }

    let initial_repo_load: f64 = repo.statuses.iter().map(|s| s.repo_load).sum();
    let mut rounds = 0usize;
    let mut absorbed_total = 0.0f64;
    let mut believed_feasible = true;

    // Phase B — offer/counter rounds.
    loop {
        let p_r: f64 = repo.statuses.iter().map(|s| s.repo_load).sum();
        if p_r <= repo_capacity + EPS {
            break;
        }
        if rounds >= offload.max_rounds {
            believed_feasible = false;
            break;
        }
        let assignments = match config.plan_round(
            &repo.statuses,
            &repo.demoted,
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

        repo.current_round = rounds;
        repo.round_absorbed = 0.0;
        repo.pending.iter_mut().for_each(|p| *p = false);
        for &(i, amount, allow_alloc) in &assignments {
            repo.pending[i] = true;
            bus.send(
                Endpoint::Repository,
                Endpoint::Site(works[i].site()),
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
            let deadline = bus.now().after(backoff_timeout(config, attempt));
            pump(
                &mut bus,
                works,
                &mut agents,
                &mut repo,
                &mut tally,
                offload,
                deadline,
                |repo| !repo.pending.iter().any(|&p| p),
            );
            if !repo.pending.iter().any(|&p| p) {
                break;
            }
            bus.advance_to(deadline);
            tally.timeouts += 1;
            if attempt >= config.max_retries {
                // Degrade: keep the silent sites' last-known statuses
                // (stale at worst overestimates their repository load —
                // a lost counter hides an absorption, never invents one)
                // and demote them to L3 for the remaining rounds.
                for i in 0..n {
                    if repo.pending[i] {
                        repo.pending[i] = false;
                        repo.demoted[i] = true;
                        tally.degraded_sites += 1;
                    }
                }
                break;
            }
            for &(i, amount, allow_alloc) in &assignments {
                if repo.pending[i] {
                    bus.send(
                        Endpoint::Repository,
                        Endpoint::Site(works[i].site()),
                        NegotiateMsg::Offer {
                            round: rounds,
                            attempt: attempt + 1,
                            amount,
                            allow_alloc,
                        },
                    );
                    tally.retries += 1;
                }
            }
            attempt += 1;
        }

        rounds += 1;
        absorbed_total += repo.round_absorbed;
        if repo.round_absorbed <= EPS {
            // Nobody moved (or every counter was lost): terminate rather
            // than spin.
            believed_feasible =
                repo.statuses.iter().map(|s| s.repo_load).sum::<f64>() <= repo_capacity + EPS;
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
    for w in works.iter() {
        bus.send(Endpoint::Repository, Endpoint::Site(w.site()), closing);
    }
    let fuel = bus.in_flight() * 4 + 16 * n + 64;
    let _left = drain_with_handler(
        &mut bus,
        works,
        &mut agents,
        &mut repo,
        &mut tally,
        offload,
        fuel,
    );
    drop(settle_span);

    // The report's final view is authoritative, not the protocol's
    // belief: recompute Eq. 9 from the actual site states.
    let final_repo_load: f64 = works.iter().map(|w| w.repo_load()).sum();
    let report = NegotiateReport {
        strategy: config.strategy,
        rounds,
        retries: tally.retries,
        timeouts: tally.timeouts,
        degraded_sites: tally.degraded_sites,
        duplicates_ignored: tally.duplicates_ignored,
        stale_replies: tally.stale_replies,
        replayed_counters: tally.replayed_counters,
        messages: bus.stats().delivered,
        control_time: bus.now().get(),
        initial_repo_load,
        final_repo_load,
        absorbed: absorbed_total,
        swaps: tally.swaps,
        feasible: final_repo_load <= repo_capacity + EPS,
        bus: bus.stats(),
    };
    if mmrepl_obs::enabled() {
        mmrepl_obs::add("negotiate.rounds", report.rounds as u64);
        mmrepl_obs::add("negotiate.retries", report.retries);
        mmrepl_obs::add("negotiate.timeouts", report.timeouts);
        mmrepl_obs::add("negotiate.degraded_sites", report.degraded_sites);
        mmrepl_obs::add("negotiate.duplicates_ignored", report.duplicates_ignored);
        mmrepl_obs::add("negotiate.messages", report.messages);
        mmrepl_obs::record_value("negotiate.absorbed_reqps", report.absorbed);
        // Live mirrors of the same tallies for the telemetry plane.
        mmrepl_obs::counter_add("negotiate.rounds", report.rounds as u64);
        mmrepl_obs::counter_add("negotiate.retries", report.retries);
        mmrepl_obs::counter_add("negotiate.timeouts", report.timeouts);
        mmrepl_obs::counter_add("negotiate.degraded_sites", report.degraded_sites);
        mmrepl_obs::counter_add("negotiate.duplicates_ignored", report.duplicates_ignored);
        mmrepl_obs::counter_add("negotiate.messages", report.messages);
    }
    NegotiateOutcome {
        report,
        changed: tally.changed,
    }
}

/// The retry deadline grows exponentially but stays bounded (the
/// exponent caps at 16 doublings — far beyond any real retry budget —
/// so a misconfigured backoff cannot overflow to infinity).
fn backoff_timeout(config: &NegotiateConfig, attempt: u32) -> f64 {
    config.timeout.get() * config.backoff.powi(attempt.min(16) as i32)
}

/// Delivers every message due at or before `deadline`, stopping early
/// when `done` says the repository got what it was waiting for.
#[allow(clippy::too_many_arguments)]
fn pump(
    bus: &mut MessageBus<NegotiateMsg>,
    works: &mut [SiteWork<'_>],
    agents: &mut [SiteAgent],
    repo: &mut RepoState,
    tally: &mut Tally,
    offload: &OffloadConfig,
    deadline: SimTime,
    done: impl Fn(&RepoState) -> bool,
) {
    while !done(repo) {
        match bus.peek_time() {
            Some(t) if t <= deadline => {
                let env = bus.deliver_next().expect("peeked");
                handle(env, bus, works, agents, repo, tally, offload);
            }
            _ => break,
        }
    }
}

/// Position of `site`'s state in `works`.
fn site_index(works: &[SiteWork<'_>], site: SiteId) -> usize {
    works
        .iter()
        .position(|w| w.site() == site)
        .expect("message for unknown site")
}

/// Fuel-bounded closing drain; returns messages left in flight.
fn drain_with_handler(
    bus: &mut MessageBus<NegotiateMsg>,
    works: &mut [SiteWork<'_>],
    agents: &mut [SiteAgent],
    repo: &mut RepoState,
    tally: &mut Tally,
    offload: &OffloadConfig,
    fuel: usize,
) -> usize {
    for _ in 0..fuel {
        let Some(env) = bus.deliver_next() else {
            return 0;
        };
        handle(env, bus, works, agents, repo, tally, offload);
    }
    bus.in_flight()
}

/// Dispatches one delivered envelope to its party's state machine.
fn handle(
    env: Envelope<NegotiateMsg>,
    bus: &mut MessageBus<NegotiateMsg>,
    works: &mut [SiteWork<'_>],
    agents: &mut [SiteAgent],
    repo: &mut RepoState,
    tally: &mut Tally,
    offload: &OffloadConfig,
) {
    match env.to {
        Endpoint::Site(site) => {
            let i = site_index(works, site);
            if !agents[i].seen.insert(env.seq) {
                tally.duplicates_ignored += 1;
                return;
            }
            match env.payload {
                NegotiateMsg::Probe => {
                    // Idempotent read: always answer with fresh status.
                    bus.send(
                        Endpoint::Site(site),
                        Endpoint::Repository,
                        NegotiateMsg::Status(status_of(&works[i])),
                    );
                }
                NegotiateMsg::Offer {
                    round,
                    amount,
                    allow_alloc,
                    ..
                } => {
                    if agents[i].counters.len() <= round {
                        agents[i].counters.resize(round + 1, None);
                    }
                    let (taken, status, exhausted) = match agents[i].counters[round] {
                        // A retransmitted offer for a round this site
                        // already absorbed: replay the cached counter
                        // verbatim — absorbing twice would double-take.
                        Some(cached) => {
                            tally.replayed_counters += 1;
                            cached
                        }
                        None => {
                            let cfg_swaps = if allow_alloc { 0 } else { offload.max_swaps };
                            let result =
                                absorb_workload(&mut works[i], amount, allow_alloc, cfg_swaps);
                            #[cfg(feature = "audit")]
                            crate::audit::assert_consistent(
                                &works[i],
                                crate::audit::AuditStage::OffloadRound,
                            );
                            tally.swaps += result.swaps;
                            if result.absorbed > EPS {
                                tally.changed = true;
                            }
                            let reply = (result.absorbed, status_of(&works[i]), result.exhausted);
                            agents[i].counters[round] = Some(reply);
                            reply
                        }
                    };
                    bus.send(
                        Endpoint::Site(site),
                        Endpoint::Repository,
                        NegotiateMsg::Counter {
                            round,
                            taken,
                            status,
                            exhausted,
                        },
                    );
                }
                NegotiateMsg::Accept | NegotiateMsg::Abort => agents[i].done = true,
                // Site-bound Status/Counter never happens; ignore.
                NegotiateMsg::Status(_) | NegotiateMsg::Counter { .. } => {
                    tally.stale_replies += 1;
                }
            }
        }
        Endpoint::Repository => {
            let Endpoint::Site(site) = env.from else {
                tally.stale_replies += 1;
                return;
            };
            let i = site_index(works, site);
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
                        // Late counter (the exchange already timed out or
                        // this is a replay): it still carries the site's
                        // freshest state — refresh the view if it is
                        // strictly newer, but never un-demote.
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
                    ..NegotiateConfig::default()
                };
                let neg = run_negotiation(
                    &mut works,
                    initial * 0.8,
                    &OffloadConfig::default(),
                    &config,
                );
                assert!(neg.report.rounds <= OffloadConfig::default().max_rounds);
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
        // Every message drops (except: drop < 1.0 required, so use 0.99
        // with a seed that kills the whole exchange — instead force it
        // with retries = 0 and a fully dropping-ish config). With nothing
        // delivered, the repository falls back to its own model of every
        // site and the negotiation still terminates with a sane report.
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
            max_retries: 1,
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
                deadline_rounds: 2,
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

    #[test]
    #[should_panic(expected = "invalid negotiation config")]
    fn rejects_sub_one_backoff() {
        let sys = generate_system(&WorkloadParams::small(), 1).unwrap();
        let mut works = restored_works(&sys);
        let config = NegotiateConfig {
            backoff: 0.5,
            ..NegotiateConfig::default()
        };
        let _ = run_negotiation(&mut works, 1.0, &OffloadConfig::default(), &config);
    }
}
