//! Bandwidth-charged replica migration.
//!
//! An incremental replan is not free just because the planner was fast:
//! every newly-marked replica must physically travel the site's repository
//! link before the site can serve it locally. This module replays a trace
//! window with that cost charged for real — no teleporting:
//!
//! * each site drains its migration queue at a configured **fraction φ of
//!   its repository link** ([`MigrateConfig::bandwidth_frac`]), in the
//!   priority order the delta planner scheduled;
//! * while the queue drains, foreground remote fetches see only the
//!   remaining `(1 − φ)` of the link;
//! * a request routes an object locally only if the placement marks it
//!   local **and** the replica has already arrived — until then it falls
//!   back to the repository stream.
//!
//! With an empty queue this replay is request-for-request identical to the
//! offline replayer in `mmrepl-sim` (pinned by a cross-crate test there),
//! so online and offline response series are directly comparable.

use std::collections::VecDeque;

use crate::delta::SiteMigration;
use mmrepl_model::{Bytes, ObjectId, Placement, Secs, SiteId, StoredSet, System};
use mmrepl_netsim::{ConnectionProfile, ResponseStats};
use mmrepl_workload::{events_of, Request};
use serde::{Deserialize, Serialize};

/// Migration bandwidth policy.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MigrateConfig {
    /// Fraction φ of each site's repository link reserved for replica
    /// migration while its queue is non-empty, in `(0, 0.9]`. Foreground
    /// remote fetches run on the remaining `1 − φ`.
    pub bandwidth_frac: f64,
    /// Seconds of *off-peak* full-rate drain each site gets at every
    /// window close — the paper's own remedy ("execute during off-peak
    /// hours", Section 4.1): the estimation windows cover the busy
    /// period, and scheduled transfers run overnight at the full link
    /// rate with no foreground to contend with. `None` (the default)
    /// means the night is long enough to finish the queue; `Some(s)`
    /// bounds it, leaving the remainder to drain (and contend) in-window.
    pub offpeak_secs: Option<f64>,
}

impl Default for MigrateConfig {
    fn default() -> Self {
        MigrateConfig {
            bandwidth_frac: 0.25,
            offpeak_secs: None,
        }
    }
}

impl MigrateConfig {
    /// Panics unless `bandwidth_frac` is in `(0, 0.9]` — migration must
    /// make progress, and the foreground must keep some link.
    pub fn validate(&self) {
        assert!(
            self.bandwidth_frac > 0.0 && self.bandwidth_frac <= 0.9,
            "bandwidth_frac {} outside (0, 0.9]",
            self.bandwidth_frac
        );
        if let Some(s) = self.offpeak_secs {
            assert!(s >= 0.0 && s.is_finite(), "offpeak_secs {s} invalid");
        }
    }
}

/// One in-flight replica fetch.
#[derive(Clone, Debug, PartialEq)]
struct PendingFetch {
    object: ObjectId,
    size: Bytes,
    /// Bytes still to transfer (the head item drains partially).
    bytes_left: f64,
}

/// A site's migration state: which objects have physically arrived and
/// which are still queued on the repository link.
#[derive(Clone, Debug, PartialEq)]
pub struct MigrationQueue {
    resident: StoredSet,
    pending: VecDeque<PendingFetch>,
    scheduled_bytes: u64,
    completed_bytes: u64,
    completed_objects: u64,
}

impl MigrationQueue {
    /// A queue over the objects already resident at the site.
    pub fn new(resident: StoredSet) -> Self {
        MigrationQueue {
            resident,
            pending: VecDeque::new(),
            scheduled_bytes: 0,
            completed_bytes: 0,
            completed_objects: 0,
        }
    }

    /// Enqueues a replan's schedule: drops free their space immediately
    /// (and cancel any still-pending fetch of the same object); fetches
    /// append in the planner's priority order.
    pub fn enqueue(&mut self, migration: &SiteMigration) {
        for &k in &migration.drops {
            self.resident.remove(k);
            self.pending.retain(|p| p.object != k);
        }
        for &(k, size) in &migration.fetches {
            if self.resident.contains(k) || self.pending.iter().any(|p| p.object == k) {
                continue;
            }
            self.scheduled_bytes += size.0;
            self.pending.push_back(PendingFetch {
                object: k,
                size,
                bytes_left: size.0 as f64,
            });
        }
    }

    /// Whether `object` has physically arrived (or was always stored).
    #[inline]
    pub fn is_resident(&self, object: ObjectId) -> bool {
        self.resident.contains(object)
    }

    /// Whether a migration is in flight (the link is being shared).
    #[inline]
    pub fn active(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Bytes still queued.
    pub fn pending_bytes(&self) -> f64 {
        self.pending.iter().map(|p| p.bytes_left).sum()
    }

    /// Total bytes ever scheduled on this queue.
    pub fn scheduled_bytes(&self) -> u64 {
        self.scheduled_bytes
    }

    /// Total bytes of completed (arrived) replicas.
    pub fn completed_bytes(&self) -> u64 {
        self.completed_bytes
    }

    /// Replicas that have arrived.
    pub fn completed_objects(&self) -> u64 {
        self.completed_objects
    }

    /// Drains the whole queue (an unbounded off-peak window); returns the
    /// completed bytes.
    pub fn drain_all(&mut self) -> u64 {
        self.advance(f64::INFINITY)
    }

    /// Drains up to `budget` transfer bytes (a bounded off-peak window);
    /// returns the completed bytes.
    pub fn drain(&mut self, budget: f64) -> u64 {
        self.advance(budget)
    }

    /// Spends `budget` transfer bytes draining the queue head-first;
    /// returns the bytes of replicas that *completed* (an object becomes
    /// resident only when its final byte lands).
    fn advance(&mut self, mut budget: f64) -> u64 {
        let mut done = 0u64;
        while budget > 0.0 {
            let Some(head) = self.pending.front_mut() else {
                break;
            };
            if head.bytes_left <= budget {
                budget -= head.bytes_left;
                let fetched = self.pending.pop_front().expect("head exists");
                self.resident.insert(fetched.object);
                self.completed_bytes += fetched.size.0;
                self.completed_objects += 1;
                done += fetched.size.0;
            } else {
                head.bytes_left -= budget;
                budget = 0.0;
            }
        }
        done
    }
}

/// Replay results with migration accounting — the online counterpart of
/// `mmrepl-sim`'s `ReplayOutcome`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OnlineReplayOutcome {
    /// Page response times (Eq. 5 realized), one sample per request.
    pub pages: ResponseStats,
    /// Optional-download times (Eq. 6 realized).
    pub optional: ResponseStats,
    /// Objects served locally.
    pub local_objects: u64,
    /// Objects served by the repository.
    pub remote_objects: u64,
    /// Requests served while a migration was sharing the link.
    pub contended_requests: u64,
    /// Bytes of replicas that finished migrating during this replay.
    pub migrated_bytes: u64,
}

impl OnlineReplayOutcome {
    /// An empty outcome.
    pub fn new() -> Self {
        OnlineReplayOutcome {
            pages: ResponseStats::new(),
            optional: ResponseStats::new(),
            local_objects: 0,
            remote_objects: 0,
            contended_requests: 0,
            migrated_bytes: 0,
        }
    }

    /// Merges another outcome (across sites or windows).
    pub fn merge(&mut self, other: &OnlineReplayOutcome) {
        self.pages.merge(&other.pages);
        self.optional.merge(&other.optional);
        self.local_objects += other.local_objects;
        self.remote_objects += other.remote_objects;
        self.contended_requests += other.contended_requests;
        self.migrated_bytes += other.migrated_bytes;
    }

    /// Mean page response time.
    pub fn mean_response(&self) -> f64 {
        self.pages.mean().map(|s| s.get()).unwrap_or(0.0)
    }
}

impl Default for OnlineReplayOutcome {
    fn default() -> Self {
        OnlineReplayOutcome::new()
    }
}

/// Replays one site's trace window under `placement` while `queue` drains
/// on a φ share of the repository link. Requests arrive at uniform virtual
/// times across `window`; replicas become servable exactly when their
/// cumulative bytes fit in the migration bandwidth elapsed so far.
pub fn replay_window(
    system: &System,
    site_id: SiteId,
    requests: &[Request],
    placement: &Placement,
    queue: &mut MigrationQueue,
    window: Secs,
    cfg: &MigrateConfig,
) -> OnlineReplayOutcome {
    cfg.validate();
    assert!(window.get() > 0.0, "window duration must be positive");
    let site = system.site(site_id);
    let mig_rate = site.repo_rate.get() * cfg.bandwidth_frac;
    let mut out = OnlineReplayOutcome::new();
    let mut last_t = 0.0f64;

    for ev in events_of(requests, window) {
        out.migrated_bytes += queue.advance(mig_rate * (ev.t.get() - last_t));
        last_t = ev.t.get();
        let contended = queue.active();
        if contended {
            out.contended_requests += 1;
        }
        serve_request(
            system, site, ev.request, placement, queue, contended, cfg, &mut out,
        );
    }
    out.migrated_bytes += queue.advance(mig_rate * (window.get() - last_t));
    out
}

/// Serves one request: the `mmrepl-sim` pricing (two pipelined parallel
/// streams, Eq. 5; per-fetch optional connections, Eq. 6) with routing
/// gated on physical residency and the remote link derated by φ while a
/// migration is in flight.
#[allow(clippy::too_many_arguments)]
fn serve_request(
    system: &System,
    site: &mmrepl_model::Site,
    req: &Request,
    placement: &Placement,
    queue: &MigrationQueue,
    contended: bool,
    cfg: &MigrateConfig,
    out: &mut OnlineReplayOutcome,
) {
    let page = system.page(req.page);
    let c = &req.conditions;
    let row = placement.partition(req.page);

    let local = ConnectionProfile::new(
        site.local_ovhd * c.local_ovhd_factor,
        site.local_rate.scale(c.local_rate_factor),
    );
    let foreground = if contended {
        1.0 - cfg.bandwidth_frac
    } else {
        1.0
    };
    let remote = ConnectionProfile::new(
        site.repo_ovhd * c.repo_ovhd_factor,
        site.repo_rate.scale(c.repo_rate_factor * foreground),
    );

    // The two compulsory streams as running byte totals and counts; the
    // local one carries the HTML.
    let (mut local_bytes, mut local_n) = (page.html_size, 1);
    let (mut remote_bytes, mut remote_n) = (Bytes::ZERO, 0);
    for (slot, &k) in page.compulsory.iter().enumerate() {
        let size = system.object_size(k);
        if row.local_compulsory[slot] && queue.is_resident(k) {
            local_bytes += size;
            local_n += 1;
            out.local_objects += 1;
        } else {
            remote_bytes += size;
            remote_n += 1;
            out.remote_objects += 1;
        }
    }
    out.pages.record(
        local
            .stream_time(local_bytes, local_n)
            .max(remote.stream_time(remote_bytes, remote_n)),
    );

    if !req.optional_slots.is_empty() {
        let mut total = Secs::ZERO;
        for &slot in &req.optional_slots {
            let k = page.optional[slot as usize].object;
            let size = system.object_size(k);
            if row.local_optional[slot as usize] && queue.is_resident(k) {
                total += local.single_fetch(size);
                out.local_objects += 1;
            } else {
                total += remote.single_fetch(size);
                out.remote_objects += 1;
            }
        }
        out.optional.record(total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmrepl_core::partition_all;
    use mmrepl_workload::{generate_system, generate_trace, TraceConfig, WorkloadParams};

    fn setup(seed: u64) -> (System, Vec<mmrepl_workload::SiteTrace>) {
        let params = WorkloadParams::small();
        let sys = generate_system(&params, seed).unwrap();
        let traces = generate_trace(&sys, &TraceConfig::from_params(&params), seed);
        (sys, traces)
    }

    #[test]
    fn empty_queue_serves_per_placement() {
        let (sys, traces) = setup(11);
        let placement = partition_all(&sys);
        let site = traces[0].site;
        let mut q = MigrationQueue::new(placement.stored_set(&sys, site));
        let out = replay_window(
            &sys,
            site,
            &traces[0].requests,
            &placement,
            &mut q,
            Secs(100.0),
            &MigrateConfig::default(),
        );
        assert_eq!(out.contended_requests, 0);
        assert_eq!(out.migrated_bytes, 0);
        assert_eq!(out.pages.count(), traces[0].len() as u64);
        assert!(out.local_objects > 0 && out.remote_objects > 0);
    }

    #[test]
    fn pending_objects_arrive_then_serve_locally() {
        let (sys, traces) = setup(12);
        let site = traces[0].site;
        // Start from all-remote, migrate toward the planned placement.
        let target = partition_all(&sys);
        let all_remote = Placement::all_remote(&sys);
        let mut q = MigrationQueue::new(all_remote.stored_set(&sys, site));
        let fetches: Vec<(ObjectId, Bytes)> = target
            .stored_set(&sys, site)
            .iter()
            .map(|k| (k, sys.object_size(k)))
            .collect();
        assert!(!fetches.is_empty());
        let migration = SiteMigration {
            site,
            fetches,
            drops: vec![],
        };
        q.enqueue(&migration);
        assert!(q.active());
        let scheduled = q.scheduled_bytes();

        // A long enough window drains everything.
        let window = Secs(2.0 * scheduled as f64 / (sys.site(site).repo_rate.get() * 0.25));
        let out = replay_window(
            &sys,
            site,
            &traces[0].requests,
            &target,
            &mut q,
            window,
            &MigrateConfig::default(),
        );
        assert!(!q.active(), "queue should have drained");
        assert_eq!(out.migrated_bytes, scheduled);
        assert_eq!(q.completed_bytes(), scheduled);
        assert!(out.contended_requests > 0, "early requests saw contention");
        assert!(
            out.contended_requests < out.pages.count(),
            "late requests saw a drained queue"
        );
    }

    #[test]
    fn drops_cancel_pending_fetches() {
        let (sys, _) = setup(13);
        let site = SiteId::new(0);
        let k = sys
            .pages_of(site)
            .iter()
            .flat_map(|&p| sys.page(p).compulsory.iter().copied())
            .next()
            .expect("site has objects");
        let mut q = MigrationQueue::new(StoredSet::empty(sys.n_objects()));
        q.enqueue(&SiteMigration {
            site,
            fetches: vec![(k, sys.object_size(k))],
            drops: vec![],
        });
        assert!(q.active());
        q.enqueue(&SiteMigration {
            site,
            fetches: vec![],
            drops: vec![k],
        });
        assert!(!q.active(), "drop must cancel the pending fetch");
        assert!(!q.is_resident(k));
    }

    #[test]
    fn contention_slows_remote_fetches() {
        let (sys, traces) = setup(14);
        let site = traces[0].site;
        let all_remote = Placement::all_remote(&sys);
        // Same trace twice: once with an (undrainable within the window)
        // migration hogging φ of the link, once clean.
        let mut clean = MigrationQueue::new(all_remote.stored_set(&sys, site));
        let quiet = replay_window(
            &sys,
            site,
            &traces[0].requests,
            &all_remote,
            &mut clean,
            Secs(1.0),
            &MigrateConfig::default(),
        );
        let mut busy = MigrationQueue::new(all_remote.stored_set(&sys, site));
        let huge: Vec<(ObjectId, Bytes)> = sys
            .pages_of(site)
            .iter()
            .flat_map(|&p| sys.page(p).compulsory.iter().copied())
            .take(50)
            .map(|k| (k, Bytes(u64::MAX / 128)))
            .collect();
        busy.enqueue(&SiteMigration {
            site,
            fetches: huge,
            drops: vec![],
        });
        let contended = replay_window(
            &sys,
            site,
            &traces[0].requests,
            &all_remote,
            &mut busy,
            Secs(1.0),
            &MigrateConfig::default(),
        );
        assert_eq!(contended.contended_requests, contended.pages.count());
        assert!(
            contended.mean_response() > quiet.mean_response(),
            "contended {} vs quiet {}",
            contended.mean_response(),
            quiet.mean_response()
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth_frac")]
    fn rejects_full_link_migration() {
        MigrateConfig {
            bandwidth_frac: 1.0,
            ..MigrateConfig::default()
        }
        .validate();
    }
}
