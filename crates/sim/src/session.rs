//! Event-driven page-download sessions.
//!
//! The request pricer ([`mmrepl_workload::RequestStreams`]) prices a
//! page's two pipelined streams from byte totals; this module replays the
//! *same* download as discrete events — each payload's arrival, at its
//! prefix-sum completion time, on the [`mmrepl_core::EventQueue`] — and
//! reports when the last one lands. Its purpose is cross-validation: the
//! DES oracle ([`crate::des`]) checks on every request that the
//! event-driven end time equals the pricer's Eq. 5.

use mmrepl_core::{EventQueue, SimTime};
use mmrepl_model::{Bytes, Secs};
use mmrepl_workload::ConnectionProfile;

/// A pipelined download stream: one connection carrying a sequence of
/// payloads.
#[derive(Clone, Debug)]
pub(crate) struct StreamPlan {
    /// The connection the payloads ride on.
    pub(crate) profile: ConnectionProfile,
    /// Payload sizes in download order.
    pub(crate) payloads: Vec<Bytes>,
}

impl StreamPlan {
    /// An empty stream on `profile`.
    pub(crate) fn empty(profile: ConnectionProfile) -> Self {
        StreamPlan {
            profile,
            payloads: Vec::new(),
        }
    }

    /// Appends a payload to the pipeline.
    pub(crate) fn push(&mut self, size: Bytes) {
        self.payloads.push(size);
    }

    /// Per-payload completion times (prefix sums after the connection
    /// overhead) — when each object finishes arriving.
    pub(crate) fn completion_times(&self) -> Vec<Secs> {
        let mut out = Vec::with_capacity(self.payloads.len());
        let mut t = self.profile.overhead;
        for &p in &self.payloads {
            t += self.profile.transfer_time(p);
            out.push(t);
        }
        out
    }
}

/// Simulates the two parallel pipelined streams of one page request as
/// payload-arrival events starting at time zero, and returns when the
/// page completes: the time of the last arrival. An empty stream
/// schedules nothing (its connection is never opened), so it adds no
/// time.
pub(crate) fn simulate_page(local: &StreamPlan, remote: &StreamPlan) -> SimTime {
    let mut queue = EventQueue::new();
    for plan in [local, remote] {
        for t in plan.completion_times() {
            queue.schedule(SimTime::new(t.get()), ());
        }
    }
    queue.run(|_, _, ()| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmrepl_model::BytesPerSec;
    use proptest::prelude::*;

    fn profile(ovhd: f64, rate_kib: f64) -> ConnectionProfile {
        ConnectionProfile::new(Secs(ovhd), BytesPerSec::kib_per_sec(rate_kib))
    }

    fn plan(p: ConnectionProfile, kib: &[u64]) -> StreamPlan {
        let mut s = StreamPlan::empty(p);
        for &k in kib {
            s.push(Bytes::kib(k));
        }
        s
    }

    /// The stream's closed-form completion time.
    fn stream_time(s: &StreamPlan) -> Secs {
        s.profile
            .stream_time(s.payloads.iter().copied().sum(), s.payloads.len())
    }

    #[test]
    fn event_end_time_matches_closed_form() {
        let local = plan(profile(1.0, 10.0), &[10, 50, 20]);
        let remote = plan(profile(2.0, 1.0), &[5]);
        let closed = stream_time(&local).max(stream_time(&remote));
        assert!((simulate_page(&local, &remote).get() - closed.get()).abs() < 1e-12);
    }

    #[test]
    fn completion_times_are_prefix_sums() {
        let s = plan(profile(1.0, 1.0), &[2, 3]);
        let times = s.completion_times();
        assert_eq!(times.len(), 2);
        assert!((times[0].get() - 3.0).abs() < 1e-12); // 1 + 2
        assert!((times[1].get() - 6.0).abs() < 1e-12); // 1 + 2 + 3

        // Last completion equals the stream total.
        assert_eq!(*times.last().unwrap(), stream_time(&s));
    }

    #[test]
    fn empty_remote_stream_produces_no_remote_events() {
        // The remote overhead alone (20 s) outlasts the local stream
        // (2 s): any remote event would end the page late.
        let local = plan(profile(1.0, 10.0), &[10]);
        let remote = StreamPlan::empty(profile(20.0, 1.0));
        assert!((simulate_page(&local, &remote).get() - stream_time(&local).get()).abs() < 1e-12);
        assert_eq!(simulate_page(&remote, &remote), SimTime::ZERO);
    }

    #[test]
    fn html_arrives_before_big_objects_on_the_same_stream() {
        // Pipelining means the 12 KiB HTML lands long before the 4 MiB
        // video sharing its connection.
        let times = plan(profile(1.5, 8.0), &[12, 4096]).completion_times();
        assert!(times[0] < times[1]);
        assert!(times[1].get() - times[0].get() > 500.0);
    }

    proptest! {
        /// The event-driven session simulation agrees with the
        /// closed-form parallel page time, for arbitrary stream shapes.
        #[test]
        fn event_simulation_matches_closed_form(
            local_ovhd in 0.0f64..5.0,
            local_rate in 0.1f64..100.0,
            remote_ovhd in 0.0f64..5.0,
            remote_rate in 0.1f64..100.0,
            local_sizes in prop::collection::vec(1u64..2_000_000, 1..20),
            remote_sizes in prop::collection::vec(1u64..2_000_000, 0..20),
        ) {
            let mut local = StreamPlan::empty(ConnectionProfile::new(
                Secs(local_ovhd),
                BytesPerSec(local_rate * 1024.0),
            ));
            for s in local_sizes {
                local.push(Bytes(s));
            }
            let mut remote = StreamPlan::empty(ConnectionProfile::new(
                Secs(remote_ovhd),
                BytesPerSec(remote_rate * 1024.0),
            ));
            for s in remote_sizes {
                remote.push(Bytes(s));
            }
            let events = simulate_page(&local, &remote).get();
            let closed = stream_time(&local).max(stream_time(&remote)).get();
            prop_assert!(
                (events - closed).abs() < 1e-9,
                "events {} vs closed form {}",
                events,
                closed
            );
        }
    }
}
