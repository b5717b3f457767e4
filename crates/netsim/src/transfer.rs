//! Persistent-connection transfer timing.
//!
//! HTTP requests for a page's objects are pipelined over one persistent
//! TCP connection per server (paper §3, citing Mogul's persistent-HTTP
//! work): the client pays the connection overhead once, then payloads
//! stream back-to-back at the connection's transfer rate. A page download
//! is two such streams in parallel — local server and repository — and
//! completes when the slower stream finishes (Eq. 5).
//!
//! This module is the single place transfer arithmetic lives: the analytic
//! cost model, the perturbed trace replay and the queueing extension all
//! call the same functions, so they cannot drift apart.

use mmrepl_model::{Bytes, BytesPerSec, Secs};
use serde::{Deserialize, Serialize};

/// One end-to-end connection: setup/processing overhead plus a steady
/// transfer rate.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConnectionProfile {
    /// `Ovhd(·)` — TCP setup plus HTTP processing latency, paid once per
    /// connection.
    pub overhead: Secs,
    /// Steady payload rate for this connection.
    pub rate: BytesPerSec,
}

impl ConnectionProfile {
    /// Creates a profile, panicking on invalid inputs (negative overhead,
    /// non-positive rate) — these are programming errors, not data.
    pub fn new(overhead: Secs, rate: BytesPerSec) -> Self {
        assert!(overhead.is_valid(), "invalid overhead {overhead:?}");
        assert!(rate.is_valid(), "invalid rate {rate:?}");
        ConnectionProfile { overhead, rate }
    }

    /// Pure payload transfer time for `size` bytes (no overhead).
    #[inline]
    pub fn transfer_time(&self, size: Bytes) -> Secs {
        size / self.rate
    }

    /// Overhead plus payload time — a single-object fetch on a fresh
    /// connection (how optional objects are fetched, Eq. 6).
    #[inline]
    pub fn single_fetch(&self, size: Bytes) -> Secs {
        self.overhead + self.transfer_time(size)
    }

    /// Completion time of a pipelined stream of `n` payloads totalling
    /// `total` bytes: overhead + total payload time, or **zero** when the
    /// stream carries nothing (the connection is never opened — see the
    /// Eq. 4 note in `mmrepl-model::cost`). Callers that only need the
    /// time can keep running totals instead of a [`StreamPlan`].
    #[inline]
    pub fn stream_time(&self, total: Bytes, n: usize) -> Secs {
        if n == 0 {
            Secs::ZERO
        } else {
            self.overhead + self.transfer_time(total)
        }
    }
}

/// A pipelined download stream: one connection carrying a sequence of
/// payloads.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamPlan {
    /// The connection the payloads ride on.
    pub profile: ConnectionProfile,
    /// Payload sizes in download order.
    pub payloads: Vec<Bytes>,
}

impl StreamPlan {
    /// An empty stream on `profile`.
    pub fn empty(profile: ConnectionProfile) -> Self {
        StreamPlan {
            profile,
            payloads: Vec::new(),
        }
    }

    /// Appends a payload to the pipeline.
    pub fn push(&mut self, size: Bytes) {
        self.payloads.push(size);
    }

    /// Total bytes queued on the stream.
    pub fn total_bytes(&self) -> Bytes {
        self.payloads.iter().copied().sum()
    }

    /// Completion time of the whole stream — see
    /// [`ConnectionProfile::stream_time`].
    pub fn total_time(&self) -> Secs {
        self.profile
            .stream_time(self.total_bytes(), self.payloads.len())
    }

    /// Per-payload completion times (prefix sums) — when each object
    /// finishes arriving. Used by the queueing extension to interleave
    /// object arrivals with other events.
    pub fn completion_times(&self) -> Vec<Secs> {
        let mut out = Vec::with_capacity(self.payloads.len());
        let mut t = self.profile.overhead;
        for &p in &self.payloads {
            t += self.profile.transfer_time(p);
            out.push(t);
        }
        out
    }

    /// Whether the stream carries any payload.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }
}

/// Overhead + pipelined payload time for `payloads` on `profile`; zero for
/// an empty payload list. The free-function form of
/// [`StreamPlan::total_time`] for callers that don't want to allocate.
pub fn pipeline_time(profile: ConnectionProfile, payloads: &[Bytes]) -> Secs {
    profile.stream_time(payloads.iter().copied().sum(), payloads.len())
}

/// Eq. 5 — the response time of a page served by two parallel streams:
/// the local stream (HTML + locally-replicated objects) and the repository
/// stream (everything else). Completion is the max of the two.
pub fn parallel_page_time(local: &StreamPlan, remote: &StreamPlan) -> Secs {
    local.total_time().max(remote.total_time())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(ovhd: f64, rate_kib: f64) -> ConnectionProfile {
        ConnectionProfile::new(Secs(ovhd), BytesPerSec::kib_per_sec(rate_kib))
    }

    #[test]
    fn single_fetch_is_overhead_plus_payload() {
        let p = profile(2.0, 1.0);
        let t = p.single_fetch(Bytes::kib(10));
        assert!((t.get() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_takes_zero_time() {
        let s = StreamPlan::empty(profile(2.0, 1.0));
        assert!(s.is_empty());
        assert_eq!(s.total_time(), Secs::ZERO);
        assert!(s.completion_times().is_empty());
        assert_eq!(pipeline_time(profile(2.0, 1.0), &[]), Secs::ZERO);
        assert_eq!(profile(2.0, 1.0).stream_time(Bytes::ZERO, 0), Secs::ZERO);
    }

    #[test]
    fn pipeline_pays_overhead_once() {
        let p = profile(1.0, 10.0);
        let payloads = [Bytes::kib(10), Bytes::kib(20), Bytes::kib(30)];
        let t = pipeline_time(p, &payloads);
        // 1 + (10+20+30)/10 = 7, NOT 3 + 6 (per-request overheads).
        assert!((t.get() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn stream_plan_matches_free_function() {
        let p = profile(1.5, 5.0);
        let mut s = StreamPlan::empty(p);
        for kib in [5u64, 10, 15] {
            s.push(Bytes::kib(kib));
        }
        assert_eq!(s.total_time(), pipeline_time(p, &s.payloads));
        assert_eq!(s.total_time(), p.stream_time(Bytes::kib(30), 3));
        assert_eq!(s.total_bytes(), Bytes::kib(30));
    }

    #[test]
    fn completion_times_are_prefix_sums() {
        let p = profile(1.0, 1.0);
        let mut s = StreamPlan::empty(p);
        s.push(Bytes::kib(2));
        s.push(Bytes::kib(3));
        let times = s.completion_times();
        assert_eq!(times.len(), 2);
        assert!((times[0].get() - 3.0).abs() < 1e-12); // 1 + 2
        assert!((times[1].get() - 6.0).abs() < 1e-12); // 1 + 2 + 3
                                                       // Last completion equals the stream total.
        assert_eq!(*times.last().unwrap(), s.total_time());
    }

    #[test]
    fn parallel_time_is_max_of_streams() {
        let local = {
            let mut s = StreamPlan::empty(profile(1.0, 10.0));
            s.push(Bytes::kib(90)); // 1 + 9 = 10
            s
        };
        let remote = {
            let mut s = StreamPlan::empty(profile(2.0, 1.0));
            s.push(Bytes::kib(3)); // 2 + 3 = 5
            s
        };
        assert!((parallel_page_time(&local, &remote).get() - 10.0).abs() < 1e-12);
        // Empty remote stream contributes zero, not its overhead.
        let empty_remote = StreamPlan::empty(profile(2.0, 1.0));
        assert!((parallel_page_time(&local, &empty_remote).get() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn faster_rate_shortens_stream() {
        let slow = pipeline_time(profile(1.0, 1.0), &[Bytes::kib(100)]);
        let fast = pipeline_time(profile(1.0, 10.0), &[Bytes::kib(100)]);
        assert!(fast < slow);
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn profile_rejects_zero_rate() {
        let _ = ConnectionProfile::new(Secs(1.0), BytesPerSec(0.0));
    }

    #[test]
    #[should_panic(expected = "invalid overhead")]
    fn profile_rejects_negative_overhead() {
        let _ = ConnectionProfile::new(Secs(-1.0), BytesPerSec(100.0));
    }
}
