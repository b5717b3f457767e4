//! Persistent-connection transfer timing.
//!
//! HTTP requests for a page's objects are pipelined over one persistent
//! TCP connection per server (paper §3, citing Mogul's persistent-HTTP
//! work): the client pays the connection overhead once, then payloads
//! stream back-to-back at the connection's transfer rate. A page download
//! is two such streams in parallel — local server and repository — and
//! completes when the slower stream finishes (Eq. 5).
//!
//! A [`ConnectionProfile`] is one such connection under one request's
//! actual conditions. The request pricer ([`crate::price`]) builds the
//! two profiles of every replayed request and is the only caller of
//! their arithmetic.

use mmrepl_model::{Bytes, BytesPerSec, Secs};

/// One end-to-end connection: setup/processing overhead plus a steady
/// transfer rate.
#[derive(Clone, Copy, Debug, PartialEq)]
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
    /// Eq. 4 note in `mmrepl-model::cost`).
    #[inline]
    pub fn stream_time(&self, total: Bytes, n: usize) -> Secs {
        if n == 0 {
            Secs::ZERO
        } else {
            self.overhead + self.transfer_time(total)
        }
    }
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
        assert_eq!(profile(2.0, 1.0).stream_time(Bytes::ZERO, 0), Secs::ZERO);
    }

    #[test]
    fn pipeline_pays_overhead_once() {
        let p = profile(1.0, 10.0);
        let t = p.stream_time(Bytes::kib(10) + Bytes::kib(20) + Bytes::kib(30), 3);
        // 1 + (10+20+30)/10 = 7, NOT 3 + 6 (per-request overheads).
        assert!((t.get() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_time_is_max_of_streams() {
        let local = profile(1.0, 10.0).stream_time(Bytes::kib(90), 1); // 1 + 9 = 10
        let remote = profile(2.0, 1.0).stream_time(Bytes::kib(3), 1); // 2 + 3 = 5
        assert!((local.max(remote).get() - 10.0).abs() < 1e-12);
        // Empty remote stream contributes zero, not its overhead.
        let empty_remote = profile(2.0, 1.0).stream_time(Bytes::ZERO, 0);
        assert!((local.max(empty_remote).get() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn faster_rate_shortens_stream() {
        let slow = profile(1.0, 1.0).stream_time(Bytes::kib(100), 1);
        let fast = profile(1.0, 10.0).stream_time(Bytes::kib(100), 1);
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
