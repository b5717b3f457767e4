//! Server processing-capacity model.
//!
//! The paper treats per-request processing time as constant ("since we
//! assumed peak hours, i.e., almost fixed server utilization"), so a server
//! with capacity `C` requests/second is a deterministic FIFO queue with
//! service time `1/C` per HTTP request. The planning constraints (Eq. 8/9)
//! keep offered load under `C`; this model answers the follow-up question
//! the paper leaves implicit — *how much queueing delay appears when a
//! placement violates them* — and is the server behind
//! [`crate::queueing`]'s FIFO rules.

use mmrepl_core::SimTime;
use mmrepl_model::{ReqPerSec, Secs};

/// A deterministic-service FIFO server.
#[derive(Clone, Debug)]
pub(crate) struct QueueingServer {
    capacity: ReqPerSec,
    next_free: SimTime,
}

impl QueueingServer {
    /// A server with the given processing capacity. Infinite capacity means
    /// zero service time (the Table 1 repository).
    pub(crate) fn new(capacity: ReqPerSec) -> Self {
        assert!(
            capacity.get() > 0.0,
            "server capacity must be positive, got {capacity:?}"
        );
        QueueingServer {
            capacity,
            next_free: SimTime::ZERO,
        }
    }

    /// Deterministic service time for `n_requests` HTTP requests.
    pub(crate) fn service_time(&self, n_requests: f64) -> Secs {
        if self.capacity.get().is_infinite() {
            Secs::ZERO
        } else {
            Secs(n_requests / self.capacity.get())
        }
    }

    /// Admits a batch of `n_requests` arriving at `arrival`; FIFO service.
    /// Returns the queueing delay the batch suffers before service begins.
    pub(crate) fn admit(&mut self, arrival: SimTime, n_requests: f64) -> Secs {
        assert!(
            n_requests >= 0.0 && n_requests.is_finite(),
            "invalid batch size {n_requests}"
        );
        let start = arrival.max(self.next_free);
        self.next_free = start.after(self.service_time(n_requests).get());
        Secs(start.get() - arrival.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn idle_server_serves_immediately() {
        let mut s = QueueingServer::new(ReqPerSec(10.0));
        assert_eq!(s.admit(SimTime::new(1.0), 5.0), Secs::ZERO);
        // 5 req / 10 rps: busy until t = 1.5.
        assert!((s.admit(SimTime::new(1.0), 1.0).get() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn back_to_back_arrivals_queue_fifo() {
        let mut s = QueueingServer::new(ReqPerSec(1.0));
        assert_eq!(s.admit(SimTime::new(0.0), 2.0), Secs::ZERO); // busy until t=2
        let b = s.admit(SimTime::new(1.0), 1.0); // arrives during service
        assert!((b.get() - 1.0).abs() < 1e-12);
        // b runs 2..3, so the next arrival at t=2 waits behind it.
        let c = s.admit(SimTime::new(2.0), 1.0);
        assert!((c.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gap_lets_queue_drain() {
        let mut s = QueueingServer::new(ReqPerSec(1.0));
        s.admit(SimTime::new(0.0), 1.0); // done at 1
        assert_eq!(s.admit(SimTime::new(5.0), 1.0), Secs::ZERO);
    }

    #[test]
    fn infinite_capacity_never_queues() {
        let mut s = QueueingServer::new(ReqPerSec::INFINITE);
        for i in 0..100 {
            assert_eq!(s.admit(SimTime::new(i as f64 * 0.001), 50.0), Secs::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = QueueingServer::new(ReqPerSec(0.0));
    }

    #[test]
    #[should_panic(expected = "invalid batch")]
    fn rejects_negative_batch() {
        let mut s = QueueingServer::new(ReqPerSec(1.0));
        s.admit(SimTime::ZERO, -1.0);
    }

    #[test]
    fn overload_grows_queue_without_bound() {
        // Offered load 2x capacity: waits must increase monotonically.
        let mut s = QueueingServer::new(ReqPerSec(1.0));
        let mut last_wait = -1.0;
        for i in 0..50 {
            let wait = s.admit(SimTime::new(i as f64 * 0.5), 1.0).get();
            assert!(wait >= last_wait);
            last_wait = wait;
        }
        assert!(last_wait > 10.0, "queue should have built up: {last_wait}");
    }

    proptest! {
        /// A FIFO server never reorders: each batch waits exactly until
        /// the previous one finishes (Lindley's recursion), never less.
        #[test]
        fn queueing_server_fifo_invariants(
            arrivals in prop::collection::vec((0.0f64..100.0, 0.1f64..20.0), 1..50),
            capacity in 0.5f64..100.0,
        ) {
            let mut sorted = arrivals.clone();
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut server = QueueingServer::new(ReqPerSec(capacity));
            let mut last_finish = 0.0f64;
            for (t, n) in sorted {
                let wait = server.admit(SimTime::new(t), n).get();
                prop_assert!(wait >= 0.0);
                prop_assert!((wait - (last_finish - t).max(0.0)).abs() < 1e-9);
                last_finish = t + wait + n / capacity;
            }
        }
    }
}
