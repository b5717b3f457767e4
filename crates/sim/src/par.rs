//! Fork-join over independent work items, on the core worker pool.
//!
//! Experiment runs are embarrassingly parallel (each owns its system,
//! trace and statistics), so they map directly onto
//! [`mmrepl_core::pool::parallel_map`]: one process-wide pool of resident
//! workers, an atomic chunk-claiming cursor, and index-ordered result
//! slots that keep output deterministic regardless of scheduling. This
//! module re-exports that API under the sim crate's historical path.

pub use mmrepl_core::pool::{effective_threads, parallel_map};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn preserves_index_order() {
        let out = parallel_map(100, 4, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicU64::new(0);
        let out = parallel_map(1000, 8, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn zero_items_is_empty() {
        let out: Vec<u32> = parallel_map(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_fallback_matches() {
        let seq = parallel_map(50, 1, |i| i + 1);
        let par = parallel_map(50, 4, |i| i + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(0, 1), 1);
        assert_eq!(effective_threads(16, 4), 4);
        assert_eq!(effective_threads(2, 100), 2);
    }

    #[test]
    fn actually_uses_multiple_threads_when_asked() {
        // Deterministic, not a race against the amount of work: whoever
        // takes item 0 holds it until a second thread has checked in.
        // With 4 workers asked for, another participant claims a later
        // chunk while item 0 is held; the time bound turns a pool that
        // never spreads into a failure instead of a hang.
        use std::collections::HashSet;
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let arrived = Condvar::new();
        parallel_map(64, 4, |i| {
            let mut seen = ids.lock().unwrap();
            seen.insert(std::thread::current().id());
            arrived.notify_all();
            if i == 0 {
                let _held = arrived
                    .wait_timeout_while(seen, Duration::from_secs(10), |seen| seen.len() < 2)
                    .unwrap();
            }
        });
        assert!(ids.lock().unwrap().len() >= 2);
    }
}
