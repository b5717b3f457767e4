//! A deterministic discrete-event core: simulation time plus a stable
//! min-heap of timestamped events.
//!
//! Determinism matters more than raw speed here — two events at the same
//! timestamp must always pop in insertion order, or parallel experiment
//! runs would not be reproducible. The queue therefore keys on
//! `(time, sequence)`.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Simulation time in seconds. A thin wrapper over `f64` that is totally
/// ordered (NaN is rejected at construction) so it can key a heap.
#[derive(Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimTime(f64);

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time; panics on NaN or negative values.
    pub fn new(t: f64) -> Self {
        assert!(t.is_finite() && t >= 0.0, "invalid sim time {t}");
        SimTime(t)
    }

    /// Raw seconds.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// This time advanced by `dt` seconds.
    pub fn after(self, dt: f64) -> SimTime {
        SimTime::new(self.0 + dt)
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Constructor rejects NaN, so total order is safe.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.4}", self.0)
    }
}

/// A heap entry: reversed ordering turns `BinaryHeap`'s max-heap into a
/// min-heap on `(time, seq)`.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smallest (time, seq) is the heap maximum.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic event queue.
///
/// Events scheduled at equal times pop in scheduling order (FIFO), and
/// scheduling an event in the past is a logic error that panics
/// immediately rather than silently reordering history.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    next_seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            processed: 0,
        }
    }

    /// Current simulation time — the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Advances the clock to `at` without popping anything — the idle-wait
    /// primitive timeout-driven protocols need (a negotiator giving up on
    /// a reply must burn the waited time even though no event fired).
    ///
    /// # Panics
    /// Panics if an event is pending before `at`: skipping over scheduled
    /// history would silently reorder it.
    pub fn advance_to(&mut self, at: SimTime) {
        if at <= self.now {
            return;
        }
        if let Some(next) = self.peek_time() {
            assert!(
                next >= at,
                "advancing past a pending event: {next:?} < {at:?}"
            );
        }
        self.now = at;
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        self.processed += 1;
        Some((entry.time, entry.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// The next event and its timestamp, without popping it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|e| (e.time, &e.event))
    }

    /// Drains the queue, applying `f` to every event in time order. Returns
    /// the final simulation time.
    pub fn run(&mut self, mut f: impl FnMut(&mut Self, SimTime, E)) -> SimTime {
        while let Some((t, e)) = self.pop() {
            f(self, t, e);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_ordering_and_arithmetic() {
        let a = SimTime::new(1.0);
        let b = a.after(0.5);
        assert!(b > a);
        assert_eq!(b.get(), 1.5);
        assert_eq!(a.max(b), b);
        assert_eq!(SimTime::ZERO.get(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid sim time")]
    fn sim_time_rejects_nan() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid sim time")]
    fn sim_time_rejects_negative() {
        let _ = SimTime::new(-1.0);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(3.0), "c");
        q.schedule(SimTime::new(1.0), "a");
        q.schedule(SimTime::new(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for name in ["first", "second", "third"] {
            q.schedule(SimTime::new(5.0), name);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(2.0), ());
        q.schedule(SimTime::new(7.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::new(2.0));
        q.pop();
        assert_eq!(q.now(), SimTime::new(7.0));
        assert_eq!(q.processed(), 2);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(5.0), ());
        q.pop();
        q.schedule(SimTime::new(1.0), ());
    }

    #[test]
    fn run_drains_and_allows_cascading() {
        // Each event may schedule follow-ups; run() must see them all.
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(1.0), 3u32); // countdown event
        let mut seen = Vec::new();
        let end = q.run(|q, t, n| {
            seen.push((t.get(), n));
            if n > 0 {
                q.schedule(t.after(1.0), n - 1);
            }
        });
        assert_eq!(seen, vec![(1.0, 3), (2.0, 2), (3.0, 1), (4.0, 0)]);
        assert_eq!(end, SimTime::new(4.0));
        assert_eq!(q.processed(), 4);
    }

    #[test]
    fn advance_to_moves_the_clock_without_events() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::new(3.0));
        assert_eq!(q.now(), SimTime::new(3.0));
        // Never moves backwards.
        q.advance_to(SimTime::new(1.0));
        assert_eq!(q.now(), SimTime::new(3.0));
        q.schedule(SimTime::new(5.0), ());
        // Up to (and onto) the next event is fine.
        q.advance_to(SimTime::new(5.0));
        assert_eq!(q.now(), SimTime::new(5.0));
    }

    #[test]
    #[should_panic(expected = "advancing past a pending event")]
    fn advance_past_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(2.0), ());
        q.advance_to(SimTime::new(4.0));
    }

    /// Two events scheduled at the *identical* `SimTime` must replay in
    /// the same order on every run: the heap keys on `(time, seq)` with a
    /// monotonic per-queue sequence, so equal-time delivery is scheduling
    /// order, never heap-internal order. Seeded fault scenarios (which
    /// routinely jitter two messages onto the same timestamp) rely on
    /// this for bit-identical replay.
    #[test]
    fn identical_simtime_ties_replay_bit_identically() {
        let replay = |labels: &[&'static str]| -> Vec<&'static str> {
            let mut q = EventQueue::new();
            // Interleave an unrelated earlier event so the tie sits in a
            // non-trivial heap, then pop everything.
            q.schedule(SimTime::new(1.0), "early");
            for &l in labels {
                q.schedule(SimTime::new(2.5), l);
            }
            std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
        };
        let a = replay(&["first", "second"]);
        let b = replay(&["first", "second"]);
        assert_eq!(a, b);
        assert_eq!(a, vec!["early", "first", "second"]);
        // The tie-break is the explicit sequence, not the payload: swap
        // the scheduling order and the delivery order swaps with it,
        // deterministically.
        assert_eq!(
            replay(&["second", "first"]),
            vec!["early", "second", "first"]
        );
    }

    #[test]
    fn pending_counts() {
        let mut q = EventQueue::new();
        assert_eq!(q.pending(), 0);
        q.schedule(SimTime::new(1.0), ());
        q.schedule(SimTime::new(2.0), ());
        assert_eq!(q.pending(), 2);
        q.pop();
        assert_eq!(q.pending(), 1);
    }
}
