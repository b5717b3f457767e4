//! A lazily-revalidated min-heap for the planner's greedy loops.
//!
//! Three stages share it: both restorations (Eq. 10 storage, Eq. 8
//! capacity) and off-loading's site-side absorption. Each seeds the heap
//! once with every candidate (one O(n) heapify) and ranks candidates by a
//! float key that goes stale as the loop mutates shared state:
//! deallocating an object changes the deltas of everything sharing a page
//! with it, and taking a download shortens its page's local stream.
//! Rebuilding the heap per step would be quadratic, so instead each pop
//! re-computes the popped candidate's *current* key and only accepts it if
//! the key did not grow — otherwise the candidate is re-inserted with the
//! fresh key and the next one is tried. A candidate whose key grew but
//! still beats the next-best entry is accepted anyway: re-inserting it
//! would pop it right back.

use crate::state::TotalF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tolerance for "did the key grow since it was pushed": float noise
/// below this is not worth a re-insert.
const REVALIDATE_EPS: f64 = 1e-12;

/// A min-heap of `(f64 key, item)` entries with pop-time revalidation.
///
/// Ties on the key break on the item's `Ord`, keeping pops deterministic.
#[derive(Clone, Debug, Default)]
pub struct LazyMinHeap<I> {
    heap: BinaryHeap<Reverse<(TotalF64, I)>>,
    pops: u64,
}

impl<I: Ord + Copy> LazyMinHeap<I> {
    /// An empty heap.
    pub fn new() -> Self {
        LazyMinHeap {
            heap: BinaryHeap::new(),
            pops: 0,
        }
    }

    /// Heapifies `(key, item)` entries in one O(n) pass.
    pub fn from_entries(entries: impl IntoIterator<Item = (f64, I)>) -> Self {
        LazyMinHeap {
            heap: entries
                .into_iter()
                .map(|(key, item)| Reverse((TotalF64(key), item)))
                .collect(),
            pops: 0,
        }
    }

    /// Raw heap pops so far, *including* dead and stale entries cycled
    /// through by [`LazyMinHeap::pop_current`] — the number the lazy
    /// revalidation's near-linearity claim is about, surfaced in the
    /// restoration reports and traces.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Inserts `item` with `key`.
    pub fn push(&mut self, key: f64, item: I) {
        self.heap.push(Reverse((TotalF64(key), item)));
    }

    /// Pops the item with the smallest *current* key.
    ///
    /// `valid` filters out dead entries (popped-and-consumed earlier, or
    /// invalidated by the caller's mutations); `key_of` re-computes an
    /// entry's current key. Returns `None` when no valid entry remains.
    pub fn pop_current(
        &mut self,
        mut valid: impl FnMut(I) -> bool,
        mut key_of: impl FnMut(I) -> f64,
    ) -> Option<I> {
        loop {
            let Reverse((key, item)) = self.heap.pop()?;
            self.pops += 1;
            if !valid(item) {
                continue;
            }
            let current = key_of(item);
            if current > key.0 + REVALIDATE_EPS {
                // Stale: the key grew since the entry was pushed. Re-insert
                // with the fresh key unless it still beats the next-best.
                let still_best = self
                    .heap
                    .peek()
                    .map(|Reverse((next, _))| current <= next.0 + REVALIDATE_EPS)
                    .unwrap_or(true);
                if !still_best {
                    self.push(current, item);
                    continue;
                }
            }
            return Some(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order_when_keys_are_fresh() {
        let mut h = LazyMinHeap::from_entries([(3.0, 'c'), (1.0, 'a'), (2.0, 'b')]);
        let mut out = Vec::new();
        while let Some(item) = h.pop_current(|_| true, |i| (i as u8 - b'a' + 1) as f64) {
            out.push(item);
        }
        assert_eq!(out, vec!['a', 'b', 'c']);
    }

    #[test]
    fn skips_invalid_entries() {
        let mut h = LazyMinHeap::from_entries([(1.0, 1u32), (2.0, 2), (3.0, 3)]);
        let got = h.pop_current(|i| i != 1, |i| i as f64);
        assert_eq!(got, Some(2));
    }

    #[test]
    fn reinserts_grown_keys() {
        // 'a' was pushed cheap but now costs 10: 'b' must pop first.
        let mut h = LazyMinHeap::from_entries([(0.5, 'a'), (2.0, 'b')]);
        let key_of = |i: char| if i == 'a' { 10.0 } else { 2.0 };
        assert_eq!(h.pop_current(|_| true, key_of), Some('b'));
        assert_eq!(h.pop_current(|_| true, key_of), Some('a'));
        assert_eq!(h.pop_current(|_| true, key_of), None);
    }

    #[test]
    fn grown_key_still_best_is_accepted_without_reinsert() {
        // 'a' grew from 0.5 to 1.0 but the next-best is 2.0: accept it
        // directly instead of cycling it through the heap.
        let mut h = LazyMinHeap::from_entries([(0.5, 'a'), (2.0, 'b')]);
        let got = h.pop_current(|_| true, |i| if i == 'a' { 1.0 } else { 2.0 });
        assert_eq!(got, Some('a'));
    }

    #[test]
    fn empty_heap_pops_none() {
        let mut h: LazyMinHeap<u32> = LazyMinHeap::new();
        assert_eq!(h.pop_current(|_| true, |_| 0.0), None);
    }

    #[test]
    fn ties_break_on_item_order() {
        let mut h = LazyMinHeap::from_entries([(1.0, 9u32), (1.0, 3), (1.0, 7)]);
        let mut out = Vec::new();
        while let Some(i) = h.pop_current(|_| true, |_| 1.0) {
            out.push(i);
        }
        assert_eq!(out, vec![3, 7, 9]);
    }
}
