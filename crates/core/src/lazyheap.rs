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
//!
//! ## Packed entries
//!
//! An entry is one `u128`: the key's `key_bits` in the high 64 bits and
//! the `u64` item in the low 64. `key_bits` maps an `f64` to a `u64`
//! whose unsigned order is exactly [`f64::total_cmp`]'s order (negative
//! numbers have every bit flipped, the rest get the sign bit set), so
//! integer order on the packed entry is the lexicographic `(key
//! total_cmp, item)` order the loops always ranked by. A binary heap's pop
//! sequence depends only on that total order over its entries, not on how
//! an entry is stored, so every pop, and with it every plan, is unchanged;
//! the heap just compares one integer instead of a float and a tuple. The
//! key decodes exactly (`bits_key`) for the revalidation test.
//!
//! Items are plain `u64`s: the storage loop packs a site-local object
//! index, capacity restoration and absorption pack a slot with
//! [`pack_slot`], whose integer order is the `(page idx, slot, kind)`
//! order their ties break on.

use crate::state::SlotKind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tolerance for "did the key grow since it was pushed": float noise
/// below this is not worth a re-insert.
const REVALIDATE_EPS: f64 = 1e-12;

const SIGN: u64 = 1 << 63;

/// Maps `key` to a `u64` whose unsigned order is `f64::total_cmp`'s:
/// negative numbers (sign bit set) have every bit flipped, so larger
/// magnitudes sort lower; the rest get the sign bit set, so they sort
/// above every negative.
#[inline]
fn key_bits(key: f64) -> u64 {
    let bits = key.to_bits();
    if bits & SIGN != 0 {
        !bits
    } else {
        bits | SIGN
    }
}

/// The inverse of [`key_bits`], exact for every bit pattern.
#[inline]
fn bits_key(enc: u64) -> f64 {
    f64::from_bits(if enc & SIGN != 0 { enc ^ SIGN } else { !enc })
}

/// Packs a slot `(local page idx, slot, kind)` so that integer order is
/// the `(idx, slot, kind)` order greedy ties break on (compulsory before
/// optional at the same slot).
#[inline]
pub fn pack_slot(idx: usize, slot: usize, kind: SlotKind) -> u64 {
    ((idx as u64) << 33) | ((slot as u64) << 1) | (kind == SlotKind::Optional) as u64
}

/// The inverse of [`pack_slot`].
#[inline]
pub fn unpack_slot(item: u64) -> (usize, usize, SlotKind) {
    let kind = if item & 1 == 0 {
        SlotKind::Compulsory
    } else {
        SlotKind::Optional
    };
    (
        (item >> 33) as usize,
        ((item >> 1) & 0xFFFF_FFFF) as usize,
        kind,
    )
}

#[inline]
fn entry(key: f64, item: u64) -> Reverse<u128> {
    Reverse((u128::from(key_bits(key)) << 64) | u128::from(item))
}

#[inline]
fn entry_key(entry: u128) -> f64 {
    bits_key((entry >> 64) as u64)
}

/// A min-heap of `(f64 key, u64 item)` entries with pop-time
/// revalidation.
///
/// Ties on the key break on the item, keeping pops deterministic.
#[derive(Clone, Debug, Default)]
pub struct LazyMinHeap {
    heap: BinaryHeap<Reverse<u128>>,
    pops: u64,
}

impl LazyMinHeap {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heapifies `(key, item)` entries in one O(n) pass.
    pub fn from_entries(entries: impl IntoIterator<Item = (f64, u64)>) -> Self {
        LazyMinHeap {
            heap: entries
                .into_iter()
                .map(|(key, item)| entry(key, item))
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
    pub fn push(&mut self, key: f64, item: u64) {
        self.heap.push(entry(key, item));
    }

    /// Pops the item with the smallest *current* key.
    ///
    /// `valid` filters out dead entries (popped-and-consumed earlier, or
    /// invalidated by the caller's mutations); `key_of` re-computes an
    /// entry's current key. Returns `None` when no valid entry remains.
    pub fn pop_current(
        &mut self,
        mut valid: impl FnMut(u64) -> bool,
        mut key_of: impl FnMut(u64) -> f64,
    ) -> Option<u64> {
        loop {
            let Reverse(top) = self.heap.pop()?;
            self.pops += 1;
            let item = top as u64;
            if !valid(item) {
                continue;
            }
            let current = key_of(item);
            if current > entry_key(top) + REVALIDATE_EPS {
                // Stale: the key grew since the entry was pushed. Re-insert
                // with the fresh key unless it still beats the next-best.
                let still_best = self
                    .heap
                    .peek()
                    .map(|&Reverse(next)| current <= entry_key(next) + REVALIDATE_EPS)
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
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn pops_in_key_order_when_keys_are_fresh() {
        let mut h = LazyMinHeap::from_entries([(3.0, 3), (1.0, 1), (2.0, 2)]);
        let mut out = Vec::new();
        while let Some(item) = h.pop_current(|_| true, |i| i as f64) {
            out.push(item);
        }
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn skips_invalid_entries() {
        let mut h = LazyMinHeap::from_entries([(1.0, 1), (2.0, 2), (3.0, 3)]);
        let got = h.pop_current(|i| i != 1, |i| i as f64);
        assert_eq!(got, Some(2));
    }

    #[test]
    fn reinserts_grown_keys() {
        // Item 1 was pushed cheap but now costs 10: item 2 must pop first.
        let mut h = LazyMinHeap::from_entries([(0.5, 1), (2.0, 2)]);
        let key_of = |i: u64| if i == 1 { 10.0 } else { 2.0 };
        assert_eq!(h.pop_current(|_| true, key_of), Some(2));
        assert_eq!(h.pop_current(|_| true, key_of), Some(1));
        assert_eq!(h.pop_current(|_| true, key_of), None);
    }

    #[test]
    fn grown_key_still_best_is_accepted_without_reinsert() {
        // Item 1 grew from 0.5 to 1.0 but the next-best is 2.0: accept it
        // directly instead of cycling it through the heap.
        let mut h = LazyMinHeap::from_entries([(0.5, 1), (2.0, 2)]);
        let got = h.pop_current(|_| true, |i| if i == 1 { 1.0 } else { 2.0 });
        assert_eq!(got, Some(1));
    }

    #[test]
    fn empty_heap_pops_none() {
        let mut h = LazyMinHeap::new();
        assert_eq!(h.pop_current(|_| true, |_| 0.0), None);
    }

    #[test]
    fn ties_break_on_item_order() {
        let mut h = LazyMinHeap::from_entries([(1.0, 9), (1.0, 3), (1.0, 7)]);
        let mut out = Vec::new();
        while let Some(i) = h.pop_current(|_| true, |_| 1.0) {
            out.push(i);
        }
        assert_eq!(out, vec![3, 7, 9]);
    }

    #[test]
    fn total_f64_orders_properly() {
        let mut keys = [3.0, -1.0, 0.5].map(key_bits);
        keys.sort();
        assert_eq!(keys, [-1.0, 0.5, 3.0].map(key_bits));
        assert!(key_bits(f64::NEG_INFINITY) < key_bits(0.0));
    }

    /// Bit patterns the random draws rarely hit: signed zeros, infinities,
    /// NaNs of both signs and payloads, subnormals and their neighbours.
    fn special_keys() -> Vec<f64> {
        let mut keys = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::from_bits(u64::MAX),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
        ];
        for bits in [1u64, 2, 0x000f_ffff_ffff_ffff] {
            keys.push(f64::from_bits(bits));
            keys.push(-f64::from_bits(bits));
        }
        keys
    }

    #[test]
    fn key_bits_orders_like_total_cmp_and_round_trips() {
        let mut rng = StdRng::seed_from_u64(0x6b65_7962);
        let mut keys = special_keys();
        keys.extend((0..2_000).map(|_| f64::from_bits(rng.next_u64())));
        keys.extend((0..500).map(|_| rng.random_range(-4.0..4.0)));
        for &a in &keys {
            assert_eq!(bits_key(key_bits(a)).to_bits(), a.to_bits(), "{a:e}");
        }
        for (i, &a) in keys.iter().enumerate() {
            for &b in &keys[i..] {
                assert_eq!(
                    key_bits(a).cmp(&key_bits(b)),
                    a.total_cmp(&b),
                    "{a:e} ({:016x}) vs {b:e} ({:016x})",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
    }

    #[test]
    fn slot_packing_round_trips_and_orders_like_the_tuple() {
        let mut slots = Vec::new();
        for idx in [0usize, 1, 7, (1 << 30) + 3] {
            for slot in [0usize, 1, 5, u32::MAX as usize] {
                for kind in [SlotKind::Compulsory, SlotKind::Optional] {
                    assert_eq!(unpack_slot(pack_slot(idx, slot, kind)), (idx, slot, kind));
                    slots.push((idx, slot, kind));
                }
            }
        }
        for &a in &slots {
            for &b in &slots {
                let (pa, pb) = (pack_slot(a.0, a.1, a.2), pack_slot(b.0, b.1, b.2));
                assert_eq!(pa.cmp(&pb), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    /// The lazy heap over `(total_cmp key, item)` tuples, as it was before
    /// entries were packed: the reference the packed heap must pop like.
    struct TupleHeap {
        heap: std::collections::BinaryHeap<Reverse<(Key, u64)>>,
        pops: u64,
    }

    #[derive(Clone, Copy, PartialEq)]
    struct Key(f64);
    impl Eq for Key {}
    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Key {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    impl TupleHeap {
        fn pop_current(
            &mut self,
            mut valid: impl FnMut(u64) -> bool,
            mut key_of: impl FnMut(u64) -> f64,
        ) -> Option<u64> {
            loop {
                let Reverse((key, item)) = self.heap.pop()?;
                self.pops += 1;
                if !valid(item) {
                    continue;
                }
                let current = key_of(item);
                if current > key.0 + REVALIDATE_EPS {
                    let still_best = self
                        .heap
                        .peek()
                        .map(|Reverse((next, _))| current <= next.0 + REVALIDATE_EPS)
                        .unwrap_or(true);
                    if !still_best {
                        self.heap.push(Reverse((Key(current), item)));
                        continue;
                    }
                }
                return Some(item);
            }
        }
    }

    #[test]
    fn random_push_pop_sequences_pop_like_the_tuple_heap() {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_items = rng.random_range(1..60u64);
            // Few distinct keys, so duplicates and exact ties are common;
            // one seed in four draws raw bit patterns instead.
            let raw = seed % 4 == 3;
            let draw = |rng: &mut StdRng| -> f64 {
                if raw {
                    f64::from_bits(rng.next_u64())
                } else {
                    rng.random_range(0..8u32) as f64 * 0.25 - 0.5
                }
            };
            // The "current" key of each item, re-keyed (grown or shrunk)
            // as the run goes, so popped entries are often stale.
            let mut current: Vec<f64> = (0..n_items).map(|_| draw(&mut rng)).collect();
            let mut dead = vec![false; n_items as usize];
            let seeded: Vec<(f64, u64)> = (0..n_items).map(|i| (current[i as usize], i)).collect();
            let mut packed = LazyMinHeap::from_entries(seeded.iter().copied());
            let mut tuple = TupleHeap {
                heap: seeded.iter().map(|&(k, i)| Reverse((Key(k), i))).collect(),
                pops: 0,
            };
            for _ in 0..400 {
                match rng.random_range(0..4u32) {
                    0 => {
                        let i = rng.random_range(0..n_items);
                        let k = draw(&mut rng);
                        packed.push(k, i);
                        tuple.heap.push(Reverse((Key(k), i)));
                        dead[i as usize] = false;
                    }
                    1 => {
                        let i = rng.random_range(0..n_items) as usize;
                        current[i] = draw(&mut rng);
                    }
                    _ => {
                        let a = packed.pop_current(|i| !dead[i as usize], |i| current[i as usize]);
                        let b = tuple.pop_current(|i| !dead[i as usize], |i| current[i as usize]);
                        assert_eq!(a, b, "seed {seed}");
                        if let Some(i) = a {
                            dead[i as usize] = rng.random_bool(0.7);
                        }
                    }
                }
                assert_eq!(packed.pops(), tuple.pops, "seed {seed}");
            }
        }
    }
}
