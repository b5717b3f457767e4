//! A flat, fixed-capacity bitset over dense `u32` indices.
//!
//! The restoration inner loops answer "is this object stored?" and "walk
//! every stored object" millions of times per plan. A `Vec<bool>` sized to
//! the *global* object universe answers the first in O(1) but makes every
//! site pay O(total objects) to build, clear and scan — at 100x scale
//! (1.5M objects × 1000 sites) that is gigabytes of traffic for state
//! that is ~99.9% zeros. [`DenseBits`] stores one bit per *site-local*
//! index instead: word-packed, O(n/64) iteration, and small enough that a
//! site's whole store fits in a few cache lines. The per-site state build
//! is the one place a universe-sized set appears, and only transiently: it
//! marks the referenced ids, and [`DenseBits::rank`] turns an id into its
//! local index in O(1).

/// A word-packed bitset over `0..len` indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseBits {
    words: Vec<u64>,
    len: usize,
}

impl DenseBits {
    /// An all-zeros bitset with capacity for indices `0..len`.
    pub fn zeros(len: usize) -> Self {
        DenseBits {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of indices this set covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Sets bit `i`; returns whether it was newly set.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let was = *word & mask != 0;
        *word |= mask;
        !was
    }

    /// Clears bit `i`; returns whether it was previously set.
    #[inline]
    pub fn clear(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let was = *word & mask != 0;
        *word &= !mask;
        was
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some((wi << 6) + i)
            })
        })
    }

    /// Per-word rank prefix: entry `w` is the number of set bits in
    /// words `0..w`. Built once in O(n/64), it lets [`DenseBits::rank`]
    /// answer in O(1).
    pub fn word_ranks(&self) -> Vec<u32> {
        let mut acc = 0u32;
        self.words
            .iter()
            .map(|w| {
                let before = acc;
                acc += w.count_ones();
                before
            })
            .collect()
    }

    /// Number of set bits below index `i`, given this set's
    /// [`DenseBits::word_ranks`]. For a set bit that is its position in
    /// [`DenseBits::iter_ones`] order.
    #[inline]
    pub fn rank(&self, ranks: &[u32], i: usize) -> usize {
        debug_assert!(i < self.len);
        let below = self.words[i >> 6] & ((1u64 << (i & 63)) - 1);
        ranks[i >> 6] as usize + below.count_ones() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = DenseBits::zeros(200);
        assert!(b.is_empty());
        assert!(b.set(0));
        assert!(b.set(63));
        assert!(b.set(64));
        assert!(b.set(199));
        assert!(!b.set(64), "second set reports not-new");
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(199));
        assert!(!b.get(1) && !b.get(100));
        assert_eq!(b.count_ones(), 4);
        assert!(b.clear(63));
        assert!(!b.clear(63), "second clear reports absent");
        assert!(!b.get(63));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn iter_ones_is_ascending_and_complete() {
        let mut b = DenseBits::zeros(300);
        let picks = [0usize, 5, 63, 64, 65, 127, 128, 255, 299];
        for &i in picks.iter().rev() {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, picks);
    }

    #[test]
    fn rank_counts_set_bits_below_across_word_edges() {
        // Word 0 all ones, word 1 sparse (0, 63, 64, 65 edges), word 2 all
        // zeros, word 3 holds the last bit of a ragged length.
        let len = 3 * 64 + 10;
        let mut b = DenseBits::zeros(len);
        for i in 0..64 {
            b.set(i);
        }
        for i in [64, 64 + 1, 64 + 63] {
            b.set(i);
        }
        b.set(len - 1);
        let ranks = b.word_ranks();
        assert_eq!(ranks, vec![0, 64, 67, 67]);
        let naive = |i: usize| (0..i).filter(|&j| b.get(j)).count();
        for i in [0, 1, 63, 64, 65, 66, 127, 128, 129, 191, 192, len - 1] {
            assert_eq!(b.rank(&ranks, i), naive(i), "rank({i})");
        }
        // A set bit's rank is its position in ascending iteration order.
        for (pos, i) in b.iter_ones().enumerate() {
            assert_eq!(b.rank(&ranks, i), pos);
        }
        assert_eq!(b.rank(&ranks, len - 1), b.count_ones() - 1);
    }

    #[test]
    fn rank_of_all_zero_and_all_one_sets() {
        let zeros = DenseBits::zeros(130);
        let ranks = zeros.word_ranks();
        assert_eq!(ranks, vec![0, 0, 0]);
        assert!((0..130).all(|i| zeros.rank(&ranks, i) == 0));
        let mut ones = DenseBits::zeros(130);
        for i in 0..130 {
            ones.set(i);
        }
        let ranks = ones.word_ranks();
        assert_eq!(ranks, vec![0, 64, 128]);
        assert!((0..130).all(|i| ones.rank(&ranks, i) == i));
    }

    #[test]
    fn zero_length_is_empty() {
        let b = DenseBits::zeros(0);
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
    }
}
