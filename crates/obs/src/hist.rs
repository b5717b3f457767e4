//! Log-spaced histogram.
//!
//! The one histogram implementation shared by the whole workspace:
//! `netsim::metrics` re-exports it for response-time percentiles, and the
//! [`crate::Recorder`] uses it for traced value distributions. Buckets
//! are geometric, so a few hundred of them give ~2 % relative resolution
//! over five decades — the right trade for positive, heavy-tailed
//! quantities like response times and absorbed workloads.

use serde::{Deserialize, Serialize};

/// Log-spaced histogram over `[min, max]` with saturating under/overflow
/// buckets.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    min: f64,
    max: f64,
    log_min: f64,
    log_width: f64,
    buckets: Vec<u64>,
}

impl Histogram {
    /// A histogram with `n_buckets` log-spaced buckets covering
    /// `[min, max]` (both positive, min < max).
    pub fn new(min: f64, max: f64, n_buckets: usize) -> Self {
        assert!(
            min > 0.0 && max > min,
            "invalid histogram range [{min}, {max}]"
        );
        assert!(n_buckets >= 1, "need at least one bucket");
        let log_min = min.ln();
        let log_width = (max.ln() - log_min) / n_buckets as f64;
        Histogram {
            min,
            max,
            log_min,
            log_width,
            // +2 for the underflow and overflow buckets.
            buckets: vec![0; n_buckets + 2],
        }
    }

    /// The default range for response times: 10 ms to 100,000 s at ~2 %
    /// relative resolution (modem-era multimedia pages run to minutes;
    /// deliberately-overloaded queueing scenarios to hours).
    pub fn for_response_times() -> Self {
        Histogram::new(0.01, 100_000.0, 800)
    }

    /// The default range for traced values of unknown scale: 1 ns to 1e9
    /// at ~5 % relative resolution. Used by [`crate::record_value`] when a
    /// metric has no explicit configuration.
    pub fn for_traced_values() -> Self {
        Histogram::new(1e-9, 1e9, 800)
    }

    fn bucket_of(&self, v: f64) -> usize {
        if v < self.min {
            0
        } else if v >= self.max {
            self.buckets.len() - 1
        } else {
            1 + (((v.ln() - self.log_min) / self.log_width) as usize).min(self.buckets.len() - 3)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        let b = self.bucket_of(v);
        self.buckets[b] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Approximate `q`-quantile (`0 <= q <= 1`), or `None` when empty.
    /// Returns the geometric midpoint of the bucket containing the
    /// quantile.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(self.bucket_value(i));
            }
        }
        Some(self.max)
    }

    fn bucket_value(&self, i: usize) -> f64 {
        if i == 0 {
            self.min
        } else if i == self.buckets.len() - 1 {
            self.max
        } else {
            // Geometric midpoint of the bucket.
            let lo = self.log_min + (i - 1) as f64 * self.log_width;
            (lo + 0.5 * self.log_width).exp()
        }
    }

    /// Samples at or below `v`, bucket-granular: every sample sharing
    /// `v`'s bucket counts, so the answer can overshoot by at most one
    /// bucket's worth (~2 % relative for the response-time layout).
    /// This is the "good" count for a latency objective.
    pub fn count_below(&self, v: f64) -> u64 {
        let b = self.bucket_of(v);
        self.buckets[..=b].iter().sum()
    }

    /// True when the two histograms share a bucket layout and may be
    /// merged.
    pub fn compatible(&self, other: &Histogram) -> bool {
        self.min == other.min && self.max == other.max && self.buckets.len() == other.buckets.len()
    }

    /// The samples recorded since `earlier`, an older copy of this
    /// cumulative histogram: bucket-count differences, saturating at 0
    /// for a bucket a drained sink restarted below `earlier`.
    pub(crate) fn since(&self, earlier: &Histogram) -> Histogram {
        debug_assert!(
            self.compatible(earlier),
            "differencing incompatible histograms"
        );
        let mut out = self.clone();
        for (a, &b) in out.buckets.iter_mut().zip(&earlier.buckets) {
            *a = a.saturating_sub(b);
        }
        out
    }

    /// Merges another histogram with identical configuration.
    ///
    /// # Panics
    /// Panics if the configurations differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(self.compatible(other), "merging incompatible histograms");
        for (a, &b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_handles_out_of_range() {
        let mut h = Histogram::new(1.0, 100.0, 10);
        h.record(0.5); // underflow
        h.record(1e9); // overflow
        h.record(10.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0), Some(1.0)); // underflow bucket
        assert_eq!(h.quantile(1.0), Some(100.0)); // overflow bucket
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new(1.0, 100.0, 10);
        let mut b = Histogram::new(1.0, 100.0, 10);
        a.record(5.0);
        b.record(5.0);
        b.record(50.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn histogram_merge_rejects_mismatch() {
        let mut a = Histogram::new(1.0, 100.0, 10);
        let b = Histogram::new(1.0, 100.0, 20);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "invalid histogram range")]
    fn histogram_rejects_bad_range() {
        let _ = Histogram::new(0.0, 10.0, 5);
    }

    #[test]
    fn quantile_round_trips_at_bucket_boundaries() {
        // Samples placed exactly on bucket boundaries must come back from
        // `quantile` inside the bucket they were assigned to: within one
        // bucket's relative width of the recorded value, with underflow
        // and overflow pinned to the range ends.
        let (min, max, n) = (1.0, 1024.0, 10);
        let h_ref = Histogram::new(min, max, n);
        let log_width = (max.ln() - min.ln()) / n as f64;
        for b in 0..n {
            // The exact lower edge of interior bucket `b`.
            let edge = (min.ln() + b as f64 * log_width).exp();
            let mut h = Histogram::new(min, max, n);
            h.record(edge);
            let q = h.quantile(0.5).unwrap();
            // Geometric midpoint of the bucket containing `edge`: within
            // half a bucket width in log space.
            let err = (q.ln() - edge.ln()).abs();
            assert!(
                err <= 0.5 * log_width + 1e-12,
                "edge {edge}: quantile {q} strayed {err} (> half width {log_width})"
            );
        }
        // Exact range endpoints: min lands in the first interior bucket,
        // max saturates into the overflow bucket and reports `max`.
        let mut h = h_ref.clone();
        h.record(min);
        assert!((h.quantile(0.5).unwrap().ln() - (min.ln() + 0.5 * log_width)).abs() < 1e-9);
        let mut h = h_ref;
        h.record(max);
        assert_eq!(h.quantile(0.5), Some(max));
    }

    #[test]
    fn merge_of_two_empty_histograms_stays_empty() {
        let mut a = Histogram::new(1.0, 100.0, 10);
        let b = Histogram::new(1.0, 100.0, 10);
        a.merge(&b);
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile(0.5), None);
        assert_eq!(a.quantile(1.0), None);
    }

    #[test]
    fn merge_accumulates_overflow_and_underflow_buckets() {
        let mut a = Histogram::new(1.0, 100.0, 10);
        let mut b = Histogram::new(1.0, 100.0, 10);
        a.record(1e6); // overflow
        b.record(1e7); // overflow
        b.record(0.1); // underflow
        a.merge(&b);
        assert_eq!(a.count(), 3);
        // Both overflow samples saturate at `max`, the underflow at `min`.
        assert_eq!(a.quantile(1.0), Some(100.0));
        assert_eq!(a.quantile(0.0), Some(1.0));
        assert_eq!(a.count_below(0.5), 1, "only the underflow sample");
        assert_eq!(a.count_below(1e9), 3, "everything, overflow included");
    }

    #[test]
    fn single_sample_answers_every_quantile_identically() {
        let mut h = Histogram::new(1.0, 100.0, 10);
        h.record(7.0);
        let v = h.quantile(0.5).unwrap();
        for q in [0.0, 0.25, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), Some(v), "quantile {q} disagrees");
        }
        // The merge of a single-sample histogram into an empty one
        // preserves that behaviour.
        let mut empty = Histogram::new(1.0, 100.0, 10);
        empty.merge(&h);
        assert_eq!(empty.quantile(0.999), Some(v));
    }

    #[test]
    fn count_below_is_a_cumulative_bucket_sum() {
        let mut h = Histogram::new(1.0, 100.0, 10);
        for v in [0.5, 2.0, 5.0, 50.0, 500.0] {
            h.record(v);
        }
        assert_eq!(h.count_below(0.1), 1, "underflow bucket always counts");
        assert_eq!(h.count_below(10.0), 3);
        assert_eq!(h.count_below(99.0), 4);
        assert_eq!(h.count_below(1e9), 5);
    }

    #[test]
    fn compatible_detects_layout_mismatch() {
        let a = Histogram::new(1.0, 100.0, 10);
        assert!(a.compatible(&Histogram::new(1.0, 100.0, 10)));
        assert!(!a.compatible(&Histogram::new(1.0, 100.0, 11)));
        assert!(!a.compatible(&Histogram::new(2.0, 100.0, 10)));
    }
}
