//! Response-time statistics.
//!
//! The experiment harness replays 100,000 requests per run across worker
//! threads, so the accumulators here are **mergeable**: each worker fills
//! its own [`ResponseStats`], and the harness combines them without locks
//! in the hot path. Mean/variance use Welford's parallel-combinable form;
//! percentiles come from a fixed log-spaced histogram (response times span
//! roughly 1 s to 1000 s, so 1 % relative resolution needs only a few
//! hundred buckets).

use mmrepl_model::Secs;
use mmrepl_obs::Histogram;
use serde::{Deserialize, Serialize};

/// Streaming response-time statistics: count, mean, variance (Welford),
/// min/max, and a histogram for percentiles.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResponseStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    hist: Histogram,
}

impl Default for ResponseStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseStats {
    /// An empty accumulator with the default response-time histogram.
    pub fn new() -> Self {
        ResponseStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            hist: Histogram::for_response_times(),
        }
    }

    /// Records one response time.
    pub fn record(&mut self, t: Secs) {
        debug_assert!(t.is_valid(), "recording invalid time {t:?}");
        let v = t.get();
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.hist.record(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or `None` when empty.
    pub fn mean(&self) -> Option<Secs> {
        (self.count > 0).then_some(Secs(self.mean))
    }

    /// Sample standard deviation (n-1 denominator), or `None` for < 2
    /// samples.
    pub fn std_dev(&self) -> Option<f64> {
        (self.count > 1).then(|| (self.m2 / (self.count - 1) as f64).sqrt())
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<Secs> {
        (self.count > 0).then_some(Secs(self.min))
    }

    /// Largest sample.
    pub fn max(&self) -> Option<Secs> {
        (self.count > 0).then_some(Secs(self.max))
    }

    /// Approximate quantile from the histogram.
    pub fn quantile(&self, q: f64) -> Option<Secs> {
        self.hist.quantile(q).map(Secs)
    }

    /// The underlying response-time histogram (e.g. to merge a replay's
    /// distribution into an `mmrepl-obs` trace).
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Merges another accumulator (parallel Welford combination).
    pub fn merge(&mut self, other: &ResponseStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.hist.merge(&other.hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_report_none() {
        let s = ResponseStats::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_none());
        assert!(s.std_dev().is_none());
        assert!(s.min().is_none());
        assert!(s.max().is_none());
        assert!(s.quantile(0.5).is_none());
    }

    #[test]
    fn mean_min_max_exact() {
        let mut s = ResponseStats::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(Secs(v));
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean().unwrap().get() - 2.5).abs() < 1e-12);
        assert_eq!(s.min().unwrap().get(), 1.0);
        assert_eq!(s.max().unwrap().get(), 4.0);
        // std dev of 1,2,3,4 = sqrt(5/3)
        assert!((s.std_dev().unwrap() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let values: Vec<f64> = (1..=100).map(|i| (i as f64).sqrt() * 3.7).collect();
        let mut all = ResponseStats::new();
        for &v in &values {
            all.record(Secs(v));
        }
        let mut a = ResponseStats::new();
        let mut b = ResponseStats::new();
        for (i, &v) in values.iter().enumerate() {
            if i % 3 == 0 {
                a.record(Secs(v));
            } else {
                b.record(Secs(v));
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean().unwrap().get() - all.mean().unwrap().get()).abs() < 1e-9);
        assert!((a.std_dev().unwrap() - all.std_dev().unwrap()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = ResponseStats::new();
        s.record(Secs(5.0));
        let snapshot = s.clone();
        s.merge(&ResponseStats::new());
        assert_eq!(s, snapshot);

        let mut empty = ResponseStats::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn histogram_quantiles_are_approximately_right() {
        let mut s = ResponseStats::new();
        // Uniform 1..=1000 seconds.
        for i in 1..=1000 {
            s.record(Secs(i as f64));
        }
        let p50 = s.quantile(0.5).unwrap().get();
        let p95 = s.quantile(0.95).unwrap().get();
        assert!((p50 / 500.0 - 1.0).abs() < 0.05, "p50 = {p50}");
        assert!((p95 / 950.0 - 1.0).abs() < 0.05, "p95 = {p95}");
        let p0 = s.quantile(0.0).unwrap().get();
        assert!(p0 <= s.quantile(1.0).unwrap().get());
    }

    // Histogram-specific behaviour (ranges, merging, boundary
    // round-trips) is tested where the implementation lives: mmrepl-obs.

    #[test]
    fn single_sample_quantiles() {
        let mut s = ResponseStats::new();
        s.record(Secs(42.0));
        let q = s.quantile(0.5).unwrap().get();
        assert!((q / 42.0 - 1.0).abs() < 0.05, "q = {q}");
    }
}
