//! Fixed-width histograms and percentiles.
//!
//! Used for distributional reporting (e.g. lookup path-length
//! distributions and the SLA-style tail latencies the paper's
//! introduction motivates: "a response within 300 ms for 99.9% of
//! requests").

/// Latency histogram range start, microseconds.
pub const LATENCY_LO_US: f64 = 0.0;
/// Latency histogram range end, microseconds (1 s; slower requests
/// land in the overflow bucket and still count toward quantiles).
pub const LATENCY_HI_US: f64 = 1_000_000.0;
/// Latency histogram bucket count: 50 µs resolution over `[0, 1s)`.
pub const LATENCY_BUCKETS: usize = 20_000;

/// A histogram over `[lo, hi)` with equal-width buckets plus explicit
/// underflow/overflow counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Build a histogram over `[lo, hi)` with `buckets` equal bins.
    ///
    /// # Panics
    /// Panics if `lo >= hi`, bounds are not finite, or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range [{lo}, {hi})");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
        }
    }

    /// The canonical request-latency histogram: microseconds over
    /// `[0, 1s)` in 50 µs buckets. One shape everywhere — the load
    /// generator's client-side histograms and the serve nodes'
    /// server-side phase histograms — so shards from either side
    /// always [`merge`](Histogram::merge).
    pub fn latency() -> Self {
        Histogram::new(LATENCY_LO_US, LATENCY_HI_US, LATENCY_BUCKETS)
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "observations must not be NaN");
        self.count += 1;
        self.sum += x;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total observations recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all recorded observations; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Upper edge of the bucket containing the `q`-quantile
    /// (`q ∈ [0, 1]`), a conservative (over-)estimate suitable for SLA
    /// checks. Underflow counts toward the lowest bucket; an answer in
    /// the overflow region returns `hi`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1], got {q}");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.lo + w * (i + 1) as f64);
            }
        }
        Some(self.hi)
    }

    /// Fold another histogram's observations into this one — used to
    /// combine per-thread latency histograms after a load-generation
    /// run.
    ///
    /// # Panics
    /// Panics unless both histograms share the same range and bucket
    /// count.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            (self.lo, self.hi, self.buckets.len()),
            (other.lo, other.hi, other.buckets.len()),
            "can only merge histograms of identical shape"
        );
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Forget every observation, keeping the shape — used by per-tick
    /// histograms that are drained and reused each control interval.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.underflow = 0;
        self.overflow = 0;
        self.count = 0;
        self.sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0);
        h.record(0.5);
        h.record(9.99);
        h.record(5.0);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[9], 1);
        assert_eq!(h.buckets()[5], 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.1);
        h.record(1.0); // hi is exclusive
        h.record(99.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn mean_tracks_all_observations() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [1.0, 2.0, 3.0, 100.0] {
            h.record(x);
        }
        assert!((h.mean() - 26.5).abs() < 1e-12, "overflow still counts in mean");
        assert_eq!(Histogram::new(0.0, 1.0, 1).mean(), 0.0);
    }

    #[test]
    fn quantiles_bucket_resolution() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        // Median falls in bucket 49 → upper edge 50.
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.quantile(0.0), Some(1.0), "q=0 → first occupied bucket");
    }

    #[test]
    fn quantile_empty_and_extremes() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert_eq!(h.quantile(0.5), None);
        let mut h2 = Histogram::new(0.0, 1.0, 2);
        h2.record(-5.0);
        assert_eq!(h2.quantile(0.5), Some(0.0), "all mass in underflow → lo");
        let mut h3 = Histogram::new(0.0, 1.0, 2);
        h3.record(5.0);
        assert_eq!(h3.quantile(0.5), Some(1.0), "all mass in overflow → hi");
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        let mut b = Histogram::new(0.0, 10.0, 10);
        for x in [1.5, 2.5, -1.0] {
            a.record(x);
        }
        for x in [1.5, 50.0] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.buckets()[1], 2);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 1);
        assert!((a.mean() - (1.5 + 2.5 - 1.0 + 1.5 + 50.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_counts_but_keeps_shape() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-1.0, 2.0, 99.0] {
            h.record(x);
        }
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), None);
        h.record(5.0);
        assert_eq!(h.buckets()[5], 1, "shape survives the clear");
    }

    #[test]
    fn latency_shape_merges_with_itself() {
        let mut a = Histogram::latency();
        let b = Histogram::latency();
        a.merge(&b);
        assert_eq!(a.count(), 0);
        a.record(125.0);
        assert_eq!(a.quantile(1.0), Some(150.0), "50 µs buckets");
    }

    #[test]
    #[should_panic(expected = "identical shape")]
    fn merge_rejects_shape_mismatch() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        a.merge(&Histogram::new(0.0, 10.0, 5));
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn rejects_inverted_range() {
        let _ = Histogram::new(5.0, 1.0, 3);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn rejects_zero_buckets() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
