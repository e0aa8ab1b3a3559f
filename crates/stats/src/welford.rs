//! Streaming mean / variance (Welford's algorithm).
//!
//! The load-imbalance metric of the paper (eqs. 24–26) is the population
//! standard deviation of per-node workload:
//!
//! ```text
//! Lb = sqrt( Σ (l_i − l̄)² / n )
//! ```
//!
//! Welford's update computes it in one pass without catastrophic
//! cancellation, which matters because per-node loads span several orders
//! of magnitude between idle servers and traffic hubs.

/// One-pass mean / variance accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "observations must not be NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (`l̄` in eq. 24); 0 when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divide by `n`, as eq. 25 does); 0 when empty.
    pub fn variance_population(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Population standard deviation — the paper's `Lb` (eq. 25).
    pub fn stddev_population(&self) -> f64 {
        self.variance_population().sqrt()
    }

    /// Merge another accumulator into this one (parallel reduction;
    /// Chan et al. combining formula). Order-insensitive up to floating
    /// point rounding.
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

impl Extend<f64> for Welford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut w = Welford::new();
        w.extend(iter);
        w
    }
}

/// Convenience: the paper's load-imbalance `Lb` (eq. 25) of a slice of
/// per-node workloads.
pub fn load_imbalance(loads: &[f64]) -> f64 {
    loads.iter().copied().collect::<Welford>().stddev_population()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_is_zeroes() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance_population(), 0.0);
        assert_eq!(w.stddev_population(), 0.0);
    }

    #[test]
    fn single_observation() {
        let w: Welford = [5.0].into_iter().collect();
        assert_eq!(w.mean(), 5.0);
        assert_eq!(w.variance_population(), 0.0);
    }

    #[test]
    fn known_small_dataset() {
        // loads 2, 4, 4, 4, 5, 5, 7, 9: mean 5, population stddev 2.
        let w: Welford = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.stddev_population() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn identical_loads_have_zero_imbalance() {
        assert_eq!(load_imbalance(&[7.0; 100]), 0.0);
    }

    #[test]
    fn imbalance_detects_skew() {
        // Perfectly balanced vs one hot node.
        let balanced = load_imbalance(&[10.0; 10]);
        let skewed = load_imbalance(&[100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(balanced, 0.0);
        assert!(skewed > 25.0);
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case: tiny variance around a
        // huge mean.
        let base = 1e12;
        let w: Welford = [base + 1.0, base + 2.0, base + 3.0].into_iter().collect();
        assert!((w.mean() - (base + 2.0)).abs() < 1e-3);
        let expected_var = 2.0 / 3.0;
        assert!(
            (w.variance_population() - expected_var).abs() < 1e-6,
            "got {}",
            w.variance_population()
        );
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64 / 3.0).collect();
        let sequential: Welford = data.iter().copied().collect();
        let (a, b) = data.split_at(313);
        let mut merged: Welford = a.iter().copied().collect();
        merged.merge(&b.iter().copied().collect());
        assert_eq!(merged.count(), sequential.count());
        assert!((merged.mean() - sequential.mean()).abs() < 1e-9);
        assert!((merged.m2 - sequential.m2).abs() < 1e-6 * sequential.m2.abs().max(1.0));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut w: Welford = [1.0, 2.0].into_iter().collect();
        let before = w;
        w.merge(&Welford::new());
        assert_eq!(w, before);
        let mut empty = Welford::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
