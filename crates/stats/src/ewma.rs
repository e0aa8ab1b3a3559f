//! Exponentially-weighted moving averages (paper eqs. 10–11).
//!
//! The paper smooths both the per-partition system query rate and every
//! node's traffic with the same factor α:
//!
//! ```text
//! q̄_t  = α·q̄_{t−1}  + (1 − α)·q_t        (eq. 10)
//! t̄r_t = α·t̄r_{t−1} + (1 − α)·tr_t       (eq. 11)
//! ```
//!
//! Note the convention: **α weights history**, so α → 1 is maximally
//! sticky and α → 0 disables smoothing. Table I uses α = 0.2.

/// Apply `n` zero-observation EWMA steps to `value` and return the
/// result, bit-identical to folding `alpha·v + (1 − alpha)·0.0` exactly
/// `n` times.
///
/// This is the closed form the sparse epoch engine uses to catch a cold
/// partition's smoothed state up after `n` untouched epochs without
/// paying O(n) work for large gaps: the recurrence reaches a bitwise
/// fixpoint (zero after underflow for α < 1; immediately for α = 1 on
/// non-negative values) in a bounded number of steps, so iteration stops
/// as soon as one step no longer changes the bits. A naive single
/// multiply by `alpha^n` is **not** used because it rounds differently
/// from the step-by-step recurrence and would break dense/sparse
/// bit-equality.
///
/// Note the `+ (1 − alpha)·0.0` term is kept: adding `+0.0` normalises
/// `-0.0` to `+0.0`, exactly as the explicit recurrence does.
pub fn decay_zeros(alpha: f64, value: f64, n: u64) -> f64 {
    let mut v = value;
    for _ in 0..n {
        let next = alpha * v + (1.0 - alpha) * 0.0;
        if next.to_bits() == v.to_bits() {
            // Bitwise fixpoint: every further step is the identity.
            return next;
        }
        v = next;
    }
    v
}

/// An EWMA smoother following the paper's convention (α weights the
/// *previous* smoothed value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create a smoother with history weight `alpha ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `[0, 1]` or not finite — thresholds
    /// are validated at configuration time, so a bad α here is a bug.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && (0.0..=1.0).contains(&alpha),
            "EWMA alpha must be in [0, 1], got {alpha}"
        );
        Ewma { alpha, value: None }
    }

    /// The history weight α.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Feed one observation and return the new smoothed value.
    ///
    /// The first observation initialises the average (there is no
    /// `t−1` value yet), matching how the paper's recurrences start.
    pub fn update(&mut self, observation: f64) -> f64 {
        let next = match self.value {
            None => observation,
            Some(prev) => self.alpha * prev + (1.0 - self.alpha) * observation,
        };
        self.value = Some(next);
        next
    }

    /// Current smoothed value, or `None` before any observation.
    #[inline]
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Forget all history (used when a node recovers from failure: its
    /// stale traffic history must not influence fresh decisions).
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_initialises() {
        let mut e = Ewma::new(0.2);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn paper_recurrence_alpha_weights_history() {
        // q̄ = α·q̄_prev + (1−α)·q with α = 0.2.
        let mut e = Ewma::new(0.2);
        e.update(100.0);
        let v = e.update(0.0);
        assert!((v - 20.0).abs() < 1e-12, "0.2·100 + 0.8·0 = 20, got {v}");
        let v = e.update(50.0);
        assert!((v - (0.2 * 20.0 + 0.8 * 50.0)).abs() < 1e-12);
    }

    #[test]
    fn alpha_zero_tracks_input_exactly() {
        let mut e = Ewma::new(0.0);
        e.update(5.0);
        assert_eq!(e.update(42.0), 42.0);
        assert_eq!(e.update(-3.0), -3.0);
    }

    #[test]
    fn alpha_one_never_moves() {
        let mut e = Ewma::new(1.0);
        e.update(7.0);
        e.update(1000.0);
        e.update(-1000.0);
        assert_eq!(e.value(), Some(7.0));
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        for _ in 0..64 {
            e.update(33.0);
        }
        assert!((e.value().unwrap() - 33.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_dampens_spikes() {
        // The motivation for eq. 10: a one-epoch spike must not double
        // the perceived load.
        let mut smooth = Ewma::new(0.8); // heavy history
        for _ in 0..20 {
            smooth.update(100.0);
        }
        let spiked = smooth.update(1000.0);
        assert!(spiked < 300.0, "spike should be dampened, got {spiked}");
    }

    #[test]
    fn reset_forgets_history() {
        let mut e = Ewma::new(0.5);
        e.update(10.0);
        e.reset();
        assert_eq!(e.value(), None);
        assert_eq!(e.update(4.0), 4.0);
    }

    /// Property test for the sparse engine's cornerstone: folding `n`
    /// zero observations in closed form must be *bit*-equal to feeding
    /// `n` explicit zeros, for every α (including the 0 and 1 edges),
    /// across magnitudes down to subnormals and the `-0.0` edge.
    #[test]
    fn decay_zeros_bit_equals_explicit_zero_observations() {
        let alphas = [0.0, 1e-3, 0.2, 0.5, 0.85, 1.0 - 1e-12, 1.0];
        let starts = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            300.0,
            1e-300,
            5e-324, // smallest subnormal
            f64::MAX,
            1.2345678901234e-8,
        ];
        let gaps = [0u64, 1, 2, 3, 7, 64, 1000, 5000];
        for &alpha in &alphas {
            for &start in &starts {
                for &n in &gaps {
                    let fast = decay_zeros(alpha, start, n);
                    let mut slow = Ewma::new(alpha);
                    slow.update(start);
                    for _ in 0..n {
                        slow.update(0.0);
                    }
                    let s = slow.value().expect("seeded");
                    assert_eq!(
                        fast.to_bits(),
                        s.to_bits(),
                        "alpha={alpha} start={start} n={n}: fast {fast} vs slow {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn decay_zeros_matches_manual_fold() {
        let mut v: f64 = 17.25;
        for n in 0..200u64 {
            assert_eq!(decay_zeros(0.2, 17.25, n).to_bits(), v.to_bits(), "n={n}");
            v = 0.2 * v + 0.8 * 0.0;
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn rejects_invalid_alpha() {
        let _ = Ewma::new(1.5);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn rejects_nan_alpha() {
        let _ = Ewma::new(f64::NAN);
    }
}
