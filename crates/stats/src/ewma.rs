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

/// One EWMA step: fold observation `obs` into the smoothed value
/// `prev` with history weight `alpha`.
///
/// Every smoothed quantity in the workspace takes its steps through
/// this one expression, so two paths that fold the same observations
/// produce the same bits.
#[inline]
pub fn ewma_step(alpha: f64, prev: f64, obs: f64) -> f64 {
    alpha * prev + (1.0 - alpha) * obs
}

/// Apply `n` zero-observation EWMA steps to `value` and return the
/// result, bit-identical to folding [`ewma_step`] with a `0.0`
/// observation exactly `n` times.
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
        let next = ewma_step(alpha, v, 0.0);
        if next.to_bits() == v.to_bits() {
            // Bitwise fixpoint: every further step is the identity.
            return next;
        }
        v = next;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold `xs` from `start`, one [`ewma_step`] each.
    fn fold(alpha: f64, start: f64, xs: impl IntoIterator<Item = f64>) -> f64 {
        xs.into_iter().fold(start, |v, x| ewma_step(alpha, v, x))
    }

    #[test]
    fn paper_recurrence_alpha_weights_history() {
        // q̄ = α·q̄_prev + (1−α)·q with α = 0.2.
        let v = ewma_step(0.2, 100.0, 0.0);
        assert!((v - 20.0).abs() < 1e-12, "0.2·100 + 0.8·0 = 20, got {v}");
        let v = ewma_step(0.2, v, 50.0);
        assert!((v - (0.2 * 20.0 + 0.8 * 50.0)).abs() < 1e-12);
    }

    #[test]
    fn alpha_zero_tracks_input_exactly() {
        assert_eq!(ewma_step(0.0, 5.0, 42.0), 42.0);
        assert_eq!(ewma_step(0.0, 42.0, -3.0), -3.0);
    }

    #[test]
    fn alpha_one_never_moves() {
        assert_eq!(fold(1.0, 7.0, [1000.0, -1000.0]), 7.0);
    }

    #[test]
    fn converges_to_constant_input() {
        assert!((fold(0.2, 0.0, [33.0; 64]) - 33.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_dampens_spikes() {
        // The motivation for eq. 10: a one-epoch spike must not double
        // the perceived load.
        let settled = fold(0.8, 100.0, [100.0; 20]); // heavy history
        let spiked = ewma_step(0.8, settled, 1000.0);
        assert!(spiked < 300.0, "spike should be dampened, got {spiked}");
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
                    let slow = fold(alpha, start, (0..n).map(|_| 0.0));
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "alpha={alpha} start={start} n={n}: fast {fast} vs slow {slow}"
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
}
