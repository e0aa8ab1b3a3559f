//! Erlang-B blocking probability (paper eq. 18).
//!
//! RFH picks, among the physical servers of the chosen datacenter, the
//! one with the lowest blocking probability
//!
//! ```text
//! BP_i = ( (λτ)^c / c! ) · ( Σ_{k=0}^{c} (λτ)^k / k! )^{-1}
//! ```
//!
//! where λ is the Poisson arrival rate at server *i*, τ its mean service
//! time and *c* its processing limit (an M/G/c/c loss model; the Erlang-B
//! formula is insensitive to the service-time distribution beyond its
//! mean).
//!
//! The naive formula overflows `f64` factorials beyond c ≈ 170, so we use
//! the standard numerically-stable recurrence
//! `B(0) = 1`, `B(c) = a·B(c−1) / (c + a·B(c−1))` with offered load
//! `a = λτ`, which is exact and runs in O(c) without large intermediates.

/// Offered load `a = λ·τ` in Erlangs.
///
/// Returns 0 for non-positive inputs — an idle or unmeasured server
/// blocks nothing.
#[inline]
pub fn offered_load(lambda: f64, tau: f64) -> f64 {
    if lambda <= 0.0 || tau <= 0.0 {
        0.0
    } else {
        lambda * tau
    }
}

/// Erlang-B blocking probability for offered load `a` (Erlangs) and `c`
/// servers (processing limit).
///
/// * `a ≤ 0` → 0.0 (nothing offered, nothing blocked)
/// * `c = 0` → 1.0 for positive load (no capacity blocks everything)
///
/// # Panics
/// Panics if `a` is NaN; offered load is computed from measured
/// non-negative rates, so NaN indicates a bug upstream.
pub fn erlang_b(a: f64, c: u32) -> f64 {
    assert!(!a.is_nan(), "offered load must not be NaN");
    if a <= 0.0 {
        return 0.0;
    }
    if c == 0 {
        return 1.0;
    }
    let mut b = 1.0_f64;
    for k in 1..=c {
        b = a * b / (k as f64 + a * b);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (factorial) evaluation for small c, as written in eq. 18.
    fn erlang_b_direct(a: f64, c: u32) -> f64 {
        let mut sum = 0.0;
        let mut term = 1.0; // a^k / k!
        for k in 0..=c {
            if k > 0 {
                term *= a / k as f64;
            }
            sum += term;
        }
        term / sum
    }

    #[test]
    fn matches_direct_formula_for_small_c() {
        for &a in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            for c in 1..=20u32 {
                let fast = erlang_b(a, c);
                let direct = erlang_b_direct(a, c);
                assert!((fast - direct).abs() < 1e-12, "a={a} c={c}: {fast} vs {direct}");
            }
        }
    }

    #[test]
    fn textbook_values() {
        // Classic reference points from Erlang-B tables.
        assert!((erlang_b(1.0, 1) - 0.5).abs() < 1e-12, "a=1,c=1 → 1/2");
        assert!((erlang_b(1.0, 2) - 0.2).abs() < 1e-12, "a=1,c=2 → 1/5");
        // a=10 Erlangs, c=10 servers → ≈ 0.2146.
        let b = erlang_b(10.0, 10);
        assert!((b - 0.2146).abs() < 5e-4, "got {b}");
    }

    #[test]
    fn zero_capacity_blocks_everything() {
        assert_eq!(erlang_b(3.0, 0), 1.0);
    }

    #[test]
    fn zero_load_blocks_nothing() {
        assert_eq!(erlang_b(0.0, 0), 0.0);
        assert_eq!(erlang_b(0.0, 5), 0.0);
        assert_eq!(erlang_b(-1.0, 5), 0.0, "negative load treated as idle");
    }

    #[test]
    fn monotone_decreasing_in_servers() {
        let a = 8.0;
        let mut prev = 1.0;
        for c in 1..200 {
            let b = erlang_b(a, c);
            assert!(b <= prev + 1e-15, "B must not increase with capacity");
            prev = b;
        }
        assert!(prev < 1e-10, "with c ≫ a blocking vanishes");
    }

    #[test]
    fn monotone_increasing_in_load() {
        let c = 10;
        let mut prev = 0.0;
        for i in 1..100 {
            let b = erlang_b(i as f64 * 0.5, c);
            assert!(b >= prev - 1e-15, "B must not decrease with load");
            prev = b;
        }
    }

    #[test]
    fn stable_for_huge_c() {
        // The factorial form overflows around c = 171; the recurrence
        // must stay finite and within [0, 1].
        let b = erlang_b(500.0, 1000);
        assert!((0.0..=1.0).contains(&b));
        let b = erlang_b(1e6, 100_000);
        assert!((0.0..=1.0).contains(&b));
    }

    #[test]
    fn offered_load_guards_degenerate_inputs() {
        assert_eq!(offered_load(2.0, 3.0), 6.0);
        assert_eq!(offered_load(0.0, 3.0), 0.0);
        assert_eq!(offered_load(2.0, -1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_load_panics() {
        let _ = erlang_b(f64::NAN, 3);
    }
}
