//! Property-based tests for the statistical substrate.

use proptest::prelude::*;
use rfh_stats::{
    eq14_availability, erlang_b, ewma_step, load_imbalance, min_replica_count, read_availability,
    Histogram, TimeSeries, Welford,
};

proptest! {
    #[test]
    fn ewma_stays_within_observed_range(
        alpha in 0.0f64..=1.0,
        xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
    ) {
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut v = xs[0];
        for &x in &xs[1..] {
            v = ewma_step(alpha, v, x);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9,
                "EWMA is a convex combination; {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn erlang_b_is_a_probability(a in 0.0f64..1e4, c in 0u32..2000) {
        let b = erlang_b(a, c);
        prop_assert!((0.0..=1.0).contains(&b), "got {b}");
    }

    #[test]
    fn erlang_b_monotone_in_c(a in 0.01f64..500.0, c in 1u32..500) {
        prop_assert!(erlang_b(a, c + 1) <= erlang_b(a, c) + 1e-12);
    }

    #[test]
    fn eq14_is_probability_and_matches_sum_form(m in 0u32..64, f in 0.0f64..=1.0) {
        let a = eq14_availability(m, f);
        prop_assert!((0.0..=1.0).contains(&a));
        if m <= 24 {
            // The literal alternating sum is only stable for small m.
            let sum = rfh_stats::availability::eq14_sum_form(m, f);
            prop_assert!((a - sum).abs() < 1e-9, "m={m} f={f}: {a} vs {sum}");
        }
    }

    #[test]
    fn r_min_always_at_least_one(f in 0.0f64..=1.0, a in 0.0f64..1.0) {
        prop_assert!(min_replica_count(f, a) >= 1);
    }

    #[test]
    fn read_availability_monotone(m in 0u32..32, f in 0.0f64..=1.0) {
        prop_assert!(read_availability(m + 1, f) >= read_availability(m, f) - 1e-15);
    }

    #[test]
    fn welford_matches_two_pass(xs in proptest::collection::vec(-1e3f64..1e3, 1..300)) {
        let w: Welford = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((w.mean() - mean).abs() < 1e-8);
        prop_assert!((w.variance_population() - var).abs() < 1e-6);
    }

    #[test]
    fn welford_merge_is_order_insensitive(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
        ys in proptest::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let mut ab: Welford = xs.iter().copied().collect();
        ab.merge(&ys.iter().copied().collect());
        let mut ba: Welford = ys.iter().copied().collect();
        ba.merge(&xs.iter().copied().collect());
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance_population() - ba.variance_population()).abs() < 1e-6);
    }

    #[test]
    fn load_imbalance_shift_invariant(
        xs in proptest::collection::vec(0.0f64..1e4, 2..100),
        shift in -1e4f64..1e4,
    ) {
        let base = load_imbalance(&xs);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((base - load_imbalance(&shifted)).abs() < 1e-6);
    }

    #[test]
    fn histogram_conserves_observations(
        xs in proptest::collection::vec(-10.0f64..20.0, 0..200),
    ) {
        let mut h = Histogram::new(0.0, 10.0, 7);
        for &x in &xs {
            h.record(x);
        }
        let total: u64 = h.buckets().iter().sum::<u64>() + h.underflow() + h.overflow();
        prop_assert_eq!(total, xs.len() as u64);
        prop_assert_eq!(h.count(), xs.len() as u64);
    }

    #[test]
    fn histogram_quantiles_monotone(
        xs in proptest::collection::vec(0.0f64..10.0, 1..200),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        let mut h = Histogram::new(0.0, 10.0, 16);
        for &x in &xs {
            h.record(x);
        }
        let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(h.quantile(lo_q).unwrap() <= h.quantile(hi_q).unwrap());
    }

    #[test]
    fn histogram_merge_of_shards_equals_union(
        obs in proptest::collection::vec((-1e5f64..1.5e6, 0usize..4), 0..300),
    ) {
        // The serve telemetry model: observations land on one of four
        // mutex shards; exposition merges the shards. The merge must
        // be indistinguishable from one histogram fed the union —
        // including under/overflow mass and every quantile.
        let mut shards = [(); 4].map(|_| Histogram::latency());
        let mut union = Histogram::latency();
        for &(x, s) in &obs {
            shards[s].record(x);
            union.record(x);
        }
        let mut merged = Histogram::latency();
        for shard in &shards {
            merged.merge(shard);
        }
        prop_assert_eq!(merged.count(), union.count());
        prop_assert_eq!(merged.underflow(), union.underflow());
        prop_assert_eq!(merged.overflow(), union.overflow());
        prop_assert_eq!(merged.buckets(), union.buckets());
        // Shard-then-merge reassociates the sum; allow relative error.
        prop_assert!((merged.mean() - union.mean()).abs() < 1e-9 * (1.0 + union.mean().abs()));
        for q in [0.5, 0.99, 0.999] {
            prop_assert_eq!(merged.quantile(q), union.quantile(q));
        }
        if !obs.is_empty() {
            let (p50, p99, p999) = (
                merged.quantile(0.5).unwrap(),
                merged.quantile(0.99).unwrap(),
                merged.quantile(0.999).unwrap(),
            );
            prop_assert!(p50 <= p99 && p99 <= p999, "quantiles monotone: {p50} {p99} {p999}");
        }
    }

    #[test]
    fn histogram_clear_is_like_new(
        xs in proptest::collection::vec(-1e5f64..1.5e6, 0..100),
        ys in proptest::collection::vec(-1e5f64..1.5e6, 0..100),
    ) {
        let mut reused = Histogram::latency();
        for &x in &xs {
            reused.record(x);
        }
        reused.clear();
        let mut fresh = Histogram::latency();
        for &y in &ys {
            reused.record(y);
            fresh.record(y);
        }
        prop_assert_eq!(reused, fresh);
    }

    #[test]
    fn timeseries_cumulative_last_is_sum(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let mut s = TimeSeries::new("x");
        for &x in &xs {
            s.push(x);
        }
        let cum = s.cumulative();
        prop_assert_eq!(cum.len(), s.len());
        let total: f64 = xs.iter().sum();
        prop_assert!((cum.last().unwrap() - total).abs() < 1e-6);
    }

    #[test]
    fn timeseries_smoothing_bounded_by_range(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
        window in 0usize..12,
    ) {
        let mut s = TimeSeries::new("x");
        for &x in &xs {
            s.push(x);
        }
        let lo = s.min().unwrap();
        let hi = s.max().unwrap();
        for &v in s.smoothed(window).values() {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }
}
