//! Property-based tests for workload generation.

use proptest::prelude::*;
use rfh_types::{DatacenterId, FlashCrowdConfig, PartitionId};
use rfh_workload::{QueryLoad, Scenario, WorkloadGenerator, Zipf};

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    prop_oneof![
        Just(Scenario::RandomEven),
        Just(Scenario::FlashCrowd(FlashCrowdConfig::default())),
        (0u32..10, 0u32..10, 0.1f64..0.95).prop_map(|(from, to, hot_fraction)| {
            Scenario::LocationShift { from, to, hot_fraction }
        }),
        Just(Scenario::PopularityShift),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn origin_weights_always_a_distribution(
        scenario in arb_scenario(),
        epoch in 0u64..500,
        total in 1u64..500,
        dcs in 1u32..20,
    ) {
        let w = scenario.origin_weights(epoch, total, dcs);
        prop_assert_eq!(w.len(), dcs as usize);
        prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn popularity_rotation_in_range(
        scenario in arb_scenario(),
        epoch in 0u64..2000,
        total in 0u64..500,
        partitions in 1u32..128,
    ) {
        let r = scenario.popularity_rotation(epoch, total, partitions);
        prop_assert!(r < partitions.max(1));
    }

    #[test]
    fn generated_load_conserves_counts(
        seed in any::<u64>(),
        scenario in arb_scenario(),
        lambda in 1.0f64..200.0,
    ) {
        let mut g = WorkloadGenerator::new(lambda, 16, 8, 0.8, scenario, 40, seed);
        for e in 0..5 {
            let l = g.epoch_load(e);
            // Row sums and column sums must both equal the grand total.
            let by_partition: u64 = (0..16).map(|p| l.partition_total(PartitionId::new(p))).sum();
            let by_requester: u64 = (0..8).map(|d| l.requester_total(DatacenterId::new(d))).sum();
            prop_assert_eq!(by_partition, l.total());
            prop_assert_eq!(by_requester, l.total());
        }
    }

    #[test]
    fn zipf_cdf_is_exhaustive(n in 1usize..200, s in 0.0f64..3.0, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let z = Zipf::new(n, s);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let k = z.sample(&mut rng);
            prop_assert!(k < n);
        }
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn query_load_add_accumulates(cells in proptest::collection::vec((0u32..8, 0u32..4, 1u32..10), 0..50)) {
        let mut l = QueryLoad::zeros(8, 4);
        let mut expect = std::collections::HashMap::new();
        for &(p, d, c) in &cells {
            l.add(PartitionId::new(p), DatacenterId::new(d), c);
            *expect.entry((p, d)).or_insert(0u32) += c;
        }
        for ((p, d), c) in expect {
            prop_assert_eq!(l.get(PartitionId::new(p), DatacenterId::new(d)), c);
        }
        prop_assert_eq!(l.total(), cells.iter().map(|&(_, _, c)| c as u64).sum::<u64>());
    }
}
