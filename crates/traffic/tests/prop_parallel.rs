//! Property: the sharded traffic pass — per-shard accumulators merged
//! in canonical partition order — is *bit-for-bit* equal to the one-shot
//! `compute_traffic` pass for arbitrary topologies, workloads, and
//! worker counts, including pools wider than the partition count (some
//! shards then own zero partitions and must contribute nothing).

use proptest::prelude::*;
use rfh_pool::WorkerPool;
use rfh_topology::{paper_topology, Topology};
use rfh_traffic::{compute_traffic, PlacementView, TrafficEngine};
use rfh_types::{DatacenterId, PartitionId, ServerId};
use rfh_workload::QueryLoad;

const PARTITIONS: u32 = 4;
const DCS: u32 = 10;
const SERVERS: u32 = 100;

fn topo() -> Topology {
    paper_topology(0.0, 1).unwrap()
}

#[derive(Debug, Clone)]
struct Setup {
    load: Vec<(u32, u32, u32)>,     // (partition, dc, count)
    capacity: Vec<(u32, u32, u16)>, // (partition, server, capacity)
    holders: Vec<u32>,              // per partition
}

fn arb_setup() -> impl Strategy<Value = Setup> {
    (
        proptest::collection::vec((0..PARTITIONS, 0..DCS, 1u32..60), 0..30),
        proptest::collection::vec((0..PARTITIONS, 0..SERVERS, 1u16..40), 0..40),
        proptest::collection::vec(0..SERVERS, PARTITIONS as usize),
    )
        .prop_map(|(load, capacity, holders)| Setup { load, capacity, holders })
}

fn build(setup: &Setup) -> (QueryLoad, PlacementView) {
    let mut load = QueryLoad::zeros(PARTITIONS, DCS);
    for &(p, dc, c) in &setup.load {
        load.add(PartitionId::new(p), DatacenterId::new(dc), c);
    }
    let holders = setup.holders.iter().map(|&h| ServerId::new(h)).collect();
    let mut view = PlacementView::new(PARTITIONS, SERVERS, holders);
    for &(p, s, c) in &setup.capacity {
        view.add_capacity(PartitionId::new(p), ServerId::new(s), c as f64);
    }
    (load, view)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any pool size (1..=11, i.e. both divisors and non-divisors of
    /// the partition count, and pools wider than it) equals the legacy
    /// one-shot pass exactly. `TrafficAccounts` derives `PartialEq`
    /// over every grid cell and accumulator, so this is a full
    /// bitwise-f64 comparison.
    #[test]
    fn sharded_pass_equals_legacy_pass(setup in arb_setup(), workers in 1usize..12) {
        let topo = topo();
        let (load, view) = build(&setup);
        let legacy = compute_traffic(&topo, &load, &view);
        let pool = WorkerPool::new(workers);
        let mut engine = TrafficEngine::new();
        // Two passes through the same engine: the first sizes its
        // buffers, the second reuses them — both sharded passes must
        // match the legacy pass.
        prop_assert_eq!(engine.account_sharded(&topo, &load, &view, &pool), &legacy);
        prop_assert_eq!(engine.account_sharded(&topo, &load, &view, &pool), &legacy);
    }

    /// One engine, alternating pool widths between passes: the shard
    /// layout reshapes without residue from the previous width.
    #[test]
    fn pool_width_changes_leave_no_residue(
        setup in arb_setup(),
        widths in proptest::collection::vec(1usize..12, 2..5),
    ) {
        let topo = topo();
        let (load, view) = build(&setup);
        let legacy = compute_traffic(&topo, &load, &view);
        let mut engine = TrafficEngine::new();
        for &w in &widths {
            let pool = WorkerPool::new(w);
            prop_assert_eq!(
                engine.account_sharded(&topo, &load, &view, &pool), &legacy,
                "diverged at pool width {}", w
            );
        }
    }
}
