//! Property-based tests of the traffic pass: conservation laws and the
//! structural relations of eqs. (2)–(8) hold for arbitrary workloads and
//! placements on the paper topology.

use proptest::prelude::*;
use rfh_topology::{paper_topology, Topology};
use rfh_traffic::{compute_traffic, PlacementView};
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn demand_is_conserved(setup in arb_setup()) {
        let topo = topo();
        let (load, view) = build(&setup);
        let acc = compute_traffic(&topo, &load, &view);
        let demand = load.total() as f64;
        prop_assert!(
            (acc.served_total() + acc.unserved_total() - demand).abs() < 1e-6,
            "served {} + unserved {} != demand {demand}",
            acc.served_total(),
            acc.unserved_total()
        );
        // Per-partition unserved is consistent with the total.
        let by_p: f64 = acc.unserved.iter().sum();
        prop_assert!((by_p - acc.unserved_total()).abs() < 1e-6);
    }

    #[test]
    fn served_never_exceeds_capacity(setup in arb_setup()) {
        let topo = topo();
        let (load, view) = build(&setup);
        let acc = compute_traffic(&topo, &load, &view);
        for p in (0..PARTITIONS).map(PartitionId::new) {
            prop_assert_eq!(acc.served(p).len(), view.slots(p).len());
            for (slot, &served) in view.slots(p).iter().zip(acc.served(p)) {
                let cap = view.capacity(p, slot.server);
                prop_assert_eq!(cap, slot.capacity);
                prop_assert!(served <= cap + 1e-9, "{} over-served {served} > {cap}", slot.server);
            }
        }
    }

    #[test]
    fn requester_traffic_covers_local_demand(setup in arb_setup()) {
        // eq. 5: tr_ijj = q_ijt — the requester node's arrival traffic is
        // at least its own demand (plus anything it forwards for others).
        let topo = topo();
        let (load, view) = build(&setup);
        let acc = compute_traffic(&topo, &load, &view);
        for p in 0..PARTITIONS {
            for dc in 0..DCS {
                let q = load.get(PartitionId::new(p), DatacenterId::new(dc)) as f64;
                let tr = acc.dc_traffic(PartitionId::new(p))[dc as usize];
                prop_assert!(tr >= q - 1e-9, "dc {dc}: arrival {tr} below local demand {q}");
            }
        }
    }

    #[test]
    fn outflow_bounded_by_arrival(setup in arb_setup()) {
        // A node cannot forward more than arrived at it (eq. 4's max(0, ·)).
        let topo = topo();
        let (load, view) = build(&setup);
        let acc = compute_traffic(&topo, &load, &view);
        for p in 0..PARTITIONS {
            for dc in 0..DCS {
                let arrival = acc.dc_traffic(PartitionId::new(p))[dc as usize];
                let outflow = acc.dc_outflow(PartitionId::new(p))[dc as usize];
                prop_assert!(outflow <= arrival + 1e-9, "dc {dc}: outflow {outflow} > arrival {arrival}");
                prop_assert!(outflow >= 0.0);
            }
        }
    }

    #[test]
    fn path_length_and_latency_are_bounded(setup in arb_setup()) {
        let topo = topo();
        let (load, view) = build(&setup);
        let acc = compute_traffic(&topo, &load, &view);
        // WAN diameter of the paper preset is 5 hops.
        prop_assert!(acc.mean_path_length() <= 5.0 + 1e-9);
        prop_assert!(acc.mean_path_length() >= 0.0);
        // Round trip over the worst route (≤ ~200 ms one way) plus fabric.
        prop_assert!(acc.mean_latency_ms() <= 500.0);
        let sla = acc.sla_fraction();
        prop_assert!((0.0..=1.0).contains(&sla));
    }

    #[test]
    fn more_capacity_never_increases_unserved(setup in arb_setup(), extra in 1u16..50) {
        // Monotonicity: adding capacity at the holder can only help.
        let topo = topo();
        let (load, view) = build(&setup);
        let base = compute_traffic(&topo, &load, &view);
        let mut bigger = view.clone();
        for p in 0..PARTITIONS {
            let pid = PartitionId::new(p);
            bigger.add_capacity(pid, bigger.holder(pid), extra as f64);
        }
        let better = compute_traffic(&topo, &load, &bigger);
        prop_assert!(
            better.unserved_total() <= base.unserved_total() + 1e-6,
            "{} > {}",
            better.unserved_total(),
            base.unserved_total()
        );
    }
}
