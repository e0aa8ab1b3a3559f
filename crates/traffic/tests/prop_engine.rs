//! Property: a reused [`TrafficEngine`] is *bit-for-bit* equivalent to
//! the legacy one-shot `compute_traffic` pass — for arbitrary loads and
//! placements, and across arbitrary membership churn (failures,
//! recoveries) that invalidates the engine's generation-keyed
//! route table between passes — and the sparse pass (`account_active` +
//! `update_active`) equals the dense one (`account` + `update`) on every
//! accessor, across epochs whose active sets grow and shrink.

use proptest::prelude::*;
use rfh_topology::{paper_topology, Topology};
use rfh_traffic::{compute_traffic, PlacementView, TrafficEngine, TrafficSmoother};
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

/// One membership mutation between traffic passes.
#[derive(Debug, Clone)]
enum Churn {
    Fail(u32),
    Recover(u32),
}

fn arb_setup(servers: u32) -> impl Strategy<Value = Setup> {
    (
        proptest::collection::vec((0..PARTITIONS, 0..DCS, 1u32..60), 0..30),
        proptest::collection::vec((0..PARTITIONS, 0..servers, 1u16..40), 0..40),
        proptest::collection::vec(0..servers, PARTITIONS as usize),
    )
        .prop_map(|(load, capacity, holders)| Setup { load, capacity, holders })
}

fn arb_churn() -> impl Strategy<Value = Churn> {
    prop_oneof![(0..SERVERS).prop_map(Churn::Fail), (0..SERVERS).prop_map(Churn::Recover),]
}

fn build(setup: &Setup, servers: u32) -> (QueryLoad, PlacementView) {
    let mut load = QueryLoad::zeros(PARTITIONS, DCS);
    for &(p, dc, c) in &setup.load {
        load.add(PartitionId::new(p), DatacenterId::new(dc), c);
    }
    let holders = setup.holders.iter().map(|&h| ServerId::new(h)).collect();
    let mut view = PlacementView::new(PARTITIONS, servers, holders);
    for &(p, s, c) in &setup.capacity {
        view.add_capacity(PartitionId::new(p), ServerId::new(s), c as f64);
    }
    (load, view)
}

/// Partition count of the sparse-vs-dense property: with the paper
/// topology's 10 datacenters and 100 servers no two axes are equal, so a
/// transposed index cannot land in bounds by accident.
const SPARSE_PARTS: u32 = 13;

/// One epoch of the sparse-vs-dense property.
#[derive(Debug, Clone)]
struct Epoch {
    load: Vec<(u32, u32, u32)>, // (partition, dc, count)
    also_active: Vec<u32>,      // active beyond the touched partitions
}

fn arb_epoch() -> impl Strategy<Value = Epoch> {
    (
        proptest::collection::vec((0..SPARSE_PARTS, 0..DCS, 1u32..60), 0..12),
        proptest::collection::vec(0..SPARSE_PARTS, 0..5),
    )
        .prop_map(|(load, also_active)| Epoch { load, also_active })
}

/// Every account accessor, bit for bit.
fn assert_accounts_bit_equal(
    sparse: &rfh_traffic::TrafficAccounts,
    dense: &rfh_traffic::TrafficAccounts,
) -> Result<(), TestCaseError> {
    let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for p in (0..SPARSE_PARTS).map(PartitionId::new) {
        prop_assert_eq!(bits(sparse.dc_traffic(p)), bits(dense.dc_traffic(p)), "dc_traffic {}", p);
        prop_assert_eq!(bits(sparse.dc_outflow(p)), bits(dense.dc_outflow(p)), "dc_outflow {}", p);
        prop_assert_eq!(bits(sparse.served(p)), bits(dense.served(p)), "served {}", p);
    }
    prop_assert_eq!(bits(&sparse.unserved), bits(&dense.unserved));
    for s in (0..SERVERS).map(ServerId::new) {
        prop_assert_eq!(sparse.server_load(s).to_bits(), dense.server_load(s).to_bits(), "{}", s);
    }
    for (a, b) in [
        (sparse.served_total(), dense.served_total()),
        (sparse.unserved_total(), dense.unserved_total()),
        (sparse.mean_path_length(), dense.mean_path_length()),
        (sparse.mean_latency_ms(), dense.mean_latency_ms()),
        (sparse.sla_fraction(), dense.sla_fraction()),
    ] {
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }
    Ok(())
}

/// Every smoother accessor, bit for bit, for the given partitions.
fn assert_smoothers_bit_equal(
    sparse: &TrafficSmoother,
    dense: &TrafficSmoother,
    parts: &[u32],
) -> Result<(), TestCaseError> {
    for p in parts.iter().map(|&p| PartitionId::new(p)) {
        prop_assert_eq!(sparse.q_avg(p).to_bits(), dense.q_avg(p).to_bits(), "q_avg {}", p);
        prop_assert_eq!(sparse.mean_traffic(p).to_bits(), dense.mean_traffic(p).to_bits());
        let (tr, of): (Vec<f64>, Vec<f64>) =
            (sparse.traffic_row(p).collect(), sparse.outflow_row(p).collect());
        prop_assert_eq!(tr.len(), DCS as usize);
        for dc in (0..DCS).map(DatacenterId::new) {
            prop_assert_eq!(
                tr[dc.index()].to_bits(),
                dense.traffic(dc, p).to_bits(),
                "{} {}",
                dc,
                p
            );
            prop_assert_eq!(
                of[dc.index()].to_bits(),
                dense.outflow(dc, p).to_bits(),
                "{} {}",
                dc,
                p
            );
            prop_assert_eq!(sparse.traffic(dc, p).to_bits(), tr[dc.index()].to_bits());
            prop_assert_eq!(sparse.outflow(dc, p).to_bits(), of[dc.index()].to_bits());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One engine + smoother driven sparsely through epochs whose active
    /// sets grow and shrink (so the partial clear runs with
    /// `prev ≠ active`) equals a dense engine + smoother fed the same
    /// epochs: the accounts on every cell after every pass, the smoother
    /// on the cells each pass brought current and on all of them after a
    /// final all-active catch-up.
    #[test]
    fn sparse_epochs_equal_dense_epochs(
        capacity in proptest::collection::vec((0..SPARSE_PARTS, 0..SERVERS, 1u16..40), 0..60),
        holders in proptest::collection::vec(0..SERVERS, SPARSE_PARTS as usize),
        dead in proptest::collection::vec(0..SERVERS, 0..4),
        epochs in proptest::collection::vec(arb_epoch(), 4..9),
    ) {
        let mut topo = topo();
        for &s in &dead {
            topo.fail_server(ServerId::new(s)).unwrap();
        }
        let holders = holders.iter().map(|&h| ServerId::new(h)).collect();
        let mut view = PlacementView::new(SPARSE_PARTS, SERVERS, holders);
        for &(p, s, c) in &capacity {
            view.add_capacity(PartitionId::new(p), ServerId::new(s), c as f64);
        }
        let (mut sparse_engine, mut dense_engine) = (TrafficEngine::new(), TrafficEngine::new());
        let mut sparse_smoother = TrafficSmoother::new(SPARSE_PARTS, DCS, 0.2);
        let mut dense_smoother = sparse_smoother.clone();
        let all: Vec<u32> = (0..SPARSE_PARTS).collect();
        let catch_up = Epoch { load: Vec::new(), also_active: all.clone() };

        for epoch in epochs.iter().chain([&catch_up]) {
            let mut load = QueryLoad::zeros(SPARSE_PARTS, DCS);
            for &(p, dc, c) in &epoch.load {
                load.add(PartitionId::new(p), DatacenterId::new(dc), c);
            }
            let mut active: Vec<u32> =
                load.touched().iter().chain(&epoch.also_active).copied().collect();
            active.sort_unstable();
            active.dedup();

            let dense = dense_engine.account(&topo, &load, &view);
            dense_smoother.update(&load, dense);
            let sparse = sparse_engine.account_active(&topo, &load, &view, &active);
            sparse_smoother.update_active(&load, sparse, &active);

            assert_accounts_bit_equal(sparse, dense)?;
            prop_assert_eq!(sparse, dense);
            assert_smoothers_bit_equal(&sparse_smoother, &dense_smoother, &active)?;
        }
        assert_smoothers_bit_equal(&sparse_smoother, &dense_smoother, &all)?;
    }

    /// Single pass: one engine call equals the legacy pass exactly
    /// (`TrafficAccounts` derives `PartialEq` over every grid cell and
    /// accumulator, so this is a full bitwise-f64 comparison).
    #[test]
    fn engine_equals_legacy_pass(setup in arb_setup(SERVERS)) {
        let topo = topo();
        let (load, view) = build(&setup, SERVERS);
        let legacy = compute_traffic(&topo, &load, &view);
        let mut engine = TrafficEngine::new();
        prop_assert_eq!(engine.account(&topo, &load, &view), &legacy);
    }

    /// Reuse under churn: one long-lived engine, mutated topology
    /// between passes. After every mutation batch the reused engine
    /// must still match both the legacy pass and a from-scratch engine.
    #[test]
    fn reused_engine_survives_membership_churn(
        setup in arb_setup(SERVERS),
        rounds in proptest::collection::vec(
            proptest::collection::vec(arb_churn(), 0..4), 1..4),
    ) {
        let mut topo = topo();
        let mut engine = TrafficEngine::new();
        for round in &rounds {
            for op in round {
                match *op {
                    Churn::Fail(s) => { topo.fail_server(ServerId::new(s)).unwrap(); }
                    Churn::Recover(s) => { topo.recover_server(ServerId::new(s)).unwrap(); }
                }
            }
            let (load, view) = build(&setup, SERVERS);
            let legacy = compute_traffic(&topo, &load, &view);
            let reused = engine.account(&topo, &load, &view);
            prop_assert_eq!(reused, &legacy, "reused engine diverged from legacy pass");
            let mut fresh = TrafficEngine::new();
            prop_assert_eq!(fresh.account(&topo, &load, &view), &legacy,
                "fresh engine diverged from legacy pass");
        }
    }
}
