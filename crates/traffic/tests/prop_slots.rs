//! Differential property: the replica-slot traffic pass equals a
//! per-server transcription of the absorption loop — one capacity cell
//! and one served cell per `(partition, server)`, datacenters visited
//! server by server in `server_ids()` order — bit for bit, on every
//! account and every `server_load`.
//!
//! The generated cases cover random topologies built by
//! `TopologyBuilder`, replica sets wider than the inline slots, capacity on dead servers, random
//! active subsets with placements re-rendered between epochs, on the
//! dense and the sparse pass.

use proptest::prelude::*;
use rfh_topology::{RouteTable, Topology, TopologyBuilder};
use rfh_traffic::{PlacementView, TrafficAccounts, TrafficEngine};
use rfh_types::{Continent, DatacenterId, GeoPoint, PartitionId, ServerId};
use rfh_workload::QueryLoad;

const PARTS: u32 = 9;
const INTRA_DC_LATENCY_MS: f64 = 1.0;
const SLA_TARGET_MS: f64 = 300.0;

/// What the per-server loop computes: dense rows per partition.
#[derive(Debug)]
struct Reference {
    dc_traffic: Vec<Vec<f64>>,
    dc_outflow: Vec<Vec<f64>>,
    served: Vec<Vec<f64>>,
    unserved: Vec<f64>,
    server_loads: Vec<f64>,
    hops_weighted: f64,
    latency_weighted_ms: f64,
    sla_within: f64,
    served_total: f64,
    unserved_total: f64,
}

/// The absorption loop over dense per-server rows: every alive server
/// of each on-route datacenter in `server_ids()` order, remaining
/// capacity per server, per-partition subtotals folded in ascending
/// partition order.
fn reference(topo: &Topology, load: &QueryLoad, view: &PlacementView) -> Reference {
    let n_servers = topo.server_count();
    let n_dcs = topo.datacenters().len();
    let mut routes = RouteTable::new();
    routes.sync(topo);
    let dc_alive: Vec<Vec<ServerId>> = topo
        .datacenters()
        .iter()
        .map(|dc| dc.server_ids().filter(|s| topo.servers()[s.index()].alive).collect())
        .collect();
    let parts = load.partitions() as usize;
    let mut r = Reference {
        dc_traffic: vec![vec![0.0; n_dcs]; parts],
        dc_outflow: vec![vec![0.0; n_dcs]; parts],
        served: vec![vec![0.0; n_servers]; parts],
        unserved: vec![0.0; parts],
        server_loads: vec![0.0; n_servers],
        hops_weighted: 0.0,
        latency_weighted_ms: 0.0,
        sla_within: 0.0,
        served_total: 0.0,
        unserved_total: 0.0,
    };
    for p_idx in 0..parts {
        let p = PartitionId::new(p_idx as u32);
        let mut remaining: Vec<f64> =
            (0..n_servers).map(|s| view.capacity(p, ServerId::new(s as u32))).collect();
        let holder = view.holder(p);
        let hdc = topo.servers().get(holder.index()).map_or(DatacenterId::new(0), |s| s.datacenter);
        let (mut unserved_p, mut hops_p, mut latency_p, mut sla_p, mut served_p) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        for j in (0..load.datacenters()).map(DatacenterId::new) {
            let q = load.get(p, j) as f64;
            if q == 0.0 {
                continue;
            }
            let Some((hops, cum_ms)) = routes.route(j, hdc) else {
                unserved_p += q;
                continue;
            };
            let mut residual = q;
            let mut served_here = 0.0;
            for (hop, &dc) in hops.iter().enumerate() {
                let lat_ms = cum_ms[hop];
                r.dc_traffic[p_idx][dc.index()] += residual;
                for &server in &dc_alive[dc.index()] {
                    let cap = &mut remaining[server.index()];
                    if *cap <= 0.0 {
                        continue;
                    }
                    let take = cap.min(residual);
                    if take > 0.0 {
                        *cap -= take;
                        r.served[p_idx][server.index()] += take;
                        hops_p += hop as f64 * take;
                        let rtt = 2.0 * lat_ms + INTRA_DC_LATENCY_MS;
                        latency_p += rtt * take;
                        if rtt <= SLA_TARGET_MS {
                            sla_p += take;
                        }
                        served_here += take;
                        residual -= take;
                    }
                    if residual <= 0.0 {
                        break;
                    }
                }
                if residual <= 0.0 {
                    break;
                }
                if hop + 1 < hops.len() {
                    r.dc_outflow[p_idx][dc.index()] += residual;
                }
            }
            served_p += served_here;
            if residual > 0.0 {
                unserved_p += residual;
                hops_p += (hops.len() - 1) as f64 * residual;
            }
        }
        r.unserved[p_idx] = unserved_p;
        r.hops_weighted += hops_p;
        r.latency_weighted_ms += latency_p;
        r.sla_within += sla_p;
        r.served_total += served_p;
        r.unserved_total += unserved_p;
    }
    for row in &r.served {
        for (load, &served) in r.server_loads.iter_mut().zip(row) {
            *load += served;
        }
    }
    r
}

/// Every account of `acc` against the reference, bit for bit.
fn assert_matches(
    acc: &TrafficAccounts,
    r: &Reference,
    view: &PlacementView,
    what: &str,
) -> Result<(), TestCaseError> {
    let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for p_idx in 0..PARTS as usize {
        let p = PartitionId::new(p_idx as u32);
        prop_assert_eq!(bits(acc.dc_traffic(p)), bits(&r.dc_traffic[p_idx]), "{} tr {}", what, p);
        prop_assert_eq!(bits(acc.dc_outflow(p)), bits(&r.dc_outflow[p_idx]), "{} of {}", what, p);
        prop_assert_eq!(acc.unserved[p_idx].to_bits(), r.unserved[p_idx].to_bits());
        let slots = view.slots(p);
        prop_assert_eq!(acc.served(p).len(), slots.len(), "{} slot cells {}", what, p);
        let mut dense = vec![0.0f64; r.served[p_idx].len()];
        for (slot, &served) in slots.iter().zip(acc.served(p)) {
            dense[slot.server.index()] = served;
        }
        prop_assert_eq!(bits(&dense), bits(&r.served[p_idx]), "{} served {}", what, p);
    }
    for (s, load) in r.server_loads.iter().enumerate() {
        prop_assert_eq!(acc.server_load(ServerId::new(s as u32)).to_bits(), load.to_bits());
    }
    let total = r.served_total + r.unserved_total;
    let (path, latency, sla) = if total == 0.0 {
        (0.0, 0.0, 1.0)
    } else {
        (
            r.hops_weighted / total,
            if r.served_total == 0.0 { 0.0 } else { r.latency_weighted_ms / r.served_total },
            (r.sla_within / total).clamp(0.0, 1.0),
        )
    };
    for (got, want) in [
        (acc.served_total(), r.served_total),
        (acc.unserved_total(), r.unserved_total),
        (acc.mean_path_length(), path),
        (acc.mean_latency_ms(), latency),
        (acc.sla_fraction(), sla),
    ] {
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} totals", what);
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct Shape {
    /// Per datacenter: (rooms, racks per room, servers per rack).
    dcs: Vec<(u32, u32, u32)>,
    /// Extra links `(a, b, latency)` on top of a connecting chain.
    links: Vec<(u32, u32, u16)>,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        proptest::collection::vec((1u32..3, 1u32..3, 1u32..4), 2..6),
        proptest::collection::vec((0u32..6, 0u32..6, 5u16..150), 0..5),
    )
        .prop_map(|(dcs, links)| Shape { dcs, links })
}

fn build_topology(shape: &Shape) -> Topology {
    let mut b = TopologyBuilder::new();
    let n = shape.dcs.len() as u32;
    for (i, &(rooms, racks, servers)) in shape.dcs.iter().enumerate() {
        let at = GeoPoint::new(0.0, 10.0 * i as f64);
        let code = format!("D{i}");
        b.datacenter(code.clone(), Continent::Europe, "DEU", code, at, rooms, racks, servers)
            .unwrap();
    }
    for i in 1..n {
        b.link(DatacenterId::new(i - 1), DatacenterId::new(i), 20.0 + i as f64).unwrap();
    }
    for &(a, c, ms) in &shape.links {
        let (a, c) = (a % n, c % n);
        if a != c {
            b.link(DatacenterId::new(a), DatacenterId::new(c), f64::from(ms)).unwrap();
        }
    }
    b.build(0.3, 7).unwrap()
}

/// One epoch: load, extra active partitions, partitions re-rendered
/// (and so active) with their new `(server, capacity)` cells, and a
/// server to fail first.
#[derive(Debug, Clone)]
struct Epoch {
    load: Vec<(u32, u32, u32)>,
    also_active: Vec<u32>,
    rerender: Vec<(u32, Vec<(u32, u16)>)>,
    fail: Option<u32>,
}

fn arb_cells(max: usize) -> impl Strategy<Value = Vec<(u32, u16)>> {
    proptest::collection::vec((0u32..64, 1u16..40), 0..max)
}

fn arb_epoch() -> impl Strategy<Value = Epoch> {
    (
        proptest::collection::vec((0..PARTS, 0u32..6, 1u32..80), 0..20),
        proptest::collection::vec(0..PARTS, 0..3),
        proptest::collection::vec((0..PARTS, arb_cells(12)), 0..3),
        (0u32..64 * 3).prop_map(|s| (s < 64).then_some(s)),
    )
        .prop_map(|(load, also_active, rerender, fail)| Epoch {
            load,
            also_active,
            rerender,
            fail,
        })
}

/// Re-render partition `p` from `cells` (server ids taken modulo the
/// cluster size, so some land on dead servers).
fn render(view: &mut PlacementView, p: u32, cells: &[(u32, u16)], servers: u32) {
    let p = PartitionId::new(p);
    view.clear_partition(p);
    for &(s, cap) in cells {
        view.add_capacity(p, ServerId::new(s % servers), f64::from(cap));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slot_pass_equals_per_server_loop(
        shape in arb_shape(),
        holders in proptest::collection::vec(0u32..64, PARTS as usize),
        cells in proptest::collection::vec(arb_cells(4), PARTS as usize),
        wide in proptest::collection::vec((0u32..64, 1u16..40), 5..16),
        dead in proptest::collection::vec(0u32..64, 0..3),
        epochs in proptest::collection::vec(arb_epoch(), 1..5),
    ) {
        let mut topo = build_topology(&shape);
        let servers = topo.server_count() as u32;
        let n_dcs = topo.datacenters().len() as u32;
        for &s in &dead {
            topo.fail_server(ServerId::new(s % servers)).unwrap();
        }
        let holders = holders.iter().map(|&h| ServerId::new(h % servers)).collect();
        let mut view = PlacementView::new(PARTS, servers, holders);
        for (p, cells) in cells.iter().enumerate() {
            render(&mut view, p as u32, cells, servers);
        }
        // One partition with a replica set wider than the inline slots.
        render(&mut view, PARTS - 1, &wide, servers);

        let (mut dense, mut sparse) = (TrafficEngine::new(), TrafficEngine::new());
        for epoch in &epochs {
            if let Some(s) = epoch.fail {
                topo.fail_server(ServerId::new(s % servers)).unwrap();
            }
            for (p, cells) in &epoch.rerender {
                render(&mut view, *p, cells, servers);
            }
            let mut load = QueryLoad::zeros(PARTS, n_dcs);
            for &(p, dc, n) in &epoch.load {
                load.add(PartitionId::new(p), DatacenterId::new(dc % n_dcs), n);
            }
            let mut active: Vec<u32> = load
                .touched()
                .iter()
                .chain(&epoch.also_active)
                .copied()
                .chain(epoch.rerender.iter().map(|(p, _)| *p))
                .collect();
            active.sort_unstable();
            active.dedup();

            let r = reference(&topo, &load, &view);
            let dense_acc = dense.account(&topo, &load, &view);
            assert_matches(dense_acc, &r, &view, "dense")?;
            let sparse_acc = sparse.account_active(&topo, &load, &view, &active);
            assert_matches(sparse_acc, &r, &view, "sparse")?;
            prop_assert_eq!(sparse_acc, dense_acc);
        }
    }
}
