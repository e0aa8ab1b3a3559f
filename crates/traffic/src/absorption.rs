//! The traffic pass: eqs. (2)–(8) evaluated for one epoch.
//!
//! For every `(partition, requester)` cell of the query matrix, queries
//! walk the WAN path toward the partition holder. At each datacenter the
//! *residual* (queries not yet served) is recorded as that node's
//! traffic — eq. (5) makes the requester node's traffic the full query
//! count, and eq. (4) peels off replica capacity hop by hop:
//!
//! ```text
//! tr_ijkt = max(0, q_ijt − Σ_{k^x ∈ A_jk} Σ_l C_ik^x l)      (eq. 6)
//! ```
//!
//! Replica capacity is shared across requesters within an epoch, so the
//! pass processes requesters in ascending datacenter order against a
//! single pool of remaining capacity (the paper leaves the intra-epoch
//! service order unspecified; a deterministic order keeps runs
//! reproducible). Queries still unserved at the holder are *unserved
//! residual* — demand the current replica set cannot absorb, which is
//! what drives the replication decisions.
//!
//! The pass also accounts response latency: a query's response time is
//! one round trip from its requester datacenter to the datacenter that
//! served it (link latencies from the topology), plus
//! [`INTRA_DC_LATENCY_MS`] for the local fabric. The paper's
//! introduction motivates the whole design with Amazon's SLA — "a
//! response within 300 ms for 99.9% of its requests" — so the accounts
//! report the fraction of demand answered within
//! [`SLA_TARGET_MS`]; unserved queries are SLA violations by
//! definition.

use crate::grid::Grid;
use crate::placement::PlacementView;
use rfh_topology::Topology;
use rfh_types::{DatacenterId, PartitionId, ServerId};
use rfh_workload::QueryLoad;

/// Response-time SLA bound from the paper's introduction (ms).
pub const SLA_TARGET_MS: f64 = 300.0;

/// Latency charged for the intra-datacenter fabric hop (ms).
pub const INTRA_DC_LATENCY_MS: f64 = 1.0;

/// Everything the traffic pass learns about one epoch.
///
/// The three per-cell accounts are partition-major and private: a
/// partition's cells are read as one row ([`dc_traffic`](Self::dc_traffic),
/// [`dc_outflow`](Self::dc_outflow), [`served`](Self::served)), so no
/// caller spells the index arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficAccounts {
    /// Residual query flow arriving at each datacenter (`tr_ikt` summed
    /// over requesters, at datacenter granularity): one row per
    /// partition, one cell per datacenter.
    dc_traffic: Grid,
    /// Residual query flow each datacenter *forwards onward* after its
    /// local replicas absorbed what they could (the "forwarding traffic"
    /// of §I; zero at the terminal hop). Same shape as `dc_traffic`.
    dc_outflow: Grid,
    /// Queries actually served by replicas: one row per partition, one
    /// cell per server.
    served: Grid,
    /// Residual demand per partition that no replica (including the
    /// holder) could serve this epoch.
    pub unserved: Vec<f64>,
    /// Datacenter of each partition's holder at the time of the pass.
    ///
    /// Dense passes rebuild every entry; sparse passes only re-assign
    /// the entries of active partitions (an inactive partition's holder
    /// cannot have moved since the pass that last wrote it, because
    /// every placement action marks its partition dirty).
    pub holder_dc: Vec<DatacenterId>,
    /// Per-server total served queries (`l_i`), cached by the engine at
    /// the end of every pass so [`server_load`](Self::server_load) is
    /// O(1) instead of an O(partitions) sum per call.
    pub(crate) server_loads: Vec<f64>,
    /// Queries served, weighted by the hop at which they were served.
    pub(crate) hops_weighted: f64,
    /// Served queries weighted by round-trip response latency (ms).
    pub(crate) latency_weighted_ms: f64,
    /// Demand (served queries) answered within [`SLA_TARGET_MS`].
    pub(crate) sla_within: f64,
    /// Total queries that found a replica.
    pub(crate) served_total: f64,
    /// Total queries dropped (they travelled the full path in vain).
    pub(crate) unserved_total: f64,
}

impl TrafficAccounts {
    /// A zero-shaped accounts block for engine reuse; the first
    /// [`reset`](Self::reset) gives it its real shape.
    pub(crate) fn empty() -> Self {
        TrafficAccounts {
            dc_traffic: Grid::zeros(0, 0),
            dc_outflow: Grid::zeros(0, 0),
            served: Grid::zeros(0, 0),
            unserved: Vec::new(),
            holder_dc: Vec::new(),
            server_loads: Vec::new(),
            hops_weighted: 0.0,
            latency_weighted_ms: 0.0,
            sla_within: 0.0,
            served_total: 0.0,
            unserved_total: 0.0,
        }
    }

    /// Reshape for a fresh pass and zero every account, reusing all
    /// backing allocations.
    pub(crate) fn reset(&mut self, n_dcs: usize, n_parts: usize, n_servers: usize) {
        self.dc_traffic.reset(n_parts, n_dcs);
        self.dc_outflow.reset(n_parts, n_dcs);
        self.served.reset(n_parts, n_servers);
        self.unserved.clear();
        self.unserved.resize(n_parts, 0.0);
        self.holder_dc.clear();
        self.server_loads.clear();
        self.server_loads.resize(n_servers, 0.0);
        self.hops_weighted = 0.0;
        self.latency_weighted_ms = 0.0;
        self.sla_within = 0.0;
        self.served_total = 0.0;
        self.unserved_total = 0.0;
    }

    /// Sparse-pass reset: zero only the per-partition cells the previous
    /// sparse pass wrote (`prev`) plus every pass-global accumulator.
    /// All other per-partition cells are already zero by the sparse
    /// invariant — a partition outside the active set carries no load —
    /// so this is equivalent to [`reset`](Self::reset) at the same shape
    /// in O(prev × (datacenters + servers)) instead of O(partitions).
    /// `holder_dc` is deliberately left alone: it is a persistent map in
    /// sparse mode, not a per-pass account.
    pub(crate) fn clear_sparse(&mut self, prev: &[u32]) {
        for &p in prev {
            let p = p as usize;
            self.dc_traffic.row_mut(p).fill(0.0);
            self.dc_outflow.row_mut(p).fill(0.0);
            self.served.row_mut(p).fill(0.0);
            self.unserved[p] = 0.0;
        }
        self.server_loads.fill(0.0);
        self.hops_weighted = 0.0;
        self.latency_weighted_ms = 0.0;
        self.sla_within = 0.0;
        self.served_total = 0.0;
        self.unserved_total = 0.0;
    }

    /// `(datacenters, partitions, servers)` the accounts are shaped for.
    pub(crate) fn shape(&self) -> (usize, usize, usize) {
        (self.dc_traffic.cols(), self.dc_traffic.rows(), self.served.cols())
    }

    /// Arrival traffic of partition `p` at every datacenter, indexed by
    /// datacenter id.
    #[inline]
    pub fn dc_traffic(&self, p: PartitionId) -> &[f64] {
        self.dc_traffic.row(p.index())
    }

    /// Forwarding traffic of partition `p` at every datacenter, indexed
    /// by datacenter id.
    #[inline]
    pub fn dc_outflow(&self, p: PartitionId) -> &[f64] {
        self.dc_outflow.row(p.index())
    }

    /// Queries of partition `p` served by every server, indexed by
    /// server id.
    #[inline]
    pub fn served(&self, p: PartitionId) -> &[f64] {
        self.served.row(p.index())
    }

    /// Write access to one partition's three rows, in accessor order
    /// (arrival, forwarding, served), for the engine's merge.
    pub(crate) fn rows_mut(&mut self, p: usize) -> (&mut [f64], &mut [f64], &mut [f64]) {
        (self.dc_traffic.row_mut(p), self.dc_outflow.row_mut(p), self.served.row_mut(p))
    }

    /// Recompute the per-server load cache: each server's served cells
    /// over `parts` (ascending partition ids), added one partition after
    /// the other from `0.0`. This is the one definition of `l_i`: a
    /// partition left out of `parts` must have an all-zero served row,
    /// which makes its terms exact `+0.0`, so the dense pass (every
    /// partition) and the sparse pass (the active ones) agree bit for
    /// bit.
    pub(crate) fn fold_server_loads(&mut self, parts: impl Iterator<Item = usize>) {
        self.server_loads.fill(0.0);
        for p in parts {
            for (load, &served) in self.server_loads.iter_mut().zip(self.served.row(p)) {
                *load += served;
            }
        }
    }

    /// Traffic arriving at the holder of partition `p` (`tr_iit`,
    /// the quantity eq. 12 compares against `β·q̄`).
    pub fn holder_traffic(&self, p: PartitionId) -> f64 {
        self.dc_traffic(p)[self.holder_dc[p.index()].index()]
    }

    /// Total queries served across the cluster this epoch.
    pub fn served_total(&self) -> f64 {
        self.served_total
    }

    /// Total queries that could not be served this epoch.
    pub fn unserved_total(&self) -> f64 {
        self.unserved_total
    }

    /// Mean lookup path length in WAN hops: how far a query travelled
    /// before a replica served it (unserved queries count the full path
    /// they travelled). 0 when no queries flowed.
    pub fn mean_path_length(&self) -> f64 {
        let total = self.served_total + self.unserved_total;
        if total == 0.0 {
            0.0
        } else {
            self.hops_weighted / total
        }
    }

    /// Queries served by one server across all partitions (its workload
    /// `l_i` for the load-imbalance metric). Reads the per-pass cache —
    /// O(1), the server's `served` cells summed over partitions in
    /// ascending order.
    pub fn server_load(&self, s: ServerId) -> f64 {
        self.server_loads[s.index()]
    }

    /// Mean round-trip response latency of *served* queries (ms); 0 when
    /// nothing was served.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.served_total == 0.0 {
            0.0
        } else {
            self.latency_weighted_ms / self.served_total
        }
    }

    /// Fraction of the epoch's total demand answered within
    /// [`SLA_TARGET_MS`] (unserved queries violate by definition);
    /// 1.0 when there was no demand.
    pub fn sla_fraction(&self) -> f64 {
        let total = self.served_total + self.unserved_total;
        if total == 0.0 {
            1.0
        } else {
            // The two accumulators sum the same `take` values in
            // different groupings; clamp the ulp-level excess.
            (self.sla_within / total).clamp(0.0, 1.0)
        }
    }
}

/// Run the traffic pass for one epoch.
///
/// `view` must describe the same cluster as `topo` (same server count)
/// and the same partition count as `load`.
///
/// This is the one-shot compatibility entry point: it builds a
/// throwaway [`crate::engine::TrafficEngine`], runs a single
/// [`account`](crate::engine::TrafficEngine::account) pass, and hands
/// the accounts back by value. Callers in a loop should hold an engine
/// instead and reuse its buffers across epochs.
pub fn compute_traffic(topo: &Topology, load: &QueryLoad, view: &PlacementView) -> TrafficAccounts {
    let mut engine = crate::engine::TrafficEngine::new();
    engine.account(topo, load, view);
    engine.into_accounts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_topology::TopologyBuilder;
    use rfh_types::{Continent, GeoPoint};

    /// Chain A(0) — B(1) — C(2), one server per datacenter
    /// (server ids 0, 1, 2).
    fn chain() -> Topology {
        let mut b = TopologyBuilder::new();
        let a = b
            .datacenter("A", Continent::NorthAmerica, "USA", "A1", GeoPoint::new(0.0, 0.0), 1, 1, 1)
            .unwrap();
        let m = b
            .datacenter(
                "B",
                Continent::NorthAmerica,
                "USA",
                "B1",
                GeoPoint::new(0.0, 10.0),
                1,
                1,
                1,
            )
            .unwrap();
        let c = b
            .datacenter("C", Continent::Asia, "CHN", "C1", GeoPoint::new(0.0, 20.0), 1, 1, 1)
            .unwrap();
        b.link(a, m, 10.0).unwrap();
        b.link(m, c, 10.0).unwrap();
        b.build(0.0, 0).unwrap()
    }

    fn p0() -> PartitionId {
        PartitionId::new(0)
    }
    fn d(i: u32) -> DatacenterId {
        DatacenterId::new(i)
    }
    fn s(i: u32) -> ServerId {
        ServerId::new(i)
    }

    /// Holder on server 0 (DC A) with given capacity; queries from C.
    fn view_with(capacities: &[(u32, f64)]) -> PlacementView {
        let mut v = PlacementView::new(1, 3, vec![s(0)]);
        for &(srv, cap) in capacities {
            v.add_capacity(p0(), s(srv), cap);
        }
        v
    }

    #[test]
    fn full_query_reaches_holder_without_replicas() {
        let topo = chain();
        let mut load = QueryLoad::zeros(1, 3);
        load.add(p0(), d(2), 10); // 10 queries from C toward holder in A
        let view = view_with(&[(0, 100.0)]);
        let acc = compute_traffic(&topo, &load, &view);
        // eq. 5: traffic at the requester (C) is the full load; no
        // absorption en route, so every hop sees 10.
        assert_eq!(acc.dc_traffic(p0())[2], 10.0);
        assert_eq!(acc.dc_traffic(p0())[1], 10.0);
        assert_eq!(acc.dc_traffic(p0())[0], 10.0);
        assert_eq!(acc.holder_traffic(p0()), 10.0);
        // Holder serves everything: 2 hops each.
        assert_eq!(acc.served(p0())[0], 10.0);
        assert_eq!(acc.served_total(), 10.0);
        assert_eq!(acc.unserved_total(), 0.0);
        assert_eq!(acc.mean_path_length(), 2.0);
    }

    #[test]
    fn on_path_replica_absorbs_and_shields_holder() {
        let topo = chain();
        let mut load = QueryLoad::zeros(1, 3);
        load.add(p0(), d(2), 10);
        // Replica at B (server 1) with capacity 6; holder has plenty.
        let view = view_with(&[(0, 100.0), (1, 6.0)]);
        let acc = compute_traffic(&topo, &load, &view);
        assert_eq!(acc.dc_traffic(p0())[2], 10.0, "requester sees all");
        assert_eq!(acc.dc_traffic(p0())[1], 10.0, "traffic *arriving* at B is still 10");
        assert_eq!(acc.dc_traffic(p0())[0], 4.0, "eq. 4: residual after B's capacity");
        assert_eq!(acc.served(p0())[1], 6.0);
        assert_eq!(acc.served(p0())[0], 4.0);
        // 6 queries at hop 1, 4 at hop 2 → mean 1.4.
        assert!((acc.mean_path_length() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn requester_local_replica_gives_zero_hops() {
        let topo = chain();
        let mut load = QueryLoad::zeros(1, 3);
        load.add(p0(), d(2), 5);
        let view = view_with(&[(0, 100.0), (2, 50.0)]);
        let acc = compute_traffic(&topo, &load, &view);
        assert_eq!(acc.served(p0())[2], 5.0);
        assert_eq!(acc.mean_path_length(), 0.0);
        assert_eq!(acc.dc_traffic(p0())[1], 0.0, "nothing forwarded");
        assert_eq!(acc.holder_traffic(p0()), 0.0);
    }

    #[test]
    fn off_path_replica_serves_nothing() {
        // Queries from A to holder at A never pass C; a replica at C is
        // useless — the mechanism behind the random baseline's low
        // utilization.
        let topo = chain();
        let mut load = QueryLoad::zeros(1, 3);
        load.add(p0(), d(0), 8);
        let view = view_with(&[(0, 100.0), (2, 50.0)]);
        let acc = compute_traffic(&topo, &load, &view);
        assert_eq!(acc.served(p0())[2], 0.0);
        assert_eq!(acc.served(p0())[0], 8.0);
        assert_eq!(acc.mean_path_length(), 0.0, "holder is local to requester");
    }

    #[test]
    fn capacity_is_shared_across_requesters() {
        let topo = chain();
        let mut load = QueryLoad::zeros(1, 3);
        load.add(p0(), d(1), 4); // B's queries processed first (lower id)
        load.add(p0(), d(2), 4);
        // Replica at B with capacity 6, holder tiny.
        let view = view_with(&[(0, 1.0), (1, 6.0)]);
        let acc = compute_traffic(&topo, &load, &view);
        // B's own 4 queries absorb locally; C's 4 find only 2 left at B,
        // 1 at the holder, and 1 is unserved.
        assert_eq!(acc.served(p0())[1], 6.0);
        assert_eq!(acc.served(p0())[0], 1.0);
        assert_eq!(acc.unserved[0], 1.0);
        assert_eq!(acc.unserved_total(), 1.0);
        assert_eq!(acc.served_total(), 7.0);
    }

    #[test]
    fn failed_server_serves_nothing() {
        let mut topo = chain();
        topo.fail_server(s(1)).unwrap();
        let mut load = QueryLoad::zeros(1, 3);
        load.add(p0(), d(2), 10);
        let view = view_with(&[(0, 100.0), (1, 50.0)]);
        let acc = compute_traffic(&topo, &load, &view);
        assert_eq!(acc.served(p0())[1], 0.0, "dead replica is skipped");
        assert_eq!(acc.served(p0())[0], 10.0);
    }

    #[test]
    fn unserved_queries_count_full_path() {
        let topo = chain();
        let mut load = QueryLoad::zeros(1, 3);
        load.add(p0(), d(2), 10);
        let view = view_with(&[(0, 3.0)]); // holder can take only 3
        let acc = compute_traffic(&topo, &load, &view);
        assert_eq!(acc.served_total(), 3.0);
        assert_eq!(acc.unserved_total(), 7.0);
        assert_eq!(acc.unserved[0], 7.0);
        // All 10 travelled 2 hops.
        assert_eq!(acc.mean_path_length(), 2.0);
        assert_eq!(acc.holder_traffic(p0()), 10.0, "overload shows at the holder");
    }

    #[test]
    fn multiple_partitions_are_independent() {
        let topo = chain();
        let mut load = QueryLoad::zeros(2, 3);
        load.add(PartitionId::new(0), d(2), 5);
        load.add(PartitionId::new(1), d(0), 7);
        let mut view = PlacementView::new(2, 3, vec![s(0), s(2)]);
        view.add_capacity(PartitionId::new(0), s(0), 100.0);
        view.add_capacity(PartitionId::new(1), s(2), 100.0);
        let acc = compute_traffic(&topo, &load, &view);
        assert_eq!(acc.served(p0())[0], 5.0);
        assert_eq!(acc.served(PartitionId::new(1))[2], 7.0);
        assert_eq!(acc.server_load(s(0)), 5.0);
        assert_eq!(acc.server_load(s(2)), 7.0);
        assert_eq!(acc.server_load(s(1)), 0.0);
        // Partition 1's queries from A travel A→B→C.
        assert_eq!(acc.dc_traffic(PartitionId::new(1))[1], 7.0);
        assert_eq!(acc.holder_dc[1], d(2));
    }

    #[test]
    fn latency_accounts_round_trips() {
        // Chain links are 10 ms each. Queries from C (dc 2) served at
        // B (dc 1): one hop each way → 2·10 + 1 = 21 ms.
        let topo = chain();
        let mut load = QueryLoad::zeros(1, 3);
        load.add(p0(), d(2), 10);
        let view = view_with(&[(0, 100.0), (1, 100.0)]);
        let acc = compute_traffic(&topo, &load, &view);
        assert!((acc.mean_latency_ms() - 21.0).abs() < 1e-9, "{}", acc.mean_latency_ms());
        assert_eq!(acc.sla_fraction(), 1.0, "21 ms ≪ 300 ms");
    }

    #[test]
    fn local_service_is_one_fabric_hop() {
        let topo = chain();
        let mut load = QueryLoad::zeros(1, 3);
        load.add(p0(), d(2), 4);
        let view = view_with(&[(0, 1.0), (2, 100.0)]);
        let acc = compute_traffic(&topo, &load, &view);
        assert!((acc.mean_latency_ms() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unserved_queries_violate_the_sla() {
        let topo = chain();
        let mut load = QueryLoad::zeros(1, 3);
        load.add(p0(), d(2), 10);
        let view = view_with(&[(0, 4.0)]); // holder can serve only 4
        let acc = compute_traffic(&topo, &load, &view);
        // 4 served (within SLA), 6 unserved → 40% attainment.
        assert!((acc.sla_fraction() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn no_demand_means_perfect_sla() {
        let topo = chain();
        let load = QueryLoad::zeros(1, 3);
        let view = view_with(&[(0, 10.0)]);
        let acc = compute_traffic(&topo, &load, &view);
        assert_eq!(acc.sla_fraction(), 1.0);
        assert_eq!(acc.mean_latency_ms(), 0.0);
    }

    #[test]
    fn zero_load_zero_everything() {
        let topo = chain();
        let load = QueryLoad::zeros(1, 3);
        let view = view_with(&[(0, 10.0)]);
        let acc = compute_traffic(&topo, &load, &view);
        assert_eq!(acc.served_total(), 0.0);
        assert_eq!(acc.unserved_total(), 0.0);
        assert_eq!(acc.mean_path_length(), 0.0);
        assert_eq!(acc.dc_traffic(p0()), &[0.0; 3]);
    }
}
