//! The reusable per-epoch traffic engine.
//!
//! [`compute_traffic`](crate::absorption::compute_traffic) allocates
//! its whole working set — the accounts, the per-partition scratch, and
//! a routing path per `(requester, holder)` pair — on every call. Inside
//! a simulation that pass runs once per epoch per policy, so the
//! allocations and the repeated shortest-path walks dominate the hot
//! loop.
//!
//! [`TrafficEngine`] hoists all of that into reusable state:
//!
//! * a [`RouteTable`] caching every DC pair's path *and* the cumulative
//!   latency at each hop, refreshed only when the topology's
//!   [`generation`](rfh_topology::Topology::generation) moves;
//! * the scratch of the partition being processed, reused pass after
//!   pass.
//!
//! The view's replica slots serve as the capacity index: at each hop
//! the pass visits the partition's alive slots in that datacenter in
//! slot order, which is ascending server id. `TopologyBuilder` numbers
//! servers datacenter by datacenter, room by room and rack by rack, so
//! id order is also each datacenter's `server_ids()` order.
//!
//! ## Canonical order
//!
//! Partitions are independent in the traffic pass: remaining capacity
//! is per partition, every account write lands in that partition's rows
//! of the (partition-major) accounts, and the within-partition
//! accounting order (requesters ascending, hops in path order, slots in
//! id order) fixes every cell's value exactly. Only five scalar
//! totals (`hops_weighted`, `latency_weighted_ms`, `sla_within`,
//! `served_total`, `unserved_total`) and the per-server loads cross
//! partitions, and `f64` addition is not associative — so the pass adds
//! each partition's terms to them in ascending partition order, whatever
//! subset of the partitions a pass covers.

use rfh_obs::MetricsRegistry;
use rfh_topology::{RouteTable, Topology};
use rfh_types::{DatacenterId, PartitionId};
use rfh_workload::QueryLoad;

use crate::absorption::{TrafficAccounts, INTRA_DC_LATENCY_MS, SLA_TARGET_MS};
use crate::placement::PlacementView;

/// A stateful traffic pass: all buffers preallocated, routes cached.
///
/// One engine serves one topology lineage: its route table is keyed on
/// [`Topology::generation`] and refreshed lazily by the next pass. Engines are cheap to create but only pay
/// off when reused; they are deliberately *not* shared between policy
/// threads — give each thread its own (share-nothing).
#[derive(Debug, Clone)]
pub struct TrafficEngine {
    routes: RouteTable,
    /// Scratch of the partition being processed.
    scratch: Scratch,
    accounts: TrafficAccounts,
    /// Active set of the previous pass: the partitions whose account
    /// cells that pass wrote, so the next pass at the same shape clears
    /// them in O(prev) instead of O(partitions).
    prev_active: Vec<u32>,
    stats: EngineStats,
}

/// One alive replica slot of the partition being processed.
#[derive(Debug, Clone, Copy)]
struct Visit {
    dc: DatacenterId,
    slot: u32,
}

/// Per-partition scratch, overwritten for every partition the pass
/// visits.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The alive slots of the partition being processed, in slot order.
    visits: Vec<Visit>,
    /// Remaining capacity per slot of the partition being processed.
    remaining: Vec<f64>,
}

impl Scratch {
    fn heap_bytes(&self) -> usize {
        self.visits.capacity() * std::mem::size_of::<Visit>()
            + self.remaining.capacity() * std::mem::size_of::<f64>()
    }
}

/// The read-only inputs of a pass.
struct PassCtx<'a> {
    routes: &'a RouteTable,
    topo: &'a Topology,
    load: &'a QueryLoad,
    view: &'a PlacementView,
}

/// Lifetime counters of a [`TrafficEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Traffic passes run ([`TrafficEngine::account`] and
    /// [`TrafficEngine::account_active`] calls).
    pub passes: u64,
    /// Route-table rebuilds (the topology generation moved).
    pub topo_rebuilds: u64,
}

impl EngineStats {
    /// Export the counters into a metrics registry under
    /// `traffic.engine.*`. The stats are lifetime totals, written
    /// set-style so re-collecting into the same registry is idempotent.
    pub fn collect_metrics(&self, registry: &mut MetricsRegistry) {
        registry.counter_total("traffic.engine.passes", self.passes);
        registry.counter_total("traffic.engine.topo_rebuilds", self.topo_rebuilds);
    }
}

impl Default for TrafficEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl TrafficEngine {
    /// A fresh engine with empty buffers; the first
    /// [`account`](Self::account) sizes everything.
    pub fn new() -> Self {
        TrafficEngine {
            routes: RouteTable::new(),
            scratch: Scratch::default(),
            accounts: TrafficAccounts::empty(),
            prev_active: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Lifetime counters of this engine.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Bytes of heap the engine holds besides its
    /// [`accounts`](Self::accounts), by allocation capacity.
    pub fn heap_bytes(&self) -> usize {
        self.routes.heap_bytes() + self.scratch.heap_bytes() + self.prev_active.capacity() * 4
    }

    /// Start a pass: refresh the route table if `topo`'s generation
    /// moved (or on first use) and count the pass.
    fn begin_pass(&mut self, topo: &Topology) {
        if self.routes.sync(topo) {
            self.stats.topo_rebuilds += 1;
        }
        self.stats.passes += 1;
    }

    /// [`account_active`](Self::account_active) over every partition,
    /// for callers outside the epoch pipeline (the one-shot
    /// [`compute_traffic`](crate::absorption::compute_traffic) among
    /// them).
    pub fn account(
        &mut self,
        topo: &Topology,
        load: &QueryLoad,
        view: &PlacementView,
    ) -> &TrafficAccounts {
        self.account_active(topo, load, view, &(0..load.partitions()).collect::<Vec<_>>())
    }

    /// Run the traffic pass for one epoch over the `active` partitions
    /// (sorted ascending, deduplicated), reusing every buffer and
    /// leaving every other partition's account cells untouched.
    ///
    /// `view` must describe the same cluster as `topo` (same server
    /// count) and the same partition count as `load`. The returned
    /// borrow is valid until the next call on this engine.
    ///
    /// ## Contract
    ///
    /// `active` must contain **every partition with non-zero load this
    /// epoch** (supersets are fine) and every partition whose slots in
    /// `view` changed since the last pass. Under that contract the result
    /// equals a pass over every partition bit for bit: an inactive
    /// partition carries zero load, so a full pass would write exact
    /// zeros into its cells (which the previous pass's clear already
    /// guarantees) and contribute exact `+0.0` terms to the five
    /// cross-partition scalars and the per-server load sums — the
    /// additive identity on these non-negative accumulators.
    ///
    /// Once the accounts have their shape, a pass over an unchanged
    /// placement allocates nothing.
    pub fn account_active(
        &mut self,
        topo: &Topology,
        load: &QueryLoad,
        view: &PlacementView,
        active: &[u32],
    ) -> &TrafficAccounts {
        self.begin_pass(topo);

        let n_dcs = topo.datacenters().len();
        let n_parts = load.partitions() as usize;
        let n_servers = topo.server_count();
        debug_assert_eq!(view.partitions() as usize, n_parts);
        debug_assert_eq!(view.servers() as usize, n_servers);
        debug_assert!(
            active.windows(2).all(|w| w[0] < w[1]),
            "active set must be sorted ascending and deduplicated"
        );
        debug_assert!(
            load.touched().iter().all(|t| active.binary_search(t).is_ok()),
            "active set must cover every partition with load"
        );

        // Reset the accounts: O(prev) at the previous pass's shape,
        // full otherwise (first pass, shape change). Inactive cells
        // stay zero either way.
        if self.accounts.shape() == (n_dcs, n_parts, n_servers) {
            self.accounts.clear_sparse(&self.prev_active);
            self.accounts.align_served(view, active.iter().map(|&p| p as usize));
        } else {
            self.accounts.reset(n_dcs, n_parts, n_servers);
            self.accounts.align_served(view, 0..n_parts);
        }
        self.prev_active.clear();
        self.prev_active.extend_from_slice(active);

        let ctx = PassCtx { routes: &self.routes, topo, load, view };
        run_pass(&ctx, &mut self.scratch, &mut self.accounts, active.iter().map(|&p| p as usize));
        self.accounts.fold_server_loads(view, active.iter().map(|&p| p as usize));

        &self.accounts
    }

    /// The accounts from the most recent pass (all-zero shapes before
    /// the first).
    pub fn accounts(&self) -> &TrafficAccounts {
        &self.accounts
    }

    /// Consume the engine, keeping only the last pass's accounts — the
    /// one-shot path [`compute_traffic`](crate::absorption::compute_traffic)
    /// uses.
    pub fn into_accounts(self) -> TrafficAccounts {
        self.accounts
    }
}

/// The accounting pass over `partitions` (ascending). The within-partition order is the legacy
/// accounting order — requesters ascending, hops in path order, slots
/// in id order — so every per-partition quantity is computed by the
/// exact `f64` sequence the one-shot pass uses; each partition's terms
/// then go onto the five cross-partition scalars in partition order.
fn run_pass(
    ctx: &PassCtx<'_>,
    scratch: &mut Scratch,
    acc: &mut TrafficAccounts,
    partitions: impl Iterator<Item = usize>,
) {
    let servers = ctx.topo.servers();
    let Scratch { visits, remaining } = scratch;
    for p_idx in partitions {
        let p = PartitionId::new(p_idx as u32);
        let slots = ctx.view.slots(p);
        // The slots worth visiting: alive servers, in slot order.
        visits.clear();
        remaining.clear();
        for (slot, s) in slots.iter().enumerate() {
            remaining.push(s.capacity);
            if let Some(server) = servers.get(s.server.index()).filter(|server| server.alive) {
                visits.push(Visit { dc: server.datacenter, slot: slot as u32 });
            }
        }

        let acc_p = acc.partition_mut(p_idx);
        let mut unserved_p = 0.0;
        let mut hops_p = 0.0;
        let mut latency_p = 0.0;
        let mut sla_p = 0.0;
        let mut served_p = 0.0;

        let holder = ctx.view.holder(p);
        let hdc = servers.get(holder.index()).map_or(DatacenterId::new(0), |s| s.datacenter);

        for j_idx in 0..ctx.load.datacenters() {
            let j = DatacenterId::new(j_idx);
            let q = ctx.load.get(p, j) as f64;
            if q == 0.0 {
                continue;
            }
            let Some((hops, cum_ms)) = ctx.routes.route(j, hdc) else {
                // Holder unreachable (partitioned WAN): everything
                // drops without travelling.
                unserved_p += q;
                continue;
            };
            let mut residual = q;
            let mut served_here = 0.0;
            for (hop, &dc) in hops.iter().enumerate() {
                // One-way latency from the requester to this hop,
                // precomputed in path order by the route table.
                let lat_ms = cum_ms[hop];
                // eq. 4/5: the node's traffic is the residual
                // reaching it.
                acc_p.dc_traffic[dc.index()] += residual;
                // Replicas in this datacenter absorb what they can, in
                // id order.
                for visit in visits.iter().filter(|v| v.dc == dc) {
                    let slot = visit.slot as usize;
                    let cap = &mut remaining[slot];
                    if *cap <= 0.0 {
                        continue;
                    }
                    let take = cap.min(residual);
                    if take > 0.0 {
                        *cap -= take;
                        acc_p.served[slot] += take;
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
                // What leaves this DC toward the next hop is its
                // forwarding traffic (the terminal hop forwards
                // nothing).
                if hop + 1 < hops.len() {
                    acc_p.dc_outflow[dc.index()] += residual;
                }
            }
            served_p += served_here;
            if residual > 0.0 {
                // Travelled the whole path and still unserved.
                unserved_p += residual;
                hops_p += (hops.len() - 1) as f64 * residual;
            }
        }

        *acc_p.unserved = unserved_p;
        acc.hops_weighted += hops_p;
        acc.latency_weighted_ms += latency_p;
        acc.sla_within += sla_p;
        acc.served_total += served_p;
        acc.unserved_total += unserved_p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absorption::compute_traffic;
    use rfh_topology::TopologyBuilder;
    use rfh_types::{Continent, GeoPoint, ServerId};
    use rfh_workload::QueryLoad;

    /// Chain A(0) — B(1) — C(2), one server per datacenter.
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
            .datacenter(
                "C",
                Continent::NorthAmerica,
                "USA",
                "C1",
                GeoPoint::new(0.0, 20.0),
                1,
                1,
                1,
            )
            .unwrap();
        b.link(a, m, 10.0).unwrap();
        b.link(m, c, 10.0).unwrap();
        b.build(0.0, 1).unwrap()
    }

    fn sample_load(parts: u32, dcs: u32) -> QueryLoad {
        let mut load = QueryLoad::zeros(parts, dcs);
        for p in 0..parts {
            for d in 0..dcs {
                load.add(PartitionId::new(p), DatacenterId::new(d), p * 7 + d * 3 + 1);
            }
        }
        load
    }

    fn sample_view(parts: u32, servers: u32) -> PlacementView {
        let holders: Vec<ServerId> = (0..parts).map(|p| ServerId::new(p % servers)).collect();
        let mut view = PlacementView::new(parts, servers, holders);
        for p in 0..parts {
            view.add_capacity(PartitionId::new(p), ServerId::new((p + 1) % servers), 8.0);
        }
        view
    }

    #[test]
    fn reused_engine_is_bit_identical_to_one_shot_pass() {
        let topo = chain();
        let load = sample_load(4, 3);
        let view = sample_view(4, 3);
        let mut engine = TrafficEngine::new();
        // Run twice on the same engine: the second pass exercises the
        // zero-in-place reset path.
        engine.account(&topo, &load, &view);
        let reused = engine.account(&topo, &load, &view).clone();
        assert_eq!(reused, compute_traffic(&topo, &load, &view));
    }

    #[test]
    fn view_mutation_between_passes_reaches_the_next_pass() {
        let topo = chain();
        let load = sample_load(4, 3);
        let mut view = sample_view(4, 3);
        let mut engine = TrafficEngine::new();
        engine.account(&topo, &load, &view);
        assert_eq!(engine.account(&topo, &load, &view), &compute_traffic(&topo, &load, &view));

        // Mutate the view in place (capacity appears on a new server
        // and a holder moves): the reused engine stays bit-identical to
        // the one-shot.
        view.add_capacity(PartitionId::new(2), ServerId::new(0), 3.0);
        view.set_holder(PartitionId::new(0), ServerId::new(2));
        assert_eq!(engine.account(&topo, &load, &view), &compute_traffic(&topo, &load, &view));
    }

    #[test]
    fn stats_count_passes_and_route_rebuilds() {
        let mut topo = chain();
        let load = sample_load(4, 3);
        let view = sample_view(4, 3);
        let mut engine = TrafficEngine::new();
        engine.account(&topo, &load, &view);
        engine.account_active(&topo, &load, &view, &[0, 1, 2, 3]);
        engine.account(&topo, &load, &view);
        assert_eq!(engine.stats(), EngineStats { passes: 3, topo_rebuilds: 1 });
        // A membership change rebuilds the routes on the next pass only.
        topo.fail_server(ServerId::new(1)).unwrap();
        engine.account(&topo, &load, &view);
        engine.account(&topo, &load, &view);
        let stats = engine.stats();
        assert_eq!(stats, EngineStats { passes: 5, topo_rebuilds: 2 });

        let mut reg = MetricsRegistry::new();
        stats.collect_metrics(&mut reg);
        assert_eq!(reg.get("traffic.engine.passes"), Some(&rfh_obs::Metric::Counter(5)));
        assert_eq!(reg.get("traffic.engine.topo_rebuilds"), Some(&rfh_obs::Metric::Counter(2)));
    }

    /// Load touching only `touched` partitions, shaped like
    /// `sample_load` on those rows.
    fn sparse_load(parts: u32, dcs: u32, touched: &[u32]) -> QueryLoad {
        let mut load = QueryLoad::zeros(parts, dcs);
        for &p in touched {
            for d in 0..dcs {
                load.add(PartitionId::new(p), DatacenterId::new(d), p * 7 + d * 3 + 1);
            }
        }
        load
    }

    #[test]
    #[allow(clippy::identity_op)] // the 0 terms keep the per-epoch breakdown readable
    fn sparse_pass_bit_equals_dense_pass_across_epochs() {
        let topo = chain();
        let (parts, dcs, servers) = (8u32, 3u32, 3u32);
        let view = sample_view(parts, servers);
        let mut engine = TrafficEngine::new();
        // Epoch-by-epoch touched sets: shrinking, empty, growing, full.
        let epochs: Vec<Vec<u32>> = vec![
            vec![0, 1, 2, 5],
            vec![1, 5],
            vec![],
            vec![0, 3, 4, 6, 7],
            (0..parts).collect(),
            vec![7],
        ];
        for (e, active) in epochs.iter().enumerate() {
            let load = sparse_load(parts, dcs, active);
            let dense = compute_traffic(&topo, &load, &view);
            let sparse = engine.account_active(&topo, &load, &view, active).clone();
            assert_eq!(sparse, dense, "epoch {e}");
            for s in 0..servers {
                let sid = ServerId::new(s);
                assert_eq!(
                    sparse.server_load(sid).to_bits(),
                    dense.server_load(sid).to_bits(),
                    "server {s} load, epoch {e}"
                );
            }
        }
    }

    #[test]
    fn sparse_pass_accepts_active_supersets() {
        let topo = chain();
        let view = sample_view(8, 3);
        let load = sparse_load(8, 3, &[2, 6]);
        let dense = compute_traffic(&topo, &load, &view);
        let mut engine = TrafficEngine::new();
        let active = [1, 2, 4, 6, 7];
        assert_eq!(engine.account_active(&topo, &load, &view, &active), &dense);
    }

    #[test]
    fn server_loads_fold_identically_on_dense_and_sparse_passes() {
        // Server 0 holds every partition, server 1 carries capacity but
        // is dead, server 2 holds no replica at all.
        let mut topo = chain();
        topo.fail_server(ServerId::new(1)).unwrap();
        let parts = 5u32;
        let mut view = PlacementView::new(parts, 3, vec![ServerId::new(0); parts as usize]);
        for p in (0..parts).map(PartitionId::new) {
            view.add_capacity(p, ServerId::new(0), 8.0 + p.0 as f64);
            view.add_capacity(p, ServerId::new(1), 4.0);
        }
        let mut sparse_engine = TrafficEngine::new();
        // Full, shrinking, empty, growing: the reused engine also takes
        // the partial-clear path into and out of the empty set.
        for active in [vec![0, 1, 2, 3, 4], vec![3], vec![], vec![0, 2, 4]] {
            let load = sparse_load(parts, 3, &active);
            let dense = compute_traffic(&topo, &load, &view);
            let sparse = sparse_engine.account_active(&topo, &load, &view, &active);
            for s in (0..3).map(ServerId::new) {
                assert_eq!(
                    sparse.server_load(s).to_bits(),
                    dense.server_load(s).to_bits(),
                    "{s} with active {active:?}"
                );
            }
            assert_eq!(dense.server_load(ServerId::new(0)) > 0.0, !active.is_empty());
            for idle in [1, 2] {
                assert_eq!(dense.server_load(ServerId::new(idle)).to_bits(), 0.0f64.to_bits());
            }
        }
    }

    #[test]
    fn alternating_dense_and_sparse_passes_stay_consistent() {
        // Full and partial passes share the partial-clear bookkeeping:
        // every switch must clear exactly what the previous pass wrote.
        let topo = chain();
        let view = sample_view(6, 3);
        let full: Vec<u32> = (0..6).collect();
        let busy = sample_load(6, 3);
        let quiet = sparse_load(6, 3, &[4]);
        let dense_busy = compute_traffic(&topo, &busy, &view);
        let dense_quiet = compute_traffic(&topo, &quiet, &view);
        let mut engine = TrafficEngine::new();
        assert_eq!(engine.account(&topo, &busy, &view), &dense_busy);
        assert_eq!(engine.account_active(&topo, &quiet, &view, &[4]), &dense_quiet);
        assert_eq!(engine.account(&topo, &busy, &view), &dense_busy);
        assert_eq!(engine.account_active(&topo, &busy, &view, &full), &dense_busy);
        assert_eq!(engine.account_active(&topo, &quiet, &view, &[4]), &dense_quiet);
    }

    #[test]
    fn reused_engine_equals_fresh_engine_across_fail_and_recover() {
        let mut topo = chain();
        let load = sample_load(4, 3);
        let view = sample_view(4, 3);
        let mut engine = TrafficEngine::new();
        let before = engine.account(&topo, &load, &view).clone();

        // Kill the middle server, then bring it back: at each step the
        // reused engine must match a fresh engine built against the
        // same topology, and the recovered cluster the original pass.
        topo.fail_server(ServerId::new(1)).unwrap();
        let failed = engine.account(&topo, &load, &view).clone();
        assert_eq!(&failed, TrafficEngine::new().account(&topo, &load, &view));
        assert_ne!(failed, before, "the dead server's replica serves nothing");
        topo.recover_server(ServerId::new(1)).unwrap();
        let recovered = engine.account(&topo, &load, &view).clone();
        assert_eq!(&recovered, TrafficEngine::new().account(&topo, &load, &view));
        assert_eq!(recovered, before);
    }
}
