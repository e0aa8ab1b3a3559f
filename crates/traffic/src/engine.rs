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
//! * per-generation membership caches: each server's datacenter, and
//!   each alive server's *visit rank* — its position in the
//!   datacenters' `server_ids()` orders laid end to end;
//! * the scratch of the partition being processed, reused pass after
//!   pass.
//!
//! The view's replica slots serve as the capacity index: at each hop
//! the pass visits the partition's alive slots in that datacenter,
//! ordered by visit rank: the datacenter's `server_ids()` order, room
//! by room and rack by rack. `TopologyBuilder` numbers servers in that
//! order, so it is also server-id order.
//!
//! ## Canonical order
//!
//! Partitions are independent in the traffic pass: remaining capacity
//! is per partition, every account write lands in that partition's rows
//! of the (partition-major) accounts, and the within-partition
//! accounting order (requesters ascending, hops in path order, slots in
//! visit order) fixes every cell's value exactly. Only five scalar
//! totals (`hops_weighted`, `latency_weighted_ms`, `sla_within`,
//! `served_total`, `unserved_total`) and the per-server loads cross
//! partitions, and `f64` addition is not associative — so the pass adds
//! each partition's terms to them in ascending partition order, on the
//! dense and sparse paths alike. `compute_traffic` (a one-shot engine)
//! stays the semantic reference.

use rfh_obs::MetricsRegistry;
use rfh_topology::{RouteTable, Topology};
use rfh_types::{DatacenterId, PartitionId};
use rfh_workload::QueryLoad;

use crate::absorption::{TrafficAccounts, INTRA_DC_LATENCY_MS, SLA_TARGET_MS};
use crate::placement::PlacementView;

/// [`TrafficEngine::visit_rank`] of a server the pass never visits
/// (down, or outside the topology).
const NOT_VISITED: u32 = u32::MAX;

/// A stateful traffic pass: all buffers preallocated, routes cached.
///
/// One engine serves one topology lineage: it keys its caches on
/// [`Topology::generation`] and refreshes them lazily inside
/// [`account`](Self::account). Engines are cheap to create but only pay
/// off when reused; they are deliberately *not* shared between policy
/// threads — give each thread its own (share-nothing).
#[derive(Debug, Clone)]
pub struct TrafficEngine {
    routes: RouteTable,
    /// Generation the membership caches below were built for.
    synced: Option<u64>,
    /// Datacenter of each server, indexed by server id.
    server_dc: Vec<DatacenterId>,
    /// Each alive server's position in the datacenters' `server_ids()`
    /// orders laid end to end (datacenter-major), indexed by server id;
    /// [`NOT_VISITED`] for a dead server. Sorting a partition's slots by
    /// it yields the legacy visit order within every datacenter.
    visit_rank: Vec<u32>,
    /// [`PlacementView::version`] the last dense pass read; `None`
    /// after a sparse pass. Only classifies passes for [`EngineStats`].
    view_version: Option<u64>,
    /// Scratch of the partition being processed.
    scratch: Scratch,
    accounts: TrafficAccounts,
    /// Active set of the previous *sparse* pass: the partitions whose
    /// account cells that pass wrote. `Some` ⇒ the accounts can be
    /// cleared in O(prev) instead of O(partitions) by the next sparse
    /// pass; `None` (after a dense pass, a shape change, or at birth)
    /// forces a full reset first.
    sparse_prev: Option<Vec<u32>>,
    stats: EngineStats,
}

/// One alive replica slot of the partition being processed.
#[derive(Debug, Clone, Copy)]
struct Visit {
    rank: u32,
    dc: DatacenterId,
    slot: u32,
}

/// Per-partition scratch, overwritten for every partition the pass
/// visits.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The alive slots of the partition being processed, by visit rank.
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
    server_dc: &'a [DatacenterId],
    visit_rank: &'a [u32],
    load: &'a QueryLoad,
    view: &'a PlacementView,
}

/// Cache-effectiveness counters of a [`TrafficEngine`]: how often a
/// dense pass met the placement and membership the previous one saw,
/// and how much work the sparse passes skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Traffic passes run ([`TrafficEngine::account`] calls).
    pub passes: u64,
    /// Route/membership cache rebuilds (topology generation moved).
    pub topo_rebuilds: u64,
    /// Dense passes over a placement or membership the previous dense
    /// pass did not see (the topology was rebuilt, the
    /// [`PlacementView::version`] stamp moved, or a sparse pass came
    /// between).
    pub index_rebuilds: u64,
    /// Dense passes over the same placement and membership as the
    /// dense pass before.
    pub fast_restores: u64,
    /// Sparse passes run ([`TrafficEngine::account_active`] calls),
    /// also counted in [`passes`](Self::passes).
    pub sparse_passes: u64,
    /// Partitions visited by sparse passes, cumulative: the dirty-set
    /// work the engine actually performed.
    pub dirty_partitions: u64,
    /// Partitions sparse passes skipped, cumulative: the dense work the
    /// dirty-set pass avoided.
    pub skipped_partitions: u64,
}

impl EngineStats {
    /// Export the counters into a metrics registry under
    /// `traffic.engine.*`. The stats are lifetime totals, written
    /// set-style so re-collecting into the same registry is idempotent.
    pub fn collect_metrics(&self, registry: &mut MetricsRegistry) {
        registry.counter_total("traffic.engine.passes", self.passes);
        registry.counter_total("traffic.engine.topo_rebuilds", self.topo_rebuilds);
        registry.counter_total("traffic.engine.index_rebuilds", self.index_rebuilds);
        registry.counter_total("traffic.engine.fast_restores", self.fast_restores);
        registry.counter_total("traffic.engine.sparse_passes", self.sparse_passes);
        registry.counter_total("traffic.engine.dirty_partitions", self.dirty_partitions);
        registry.counter_total("traffic.engine.skipped_partitions", self.skipped_partitions);
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
            synced: None,
            server_dc: Vec::new(),
            visit_rank: Vec::new(),
            view_version: None,
            scratch: Scratch::default(),
            accounts: TrafficAccounts::empty(),
            sparse_prev: None,
            stats: EngineStats::default(),
        }
    }

    /// Cache-effectiveness counters accumulated over this engine's life.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The topology generation the caches are currently valid for.
    pub fn generation(&self) -> Option<u64> {
        self.synced
    }

    /// Bytes of heap the engine holds besides its
    /// [`accounts`](Self::accounts), by allocation capacity.
    pub fn heap_bytes(&self) -> usize {
        self.routes.heap_bytes()
            + self.server_dc.capacity() * std::mem::size_of::<DatacenterId>()
            + self.visit_rank.capacity() * std::mem::size_of::<u32>()
            + self.scratch.heap_bytes()
            + self.sparse_prev.as_ref().map_or(0, |prev| prev.capacity() * 4)
    }

    /// Refresh route + membership caches if `topo`'s generation moved
    /// (or on first use). Called by [`account`](Self::account); exposed
    /// for tests and for callers that want to pay the rebuild outside
    /// the measured pass.
    pub fn sync_topology(&mut self, topo: &Topology) -> bool {
        self.routes.sync(topo);
        if self.synced == Some(topo.generation()) && self.server_dc.len() == topo.server_count() {
            return false;
        }
        self.server_dc.clear();
        self.server_dc.extend(topo.servers().iter().map(|s| s.datacenter));
        self.visit_rank.clear();
        self.visit_rank.resize(topo.server_count(), NOT_VISITED);
        let mut rank = 0;
        for dc in topo.datacenters() {
            for server in dc.server_ids() {
                if topo.servers()[server.index()].alive {
                    self.visit_rank[server.index()] = rank;
                    rank += 1;
                }
            }
        }
        self.synced = Some(topo.generation());
        self.stats.topo_rebuilds += 1;
        true
    }

    /// Run the traffic pass for one epoch, reusing every buffer.
    ///
    /// Semantics (and bit-level output) match
    /// [`compute_traffic`](crate::absorption::compute_traffic):
    /// `view` must describe the same cluster as `topo` (same server
    /// count) and the same partition count as `load`. The returned
    /// borrow is valid until the next call on this engine.
    pub fn account(
        &mut self,
        topo: &Topology,
        load: &QueryLoad,
        view: &PlacementView,
    ) -> &TrafficAccounts {
        let rebuilt = self.sync_topology(topo);
        self.stats.passes += 1;

        let n_dcs = topo.datacenters().len();
        let n_parts = load.partitions() as usize;
        let n_servers = topo.server_count();
        debug_assert_eq!(view.partitions() as usize, n_parts);
        debug_assert_eq!(view.servers() as usize, n_servers);

        self.accounts.reset(n_dcs, n_parts, n_servers);
        self.accounts.align_served(view, 0..n_parts);
        // A dense pass rewrites every cell; the sparse partial-clear
        // bookkeeping no longer describes the accounts.
        self.sparse_prev = None;
        if rebuilt || self.view_version != Some(view.version()) {
            self.stats.index_rebuilds += 1;
            self.view_version = Some(view.version());
        } else {
            self.stats.fast_restores += 1;
        }

        let ctx = PassCtx {
            routes: &self.routes,
            server_dc: &self.server_dc,
            visit_rank: &self.visit_rank,
            load,
            view,
        };
        run_pass(&ctx, &mut self.scratch, &mut self.accounts, 0..n_parts);
        self.accounts.fold_server_loads(view, 0..n_parts);

        &self.accounts
    }

    /// Sparse traffic pass: account only the `active` partitions
    /// (sorted ascending, deduplicated), leaving every other
    /// partition's account cells untouched.
    ///
    /// ## Contract
    ///
    /// `active` must contain **every partition with non-zero load this
    /// epoch** (supersets are fine) and every partition whose slots in
    /// `view` changed since the last pass. Under that contract the result
    /// is bit-identical to a dense [`account`](Self::account) pass on
    /// every account the callers read: an inactive partition carries
    /// zero load, so the dense pass would write exact zeros into its
    /// cells (which the sparse invariant already guarantees) and
    /// contribute exact `+0.0` terms to the five cross-partition scalars
    /// and the per-server load sums — the additive identity on these
    /// non-negative accumulators. The one deliberate exception is
    /// [`TrafficAccounts::holder_dc`], which sparse passes maintain as a
    /// persistent map: an inactive partition keeps its last-written
    /// holder datacenter (still correct — placement changes dirty their
    /// partition) instead of being re-derived each pass.
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
        self.sync_topology(topo);
        self.stats.passes += 1;
        self.stats.sparse_passes += 1;

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
        self.stats.dirty_partitions += active.len() as u64;
        self.stats.skipped_partitions += (n_parts - active.len()) as u64;

        // Reset the accounts: O(prev) when the previous pass was sparse
        // at the same shape, full otherwise. Inactive cells stay zero
        // either way (the sparse invariant).
        let shape_ok = self.accounts.shape() == (n_dcs, n_parts, n_servers)
            && self.accounts.holder_dc.len() == n_parts;
        match self.sparse_prev.take() {
            Some(mut prev) if shape_ok => {
                self.accounts.clear_sparse(&prev);
                self.accounts.align_served(view, active.iter().map(|&p| p as usize));
                prev.clear();
                prev.extend_from_slice(active);
                self.sparse_prev = Some(prev);
            }
            _ => {
                self.accounts.reset(n_dcs, n_parts, n_servers);
                self.accounts.align_served(view, 0..n_parts);
                self.sparse_prev = Some(active.to_vec());
            }
        }
        self.view_version = None;

        let ctx = PassCtx {
            routes: &self.routes,
            server_dc: &self.server_dc,
            visit_rank: &self.visit_rank,
            load,
            view,
        };
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

/// The accounting pass over `partitions` (ascending), shared by the
/// dense and sparse passes. The within-partition order is the legacy
/// accounting order — requesters ascending, hops in path order, slots
/// in visit order — so every per-partition quantity is computed by the
/// exact `f64` sequence the one-shot pass uses; each partition's terms
/// then go onto the five cross-partition scalars in partition order.
fn run_pass(
    ctx: &PassCtx<'_>,
    scratch: &mut Scratch,
    acc: &mut TrafficAccounts,
    partitions: impl Iterator<Item = usize>,
) {
    let Scratch { visits, remaining } = scratch;
    for p_idx in partitions {
        let p = PartitionId::new(p_idx as u32);
        let slots = ctx.view.slots(p);
        // The slots worth visiting: alive servers, in visit order.
        visits.clear();
        remaining.clear();
        for (slot, s) in slots.iter().enumerate() {
            remaining.push(s.capacity);
            let rank = ctx.visit_rank.get(s.server.index()).copied().unwrap_or(NOT_VISITED);
            if rank != NOT_VISITED {
                visits.push(Visit { rank, dc: ctx.server_dc[s.server.index()], slot: slot as u32 });
            }
        }
        visits.sort_unstable_by_key(|v| v.rank);

        let acc_p = acc.partition_mut(p_idx);
        let mut unserved_p = 0.0;
        let mut hops_p = 0.0;
        let mut latency_p = 0.0;
        let mut sla_p = 0.0;
        let mut served_p = 0.0;

        let holder = ctx.view.holder(p);
        let hdc = ctx.server_dc.get(holder.index()).copied().unwrap_or(DatacenterId::new(0));
        *acc_p.holder_dc = hdc;

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
                // the datacenter's visit order.
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
    fn view_mutation_between_passes_invalidates_capacity_index() {
        let topo = chain();
        let load = sample_load(4, 3);
        let mut view = sample_view(4, 3);
        let mut engine = TrafficEngine::new();
        engine.account(&topo, &load, &view);
        // Same view object, same version: the fast reload path.
        assert_eq!(engine.account(&topo, &load, &view), &compute_traffic(&topo, &load, &view));

        // Mutate the view in place (capacity appears on a new server
        // and a holder moves): the version stamp must force a full
        // re-index, keeping the engine bit-identical to the one-shot.
        view.add_capacity(PartitionId::new(2), ServerId::new(0), 3.0);
        view.set_holder(PartitionId::new(0), ServerId::new(2));
        assert_eq!(engine.account(&topo, &load, &view), &compute_traffic(&topo, &load, &view));
    }

    #[test]
    fn stats_count_fast_and_slow_paths() {
        let topo = chain();
        let load = sample_load(4, 3);
        let mut view = sample_view(4, 3);
        let mut engine = TrafficEngine::new();
        engine.account(&topo, &load, &view);
        engine.account(&topo, &load, &view);
        engine.account(&topo, &load, &view);
        assert_eq!(
            engine.stats(),
            EngineStats {
                passes: 3,
                topo_rebuilds: 1,
                index_rebuilds: 1,
                fast_restores: 2,
                ..EngineStats::default()
            }
        );
        // A placement change forces a re-index on the next pass only.
        view.add_capacity(PartitionId::new(1), ServerId::new(0), 2.0);
        engine.account(&topo, &load, &view);
        engine.account(&topo, &load, &view);
        let stats = engine.stats();
        assert_eq!((stats.index_rebuilds, stats.fast_restores), (2, 3));

        let mut reg = MetricsRegistry::new();
        stats.collect_metrics(&mut reg);
        assert_eq!(reg.get("traffic.engine.passes"), Some(&rfh_obs::Metric::Counter(5)));
        assert_eq!(reg.get("traffic.engine.fast_restores"), Some(&rfh_obs::Metric::Counter(3)));
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

    /// Assert a sparse pass result equals the dense reference on every
    /// account callers read. `holder_dc` entries of inactive partitions
    /// are persistent in sparse mode, so they are aligned to the dense
    /// value before the whole-struct comparison.
    fn assert_sparse_matches_dense(
        sparse: &TrafficAccounts,
        dense: &TrafficAccounts,
        active: &[u32],
    ) {
        let mut sparse = sparse.clone();
        for p in 0..dense.holder_dc.len() {
            if active.binary_search(&(p as u32)).is_err() {
                sparse.holder_dc[p] = dense.holder_dc[p];
            }
        }
        assert_eq!(&sparse, dense);
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
            assert_sparse_matches_dense(&sparse, &dense, active);
            for s in 0..servers {
                let sid = ServerId::new(s);
                assert_eq!(
                    sparse.server_load(sid).to_bits(),
                    dense.server_load(sid).to_bits(),
                    "server {s} load, epoch {e}"
                );
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.sparse_passes, 6);
        assert_eq!(stats.dirty_partitions, 4 + 2 + 0 + 5 + 8 + 1);
        assert_eq!(stats.skipped_partitions, 4 + 6 + 8 + 3 + 0 + 7);
    }

    #[test]
    fn sparse_pass_accepts_active_supersets() {
        let topo = chain();
        let view = sample_view(8, 3);
        let load = sparse_load(8, 3, &[2, 6]);
        let dense = compute_traffic(&topo, &load, &view);
        let mut engine = TrafficEngine::new();
        let active = [1, 2, 4, 6, 7];
        let sparse = engine.account_active(&topo, &load, &view, &active).clone();
        assert_sparse_matches_dense(&sparse, &dense, &active);
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
        // Dense passes clobber the sparse bookkeeping and vice versa;
        // every switch must land on the full-reset / full-reindex path.
        let topo = chain();
        let view = sample_view(6, 3);
        let full: Vec<u32> = (0..6).collect();
        let busy = sample_load(6, 3);
        let quiet = sparse_load(6, 3, &[4]);
        let dense_busy = compute_traffic(&topo, &busy, &view);
        let dense_quiet = compute_traffic(&topo, &quiet, &view);
        let mut engine = TrafficEngine::new();
        assert_eq!(engine.account(&topo, &busy, &view), &dense_busy);
        let sparse = engine.account_active(&topo, &quiet, &view, &[4]).clone();
        assert_sparse_matches_dense(&sparse, &dense_quiet, &[4]);
        assert_eq!(engine.account(&topo, &busy, &view), &dense_busy);
        let sparse = engine.account_active(&topo, &busy, &view, &full).clone();
        assert_sparse_matches_dense(&sparse, &dense_busy, &full);
        let sparse = engine.account_active(&topo, &quiet, &view, &[4]).clone();
        assert_sparse_matches_dense(&sparse, &dense_quiet, &[4]);
    }

    #[test]
    fn generation_bump_invalidates_caches() {
        let mut topo = chain();
        let load = sample_load(4, 3);
        let view = sample_view(4, 3);
        let mut engine = TrafficEngine::new();
        engine.account(&topo, &load, &view);
        assert_eq!(engine.generation(), Some(topo.generation()));
        assert!(!engine.sync_topology(&topo), "same generation must not rebuild");

        // Kill the middle server: the engine must notice and match a
        // fresh engine built against the failed topology.
        topo.fail_server(ServerId::new(1)).unwrap();
        assert_ne!(engine.generation(), Some(topo.generation()));
        let stale_refreshed = engine.account(&topo, &load, &view).clone();
        let mut fresh = TrafficEngine::new();
        assert_eq!(&stale_refreshed, fresh.account(&topo, &load, &view));
        assert_eq!(engine.generation(), Some(topo.generation()));
    }
}
