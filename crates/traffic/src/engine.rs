//! The reusable per-epoch traffic engine.
//!
//! [`compute_traffic`](crate::absorption::compute_traffic) allocates
//! its whole working set — three grids, the remaining-capacity matrix,
//! and a routing path per `(requester, holder)` pair — on every call.
//! Inside a simulation that pass runs once per epoch per policy, so the
//! allocations and the repeated shortest-path walks dominate the hot
//! loop.
//!
//! [`TrafficEngine`] hoists all of that into reusable state:
//!
//! * a [`RouteTable`] caching every DC pair's path *and* the cumulative
//!   latency at each hop, refreshed only when the topology's
//!   [`generation`](rfh_topology::Topology::generation) moves;
//! * per-generation membership caches (each server's datacenter, each
//!   datacenter's alive servers in `server_ids()` order);
//! * a capacity index keyed on [`PlacementView::version`]: which
//!   servers are worth visiting per `(partition, datacenter)` pair;
//! * per-shard working buffers, zeroed in place each pass.
//!
//! ## Sharded pass, canonical merge
//!
//! Partitions are independent in the traffic pass: remaining capacity
//! is a per-partition row, every grid write lands in that partition's
//! row of the (partition-major) accounts, and the within-partition
//! accounting order (requesters ascending, hops in path order, indexed
//! servers in visit order) fixes every cell's value exactly. Only five
//! scalar totals (`hops_weighted`, `latency_weighted_ms`, `sla_within`,
//! `served_total`, `unserved_total`) and the per-server loads cross
//! partitions, and `f64` addition is not associative — so the engine
//! defines their *canonical* value as per-partition terms folded in
//! ascending partition order.
//!
//! The pass therefore runs as contiguous partition shards (one shard
//! serially; [`account_sharded`](TrafficEngine::account_sharded) fans
//! shards out over a [`WorkerPool`]) followed by a serial merge that
//! walks shards — hence partitions — in ascending order. Serial and
//! parallel execution share the shard code and the merge, so the output
//! is bit-identical for any thread count (property-tested in
//! `tests/prop_parallel.rs`), and `compute_traffic` (a one-shot,
//! single-shard engine) stays the semantic reference.

use rfh_obs::MetricsRegistry;
use rfh_pool::{shard_bounds, WorkerPool};
use rfh_topology::{RouteTable, Topology};
use rfh_types::{DatacenterId, PartitionId, ServerId};
use rfh_workload::QueryLoad;

use crate::absorption::{TrafficAccounts, INTRA_DC_LATENCY_MS, SLA_TARGET_MS};
use crate::grid::Grid;
use crate::placement::PlacementView;

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
    /// Alive servers of each datacenter, in `server_ids()` order —
    /// the exact order the legacy pass visits them.
    dc_alive: Vec<Vec<ServerId>>,
    /// Per-(partition, datacenter) segment bounds into
    /// [`cap_servers`](Self::cap_servers): `partition * n_dcs + dc`
    /// and the next entry delimit that pair's capacity-bearing servers.
    cap_offsets: Vec<u32>,
    /// Alive servers holding non-zero capacity, grouped per
    /// (partition, datacenter) in visit order. Skipping the rest up
    /// front is behavior-neutral: the pass performs no arithmetic on a
    /// zero-capacity server.
    cap_servers: Vec<ServerId>,
    /// [`PlacementView::version`] the capacity index above was built
    /// for: while neither it nor the topology generation moves, the
    /// index stays valid and each pass only reloads the indexed cells.
    view_version: Option<u64>,
    /// Per-shard working buffers; one shard on the serial path.
    shards: Vec<Shard>,
    accounts: TrafficAccounts,
    /// Active set of the previous *sparse* pass: the partitions whose
    /// account cells that pass wrote. `Some` ⇒ the accounts can be
    /// cleared in O(prev) instead of O(partitions) by the next sparse
    /// pass; `None` (after a dense pass, a shape change, or at birth)
    /// forces a full reset first.
    sparse_prev: Option<Vec<u32>>,
    stats: EngineStats,
}

/// Shard-local working state for a contiguous partition range
/// `[lo, hi)`. Everything a shard writes during the pass lands here;
/// the global accounts are assembled afterwards by the canonical merge.
#[derive(Debug, Clone)]
struct Shard {
    /// First position of the shard's partition range (a global
    /// partition index on the dense path; an index into the pass's
    /// active list on the sparse path).
    lo: usize,
    /// One past the last position.
    hi: usize,
    /// Remaining per-server capacity scratch for the partition being
    /// processed. Partitions are sequential within a shard and each one
    /// loads its indexed cells before reading them, so one row serves
    /// the whole shard; stale cells are never read.
    remaining: Vec<f64>,
    /// Per-(local partition, datacenter) arrival traffic, partition-
    /// major like the global accounts: the merge copies whole rows.
    dc_traffic: Grid,
    /// Per-(local partition, datacenter) forwarding traffic.
    dc_outflow: Grid,
    /// Served events `(server, take)` of the whole shard in emission
    /// order, replayed into the global served rows by the merge. All
    /// events for one `(partition, server)` cell occur within one
    /// partition's pass, so replay-in-order reproduces the cell bit for
    /// bit.
    served: Vec<(u32, f64)>,
    /// Where each local partition's events start in `served`, plus the
    /// total at the end (`span + 1` entries once the pass has run).
    served_offsets: Vec<usize>,
    /// Holder datacenter per local partition.
    holder_dc: Vec<DatacenterId>,
    /// Unserved residual per local partition. The partition's
    /// contribution to `unserved_total` is this same subtotal.
    unserved: Vec<f64>,
    /// Per-partition subtotals of the cross-partition scalars.
    hops_weighted: Vec<f64>,
    latency_weighted_ms: Vec<f64>,
    sla_within: Vec<f64>,
    served_total: Vec<f64>,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            lo: 0,
            hi: 0,
            remaining: Vec::new(),
            dc_traffic: Grid::zeros(0, 0),
            dc_outflow: Grid::zeros(0, 0),
            served: Vec::new(),
            served_offsets: Vec::new(),
            holder_dc: Vec::new(),
            unserved: Vec::new(),
            hops_weighted: Vec::new(),
            latency_weighted_ms: Vec::new(),
            sla_within: Vec::new(),
            served_total: Vec::new(),
        }
    }
}

impl Shard {
    /// Point this shard at `[lo, hi)` and (re)shape its buffers. Grid
    /// reshapes zero-fill; contents are otherwise left stale — the pass
    /// re-derives everything it reads.
    fn layout(&mut self, lo: usize, hi: usize, n_dcs: usize, n_servers: usize) {
        self.lo = lo;
        self.hi = hi;
        let span = hi - lo;
        self.remaining.resize(n_servers, 0.0);
        if self.dc_traffic.rows() != span || self.dc_traffic.cols() != n_dcs {
            self.dc_traffic.reset(span, n_dcs);
            self.dc_outflow.reset(span, n_dcs);
        }
        self.holder_dc.resize(span, DatacenterId::new(0));
        self.unserved.resize(span, 0.0);
        self.hops_weighted.resize(span, 0.0);
        self.latency_weighted_ms.resize(span, 0.0);
        self.sla_within.resize(span, 0.0);
        self.served_total.resize(span, 0.0);
    }
}

/// The read-only inputs a shard pass needs — all `Sync`, shared by
/// every worker.
struct PassCtx<'a> {
    routes: &'a RouteTable,
    server_dc: &'a [DatacenterId],
    cap_offsets: &'a [u32],
    cap_servers: &'a [ServerId],
    n_dcs: usize,
    load: &'a QueryLoad,
    view: &'a PlacementView,
    /// Sparse pass: positions map through this active list to global
    /// partition ids, and the capacity index is keyed by *position*.
    /// Dense pass (`None`): position == partition id.
    parts: Option<&'a [u32]>,
}

/// Cache-effectiveness counters of a [`TrafficEngine`]: how often the
/// per-epoch pass got away with the fast capacity-restore path versus
/// paying a topology rebuild or a full capacity re-index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Traffic passes run ([`TrafficEngine::account`] calls).
    pub passes: u64,
    /// Route/membership cache rebuilds (topology generation moved).
    pub topo_rebuilds: u64,
    /// Full capacity-index sweeps (rebuild, reshape, or the
    /// [`PlacementView::version`] stamp moved).
    pub index_rebuilds: u64,
    /// Fast-path passes: index valid, only consumed capacities restored
    /// — the capacity sweep was skipped entirely.
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
            dc_alive: Vec::new(),
            cap_offsets: Vec::new(),
            cap_servers: Vec::new(),
            view_version: None,
            shards: Vec::new(),
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

        let n_dcs = topo.datacenters().len();
        self.dc_alive.truncate(n_dcs);
        while self.dc_alive.len() < n_dcs {
            self.dc_alive.push(Vec::new());
        }
        for (d, alive) in self.dc_alive.iter_mut().enumerate() {
            alive.clear();
            let dc = topo.datacenter(DatacenterId::new(d as u32)).expect("dense dc ids");
            for server in dc.server_ids() {
                if topo.servers()[server.index()].alive {
                    alive.push(server);
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
        self.account_with(topo, load, view, None)
    }

    /// [`account`](Self::account), with the shard passes fanned out
    /// over `pool` (one contiguous partition shard per worker). The
    /// merge is serial and walks partitions in ascending order, so the
    /// result is bit-identical to the serial pass for any pool size.
    pub fn account_sharded(
        &mut self,
        topo: &Topology,
        load: &QueryLoad,
        view: &PlacementView,
        pool: &WorkerPool,
    ) -> &TrafficAccounts {
        self.account_with(topo, load, view, Some(pool))
    }

    fn account_with(
        &mut self,
        topo: &Topology,
        load: &QueryLoad,
        view: &PlacementView,
        pool: Option<&WorkerPool>,
    ) -> &TrafficAccounts {
        let rebuilt = self.sync_topology(topo);
        self.stats.passes += 1;

        let n_dcs = topo.datacenters().len();
        let n_parts = load.partitions() as usize;
        let n_servers = topo.server_count();
        debug_assert_eq!(view.partitions() as usize, n_parts);
        debug_assert_eq!(view.servers() as usize, n_servers);

        self.accounts.reset(n_dcs, n_parts, n_servers);
        // A dense pass rewrites every cell; the sparse partial-clear
        // bookkeeping no longer describes the accounts.
        self.sparse_prev = None;
        let shape_ok = self.cap_offsets.len() == n_parts * n_dcs + 1;
        if rebuilt || !shape_ok || self.view_version != Some(view.version()) {
            self.stats.index_rebuilds += 1;
            // Full sweep: index which servers are worth visiting — most
            // (partition, datacenter) pairs hold no capacity at all, and
            // the one-shot pass burns its time discovering that inside
            // the hot loop. The shard passes load remaining capacity
            // from this index each epoch.
            self.cap_servers.clear();
            self.cap_offsets.clear();
            self.cap_offsets.reserve(n_parts * n_dcs + 1);
            for p_idx in 0..n_parts {
                let caps = view.partition_capacities(PartitionId::new(p_idx as u32));
                for alive in &self.dc_alive {
                    self.cap_offsets.push(self.cap_servers.len() as u32);
                    for &server in alive {
                        if caps[server.index()] > 0.0 {
                            self.cap_servers.push(server);
                        }
                    }
                }
            }
            self.cap_offsets.push(self.cap_servers.len() as u32);
            self.view_version = Some(view.version());
        } else {
            self.stats.fast_restores += 1;
        }

        // Lay the shards out over the partitions. The serial path is
        // the one-shard case of the same code, which is what makes
        // serial ≡ parallel structural rather than coincidental.
        let n_shards = pool.map_or(1, WorkerPool::size).max(1);
        self.shards.resize_with(n_shards, Shard::default);
        for (k, shard) in self.shards.iter_mut().enumerate() {
            let (lo, hi) = shard_bounds(n_parts, n_shards, k);
            shard.layout(lo, hi, n_dcs, n_servers);
        }

        let ctx = PassCtx {
            routes: &self.routes,
            server_dc: &self.server_dc,
            cap_offsets: &self.cap_offsets,
            cap_servers: &self.cap_servers,
            n_dcs,
            load,
            view,
            parts: None,
        };
        run_shards(&mut self.shards, &ctx, pool);
        merge_shards(&mut self.accounts, &self.shards, None);

        self.accounts.fold_server_loads(0..n_parts);

        &self.accounts
    }

    /// Sparse traffic pass: account only the `active` partitions
    /// (sorted ascending, deduplicated), leaving every other
    /// partition's account cells untouched.
    ///
    /// ## Contract
    ///
    /// `active` must contain **every partition with non-zero load this
    /// epoch** (supersets are fine). Under that contract the result is
    /// bit-identical to a dense [`account`](Self::account) pass on every
    /// account the callers read: an inactive partition carries zero
    /// load, so the dense pass would write exact zeros into its cells
    /// (which the sparse invariant already guarantees) and contribute
    /// exact `+0.0` terms to the five cross-partition scalars and the
    /// per-server load sums — the additive identity on these
    /// non-negative accumulators. The one deliberate exception is
    /// [`TrafficAccounts::holder_dc`], which sparse passes maintain as a
    /// persistent map: an inactive partition keeps its last-written
    /// holder datacenter (still correct — placement changes dirty their
    /// partition) instead of being re-derived each pass.
    pub fn account_active(
        &mut self,
        topo: &Topology,
        load: &QueryLoad,
        view: &PlacementView,
        active: &[u32],
    ) -> &TrafficAccounts {
        self.account_active_with(topo, load, view, active, None)
    }

    /// [`account_active`](Self::account_active) with the shard passes
    /// fanned out over `pool`, sharding the *active list* instead of the
    /// full partition range. Bit-identical to the serial sparse pass for
    /// any pool size (same shard code, same ascending canonical merge).
    pub fn account_active_sharded(
        &mut self,
        topo: &Topology,
        load: &QueryLoad,
        view: &PlacementView,
        active: &[u32],
        pool: &WorkerPool,
    ) -> &TrafficAccounts {
        self.account_active_with(topo, load, view, active, Some(pool))
    }

    fn account_active_with(
        &mut self,
        topo: &Topology,
        load: &QueryLoad,
        view: &PlacementView,
        active: &[u32],
        pool: Option<&WorkerPool>,
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
                prev.clear();
                prev.extend_from_slice(active);
                self.sparse_prev = Some(prev);
            }
            _ => {
                self.accounts.reset(n_dcs, n_parts, n_servers);
                // holder_dc is a persistent map on the sparse path.
                self.accounts.holder_dc.resize(n_parts, DatacenterId::new(0));
                self.sparse_prev = Some(active.to_vec());
            }
        }

        // Build the capacity index over the active list, keyed by
        // *position* — the same per-partition build order as the dense
        // index, restricted to the partitions this pass visits. The
        // dense index cache is clobbered, so drop its validity stamp.
        self.cap_servers.clear();
        self.cap_offsets.clear();
        self.cap_offsets.reserve(active.len() * n_dcs + 1);
        for &pu in active {
            let caps = view.partition_capacities(PartitionId::new(pu));
            for alive in &self.dc_alive {
                self.cap_offsets.push(self.cap_servers.len() as u32);
                for &server in alive {
                    if caps[server.index()] > 0.0 {
                        self.cap_servers.push(server);
                    }
                }
            }
        }
        self.cap_offsets.push(self.cap_servers.len() as u32);
        self.view_version = None;

        let n_shards = pool.map_or(1, WorkerPool::size).max(1);
        self.shards.resize_with(n_shards, Shard::default);
        for (k, shard) in self.shards.iter_mut().enumerate() {
            let (lo, hi) = shard_bounds(active.len(), n_shards, k);
            shard.layout(lo, hi, n_dcs, n_servers);
        }

        let ctx = PassCtx {
            routes: &self.routes,
            server_dc: &self.server_dc,
            cap_offsets: &self.cap_offsets,
            cap_servers: &self.cap_servers,
            n_dcs,
            load,
            view,
            parts: Some(active),
        };
        run_shards(&mut self.shards, &ctx, pool);
        merge_shards(&mut self.accounts, &self.shards, Some(active));

        self.accounts.fold_server_loads(active.iter().map(|&p| p as usize));

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

/// Run every shard, fanned out over `pool` when one is given and worth
/// using. Shared by the dense and sparse passes.
fn run_shards(shards: &mut [Shard], ctx: &PassCtx<'_>, pool: Option<&WorkerPool>) {
    match pool {
        Some(pool) if shards.len() > 1 => {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = shards
                .iter_mut()
                .map(|shard| {
                    Box::new(move || run_shard(ctx, shard)) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(jobs);
        }
        _ => {
            for shard in shards {
                run_shard(ctx, shard);
            }
        }
    }
}

/// Canonical merge: shards ascending — hence positions, hence
/// partitions ascending — regardless of how many shards ran or on which
/// threads they finished. On the sparse path (`parts` given) positions
/// map through the active list and `holder_dc` is written by index into
/// the persistent map; the dense path rebuilds `holder_dc` by push.
fn merge_shards(acc: &mut TrafficAccounts, shards: &[Shard], parts: Option<&[u32]>) {
    for shard in shards {
        for (i, pos) in (shard.lo..shard.hi).enumerate() {
            let p_idx = match parts {
                Some(ps) => {
                    let p_idx = ps[pos] as usize;
                    acc.holder_dc[p_idx] = shard.holder_dc[i];
                    p_idx
                }
                None => {
                    acc.holder_dc.push(shard.holder_dc[i]);
                    pos
                }
            };
            // The global rows were just reset, and an untouched shard
            // cell is the same `+0.0` (the pass only adds positive
            // amounts), so whole-row copies write what cell-wise ones
            // would.
            let (tr, of, served) = acc.rows_mut(p_idx);
            tr.copy_from_slice(shard.dc_traffic.row(i));
            of.copy_from_slice(shard.dc_outflow.row(i));
            let events = shard.served_offsets[i]..shard.served_offsets[i + 1];
            for &(server, take) in &shard.served[events] {
                served[server as usize] += take;
            }
            acc.unserved[p_idx] = shard.unserved[i];
            acc.hops_weighted += shard.hops_weighted[i];
            acc.latency_weighted_ms += shard.latency_weighted_ms[i];
            acc.sla_within += shard.sla_within[i];
            acc.served_total += shard.served_total[i];
            acc.unserved_total += shard.unserved[i];
        }
    }
}

/// The accounting pass over one shard's positions. Reads only the
/// shared [`PassCtx`]; writes only shard-local buffers. The
/// within-partition order is the legacy accounting order — requesters
/// ascending, hops in path order, indexed servers in visit order — so
/// every per-partition quantity is computed by the exact `f64` sequence
/// the one-shot pass uses, on the dense and sparse paths alike.
fn run_shard(ctx: &PassCtx<'_>, shard: &mut Shard) {
    let Shard {
        lo,
        hi,
        remaining,
        dc_traffic,
        dc_outflow,
        served,
        served_offsets,
        holder_dc,
        unserved,
        hops_weighted,
        latency_weighted_ms,
        sla_within,
        served_total,
    } = shard;
    let n_dcs = ctx.n_dcs;
    served.clear();
    served_offsets.clear();

    for (i, pos) in (*lo..*hi).enumerate() {
        let p_idx = match ctx.parts {
            Some(parts) => parts[pos] as usize,
            None => pos,
        };
        let p = PartitionId::new(p_idx as u32);
        let caps = ctx.view.partition_capacities(p);
        let rem_row = remaining.as_mut_slice();
        // Load remaining capacity for the indexed cells only; stale
        // cells (including leftovers from this shard's previous
        // partition) are never read because the absorption loop below
        // visits indexed servers exclusively. The index is keyed by
        // position: on the dense path position == partition id.
        let seg_start = ctx.cap_offsets[pos * n_dcs] as usize;
        let seg_end = ctx.cap_offsets[(pos + 1) * n_dcs] as usize;
        for &server in &ctx.cap_servers[seg_start..seg_end] {
            rem_row[server.index()] = caps[server.index()];
        }
        let tr_row = dc_traffic.row_mut(i);
        let of_row = dc_outflow.row_mut(i);
        tr_row.fill(0.0);
        of_row.fill(0.0);
        served_offsets.push(served.len());
        let mut unserved_p = 0.0;
        let mut hops_p = 0.0;
        let mut latency_p = 0.0;
        let mut sla_p = 0.0;
        let mut served_p = 0.0;

        let holder = ctx.view.holder(p);
        let hdc = ctx.server_dc.get(holder.index()).copied().unwrap_or(DatacenterId::new(0));
        holder_dc[i] = hdc;

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
                tr_row[dc.index()] += residual;
                // Replicas in this datacenter absorb what they can:
                // only the prefiltered capacity-bearing servers,
                // in the same order the legacy pass visits them.
                let seg = pos * n_dcs + dc.index();
                let servers = &ctx.cap_servers
                    [ctx.cap_offsets[seg] as usize..ctx.cap_offsets[seg + 1] as usize];
                for &server in servers {
                    let cap = &mut rem_row[server.index()];
                    if *cap <= 0.0 {
                        continue;
                    }
                    let take = cap.min(residual);
                    if take > 0.0 {
                        *cap -= take;
                        served.push((server.0, take));
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
                    of_row[dc.index()] += residual;
                }
            }
            served_p += served_here;
            if residual > 0.0 {
                // Travelled the whole path and still unserved.
                unserved_p += residual;
                hops_p += (hops.len() - 1) as f64 * residual;
            }
        }

        unserved[i] = unserved_p;
        hops_weighted[i] = hops_p;
        latency_weighted_ms[i] = latency_p;
        sla_within[i] = sla_p;
        served_total[i] = served_p;
    }
    served_offsets.push(served.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absorption::compute_traffic;
    use rfh_topology::TopologyBuilder;
    use rfh_types::{Continent, GeoPoint};
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
    fn sharded_pass_is_bit_identical_for_any_pool_size() {
        let topo = chain();
        let load = sample_load(5, 3);
        let view = sample_view(5, 3);
        let serial = compute_traffic(&topo, &load, &view);
        for workers in [1, 2, 3, 7, 11] {
            let pool = WorkerPool::new(workers);
            let mut engine = TrafficEngine::new();
            // Twice: both the index-rebuild and the fast-restore pass.
            engine.account_sharded(&topo, &load, &view, &pool);
            let sharded = engine.account_sharded(&topo, &load, &view, &pool).clone();
            assert_eq!(sharded, serial, "{workers} workers");
        }
    }

    #[test]
    fn shard_layout_survives_pool_size_changes() {
        // The same engine alternates serial and pooled passes: shard
        // buffers must relayout without residue.
        let topo = chain();
        let load = sample_load(4, 3);
        let view = sample_view(4, 3);
        let serial = compute_traffic(&topo, &load, &view);
        let mut engine = TrafficEngine::new();
        let big = WorkerPool::new(6);
        let small = WorkerPool::new(2);
        assert_eq!(engine.account_sharded(&topo, &load, &view, &big), &serial);
        assert_eq!(engine.account(&topo, &load, &view), &serial);
        assert_eq!(engine.account_sharded(&topo, &load, &view, &small), &serial);
        assert_eq!(engine.account_sharded(&topo, &load, &view, &big), &serial);
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
    fn sharded_sparse_pass_is_bit_identical_for_any_pool_size() {
        let topo = chain();
        let view = sample_view(9, 3);
        let active: Vec<u32> = vec![0, 2, 3, 5, 8];
        let load = sparse_load(9, 3, &active);
        let dense = compute_traffic(&topo, &load, &view);
        for workers in [1, 2, 3, 7, 11] {
            let pool = WorkerPool::new(workers);
            let mut engine = TrafficEngine::new();
            // Twice: the second pass exercises the O(prev) partial clear.
            engine.account_active_sharded(&topo, &load, &view, &active, &pool);
            let sparse = engine.account_active_sharded(&topo, &load, &view, &active, &pool).clone();
            assert_sparse_matches_dense(&sparse, &dense, &active);
        }
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
