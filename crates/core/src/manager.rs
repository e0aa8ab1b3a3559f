//! The replica manager: the authoritative replica map plus the resource
//! limits and cost model every policy operates under.
//!
//! Invariants maintained:
//! * every partition has at least one replica; the first entry of its
//!   replica set is the primary holder;
//! * at most one replica of a partition per server;
//! * a server's storage occupancy never exceeds `φ` of its capacity
//!   (eq. 19) — replication and migration *into* a full server are
//!   rejected;
//! * per-epoch outgoing transfers per server are bounded by the
//!   replication / migration bandwidths of Table I.
//!
//! Costs follow eq. (1): `c = d·f·s / b` with `d` the great-circle
//! distance between source and destination sites (floored at 1 km so
//! intra-datacenter copies cost a little, not nothing), `f` the failure
//! rate, `s` the partition size and `b` the relevant bandwidth.

use crate::policy::Action;
use rfh_obs::Recorder;
use rfh_topology::Topology;
use rfh_traffic::PlacementView;
use rfh_types::{Bytes, PartitionId, Result, RfhError, ServerId, SimConfig};

/// Minimum distance used in the cost model (km): an intra-datacenter
/// copy still crosses a switch fabric.
const MIN_COST_DISTANCE_KM: f64 = 1.0;

/// What a dead-server prune pass found and did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PruneOutcome {
    /// Every replica that was on a dead server, as `(partition, server)`.
    pub lost_replicas: Vec<(PartitionId, ServerId)>,
    /// Partitions that lost *every* replica and were restored from cold
    /// archive onto the fallback server — the data-loss events a
    /// replication scheme exists to prevent.
    pub restored_partitions: Vec<PartitionId>,
    /// Partitions that lost every replica while *no* fallback server was
    /// available (the fallback closure returned `None`, e.g. the whole
    /// cluster is down). They stay pinned to their dead primary, serve
    /// nothing, and await [`ReplicaManager::restore_partition`] once
    /// capacity returns.
    pub unrestored_partitions: Vec<PartitionId>,
}

/// The outcome of one successfully executed action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppliedAction {
    /// The action that was executed.
    pub action: Action,
    /// Cost per eq. (1); zero for suicides.
    pub cost: f64,
    /// Source→destination distance in km (0 for suicides).
    pub distance_km: f64,
}

/// Authoritative replica map + resource accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaManager {
    /// Replica servers per partition; element 0 is the primary holder.
    replica_sets: Vec<Vec<ServerId>>,
    /// Storage used per server.
    storage_used: Vec<Bytes>,
    /// Outgoing replication bytes per server, this epoch.
    repl_out: Vec<u64>,
    /// Outgoing migration bytes per server, this epoch.
    migr_out: Vec<u64>,
    partition_size: Bytes,
    max_storage: Bytes,
    phi: f64,
    repl_bw: u64,
    migr_bw: u64,
    /// WAN bandwidth-cut factors in (0, 1]: effective transfer budgets
    /// are `bw × factor`. 1.0 (the default) is a healthy backbone.
    repl_bw_factor: f64,
    migr_bw_factor: f64,
    /// eq. (1)'s `f`, from Table I.
    failure_rate: f64,
    /// Cached `Σ replica_sets[p].len()` so the per-epoch
    /// [`total_replicas`](Self::total_replicas) read is O(1) instead of
    /// O(partitions) — at a million partitions the sum itself would
    /// dominate a sparse epoch.
    total: usize,
}

impl ReplicaManager {
    /// Create a manager with every partition placed on its initial
    /// holder (one replica each).
    ///
    /// # Errors
    /// Fails if `initial_holders` length mismatches `cfg.partitions` or
    /// initial placement already violates storage limits.
    pub fn new(cfg: &SimConfig, servers: usize, initial_holders: Vec<ServerId>) -> Result<Self> {
        if initial_holders.len() != cfg.partitions as usize {
            return Err(RfhError::InvalidConfig {
                parameter: "partitions",
                reason: format!(
                    "{} initial holders for {} partitions",
                    initial_holders.len(),
                    cfg.partitions
                ),
            });
        }
        let mut m = ReplicaManager {
            replica_sets: initial_holders.iter().map(|&h| vec![h]).collect(),
            storage_used: vec![Bytes::ZERO; servers],
            repl_out: vec![0; servers],
            migr_out: vec![0; servers],
            partition_size: cfg.partition_size,
            max_storage: cfg.max_server_storage,
            phi: cfg.thresholds.phi,
            repl_bw: cfg.replication_bandwidth.0,
            migr_bw: cfg.migration_bandwidth.0,
            repl_bw_factor: 1.0,
            migr_bw_factor: 1.0,
            failure_rate: cfg.failure_rate,
            total: initial_holders.len(),
        };
        for &h in &initial_holders {
            if h.index() >= servers {
                return Err(RfhError::UnknownEntity { kind: "server", id: h.0 as u64 });
            }
            m.storage_used[h.index()] += cfg.partition_size;
        }
        for (s, &used) in m.storage_used.iter().enumerate() {
            if !m.fits(used) {
                return Err(RfhError::Simulation(format!(
                    "initial placement overfills server {s}"
                )));
            }
        }
        Ok(m)
    }

    fn fits(&self, used_after: Bytes) -> bool {
        used_after.fraction_of(self.max_storage) <= self.phi
    }

    /// Reset the per-epoch transfer budgets. Call at every epoch start.
    pub fn begin_epoch(&mut self) {
        self.repl_out.fill(0);
        self.migr_out.fill(0);
    }

    /// Bytes of heap the replica map holds, by allocation capacity.
    /// O(partitions): meant for occasional collection, not every epoch.
    pub fn heap_bytes(&self) -> usize {
        let sets = self.replica_sets.capacity() * std::mem::size_of::<Vec<ServerId>>()
            + self.replica_sets.iter().map(|set| set.capacity()).sum::<usize>()
                * std::mem::size_of::<ServerId>();
        sets + self.storage_used.capacity() * std::mem::size_of::<Bytes>()
            + (self.repl_out.capacity() + self.migr_out.capacity()) * std::mem::size_of::<u64>()
    }

    /// Apply a WAN bandwidth cut: scale the per-epoch replication and
    /// migration budgets by factors in (0, 1]. `(1.0, 1.0)` restores
    /// the healthy backbone. Values outside (0, 1] are clamped.
    pub fn set_bandwidth_factors(&mut self, replication: f64, migration: f64) {
        let clamp = |f: f64| if f.is_finite() { f.clamp(f64::MIN_POSITIVE, 1.0) } else { 1.0 };
        self.repl_bw_factor = clamp(replication);
        self.migr_bw_factor = clamp(migration);
    }

    /// The current `(replication, migration)` bandwidth-cut factors set
    /// by [`set_bandwidth_factors`](Self::set_bandwidth_factors) —
    /// `(1.0, 1.0)` on a healthy backbone. The transfer planner derives
    /// its per-link budgets from these.
    pub fn bandwidth_factors(&self) -> (f64, f64) {
        (self.repl_bw_factor, self.migr_bw_factor)
    }

    /// Effective per-epoch replication budget under any bandwidth cut.
    fn effective_repl_bw(&self) -> u64 {
        (self.repl_bw as f64 * self.repl_bw_factor) as u64
    }

    /// Effective per-epoch migration budget under any bandwidth cut.
    fn effective_migr_bw(&self) -> u64 {
        (self.migr_bw as f64 * self.migr_bw_factor) as u64
    }

    /// Number of partitions managed.
    pub fn partitions(&self) -> u32 {
        self.replica_sets.len() as u32
    }

    /// Number of servers known.
    pub fn servers(&self) -> usize {
        self.storage_used.len()
    }

    /// The primary holder of a partition.
    pub fn holder(&self, p: PartitionId) -> ServerId {
        self.replica_sets[p.index()][0]
    }

    /// All replica servers of a partition (holder first).
    pub fn replicas(&self, p: PartitionId) -> &[ServerId] {
        &self.replica_sets[p.index()]
    }

    /// Replica count of a partition.
    pub fn replica_count(&self, p: PartitionId) -> usize {
        self.replica_sets[p.index()].len()
    }

    /// Total replicas across all partitions (the Fig. 4 series). O(1):
    /// maintained incrementally by every mutation.
    pub fn total_replicas(&self) -> usize {
        debug_assert_eq!(self.total, self.replica_sets.iter().map(|s| s.len()).sum::<usize>());
        self.total
    }

    /// Whether `server` hosts a replica of `p`.
    pub fn hosts(&self, p: PartitionId, server: ServerId) -> bool {
        self.replica_sets[p.index()].contains(&server)
    }

    /// Storage occupancy fraction of a server (the `S_i` of eq. 19).
    pub fn storage_fraction(&self, server: ServerId) -> f64 {
        self.storage_used[server.index()].fraction_of(self.max_storage)
    }

    /// Whether a server can accept one more replica under eq. 19 and has
    /// a free replica slot for the partition.
    pub fn can_accept(&self, p: PartitionId, server: ServerId) -> bool {
        !self.hosts(p, server)
            && (self.storage_used[server.index()] + self.partition_size)
                .fraction_of(self.max_storage)
                <= self.phi
    }

    /// Execute an action.
    ///
    /// # Errors
    /// Rejects actions that would violate an invariant: unknown servers,
    /// duplicate replicas, storage over `φ`, exhausted transfer budget,
    /// suicide of the last replica, or migration of a non-existent
    /// replica. The caller decides whether a rejection is a bug (tests)
    /// or simply a decision that could not be honoured this epoch
    /// (simulation, e.g. bandwidth exhausted).
    pub fn apply(&mut self, topo: &Topology, action: Action) -> Result<AppliedAction> {
        match action {
            Action::Replicate { partition, target } => {
                self.check_server(target)?;
                if self.hosts(partition, target) {
                    return Err(RfhError::Simulation(format!(
                        "{partition} already has a replica on {target}"
                    )));
                }
                if !topo.servers()[target.index()].alive {
                    return Err(RfhError::Simulation(format!("{target} is not alive")));
                }
                if !self.can_accept(partition, target) {
                    return Err(RfhError::Simulation(format!("{target} storage would exceed φ")));
                }
                let source = self.holder(partition);
                if self.repl_out[source.index()] + self.partition_size.as_u64()
                    > self.effective_repl_bw()
                {
                    return Err(RfhError::Simulation(format!(
                        "replication bandwidth of {source} exhausted this epoch"
                    )));
                }
                self.repl_out[source.index()] += self.partition_size.as_u64();
                self.storage_used[target.index()] += self.partition_size;
                self.replica_sets[partition.index()].push(target);
                self.total += 1;
                let distance_km =
                    topo.server_distance_km(source, target)?.max(MIN_COST_DISTANCE_KM);
                Ok(AppliedAction {
                    action,
                    cost: self.transfer_cost(distance_km, self.repl_bw),
                    distance_km,
                })
            }
            Action::Migrate { partition, from, to } => {
                self.check_server(from)?;
                self.check_server(to)?;
                if !self.hosts(partition, from) {
                    return Err(RfhError::Simulation(format!(
                        "{partition} has no replica on {from} to migrate"
                    )));
                }
                if self.hosts(partition, to) {
                    return Err(RfhError::Simulation(format!(
                        "{partition} already has a replica on {to}"
                    )));
                }
                if !topo.servers()[to.index()].alive {
                    return Err(RfhError::Simulation(format!("{to} is not alive")));
                }
                if !self.can_accept(partition, to) {
                    return Err(RfhError::Simulation(format!("{to} storage would exceed φ")));
                }
                if self.migr_out[from.index()] + self.partition_size.as_u64()
                    > self.effective_migr_bw()
                {
                    return Err(RfhError::Simulation(format!(
                        "migration bandwidth of {from} exhausted this epoch"
                    )));
                }
                self.migr_out[from.index()] += self.partition_size.as_u64();
                self.storage_used[from.index()] -= self.partition_size;
                self.storage_used[to.index()] += self.partition_size;
                let set = &mut self.replica_sets[partition.index()];
                let idx = set.iter().position(|&s| s == from).expect("checked above");
                set[idx] = to;
                let distance_km = topo.server_distance_km(from, to)?.max(MIN_COST_DISTANCE_KM);
                Ok(AppliedAction {
                    action,
                    cost: self.transfer_cost(distance_km, self.migr_bw),
                    distance_km,
                })
            }
            Action::Suicide { partition, server } => {
                self.check_server(server)?;
                let set = &mut self.replica_sets[partition.index()];
                if set.len() <= 1 {
                    return Err(RfhError::Simulation(format!(
                        "refusing to remove the last replica of {partition}"
                    )));
                }
                let Some(idx) = set.iter().position(|&s| s == server) else {
                    return Err(RfhError::Simulation(format!(
                        "{partition} has no replica on {server}"
                    )));
                };
                if idx == 0 {
                    return Err(RfhError::Simulation(format!(
                        "the primary holder of {partition} cannot suicide"
                    )));
                }
                set.remove(idx);
                self.total -= 1;
                self.storage_used[server.index()] -= self.partition_size;
                Ok(AppliedAction { action, cost: 0.0, distance_km: 0.0 })
            }
        }
    }

    /// [`ReplicaManager::apply`], mirroring the executor's verdict to a
    /// trace recorder: the pending decision event for the partition gets
    /// its `applied` flag and eq. (1) cost filled in (0 on rejection).
    /// `policy` must be the label the deciding policy stamped into its
    /// events ([`crate::ReplicationPolicy::name`]) — the recorder may be
    /// shared across concurrently running policies and matches outcomes
    /// by (policy, partition). The recorder observes only — the action's
    /// outcome is identical to a plain `apply`.
    pub fn apply_recorded(
        &mut self,
        topo: &Topology,
        action: Action,
        recorder: &dyn Recorder,
        policy: &'static str,
    ) -> Result<AppliedAction> {
        let outcome = self.apply(topo, action);
        if recorder.enabled() {
            let partition = action.partition();
            match &outcome {
                Ok(applied) => recorder.outcome(policy, partition.0, true, applied.cost),
                Err(_) => recorder.outcome(policy, partition.0, false, 0.0),
            }
        }
        outcome
    }

    fn check_server(&self, s: ServerId) -> Result<()> {
        if s.index() >= self.storage_used.len() {
            return Err(RfhError::UnknownEntity { kind: "server", id: s.0 as u64 });
        }
        Ok(())
    }

    /// eq. (1): `c = d·f·s/b`, with `f` the config's `failure_rate`
    /// read at construction (one value for all servers, per Table I)
    /// and `s` its partition size.
    fn transfer_cost(&self, distance_km: f64, bandwidth: u64) -> f64 {
        distance_km * self.failure_rate * self.partition_size.as_u64() as f64 / bandwidth as f64
    }

    /// Remove replicas hosted on dead servers and promote primaries.
    ///
    /// If a partition loses *all* replicas, it is restored on
    /// `fallback(p)` (modelling recovery from cold archive) and recorded
    /// as a data-loss event in the outcome. When the fallback closure
    /// returns `None` (no live server anywhere), the partition stays
    /// pinned to its dead primary — serving nothing — and is reported in
    /// [`PruneOutcome::unrestored_partitions`] so the caller can retry
    /// the restore once servers recover.
    pub fn prune_dead(
        &mut self,
        topo: &Topology,
        mut fallback: impl FnMut(PartitionId) -> Option<ServerId>,
    ) -> PruneOutcome {
        let mut outcome = PruneOutcome::default();
        for p_idx in 0..self.replica_sets.len() {
            let p = PartitionId::new(p_idx as u32);
            let set = &mut self.replica_sets[p_idx];
            let primary = set[0];
            let mut i = 0;
            while i < set.len() {
                let s = set[i];
                if !topo.servers()[s.index()].alive {
                    outcome.lost_replicas.push((p, s));
                    self.storage_used[s.index()] -= self.partition_size;
                    set.remove(i);
                    self.total -= 1;
                } else {
                    i += 1;
                }
            }
            if set.is_empty() {
                match fallback(p) {
                    Some(fb) => {
                        debug_assert!(topo.servers()[fb.index()].alive, "fallback must be alive");
                        set.push(fb);
                        self.total += 1;
                        self.storage_used[fb.index()] += self.partition_size;
                        outcome.restored_partitions.push(p);
                    }
                    None => {
                        set.push(primary);
                        self.total += 1;
                        self.storage_used[primary.index()] += self.partition_size;
                        outcome.unrestored_partitions.push(p);
                    }
                }
            }
        }
        outcome
    }

    /// Restore a partition whose every replica is on a dead server
    /// (the deferred branch of [`ReplicaManager::prune_dead`]): drop the
    /// dead pins and place a single fresh copy from cold archive on
    /// `to`. Counts as a data-loss restore for the caller's accounting.
    ///
    /// # Errors
    /// Fails when `to` is unknown or dead, when some replica of the
    /// partition is still alive (nothing to restore), or when `to`
    /// cannot take the copy under the storage cap.
    pub fn restore_partition(
        &mut self,
        topo: &Topology,
        p: PartitionId,
        to: ServerId,
    ) -> Result<()> {
        self.check_server(to)?;
        if !topo.servers()[to.index()].alive {
            return Err(RfhError::Simulation(format!("{to} is not alive")));
        }
        if self.replica_sets[p.index()].iter().any(|&s| topo.servers()[s.index()].alive) {
            return Err(RfhError::Simulation(format!("{p} still has a live replica")));
        }
        if !self.fits(self.storage_used[to.index()] + self.partition_size) {
            return Err(RfhError::Simulation(format!("{to} storage would exceed φ")));
        }
        let dead: Vec<ServerId> = self.replica_sets[p.index()].drain(..).collect();
        self.total -= dead.len();
        for s in dead {
            self.storage_used[s.index()] -= self.partition_size;
        }
        self.replica_sets[p.index()].push(to);
        self.total += 1;
        self.storage_used[to.index()] += self.partition_size;
        Ok(())
    }

    /// Render the placement view for the traffic pass: each replica of a
    /// partition on a server offers `capacity_mean × capacity_factor`
    /// queries/epoch.
    ///
    /// One-shot convenience around [`render_view`](Self::render_view);
    /// epoch loops keep a view alive and re-render only what changed
    /// (see [`render_partition`](Self::render_partition)).
    pub fn placement_view(&self, topo: &Topology, capacity_mean: f64) -> PlacementView {
        let mut view = PlacementView::new(0, 0, Vec::new());
        self.render_view(topo, capacity_mean, &mut view);
        view
    }

    /// Rebuild `view` in place from the full replica map, reusing its
    /// allocations. Use after shape changes (server join, prune) or to
    /// initialise a fresh view.
    pub fn render_view(&self, topo: &Topology, capacity_mean: f64, view: &mut PlacementView) {
        view.reset(self.replica_sets.len() as u32, self.storage_used.len() as u32);
        for p_idx in 0..self.replica_sets.len() {
            self.render_partition(topo, capacity_mean, PartitionId::new(p_idx as u32), view);
        }
    }

    /// Re-render one partition's row of `view` in place — the delta
    /// update for a partition whose replica set (or holder) changed.
    /// Produces exactly what a full rebuild would for that row.
    pub fn render_partition(
        &self,
        topo: &Topology,
        capacity_mean: f64,
        p: PartitionId,
        view: &mut PlacementView,
    ) {
        let set = &self.replica_sets[p.index()];
        view.clear_partition(p);
        view.set_holder(p, set[0]);
        for &server in set {
            let factor = topo.servers()[server.index()].capacity_factor;
            view.add_capacity(p, server, capacity_mean * factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_topology::{Topology, TopologyBuilder};
    use rfh_types::{Bandwidth, Continent, GeoPoint};

    /// Two datacenters, two servers each (ids 0,1 in A; 2,3 in B).
    fn topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let a = b
            .datacenter("A", Continent::NorthAmerica, "USA", "A1", GeoPoint::new(0.0, 0.0), 1, 1, 2)
            .unwrap();
        let c = b
            .datacenter("B", Continent::Asia, "CHN", "B1", GeoPoint::new(0.0, 90.0), 1, 1, 2)
            .unwrap();
        b.link(a, c, 50.0).unwrap();
        b.build(0.0, 0).unwrap()
    }

    fn cfg() -> SimConfig {
        SimConfig { partitions: 2, ..SimConfig::default() }
    }

    fn p(i: u32) -> PartitionId {
        PartitionId::new(i)
    }
    fn s(i: u32) -> ServerId {
        ServerId::new(i)
    }

    fn manager() -> ReplicaManager {
        ReplicaManager::new(&cfg(), 4, vec![s(0), s(2)]).unwrap()
    }

    #[test]
    fn initial_state() {
        let m = manager();
        assert_eq!(m.partitions(), 2);
        assert_eq!(m.servers(), 4);
        assert_eq!(m.holder(p(0)), s(0));
        assert_eq!(m.holder(p(1)), s(2));
        assert_eq!(m.total_replicas(), 2);
        assert!(m.hosts(p(0), s(0)));
        assert!(!m.hosts(p(0), s(1)));
        assert!(m.storage_fraction(s(0)) > 0.0);
        assert_eq!(m.storage_fraction(s(1)), 0.0);
    }

    #[test]
    fn constructor_validates() {
        assert!(ReplicaManager::new(&cfg(), 4, vec![s(0)]).is_err(), "holder count");
        assert!(ReplicaManager::new(&cfg(), 4, vec![s(0), s(9)]).is_err(), "unknown server");
    }

    #[test]
    fn replicate_moves_data_and_charges_cost() {
        let t = topo();
        let mut m = manager();
        let applied = m.apply(&t, Action::Replicate { partition: p(0), target: s(3) }).unwrap();
        assert!(m.hosts(p(0), s(3)));
        assert_eq!(m.replica_count(p(0)), 2);
        // Cross-continent distance → meaningful cost.
        assert!(applied.distance_km > 9000.0, "quarter circumference ≈ 10,000 km");
        let expect = applied.distance_km * 0.1 * (512.0 * 1024.0) / (300.0 * 1024.0 * 1024.0);
        assert!((applied.cost - expect).abs() < 1e-9);
        // Intra-DC replication is much cheaper but not free.
        let local = m.apply(&t, Action::Replicate { partition: p(0), target: s(1) }).unwrap();
        assert_eq!(local.distance_km, 1.0);
        assert!(local.cost > 0.0 && local.cost < applied.cost / 1000.0);
    }

    #[test]
    fn replicate_rejects_duplicates_and_dead_targets() {
        let mut t = topo();
        let mut m = manager();
        assert!(m.apply(&t, Action::Replicate { partition: p(0), target: s(0) }).is_err());
        t.fail_server(s(3)).unwrap();
        assert!(m.apply(&t, Action::Replicate { partition: p(0), target: s(3) }).is_err());
        assert_eq!(m.total_replicas(), 2, "rejected actions change nothing");
    }

    #[test]
    fn storage_cap_phi_is_enforced() {
        // A server that fits exactly one partition under φ.
        let small = SimConfig {
            partitions: 2,
            max_server_storage: Bytes::mib(1),
            partition_size: Bytes::kib(512),
            ..SimConfig::default()
        };
        // φ = 0.7: one 512 KiB partition is 0.5 ≤ 0.7, two would be 1.0.
        let t = topo();
        let mut m = ReplicaManager::new(&small, 4, vec![s(0), s(2)]).unwrap();
        assert!(m.can_accept(p(0), s(1)));
        m.apply(&t, Action::Replicate { partition: p(0), target: s(1) }).unwrap();
        assert!(!m.can_accept(p(1), s(1)), "second copy would exceed φ");
        assert!(m.apply(&t, Action::Replicate { partition: p(1), target: s(1) }).is_err());
    }

    #[test]
    fn replication_bandwidth_budget_per_epoch() {
        let tight = SimConfig {
            partitions: 2,
            replication_bandwidth: Bandwidth(Bytes::kib(512).as_u64()), // one transfer
            ..SimConfig::default()
        };
        let t = topo();
        let mut m = ReplicaManager::new(&tight, 4, vec![s(0), s(0)]).unwrap();
        m.apply(&t, Action::Replicate { partition: p(0), target: s(1) }).unwrap();
        // Same source (holder s0): second transfer this epoch is denied.
        let denied = m.apply(&t, Action::Replicate { partition: p(1), target: s(2) });
        assert!(denied.is_err());
        // Next epoch the budget resets.
        m.begin_epoch();
        m.apply(&t, Action::Replicate { partition: p(1), target: s(2) }).unwrap();
    }

    #[test]
    fn migrate_moves_replica_between_servers() {
        let t = topo();
        let mut m = manager();
        m.apply(&t, Action::Replicate { partition: p(0), target: s(2) }).unwrap();
        let before_frac = m.storage_fraction(s(2));
        let applied =
            m.apply(&t, Action::Migrate { partition: p(0), from: s(2), to: s(3) }).unwrap();
        assert!(!m.hosts(p(0), s(2)));
        assert!(m.hosts(p(0), s(3)));
        assert!(m.storage_fraction(s(2)) < before_frac);
        // Intra-DC migration: floor distance, migration bandwidth in the
        // denominator (100 MB/epoch → pricier per byte than replication).
        assert_eq!(applied.distance_km, 1.0);
        let expect = 1.0 * 0.1 * (512.0 * 1024.0) / (100.0 * 1024.0 * 1024.0);
        assert!((applied.cost - expect).abs() < 1e-12);
        // Holder is unaffected.
        assert_eq!(m.holder(p(0)), s(0));
    }

    #[test]
    fn migrate_rejects_bad_moves() {
        let t = topo();
        let mut m = manager();
        assert!(
            m.apply(&t, Action::Migrate { partition: p(0), from: s(1), to: s(2) }).is_err(),
            "no replica on from"
        );
        m.apply(&t, Action::Replicate { partition: p(0), target: s(1) }).unwrap();
        assert!(
            m.apply(&t, Action::Migrate { partition: p(0), from: s(1), to: s(0) }).is_err(),
            "target already hosts"
        );
    }

    #[test]
    fn suicide_protects_the_last_copy_and_the_primary() {
        let t = topo();
        let mut m = manager();
        assert!(
            m.apply(&t, Action::Suicide { partition: p(0), server: s(0) }).is_err(),
            "last replica"
        );
        m.apply(&t, Action::Replicate { partition: p(0), target: s(1) }).unwrap();
        assert!(
            m.apply(&t, Action::Suicide { partition: p(0), server: s(0) }).is_err(),
            "primary cannot suicide"
        );
        let applied = m.apply(&t, Action::Suicide { partition: p(0), server: s(1) }).unwrap();
        assert_eq!(applied.cost, 0.0);
        assert_eq!(m.replica_count(p(0)), 1);
        assert_eq!(m.storage_fraction(s(1)), 0.0);
    }

    #[test]
    fn prune_dead_promotes_and_restores() {
        let mut t = topo();
        let mut m = manager();
        m.apply(&t, Action::Replicate { partition: p(0), target: s(3) }).unwrap();
        // Kill the primary of partition 0.
        t.fail_server(s(0)).unwrap();
        let outcome = m.prune_dead(&t, |_| Some(s(1)));
        assert_eq!(outcome.lost_replicas, vec![(p(0), s(0))]);
        assert!(outcome.restored_partitions.is_empty(), "a copy survived");
        assert_eq!(m.holder(p(0)), s(3), "surviving replica promoted to primary");
        assert_eq!(m.replica_count(p(0)), 1);
        // Kill everything holding partition 1 → fallback restore, which
        // counts as a data-loss event.
        t.fail_server(s(2)).unwrap();
        let outcome = m.prune_dead(&t, |_| Some(s(1)));
        assert_eq!(outcome.lost_replicas, vec![(p(1), s(2))]);
        assert_eq!(outcome.restored_partitions, vec![p(1)]);
        assert_eq!(m.holder(p(1)), s(1));
        assert!(m.storage_fraction(s(1)) > 0.0);
    }

    #[test]
    fn prune_without_fallback_pins_to_dead_primary_until_restore() {
        let mut t = topo();
        let mut m = manager();
        // Kill the whole cluster: no fallback exists anywhere.
        for i in 0..4 {
            t.fail_server(s(i)).unwrap();
        }
        let outcome = m.prune_dead(&t, |_| None);
        assert_eq!(outcome.lost_replicas, vec![(p(0), s(0)), (p(1), s(2))]);
        assert!(outcome.restored_partitions.is_empty());
        assert_eq!(outcome.unrestored_partitions, vec![p(0), p(1)]);
        // Pinned to the dead primaries — the map stays total.
        assert_eq!(m.holder(p(0)), s(0));
        assert_eq!(m.holder(p(1)), s(2));
        assert!(m.storage_fraction(s(0)) > 0.0, "pin keeps the dead ledger consistent");

        // Restore is refused while no target is alive…
        assert!(m.restore_partition(&t, p(0), s(1)).is_err());
        // …and succeeds once one recovers, moving storage off the pin.
        t.recover_server(s(1)).unwrap();
        m.restore_partition(&t, p(0), s(1)).unwrap();
        assert_eq!(m.holder(p(0)), s(1));
        assert_eq!(m.replica_count(p(0)), 1);
        assert_eq!(m.storage_fraction(s(0)), 0.0);
        // A second restore of the same partition is a no-op error: a
        // live replica exists now.
        assert!(m.restore_partition(&t, p(0), s(1)).is_err());
    }

    #[test]
    fn restore_partition_validates_target() {
        let mut t = topo();
        let mut m = manager();
        t.fail_server(s(0)).unwrap();
        m.prune_dead(&t, |_| None);
        assert!(m.restore_partition(&t, p(0), s(9)).is_err(), "unknown server");
        // A target already full under φ is refused.
        let small = SimConfig {
            partitions: 2,
            max_server_storage: Bytes::mib(1),
            partition_size: Bytes::kib(512),
            ..SimConfig::default()
        };
        let mut m = ReplicaManager::new(&small, 4, vec![s(0), s(2)]).unwrap();
        m.apply(&t, Action::Replicate { partition: p(1), target: s(1) }).unwrap();
        m.prune_dead(&t, |_| None);
        assert!(m.restore_partition(&t, p(0), s(1)).is_err(), "φ exceeded");
        m.restore_partition(&t, p(0), s(3)).unwrap();
    }

    #[test]
    fn bandwidth_factors_scale_the_per_epoch_budgets() {
        let t = topo();
        let mut m = manager();
        // Cut replication bandwidth to a sliver: one 512 KiB transfer no
        // longer fits in 300 MiB × 1e-6.
        m.set_bandwidth_factors(1e-6, 1.0);
        assert!(m.apply(&t, Action::Replicate { partition: p(0), target: s(3) }).is_err());
        // Migration budget is independent and still whole.
        m.apply(&t, Action::Migrate { partition: p(1), from: s(2), to: s(3) }).unwrap();
        // Restoring the factor restores the budget (same epoch: the
        // failed attempt consumed nothing).
        m.set_bandwidth_factors(1.0, 1.0);
        m.apply(&t, Action::Replicate { partition: p(0), target: s(1) }).unwrap();
        // Degenerate inputs clamp instead of poisoning the budget.
        m.set_bandwidth_factors(f64::NAN, -3.0);
        m.begin_epoch();
        m.apply(&t, Action::Replicate { partition: p(0), target: s(3) })
            .expect("NaN clamps to 1.0, a full budget");
    }

    #[test]
    fn placement_view_reflects_replicas_and_factors() {
        let t = topo();
        let mut m = manager();
        m.apply(&t, Action::Replicate { partition: p(0), target: s(3) }).unwrap();
        let view = m.placement_view(&t, 20.0);
        assert_eq!(view.holder(p(0)), s(0));
        assert_eq!(view.capacity(p(0), s(0)), 20.0, "factor 1.0 with zero spread");
        assert_eq!(view.capacity(p(0), s(3)), 20.0);
        assert_eq!(view.capacity(p(0), s(1)), 0.0);
        assert_eq!(view.capacity(p(1), s(2)), 20.0);
        assert_eq!(view.partition_capacity_total(p(0)), 40.0);
    }

    #[test]
    fn partition_delta_render_matches_full_rebuild() {
        let t = topo();
        let mut m = manager();
        let mut view = m.placement_view(&t, 20.0);

        // Mutate two partitions, delta-render only those rows.
        m.apply(&t, Action::Replicate { partition: p(0), target: s(3) }).unwrap();
        m.apply(&t, Action::Migrate { partition: p(1), from: s(2), to: s(1) }).unwrap();
        m.render_partition(&t, 20.0, p(0), &mut view);
        m.render_partition(&t, 20.0, p(1), &mut view);
        assert_eq!(view, m.placement_view(&t, 20.0));
        assert_eq!(view.holder(p(1)), s(1), "migration re-points the holder");
    }
}
