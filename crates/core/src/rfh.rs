//! The RFH decision agent — the paper's Fig. 2 decision tree.
//!
//! Per partition, per epoch:
//!
//! 1. **Availability floor** (eq. 14): below `r_min` replicas, the
//!    holder "will replicate to its most forwarding nodes, even if all
//!    the nodes are not overloaded".
//! 2. **Overload + hubs** (eqs. 12–13): when the holder's smoothed
//!    traffic exceeds `β·q̄` it waits for replication requests; every
//!    forwarding datacenter whose traffic exceeds `γ·q̄` is a traffic
//!    hub and sends one. The holder "will choose a node among the 3
//!    nodes with the largest amount of traffic". If the partition has a
//!    replica parked *outside* those three and the migration benefit
//!    (eq. 16) clears `μ·t̄r`, the replica migrates; otherwise a new
//!    replica is created on the chosen hub.
//!    If the holder is overloaded and *no* forwarding hub qualifies
//!    (demand is local), load is relieved inside the holder's own
//!    datacenter — the effect §III-C observes ("some replicas are placed
//!    on the same datacenter of the primary partition holders, but in
//!    different servers").
//! 3. **Suicide** (eq. 15): a non-primary replica whose datacenter
//!    traffic dropped to `δ·q̄` or below removes itself, provided the
//!    availability floor survives it.
//!
//! Inside the chosen datacenter, the concrete server is the one with the
//! lowest Erlang-B blocking probability (eq. 18) among those under the
//! storage cap `φ` (eq. 19).
//!
//! ## Two agents, one decision core
//!
//! The decision tree itself is implemented once, in
//! [`RfhDecisionCore`], over the [`TrafficView`] abstraction — "what the
//! holder knows about each datacenter's traffic and spare capacity".
//! [`RfhPolicy`] feeds it the omniscient simulator view (the smoothed
//! traffic grids); `rfh-net`'s `DistributedRfhPolicy` feeds it a view
//! assembled purely from node-local state plus *received protocol
//! messages*, which is how the paper's §II-B actually disseminates the
//! information. With a control plane that delivers within the epoch the
//! two produce identical decisions (asserted by integration tests).

use crate::manager::ReplicaManager;
use crate::policy::{Action, EpochContext, ReplicationPolicy};
use crate::selection::{accepting_servers_in_dc, least_blocked_in_dc, most_spread_in_dc};
use crate::thresholds::{
    holder_overloaded, is_traffic_hub, migration_beneficial, suicide_candidate,
};
use rfh_obs::{BufferedRecorder, DecisionEvent, DecisionKind, Recorder, Trigger};
use rfh_pool::{shard_bounds, WorkerPool};
use rfh_stats::min_replica_count;
use rfh_topology::Topology;
use rfh_traffic::PlacementView;
use rfh_types::{DatacenterId, Epoch, PartitionId, ServerId, Thresholds};
use std::sync::Arc;

/// Consecutive suicide-candidate epochs required before a replica dies.
pub const SUICIDE_PATIENCE: u32 = 4;

/// Epochs a partition waits between migrations.
pub const MIGRATION_COOLDOWN: u64 = 10;

/// Raw unserved queries/epoch above which a partition's demand counts as
/// outstripping its replica capacity. Scale-free eq. 12 alone triggers on
/// any partition with nonzero demand (the holder always sees at least the
/// whole demand ≥ β·q̄ = β·demand/N when under-replicated); requiring
/// actual unserved residual keeps cold partitions from churning
/// replicate/suicide cycles.
pub const UNSERVED_FLOOR: f64 = 1.0;

/// What the decision core may know about the world: per-datacenter
/// traffic state for each partition plus, for each datacenter, the best
/// server currently able to accept a replica.
///
/// The centralized implementation reads the simulator's smoothed grids;
/// the distributed one (in `rfh-net`) reads a table assembled from
/// received traffic reports. Quantities mirror eqs. (9)–(11).
pub trait TrafficView {
    /// Number of datacenters.
    fn datacenters(&self) -> u32;
    /// Smoothed system query average `q̄_it` (eq. 10).
    fn q_avg(&self, p: PartitionId) -> f64;
    /// Smoothed arrival traffic of a datacenter for a partition (eq. 11).
    fn traffic(&self, dc: DatacenterId, p: PartitionId) -> f64;
    /// Smoothed *forwarding* traffic (residual passed onward).
    fn outflow(&self, dc: DatacenterId, p: PartitionId) -> f64;
    /// Unserved residual demand for the partition this epoch (observed
    /// at the holder: these are the queries that reached it unserved).
    fn unserved(&self, p: PartitionId) -> f64;
    /// Best server in `dc` able to accept a replica of `p` right now
    /// (lowest blocking probability under the storage cap), if any.
    fn candidate(&self, p: PartitionId, dc: DatacenterId) -> Option<ServerId>;

    /// Bootstrap placement for a partition nobody queries: the holder
    /// probes its WAN *neighbours* (its routing table knows them,
    /// §II-B; one hop, sub-epoch) for the closest datacenter that can
    /// take a copy — geographic diversity for the availability floor —
    /// falling back to its own datacenter, then giving up.
    fn bootstrap_candidate(&self, p: PartitionId, holder_dc: DatacenterId) -> Option<ServerId>;

    /// Erlang-B blocking probability (eq. 18) at a server, for trace
    /// events. NaN when the view has no blocking information (e.g. a
    /// distributed view for a datacenter that sent no report).
    fn blocking_of(&self, _s: ServerId) -> f64 {
        f64::NAN
    }

    /// Failure-domain pressure of placing another copy of `p` in `dc`:
    /// how many replicas the partition already keeps there. The
    /// domain-spread placement variant orders candidate datacenters by
    /// this *before* traffic, so correlated-outage blast radius shrinks;
    /// the default (always 0) leaves the paper's traffic-only ordering
    /// untouched bit-for-bit.
    fn spread_penalty(&self, _p: PartitionId, _dc: DatacenterId) -> u32 {
        0
    }

    /// `t̄r_i` of eq. (17): mean arrival traffic over all datacenters.
    fn mean_traffic(&self, p: PartitionId) -> f64 {
        let n = self.datacenters();
        if n == 0 {
            return 0.0;
        }
        (0..n).map(|dc| self.traffic(DatacenterId::new(dc), p)).sum::<f64>() / n as f64
    }
}

/// The shared decision tree state-machine: grace periods, idle streaks,
/// migration cooldowns, and the Fig. 2 logic itself — parameterized over
/// a [`TrafficView`].
#[derive(Debug, Clone, Default)]
pub struct RfhDecisionCore {
    grace_epochs: u64,
    /// `(partition, server) → creation epoch` for grace tracking.
    born: std::collections::HashMap<(u32, u32), u64>,
    /// Per-partition migration cooldown (see [`MIGRATION_COOLDOWN`]).
    last_migration: std::collections::HashMap<u32, u64>,
    /// Consecutive epochs each replica has satisfied eq. 15 (see
    /// [`SUICIDE_PATIENCE`]).
    idle_streak: std::collections::HashMap<(u32, u32), u32>,
}

impl RfhDecisionCore {
    /// Core with the given suicide grace period.
    pub fn new(grace_epochs: u64) -> Self {
        RfhDecisionCore {
            grace_epochs,
            born: std::collections::HashMap::new(),
            last_migration: std::collections::HashMap::new(),
            idle_streak: std::collections::HashMap::new(),
        }
    }

    fn in_grace(&self, epoch: Epoch, p: PartitionId, s: ServerId) -> bool {
        self.born.get(&(p.0, s.0)).is_some_and(|&b| epoch.raw() < b + self.grace_epochs)
    }

    fn note_birth(&mut self, epoch: Epoch, actions: &[Action]) {
        for a in actions {
            match *a {
                Action::Replicate { partition, target } => {
                    self.born.insert((partition.0, target.0), epoch.raw());
                    self.idle_streak.remove(&(partition.0, target.0));
                }
                Action::Migrate { partition, from, to } => {
                    self.born.remove(&(partition.0, from.0));
                    self.born.insert((partition.0, to.0), epoch.raw());
                    self.idle_streak.remove(&(partition.0, from.0));
                    self.idle_streak.remove(&(partition.0, to.0));
                }
                Action::Suicide { partition, server } => {
                    self.born.remove(&(partition.0, server.0));
                    self.idle_streak.remove(&(partition.0, server.0));
                }
            }
        }
    }

    /// Traffic hubs for `p`: forwarding datacenters (holder's excluded)
    /// whose forwarding traffic clears the `γ·q̄` bar of eq. 13;
    /// descending, top 3.
    fn top_hubs(
        view: &dyn TrafficView,
        t: &Thresholds,
        p: PartitionId,
        holder_dc: DatacenterId,
        q_avg: f64,
    ) -> Vec<(DatacenterId, f64)> {
        let mut hubs: Vec<(DatacenterId, f64)> = (0..view.datacenters())
            .map(DatacenterId::new)
            .filter(|&dc| dc != holder_dc)
            .map(|dc| (dc, view.outflow(dc, p)))
            .filter(|&(_, tr)| is_traffic_hub(t, tr, q_avg))
            .collect();
        hubs.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0 .0.cmp(&b.0 .0))
        });
        hubs.truncate(3);
        hubs
    }

    /// Availability-floor placement: the datacenter carrying the most
    /// (arrival) traffic for `p` that can take a copy — ordered first by
    /// [`TrafficView::spread_penalty`] (a constant 0 outside the
    /// domain-spread variant, so the paper's traffic ordering is
    /// untouched by default). Without any traffic information the holder
    /// falls back to a neighbour probe
    /// ([`TrafficView::bootstrap_candidate`]) so even a never-queried
    /// partition gets a geographically diverse second copy.
    fn most_forwarding_target(
        view: &dyn TrafficView,
        p: PartitionId,
        holder_dc: DatacenterId,
    ) -> Option<ServerId> {
        let mut dcs: Vec<(DatacenterId, u32, f64)> = (0..view.datacenters())
            .map(DatacenterId::new)
            .map(|dc| (dc, view.spread_penalty(p, dc), view.traffic(dc, p)))
            .filter(|&(_, _, tr)| tr > 0.0)
            .collect();
        dcs.sort_by(|a, b| {
            a.1.cmp(&b.1)
                .then_with(|| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| a.0 .0.cmp(&b.0 .0))
        });
        dcs.into_iter()
            .find_map(|(dc, _, _)| view.candidate(p, dc))
            .or_else(|| view.bootstrap_candidate(p, holder_dc))
    }

    /// Run the decision tree for every partition, serially.
    ///
    /// `snapshot` is the frozen per-epoch placement view decisions are
    /// evaluated against; `manager` supplies the replica sets it was
    /// rendered from (read-only until the caller applies the returned
    /// actions). Each emitted action is mirrored to `recorder` as a
    /// [`DecisionEvent`] carrying the model inputs that fired, labelled
    /// `policy` — observation-only, so the decisions are identical
    /// under any recorder.
    #[allow(clippy::too_many_arguments)]
    pub fn decide_all(
        &mut self,
        epoch: Epoch,
        t: &Thresholds,
        r_min: usize,
        topo: &Topology,
        manager: &ReplicaManager,
        snapshot: &PlacementView,
        view: &dyn TrafficView,
        recorder: &dyn Recorder,
        policy: &'static str,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        for p_idx in 0..manager.partitions() {
            let p = PartitionId::new(p_idx);
            let d = self.decide_partition(
                epoch, t, r_min, topo, manager, snapshot, view, recorder, policy, p,
            );
            self.absorb(epoch, p, d, &mut actions);
        }
        self.note_birth(epoch, &actions);
        actions
    }

    /// [`decide_all`](Self::decide_all) with the per-partition
    /// evaluation fanned out over `pool`.
    ///
    /// Partitions are split into contiguous shards (one per worker).
    /// Workers evaluate their partitions read-only against the frozen
    /// `snapshot` and record trace events into per-shard
    /// [`BufferedRecorder`]s; the coordinator then walks shards — hence
    /// partitions — in ascending order, forwarding events to the real
    /// recorder and absorbing each partition's state updates, exactly
    /// as the serial loop would have. Actions, decision-core state, and
    /// the recorder's event sequence are therefore bit-identical to
    /// [`decide_all`](Self::decide_all) for any pool size.
    #[allow(clippy::too_many_arguments)]
    pub fn decide_all_pooled(
        &mut self,
        epoch: Epoch,
        t: &Thresholds,
        r_min: usize,
        topo: &Topology,
        manager: &ReplicaManager,
        snapshot: &PlacementView,
        view: &(dyn TrafficView + Sync),
        recorder: &dyn Recorder,
        policy: &'static str,
        pool: &WorkerPool,
    ) -> Vec<Action> {
        let n = manager.partitions() as usize;
        if pool.size() <= 1 || n <= 1 {
            return self
                .decide_all(epoch, t, r_min, topo, manager, snapshot, view, recorder, policy);
        }
        let traced = recorder.enabled();
        let n_shards = pool.size().min(n);
        struct ShardOut {
            lo: u32,
            hi: u32,
            events: BufferedRecorder,
            decisions: Vec<PartitionDecision>,
        }
        let mut outs: Vec<ShardOut> = (0..n_shards)
            .map(|k| {
                let (lo, hi) = shard_bounds(n, n_shards, k);
                ShardOut {
                    lo: lo as u32,
                    hi: hi as u32,
                    events: BufferedRecorder::new(traced),
                    decisions: Vec::with_capacity(hi - lo),
                }
            })
            .collect();
        {
            let core: &RfhDecisionCore = self;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = outs
                .iter_mut()
                .map(|out| {
                    Box::new(move || {
                        for p_idx in out.lo..out.hi {
                            let d = core.decide_partition(
                                epoch,
                                t,
                                r_min,
                                topo,
                                manager,
                                snapshot,
                                view as &dyn TrafficView,
                                &out.events,
                                policy,
                                PartitionId::new(p_idx),
                            );
                            out.decisions.push(d);
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(jobs);
        }
        let mut actions = Vec::new();
        for out in outs {
            for event in out.events.drain() {
                recorder.decision(event);
            }
            for (i, d) in out.decisions.into_iter().enumerate() {
                self.absorb(epoch, PartitionId::new(out.lo + i as u32), d, &mut actions);
            }
        }
        self.note_birth(epoch, &actions);
        actions
    }

    /// Run the decision tree for the partitions in `active` only
    /// (sorted ascending), serially.
    ///
    /// The sparse-engine counterpart of [`decide_all`](Self::decide_all):
    /// partitions outside `active` are frozen — the caller vouches (via
    /// [`ReplicationPolicy::keeps_live`]) that evaluating them would
    /// change nothing. Because evaluation and absorption walk `active`
    /// ascending, actions, state updates and trace events for the
    /// active partitions are byte-identical to the dense sweep's.
    #[allow(clippy::too_many_arguments)]
    pub fn decide_set(
        &mut self,
        epoch: Epoch,
        t: &Thresholds,
        r_min: usize,
        topo: &Topology,
        manager: &ReplicaManager,
        snapshot: &PlacementView,
        view: &dyn TrafficView,
        recorder: &dyn Recorder,
        policy: &'static str,
        active: &[u32],
    ) -> Vec<Action> {
        debug_assert!(active.windows(2).all(|w| w[0] < w[1]), "active set must be sorted");
        let mut actions = Vec::new();
        for &p_idx in active {
            let p = PartitionId::new(p_idx);
            let d = self.decide_partition(
                epoch, t, r_min, topo, manager, snapshot, view, recorder, policy, p,
            );
            self.absorb(epoch, p, d, &mut actions);
        }
        self.note_birth(epoch, &actions);
        actions
    }

    /// [`decide_set`](Self::decide_set) with the per-partition
    /// evaluation fanned out over `pool`, sharding the *active list*
    /// (not the partition space). Bit-identical to the serial sparse
    /// pass for any pool size, by the same snapshot/absorb argument as
    /// [`decide_all_pooled`](Self::decide_all_pooled).
    #[allow(clippy::too_many_arguments)]
    pub fn decide_set_pooled(
        &mut self,
        epoch: Epoch,
        t: &Thresholds,
        r_min: usize,
        topo: &Topology,
        manager: &ReplicaManager,
        snapshot: &PlacementView,
        view: &(dyn TrafficView + Sync),
        recorder: &dyn Recorder,
        policy: &'static str,
        active: &[u32],
        pool: &WorkerPool,
    ) -> Vec<Action> {
        let n = active.len();
        if pool.size() <= 1 || n <= 1 {
            return self.decide_set(
                epoch, t, r_min, topo, manager, snapshot, view, recorder, policy, active,
            );
        }
        let traced = recorder.enabled();
        let n_shards = pool.size().min(n);
        struct ShardOut {
            /// Positions into `active` this shard covers.
            lo: usize,
            hi: usize,
            events: BufferedRecorder,
            decisions: Vec<PartitionDecision>,
        }
        let mut outs: Vec<ShardOut> = (0..n_shards)
            .map(|k| {
                let (lo, hi) = shard_bounds(n, n_shards, k);
                ShardOut {
                    lo,
                    hi,
                    events: BufferedRecorder::new(traced),
                    decisions: Vec::with_capacity(hi - lo),
                }
            })
            .collect();
        {
            let core: &RfhDecisionCore = self;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = outs
                .iter_mut()
                .map(|out| {
                    Box::new(move || {
                        for &pu in &active[out.lo..out.hi] {
                            let d = core.decide_partition(
                                epoch,
                                t,
                                r_min,
                                topo,
                                manager,
                                snapshot,
                                view as &dyn TrafficView,
                                &out.events,
                                policy,
                                PartitionId::new(pu),
                            );
                            out.decisions.push(d);
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(jobs);
        }
        let mut actions = Vec::new();
        for out in outs {
            for event in out.events.drain() {
                recorder.decision(event);
            }
            for (i, d) in out.decisions.into_iter().enumerate() {
                self.absorb(epoch, PartitionId::new(active[out.lo + i]), d, &mut actions);
            }
        }
        self.note_birth(epoch, &actions);
        actions
    }

    /// Whether any non-primary replica of `p` still has an idle streak
    /// below the [`SUICIDE_PATIENCE`] bar (or none at all) — i.e. the
    /// suicide state-machine for `p` has not yet saturated.
    fn any_streak_unsaturated(
        &self,
        manager: &ReplicaManager,
        holder: ServerId,
        p: PartitionId,
    ) -> bool {
        manager.replicas(p).iter().any(|&s| {
            s != holder
                && self.idle_streak.get(&(p.0, s.0)).copied().unwrap_or(0) < SUICIDE_PATIENCE
        })
    }

    /// Evaluate the decision tree for one partition, read-only.
    ///
    /// All state `decide_all` historically mutated mid-loop is keyed by
    /// partition (idle streaks by `(partition, server)`, the migration
    /// cooldown by partition), so evaluating partitions against `&self`
    /// and absorbing the returned updates afterwards — in partition
    /// order — reproduces the serial loop exactly. That is the property
    /// the parallel pass rests on.
    #[allow(clippy::too_many_arguments)]
    fn decide_partition(
        &self,
        epoch: Epoch,
        t: &Thresholds,
        r_min: usize,
        topo: &Topology,
        manager: &ReplicaManager,
        snapshot: &PlacementView,
        view: &dyn TrafficView,
        recorder: &dyn Recorder,
        policy: &'static str,
        p: PartitionId,
    ) -> PartitionDecision {
        let replica_dc = |s: ServerId| topo.servers()[s.index()].datacenter;
        let traced = recorder.enabled();
        let holder = snapshot.holder(p);
        let holder_dc = replica_dc(holder);
        let q_avg = view.q_avg(p);
        let mut d = PartitionDecision::default();

        // Update idle streaks for every non-primary replica (eq. 15
        // sampled per epoch; suicide waits for a sustained streak).
        for &s in manager.replicas(p) {
            if s == holder {
                continue;
            }
            let tr = view.traffic(replica_dc(s), p);
            let key = (p.0, s.0);
            if suicide_candidate(t, tr, q_avg) {
                // Saturate at the patience bar: the suicide gate only
                // asks `streak >= SUICIDE_PATIENCE`, and a capped streak
                // makes re-evaluating a long-idle partition idempotent —
                // the invariant the sparse engine's freeze rests on.
                let next =
                    (self.idle_streak.get(&key).copied().unwrap_or(0) + 1).min(SUICIDE_PATIENCE);
                d.streaks.push((key, Some(next)));
            } else {
                d.streaks.push((key, None));
            }
        }

        // ── 1. Availability floor ─────────────────────────────────
        if manager.replica_count(p) < r_min {
            if let Some(target) = Self::most_forwarding_target(view, p, holder_dc) {
                if traced {
                    recorder.decision(DecisionEvent {
                        target: Some(target.0),
                        // eq. 14: the count/floor comparison fired.
                        traffic: manager.replica_count(p) as f64,
                        threshold: r_min as f64,
                        q_avg,
                        blocking: view.blocking_of(target),
                        unserved: view.unserved(p),
                        ..DecisionEvent::new(
                            epoch.raw(),
                            policy,
                            DecisionKind::Replicate,
                            p.0,
                            Trigger::AvailabilityFloor,
                        )
                    });
                }
                d.action = Some(Action::Replicate { partition: p, target });
            }
            return d; // one structural action per partition per epoch
        }

        // ── 2. Overload relief via traffic hubs ───────────────────
        // eq. 12 alone is scale-free (the holder of any queried,
        // under-replicated partition trivially exceeds β·q̄ = β/N of
        // its own demand), so relief also requires real unserved
        // residual — replication exists to absorb demand the current
        // replica set cannot.
        let holder_tr = view.traffic(holder_dc, p);
        if holder_overloaded(t, holder_tr, q_avg) && view.unserved(p) > UNSERVED_FLOOR {
            let hubs = Self::top_hubs(view, t, p, holder_dc, q_avg);
            // The hottest hub that can still take a copy (a hub DC
            // scales out over its servers as demand grows).
            let chosen = hubs
                .iter()
                .copied()
                .find_map(|(dc, tr)| view.candidate(p, dc).map(|srv| (dc, tr, srv)));
            if let Some((hub_dc, hub_tr, target)) = chosen {
                // Migration beats replication only for a hub gaining
                // its *first* replica (the paper's "if there's any
                // replica of it is not at these three nodes"): an
                // idle replica parked outside the hubs moves in if
                // the benefit clears μ·t̄r and the partition is off
                // migration cooldown.
                let hub_is_fresh = !manager.replicas(p).iter().any(|&s| replica_dc(s) == hub_dc);
                let off_cooldown = self
                    .last_migration
                    .get(&p.0)
                    .is_none_or(|&e| epoch.raw() >= e + MIGRATION_COOLDOWN);
                let mean_tr = view.mean_traffic(p);
                let victim = (hub_is_fresh && off_cooldown)
                    .then(|| {
                        manager
                            .replicas(p)
                            .iter()
                            .copied()
                            .filter(|&s| s != holder)
                            .filter(|&s| !self.in_grace(epoch, p, s))
                            .filter(|&s| {
                                let dc = replica_dc(s);
                                dc != hub_dc && !hubs.iter().any(|&(h, _)| h == dc)
                            })
                            .map(|s| (s, view.traffic(replica_dc(s), p)))
                            .filter(|&(_, tr)| migration_beneficial(t, hub_tr, tr, mean_tr))
                            .min_by(|a, b| {
                                a.1.partial_cmp(&b.1)
                                    .unwrap_or(std::cmp::Ordering::Equal)
                                    .then_with(|| a.0.cmp(&b.0))
                            })
                    })
                    .flatten();
                match victim {
                    Some((from, from_tr)) => {
                        if traced {
                            recorder.decision(DecisionEvent {
                                source: Some(from.0),
                                target: Some(target.0),
                                // eq. 16: benefit tr_to − tr_from vs μ·t̄r.
                                traffic: hub_tr - from_tr,
                                threshold: t.mu * mean_tr,
                                q_avg,
                                blocking: view.blocking_of(target),
                                unserved: view.unserved(p),
                                ..DecisionEvent::new(
                                    epoch.raw(),
                                    policy,
                                    DecisionKind::Migrate,
                                    p.0,
                                    Trigger::MigrationBenefit,
                                )
                            });
                        }
                        d.migrated = true;
                        d.action = Some(Action::Migrate { partition: p, from, to: target });
                    }
                    None => {
                        if traced {
                            recorder.decision(DecisionEvent {
                                target: Some(target.0),
                                // eq. 13: the hub's traffic vs γ·q̄.
                                traffic: hub_tr,
                                threshold: t.gamma * q_avg,
                                q_avg,
                                blocking: view.blocking_of(target),
                                unserved: view.unserved(p),
                                ..DecisionEvent::new(
                                    epoch.raw(),
                                    policy,
                                    DecisionKind::Replicate,
                                    p.0,
                                    Trigger::TrafficHub,
                                )
                            });
                        }
                        d.action = Some(Action::Replicate { partition: p, target });
                    }
                }
            } else if hubs.is_empty() {
                // Local surge: relieve inside the holder's own DC.
                if let Some(target) = view.candidate(p, holder_dc) {
                    if traced {
                        recorder.decision(DecisionEvent {
                            target: Some(target.0),
                            // eq. 12: the holder's own traffic vs β·q̄.
                            traffic: holder_tr,
                            threshold: t.beta * q_avg,
                            q_avg,
                            blocking: view.blocking_of(target),
                            unserved: view.unserved(p),
                            ..DecisionEvent::new(
                                epoch.raw(),
                                policy,
                                DecisionKind::Replicate,
                                p.0,
                                Trigger::LocalOverload,
                            )
                        });
                    }
                    d.action = Some(Action::Replicate { partition: p, target });
                }
            }
            return d;
        }

        // ── 3. Suicide ────────────────────────────────────────────
        // Degraded mode under WAN partitions: a replica whose
        // datacenter cannot route to the holder sees zero traffic
        // *because of the fault*, not because demand died — it may
        // be the only copy serving its island. Isolated replicas
        // are never suicided, and only reachable copies count
        // toward the floor here, so a partition-split replica set
        // also stops shrinking. On a healthy backbone every
        // replica is reachable and this is exactly eq. 15.
        let reachable = |s: ServerId| topo.graph().latency_ms(holder_dc, replica_dc(s)).is_some();
        let reachable_count = manager.replicas(p).iter().filter(|&&s| reachable(s)).count();
        if reachable_count > r_min {
            // This epoch's streak values: the updates computed above,
            // not yet absorbed into the map (the serial loop updated
            // the map just before reading it — same values).
            let streak_of = |s: ServerId| {
                d.streaks.iter().find(|(k, _)| *k == (p.0, s.0)).and_then(|(_, v)| *v)
            };
            let doomed = manager
                .replicas(p)
                .iter()
                .copied()
                .filter(|&s| s != holder)
                .filter(|&s| reachable(s))
                .filter(|&s| !self.in_grace(epoch, p, s))
                .filter(|&s| streak_of(s).is_some_and(|n| n >= SUICIDE_PATIENCE))
                .map(|s| (s, view.traffic(replica_dc(s), p)))
                .min_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.0.cmp(&b.0))
                });
            if let Some((server, tr)) = doomed {
                if traced {
                    recorder.decision(DecisionEvent {
                        source: Some(server.0),
                        // eq. 15: the replica's traffic vs δ·q̄.
                        traffic: tr,
                        threshold: t.delta * q_avg,
                        q_avg,
                        unserved: view.unserved(p),
                        ..DecisionEvent::new(
                            epoch.raw(),
                            policy,
                            DecisionKind::Suicide,
                            p.0,
                            Trigger::IdleSuicide,
                        )
                    });
                }
                d.action = Some(Action::Suicide { partition: p, server });
            }
        }
        d
    }

    /// Fold one partition's evaluation back into the core's state, in
    /// partition order — the serial half of the snapshot/apply split.
    fn absorb(
        &mut self,
        epoch: Epoch,
        p: PartitionId,
        d: PartitionDecision,
        actions: &mut Vec<Action>,
    ) {
        for (key, streak) in d.streaks {
            match streak {
                Some(n) => {
                    self.idle_streak.insert(key, n);
                }
                None => {
                    self.idle_streak.remove(&key);
                }
            }
        }
        if d.migrated {
            self.last_migration.insert(p.0, epoch.raw());
        }
        if let Some(action) = d.action {
            actions.push(action);
        }
    }
}

/// Everything evaluating one partition wants to change: applied by
/// [`RfhDecisionCore::absorb`] on the coordinating thread, in partition
/// order.
#[derive(Debug, Default)]
struct PartitionDecision {
    /// `(partition, server) →` new idle-streak value (`None`: the
    /// streak broke and the entry is removed).
    streaks: Vec<((u32, u32), Option<u32>)>,
    /// At most one structural action per partition per epoch.
    action: Option<Action>,
    /// The action is a migration: stamp the cooldown on absorb.
    migrated: bool,
}

/// The neighbour-probe bootstrap placement both agents use for
/// never-queried partitions: the holder's WAN neighbours sorted by link
/// latency (closest first — "a different datacenter close to the
/// primary partition owner", §II-A), then the holder's own datacenter.
pub fn bootstrap_candidate_near(
    topo: &Topology,
    manager: &ReplicaManager,
    blocking: &[f64],
    use_blocking: bool,
    p: PartitionId,
    holder_dc: DatacenterId,
) -> Option<ServerId> {
    let mut neighbours: Vec<(DatacenterId, f64)> = topo.graph().neighbours(holder_dc).collect();
    neighbours.sort_by(|a, b| {
        a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0 .0.cmp(&b.0 .0))
    });
    neighbours
        .into_iter()
        .find_map(|(dc, _)| best_candidate_in_dc(topo, manager, blocking, use_blocking, p, dc))
        .or_else(|| best_candidate_in_dc(topo, manager, blocking, use_blocking, p, holder_dc))
}

/// The best accepting server in a datacenter under the blocking-choice
/// rule — shared by the centralized view and the reporter side of the
/// distributed protocol so both evaluate candidates identically.
pub fn best_candidate_in_dc(
    topo: &Topology,
    manager: &ReplicaManager,
    blocking: &[f64],
    use_blocking: bool,
    p: PartitionId,
    dc: DatacenterId,
) -> Option<ServerId> {
    if use_blocking {
        least_blocked_in_dc(topo, manager, p, dc, blocking)
    } else {
        accepting_servers_in_dc(topo, manager, p, dc).into_iter().next()
    }
}

/// How the RFH agent picks the concrete server once the decision tree
/// settles on (or ranks) datacenters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementMode {
    /// The paper's rule: candidate datacenters ordered by traffic, the
    /// least-blocked accepting server within (eq. 18).
    #[default]
    Traffic,
    /// Failure-domain-aware placement: candidate datacenters are
    /// ordered by replica spread before traffic
    /// ([`TrafficView::spread_penalty`]), and within a datacenter the
    /// server is chosen to occupy a fresh room, then a fresh rack,
    /// before blocking probability breaks ties — so a correlated
    /// rack/room/datacenter outage kills as few copies as possible.
    /// Hub *selection* (eq. 13) stays traffic-driven: spread shapes
    /// where copies land, not which demand they chase.
    DomainSpread,
}

/// The omniscient [`TrafficView`]: reads the simulator's smoothed grids
/// directly.
struct CentralizedView<'a> {
    ctx: &'a EpochContext<'a>,
    manager: &'a ReplicaManager,
    use_blocking: bool,
    placement: PlacementMode,
}

impl TrafficView for CentralizedView<'_> {
    fn datacenters(&self) -> u32 {
        self.ctx.topo.datacenters().len() as u32
    }
    fn q_avg(&self, p: PartitionId) -> f64 {
        self.ctx.smoother.q_avg(p)
    }
    fn traffic(&self, dc: DatacenterId, p: PartitionId) -> f64 {
        self.ctx.smoother.traffic(dc, p)
    }
    fn outflow(&self, dc: DatacenterId, p: PartitionId) -> f64 {
        self.ctx.smoother.outflow(dc, p)
    }
    fn unserved(&self, p: PartitionId) -> f64 {
        self.ctx.accounts.unserved[p.index()]
    }
    fn candidate(&self, p: PartitionId, dc: DatacenterId) -> Option<ServerId> {
        match self.placement {
            PlacementMode::Traffic => best_candidate_in_dc(
                self.ctx.topo,
                self.manager,
                self.ctx.blocking,
                self.use_blocking,
                p,
                dc,
            ),
            PlacementMode::DomainSpread => {
                most_spread_in_dc(self.ctx.topo, self.manager, p, dc, self.ctx.blocking)
            }
        }
    }
    fn bootstrap_candidate(&self, p: PartitionId, holder_dc: DatacenterId) -> Option<ServerId> {
        match self.placement {
            PlacementMode::Traffic => bootstrap_candidate_near(
                self.ctx.topo,
                self.manager,
                self.ctx.blocking,
                self.use_blocking,
                p,
                holder_dc,
            ),
            PlacementMode::DomainSpread => {
                // Same neighbour-probe order as the stock bootstrap;
                // only the in-datacenter server choice is spread-aware.
                let mut neighbours: Vec<(DatacenterId, f64)> =
                    self.ctx.topo.graph().neighbours(holder_dc).collect();
                neighbours.sort_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.0 .0.cmp(&b.0 .0))
                });
                neighbours
                    .into_iter()
                    .find_map(|(dc, _)| {
                        most_spread_in_dc(self.ctx.topo, self.manager, p, dc, self.ctx.blocking)
                    })
                    .or_else(|| {
                        most_spread_in_dc(
                            self.ctx.topo,
                            self.manager,
                            p,
                            holder_dc,
                            self.ctx.blocking,
                        )
                    })
            }
        }
    }
    fn blocking_of(&self, s: ServerId) -> f64 {
        self.ctx.blocking.get(s.index()).copied().unwrap_or(f64::NAN)
    }
    fn spread_penalty(&self, p: PartitionId, dc: DatacenterId) -> u32 {
        match self.placement {
            PlacementMode::Traffic => 0,
            PlacementMode::DomainSpread => self
                .manager
                .replicas(p)
                .iter()
                .filter(|&&s| self.ctx.topo.servers()[s.index()].datacenter == dc)
                .count() as u32,
        }
    }
}

/// The RFH decision agent over the centralized (simulator) view.
#[derive(Debug, Clone, Default)]
pub struct RfhPolicy {
    core: RfhDecisionCore,
    /// Whether the Erlang-B blocking probability (eq. 18) drives the
    /// in-datacenter server choice. Disabled by the `ablation_blocking`
    /// study, which falls back to the lowest-id accepting server.
    use_blocking: bool,
    /// Worker pool for the parallel decision pass; `None` (or a
    /// single-worker pool) keeps the pass on the calling thread.
    pool: Option<Arc<WorkerPool>>,
    /// Server-selection variant; [`PlacementMode::Traffic`] is the
    /// paper's RFH.
    placement: PlacementMode,
}

impl RfhPolicy {
    /// Create the agent with the default suicide grace of 5 epochs.
    pub fn new() -> Self {
        Self::with_grace(5)
    }

    /// Override the suicide grace period (0 disables it) — exposed for
    /// the ablation benchmarks.
    pub fn with_grace(grace_epochs: u64) -> Self {
        RfhPolicy {
            core: RfhDecisionCore::new(grace_epochs),
            use_blocking: true,
            pool: None,
            placement: PlacementMode::default(),
        }
    }

    /// Select the placement variant. [`PlacementMode::DomainSpread`]
    /// turns this agent into the "Spread" policy: the same Fig. 2
    /// decision tree, with candidate targets scored by failure-domain
    /// spread before traffic.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementMode) -> Self {
        self.placement = placement;
        self
    }

    /// Set the placement variant in place.
    pub fn set_placement(&mut self, placement: PlacementMode) {
        self.placement = placement;
    }

    /// The trace/report label for the current placement variant.
    fn label(&self) -> &'static str {
        match self.placement {
            PlacementMode::Traffic => "RFH",
            PlacementMode::DomainSpread => "Spread",
        }
    }

    /// Fan the per-partition evaluation out over `pool` — decisions are
    /// bit-identical to the serial pass for any pool size.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attach (or detach) the decision-pass worker pool in place.
    pub fn set_pool(&mut self, pool: Option<Arc<WorkerPool>>) {
        self.pool = pool;
    }

    /// Disable (or re-enable) the blocking-probability server choice —
    /// the `ablation_blocking` knob. With it off, RFH picks the
    /// lowest-id accepting server in the chosen datacenter.
    pub fn set_blocking_choice(&mut self, enabled: bool) {
        self.use_blocking = enabled;
    }
}

impl ReplicationPolicy for RfhPolicy {
    fn name(&self) -> &'static str {
        self.label()
    }

    fn decide(&mut self, ctx: &EpochContext<'_>, manager: &ReplicaManager) -> Vec<Action> {
        let r_min =
            min_replica_count(ctx.config.failure_rate, ctx.config.min_availability) as usize;
        let label = self.label();
        let view = CentralizedView {
            ctx,
            manager,
            use_blocking: self.use_blocking,
            placement: self.placement,
        };
        match (self.pool.as_deref(), ctx.active) {
            (Some(pool), Some(active)) if pool.size() > 1 => self.core.decide_set_pooled(
                ctx.epoch,
                &ctx.config.thresholds,
                r_min,
                ctx.topo,
                manager,
                ctx.view,
                &view,
                ctx.recorder,
                label,
                active,
                pool,
            ),
            (_, Some(active)) => self.core.decide_set(
                ctx.epoch,
                &ctx.config.thresholds,
                r_min,
                ctx.topo,
                manager,
                ctx.view,
                &view,
                ctx.recorder,
                label,
                active,
            ),
            (Some(pool), None) if pool.size() > 1 => self.core.decide_all_pooled(
                ctx.epoch,
                &ctx.config.thresholds,
                r_min,
                ctx.topo,
                manager,
                ctx.view,
                &view,
                ctx.recorder,
                label,
                pool,
            ),
            (_, None) => self.core.decide_all(
                ctx.epoch,
                &ctx.config.thresholds,
                r_min,
                ctx.topo,
                manager,
                ctx.view,
                &view,
                ctx.recorder,
                label,
            ),
        }
    }

    fn keeps_live(
        &self,
        topo: &Topology,
        smoother: &rfh_traffic::TrafficSmoother,
        manager: &ReplicaManager,
        r_min: usize,
        p: PartitionId,
    ) -> bool {
        // Frozen iff: replica count exactly at the floor (no growth
        // trigger, no suicide headroom — eq. 15's scan requires
        // `reachable > r_min`), q̄ decayed to exact zero (the overload
        // gate of eq. 12 needs `q̄ > 0`), every idle streak saturated at
        // [`SUICIDE_PATIENCE`] (re-evaluating is idempotent thanks to
        // the cap), and every non-primary replica's datacenter traffic
        // at exact zero (so eq. 15 candidacy — hence the streak state —
        // cannot change). Under those conditions a dense sweep provably
        // emits no action and mutates nothing, epoch after epoch, until
        // new demand or a fault dirties the partition. Smoother cells
        // may be lazily-stale upper bounds; a stale nonzero keeps the
        // partition live, which is the safe direction.
        if manager.replica_count(p) != r_min {
            return true;
        }
        if smoother.q_avg(p) != 0.0 {
            return true;
        }
        let holder = manager.holder(p);
        if self.core.any_streak_unsaturated(manager, holder, p) {
            return true;
        }
        manager.replicas(p).iter().any(|&s| {
            s != holder && smoother.traffic(topo.servers()[s.index()].datacenter, p) != 0.0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;

    #[test]
    fn availability_floor_replicates_toward_traffic() {
        let h = Harness::paper_small();
        let mut pol = RfhPolicy::new();
        let manager = h.manager.clone();
        // Demand for partition 0 from Asia (DC 8 = I): the forwarding
        // chain I→E→D→A lights up.
        let parts = h.epoch_with_load(&manager, |l| {
            l.add(PartitionId::new(0), DatacenterId::new(8), 40);
        });
        let ctx = parts.ctx(&h);
        let actions = pol.decide(&ctx, &manager);
        // Partition 0 is under r_min → exactly one replicate for it; it
        // must land in a DC that actually carries its traffic.
        let replicate = actions
            .iter()
            .find_map(|a| match *a {
                Action::Replicate { partition, target } if partition.index() == 0 => Some(target),
                _ => None,
            })
            .expect("floor replication for the queried partition");
        let dc = ctx.topo.servers()[replicate.index()].datacenter;
        assert!(
            ctx.smoother.traffic(dc, PartitionId::new(0)) > 0.0,
            "target DC {dc} carries no traffic for the partition"
        );
    }

    #[test]
    fn floor_bootstrap_without_traffic_goes_to_a_close_neighbour() {
        // A partition nobody queries still gets its second replica (the
        // availability floor): the holder probes its WAN neighbours and
        // places the copy in the closest foreign datacenter — level-5
        // availability diversity even before any traffic flows.
        let h = Harness::paper_small();
        let mut pol = RfhPolicy::new();
        let (parts, manager) = h.quiet_epoch();
        let ctx = parts.ctx(&h);
        let actions = pol.decide(&ctx, &manager);
        assert_eq!(actions.len(), manager.partitions() as usize);
        for a in actions {
            let Action::Replicate { partition, target } = a else {
                panic!("expected replicate, got {a:?}");
            };
            let holder_dc = ctx.topo.servers()[manager.holder(partition).index()].datacenter;
            let target_dc = ctx.topo.servers()[target.index()].datacenter;
            assert_ne!(target_dc, holder_dc, "{partition}: diversity required");
            assert!(
                ctx.topo.graph().neighbours(holder_dc).any(|(d, _)| d == target_dc),
                "{partition}: bootstrap must go to a WAN neighbour"
            );
        }
    }

    #[test]
    fn overloaded_holder_replicates_to_top_hub() {
        let h = Harness::paper_small();
        let mut pol = RfhPolicy::new();
        let (mut manager, p) = (h.manager.clone(), PartitionId::new(0));
        // Reach r_min first so the floor step does not mask the hub step.
        let floor_parts = h.epoch_with_load(&manager, |l| {
            l.add(p, DatacenterId::new(8), 60);
        });
        let ctx = floor_parts.ctx(&h);
        for a in pol.decide(&ctx, &manager) {
            manager.apply(&h.topo, a).unwrap();
        }
        assert!(manager.replica_count(p) >= 2);

        // Sustained Asian demand far above total capacity: the holder
        // stays overloaded and the hubs must attract the next replicas.
        let mut placed_dcs: Vec<u32> = Vec::new();
        for _ in 0..6 {
            let parts = h.epoch_with_load(&manager, |l| {
                l.add(p, DatacenterId::new(8), 60);
            });
            let ctx = parts.ctx(&h);
            for a in pol.decide(&ctx, &manager) {
                if let Action::Replicate { partition, target } = a {
                    if partition == p {
                        placed_dcs.push(ctx.topo.servers()[target.index()].datacenter.0);
                    }
                }
                let _ = manager.apply(&h.topo, a);
            }
        }
        assert!(!placed_dcs.is_empty(), "overload must trigger hub replication");
        for dc in placed_dcs {
            assert!(
                ctx_traffic_nonzero(&h, &manager, p, dc),
                "replica placed in a DC with no traffic: {dc}"
            );
        }
    }

    fn ctx_traffic_nonzero(
        h: &Harness,
        manager: &crate::manager::ReplicaManager,
        p: PartitionId,
        dc: u32,
    ) -> bool {
        let parts = h.epoch_with_load(manager, |l| {
            l.add(p, DatacenterId::new(8), 60);
        });
        parts.smoother.traffic(DatacenterId::new(dc), p) > 0.0
            || parts.accounts.dc_traffic(p)[dc as usize] > 0.0
    }

    #[test]
    fn idle_replicas_suicide_but_floor_survives() {
        let h = Harness::paper_small();
        let mut pol = RfhPolicy::with_grace(0);
        let (_, mut manager) = h.epoch_at_r_min();
        let p = PartitionId::new(0);
        // Grow partition 0 beyond the floor.
        for target in [
            h.topo.alive_servers_in(DatacenterId::new(3)).next().unwrap().id,
            h.topo.alive_servers_in(DatacenterId::new(5)).next().unwrap().id,
        ] {
            if manager.can_accept(p, target) {
                manager.apply(&h.topo, Action::Replicate { partition: p, target }).unwrap();
            }
        }
        let start = manager.replica_count(p);
        assert!(start >= 3);
        // Epoch after epoch of zero demand: replicas above the floor
        // suicide (after the idle streak accrues); the floor (2) holds.
        for _ in 0..20 {
            let parts = h.epoch_with_load(&manager, |_| {});
            let ctx = parts.ctx(&h);
            for a in pol.decide(&ctx, &manager) {
                manager.apply(&h.topo, a).unwrap();
            }
        }
        assert_eq!(manager.replica_count(p), 2, "shrinks to r_min, not below");
    }

    #[test]
    fn suicide_waits_for_an_idle_streak() {
        let h = Harness::paper_small();
        let mut pol = RfhPolicy::with_grace(0);
        let (_, mut manager) = h.epoch_at_r_min();
        let p = PartitionId::new(0);
        let target = h.topo.alive_servers_in(DatacenterId::new(3)).next().unwrap().id;
        manager.apply(&h.topo, Action::Replicate { partition: p, target }).unwrap();
        // Fewer quiet epochs than SUICIDE_PATIENCE: nothing dies.
        for _ in 0..(SUICIDE_PATIENCE as usize - 1) {
            let parts = h.epoch_with_load(&manager, |_| {});
            let ctx = parts.ctx(&h);
            let actions = pol.decide(&ctx, &manager);
            assert!(
                actions.iter().all(|a| !matches!(a, Action::Suicide { .. })),
                "suicide before the patience streak: {actions:?}"
            );
        }
        // One more quiet epoch completes the streak.
        let parts = h.epoch_with_load(&manager, |_| {});
        let ctx = parts.ctx(&h);
        let actions = pol.decide(&ctx, &manager);
        assert!(actions.iter().any(|a| matches!(a, Action::Suicide { .. })));
    }

    #[test]
    fn grace_period_protects_fresh_replicas() {
        let h = Harness::paper_small();
        let mut pol = RfhPolicy::with_grace(100);
        let (_, mut manager) = h.epoch_at_r_min();
        let p = PartitionId::new(0);
        // Make the policy itself place a replica (so it records a birth).
        let parts = h.epoch_with_load(&manager, |l| {
            l.add(p, DatacenterId::new(8), 60);
        });
        let ctx = parts.ctx(&h);
        let actions = pol.decide(&ctx, &manager);
        let mut placed = None;
        for a in &actions {
            if let Action::Replicate { partition, target } = *a {
                if partition == p {
                    placed = Some(target);
                }
            }
            let _ = manager.apply(&h.topo, *a);
        }
        let Some(placed) = placed else {
            return; // holder wasn't overloaded enough; nothing to test
        };
        for _ in 0..8 {
            let parts = h.epoch_with_load(&manager, |_| {});
            let ctx = parts.ctx(&h);
            for a in pol.decide(&ctx, &manager) {
                if let Action::Suicide { server, .. } = a {
                    assert_ne!(server, placed, "grace must protect the fresh replica");
                }
                let _ = manager.apply(&h.topo, a);
            }
        }
    }

    #[test]
    fn partition_isolated_replicas_never_suicide() {
        use rfh_types::{DatacenterId, ServerId};
        let mut h = Harness::paper_small();
        let mut pol = RfhPolicy::with_grace(0);
        let mut manager = h.manager.clone();
        let p = PartitionId::new(0);
        let holder_dc = h.topo.servers()[manager.holder(p).index()].datacenter;
        // Two extra replicas: X in a DC we will isolate, Y elsewhere.
        let mut others = (0..10).map(DatacenterId::new).filter(|&d| d != holder_dc).map(|d| d.0);
        let iso_dc = DatacenterId::new(others.next().unwrap());
        let y_dc = DatacenterId::new(others.next().unwrap());
        let pick = |topo: &rfh_topology::Topology, dc: DatacenterId| -> ServerId {
            topo.alive_servers_in(dc).next().unwrap().id
        };
        let x = pick(&h.topo, iso_dc);
        manager.apply(&h.topo, Action::Replicate { partition: p, target: x }).unwrap();
        manager.begin_epoch();
        let y = pick(&h.topo, y_dc);
        manager.apply(&h.topo, Action::Replicate { partition: p, target: y }).unwrap();
        assert_eq!(manager.replica_count(p), 3, "r_min is 2; one spare above the floor");

        // Cut X's datacenter off the WAN. Zero demand everywhere: under
        // eq. 15 alone the spare replica would die once the idle streak
        // accrues — degraded mode must hold the whole set instead,
        // because only two copies are still reachable from the holder.
        let cut = h.topo.isolate_island(&[iso_dc]);
        assert!(!cut.is_empty());
        for _ in 0..12 {
            let parts = h.epoch_with_load(&manager, |_| {});
            let ctx = parts.ctx(&h);
            for a in pol.decide(&ctx, &manager) {
                if let Action::Suicide { partition, .. } = a {
                    assert_ne!(partition, p, "suicide while partition-isolated");
                }
            }
        }
        assert_eq!(manager.replica_count(p), 3);

        // Heal the cut: every copy is reachable again, the spare is
        // fair game and the set shrinks back to the floor.
        for (a, b) in cut {
            h.topo.set_link_state(a, b, true).unwrap();
        }
        for _ in 0..12 {
            manager.begin_epoch();
            let parts = h.epoch_with_load(&manager, |_| {});
            let ctx = parts.ctx(&h);
            for a in pol.decide(&ctx, &manager) {
                if matches!(a, Action::Suicide { partition, .. } if partition == p) {
                    manager.apply(&h.topo, a).unwrap();
                }
            }
        }
        assert_eq!(manager.replica_count(p), 2, "healed WAN resumes eq. 15");
    }

    #[test]
    fn quiet_cluster_at_equilibrium_does_nothing() {
        let h = Harness::paper_small();
        let mut pol = RfhPolicy::new();
        let (parts, manager) = h.epoch_at_r_min();
        let ctx = parts.ctx(&h);
        assert!(pol.decide(&ctx, &manager).is_empty());
    }
}
