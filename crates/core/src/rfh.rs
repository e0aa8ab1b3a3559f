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

use crate::decision_state::DecisionState;
use crate::manager::ReplicaManager;
use crate::policy::{sweep, Action, EpochContext, ReplicationPolicy};
use crate::selection::{accepting_servers_in_dc, least_blocked_in_dc, most_spread_in_dc};
use crate::thresholds::{
    holder_overloaded, is_traffic_hub, migration_beneficial, suicide_candidate,
};
use rfh_obs::{DecisionEvent, DecisionKind, Recorder, Trigger};
use rfh_stats::min_replica_count;
use rfh_topology::Topology;
use rfh_traffic::PlacementView;
use rfh_types::{DatacenterId, Epoch, PartitionId, ServerId, Thresholds};

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

/// Heap bytes of a std `HashMap`: its bucket array (one entry and one
/// control byte per bucket, a power of two at most 8/7 of the capacity)
/// plus a group of trailing control bytes.
fn hash_map_bytes<K, V>(map: &std::collections::HashMap<K, V>) -> usize {
    let buckets = match map.capacity() {
        0 => return 0,
        cap if cap < 8 => (cap + 1).next_power_of_two(),
        cap => (cap * 8 / 7).next_power_of_two(),
    };
    buckets * (std::mem::size_of::<(K, V)>() + 1) + 16
}

/// The shared decision tree state-machine: grace periods, idle streaks,
/// migration cooldowns, and the Fig. 2 logic itself — parameterized over
/// a [`TrafficView`].
#[derive(Debug, Clone, Default)]
pub struct RfhDecisionCore {
    /// Per-replica idle streaks (see [`SUICIDE_PATIENCE`]) and birth
    /// grace, one row per partition.
    state: DecisionState,
    /// Per-partition migration cooldown (see [`MIGRATION_COOLDOWN`]).
    last_migration: std::collections::HashMap<u32, u64>,
}

impl RfhDecisionCore {
    /// Core with the given suicide grace period.
    pub fn new(grace_epochs: u64) -> Self {
        RfhDecisionCore {
            state: DecisionState::new(grace_epochs),
            last_migration: std::collections::HashMap::new(),
        }
    }

    /// Bytes of heap the decision state holds, by allocation capacity.
    pub fn heap_bytes(&self) -> usize {
        self.state.heap_bytes() + hash_map_bytes(&self.last_migration)
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

    /// Run the decision tree for the partitions in `active` (sorted
    /// ascending), or for every partition when `active` is `None`:
    /// evaluate one partition, absorb it, go on to the next.
    ///
    /// `snapshot` is the frozen per-epoch placement view decisions are
    /// evaluated against; `manager` supplies the replica sets it was
    /// rendered from (read-only until the caller applies the returned
    /// actions). Each emitted action is mirrored to `recorder` as a
    /// [`DecisionEvent`] carrying the model inputs that fired, labelled
    /// `policy` — observation-only, so the decisions are identical
    /// under any recorder.
    ///
    /// A partition left out of `active` is frozen — the caller vouches
    /// (via [`ReplicationPolicy::keeps_live`]) that evaluating it would
    /// change nothing. Because evaluation and absorption walk `active`
    /// ascending, actions, state updates and trace events for the
    /// active partitions are byte-identical to the full sweep's.
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
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
        active: Option<&[u32]>,
    ) -> Vec<Action> {
        debug_assert!(
            active.is_none_or(|a| a.windows(2).all(|w| w[0] < w[1])),
            "active set must be sorted"
        );
        self.state.begin_pass(epoch, manager.partitions());
        // One evaluation's streak updates at a time, in one buffer.
        let mut streaks = Vec::new();
        let mut actions = Vec::new();
        for p in sweep(active, manager.partitions()).map(PartitionId::new) {
            let d = self.decide_partition(
                epoch,
                t,
                r_min,
                topo,
                manager,
                snapshot,
                view,
                recorder,
                policy,
                p,
                &mut streaks,
            );
            self.absorb(epoch, p, d, &streaks, &mut actions);
        }
        self.state.note_births(epoch, &actions);
        actions
    }

    /// Evaluate the decision tree for one partition, read-only, leaving
    /// its idle-streak updates in `streaks`.
    ///
    /// All state the decision tree mutates is keyed by partition (idle
    /// streaks by `(partition, server)`, the migration cooldown by
    /// partition), so evaluating a partition against `&self` and
    /// absorbing the returned updates right after reproduces a loop
    /// that mutated the state mid-evaluation.
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
        streaks: &mut Vec<(ServerId, u32)>,
    ) -> PartitionDecision {
        let replica_dc = |s: ServerId| topo.servers()[s.index()].datacenter;
        let traced = recorder.enabled();
        let holder = snapshot.holder(p);
        let holder_dc = replica_dc(holder);
        let q_avg = view.q_avg(p);
        let mut d = PartitionDecision::default();

        // Update idle streaks for every non-primary replica (eq. 15
        // sampled per epoch; suicide waits for a sustained streak). An
        // idle replica's run goes on through this epoch, or starts in
        // it; the streak counts epochs, capped at the patience bar.
        streaks.clear();
        for &s in manager.replicas(p) {
            if s == holder {
                continue;
            }
            let tr = view.traffic(replica_dc(s), p);
            let next = if suicide_candidate(t, tr, q_avg) {
                self.state.continued_streak(epoch, p, s)
            } else {
                0
            };
            streaks.push((s, next));
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
                            .filter(|&s| !self.state.in_grace(epoch, p, s))
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
            // not yet absorbed into the rows (the serial loop updated
            // the state just before reading it — same values).
            let fresh: &[(ServerId, u32)] = streaks;
            let streak_of =
                |s: ServerId| fresh.iter().find(|&&(srv, _)| srv == s).map_or(0, |&(_, n)| n);
            let doomed = manager
                .replicas(p)
                .iter()
                .copied()
                .filter(|&s| s != holder)
                .filter(|&s| reachable(s))
                .filter(|&s| !self.state.in_grace(epoch, p, s))
                .filter(|&s| streak_of(s) >= SUICIDE_PATIENCE)
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

    /// Fold one partition's evaluation, and the streak updates it left,
    /// back into the core's state, in partition order — the apply half
    /// of the snapshot/apply split.
    fn absorb(
        &mut self,
        epoch: Epoch,
        p: PartitionId,
        d: PartitionDecision,
        streaks: &[(ServerId, u32)],
        actions: &mut Vec<Action>,
    ) {
        self.state.set_streaks(epoch, p, streaks);
        if d.migrated {
            self.last_migration.insert(p.0, epoch.raw());
        }
        if let Some(action) = d.action {
            actions.push(action);
        }
    }
}

/// Everything evaluating one partition wants to change besides its
/// idle streaks: applied by [`RfhDecisionCore::absorb`], in partition
/// order.
#[derive(Debug, Default)]
struct PartitionDecision {
    /// At most one structural action per partition per epoch.
    action: Option<Action>,
    /// The action is a migration: stamp the cooldown on absorb.
    migrated: bool,
}

/// `dc`'s WAN neighbours over up links, closest first (ties toward the
/// lower id): the bootstrap probe order. Each step scans the adjacency
/// for the next-closest neighbour instead of sorting a copy, so a probe
/// that stops at the first neighbour able to take a copy — the usual
/// case — costs one scan and no allocation. Latencies are positive, so
/// `total_cmp` orders them as `<` does, and its total order ends the
/// walk after every neighbour.
fn neighbours_by_latency(
    topo: &Topology,
    dc: DatacenterId,
) -> impl Iterator<Item = DatacenterId> + '_ {
    let closer = |a: &(DatacenterId, f64), b: &(DatacenterId, f64)| {
        a.1.total_cmp(&b.1).then_with(|| a.0 .0.cmp(&b.0 .0))
    };
    let mut last: Option<(DatacenterId, f64)> = None;
    std::iter::from_fn(move || {
        let next = topo
            .graph()
            .neighbours(dc)
            .filter(|n| last.is_none_or(|l| closer(n, &l).is_gt()))
            .min_by(closer)?;
        last = Some(next);
        Some(next.0)
    })
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
    neighbours_by_latency(topo, holder_dc)
        .chain([holder_dc])
        .find_map(|dc| best_candidate_in_dc(topo, manager, blocking, use_blocking, p, dc))
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
                neighbours_by_latency(self.ctx.topo, holder_dc).chain([holder_dc]).find_map(|dc| {
                    most_spread_in_dc(self.ctx.topo, self.manager, p, dc, self.ctx.blocking)
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

    /// The trace/report label for the current placement variant.
    fn label(&self) -> &'static str {
        match self.placement {
            PlacementMode::Traffic => "RFH",
            PlacementMode::DomainSpread => "Spread",
        }
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

    fn heap_bytes(&self) -> usize {
        self.core.heap_bytes()
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
        self.core.decide(
            ctx.epoch,
            &ctx.config.thresholds,
            r_min,
            ctx.topo,
            manager,
            ctx.view,
            &view,
            ctx.recorder,
            label,
            ctx.active,
        )
    }

    fn keeps_live(
        &self,
        topo: &Topology,
        smoother: &rfh_traffic::TrafficSmoother,
        manager: &ReplicaManager,
        r_min: usize,
        p: PartitionId,
    ) -> bool {
        // Frozen iff the replica count is exactly at the floor and every
        // non-primary replica's datacenter traffic is exactly zero. A
        // skipped partition has no queries and no placement change, so
        // in every skipped epoch its `unserved` is 0 (eq. 12 cannot
        // fire), the floor and suicide branches cannot fire at r_min,
        // and a zero cell stays zero, so eq. 15 holds and every idle
        // run goes on — which the run's start stamp records without a
        // write (DESIGN.md, "Per-policy freeze predicates"). Smoother
        // cells may be lazily-stale upper bounds; a stale nonzero keeps
        // the partition live, which is the safe direction.
        if manager.replica_count(p) != r_min {
            return true;
        }
        let holder = manager.holder(p);
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
        for e in 1..=6 {
            let parts = h
                .epoch_with_load(&manager, |l| {
                    l.add(p, DatacenterId::new(8), 60);
                })
                .at(e);
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
        for e in 0..20 {
            let parts = h.epoch_with_load(&manager, |_| {}).at(e);
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
        let patience = u64::from(SUICIDE_PATIENCE);
        for e in 0..patience - 1 {
            let parts = h.epoch_with_load(&manager, |_| {}).at(e);
            let ctx = parts.ctx(&h);
            let actions = pol.decide(&ctx, &manager);
            assert!(
                actions.iter().all(|a| !matches!(a, Action::Suicide { .. })),
                "suicide before the patience streak: {actions:?}"
            );
        }
        // One more quiet epoch completes the streak.
        let parts = h.epoch_with_load(&manager, |_| {}).at(patience - 1);
        let ctx = parts.ctx(&h);
        let actions = pol.decide(&ctx, &manager);
        assert!(actions.iter().any(|a| matches!(a, Action::Suicide { .. })));
    }

    #[test]
    fn frozen_partition_keeps_its_idle_run() {
        // A partition at the floor whose spare replica sees no traffic
        // is frozen: the sparse engine stops deciding it. The spare's
        // idle run goes on all the same, so once the partition is
        // dirtied again (a copy placed behind the policy's back) it
        // decides exactly as a policy that decided it every epoch.
        let h = Harness::paper_small();
        let r_min = min_replica_count(h.cfg.failure_rate, h.cfg.min_availability) as usize;
        let (_, mut manager) = h.epoch_at_r_min();
        let p = PartitionId::new(0);
        let extra = (0..10)
            .map(DatacenterId::new)
            .flat_map(|dc| h.topo.alive_servers_in(dc))
            .map(|s| s.id)
            .find(|&s| manager.can_accept(p, s))
            .unwrap();
        let (mut dense, mut sparse) = (RfhPolicy::with_grace(0), RfhPolicy::with_grace(0));
        let mut suicided = false;
        for e in 0..8 {
            let dirty = e == 5;
            if dirty {
                manager.begin_epoch();
                manager.apply(&h.topo, Action::Replicate { partition: p, target: extra }).unwrap();
            }
            let parts = h.epoch_with_load(&manager, |_| {}).at(e);
            let ctx = parts.ctx(&h);
            let active: Vec<u32> = (0..manager.partitions())
                .filter(|&q| {
                    let q = PartitionId::new(q);
                    e == 0
                        || (dirty && q == p)
                        || sparse.keeps_live(&h.topo, &parts.smoother, &manager, r_min, q)
                })
                .collect();
            if (1..5).contains(&e) {
                assert!(active.is_empty(), "epoch {e}: quiet partitions at the floor freeze");
            }
            let want = dense.decide(&ctx, &manager);
            let got = sparse.decide(&EpochContext { active: Some(&active), ..ctx }, &manager);
            assert_eq!(got, want, "epoch {e}");
            for a in want {
                suicided |= matches!(a, Action::Suicide { partition, .. } if partition == p);
                manager.apply(&h.topo, a).unwrap();
            }
        }
        assert!(suicided, "the spare idle since epoch 0 dies once the partition is dirty");
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
        for e in 1..=8 {
            let parts = h.epoch_with_load(&manager, |_| {}).at(e);
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
        for e in 0..12 {
            let parts = h.epoch_with_load(&manager, |_| {}).at(e);
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
        for e in 12..24 {
            manager.begin_epoch();
            let parts = h.epoch_with_load(&manager, |_| {}).at(e);
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
    fn born_keeps_only_births_still_in_grace() {
        // Four partitions gain a replica every epoch and none is ever
        // removed (as when prune_dead drops replicas behind the core's
        // back), so only the grace running out retires a birth.
        let (grace, servers) = (5, 11u64);
        let mut state = DecisionState::new(grace);
        let mut last_birth = std::collections::HashMap::new();
        let mut settled_bytes = None;
        for e in 0..200u64 {
            let actions: Vec<Action> = (0..4u64)
                .map(|p| Action::Replicate {
                    partition: PartitionId::new(p as u32),
                    target: ServerId::new(((e * 3 + p * 5) % servers) as u32),
                })
                .collect();
            state.note_births(Epoch(e), &actions);
            for a in &actions {
                if let Action::Replicate { partition, target } = *a {
                    last_birth.insert((partition, target), e);
                }
            }
            for p in (0..4).map(PartitionId::new) {
                let mut live = 0;
                for s in (0..servers as u32).map(ServerId::new) {
                    let expected = last_birth.get(&(p, s)).is_some_and(|&b| e < b + grace);
                    assert_eq!(state.in_grace(Epoch(e), p, s), expected, "epoch {e}: {p} on {s}");
                    live += usize::from(expected);
                }
                // A written row holds exactly its births still in grace.
                assert_eq!(state.cells_in(p), live, "epoch {e}: {p}");
            }
            // Once every row has reached its width, the state stops
            // growing: expired births make room for fresh ones.
            if e == 4 * grace {
                settled_bytes = Some(state.heap_bytes());
            }
            if let Some(bytes) = settled_bytes {
                assert_eq!(state.heap_bytes(), bytes, "epoch {e}: the state grew");
            }
        }
        // Grace 0 protects nothing, so nothing outlives its epoch.
        let mut state = DecisionState::new(0);
        for e in 0..10u64 {
            let p = PartitionId::new(e as u32);
            let a = Action::Replicate { partition: p, target: ServerId::new(0) };
            state.note_births(Epoch(e), &[a]);
            assert!(!state.in_grace(Epoch(e), p, ServerId::new(0)));
            assert_eq!(state.cells_in(p), 0);
        }
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
