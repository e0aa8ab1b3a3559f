//! The RFH epoch, once.
//!
//! [`EpochPipeline`] owns the whole control plane — topology, ring,
//! replica manager, traffic engine and smoother, policy, fault
//! injector, repair queue, transfer planner, auditor — and runs one
//! epoch over a caller-supplied `q_ijt` matrix:
//!
//! 1. [`inject_faults`](EpochPipeline::inject_faults): drive the fault
//!    plan, follow it on the ring, prune replicas on dead servers;
//! 2. [`run_epoch`](EpochPipeline::run_epoch): retry pinned archive
//!    restores → build the active set → render the placement view →
//!    traffic account → smooth → Erlang-B blocking → `decide` →
//!    admission → execute → audit.
//!
//! The offline [`crate::Simulation`] feeds it generated or replayed
//! load; the live control loop in `rfh-serve` feeds it drained request
//! counters. What differs between the two is only what a placement
//! change *does* outside the replica map, and that is the
//! [`EpochHost`] trait: the simulator's host ([`NoHost`]) does
//! nothing, the live host copies partition data and republishes routes.

use crate::metrics::{epoch_load_imbalance, mean_utilization_active, EpochSnapshot};
use crate::planner::{
    link_between, LinkKey, MoveClass, MoveReq, PlanOutcome, PlannerConfig, TransferPlanner,
};
use crate::repair::{destination_unreachable, RepairQueue};
use rfh_core::{
    server_blocking_probabilities, Action, AppliedAction, EpochContext, ReplicaManager,
    ReplicationPolicy,
};
use rfh_faults::{EpochFaultReport, FaultInjector, FaultPlan, InvariantAuditor};
use rfh_obs::{
    MetricsRegistry, NullRecorder, Profiler, Recorder, PHASE_APPLY, PHASE_DECIDE, PHASE_EVENTS,
    PHASE_METRICS, PHASE_SPARSE, PHASE_TRAFFIC,
};
use rfh_ring::ConsistentHashRing;
use rfh_stats::min_replica_count;
use rfh_topology::Topology;
use rfh_traffic::{PlacementView, TrafficEngine, TrafficSmoother};
use rfh_types::{Epoch, PartitionId, Result, ServerId, SimConfig};
use rfh_workload::QueryLoad;
use std::sync::Arc;

/// Tokens per server on the placement ring.
const RING_TOKENS: u32 = 64;

/// Which partitions an epoch's active set holds.
///
/// Every epoch hands one active set to every layer — traffic pass,
/// smoother, policy, utilization, audit — and each layer has one pass
/// body over it. The two modes differ only in which partitions the set
/// carries from one epoch to the next, and produce **bit-identical**
/// results — metrics, placements, decision traces, RNG streams (a
/// differential test matrix asserts this). Dense work is
/// O(partitions), sparse work is O(dirty set), which is what lets an
/// epoch over a million partitions cost only its hot set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Every partition in every epoch: the carry keeps them all, as on
    /// a dirty-all epoch. The reference for differential tests.
    Dense,
    /// Incremental dirty-set engine (the default): each epoch touches
    /// only partitions with queries this epoch, partitions whose
    /// placement changed, and carried-over partitions the policy says
    /// are not yet provably inert
    /// ([`rfh_core::ReplicationPolicy::keeps_live`]).
    #[default]
    Sparse,
}

/// What an epoch does outside the replica map. Every method defaults to
/// nothing, which is the whole simulator ([`NoHost`]); a live host
/// mirrors membership on its data plane and moves partition data.
pub trait EpochHost {
    /// `id` went down. Reported before its replicas are pruned.
    fn node_failed(&mut self, _id: ServerId) {}

    /// `id` came back with its state intact.
    fn node_recovered(&mut self, _id: ServerId) {}

    /// `id` came back as a fresh process (the `restart_after` verb):
    /// empty memory, whatever its log replays.
    fn node_restarted(&mut self, _id: ServerId) {}

    /// `p` lost every replica and was re-created on `to` from the
    /// archive.
    fn partition_restored(&mut self, _manager: &ReplicaManager, _p: PartitionId, _to: ServerId) {}

    /// Replica sets changed outside an [`apply`](Self::apply) bracket:
    /// one partition's, or (`None`, after a prune sweep) anyone's.
    fn republish(&mut self, _manager: &ReplicaManager, _p: Option<PartitionId>) {}

    /// The cluster as it stands entering the epoch — faults landed,
    /// archive restores done, no repair action run yet: the worst this
    /// epoch sees. `health()` scans every partition and yields
    /// `(unavailable, below_floor)` (see
    /// [`EpochPipeline::live_replica_scan`]); a host that does not
    /// gauge health never pays for the scan.
    fn entering_epoch(&mut self, _health: impl FnOnce() -> (u64, u64)) {}

    /// Bracket one placement change. `apply` performs it on `manager`
    /// (and fails when the manager rejects it — budget spent, target
    /// full); a live host surrounds the call with whatever keeps its
    /// data plane consistent and must settle that on the failure path
    /// too.
    fn apply(
        &mut self,
        manager: &mut ReplicaManager,
        _action: Action,
        apply: impl FnOnce(&mut ReplicaManager) -> Result<AppliedAction>,
    ) -> Result<AppliedAction> {
        apply(manager)
    }
}

/// The host with no data plane: the offline simulator's.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHost;

impl EpochHost for NoHost {}

/// The ring over every alive server and a replica manager holding each
/// partition on its ring primary — the placement every run starts from.
pub fn initial_placement(
    cfg: &SimConfig,
    topo: &Topology,
) -> Result<(ConsistentHashRing, ReplicaManager)> {
    let mut ring = ConsistentHashRing::new(RING_TOKENS);
    for s in topo.servers() {
        if s.alive {
            ring.join(s.id);
        }
    }
    let holders = (0..cfg.partitions)
        .map(|p| ring.primary(PartitionId::new(p)))
        .collect::<Result<Vec<_>>>()?;
    let manager = ReplicaManager::new(cfg, topo.server_count(), holders)?;
    Ok((ring, manager))
}

/// Where a partition with no live replica is restored: its first live
/// ring successor, else any live server.
fn restore_target(ring: &ConsistentHashRing, topo: &Topology, p: PartitionId) -> Option<ServerId> {
    ring.successor_walk(p)
        .find(|&s| topo.servers()[s.index()].alive)
        .or_else(|| topo.servers().iter().find(|s| s.alive).map(|s| s.id))
}

/// A move offered for execution: the action, and for deferred-lane
/// items how many times it has been deferred already.
type Offered = (Action, Option<u32>);

/// One control plane and its epoch loop. See the module docs.
pub struct EpochPipeline {
    cfg: SimConfig,
    topo: Topology,
    ring: ConsistentHashRing,
    manager: ReplicaManager,
    /// Reused traffic engine: its route table persists across epochs,
    /// refreshed only when the topology generation moves.
    engine: TrafficEngine,
    smoother: TrafficSmoother,
    pub(crate) policy: Box<dyn ReplicationPolicy + Send>,
    /// Chaos driver; `None` for the empty plan (the zero-cost path).
    injector: Option<FaultInjector>,
    /// Always-on safety/liveness checker (see `rfh_faults::audit`).
    auditor: InvariantAuditor,
    /// Deferred transfers: unreachable destinations (with backoff) and
    /// moves the planner's budget did not fit (next epoch).
    repair_queue: RepairQueue,
    /// Per-WAN-link byte budget per epoch; `None` admits every move.
    link_budget: Option<u64>,
    /// Per-link admission state (carried credit and lifetime counts).
    /// Untouched without a budget.
    planner: TransferPlanner,
    /// Partitions whose every replica died with no live server to
    /// restore onto: pinned to their dead primary until one recovers.
    pinned: Vec<PartitionId>,
    /// The placement view the traffic pass reads, maintained in place
    /// from replica-map deltas instead of rebuilt every epoch.
    view: PlacementView,
    /// Partitions whose replica set changed since the last render.
    dirty_parts: Vec<PartitionId>,
    /// The view's shape is invalid (first epoch, prune, restore):
    /// the next epoch re-renders it wholesale and runs dirty-all.
    view_stale: bool,
    pub(crate) engine_mode: EngineMode,
    /// Availability floor `r_min` (it depends only on the config).
    r_min: usize,
    /// This (after the active-set step) or last epoch's active set,
    /// sorted ascending — the carry half of the next active set.
    prev_active: Vec<u32>,
    /// Build buffer for the next active set (swapped with
    /// `prev_active` each epoch).
    active_scratch: Vec<u32>,
    /// Cumulative partitions epochs evaluated / skipped.
    sparse_dirty: u64,
    sparse_skipped: u64,
    /// Decision-event sink; [`NullRecorder`] unless traced.
    pub(crate) recorder: Arc<dyn Recorder>,
    /// Per-phase epoch timer; disabled (one branch per phase) by default.
    pub(crate) profiler: Profiler,
    epoch: u64,
    /// Heap bytes of the last query matrix [`Self::run_epoch`] read
    /// (the caller owns it; kept for [`Self::heap_bytes_by_owner`]).
    load_bytes: usize,
    /// Archive restores since the last snapshot: every one is a
    /// data-loss event; the retried ones also count as repairs.
    pending_data_loss: usize,
    pending_repairs: usize,
    /// Servers a random-failure request asked for beyond the alive
    /// population.
    pub(crate) fault_shortfall: u64,
    /// Chaos availability accounting, scanned only under a fault plan:
    /// partition-epochs with no live replica / below `r_min`, and the
    /// most sub-`r_min` partitions any one epoch saw.
    unavailable_pe: u64,
    sub_rmin_pe: u64,
    sub_rmin_peak: u64,
}

impl EpochPipeline {
    /// A control plane over `topo` starting from `(ring, manager)`
    /// (see [`initial_placement`]), untraced, unprofiled, sparse, with
    /// no link budget.
    pub fn new(
        cfg: SimConfig,
        topo: Topology,
        ring: ConsistentHashRing,
        manager: ReplicaManager,
        policy: Box<dyn ReplicationPolicy + Send>,
        faults: &FaultPlan,
    ) -> Self {
        let dc_count = topo.datacenters().len() as u32;
        let r_min = min_replica_count(cfg.failure_rate, cfg.min_availability) as usize;
        EpochPipeline {
            engine: TrafficEngine::new(),
            smoother: TrafficSmoother::new(cfg.partitions, dc_count, cfg.thresholds.alpha),
            injector: FaultInjector::new(faults),
            auditor: InvariantAuditor::new(cfg.partitions, r_min),
            repair_queue: RepairQueue::new(),
            link_budget: None,
            planner: TransferPlanner::new(),
            pinned: Vec::new(),
            view: PlacementView::new(0, 0, Vec::new()),
            dirty_parts: Vec::new(),
            view_stale: true,
            engine_mode: EngineMode::default(),
            r_min,
            prev_active: Vec::new(),
            active_scratch: Vec::new(),
            sparse_dirty: 0,
            sparse_skipped: 0,
            recorder: Arc::new(NullRecorder),
            profiler: Profiler::new(false),
            epoch: 0,
            load_bytes: 0,
            pending_data_loss: 0,
            pending_repairs: 0,
            fault_shortfall: 0,
            unavailable_pe: 0,
            sub_rmin_pe: 0,
            sub_rmin_peak: 0,
            cfg,
            topo,
            ring,
            manager,
            policy,
        }
    }

    /// Rate-limit each WAN link to the config's byte budget per epoch,
    /// deferring what does not fit to the next epoch via the repair
    /// queue (see [`crate::planner`]). Without a budget every move
    /// executes.
    pub fn with_planner(mut self, cfg: PlannerConfig) -> Self {
        self.link_budget = cfg.link_budget_bytes;
        self
    }

    /// Current epoch (next to run).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The replica map.
    pub fn manager(&self) -> &ReplicaManager {
        &self.manager
    }

    /// The cluster.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The invariant auditor's findings so far.
    pub fn auditor(&self) -> &InvariantAuditor {
        &self.auditor
    }

    /// The deferred-transfer lane (lifetime completions, dead letters,
    /// backlog).
    pub fn repair_queue(&self) -> &RepairQueue {
        &self.repair_queue
    }

    /// The transfer planner's lifetime `(admitted, deferred)` move
    /// counts. Both zero without a link budget.
    pub fn planner_counters(&self) -> (u64, u64) {
        (self.planner.admitted_total(), self.planner.deferred_total())
    }

    /// Chaos availability counters: `(unavailable partition-epochs,
    /// sub-r_min partition-epochs, peak sub-r_min in one epoch)`. All
    /// zero unless a fault plan is active.
    pub fn availability_counters(&self) -> (u64, u64, u64) {
        (self.unavailable_pe, self.sub_rmin_pe, self.sub_rmin_peak)
    }

    /// Whether a (non-empty) fault plan drives this control plane.
    pub(crate) fn has_fault_plan(&self) -> bool {
        self.injector.is_some()
    }

    /// Count partitions with no live replica and partitions with fewer
    /// than `r_min` live replicas (the first are among the second):
    /// `(unavailable, below_floor)`. Reads the replica map, not the
    /// sparse active set, so it is engine-independent.
    pub fn live_replica_scan(&self) -> (u64, u64) {
        let (mut unavailable, mut below_floor) = (0u64, 0u64);
        for p in (0..self.manager.partitions()).map(PartitionId::new) {
            let live = self
                .manager
                .replicas(p)
                .iter()
                .filter(|s| self.topo.servers()[s.index()].alive)
                .count();
            unavailable += u64::from(live == 0);
            below_floor += u64::from(live < self.r_min);
        }
        (unavailable, below_floor)
    }

    /// Export the control plane's lifetime totals as `{prefix}.…`
    /// series, plus the traffic engine's pass counters. Written
    /// set-style, so collecting into the same registry repeatedly is
    /// idempotent. The planner series appear only with a link budget.
    pub fn collect_metrics(&self, registry: &mut MetricsRegistry, prefix: &str) {
        let mut counter =
            |name: &str, v: u64| registry.counter_total(&format!("{prefix}.{name}"), v);
        counter("repairs.completed", self.repair_queue.completed());
        counter("repairs.dead_letters", self.repair_queue.dead_letters());
        counter("invariant_violations", self.auditor.total());
        counter("sparse.dirty_partitions", self.sparse_dirty);
        counter("sparse.skipped_partitions", self.sparse_skipped);
        if self.link_budget.is_some() {
            counter("planner.admitted", self.planner.admitted_total());
            counter("planner.deferred", self.planner.deferred_total());
            registry.gauge(
                &format!("{prefix}.planner.credit_bytes"),
                self.planner.credit_bytes() as f64,
            );
        }
        registry.gauge(&format!("{prefix}.replicas_total"), self.manager.total_replicas() as f64);
        self.engine.stats().collect_metrics(registry);
        for (owner, bytes) in self.heap_bytes_by_owner() {
            registry.gauge(&format!("sim.bytes.{owner}"), bytes as f64);
        }
    }

    /// The epoch state's heap, by owner, from allocation capacities:
    /// the placement view, the traffic accounts, the rest of the
    /// traffic engine, the smoother, the replica map, the last query
    /// matrix, the auditor and the policy. Exported as `sim.bytes.*`
    /// gauges by [`Self::collect_metrics`]. O(partitions).
    fn heap_bytes_by_owner(&self) -> [(&'static str, usize); 8] {
        [
            ("view", self.view.heap_bytes()),
            ("accounts", self.engine.accounts().heap_bytes()),
            ("engine", self.engine.heap_bytes()),
            ("smoother", self.smoother.heap_bytes()),
            ("manager", self.manager.heap_bytes()),
            ("load", self.load_bytes),
            ("auditor", self.auditor.heap_bytes()),
            ("policy", self.policy.heap_bytes()),
        ]
    }

    /// Drive the fault plan for this epoch: inject what is due, follow
    /// it on the ring and the host, prune replicas on freshly-dead
    /// servers, and apply the sticky gray-failure knobs.
    ///
    /// # Errors
    /// A plan naming an entity the topology lacks. Everything the plan
    /// did before the bad entry has been followed through as usual, and
    /// the plan is halted: later epochs inject nothing.
    pub fn inject_faults<H: EpochHost>(&mut self, host: &mut H) -> Result<()> {
        let Some(injector) = self.injector.as_mut() else {
            return Ok(());
        };
        let mut report = EpochFaultReport::default();
        let outcome = injector.begin_epoch_into(self.epoch, &mut self.topo, &mut report);
        if outcome.is_err() {
            injector.halt();
        }
        if !report.failed.is_empty() || report.routes_changed || report.random_shortfall > 0 {
            self.auditor.note_fault(self.epoch);
        }
        for &id in &report.failed {
            self.ring.leave(id);
            host.node_failed(id);
        }
        for &id in &report.recovered {
            self.ring.join(id);
            host.node_recovered(id);
        }
        for &id in &report.restarted {
            self.ring.join(id);
            host.node_restarted(id);
        }
        if let Some(p) = report.message_loss {
            self.policy.set_message_loss(p);
        }
        if let Some((repl, migr)) = report.bandwidth {
            self.manager.set_bandwidth_factors(repl, migr);
        }
        self.fault_shortfall += report.random_shortfall as u64;
        // Route changes need no handling here: the topology generation
        // bump re-keys the traffic engine's route table automatically.
        if !report.failed.is_empty() {
            self.prune_dead_replicas(host);
        }
        outcome
    }

    /// Drop replicas on dead servers. Partitions that lost every copy
    /// are restored onto a surviving ring successor when one exists;
    /// with no live server anywhere they stay pinned to their dead
    /// primary and are retried by [`Self::retry_restores`].
    fn prune_dead_replicas<H: EpochHost>(&mut self, host: &mut H) {
        let (ring, topo) = (&self.ring, &self.topo);
        let outcome = self.manager.prune_dead(topo, |p| restore_target(ring, topo, p));
        self.pending_data_loss += outcome.restored_partitions.len();
        for &p in &outcome.restored_partitions {
            host.partition_restored(&self.manager, p, self.manager.holder(p));
        }
        for p in outcome.unrestored_partitions {
            if !self.pinned.contains(&p) {
                self.pinned.push(p);
            }
        }
        self.view_stale = true;
        host.republish(&self.manager, None);
    }

    /// Retry archive restores for partitions pinned to dead servers.
    /// Data loss is accounted when the restore actually lands.
    fn retry_restores<H: EpochHost>(&mut self, host: &mut H) {
        if self.pinned.is_empty() {
            return;
        }
        let mut still_pinned = Vec::new();
        for p in std::mem::take(&mut self.pinned) {
            // A pinned server that recovered brings its disk back with
            // it: the partition is whole again without touching the
            // archive, so no data loss and no repair to account.
            if self.manager.replicas(p).iter().any(|&s| self.topo.servers()[s.index()].alive) {
                host.republish(&self.manager, Some(p));
                self.view_stale = true;
                continue;
            }
            match restore_target(&self.ring, &self.topo, p) {
                Some(to) if self.manager.restore_partition(&self.topo, p, to).is_ok() => {
                    host.partition_restored(&self.manager, p, to);
                    self.pending_data_loss += 1;
                    self.pending_repairs += 1;
                    self.view_stale = true;
                }
                _ => still_pinned.push(p),
            }
        }
        self.pinned = still_pinned;
    }

    /// Run one epoch over `load` (after [`Self::inject_faults`]) and
    /// return its snapshot.
    pub fn run_epoch<H: EpochHost>(&mut self, load: &QueryLoad, host: &mut H) -> EpochSnapshot {
        let ev_t0 = self.profiler.start();
        self.load_bytes = load.heap_bytes();
        self.retry_restores(host);
        self.manager.begin_epoch();
        // Chaos availability accounting, as the cluster stands entering
        // the epoch. Only scanned under an active fault plan, so
        // fault-free runs — including the million-partition sparse
        // benches — pay nothing.
        let scanned = self.injector.is_some().then(|| self.live_replica_scan());
        if let Some((unavailable, below_floor)) = scanned {
            self.unavailable_pe += unavailable;
            self.sub_rmin_pe += below_floor;
            self.sub_rmin_peak = self.sub_rmin_peak.max(below_floor);
        }
        host.entering_epoch(|| scanned.unwrap_or_else(|| self.live_replica_scan()));
        self.profiler.stop(PHASE_EVENTS, ev_t0);

        // Assemble the epoch's active set before the render below
        // consumes `dirty_parts` / `view_stale`. A stale view means
        // placements moved wholesale (first epoch, prune, restore) — that
        // epoch runs dirty-all, which doubles as the warm-up that seeds
        // the carry; so does every epoch in dense mode. Otherwise the set
        // is carry ∪ touched ∪ dirty: carried partitions the policy
        // cannot yet prove inert, plus everything with queries or
        // placement changes this epoch.
        let sp_t0 = self.profiler.start();
        self.active_scratch.clear();
        if self.view_stale || self.engine_mode == EngineMode::Dense {
            self.active_scratch.extend(0..self.cfg.partitions);
        } else {
            for &pu in &self.prev_active {
                if self.policy.keeps_live(
                    &self.topo,
                    &self.smoother,
                    &self.manager,
                    self.r_min,
                    PartitionId::new(pu),
                ) {
                    self.active_scratch.push(pu);
                }
            }
            self.active_scratch.extend_from_slice(load.touched());
            self.active_scratch.extend(self.dirty_parts.iter().map(|p| p.0));
            self.active_scratch.sort_unstable();
            self.active_scratch.dedup();
        }
        std::mem::swap(&mut self.prev_active, &mut self.active_scratch);
        let active = &self.prev_active[..];
        self.sparse_dirty += active.len() as u64;
        self.sparse_skipped += self.cfg.partitions as u64 - active.len() as u64;
        self.profiler.stop(PHASE_SPARSE, sp_t0);

        let tr_t0 = self.profiler.start();
        let cfg = &self.cfg;
        if self.view_stale {
            self.manager.render_view(&self.topo, cfg.replica_capacity_mean, &mut self.view);
            self.view_stale = false;
        } else {
            for &p in &self.dirty_parts {
                self.manager.render_partition(
                    &self.topo,
                    cfg.replica_capacity_mean,
                    p,
                    &mut self.view,
                );
            }
        }
        self.dirty_parts.clear();
        let accounts = self.engine.account_active(&self.topo, load, &self.view, active);
        self.smoother.update_active(load, accounts, active);
        let blocking =
            server_blocking_probabilities(&self.topo, accounts, cfg.replica_capacity_mean);
        self.profiler.stop(PHASE_TRAFFIC, tr_t0);

        let de_t0 = self.profiler.start();
        let ctx = EpochContext {
            epoch: Epoch(self.epoch),
            topo: &self.topo,
            load,
            accounts,
            smoother: &self.smoother,
            blocking: &blocking,
            view: &self.view,
            config: cfg,
            recorder: &*self.recorder,
            active: Some(active),
        };
        let actions = self.policy.decide(&ctx, &self.manager);
        self.profiler.stop(PHASE_DECIDE, de_t0);

        let me_t0 = self.profiler.start();
        let mut snap = EpochSnapshot {
            utilization: mean_utilization_active(&self.view, accounts, active),
            load_imbalance: epoch_load_imbalance(&self.topo, accounts),
            path_length: accounts.mean_path_length(),
            served: accounts.served_total(),
            unserved: accounts.unserved_total(),
            alive_servers: self.topo.alive_server_count(),
            latency_ms: accounts.mean_latency_ms(),
            sla_fraction: accounts.sla_fraction(),
            data_loss: std::mem::take(&mut self.pending_data_loss),
            repairs: std::mem::take(&mut self.pending_repairs),
            ..Default::default()
        };
        self.profiler.stop(PHASE_METRICS, me_t0);

        let ap_t0 = self.profiler.start();
        self.apply_actions(actions, &mut snap, host);
        self.profiler.stop(PHASE_APPLY, ap_t0);

        let me_t1 = self.profiler.start();
        snap.replicas_total = self.manager.total_replicas();
        let manager = &self.manager;
        let pinned = &self.pinned;
        let replicas =
            |p: PartitionId, buf: &mut Vec<ServerId>| buf.extend_from_slice(manager.replicas(p));
        // The audit covers the active set plus the auditor's own watch
        // list of armed / dead-replica partitions; the violation stream
        // is identical to a full audit because only actions can change
        // a partition's audit state, actions land on active partitions,
        // and deferred repairs either hit watched partitions or leave
        // the audit outcome unchanged.
        snap.invariant_violations =
            self.auditor.audit_subset(self.epoch, &self.topo, &self.prev_active, replicas, |p| {
                pinned.contains(&p)
            }) as usize;
        self.profiler.stop(PHASE_METRICS, me_t1);
        self.recorder.end_epoch(self.policy.name(), self.epoch);
        self.epoch += 1;
        snap
    }

    /// The serial half of the epoch's snapshot/apply split: execute the
    /// decisions the policy made against the frozen placement view. All
    /// placement mutation for the epoch happens here, on the
    /// coordinating thread.
    ///
    /// Moves are offered deferred lane first (admitted in an earlier
    /// epoch, they compete for this epoch's bandwidth ahead of new
    /// decisions), then this epoch's actions in decision order. Without
    /// a link budget all of them execute, in that order; with one the
    /// planner picks which do — priority decides only *who wins* a
    /// contended link, the winners still execute in offered order — and
    /// the rest go (back) onto the deferred lane for the next epoch.
    fn apply_actions<H: EpochHost>(
        &mut self,
        actions: Vec<Action>,
        snap: &mut EpochSnapshot,
        host: &mut H,
    ) {
        let due = self.repair_queue.take_due(self.epoch);
        let offered = due
            .into_iter()
            .map(|item| (item.action, Some(item.attempts)))
            .chain(actions.into_iter().map(|action| (action, None)));
        // The recorder matches outcomes by the label the policy stamps
        // into its events — ask the policy itself, so custom (ablated)
        // policies stay correctly attributed too.
        let label = self.policy.name();
        let Some(budget) = self.link_budget else {
            offered.for_each(|m| self.execute(m, label, snap, host));
            return;
        };
        let plan = self.plan(offered, budget);
        for m in plan.admitted {
            self.execute(m, label, snap, host);
        }
        for (action, deferrals) in plan.deferred {
            self.recorder.outcome(label, action.partition().0, false, 0.0);
            // A budget deferral is not a failed attempt (the destination
            // is fine), so the planner lane retries next epoch without
            // backoff; the count keeps growing as the aging priority.
            self.repair_queue.defer_next(action, deferrals.map_or(1, |d| d + 1), self.epoch);
        }
    }

    /// Admission control over this epoch's offered moves. The per-link
    /// budget is the configured cap scaled by the live WAN
    /// bandwidth-cut factors, so a `bandwidth` fault verb throttles
    /// planned transfers exactly as it throttles the per-server caps.
    fn plan(
        &mut self,
        offered: impl Iterator<Item = Offered>,
        budget: u64,
    ) -> PlanOutcome<Offered> {
        let moves = offered
            .map(|(action, deferrals)| MoveReq {
                tag: (action, deferrals),
                link: self.wan_link(&action),
                bytes: self.cfg.partition_size.0,
                class: match (deferrals, action) {
                    (Some(age), _) => MoveClass::Deferred { age },
                    (None, Action::Replicate { partition, .. })
                        if self.manager.replica_count(partition) < self.r_min =>
                    {
                        MoveClass::UnderReplicated
                    }
                    _ => MoveClass::Normal,
                },
            })
            .collect();
        let (repl_f, migr_f) = self.manager.bandwidth_factors();
        let budget = (budget as f64 * repl_f.min(migr_f)) as u64;
        self.planner.plan(moves, |_| budget)
    }

    /// The WAN link an action's transfer crosses. `None` — always
    /// admitted, zero bytes — for suicides and intra-datacenter
    /// transfers: the planner budgets the WAN, not the in-datacenter
    /// fabric.
    fn wan_link(&self, action: &Action) -> Option<LinkKey> {
        let dc = |s: ServerId| self.topo.servers()[s.index()].datacenter;
        let (src, dst) = match *action {
            Action::Replicate { partition, target } => {
                (dc(self.manager.holder(partition)), dc(target))
            }
            Action::Migrate { from, to, .. } => (dc(from), dc(to)),
            Action::Suicide { .. } => return None,
        };
        (src != dst).then(|| link_between(src, dst))
    }

    /// Execute one admitted move and account it.
    fn execute<H: EpochHost>(
        &mut self,
        (action, deferrals): Offered,
        label: &'static str,
        snap: &mut EpochSnapshot,
        host: &mut H,
    ) {
        // A transfer whose destination is dead or unreachable is
        // deferred and retried with backoff instead of silently counting
        // as done. Fresh decisions are only checked under a fault plan,
        // so fault-free runs skip the check.
        if (deferrals.is_some() || self.injector.is_some())
            && destination_unreachable(&self.topo, &self.manager, &action)
        {
            if deferrals.is_none() {
                self.recorder.outcome(label, action.partition().0, false, 0.0);
            }
            if !self.repair_queue.defer(action, deferrals.map_or(0, |d| d + 1), self.epoch) {
                snap.dead_letters += 1;
            }
            return;
        }
        // A rejected action (bandwidth exhausted, target filled up by
        // an earlier action this epoch, partition re-replicated
        // elsewhere while the move sat deferred) is simply not executed:
        // the policy re-decides every epoch.
        let (topo, recorder) = (&self.topo, &*self.recorder);
        let Ok(applied) = host.apply(&mut self.manager, action, |manager| {
            manager.apply_recorded(topo, action, recorder, label)
        }) else {
            return;
        };
        if deferrals.is_some() {
            self.repair_queue.note_completed();
            snap.repairs += 1;
        }
        match action {
            Action::Replicate { .. } => {
                snap.replications += 1;
                snap.replication_cost += applied.cost;
            }
            Action::Migrate { .. } => {
                snap.migrations += 1;
                snap.migration_cost += applied.cost;
            }
            Action::Suicide { .. } => snap.suicides += 1,
        }
        self.dirty_parts.push(action.partition());
    }
}
