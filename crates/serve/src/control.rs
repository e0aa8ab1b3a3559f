//! The online RFH control loop.
//!
//! One thread owns the control plane: an [`EpochPipeline`] — the same
//! epoch the offline simulator runs — fed with live counters. Every
//! `control_interval_ms` it runs one *tick*: drive the fault plan,
//! atomically drain the live `q_ijt` counters into a `QueryLoad`, and
//! run the pipeline's epoch over it. What makes the loop *live* is the
//! [`EpochHost`] it passes in ([`LiveHost`]): membership changes flip
//! the data plane's alive flags, every placement change copies the
//! partition's data and republishes its route under the per-partition
//! lock, and archive restores merge what every disk still holds.
//!
//! The loop is paced by wall-clock, so a live run is *not*
//! bit-deterministic — how many requests land in each tick depends on
//! scheduling. Everything downstream of the drained matrix is the
//! deterministic pipeline.

use crate::cluster::Shared;
use crate::store::Versioned;
use crate::telemetry::TickSample;
use crate::wal::StorageSnapshot;
use rfh_core::{Action, AppliedAction, ReplicaManager};
use rfh_obs::MetricsRegistry;
use rfh_sim::{EpochHost, EpochPipeline};
use rfh_stats::Histogram;
use rfh_types::{PartitionId, Result, ServerId};
use rfh_workload::QueryLoad;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Lifetime totals the control loop hands back at shutdown.
#[derive(Debug)]
pub struct ControlStats {
    /// Ticks executed (including the final drain tick).
    pub ticks: u64,
    /// Replicate actions executed.
    pub replications: u64,
    /// Migrate actions executed.
    pub migrations: u64,
    /// Suicide actions executed.
    pub suicides: u64,
    /// Deferred transfers completed.
    pub repairs_completed: u64,
    /// Deferred transfers dropped after max retries.
    pub dead_letters: u64,
    /// Invariant-auditor findings.
    pub invariant_violations: u64,
    /// Partitions restored from the archive (all replicas lost).
    pub data_restores: u64,
    /// Kill-then-restart cycles completed (`restart_after` verb).
    pub restarts: u64,
    /// Replicas placed at shutdown.
    pub replicas_total: usize,
    /// serve.* counters plus the traffic engine's cache stats.
    pub registry: MetricsRegistry,
}

/// Lifetime counter values as of the last recorded tick sample, used
/// to turn monotone totals into per-tick deltas.
#[derive(Debug, Default, Clone, Copy)]
struct TickCounters {
    ops: u64,
    forwards: u64,
    acks_ok: u64,
    acks_unavailable: u64,
    replications: u64,
    migrations: u64,
    suicides: u64,
    repairs_completed: u64,
    violations: u64,
}

/// The data-plane half of a tick: what the pipeline's epoch does to
/// the running cluster.
struct LiveHost {
    shared: Arc<Shared>,
    /// Fault-plan events this tick, for the timeline (empty unless
    /// telemetry is on).
    tick_events: Vec<String>,
    /// `(unavailable, below_floor)` partitions entering this tick —
    /// after faults land, before this tick's repair actions — so a kill
    /// shows up as a dip on the timeline even when RFH repairs it
    /// within the tick. Gauged only with telemetry on.
    health: Option<(u64, u64)>,
    restarts: u64,
}

impl LiveHost {
    fn event(&mut self, text: impl FnOnce() -> String) {
        if self.shared.telemetry.enabled() {
            self.tick_events.push(text());
        }
    }

    /// Copy a full partition onto `to`: from the first live member of
    /// the pre-transfer route when one exists, else merged from every
    /// store (dead disks double as the archive).
    fn copy_partition(&self, p: PartitionId, old_route: &[ServerId], to: ServerId) {
        let source = old_route.iter().copied().find(|&s| self.shared.is_alive(s.index()));
        let entries: Vec<(u64, Versioned)> = match source {
            Some(s) => self.shared.stores[s.index()].snapshot_partition(p, self.shared.partitions),
            None => self.archive_snapshot(p),
        };
        self.shared.stores[to.index()].merge(&entries);
    }

    /// The archive stand-in: the union of every node's shard of `p`,
    /// LWW-merged. Dead nodes' stores are included — a failed server's
    /// disk outlives its process, which is what makes catastrophic
    /// restores lossless for acknowledged writes.
    fn archive_snapshot(&self, p: PartitionId) -> Vec<(u64, Versioned)> {
        let mut best: std::collections::HashMap<u64, Versioned> = std::collections::HashMap::new();
        for store in &self.shared.stores {
            for (k, v) in store.snapshot_partition(p, self.shared.partitions) {
                match best.get(&k) {
                    Some(cur) if cur.seq >= v.seq => {}
                    _ => {
                        best.insert(k, v);
                    }
                }
            }
        }
        best.into_iter().collect()
    }

    /// Republish one partition's route row from the replica manager,
    /// then settle its route epoch at the next even value. Caller holds
    /// the partition lock.
    fn publish(&self, manager: &ReplicaManager, p: PartitionId) {
        self.shared.routes.write().expect("routes lock")[p.index()] = manager.replicas(p).to_vec();
        self.shared.end_route_change(p);
    }
}

impl EpochHost for LiveHost {
    fn node_failed(&mut self, id: ServerId) {
        self.shared.alive[id.index()].store(false, Ordering::Release);
        self.event(|| format!("kill s{}", id.0));
    }

    fn node_recovered(&mut self, id: ServerId) {
        self.shared.alive[id.index()].store(true, Ordering::Release);
        self.event(|| format!("recover s{}", id.0));
    }

    /// Kill-then-restart: the node comes back with empty memory and
    /// replays its log before rejoining — the in-process analogue of
    /// SIGKILL + relaunch. A memory store replays nothing; that data
    /// loss *is* its baseline semantics and what the durability tests
    /// measure against.
    fn node_restarted(&mut self, id: ServerId) {
        match self.shared.stores[id.index()].restart_from_disk() {
            Ok(replayed) => self.event(|| format!("restart s{} replayed {replayed}", id.0)),
            // Degrade to a cold rejoin rather than killing the control
            // thread; repairs re-copy its partitions.
            Err(e) => self.event(|| format!("restart s{} replay failed: {e}", id.0)),
        }
        self.shared.alive[id.index()].store(true, Ordering::Release);
        self.restarts += 1;
    }

    fn partition_restored(&mut self, manager: &ReplicaManager, p: PartitionId, to: ServerId) {
        let _guard = self.shared.locks[p.index()].lock().expect("partition lock");
        self.shared.stores[to.index()].merge(&self.archive_snapshot(p));
        self.publish(manager, p);
    }

    fn republish(&mut self, manager: &ReplicaManager, p: Option<PartitionId>) {
        let rows = p.map_or(0..self.shared.partitions, |p| p.0..p.0 + 1);
        for p in rows.map(PartitionId::new) {
            let _guard = self.shared.locks[p.index()].lock().expect("partition lock");
            self.publish(manager, p);
        }
    }

    fn entering_epoch(&mut self, health: impl FnOnce() -> (u64, u64)) {
        self.health = self.shared.telemetry.enabled().then(health);
    }

    /// Mirror one placement change on the data plane: partition lock →
    /// route epoch odd → control-plane apply → data copy → route
    /// publish (epoch even). Holding the lock for the whole sequence
    /// means no client write can land between the copy and the new
    /// route.
    fn apply(
        &mut self,
        manager: &mut ReplicaManager,
        action: Action,
        apply: impl FnOnce(&mut ReplicaManager) -> Result<AppliedAction>,
    ) -> Result<AppliedAction> {
        let p = action.partition();
        let _guard = self.shared.locks[p.index()].lock().expect("partition lock");
        let old_route = self.shared.route(p);
        // Flip the route epoch odd *before* touching placement or data:
        // a reactor-plane writer observing an odd epoch (or an epoch
        // changed across its write) knows its replica set may straddle
        // the transfer and retries instead of acking.
        self.shared.begin_route_change(p);
        let applied = apply(manager);
        if applied.is_err() {
            // Aborted change: settle the epoch even again (spurious
            // invalidation of in-flight optimistic writes is harmless).
            self.shared.end_route_change(p);
            return applied;
        }
        match action {
            Action::Replicate { target: to, .. } | Action::Migrate { to, .. } => {
                self.copy_partition(p, &old_route, to)
            }
            // The shard's data stays in place but unrouted; a later
            // re-replication to this node finds a warm copy and merge
            // makes that safe.
            Action::Suicide { .. } => {}
        }
        self.publish(manager, p);
        applied
    }
}

pub(crate) struct Controller {
    pipeline: EpochPipeline,
    host: LiveHost,
    /// The tick's drained `q_ijt` matrix.
    scratch: QueryLoad,
    /// Counter snapshot at the previous tick sample.
    prev_counters: TickCounters,
    /// Reused buffer for the per-tick server-side latency histogram.
    tick_hist: Histogram,
    replications: u64,
    migrations: u64,
    suicides: u64,
    data_restores: u64,
    /// Fault-plan errors surfaced (the plan is halted at the first).
    fault_errors: u64,
}

impl Controller {
    pub fn new(shared: Arc<Shared>, pipeline: EpochPipeline) -> Self {
        let dc_count = pipeline.topology().datacenters().len() as u32;
        Controller {
            scratch: QueryLoad::zeros(shared.partitions, dc_count),
            host: LiveHost { shared, tick_events: Vec::new(), health: None, restarts: 0 },
            pipeline,
            prev_counters: TickCounters::default(),
            tick_hist: Histogram::latency(),
            replications: 0,
            migrations: 0,
            suicides: 0,
            data_restores: 0,
            fault_errors: 0,
        }
    }

    /// Run ticks until shutdown; always executes one final tick after
    /// the flag flips so the last interval's counters are drained and
    /// audited.
    pub fn run(mut self, interval: Duration) -> ControlStats {
        loop {
            let last = self.host.shared.shutdown.load(Ordering::Acquire);
            self.step();
            if last {
                break;
            }
            let mut slept = Duration::ZERO;
            while slept < interval && !self.host.shared.shutdown.load(Ordering::Acquire) {
                let nap = (interval - slept).min(Duration::from_millis(10));
                std::thread::sleep(nap);
                slept += nap;
            }
        }
        self.finish()
    }

    /// The control plane's registry: serve.* lifetime totals, the
    /// data-plane request counters, and the pipeline's own series.
    /// Built fresh from totals every call, so republishing per tick
    /// (and re-scraping) is idempotent.
    fn build_registry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        registry.counter_total("serve.control.ticks", self.pipeline.epoch());
        registry.counter_total("serve.actions.replications", self.replications);
        registry.counter_total("serve.actions.migrations", self.migrations);
        registry.counter_total("serve.actions.suicides", self.suicides);
        registry.counter_total("serve.data_restores", self.data_restores);
        self.pipeline.collect_metrics(&mut registry, "serve");
        let c = &self.host.shared.counters;
        registry.counter_total("serve.requests.gets", c.gets.load(Ordering::Relaxed));
        registry.counter_total("serve.requests.puts", c.puts.load(Ordering::Relaxed));
        registry.counter_total("serve.requests.forwards", c.forwards.load(Ordering::Relaxed));
        registry.counter_total("serve.acks.ok", c.acks_ok.load(Ordering::Relaxed));
        registry.counter_total("serve.acks.not_found", c.acks_not_found.load(Ordering::Relaxed));
        registry
            .counter_total("serve.acks.unavailable", c.acks_unavailable.load(Ordering::Relaxed));
        // Series that exist only once their subject does, so a scrape
        // of a healthy memory-only cluster is byte-identical to older
        // builds: restarts, fault-plan errors, durability.
        if self.host.restarts > 0 {
            registry.counter_total("serve.restarts", self.host.restarts);
        }
        if self.fault_errors > 0 {
            registry.counter_total("serve.control.fault_errors", self.fault_errors);
        }
        let mut storage = StorageSnapshot::default();
        let mut durable = false;
        for s in &self.host.shared.stores {
            if let Some(stats) = s.storage() {
                storage.add(stats.snapshot());
                durable = true;
            }
        }
        if durable {
            storage.collect_metrics(&mut registry);
        }
        registry
    }

    fn finish(self) -> ControlStats {
        let registry = self.build_registry();
        ControlStats {
            ticks: self.pipeline.epoch(),
            replications: self.replications,
            migrations: self.migrations,
            suicides: self.suicides,
            repairs_completed: self.pipeline.repair_queue().completed(),
            dead_letters: self.pipeline.repair_queue().dead_letters(),
            invariant_violations: self.pipeline.auditor().total(),
            data_restores: self.data_restores,
            restarts: self.host.restarts,
            replicas_total: self.pipeline.manager().total_replicas(),
            registry,
        }
    }

    /// One control tick: the pipeline's epoch over the drained counters.
    fn step(&mut self) {
        if let Err(e) = self.pipeline.inject_faults(&mut self.host) {
            // A plan naming a server or link this topology lacks. What
            // it did before the bad entry has been followed through; the
            // pipeline halted the rest. Say so everywhere an operator
            // looks, and keep serving.
            self.fault_errors += 1;
            eprintln!("rfh serve: fault plan error at tick {}: {e}", self.pipeline.epoch());
            self.host.event(|| format!("fault plan error: {e}"));
        }
        self.scratch.clear_touched();
        self.host.shared.load.drain_sparse_into(&mut self.scratch);
        let snap = self.pipeline.run_epoch(&self.scratch, &mut self.host);
        self.replications += snap.replications as u64;
        self.migrations += snap.migrations as u64;
        self.suicides += snap.suicides as u64;
        self.data_restores += snap.data_loss as u64;
        self.record_tick_sample();
    }

    /// Drain the per-tick server-side latency histograms, compute this
    /// tick's deltas, append one [`TickSample`] to the timeline ring
    /// (with the pre-repair health gauges), and republish the control
    /// registry for the `/metrics` endpoint. No-op when telemetry is
    /// off, so the control loop's outputs match a pre-telemetry build.
    fn record_tick_sample(&mut self) {
        let Some((unavailable, below_floor)) = self.host.health.take() else {
            return;
        };
        let telemetry = &self.host.shared.telemetry;
        self.tick_hist.clear();
        telemetry.drain_tick(&mut self.tick_hist);

        let c = &self.host.shared.counters;
        let cur = TickCounters {
            ops: c.gets.load(Ordering::Relaxed) + c.puts.load(Ordering::Relaxed),
            forwards: c.forwards.load(Ordering::Relaxed),
            acks_ok: c.acks_ok.load(Ordering::Relaxed),
            acks_unavailable: c.acks_unavailable.load(Ordering::Relaxed),
            replications: self.replications,
            migrations: self.migrations,
            suicides: self.suicides,
            repairs_completed: self.pipeline.repair_queue().completed(),
            violations: self.pipeline.auditor().total(),
        };
        let prev = self.prev_counters;

        telemetry.push_sample(TickSample {
            // The pipeline has already moved on to the next epoch.
            tick: self.pipeline.epoch() - 1,
            ops: cur.ops - prev.ops,
            forwards: cur.forwards - prev.forwards,
            acks_ok: cur.acks_ok - prev.acks_ok,
            acks_unavailable: cur.acks_unavailable - prev.acks_unavailable,
            p50_us: self.tick_hist.quantile(0.5).unwrap_or(0.0),
            p99_us: self.tick_hist.quantile(0.99).unwrap_or(0.0),
            replicas_total: self.pipeline.manager().total_replicas() as u64,
            degraded: below_floor - unavailable,
            unavailable,
            replications: cur.replications - prev.replications,
            migrations: cur.migrations - prev.migrations,
            suicides: cur.suicides - prev.suicides,
            repairs: cur.repairs_completed - prev.repairs_completed,
            violations: cur.violations - prev.violations,
            events: std::mem::take(&mut self.host.tick_events),
        });
        self.prev_counters = cur;
        telemetry.publish_registry(self.build_registry());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::control_plane;
    use crate::config::ClusterConfig;
    use crate::store::NodeStore;
    use rfh_faults::{FaultAction, FaultPlan};
    use rfh_types::DatacenterId;

    /// A real controller over memory stores and addresses nobody dials:
    /// everything the control thread owns, minus the sockets.
    fn controller(config: &ClusterConfig, faults: FaultPlan) -> Controller {
        let pipeline = control_plane(config, &faults).unwrap();
        let n = pipeline.topology().server_count();
        let stores = (0..n).map(|_| NodeStore::new()).collect();
        let addrs = vec!["127.0.0.1:1".parse().unwrap(); n];
        Controller::new(Arc::new(Shared::new(config.telemetry, &pipeline, stores, addrs)), pipeline)
    }

    fn small(link_budget_bytes: Option<u64>) -> ClusterConfig {
        ClusterConfig {
            servers_per_rack: 1,
            partitions: 16,
            telemetry: true,
            link_budget_bytes,
            ..ClusterConfig::default()
        }
    }

    /// Skewed demand from two datacenters, so RFH has hubs to chase.
    fn offer_load(shared: &Shared, tick: u32) {
        for p in 0..shared.partitions {
            let n = 40 / (p + 1) + (tick + p) % 3;
            shared.load.add(PartitionId::new(p), DatacenterId::new(p % 2 * 7), n);
        }
    }

    /// The published data plane never drifts from the control plane:
    /// after every tick each route row is the manager's replica set and
    /// each route epoch is settled (even) — through a kill, a restart,
    /// a second kill and its recovery, with transfers rate-limited onto
    /// the deferred lane.
    #[test]
    fn routes_follow_the_manager_through_kill_recover_restart_under_a_budget() {
        let plan = FaultPlan::default()
            .at_restarting(2, FaultAction::FailServers(vec![ServerId::new(5)]), 3)
            .at(4, FaultAction::FailServers(vec![ServerId::new(11), ServerId::new(12)]))
            .at(9, FaultAction::RecoverServers(vec![ServerId::new(11), ServerId::new(12)]));
        let mut c = controller(&small(Some(512 << 10)), plan);
        for tick in 0..16 {
            offer_load(&c.host.shared, tick);
            c.step();
            let manager = c.pipeline.manager();
            for p in (0..16).map(PartitionId::new) {
                assert_eq!(c.host.shared.route(p), manager.replicas(p), "tick {tick} {p:?}");
                assert_eq!(c.host.shared.route_epoch(p) % 2, 0, "tick {tick} {p:?} unsettled");
            }
            let dead: &[u32] = match tick {
                0..=1 => &[],
                2..=3 => &[5],
                4 => &[5, 11, 12],
                5..=8 => &[11, 12],
                _ => &[],
            };
            for s in 0..20 {
                assert_eq!(c.host.shared.is_alive(s), !dead.contains(&(s as u32)), "tick {tick}");
            }
        }
        let (admitted, deferred) = c.pipeline.planner_counters();
        assert!(admitted > 0 && deferred > 0, "the budget must bind: {admitted}/{deferred}");
        let stats = c.finish();
        assert_eq!((stats.ticks, stats.restarts, stats.invariant_violations), (16, 1, 0));
        assert!(stats.replications > 0, "demand and repairs must have moved replicas");
        let names: Vec<&str> = stats.registry.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"serve.planner.deferred"), "a budget exposes the planner series");
        assert!(!names.contains(&"serve.control.fault_errors"), "a good plan raises no error");
    }

    /// A plan naming a server the topology lacks used to be swallowed
    /// whole, leaving whatever it had already killed dead in the
    /// topology but alive on the data plane. Now the partial epoch is
    /// followed through and the error is surfaced — once.
    #[test]
    fn a_bad_fault_plan_is_surfaced_once_and_what_it_did_is_followed() {
        let plan = FaultPlan::default()
            .at(1, FaultAction::FailServers(vec![ServerId::new(5), ServerId::new(9999)]))
            .at(3, FaultAction::FailServers(vec![ServerId::new(6)]));
        let mut c = controller(&small(None), plan);
        for tick in 0..6 {
            offer_load(&c.host.shared, tick);
            c.step();
        }
        assert_eq!(c.fault_errors, 1, "the plan is halted at its first error");
        assert!(!c.host.shared.is_alive(5), "s5 died before the bad id and the host heard");
        assert!(c.host.shared.is_alive(6), "nothing after the error is driven");
        let timeline = c.host.shared.telemetry.timeline();
        assert_eq!(timeline.len(), 6, "the loop keeps ticking");
        assert_eq!(timeline[1].events[0], "kill s5");
        assert!(timeline[1].events[1].starts_with("fault plan error: "), "{:?}", timeline[1]);
        assert!(timeline[2..].iter().all(|t| t.events.is_empty()));
        for p in (0..16).map(PartitionId::new) {
            assert!(!c.host.shared.route(p).contains(&ServerId::new(5)), "{p:?} routes to s5");
        }
        let stats = c.finish();
        assert_eq!(stats.invariant_violations, 0);
        assert_eq!(
            stats.registry.get("serve.control.fault_errors"),
            Some(&rfh_obs::Metric::Counter(1))
        );
    }
}
