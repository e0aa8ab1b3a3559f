//! The distributed RFH decision agent.
//!
//! [`DistributedRfhPolicy`] runs the same decision tree as
//! `rfh_core::RfhPolicy` (they share `RfhDecisionCore`), but the
//! information the holder decides on arrives the way §II-B says it
//! does: every datacenter that carried traffic for a partition
//! piggybacks a [`MessagePayload::TrafficReport`] — its smoothed
//! arrival and forwarding traffic, its best replica host, and that
//! host's blocking probability (§II-E) — onto the query stream toward
//! the partition holder, hop by hop over the WAN.
//!
//! The holder then evaluates eqs. 12–16 against its *report table*
//! instead of an omniscient traffic grid. Locality discipline:
//!
//! * the holder reads its **own** datacenter's traffic and candidate
//!   live (node-local state);
//! * every **remote** value comes from the last delivered report;
//! * `q̄` (eq. 10) is system-wide knowledge in the paper (it only needs
//!   the global query count) and is read from the shared smoother;
//! * the unserved residual is observed at the holder itself — those are
//!   exactly the queries that reached it unserved.
//!
//! With a tick budget covering the WAN diameter every report lands in
//! the epoch it was generated, and the distributed agent's decisions
//! are **identical** to the centralized agent's (integration-tested).
//! With a starved budget (e.g. one hop per epoch) reports arrive stale,
//! decisions lag the workload, and the cost of a slow control plane
//! becomes measurable.

use crate::message::{Message, MessagePayload};
use crate::network::{Network, NetworkFaults};
use rfh_core::{
    best_candidate_in_dc, rfh::bootstrap_candidate_near, Action, EpochContext, ReplicaManager,
    ReplicationPolicy, RfhDecisionCore, TrafficView,
};
use rfh_obs::{ProfileReport, Profiler, PHASE_DECIDE, PHASE_NETWORK};
use rfh_stats::min_replica_count;
use rfh_types::{DatacenterId, Epoch, PartitionId, ServerId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cloneable, thread-safe handle onto the agent's control-plane
/// counters. Take one with [`DistributedRfhPolicy::stats`] *before*
/// boxing the agent into a simulation; the handle keeps reporting while
/// the simulation runs.
#[derive(Debug, Clone, Default)]
pub struct ControlPlaneStats {
    inner: Arc<StatsInner>,
}

#[derive(Debug, Default)]
struct StatsInner {
    reports_sent: AtomicU64,
    control_hops: AtomicU64,
    in_flight: AtomicU64,
}

impl ControlPlaneStats {
    /// Traffic reports emitted so far.
    pub fn reports_sent(&self) -> u64 {
        self.inner.reports_sent.load(Ordering::Relaxed)
    }

    /// WAN hops travelled by the control plane so far.
    pub fn control_hops(&self) -> u64 {
        self.inner.control_hops.load(Ordering::Relaxed)
    }

    /// Reports still in flight after the last epoch.
    pub fn reports_in_flight(&self) -> u64 {
        self.inner.in_flight.load(Ordering::Relaxed)
    }
}

/// A remote datacenter's last delivered report for one partition.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ReportEntry {
    traffic: f64,
    outflow: f64,
    candidate: Option<ServerId>,
    observed_at: Epoch,
}

/// The message-passing RFH agent.
#[derive(Debug, Clone)]
pub struct DistributedRfhPolicy {
    core: RfhDecisionCore,
    use_blocking: bool,
    ticks_per_epoch: usize,
    network: Option<Network>,
    /// `tables[partition][reporter dc] → last delivered report`.
    tables: Vec<HashMap<u32, ReportEntry>>,
    /// Gray-failure profile for the control plane; installed on the
    /// network as soon as it exists.
    fault_profile: Option<NetworkFaults>,
    reports_sent: u64,
    stats: ControlPlaneStats,
    /// Times the control-plane tick vs the decision pass (disabled by
    /// default; see [`DistributedRfhPolicy::enable_profiling`]).
    profiler: Profiler,
}

impl DistributedRfhPolicy {
    /// Agent whose control plane advances `ticks_per_epoch` WAN hops per
    /// epoch. A budget of at least the WAN diameter (5 for the paper
    /// topology) reproduces the centralized agent exactly; 1 models a
    /// control plane an order of magnitude slower than the epochs.
    pub fn new(ticks_per_epoch: usize) -> Self {
        DistributedRfhPolicy {
            core: RfhDecisionCore::new(5),
            use_blocking: true,
            ticks_per_epoch,
            network: None,
            tables: Vec::new(),
            fault_profile: None,
            reports_sent: 0,
            stats: ControlPlaneStats::default(),
            profiler: Profiler::new(false),
        }
    }

    /// Turn per-phase timing of the agent on or off: the WAN tick
    /// (report emission, delivery, absorption) vs the decision pass.
    pub fn enable_profiling(&mut self, enabled: bool) {
        self.profiler = Profiler::new(enabled);
    }

    /// Subject the control plane to gray failures: per-hop report loss
    /// and a TTL after which a stalled report times out instead of
    /// counting as delivered. `None` restores a perfect transport.
    pub fn set_network_faults(&mut self, profile: Option<NetworkFaults>) {
        self.fault_profile = profile.clone();
        if let Some(network) = self.network.as_mut() {
            network.set_faults(profile);
        }
    }

    /// The accumulated phase timings (empty unless profiling is on).
    pub fn profile(&self) -> ProfileReport {
        self.profiler.report()
    }

    /// Export the agent's control-plane metrics (report volume plus the
    /// underlying network's counters) into a registry.
    pub fn collect_metrics(&self, registry: &mut rfh_obs::MetricsRegistry) {
        registry.counter_total("net.reports_sent", self.reports_sent);
        if let Some(network) = &self.network {
            network.collect_metrics(registry);
        }
    }

    /// A cloneable handle onto the control-plane counters; keeps
    /// working after the agent is boxed into a simulation.
    pub fn stats(&self) -> ControlPlaneStats {
        self.stats.clone()
    }

    /// Total traffic reports emitted so far (control-plane volume).
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    /// Total WAN hops travelled by the control plane so far.
    pub fn control_hops(&self) -> u64 {
        self.network.as_ref().map(|n| n.hops_travelled()).unwrap_or(0)
    }

    /// Reports still in flight (non-zero only under starved budgets).
    pub fn reports_in_flight(&self) -> usize {
        self.network.as_ref().map(|n| n.in_flight()).unwrap_or(0)
    }

    fn ensure_shapes(&mut self, partitions: u32, dcs: usize) {
        if self.network.is_none() {
            let mut network = Network::new(dcs, self.ticks_per_epoch);
            network.set_faults(self.fault_profile.clone());
            self.network = Some(network);
        }
        if self.tables.len() < partitions as usize {
            self.tables.resize_with(partitions as usize, HashMap::new);
        }
    }

    /// Reporter side: every datacenter that has (smoothed) traffic or
    /// forwarding traffic for a partition piggybacks a report toward the
    /// partition holder.
    fn emit_reports(&mut self, ctx: &EpochContext<'_>, manager: &ReplicaManager) {
        let dcs = ctx.topo.datacenters().len() as u32;
        let network = self.network.as_mut().expect("shapes ensured");
        for p_idx in 0..manager.partitions() {
            let p = PartitionId::new(p_idx);
            let holder_dc = ctx.topo.servers()[manager.holder(p).index()].datacenter;
            for dc_idx in 0..dcs {
                let dc = DatacenterId::new(dc_idx);
                if dc == holder_dc {
                    continue; // holder reads its own state live
                }
                let traffic = ctx.smoother.traffic(dc, p);
                let outflow = ctx.smoother.outflow(dc, p);
                if traffic <= 0.0 && outflow <= 0.0 {
                    continue; // nothing to piggyback on
                }
                // The reporter evaluates its own datacenter's capacity —
                // node-local knowledge (§II-B: "calculates its …
                // replication storage capacity"; §II-E: BP piggybacked).
                let candidate =
                    best_candidate_in_dc(ctx.topo, manager, ctx.blocking, self.use_blocking, p, dc);
                let blocking_probability =
                    candidate.map(|s| ctx.blocking[s.index()]).unwrap_or(1.0);
                let Some(route) = ctx.topo.path(dc, holder_dc) else {
                    continue; // partitioned WAN: the report is lost
                };
                self.reports_sent += 1;
                network.send(Message::new(
                    route,
                    MessagePayload::TrafficReport {
                        partition: p,
                        reporter: dc,
                        traffic,
                        outflow,
                        candidate,
                        blocking_probability,
                        observed_at: ctx.epoch,
                    },
                ));
            }
        }
    }

    /// Holder side: fold every delivered report into the tables.
    fn absorb_deliveries(&mut self, dcs: usize) {
        let network = self.network.as_mut().expect("shapes ensured");
        for dc_idx in 0..dcs {
            for message in network.drain_inbox(DatacenterId::new(dc_idx as u32)) {
                let MessagePayload::TrafficReport {
                    partition,
                    reporter,
                    traffic,
                    outflow,
                    candidate,
                    observed_at,
                    ..
                } = message.payload;
                let table = &mut self.tables[partition.index()];
                let stale = table.get(&reporter.0).is_some_and(|e| e.observed_at > observed_at);
                if !stale {
                    table.insert(
                        reporter.0,
                        ReportEntry { traffic, outflow, candidate, observed_at },
                    );
                }
            }
        }
    }
}

/// The holder's view: own datacenter live, remote datacenters from the
/// report table.
struct ReportView<'a> {
    ctx: &'a EpochContext<'a>,
    manager: &'a ReplicaManager,
    tables: &'a [HashMap<u32, ReportEntry>],
    use_blocking: bool,
}

impl ReportView<'_> {
    fn holder_dc(&self, p: PartitionId) -> DatacenterId {
        self.ctx.topo.servers()[self.manager.holder(p).index()].datacenter
    }

    fn entry(&self, p: PartitionId, dc: DatacenterId) -> Option<&ReportEntry> {
        self.tables[p.index()].get(&dc.0)
    }
}

impl TrafficView for ReportView<'_> {
    fn datacenters(&self) -> u32 {
        self.ctx.topo.datacenters().len() as u32
    }
    fn q_avg(&self, p: PartitionId) -> f64 {
        self.ctx.smoother.q_avg(p)
    }
    fn traffic(&self, dc: DatacenterId, p: PartitionId) -> f64 {
        if dc == self.holder_dc(p) {
            self.ctx.smoother.traffic(dc, p)
        } else {
            self.entry(p, dc).map(|e| e.traffic).unwrap_or(0.0)
        }
    }
    fn outflow(&self, dc: DatacenterId, p: PartitionId) -> f64 {
        if dc == self.holder_dc(p) {
            self.ctx.smoother.outflow(dc, p)
        } else {
            self.entry(p, dc).map(|e| e.outflow).unwrap_or(0.0)
        }
    }
    fn unserved(&self, p: PartitionId) -> f64 {
        self.ctx.accounts.unserved[p.index()]
    }
    fn candidate(&self, p: PartitionId, dc: DatacenterId) -> Option<ServerId> {
        if dc == self.holder_dc(p) {
            best_candidate_in_dc(
                self.ctx.topo,
                self.manager,
                self.ctx.blocking,
                self.use_blocking,
                p,
                dc,
            )
        } else {
            // Trust the reporter's piggybacked candidate, but re-check
            // acceptance against the holder's current replica map so a
            // same-epoch earlier action cannot double-place.
            self.entry(p, dc).and_then(|e| e.candidate).filter(|&s| self.manager.can_accept(p, s))
        }
    }
    fn bootstrap_candidate(&self, p: PartitionId, holder_dc: DatacenterId) -> Option<ServerId> {
        // A one-hop capacity probe of the holder's WAN neighbours —
        // node-local routing knowledge plus a direct exchange with
        // adjacent datacenters (sub-epoch round trip).
        bootstrap_candidate_near(
            self.ctx.topo,
            self.manager,
            self.ctx.blocking,
            self.use_blocking,
            p,
            holder_dc,
        )
    }
    fn blocking_of(&self, s: ServerId) -> f64 {
        // Trace annotation only, never a decision input — so reading the
        // simulator's blocking vector does not break locality.
        self.ctx.blocking.get(s.index()).copied().unwrap_or(f64::NAN)
    }
}

impl ReplicationPolicy for DistributedRfhPolicy {
    fn name(&self) -> &'static str {
        "RFH-dist"
    }

    fn decide(&mut self, ctx: &EpochContext<'_>, manager: &ReplicaManager) -> Vec<Action> {
        let dcs = ctx.topo.datacenters().len();
        self.ensure_shapes(manager.partitions(), dcs);

        let net_t0 = self.profiler.start();
        // 1. Reporters piggyback this epoch's observations.
        self.emit_reports(ctx, manager);
        // 2. The WAN carries them for this epoch's tick budget.
        self.network.as_mut().expect("shapes ensured").run_epoch();
        // 3. Holders fold delivered reports into their tables.
        self.absorb_deliveries(dcs);
        self.profiler.stop(PHASE_NETWORK, net_t0);
        // Publish control-plane counters to any stats handles.
        let net = self.network.as_ref().expect("shapes ensured");
        self.stats.inner.reports_sent.store(self.reports_sent, Ordering::Relaxed);
        self.stats.inner.control_hops.store(net.hops_travelled(), Ordering::Relaxed);
        self.stats.inner.in_flight.store(net.in_flight() as u64, Ordering::Relaxed);
        // 4. The shared decision tree runs over the report view.
        let r_min =
            min_replica_count(ctx.config.failure_rate, ctx.config.min_availability) as usize;
        let view =
            ReportView { ctx, manager, tables: &self.tables, use_blocking: self.use_blocking };
        let decide_t0 = self.profiler.start();
        let actions = self.core.decide(
            ctx.epoch,
            &ctx.config.thresholds,
            r_min,
            ctx.topo,
            manager,
            ctx.view,
            &view,
            ctx.recorder,
            "RFH-dist",
            None,
        );
        self.profiler.stop(PHASE_DECIDE, decide_t0);
        actions
    }

    fn set_message_loss(&mut self, probability: f64) {
        // TTL of two epochs' worth of ticks: a report that lossy links
        // stalled for that long is stale anyway.
        let ttl = (self.ticks_per_epoch as u32).saturating_mul(2).max(1);
        let profile = (probability > 0.0).then(|| NetworkFaults {
            drop_probability: probability,
            ttl_ticks: Some(ttl),
            // Derived, not random: the same loss level always corrupts
            // the transport the same way, keeping runs replayable.
            seed: probability.to_bits(),
        });
        self.set_network_faults(profile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_counters_start_empty() {
        let agent = DistributedRfhPolicy::new(8);
        assert_eq!(agent.reports_sent(), 0);
        assert_eq!(agent.control_hops(), 0);
        assert_eq!(agent.reports_in_flight(), 0);
        assert_eq!(agent.name(), "RFH-dist");
    }
}
