//! Deterministic replay of a [`FaultPlan`] against a live topology.
//!
//! The injector is driven once per epoch, *before* the workload runs,
//! and performs three passes in a fixed order:
//!
//! 1. **Repairs** — churn-failed servers whose repair time has elapsed
//!    come back (in server-id order).
//! 2. **Scheduled faults** — every [`ScheduledFault`] due at or before
//!    this epoch fires, in epoch order, ties in plan order.
//! 3. **Churn draws** — each server alive at this point fails with
//!    probability `1/mtbf`, drawing its repair time from an exponential
//!    with mean `mttr`.
//!
//! All randomness comes from one `StdRng` seeded by the plan, entirely
//! separate from the simulation's workload seed: the same `(plan,
//! topology)` pair replays the exact same fault sequence, which is what
//! makes chaos runs diffable bit for bit.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rfh_topology::Topology;
use rfh_types::{DatacenterId, Result, ServerId};

use crate::plan::{ChurnConfig, FaultAction, FaultPlan, ScheduledFault};

/// What the injector did to the cluster this epoch. Consumed by the
/// simulation to account repairs, arm the invariant auditor, and apply
/// the sticky gray-failure knobs (message loss, bandwidth cuts).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochFaultReport {
    /// Servers that went down this epoch (scheduled + churn), in
    /// application order.
    pub failed: Vec<ServerId>,
    /// Servers that came back this epoch (scheduled + repairs).
    pub recovered: Vec<ServerId>,
    /// Servers that came back this epoch as a *process restart* (the
    /// `restart_after` verb): the host must treat them as freshly
    /// relaunched — empty memory, logs replayed — not merely healed.
    pub restarted: Vec<ServerId>,
    /// Whether any WAN link changed state/latency (routes recomputed
    /// via the topology generation bump).
    pub routes_changed: bool,
    /// New control-plane per-hop drop probability, when a
    /// [`FaultAction::MessageLoss`] fired (sticky until the next one).
    pub message_loss: Option<f64>,
    /// New (replication, migration) bandwidth factors, when a
    /// [`FaultAction::Bandwidth`] fired (sticky until the next one).
    pub bandwidth: Option<(f64, f64)>,
    /// How many servers a [`FaultAction::FailRandom`] asked for beyond
    /// the alive population (the request is clamped, never an error).
    pub random_shortfall: u32,
    /// Number of scheduled plan entries applied this epoch.
    pub injected: u32,
}

impl EpochFaultReport {
    /// `true` when the epoch saw any fault activity at all.
    pub fn any(&self) -> bool {
        !self.failed.is_empty()
            || !self.recovered.is_empty()
            || !self.restarted.is_empty()
            || self.routes_changed
            || self.message_loss.is_some()
            || self.bandwidth.is_some()
            || self.injected > 0
    }
}

/// Replays one [`FaultPlan`] epoch by epoch. See the module docs for
/// the pass order and determinism contract.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    scheduled: Vec<ScheduledFault>,
    cursor: usize,
    churn: Option<ChurnConfig>,
    rng: StdRng,
    /// Churn-failed servers awaiting repair: `(recover_at, id)`.
    repairs: Vec<(u64, ServerId)>,
    /// Kill-then-restart victims awaiting relaunch: `(restart_at, id)`.
    restarts: Vec<(u64, ServerId)>,
    /// Links cut by `Partition` actions, for `HealPartition`.
    partition_cut: Vec<(DatacenterId, DatacenterId)>,
}

impl FaultInjector {
    /// Build an injector, or `None` for an empty plan — the zero-cost
    /// path: a run without faults never touches this module again.
    pub fn new(plan: &FaultPlan) -> Option<Self> {
        if plan.is_empty() {
            return None;
        }
        let mut scheduled = plan.scheduled.clone();
        scheduled.sort_by_key(|s| s.epoch);
        Some(FaultInjector {
            scheduled,
            cursor: 0,
            churn: plan.churn.clone(),
            rng: StdRng::seed_from_u64(plan.seed ^ 0x4641_554C_5453), // "FAULTS"
            repairs: Vec::new(),
            restarts: Vec::new(),
            partition_cut: Vec::new(),
        })
    }

    /// Apply everything due at `epoch`. Call exactly once per epoch,
    /// with monotonically increasing epochs.
    ///
    /// # Errors
    /// Fails when a scheduled action names an entity the topology does
    /// not have (bad plan file); the topology is left with every prior
    /// action applied.
    pub fn begin_epoch(&mut self, epoch: u64, topo: &mut Topology) -> Result<EpochFaultReport> {
        let mut report = EpochFaultReport::default();
        self.begin_epoch_into(epoch, topo, &mut report)?;
        Ok(report)
    }

    /// [`begin_epoch`](Self::begin_epoch) into a caller-owned report:
    /// on an error `report` still describes every action that was
    /// applied before it, so the host can follow the topology instead
    /// of losing track of servers the failed epoch already took down.
    pub fn begin_epoch_into(
        &mut self,
        epoch: u64,
        topo: &mut Topology,
        report: &mut EpochFaultReport,
    ) -> Result<()> {
        // 1. Repairs due. Sorted by id so the recovery order never
        // depends on failure order.
        let mut due: Vec<ServerId> = Vec::new();
        self.repairs.retain(|&(at, id)| {
            if at <= epoch {
                due.push(id);
                false
            } else {
                true
            }
        });
        due.sort_unstable();
        for id in due {
            // A scheduled recovery may have beaten the repair clock;
            // only effective transitions are reported.
            if topo.recover_server(id)? {
                report.recovered.push(id);
            }
        }

        // 1b. Restarts due — same ordering discipline as repairs, but
        // reported separately so the host replays the node's log
        // instead of treating it as merely healed.
        let mut due: Vec<ServerId> = Vec::new();
        self.restarts.retain(|&(at, id)| {
            if at <= epoch {
                due.push(id);
                false
            } else {
                true
            }
        });
        due.sort_unstable();
        for id in due {
            if topo.recover_server(id)? {
                report.restarted.push(id);
            }
        }

        // 2. Scheduled faults due. A fail action carrying
        // `restart_after = m` queues everyone it just took down for a
        // process restart at `epoch + m`.
        while self.cursor < self.scheduled.len() && self.scheduled[self.cursor].epoch <= epoch {
            let action = self.scheduled[self.cursor].action.clone();
            let restart_after = self.scheduled[self.cursor].restart_after;
            self.cursor += 1;
            report.injected += 1;
            let before = report.failed.len();
            self.apply(action, topo, report)?;
            if let Some(m) = restart_after {
                for &id in &report.failed[before..] {
                    self.restarts.push((epoch + m, id));
                }
            }
        }

        // 3. Churn draws over the currently-alive population.
        if let Some(c) = self.churn.clone() {
            if epoch >= c.start && c.end.is_none_or(|end| epoch < end) {
                let p_fail = 1.0 / c.mtbf;
                let alive: Vec<ServerId> =
                    topo.servers().iter().filter(|s| s.alive).map(|s| s.id).collect();
                for id in alive {
                    if self.rng.gen::<f64>() < p_fail {
                        topo.fail_server(id)?;
                        report.failed.push(id);
                        // Exponential repair time, mean mttr, ≥ 1 epoch.
                        let u: f64 = self.rng.gen();
                        let ttr = (-c.mttr * (1.0 - u).ln()).ceil().max(1.0) as u64;
                        self.repairs.push((epoch + ttr, id));
                    }
                }
            }
        }
        Ok(())
    }

    /// Stop driving the plan: nothing further is scheduled, drawn,
    /// repaired or restarted. For hosts that outlive a bad plan.
    pub fn halt(&mut self) {
        self.cursor = self.scheduled.len();
        self.churn = None;
        self.repairs.clear();
        self.restarts.clear();
    }

    /// Servers currently down due to churn, awaiting their repair time.
    pub fn pending_repairs(&self) -> usize {
        self.repairs.len()
    }

    fn apply(
        &mut self,
        action: FaultAction,
        topo: &mut Topology,
        report: &mut EpochFaultReport,
    ) -> Result<()> {
        match action {
            FaultAction::FailDatacenter(dc) => {
                report.failed.extend(topo.fail_domain(dc, None, None)?);
            }
            FaultAction::RecoverDatacenter(dc) => {
                report.recovered.extend(topo.recover_domain(dc, None, None)?);
            }
            FaultAction::FailRoom(dc, room) => {
                report.failed.extend(topo.fail_domain(dc, Some(room), None)?);
            }
            FaultAction::RecoverRoom(dc, room) => {
                report.recovered.extend(topo.recover_domain(dc, Some(room), None)?);
            }
            FaultAction::FailRack(dc, room, rack) => {
                report.failed.extend(topo.fail_domain(dc, Some(room), Some(rack))?);
            }
            FaultAction::RecoverRack(dc, room, rack) => {
                report.recovered.extend(topo.recover_domain(dc, Some(room), Some(rack))?);
            }
            FaultAction::FailServers(ids) => {
                for id in ids {
                    if topo.fail_server(id)? {
                        report.failed.push(id);
                    }
                }
            }
            FaultAction::RecoverServers(ids) => {
                for id in ids {
                    if topo.recover_server(id)? {
                        report.recovered.push(id);
                    }
                }
            }
            FaultAction::FailRandom(n) => {
                let got = topo.fail_random_servers(n as usize, &mut self.rng);
                report.random_shortfall += n - got.len() as u32;
                report.failed.extend(got);
            }
            FaultAction::LinkDown(a, b) => {
                report.routes_changed |= topo.set_link_state(a, b, false)?;
            }
            FaultAction::LinkUp(a, b) => {
                report.routes_changed |= topo.set_link_state(a, b, true)?;
            }
            FaultAction::LinkLatency(a, b, factor) => {
                report.routes_changed |= topo.set_link_latency_factor(a, b, factor)?;
            }
            FaultAction::Partition(island) => {
                let cut = topo.isolate_island(&island);
                report.routes_changed |= !cut.is_empty();
                self.partition_cut.extend(cut);
            }
            FaultAction::HealPartition => {
                for (a, b) in std::mem::take(&mut self.partition_cut) {
                    // The link exists (it came from the cut), but may
                    // already be back up via an explicit LinkUp.
                    report.routes_changed |= topo.set_link_state(a, b, true)?;
                }
            }
            FaultAction::MessageLoss(p) => report.message_loss = Some(p),
            FaultAction::Bandwidth(r, m) => report.bandwidth = Some((r, m)),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_topology::TopologyBuilder;
    use rfh_types::{Continent, GeoPoint};

    /// Triangle backbone A(0)-B(1)-C(2), two servers per DC.
    fn topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let a = b
            .datacenter("A", Continent::NorthAmerica, "USA", "A1", GeoPoint::new(0.0, 0.0), 1, 1, 2)
            .unwrap();
        let c = b
            .datacenter("B", Continent::Europe, "DEU", "B1", GeoPoint::new(50.0, 8.0), 1, 1, 2)
            .unwrap();
        let d = b
            .datacenter("C", Continent::Asia, "CHN", "C1", GeoPoint::new(31.0, 121.0), 1, 1, 2)
            .unwrap();
        b.link(a, c, 90.0).unwrap();
        b.link(a, d, 160.0).unwrap();
        b.link(c, d, 110.0).unwrap();
        b.build(0.0, 7).unwrap()
    }

    fn dc(i: u32) -> DatacenterId {
        DatacenterId::new(i)
    }

    #[test]
    fn empty_plan_builds_no_injector() {
        assert!(FaultInjector::new(&FaultPlan::default()).is_none());
        let nonempty = FaultPlan::default().at(1, FaultAction::HealPartition);
        assert!(FaultInjector::new(&nonempty).is_some());
    }

    #[test]
    fn scheduled_outage_fires_at_its_epoch_and_heals() {
        let plan = FaultPlan::default()
            .at(2, FaultAction::FailDatacenter(dc(1)))
            .at(5, FaultAction::RecoverDatacenter(dc(1)));
        let mut inj = FaultInjector::new(&plan).unwrap();
        let mut t = topo();
        let before = t.alive_server_count();
        for e in 0..2 {
            assert!(!inj.begin_epoch(e, &mut t).unwrap().any(), "nothing due at t{e}");
        }
        let r = inj.begin_epoch(2, &mut t).unwrap();
        assert_eq!(r.failed.len(), 2, "both of dc1's servers go dark together");
        assert_eq!(r.injected, 1);
        assert_eq!(t.alive_server_count(), before - 2);
        for e in 3..5 {
            assert!(!inj.begin_epoch(e, &mut t).unwrap().any());
        }
        let r = inj.begin_epoch(5, &mut t).unwrap();
        assert_eq!(r.recovered.len(), 2);
        assert_eq!(t.alive_server_count(), before);
    }

    #[test]
    fn partition_and_heal_roundtrip_routes() {
        let plan = FaultPlan::default()
            .at(1, FaultAction::Partition(vec![dc(2)]))
            .at(3, FaultAction::HealPartition);
        let mut inj = FaultInjector::new(&plan).unwrap();
        let mut t = topo();
        let healthy = t.graph().latency_ms(dc(0), dc(2)).unwrap();
        inj.begin_epoch(0, &mut t).unwrap();
        let r = inj.begin_epoch(1, &mut t).unwrap();
        assert!(r.routes_changed);
        assert!(t.graph().latency_ms(dc(0), dc(2)).is_none(), "island unreachable");
        assert!(t.graph().latency_ms(dc(0), dc(1)).is_some(), "mainland intact");
        inj.begin_epoch(2, &mut t).unwrap();
        let r = inj.begin_epoch(3, &mut t).unwrap();
        assert!(r.routes_changed);
        assert_eq!(t.graph().latency_ms(dc(0), dc(2)), Some(healthy), "heal is exact");
    }

    #[test]
    fn gray_failure_knobs_pass_through() {
        let plan = FaultPlan::default()
            .at(4, FaultAction::MessageLoss(0.25))
            .at(4, FaultAction::Bandwidth(0.5, 0.1));
        let mut inj = FaultInjector::new(&plan).unwrap();
        let mut t = topo();
        for e in 0..4 {
            inj.begin_epoch(e, &mut t).unwrap();
        }
        let r = inj.begin_epoch(4, &mut t).unwrap();
        assert_eq!(r.message_loss, Some(0.25));
        assert_eq!(r.bandwidth, Some((0.5, 0.1)));
        assert!(r.failed.is_empty() && !r.routes_changed, "knobs touch no hardware");
    }

    #[test]
    fn fail_random_overcount_clamps_and_reports_shortfall() {
        let plan = FaultPlan::default().at(0, FaultAction::FailRandom(100));
        let mut inj = FaultInjector::new(&plan).unwrap();
        let mut t = topo();
        let r = inj.begin_epoch(0, &mut t).unwrap();
        assert_eq!(r.failed.len(), 6, "all six alive servers fall");
        assert_eq!(r.random_shortfall, 94);
        assert_eq!(t.alive_server_count(), 0);
    }

    #[test]
    fn churn_is_deterministic_and_repairs_complete() {
        let plan = FaultPlan {
            seed: 9,
            scheduled: Vec::new(),
            churn: Some(ChurnConfig { mtbf: 8.0, mttr: 3.0, start: 0, end: Some(40) }),
        };
        let run = || {
            let mut inj = FaultInjector::new(&plan).unwrap();
            let mut t = topo();
            let mut trace = Vec::new();
            for e in 0..80 {
                let r = inj.begin_epoch(e, &mut t).unwrap();
                trace.push((e, r.failed, r.recovered));
            }
            (trace, inj.pending_repairs(), t.alive_server_count())
        };
        let (trace_a, pending_a, alive_a) = run();
        let (trace_b, pending_b, alive_b) = run();
        assert_eq!(trace_a, trace_b, "same plan → bit-identical fault sequence");
        assert_eq!((pending_a, alive_a), (pending_b, alive_b));
        // With mtbf 8 over 40 epochs something must have failed…
        assert!(trace_a.iter().any(|(_, f, _)| !f.is_empty()), "churn actually churns");
        // …and 40 epochs after the draw window closed, every repair
        // (mean 3 epochs) has long completed.
        assert_eq!(pending_a, 0);
        assert_eq!(alive_a, 6, "all servers healed after churn ends");
    }

    #[test]
    fn restart_after_kills_then_restarts() {
        let plan = FaultPlan::default().at_restarting(
            1,
            FaultAction::FailServers(vec![ServerId::new(0), ServerId::new(3)]),
            2,
        );
        let mut inj = FaultInjector::new(&plan).unwrap();
        let mut t = topo();
        assert!(!inj.begin_epoch(0, &mut t).unwrap().any());
        let r = inj.begin_epoch(1, &mut t).unwrap();
        assert_eq!(r.failed, vec![ServerId::new(0), ServerId::new(3)]);
        assert!(r.restarted.is_empty(), "victims stay down until epoch + 2");
        assert!(!inj.begin_epoch(2, &mut t).unwrap().any());
        let r = inj.begin_epoch(3, &mut t).unwrap();
        assert_eq!(r.restarted, vec![ServerId::new(0), ServerId::new(3)]);
        assert!(r.recovered.is_empty(), "a restart is not a plain recovery");
        assert_eq!(t.alive_server_count(), 6);
    }

    #[test]
    fn scheduled_recovery_beats_a_pending_restart() {
        let plan = FaultPlan::default()
            .at_restarting(0, FaultAction::FailServers(vec![ServerId::new(1)]), 5)
            .at(2, FaultAction::RecoverServers(vec![ServerId::new(1)]));
        let mut inj = FaultInjector::new(&plan).unwrap();
        let mut t = topo();
        inj.begin_epoch(0, &mut t).unwrap();
        inj.begin_epoch(1, &mut t).unwrap();
        let r = inj.begin_epoch(2, &mut t).unwrap();
        assert_eq!(r.recovered, vec![ServerId::new(1)]);
        for e in 3..=6 {
            let r = inj.begin_epoch(e, &mut t).unwrap();
            assert!(r.restarted.is_empty(), "already-alive server is not restarted at t{e}");
        }
    }

    #[test]
    fn bad_plan_entity_surfaces_as_error() {
        let plan = FaultPlan::default().at(0, FaultAction::FailDatacenter(dc(99)));
        let mut inj = FaultInjector::new(&plan).unwrap();
        let mut t = topo();
        assert!(inj.begin_epoch(0, &mut t).is_err());
    }

    #[test]
    fn a_failed_epoch_still_reports_what_it_applied_and_halt_ends_the_plan() {
        let plan = FaultPlan::default()
            .at(0, FaultAction::FailServers(vec![ServerId::new(1), ServerId::new(99)]))
            .at(1, FaultAction::FailServers(vec![ServerId::new(2)]));
        let mut inj = FaultInjector::new(&plan).unwrap();
        let mut t = topo();
        let mut report = EpochFaultReport::default();
        assert!(inj.begin_epoch_into(0, &mut t, &mut report).is_err());
        assert_eq!(report.failed, vec![ServerId::new(1)], "s1 went down before the bad id");
        inj.halt();
        assert!(!inj.begin_epoch(1, &mut t).unwrap().any(), "a halted plan injects nothing");
    }
}
