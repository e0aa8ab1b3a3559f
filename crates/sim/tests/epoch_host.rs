//! What an [`EpochHost`] is promised: the order membership changes and
//! placement rewrites reach it in, one bracket per executed action, the
//! deferred lane ahead of fresh decisions, and outcome counts that
//! match what it saw. A recording fake stands where `rfh-serve` puts
//! its data plane.

use rfh_core::{Action, AppliedAction, EpochContext, ReplicaManager, ReplicationPolicy, RfhPolicy};
use rfh_faults::{FaultAction, FaultPlan};
use rfh_sim::{
    initial_placement, EpochHost, EpochPipeline, EpochSnapshot, PlannerConfig, SimParams,
};
use rfh_topology::paper_topology;
use rfh_types::{DatacenterId, PartitionId, Result, ServerId, SimConfig};
use rfh_workload::{QueryLoad, Scenario};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Seen {
    Failed(ServerId),
    Recovered(ServerId),
    Restarted(ServerId),
    Restored(PartitionId),
    Republish(Option<PartitionId>),
    Health,
    /// One `apply` bracket, closed: the action and whether it landed.
    Applied(Action, bool),
}

#[derive(Default)]
struct Recording {
    log: Vec<Seen>,
    open_brackets: u32,
}

impl EpochHost for Recording {
    fn node_failed(&mut self, id: ServerId) {
        self.log.push(Seen::Failed(id));
    }
    fn node_recovered(&mut self, id: ServerId) {
        self.log.push(Seen::Recovered(id));
    }
    fn node_restarted(&mut self, id: ServerId) {
        self.log.push(Seen::Restarted(id));
    }
    fn partition_restored(&mut self, manager: &ReplicaManager, p: PartitionId, to: ServerId) {
        assert_eq!(manager.replicas(p), [to], "restored onto exactly the reported server");
        self.log.push(Seen::Restored(p));
    }
    fn republish(&mut self, _manager: &ReplicaManager, p: Option<PartitionId>) {
        self.log.push(Seen::Republish(p));
    }
    fn entering_epoch(&mut self, _health: impl FnOnce() -> (u64, u64)) {
        self.log.push(Seen::Health);
    }
    fn apply(
        &mut self,
        manager: &mut ReplicaManager,
        action: Action,
        apply: impl FnOnce(&mut ReplicaManager) -> Result<AppliedAction>,
    ) -> Result<AppliedAction> {
        assert_eq!(self.open_brackets, 0, "brackets never nest");
        self.open_brackets += 1;
        let before = manager.replicas(action.partition()).to_vec();
        let applied = apply(manager);
        if applied.is_err() {
            assert_eq!(
                manager.replicas(action.partition()),
                before,
                "a rejected action is a no-op"
            );
        }
        self.open_brackets -= 1;
        self.log.push(Seen::Applied(action, applied.is_ok()));
        applied
    }
}

fn pipeline(
    policy: Box<dyn ReplicationPolicy + Send>,
    faults: &FaultPlan,
    budget: PlannerConfig,
) -> EpochPipeline {
    let cfg = SimConfig::default();
    let topo = paper_topology(cfg.capacity_spread, 42).unwrap();
    let (ring, manager) = initial_placement(&cfg, &topo).unwrap();
    EpochPipeline::new(cfg, topo, ring, manager, policy, faults, None).with_planner(budget)
}

/// The actions the host saw land, by kind, against the snapshot's.
fn assert_counts_match(log: &[Seen], snap: &EpochSnapshot, epoch: u64) {
    let landed = |want: fn(&Action) -> bool| {
        log.iter().filter(|s| matches!(s, Seen::Applied(a, true) if want(a))).count()
    };
    let got = (
        landed(|a| matches!(a, Action::Replicate { .. })),
        landed(|a| matches!(a, Action::Migrate { .. })),
        landed(|a| matches!(a, Action::Suicide { .. })),
        log.iter().filter(|s| matches!(s, Seen::Restored(_))).count(),
    );
    let want = (snap.replications, snap.migrations, snap.suicides, snap.data_loss);
    assert_eq!(got, want, "epoch {epoch}: (replications, migrations, suicides, restores)");
}

#[test]
fn the_host_hears_membership_first_and_every_action_exactly_once() {
    let victim = ServerId::new(17);
    let site = DatacenterId::new(3);
    let plan = FaultPlan::default()
        .at_restarting(5, FaultAction::FailServers(vec![victim]), 3)
        .at(12, FaultAction::FailDatacenter(site))
        .at(16, FaultAction::RecoverDatacenter(site));
    let cfg = SimConfig::default();
    let budget = PlannerConfig::budgeted(cfg.partition_size.0);
    let mut pl = pipeline(Box::new(RfhPolicy::new()), &plan, budget);
    let params = SimParams::paper(rfh_core::PolicyKind::Rfh, Scenario::RandomEven);
    let mut generator = params.workload_generator(10);
    let mut load = QueryLoad::zeros(cfg.partitions, 10);

    let mut host = Recording::default();
    let mut executed = 0usize;
    for epoch in 0..30 {
        host.log.clear();
        pl.inject_faults(&mut host).unwrap();
        let fault_stage = host.log.clone();
        generator.epoch_load_into(epoch, &mut load);
        let snap = pl.run_epoch(&load, &mut host);

        // Membership reaches the host before the prune sweep rewrites
        // placement, and the sweep is reported exactly when servers died.
        let rewrite = fault_stage.iter().position(|s| matches!(s, Seen::Republish(None)));
        let failed: Vec<usize> =
            (0..fault_stage.len()).filter(|&i| matches!(fault_stage[i], Seen::Failed(_))).collect();
        assert_eq!(rewrite.is_some(), !failed.is_empty(), "epoch {epoch}: {fault_stage:?}");
        assert!(failed.iter().all(|&i| i < rewrite.unwrap()), "epoch {epoch}: {fault_stage:?}");
        match epoch {
            5 => assert_eq!(fault_stage[0], Seen::Failed(victim)),
            8 => assert_eq!(fault_stage, [Seen::Restarted(victim)], "a restart is not a recovery"),
            12 => assert_eq!(failed.len(), 10, "the whole site goes down"),
            16 => assert_eq!(
                fault_stage.iter().filter(|s| matches!(s, Seen::Recovered(_))).count(),
                10
            ),
            _ => assert!(fault_stage.is_empty(), "epoch {epoch}: {fault_stage:?}"),
        }

        // The epoch proper: health is offered once, before any action.
        let epoch_stage = &host.log[fault_stage.len()..];
        let health = epoch_stage.iter().position(|s| *s == Seen::Health);
        let first_action = epoch_stage.iter().position(|s| matches!(s, Seen::Applied(..)));
        assert!(health.is_some() && first_action.is_none_or(|a| health.unwrap() < a));
        assert_eq!(host.open_brackets, 0);
        assert_counts_match(&host.log, &snap, epoch);
        executed += epoch_stage.iter().filter(|s| matches!(s, Seen::Applied(_, true))).count();
    }
    assert!(executed > 64, "RFH must have floor-replicated through the host: {executed}");
    let (admitted, deferred) = pl.planner_counters();
    assert!(
        admitted > 0 && deferred > 0,
        "a one-partition budget must bind: {admitted}/{deferred}"
    );
    assert_eq!(pl.auditor().total(), 0, "{:?}", pl.auditor().violations());
}

/// A policy that replays a script: `script[e]` is epoch `e`'s decision.
struct Scripted(Vec<Vec<Action>>);

impl ReplicationPolicy for Scripted {
    fn name(&self) -> &'static str {
        "Scripted"
    }
    fn decide(&mut self, ctx: &EpochContext<'_>, _manager: &ReplicaManager) -> Vec<Action> {
        self.0.get(ctx.epoch.0 as usize).cloned().unwrap_or_default()
    }
}

#[test]
fn deferred_moves_execute_ahead_of_fresh_ones_in_offered_order() {
    // Three partitions held in one datacenter, each replicated into one
    // other datacenter: three moves contending for a single WAN link
    // whose budget fits exactly one partition per epoch.
    let cfg = SimConfig::default();
    let topo = paper_topology(cfg.capacity_spread, 42).unwrap();
    let (_, manager) = initial_placement(&cfg, &topo).unwrap();
    let dc_of = |s: ServerId| topo.servers()[s.index()].datacenter;
    let home = dc_of(manager.holder(PartitionId::new(0)));
    let held_at_home: Vec<PartitionId> = (0..cfg.partitions)
        .map(PartitionId::new)
        .filter(|&p| dc_of(manager.holder(p)) == home)
        .collect();
    assert!(held_at_home.len() >= 4, "seed 42 holds {} partitions at {home:?}", held_at_home.len());
    let away: Vec<ServerId> =
        topo.servers().iter().filter(|s| s.datacenter != home).map(|s| s.id).collect();
    let far = dc_of(away[0]);
    let far_targets: Vec<ServerId> = away.iter().copied().filter(|&s| dc_of(s) == far).collect();
    let wan = |i: usize| Action::Replicate { partition: held_at_home[i], target: far_targets[i] };
    // A fourth move that crosses no WAN link at all: always admitted.
    let local = Action::Replicate {
        partition: held_at_home[3],
        target: topo
            .servers()
            .iter()
            .find(|s| s.datacenter == home && s.id != manager.holder(held_at_home[3]))
            .unwrap()
            .id,
    };

    let script = vec![vec![wan(0), wan(1), wan(2)], vec![local], vec![], vec![]];
    let budget = PlannerConfig::budgeted(cfg.partition_size.0);
    let mut pl = pipeline(Box::new(Scripted(script)), &FaultPlan::default(), budget);
    let load = QueryLoad::zeros(cfg.partitions, 10);
    let mut host = Recording::default();
    let mut per_epoch = Vec::new();
    for _ in 0..4 {
        host.log.clear();
        pl.inject_faults(&mut host).unwrap();
        let snap = pl.run_epoch(&load, &mut host);
        let applied: Vec<Action> = host
            .log
            .iter()
            .filter_map(|s| match s {
                Seen::Applied(a, ok) => Some((*a, *ok)),
                _ => None,
            })
            .map(|(a, ok)| {
                assert!(ok, "nothing here is rejected: {a:?}");
                a
            })
            .collect();
        assert_eq!(applied.len(), snap.replications, "every bracket is one counted replication");
        per_epoch.push((applied, snap.repairs));
    }
    assert_eq!(
        per_epoch,
        [
            (vec![wan(0)], 0),        // one fits; two go to the deferred lane
            (vec![wan(1), local], 1), // the older deferral first, then the fresh move
            (vec![wan(2)], 1),
            (vec![], 0),
        ]
    );
    assert_eq!(pl.planner_counters(), (4, 3), "wan(1) deferred once, wan(2) twice");
    assert_eq!(pl.repair_queue().completed(), 2);
}
