//! End-to-end chaos: fault plans drive the simulator through
//! correlated outages, WAN partitions and gray failures, and the run
//! stays deterministic, auditable and recoverable.

use rfh_core::PolicyKind;
use rfh_faults::{ChurnConfig, FaultAction, FaultPlan};
use rfh_obs::{Metric, MetricsRegistry};
use rfh_sim::{recovery_epochs, sim_seeded_plan, SimParams, Simulation};
use rfh_types::{DatacenterId, SimConfig};
use rfh_workload::{EventSchedule, Scenario};

fn base(policy: PolicyKind, epochs: u64) -> SimParams {
    SimParams {
        config: SimConfig { partitions: 16, replica_capacity_mean: 5.0, ..SimConfig::default() },
        scenario: Scenario::RandomEven,
        policy,
        epochs,
        seed: 7,
        events: EventSchedule::new(),
        faults: FaultPlan::default(),
        threads: 1,
    }
}

/// A busy plan touching every fault family: background churn, a
/// correlated DC outage, gray message loss and a bandwidth squeeze.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 11,
        scheduled: Vec::new(),
        churn: Some(ChurnConfig { mtbf: 300.0, mttr: 10.0, start: 0, end: None }),
    }
    .at(20, FaultAction::FailDatacenter(DatacenterId::new(3)))
    .at(25, FaultAction::MessageLoss(0.2))
    .at(30, FaultAction::Bandwidth(0.5, 0.5))
    .at(40, FaultAction::RecoverDatacenter(DatacenterId::new(3)))
    .at(45, FaultAction::MessageLoss(0.0))
    .at(50, FaultAction::Bandwidth(1.0, 1.0))
}

#[test]
fn identical_seed_and_plan_is_bit_identical_for_every_policy() {
    for kind in PolicyKind::ALL {
        let mut p = base(kind, 60);
        p.faults = chaos_plan();
        let a = Simulation::new(p.clone()).unwrap().run().unwrap();
        let b = Simulation::new(p).unwrap().run().unwrap();
        assert_eq!(a, b, "chaos run must be reproducible for {kind}");
    }
}

#[test]
fn empty_plan_is_bit_identical_to_no_plan() {
    // A plan with a seed but nothing scheduled builds no injector at
    // all, so its run equals the default-params run bit for bit.
    let plain = Simulation::new(base(PolicyKind::Rfh, 40)).unwrap().run().unwrap();
    let mut p = base(PolicyKind::Rfh, 40);
    p.faults = FaultPlan { seed: 99, ..FaultPlan::default() };
    assert!(p.faults.is_empty());
    let chaosless = Simulation::new(p).unwrap().run().unwrap();
    assert_eq!(plain, chaosless);
}

#[test]
fn partitioned_destinations_defer_then_repair_after_heal() {
    // Cut half the backbone off for 30 epochs. Transfers decided into
    // the island are unreachable: they must be deferred with backoff,
    // not silently counted as done, and must land once the split heals.
    let island: Vec<DatacenterId> = (5..10).map(DatacenterId::new).collect();
    let mut p = base(PolicyKind::Random, 80);
    p.faults = FaultPlan { seed: 3, ..FaultPlan::default() }
        .at(10, FaultAction::Partition(island))
        .at(40, FaultAction::HealPartition);
    let mut sim = Simulation::new(p).unwrap();
    for _ in 0..80 {
        sim.step().unwrap();
    }
    let mut reg = MetricsRegistry::new();
    sim.collect_metrics(&mut reg);
    let completed = match reg.get("sim.repairs.completed") {
        Some(&Metric::Counter(n)) => n,
        other => panic!("missing repair counter: {other:?}"),
    };
    assert!(completed > 0, "deferred transfers must complete after the heal");
    let result = sim.finish();
    let repairs = result.metrics.series("repairs_total").unwrap();
    assert_eq!(repairs.last().unwrap(), completed as f64);
    assert_eq!(repairs.get(9), Some(0.0), "no repairs before the split");
}

#[test]
fn auditor_is_silent_on_healthy_and_benign_chaos_runs() {
    // No faults: not a single violation across all four policies.
    for kind in PolicyKind::ALL {
        let result = Simulation::new(base(kind, 40)).unwrap().run().unwrap();
        let v = result.metrics.series("invariant_violations").unwrap();
        assert_eq!(v.last().unwrap(), 0.0, "clean run must audit clean for {kind}");
    }
    // A survivable outage with plenty of spare capacity: the dip is
    // excused by the recorded fault and repairs converge in time.
    let mut p = base(PolicyKind::Rfh, 100);
    p.faults = FaultPlan::default()
        .at(20, FaultAction::FailDatacenter(DatacenterId::new(2)))
        .at(30, FaultAction::RecoverDatacenter(DatacenterId::new(2)));
    let result = Simulation::new(p).unwrap().run().unwrap();
    let v = result.metrics.series("invariant_violations").unwrap();
    assert_eq!(v.last().unwrap(), 0.0, "survivable outage must audit clean");
}

#[test]
fn auditor_flags_unrepairable_under_replication() {
    // Kill 99 of 100 servers and never recover: r_min = 2 is
    // unreachable on a single survivor, so once the repair window
    // lapses the auditor must report stuck partitions.
    let doomed: Vec<rfh_types::ServerId> = (1..100).map(rfh_types::ServerId::new).collect();
    let mut p = base(PolicyKind::Rfh, 70);
    p.faults = FaultPlan::default().at(10, FaultAction::FailServers(doomed));
    let mut sim = Simulation::new(p).unwrap();
    for _ in 0..70 {
        sim.step().unwrap();
    }
    assert!(sim.auditor().total() > 0, "stuck under-replication must be flagged");
    assert!(
        sim.auditor().violations().iter().all(|v| v.epoch > 40),
        "violations fire only after the repair window lapses"
    );
    let result = sim.finish();
    let v = result.metrics.series("invariant_violations").unwrap();
    assert!(v.last().unwrap() > 0.0, "violations must surface in the metric series");
}

#[test]
fn fail_random_overcount_fails_everyone_and_recovers() {
    // Asking for 250 failures in a 100-server fleet is not an error:
    // everyone dies, the 150-server gap is recorded as shortfall, and
    // RecoverAll later brings the fleet (and the archived data) back.
    let mut p = base(PolicyKind::Rfh, 60);
    p.faults = sim_seeded_plan(p.seed)
        .at(15, FaultAction::FailRandom(250))
        .at(25, FaultAction::RecoverAll);
    let mut sim = Simulation::new(p).unwrap();
    for _ in 0..60 {
        sim.step().unwrap();
    }
    let mut reg = MetricsRegistry::new();
    sim.collect_metrics(&mut reg);
    assert_eq!(reg.get("sim.fault_shortfall"), Some(&Metric::Counter(150)));
    let result = sim.finish();
    let alive = result.metrics.series("alive_servers").unwrap();
    assert_eq!(alive.values()[15], 0.0, "over-count kills the whole fleet");
    assert_eq!(alive.values()[25], 100.0, "RecoverAll revives it");
    // RecoverAll revives the very servers holding the data, so the
    // partitions come back with their disks — no archive restore.
    let loss = result.metrics.series("data_loss_total").unwrap();
    assert_eq!(loss.last().unwrap(), 0.0, "revived disks are not data loss");
    let ttr = recovery_epochs(&result.metrics, 15, 0.05);
    assert!(ttr.is_some(), "replica count must reconverge after recovery");
}

#[test]
fn archive_restore_counts_loss_when_primaries_stay_dead() {
    // Kill the whole fleet, then revive only the top half. Partitions
    // pinned to a dead bottom-half primary must be restored from
    // archive onto a live server — counted as data loss and repair —
    // while partitions whose pinned server revived recover for free.
    let all: Vec<rfh_types::ServerId> = (0..100).map(rfh_types::ServerId::new).collect();
    let upper: Vec<rfh_types::ServerId> = (50..100).map(rfh_types::ServerId::new).collect();
    let mut p = base(PolicyKind::Rfh, 50);
    p.faults = FaultPlan::default()
        .at(10, FaultAction::FailServers(all))
        .at(20, FaultAction::RecoverServers(upper));
    let result = Simulation::new(p).unwrap().run().unwrap();
    let loss = result.metrics.series("data_loss_total").unwrap();
    let repairs = result.metrics.series("repairs_total").unwrap();
    assert_eq!(loss.get(19), Some(0.0), "no restore target while everyone is dead");
    assert!(loss.last().unwrap() > 0.0, "dead-primary partitions restore from archive");
    assert!(repairs.last().unwrap() >= loss.last().unwrap(), "each restore is a repair");
    assert!(
        loss.last().unwrap() < 16.0,
        "partitions whose pinned server revived must not count as loss"
    );
}
