//! Cross-crate integration: drive the full stack through the public
//! facade — topology → ring → workload → traffic → policy → metrics —
//! and check the system-level invariants the unit tests cannot see.

use rfh::prelude::*;
use std::sync::Arc;

fn small_params(policy: PolicyKind, scenario: Scenario, epochs: u64) -> SimParams {
    SimParams {
        config: SimConfig { partitions: 24, ..SimConfig::default() },
        scenario,
        policy,
        epochs,
        seed: 9,
        events: EventSchedule::new(),
        faults: FaultPlan::default(),
        threads: 1,
    }
}

#[test]
fn every_partition_always_has_a_live_primary() {
    let mut params = small_params(PolicyKind::Rfh, Scenario::RandomEven, 70);
    params.faults = sim_seeded_plan(params.seed)
        .at(10, FaultAction::FailRandom(40))
        .at(30, FaultAction::FailRandom(30))
        .at(50, FaultAction::RecoverAll);
    let mut sim = Simulation::new(params).unwrap();
    for _ in 0..70 {
        sim.step().unwrap();
        let manager = sim.manager();
        let topo = sim.topology();
        for p in 0..24 {
            let pid = PartitionId::new(p);
            assert!(manager.replica_count(pid) >= 1, "{pid} lost all replicas");
            let holder = manager.holder(pid);
            assert!(
                topo.server(holder).unwrap().alive,
                "{pid} primary on a dead server at epoch {}",
                sim.epoch()
            );
            // No replica may sit on a dead server after the epoch's
            // prune pass.
            for &s in manager.replicas(pid) {
                assert!(topo.server(s).unwrap().alive, "{pid} replica on dead {s}");
            }
        }
    }
}

#[test]
fn storage_never_exceeds_phi() {
    for kind in PolicyKind::ALL {
        let mut sim = Simulation::new(small_params(kind, Scenario::RandomEven, 50)).unwrap();
        for _ in 0..50 {
            sim.step().unwrap();
            let manager = sim.manager();
            for s in 0..manager.servers() {
                let frac = manager.storage_fraction(ServerId::new(s as u32));
                assert!(frac <= 0.7 + 1e-12, "{kind}: server {s} at {frac} exceeds φ = 0.7");
            }
        }
    }
}

#[test]
fn replica_sets_have_no_duplicates() {
    for kind in PolicyKind::ALL {
        let mut sim = Simulation::new(small_params(
            kind,
            Scenario::FlashCrowd(FlashCrowdConfig::default()),
            60,
        ))
        .unwrap();
        for _ in 0..60 {
            sim.step().unwrap();
            let manager = sim.manager();
            for p in 0..24 {
                let replicas = manager.replicas(PartitionId::new(p));
                let mut sorted: Vec<u32> = replicas.iter().map(|s| s.0).collect();
                sorted.sort_unstable();
                let len = sorted.len();
                sorted.dedup();
                assert_eq!(sorted.len(), len, "{kind}: duplicate replica for partition {p}");
            }
        }
    }
}

#[test]
fn availability_floor_is_reached_and_kept() {
    // r_min = 2 for the Table I failure rate / availability target.
    let mut sim = Simulation::new(small_params(PolicyKind::Rfh, Scenario::RandomEven, 60)).unwrap();
    for _ in 0..60 {
        sim.step().unwrap();
    }
    let manager = sim.manager();
    for p in 0..24 {
        assert!(
            manager.replica_count(PartitionId::new(p)) >= 2,
            "partition {p} below the availability floor at the end"
        );
    }
}

#[test]
fn served_plus_unserved_equals_demand() {
    // Conservation: every generated query is either served by some
    // replica or reported unserved.
    let params = small_params(PolicyKind::OwnerOriented, Scenario::RandomEven, 40);
    let mut generator = WorkloadGenerator::new(
        params.config.queries_per_epoch,
        params.config.partitions,
        10,
        params.config.partition_skew,
        params.scenario.clone(),
        params.epochs,
        params.seed,
    );
    let trace = Arc::new(Trace::record(&mut generator, params.epochs));
    let mut sim = Simulation::new(params).unwrap().with_shared_trace(Arc::clone(&trace));
    for epoch in 0..40u64 {
        let snap = sim.step().unwrap();
        let demand = trace.epoch(epoch).unwrap().total() as f64;
        let accounted = snap.served + snap.unserved;
        assert!(
            (accounted - demand).abs() < 1e-6,
            "epoch {epoch}: demand {demand} vs served+unserved {accounted}"
        );
    }
}

#[test]
fn facade_prelude_covers_a_full_workflow() {
    // The doc-level workflow: custom topology, custom scenario, run,
    // inspect — using only `rfh::prelude`.
    let mut spec = TopologyBuilder::new();
    let a = spec
        .datacenter("X", Continent::Europe, "DEU", "FR1", GeoPoint::new(50.1, 8.7), 1, 2, 4)
        .unwrap();
    let b = spec
        .datacenter("Y", Continent::Europe, "NLD", "AM1", GeoPoint::new(52.4, 4.9), 1, 2, 4)
        .unwrap();
    spec.link(a, b, 12.0).unwrap();
    let topo = spec.build(0.1, 3).unwrap();
    let params = SimParams {
        config: SimConfig { partitions: 8, ..SimConfig::default() },
        scenario: Scenario::RandomEven,
        policy: PolicyKind::Rfh,
        epochs: 30,
        seed: 3,
        events: EventSchedule::new(),
        faults: FaultPlan::default(),
        threads: 1,
    };
    let result = Simulation::with_topology(params, topo).unwrap().run().unwrap();
    assert_eq!(result.metrics.epochs(), 30);
    assert!(result.metrics.series("utilization").is_some());
}
