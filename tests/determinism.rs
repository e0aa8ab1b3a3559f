//! Reproducibility guarantees: a `(params, seed)` pair fully determines
//! a run, across policies, scenarios and fault plans.

use rfh::prelude::*;

fn params(policy: PolicyKind, scenario: Scenario, seed: u64) -> SimParams {
    SimParams {
        config: SimConfig { partitions: 16, ..SimConfig::default() },
        scenario,
        policy,
        epochs: 40,
        seed,
        events: EventSchedule::new(),
        faults: sim_seeded_plan(seed).at(20, FaultAction::FailRandom(10)),
        threads: 1,
    }
}

#[test]
fn identical_seeds_produce_identical_runs() {
    for kind in PolicyKind::ALL {
        for scenario in [
            Scenario::RandomEven,
            Scenario::FlashCrowd(FlashCrowdConfig::default()),
            Scenario::PopularityShift,
        ] {
            let a = Simulation::new(params(kind, scenario.clone(), 123)).unwrap().run().unwrap();
            let b = Simulation::new(params(kind, scenario, 123)).unwrap().run().unwrap();
            assert_eq!(a, b, "{kind} not deterministic");
        }
    }
}

#[test]
fn different_seeds_produce_different_runs() {
    let a =
        Simulation::new(params(PolicyKind::Rfh, Scenario::RandomEven, 1)).unwrap().run().unwrap();
    let b =
        Simulation::new(params(PolicyKind::Rfh, Scenario::RandomEven, 2)).unwrap().run().unwrap();
    assert_ne!(a, b);
}

#[test]
fn comparison_runner_matches_standalone_runs() {
    // The parallel comparison must be bit-identical to running each
    // policy alone (parallelism is a pure wall-clock optimization).
    let base = params(PolicyKind::Rfh, Scenario::RandomEven, 77);
    let cmp = run_comparison(&base).unwrap();
    for kind in PolicyKind::ALL {
        let solo = Simulation::new(params(kind, Scenario::RandomEven, 77)).unwrap().run().unwrap();
        assert_eq!(Some(&solo), cmp.of(kind), "{kind}");
    }
}

#[test]
fn stepping_equals_running() {
    let mut stepped = Simulation::new(params(PolicyKind::Random, Scenario::RandomEven, 5)).unwrap();
    for _ in 0..40 {
        stepped.step().unwrap();
    }
    let total_after_stepping = stepped.manager().total_replicas();
    let ran = Simulation::new(params(PolicyKind::Random, Scenario::RandomEven, 5))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        ran.metrics.series("replicas_total").unwrap().last().unwrap(),
        total_after_stepping as f64
    );
}
