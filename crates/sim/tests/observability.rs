//! Observation must not perturb: the recorder and the profiler read
//! simulation state but can never feed anything back, so a traced and
//! profiled run is bit-identical to a plain one — and the JSONL schema
//! the trace streams is pinned against accidental drift.

use rfh_core::PolicyKind;
use rfh_obs::{DecisionEvent, DecisionKind, TraceRecorder, Trigger};
use rfh_sim::{run_comparison, run_comparison_observed, ObsOptions, SimParams, Simulation};
use rfh_types::SimConfig;
use rfh_workload::{EventSchedule, Scenario};
use std::sync::Arc;

fn base(scenario: Scenario) -> SimParams {
    SimParams {
        config: SimConfig { partitions: 16, replica_capacity_mean: 5.0, ..SimConfig::default() },
        scenario,
        policy: PolicyKind::Rfh,
        epochs: 30,
        seed: 7,
        events: EventSchedule::new(),
        faults: rfh_sim::FaultPlan::default(),
        threads: 1,
    }
}

#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let params = base(Scenario::RandomEven);
    let plain = Simulation::new(params.clone()).unwrap().run().unwrap();

    let rec = Arc::new(TraceRecorder::new());
    let traced = Simulation::new(params)
        .unwrap()
        .with_recorder(rec.clone())
        .with_profiling(true)
        .run()
        .unwrap();

    // SimResult equality covers policy, scenario and every metric
    // series bit for bit (the profile is deliberately excluded).
    assert_eq!(plain, traced);
    assert!(plain.profile.is_none());
    let profile = traced.profile.expect("profiling was on");
    assert!(!profile.is_empty());
    assert!(!rec.is_empty(), "a 30-epoch RFH run must make decisions");
}

#[test]
fn observed_comparison_matches_plain_comparison() {
    let params = base(Scenario::RandomEven);
    let plain = run_comparison(&params).unwrap();

    let rec = Arc::new(TraceRecorder::new());
    let obs = ObsOptions { profile: true, recorder: Some(rec.clone()), ..Default::default() };
    let observed = run_comparison_observed(&params, &obs).unwrap();

    for kind in PolicyKind::ALL {
        let p = plain.require(kind).unwrap();
        let o = observed.require(kind).unwrap();
        assert_eq!(p, o, "{kind} diverged under observation");
        assert!(o.profile.is_some(), "{kind} was profiled");
    }
    // The shared recorder saw all four policies.
    let events = rec.events();
    assert!(!events.is_empty());
    for kind in PolicyKind::ALL {
        assert!(events.iter().any(|e| e.policy == kind.name()), "no events tagged {}", kind.name());
    }
}

/// The shared recorder serves four concurrently running policy threads;
/// outcomes and epoch flushes are matched by (policy, partition), so
/// whatever the interleaving, each policy's slice of the shared ring
/// must equal the trace of that policy run solo with a private recorder
/// — same events, same order, same applied flags and costs.
#[test]
fn shared_recorder_attributes_events_to_the_right_policy() {
    let params = base(Scenario::RandomEven);
    let shared = Arc::new(TraceRecorder::new());
    let obs = ObsOptions { profile: false, recorder: Some(shared.clone()), ..Default::default() };
    run_comparison_observed(&params, &obs).unwrap();
    let merged = shared.events();

    for kind in PolicyKind::ALL {
        let solo_rec = Arc::new(TraceRecorder::new());
        let solo_params = SimParams { policy: kind, ..params.clone() };
        Simulation::new(solo_params).unwrap().with_recorder(solo_rec.clone()).run().unwrap();
        let solo = solo_rec.events();
        let from_shared: Vec<_> =
            merged.iter().filter(|e| e.policy == kind.name()).cloned().collect();
        assert!(!solo.is_empty(), "{kind} solo run must emit events");
        assert_eq!(from_shared, solo, "{kind} events misattributed in the shared recorder");
    }
}

#[test]
fn trace_jsonl_is_wellformed() {
    let rec = Arc::new(TraceRecorder::new());
    Simulation::new(base(Scenario::RandomEven)).unwrap().with_recorder(rec.clone()).run().unwrap();
    let jsonl = rec.to_jsonl();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"epoch\":"), "bad line start: {line}");
        assert!(line.ends_with('}'), "bad line end: {line}");
        for field in ["\"policy\":", "\"kind\":", "\"partition\":", "\"trigger\":", "\"applied\":"]
        {
            assert!(line.contains(field), "line lacks {field}: {line}");
        }
    }
}

/// The JSONL schema is public surface (CI and external tooling parse
/// it); this golden line pins the field set, order and formatting.
#[test]
fn golden_jsonl_schema() {
    let ev = DecisionEvent {
        epoch: 12,
        policy: "RFH",
        kind: DecisionKind::Migrate,
        partition: 7,
        source: Some(3),
        target: Some(41),
        trigger: Trigger::MigrationBenefit,
        traffic: 55.5,
        q_avg: 12.25,
        threshold: 18.375,
        blocking: 0.0625,
        unserved: 0.0,
        cost: Some(2048.0),
        applied: Some(true),
    };
    assert_eq!(
        ev.to_json(),
        "{\"epoch\":12,\"policy\":\"RFH\",\"kind\":\"migrate\",\"partition\":7,\
         \"source\":3,\"target\":41,\"trigger\":\"migration_benefit\",\"traffic\":55.5,\
         \"q_avg\":12.25,\"threshold\":18.375,\"blocking\":0.0625,\"unserved\":0,\
         \"cost\":2048,\"applied\":true}"
    );
}
