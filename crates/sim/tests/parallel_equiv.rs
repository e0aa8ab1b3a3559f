//! The dense ≡ sparse differential harness.
//!
//! The epoch engine's contract is *bit-identity*: in either engine
//! mode, a run produces exactly the metric history, placement,
//! decision trace, and rendered reports of the dense run — the sparse
//! dirty-set walk may only change wall-clock. These tests drive the
//! matrix (every policy, the domain-spread placement variant included,
//! × several seeds, with and without a chaos fault plan) and compare
//! the sparse run against the dense one on:
//!
//! * the [`SimResult`] (every metric series, profile excluded),
//! * the final rendered [`PlacementView`] (replica placement content),
//! * the decision-event JSONL trace, byte for byte,
//! * the full per-epoch CSV report, byte for byte.
//!
//! The chaos plan matters doubly for the sparse engine: a datacenter
//! outage prunes replicas from partitions that carry no queries, so
//! cold partitions must re-enter the dirty set through the placement
//! (not the workload) channel for the runs to stay identical.

use rfh_core::PolicyKind;
use rfh_faults::{ChurnConfig, FaultAction, FaultPlan};
use rfh_obs::TraceRecorder;
use rfh_sim::{report, EngineMode, SimParams, SimResult, Simulation};
use rfh_traffic::PlacementView;
use rfh_types::{DatacenterId, SimConfig};
use rfh_workload::{EventSchedule, Scenario};
use std::sync::Arc;

const SEEDS: [u64; 3] = [7, 23, 4242];

fn base(policy: PolicyKind, seed: u64) -> SimParams {
    SimParams {
        config: SimConfig { partitions: 16, replica_capacity_mean: 5.0, ..SimConfig::default() },
        scenario: Scenario::RandomEven,
        policy,
        epochs: 30,
        seed,
        events: EventSchedule::new(),
        faults: FaultPlan::default(),
        threads: 1,
    }
}

/// Every fault family at once: background churn, a correlated DC
/// outage, gray message loss, and a bandwidth squeeze — all inside the
/// 30-epoch window.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 11,
        scheduled: Vec::new(),
        churn: Some(ChurnConfig { mtbf: 300.0, mttr: 10.0, start: 0, end: None }),
    }
    .at(8, FaultAction::FailDatacenter(DatacenterId::new(3)))
    .at(10, FaultAction::MessageLoss(0.2))
    .at(12, FaultAction::Bandwidth(0.5, 0.5))
    .at(18, FaultAction::RecoverDatacenter(DatacenterId::new(3)))
    .at(20, FaultAction::MessageLoss(0.0))
    .at(22, FaultAction::Bandwidth(1.0, 1.0))
}

/// Run to completion and capture everything the differential compares:
/// the result, the rendered CSV, the decision trace, and the final
/// placement view.
fn run_once(
    policy: PolicyKind,
    seed: u64,
    chaos: bool,
    engine: EngineMode,
) -> (SimResult, String, String, PlacementView) {
    let mut p = base(policy, seed);
    if chaos {
        p.faults = chaos_plan();
    }
    let cap = p.config.replica_capacity_mean;
    let epochs = p.epochs;
    let recorder = Arc::new(TraceRecorder::new());
    let mut sim = Simulation::new(p)
        .expect("params are valid")
        .with_engine(engine)
        .with_recorder(Arc::clone(&recorder) as Arc<dyn rfh_obs::Recorder>);
    while sim.epoch() < epochs {
        sim.step().expect("epoch steps");
    }
    let view = sim.manager().placement_view(sim.topology(), cap);
    let result = sim.finish();
    let csv = report::run_csv(&result);
    (result, csv, recorder.to_jsonl(), view)
}

fn assert_matrix(chaos: bool) {
    for policy in PolicyKind::WITH_SPREAD {
        for seed in SEEDS {
            let (dense, dense_csv, dense_trace, dense_view) =
                run_once(policy, seed, chaos, EngineMode::Dense);
            let (run, csv, trace, view) = run_once(policy, seed, chaos, EngineMode::Sparse);
            let tag = format!("{policy} seed {seed}{}", if chaos { " +chaos" } else { "" });
            assert_eq!(dense, run, "SimResult diverged: {tag}");
            assert_eq!(dense_csv, csv, "CSV report diverged: {tag}");
            assert_eq!(dense_trace, trace, "decision trace diverged: {tag}");
            assert_eq!(dense_view, view, "final placement diverged: {tag}");
        }
    }
}

#[test]
fn engine_matrix_is_bit_identical() {
    assert_matrix(false);
}

#[test]
fn engine_matrix_is_bit_identical_under_chaos() {
    assert_matrix(true);
}

/// The four-way comparison runner goes through the same engine; spot
/// check that its per-metric CSV (the figure pipeline's input) is
/// byte-identical too, dense vs sparse.
#[test]
fn comparison_csv_is_engine_invariant() {
    use rfh_sim::{run_comparison_observed, ObsOptions};
    let dense = run_comparison_observed(
        &base(PolicyKind::Rfh, 7),
        &ObsOptions { engine: EngineMode::Dense, ..Default::default() },
    )
    .unwrap();
    let sparse = rfh_sim::run_comparison(&base(PolicyKind::Rfh, 7)).unwrap();
    for metric in ["utilization", "replicas_total", "unserved", "latency_ms"] {
        assert_eq!(
            report::comparison_csv(&dense, metric),
            report::comparison_csv(&sparse, metric),
            "comparison CSV diverged for {metric}"
        );
    }
}
