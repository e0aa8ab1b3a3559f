//! Golden digests: the simulator's output for three fixed shapes,
//! pinned as FNV-1a hashes.
//!
//! Each digest folds in every metric series (name and `f64` bits), the
//! final replica set of every partition, and the decision-trace JSONL,
//! so any change to a decision, to its order or to a metric moves it.
//! A refactor that claims to be bit-identical must leave every
//! constant alone; a change that means to alter behaviour updates
//! them and says why.
//!
//! - `SCALE` is the `sim_scale_1m` shape at 2·10⁴ partitions: the
//!   scaled paper topology with two servers per rack, `RandomEven`
//!   demand, RFH on the sparse engine, one thread, 12 epochs (the
//!   all-active warm-up and the sparse steady state after it).
//! - `RACK_OUTAGE` is the paper topology under
//!   `examples/rack_outage.toml` for 130 epochs, RFH and Spread. Two
//!   rack outages prune replicas and two recoveries restore them, so
//!   the decision state meets replicas that vanished behind its back.
//! - `BASELINES` is the paper topology under the same plan with a flash
//!   crowd, 512 partitions for 130 epochs, for the three paper
//!   baselines (Request, Owner, Random). The crowd leaves demand
//!   unserved, so growth past the availability floor fires and every
//!   baseline's target choice reaches the digest.

use rfh_core::PolicyKind;
use rfh_faults::FaultPlan;
use rfh_obs::{Recorder, TraceRecorder};
use rfh_sim::{SimParams, Simulation};
use rfh_topology::{paper_topology, scaled_paper_topology, Topology};
use rfh_types::{Bandwidth, Bytes, FlashCrowdConfig, PartitionId, SimConfig};
use rfh_workload::{EventSchedule, Scenario};
use std::sync::Arc;

const SCALE: u64 = 0x6948_1094_b912_7570;
const RACK_OUTAGE: u64 = 0x5671_fbb9_54b6_cef0;
const BASELINES: u64 = 0xb2e3_ea78_dd37_688d;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Run `params` with a decision trace attached and fold its metric
/// history, final replica sets and decision trace into `hash`.
fn fold_run(hash: &mut u64, params: SimParams, topo: Topology) {
    let epochs = params.epochs;
    let recorder = Arc::new(TraceRecorder::new());
    let mut sim = Simulation::with_topology(params, topo)
        .unwrap()
        .with_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    for _ in 0..epochs {
        sim.step().unwrap();
    }
    let partitions = sim.manager().partitions();
    for p in 0..partitions {
        let replicas = sim.manager().replicas(PartitionId::new(p));
        fnv(hash, &(replicas.len() as u32).to_le_bytes());
        for s in replicas {
            fnv(hash, &s.0.to_le_bytes());
        }
    }
    let result = sim.finish();
    fnv(hash, result.policy.name().as_bytes());
    for series in result.metrics.all_series() {
        fnv(hash, series.name().as_bytes());
        for v in series.values() {
            fnv(hash, &v.to_bits().to_le_bytes());
        }
    }
    fnv(hash, recorder.to_jsonl().as_bytes());
}

fn scale_digest() -> u64 {
    // Storage and bandwidth lifted so placement at this scale is
    // unconstrained, as on `sim_scale_1m`.
    let config = SimConfig {
        partitions: 20_000,
        partition_size: Bytes::kib(1),
        max_server_storage: Bytes::gib(1000),
        replication_bandwidth: Bandwidth::mib_per_epoch(10_000),
        migration_bandwidth: Bandwidth::mib_per_epoch(10_000),
        ..SimConfig::default()
    };
    let topo = scaled_paper_topology(2, config.capacity_spread, 42).unwrap();
    let params = SimParams {
        config,
        scenario: Scenario::RandomEven,
        policy: PolicyKind::Rfh,
        epochs: 12,
        seed: 1,
        events: EventSchedule::new(),
        faults: FaultPlan::default(),
        threads: 1,
    };
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    fold_run(&mut hash, params, topo);
    hash
}

fn rack_outage_digest() -> u64 {
    let plan = FaultPlan::from_toml_str(include_str!("../../../examples/rack_outage.toml"))
        .expect("the example plan parses");
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for policy in [PolicyKind::Rfh, PolicyKind::DomainSpread] {
        let params = SimParams {
            config: SimConfig { partitions: 2_000, ..SimConfig::default() },
            scenario: Scenario::RandomEven,
            policy,
            epochs: 130,
            seed: 9,
            events: EventSchedule::new(),
            faults: plan.clone(),
            threads: 1,
        };
        let topo = paper_topology(params.config.capacity_spread, params.seed).unwrap();
        fold_run(&mut hash, params, topo);
    }
    hash
}

fn baselines_digest() -> u64 {
    let plan = FaultPlan::from_toml_str(include_str!("../../../examples/rack_outage.toml"))
        .expect("the example plan parses");
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for policy in [PolicyKind::RequestOriented, PolicyKind::OwnerOriented, PolicyKind::Random] {
        let params = SimParams {
            config: SimConfig { partitions: 512, ..SimConfig::default() },
            scenario: Scenario::FlashCrowd(FlashCrowdConfig::default()),
            policy,
            epochs: 130,
            seed: 9,
            events: EventSchedule::new(),
            faults: plan.clone(),
            threads: 1,
        };
        let topo = paper_topology(params.config.capacity_spread, params.seed).unwrap();
        fold_run(&mut hash, params, topo);
    }
    hash
}

#[test]
fn scale_shape_matches_its_golden_digest() {
    let digest = scale_digest();
    assert_eq!(digest, SCALE, "sim_scale_1m shape digest is {digest:#018x}");
}

#[test]
fn rack_outage_shape_matches_its_golden_digest() {
    let digest = rack_outage_digest();
    assert_eq!(digest, RACK_OUTAGE, "rack-outage shape digest is {digest:#018x}");
}

#[test]
fn baselines_shape_matches_its_golden_digest() {
    let digest = baselines_digest();
    assert_eq!(digest, BASELINES, "baselines shape digest is {digest:#018x}");
}
