//! End-to-end smoke tests: a real loopback cluster served by the
//! online RFH control loop, driven by the load generator, with and
//! without chaos. The headline assertion everywhere: **zero lost
//! acknowledged writes**.

use rfh_faults::FaultPlan;
use rfh_serve::{
    run_loadgen, ArrivalMode, Cluster, ClusterConfig, GetOutcome, LoadGenConfig, ServeClient,
};

fn small_cluster() -> ClusterConfig {
    ClusterConfig {
        servers_per_rack: 1, // 10 DCs × 2 racks × 1 = 20 nodes
        partitions: 16,
        seed: 7,
        control_interval_ms: 50,
        capacity_spread: 0.25,
        threads: 1,
        telemetry: true,
        persistence: None,
        ..ClusterConfig::default()
    }
}

fn small_load(ops: u64) -> LoadGenConfig {
    LoadGenConfig {
        mode: ArrivalMode::Closed,
        workers: 4,
        ops,
        rate: 2_000.0,
        read_fraction: 0.5,
        keys: 200,
        zipf_s: 0.9,
        value_bytes: 32,
        seed: 11,
        trace_sample: 0,
        pipeline: 1,
    }
}

/// Healthy-cluster workload: every op completes, every acked write is
/// readable, and the control loop's summary is clean.
fn no_loss_on(pipeline: u64) {
    let cluster = Cluster::start(&small_cluster(), FaultPlan::default()).unwrap();
    let cfg = LoadGenConfig { pipeline, ..small_load(600) };
    let report = run_loadgen(&cfg, cluster.node_infos()).unwrap();
    let summary = cluster.shutdown().unwrap();

    assert!(report.completed > 0, "no operations completed:\n{}", report.render());
    assert_eq!(report.failed, 0, "healthy cluster must not fail ops:\n{}", report.render());
    assert_eq!(report.lost_acked_writes, 0, "lost writes:\n{}", report.render());
    assert_eq!(report.value_mismatches, 0, "corrupt values:\n{}", report.render());
    assert!(report.acked_writes > 0, "mixed workload must ack writes");
    assert!(report.p50_us > 0.0 && report.p99_us >= report.p50_us);

    assert_eq!(summary.nodes, 20);
    assert_eq!(summary.alive_nodes, 20);
    assert!(summary.ticks > 0, "control loop never ticked");
    assert!(summary.gets + summary.puts >= report.completed, "coordinators saw every op");
    assert_eq!(summary.invariant_violations, 0, "auditor findings:\n{}", summary.render());
}

#[test]
fn serves_reads_and_writes_without_loss() {
    no_loss_on(1);
}

#[test]
fn pipelined_closed_loop_loses_nothing() {
    no_loss_on(8);
}

#[test]
fn open_loop_mode_measures_latency() {
    let cluster = Cluster::start(&small_cluster(), FaultPlan::default()).unwrap();
    let cfg = LoadGenConfig {
        mode: ArrivalMode::Open,
        workers: 2,
        ops: 200,
        rate: 4_000.0,
        ..small_load(200)
    };
    let report = run_loadgen(&cfg, cluster.node_infos()).unwrap();
    cluster.shutdown().unwrap();
    assert_eq!(report.mode, "open");
    assert_eq!(report.completed + report.failed, 200);
    assert_eq!(report.lost_acked_writes, 0, "lost writes:\n{}", report.render());
    assert!(report.p999_us >= report.p50_us);
}

/// Kill one server two ticks in (≈100 ms with a 50 ms interval), while
/// the load generator is still writing. Zero acked writes may be lost.
fn kill_without_loss_on(pipeline: u64) {
    let plan = FaultPlan::from_toml_str("[[at]]\nepoch = 2\nfail_servers = [5]\n").unwrap();
    let cluster = Cluster::start(&small_cluster(), plan).unwrap();
    // Deeper pipelines drain the op budget much faster; scale it so the
    // workload still overlaps the kill at tick 2 (≈100 ms in).
    let cfg = LoadGenConfig { pipeline, ..small_load(1_200 * pipeline.max(1)) };
    let report = run_loadgen(&cfg, cluster.node_infos()).unwrap();
    // However fast the run went, let the kill epoch itself tick before
    // reading the summary.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let summary = cluster.shutdown().unwrap();

    assert!(report.completed > 0, "no operations completed:\n{}", report.render());
    assert_eq!(report.lost_acked_writes, 0, "lost acked writes:\n{}", report.render());
    assert_eq!(report.value_mismatches, 0, "corrupt values:\n{}", report.render());
    assert_eq!(summary.alive_nodes, 19, "exactly one server stays dead");
    assert!(summary.ticks >= 2, "the kill epoch must have run");
}

#[test]
fn survives_a_server_kill_without_losing_acked_writes() {
    kill_without_loss_on(1);
}

#[test]
fn pipelined_load_survives_a_server_kill() {
    kill_without_loss_on(8);
}

/// A plan file naming a server the topology does not have must not be
/// swallowed: the control loop surfaces it (timeline event, counter),
/// stops driving the plan, and the cluster serves on as if unplanned.
#[test]
fn a_fault_plan_naming_an_unknown_server_is_surfaced_and_serving_continues() {
    let plan = FaultPlan::from_toml_str("[[at]]\nepoch = 1\nfail_servers = [9999]\n").unwrap();
    let cluster = Cluster::start(&small_cluster(), plan).unwrap();
    // Let the bad epoch tick first, so the whole workload runs after it.
    while cluster.timeline().len() < 3 {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let report = run_loadgen(&small_load(600), cluster.node_infos()).unwrap();
    let timeline = cluster.timeline();
    let summary = cluster.shutdown().unwrap();

    let errors: Vec<&String> = timeline
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.contains("fault plan error"))
        .collect();
    assert_eq!(errors.len(), 1, "surfaced once, on the tick it happened: {errors:?}");
    assert!(errors[0].contains("9999"), "the event names the culprit: {}", errors[0]);
    assert_eq!(
        summary.registry.get("serve.control.fault_errors"),
        Some(&rfh_obs::Metric::Counter(1))
    );
    assert_eq!(report.failed, 0, "a halted plan must not disturb serving:\n{}", report.render());
    assert_eq!(report.lost_acked_writes, 0);
    assert_eq!((summary.alive_nodes, summary.invariant_violations), (20, 0));
}

#[test]
fn data_survives_across_direct_client_use() {
    // Drive the client API directly (not through the load generator):
    // write through one datacenter, read through another.
    let cluster = Cluster::start(&small_cluster(), FaultPlan::default()).unwrap();
    let nodes = cluster.node_infos().to_vec();
    let mut writer = ServeClient::new(&nodes, 0, 0).unwrap();
    let mut reader = ServeClient::new(&nodes, 7, 0).unwrap();
    for key in 0..50u64 {
        writer.put(key, key + 1, &key.to_le_bytes()).unwrap();
    }
    for key in 0..50u64 {
        match reader.get(key).unwrap() {
            GetOutcome::Found { seq, value } => {
                assert_eq!(seq, key + 1);
                assert_eq!(value, key.to_le_bytes());
            }
            GetOutcome::NotFound => panic!("key {key} vanished"),
        }
    }
    assert!(matches!(reader.get(10_000).unwrap(), GetOutcome::NotFound));
    let summary = cluster.shutdown().unwrap();
    assert!(summary.forwards > 0, "cross-datacenter reads must forward");
}

/// Depth-1 wire compatibility: the plain blocking client (the legacy
/// protocol, one frame outstanding) works unchanged against the
/// reactor plane, and its data round-trips byte-identically.
#[test]
fn legacy_client_is_wire_compatible_with_the_reactor_plane() {
    let cluster = Cluster::start(&small_cluster(), FaultPlan::default()).unwrap();
    let nodes = cluster.node_infos().to_vec();
    let mut c = ServeClient::new(&nodes, 3, 0).unwrap();
    c.put(99, 5, b"depth-one").unwrap();
    match c.get(99).unwrap() {
        GetOutcome::Found { seq, value } => {
            assert_eq!(seq, 5);
            assert_eq!(value, b"depth-one");
        }
        GetOutcome::NotFound => panic!("acked write not readable"),
    }
    cluster.shutdown().unwrap();
}

#[test]
fn addr_file_roundtrips_through_client_parser() {
    let cluster = Cluster::start(&small_cluster(), FaultPlan::default()).unwrap();
    let text = cluster.render_addr_file();
    let parsed = ServeClient::parse_addr_file(&text).unwrap();
    assert_eq!(parsed, cluster.node_infos());
    cluster.shutdown().unwrap();
}
