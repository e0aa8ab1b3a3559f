//! End-to-end durability: a cluster running the log-structured backend
//! survives kill-then-restart chaos and whole-cluster relaunch with
//! zero lost acknowledged writes, while `persistence = off` keeps
//! today's purely in-memory semantics.

use std::path::{Path, PathBuf};

use rfh_faults::FaultPlan;
use rfh_serve::{
    run_loadgen, ArrivalMode, Cluster, ClusterConfig, GetOutcome, LoadGenConfig, PersistenceConfig,
    ServeClient,
};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfh-dura-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_cluster(dir: &Path) -> ClusterConfig {
    ClusterConfig {
        servers_per_rack: 1, // 10 DCs × 2 racks × 1 = 20 nodes
        partitions: 64,      // enough that every node holds data
        seed: 7,
        control_interval_ms: 50,
        capacity_spread: 0.25,
        threads: 1,
        telemetry: true,
        persistence: Some(PersistenceConfig::with_dir(dir.to_string_lossy().into_owned())),
        ..ClusterConfig::default()
    }
}

fn memory_cluster() -> ClusterConfig {
    ClusterConfig { persistence: None, ..durable_cluster(&PathBuf::from("unused")) }
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

/// The restart verb under live load: SIGKILL-equivalent at tick 3,
/// relaunch two ticks later replaying the node's log. No acked write
/// may be lost, and the replay must actually recover records.
#[test]
fn kill_then_restart_replays_the_log_without_losing_acked_writes() {
    let dir = scratch_dir("restart");
    let plan =
        FaultPlan::from_toml_str("[[at]]\nepoch = 3\nfail_servers = [5]\nrestart_after = 2\n")
            .unwrap();
    let cluster = Cluster::start(&durable_cluster(&dir), plan).unwrap();
    let report = run_loadgen(&small_load(1_200), cluster.node_infos()).unwrap();
    // Let the restart tick run before tearing down.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let timeline = cluster.timeline();
    let summary = cluster.shutdown().unwrap();

    assert!(report.completed > 0, "no operations completed:\n{}", report.render());
    assert_eq!(report.lost_acked_writes, 0, "lost acked writes:\n{}", report.render());
    assert_eq!(report.value_mismatches, 0, "corrupt values:\n{}", report.render());
    assert_eq!(summary.restarts, 1, "exactly one kill-then-restart cycle");
    assert_eq!(summary.alive_nodes, 20, "the restarted node rejoined");
    let storage = summary.storage.expect("durable cluster reports storage counters");
    assert!(storage.records_appended > 0, "writes were logged");
    assert!(
        storage.records_replayed > 0,
        "the restart must replay the killed node's log:\n{}",
        summary.render()
    );
    assert!(
        timeline.iter().any(|s| s.events.iter().any(|e| e.starts_with("restart s5 replayed"))),
        "timeline must carry the restart event"
    );
    assert!(summary.render().contains("restarts"), "summary surfaces the restart");
    assert_eq!(summary.invariant_violations, 0, "auditor findings:\n{}", summary.render());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Whole-cluster crash: stop every node, relaunch over the same data
/// directory, and every acknowledged write is still readable.
#[test]
fn whole_cluster_relaunch_recovers_every_acked_write() {
    let dir = scratch_dir("relaunch");
    let cfg = durable_cluster(&dir);

    let first = Cluster::start(&cfg, FaultPlan::default()).unwrap();
    assert_eq!(first.recovery_report().records_replayed, 0, "fresh directory replays nothing");
    let nodes = first.node_infos().to_vec();
    let mut writer = ServeClient::new(&nodes, 0, 0).unwrap();
    for key in 0..60u64 {
        writer.put(key, key + 1, &key.to_le_bytes()).unwrap();
    }
    drop(writer);
    first.shutdown().unwrap();

    let second = Cluster::start(&cfg, FaultPlan::default()).unwrap();
    let recovery = second.recovery_report().clone();
    assert!(recovery.nodes_with_data > 0, "recovery found the logs: {}", recovery.render());
    assert!(recovery.records_replayed >= 60, "every replica's log replays: {}", recovery.render());
    let nodes = second.node_infos().to_vec();
    let mut reader = ServeClient::new(&nodes, 7, 0).unwrap();
    for key in 0..60u64 {
        match reader.get(key).unwrap() {
            GetOutcome::Found { seq, value } => {
                assert_eq!(seq, key + 1, "key {key} came back stale");
                assert_eq!(value, key.to_le_bytes());
            }
            GetOutcome::NotFound => panic!("acked key {key} lost across relaunch"),
        }
    }
    second.shutdown().unwrap();

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The default build stays purely in-memory: no storage counters, no
/// recovery, and a relaunch starts empty — today's exact semantics.
#[test]
fn persistence_off_is_in_memory_only() {
    let cfg = memory_cluster();

    let first = Cluster::start(&cfg, FaultPlan::default()).unwrap();
    assert_eq!(first.recovery_report(), &Default::default());
    let nodes = first.node_infos().to_vec();
    let mut writer = ServeClient::new(&nodes, 0, 0).unwrap();
    for key in 0..20u64 {
        writer.put(key, key + 1, b"ephemeral").unwrap();
    }
    drop(writer);
    let summary = first.shutdown().unwrap();
    assert!(summary.storage.is_none(), "no storage counters without persistence");
    let rendered = summary.render();
    for line in ["restarts", "records_replayed", "segments_written"] {
        assert!(!rendered.contains(line), "summary must not mention durability: {rendered}");
    }

    let second = Cluster::start(&cfg, FaultPlan::default()).unwrap();
    let nodes = second.node_infos().to_vec();
    let mut reader = ServeClient::new(&nodes, 7, 0).unwrap();
    assert!(
        matches!(reader.get(3).unwrap(), GetOutcome::NotFound),
        "an in-memory cluster starts empty"
    );
    second.shutdown().unwrap();
}

/// A live workload must actually cross the checkpoint threshold:
/// `checkpoint_every` sized to the per-shard record count makes every
/// busy shard checkpoint at least once and prune the segments the
/// checkpoint covers — so recovery-from-checkpoint is exercised by a
/// real cluster, not only by the wal unit tests.
#[test]
fn live_load_writes_checkpoints_and_prunes_covered_segments() {
    let dir = scratch_dir("ckpt");
    let mut cfg = durable_cluster(&dir);
    let persistence = cfg.persistence.as_mut().unwrap();
    // ~600 puts × 3 replicas spread over 20 nodes × 2 shards ≈ 45
    // records per shard: a threshold of 8 checkpoints busy shards
    // several times.
    persistence.checkpoint_every = 8;
    let cluster = Cluster::start(&cfg, FaultPlan::default()).unwrap();
    let report = run_loadgen(&small_load(1_200), cluster.node_infos()).unwrap();
    let summary = cluster.shutdown().unwrap();

    assert_eq!(report.lost_acked_writes, 0, "lost acked writes:\n{}", report.render());
    let storage = summary.storage.expect("durable cluster reports storage counters");
    assert!(
        storage.checkpoints_written >= 1,
        "the workload must cross the checkpoint threshold:\n{}",
        summary.render()
    );

    // On disk, every checkpoint pruned what it covers: in any shard
    // directory holding a ckpt-N snapshot, no seg-M with M < N and no
    // older checkpoint survives.
    let mut shards_with_ckpt = 0;
    for node in std::fs::read_dir(&dir).unwrap() {
        let node = node.unwrap().path();
        for shard in std::fs::read_dir(&node).unwrap() {
            let shard = shard.unwrap().path();
            let names: Vec<String> = std::fs::read_dir(&shard)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            let id = |n: &str, pre: &str, suf: &str| -> Option<u64> {
                n.strip_prefix(pre)?.strip_suffix(suf)?.parse().ok()
            };
            let ckpts: Vec<u64> = names.iter().filter_map(|n| id(n, "ckpt-", ".snap")).collect();
            let Some(&cover) = ckpts.iter().max() else { continue };
            shards_with_ckpt += 1;
            assert_eq!(ckpts.len(), 1, "older checkpoints pruned: {names:?}");
            for seg in names.iter().filter_map(|n| id(n, "seg-", ".wal")) {
                assert!(seg >= cover, "segment {seg} predates checkpoint {cover}: {names:?}");
            }
        }
    }
    assert!(shards_with_ckpt > 0, "at least one shard checkpointed on disk");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The restart verb on an in-memory cluster: the node comes back
/// empty (replaying nothing), and replication redundancy — not disk —
/// is what keeps acked writes readable.
#[test]
fn restart_verb_on_memory_cluster_relies_on_replication_only() {
    let plan =
        FaultPlan::from_toml_str("[[at]]\nepoch = 3\nfail_servers = [8]\nrestart_after = 2\n")
            .unwrap();
    let cluster = Cluster::start(&memory_cluster(), plan).unwrap();
    let report = run_loadgen(&small_load(1_200), cluster.node_infos()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(400));
    let summary = cluster.shutdown().unwrap();

    assert_eq!(report.lost_acked_writes, 0, "replication covers the loss:\n{}", report.render());
    assert_eq!(summary.restarts, 1);
    assert_eq!(summary.alive_nodes, 20, "the restarted node rejoined");
    assert!(summary.storage.is_none());
}
