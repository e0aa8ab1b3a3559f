//! Isolated timings of each crate's public functions, the same battery
//! on every traced run. Inputs are fixed and shaped like the workloads'
//! own (128-byte kv frames, the paper topology, a chaos-sized epoch),
//! so a number here is the cost of one call with nothing else running:
//! what a layer costs, not what it waits for.

use crate::host::{proc_mb, Pinning};
use crate::Res;
use rfh_core::{server_blocking_probabilities, EpochContext, ReplicaManager, ReplicationPolicy};
use rfh_faults::{ChurnConfig, FaultInjector, FaultPlan, InvariantAuditor};
use rfh_obs::MetricsRegistry;
use rfh_pool::WorkerPool;
use rfh_reactor::{FrameReader, TimerWheel, WriteQueue};
use rfh_ring::ConsistentHashRing;
use rfh_serve::loadgen::value_for;
use rfh_serve::store::{partition_of, NodeStore};
use rfh_serve::wal::{ShardLog, StorageStats};
use rfh_serve::wire::{Frame, MAX_FRAME};
use rfh_serve::FsyncPolicy;
use rfh_sim::{link_between, MoveClass, MoveReq, TransferPlanner};
use rfh_stats::Histogram;
use rfh_topology::{paper_topology, RouteTable};
use rfh_traffic::{TrafficEngine, TrafficSmoother};
use rfh_types::{DatacenterId, Epoch, PartitionId, SimConfig};
use rfh_workload::{Scenario, WorkloadGenerator};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Partitions of the sim-side probes: the size of a `sim_hot_chaos`
/// epoch.
const PROBE_PARTITIONS: u32 = 2048;

/// Median over three rounds of `iters` calls of `f`, in ns per call.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut rounds = [0.0f64; 3];
    for r in &mut rounds {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        *r = t0.elapsed().as_nanos() as f64 / f64::from(iters);
    }
    rounds.sort_by(f64::total_cmp);
    rounds[1]
}

fn vm_rss_bytes() -> f64 {
    proc_mb("/proc/self/status", "VmRSS").unwrap_or(0.0) * 1024.0 * 1024.0
}

/// `serve::wire`, `rfh-reactor`, `serve::store`, `rfh-stats`, `rfh-obs`.
fn serve_side(out: &mut Vec<(&'static str, f64)>) {
    let put = Frame::Put { key: 77, seq: 9, value: value_for(77, 9, 128) };
    let encoded = put.encode();
    out.push(("wire.encode_ns", ns_per_call(200_000, || drop(black_box(put.encode())))));
    out.push((
        "wire.decode_ns",
        ns_per_call(200_000, || drop(black_box(Frame::decode_body(&encoded[4..])))),
    ));

    // Frames arrive split across reads: feed each in two pieces.
    let mut reader = FrameReader::new(MAX_FRAME);
    let half = encoded.len() / 2;
    out.push((
        "reactor.frame_reassembly_ns",
        ns_per_call(200_000, || {
            reader.feed(&encoded[..half]);
            reader.feed(&encoded[half..]);
            drop(black_box(reader.next_body()));
        }),
    ));
    let mut queue = WriteQueue::new();
    let mut sink = std::io::sink();
    out.push((
        "reactor.write_flush_ns",
        ns_per_call(200_000, || {
            queue.push(encoded.clone());
            drop(black_box(queue.flush(&mut sink)));
        }),
    ));
    let start = Instant::now();
    let mut wheel = TimerWheel::new(Duration::from_millis(10), 256, start);
    let mut due = Vec::new();
    let mut tick = 0u32;
    out.push((
        "reactor.timer_ns",
        ns_per_call(200_000, || {
            tick += 1;
            let now = start + Duration::from_millis(10) * tick;
            wheel.schedule_after(u64::from(tick), Duration::from_millis(1), now);
            wheel.advance(now + Duration::from_millis(10), &mut due);
            black_box(due.len());
        }),
    ));

    let rss0 = vm_rss_bytes();
    let store = NodeStore::new();
    let keys = 50_000u64;
    let value = value_for(1, 1, 128);
    for k in 0..keys {
        store.put(k, 1, &value);
    }
    out.push(("store.bytes_per_key", ((vm_rss_bytes() - rss0) / keys as f64).max(0.0)));
    let mut k = 0u64;
    out.push((
        "store.put_ns",
        ns_per_call(200_000, || {
            k = (k + 7919) % keys;
            black_box(store.put(k, k + 2, &value));
        }),
    ));
    out.push((
        "store.get_ns",
        ns_per_call(200_000, || {
            k = (k + 7919) % keys;
            drop(black_box(store.get(k)));
        }),
    ));
    out.push((
        "store.partition_of_ns",
        ns_per_call(1_000_000, || {
            k = k.wrapping_add(0x9E37_79B9);
            black_box(partition_of(k, 64));
        }),
    ));

    let mut hist = Histogram::latency();
    let mut x = 100.0f64;
    out.push((
        "stats.histogram_record_ns",
        ns_per_call(1_000_000, || {
            x = (x * 1.37) % 9_000.0;
            hist.record(x);
        }),
    ));
    let mut registry = MetricsRegistry::new();
    for kind in ["get", "put", "fwd_get", "fwd_put"] {
        registry.counter_total(&format!("serve.node.{kind}.count"), 1_000);
        for phase in ["queue_us", "handle_us", "forward_us"] {
            registry.histogram(&format!("serve.node.{kind}.{phase}"), &hist);
        }
    }
    for p in 0..64 {
        registry.counter_total(&format!("serve.node.hits.p{p}"), 10);
    }
    out.push((
        "obs.registry_render_us",
        ns_per_call(2_000, || drop(black_box(registry.render_prometheus()))) / 1e3,
    ));
}

/// `serve::wal`: one shard log in `dir`, 1 KiB records.
fn wal_side(dir: &Path, out: &mut Vec<(&'static str, f64)>) -> Res<()> {
    let io = |e: std::io::Error| format!("wal probe: {e}");
    let value = value_for(5, 5, 1024);
    let stats = Arc::new(StorageStats::default());
    let (mut sync_log, _) =
        ShardLog::open(dir.join("probe-sync"), FsyncPolicy::Always, 1 << 20, Arc::clone(&stats))
            .map_err(io)?;
    let mut seq = 0u64;
    let mut failed = false;
    out.push((
        "wal.append_sync_us",
        ns_per_call(200, || {
            seq += 1;
            failed |= sync_log.append(seq % 512, seq, &value).is_err();
        }) / 1e3,
    ));
    let entries: Vec<_> = (0..1_500u64)
        .map(|k| (k, rfh_serve::store::Versioned { seq: 1, value: value.clone() }))
        .collect();
    let mut rounds = [0.0f64; 3];
    for r in &mut rounds {
        let t0 = Instant::now();
        failed |= sync_log.checkpoint(&entries).is_err();
        *r = t0.elapsed().as_secs_f64() * 1e3;
    }
    rounds.sort_by(f64::total_cmp);
    out.push(("wal.checkpoint_ms", rounds[1]));

    let nosync_dir = dir.join("probe-nosync");
    let (mut log, _) =
        ShardLog::open(nosync_dir.clone(), FsyncPolicy::Never, 1 << 20, Arc::clone(&stats))
            .map_err(io)?;
    out.push((
        "wal.append_nosync_ns",
        ns_per_call(5_000, || {
            seq += 1;
            failed |= log.append(seq % 512, seq, &value).is_err();
        }),
    ));
    drop(log);
    let replay_stats = Arc::new(StorageStats::default());
    let t0 = Instant::now();
    let (reopened, _) =
        ShardLog::open(nosync_dir, FsyncPolicy::Never, 1 << 20, Arc::clone(&replay_stats))
            .map_err(io)?;
    let secs = t0.elapsed().as_secs_f64();
    drop(reopened);
    out.push(("wal.replay_records_per_s", replay_stats.snapshot().records_replayed as f64 / secs));
    if failed {
        return Err("wal probe: an append or checkpoint failed".into());
    }
    Ok(())
}

/// `rfh-traffic`, `rfh-workload`, `rfh-core`, `sim::planner`,
/// `rfh-faults`, `rfh-pool`, `rfh-ring`, `rfh-topology`.
fn sim_side(pin: &Pinning, out: &mut Vec<(&'static str, f64)>) -> Res<()> {
    let err = |e: rfh_types::RfhError| e.to_string();
    let cfg = SimConfig {
        partitions: PROBE_PARTITIONS,
        queries_per_epoch: f64::from(PROBE_PARTITIONS) * 5.0,
        ..SimConfig::default()
    };
    let topo = paper_topology(cfg.capacity_spread, 42).map_err(err)?;
    let mut ring = ConsistentHashRing::new(64);
    for s in topo.servers() {
        ring.join(s.id);
    }
    let mut p = 0u32;
    out.push((
        "ring.primary_ns",
        ns_per_call(500_000, || {
            p = (p + 1) % PROBE_PARTITIONS;
            drop(black_box(ring.primary(PartitionId::new(p))));
        }),
    ));
    out.push((
        "topology.route_rebuild_us",
        ns_per_call(200, || {
            let mut table = RouteTable::new();
            black_box(table.sync(&topo));
        }) / 1e3,
    ));

    let holders = (0..cfg.partitions)
        .map(|p| ring.primary(PartitionId::new(p)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let manager = ReplicaManager::new(&cfg, topo.server_count(), holders).map_err(err)?;
    let dcs = topo.datacenters().len() as u32;
    let mut generator = WorkloadGenerator::new(
        cfg.queries_per_epoch,
        cfg.partitions,
        dcs,
        cfg.partition_skew,
        Scenario::RandomEven,
        100,
        42,
    );
    let mut epoch = 0u64;
    out.push((
        "workload.epoch_load_us",
        ns_per_call(50, || {
            epoch = (epoch + 1) % 100;
            drop(black_box(generator.epoch_load(epoch)));
        }) / 1e3,
    ));
    let load = generator.epoch_load(0);
    let view = manager.placement_view(&topo, cfg.replica_capacity_mean);
    let mut engine = TrafficEngine::new();
    engine.account(&topo, &load, &view);
    let per_partition = f64::from(PROBE_PARTITIONS);
    out.push((
        "traffic.account_ns_per_partition",
        ns_per_call(50, || {
            black_box(engine.account(&topo, &load, &view));
        }) / per_partition,
    ));
    let accounts = engine.accounts().clone();
    let mut smoother = TrafficSmoother::new(cfg.partitions, dcs, cfg.thresholds.alpha);
    smoother.update(&load, &accounts);
    let blocking = server_blocking_probabilities(&topo, &accounts, cfg.replica_capacity_mean);
    let mut policy = rfh_core::RfhPolicy::new();
    out.push((
        "core.decide_ns_per_partition",
        ns_per_call(20, || {
            let ctx = EpochContext {
                epoch: Epoch(1),
                topo: &topo,
                load: &load,
                accounts: &accounts,
                smoother: &smoother,
                blocking: &blocking,
                view: &view,
                config: &cfg,
                recorder: &rfh_obs::NullRecorder,
                active: None,
            };
            drop(black_box(policy.decide(&ctx, &manager)));
        }) / per_partition,
    ));

    // One epoch's offer after a site outage: a few hundred moves over
    // the nine links of one datacenter, 16 KiB each, 512 KiB a link.
    let moves = |n: u32| -> Vec<MoveReq<u32>> {
        (0..n)
            .map(|i| MoveReq {
                tag: i,
                link: Some(link_between(DatacenterId::new(7), DatacenterId::new(i % 9 % 7))),
                bytes: 16 << 10,
                class: if i % 3 == 0 { MoveClass::UnderReplicated } else { MoveClass::Normal },
            })
            .collect()
    };
    let mut planner = TransferPlanner::new();
    out.push((
        "planner.plan_us",
        ns_per_call(2_000, || {
            drop(black_box(planner.plan(moves(400), |_| 512 << 10)));
        }) / 1e3,
    ));

    let plan = FaultPlan {
        seed: 42,
        churn: Some(ChurnConfig { mtbf: 400.0, mttr: 10.0, start: 0, end: None }),
        ..FaultPlan::default()
    };
    let mut chaos_topo = paper_topology(cfg.capacity_spread, 42).map_err(err)?;
    let mut injector = FaultInjector::new(&plan).ok_or("fault probe: empty plan")?;
    let mut fault_epoch = 0u64;
    let mut failed = false;
    out.push((
        "faults.begin_epoch_us",
        ns_per_call(2_000, || {
            failed |= injector.begin_epoch(fault_epoch, &mut chaos_topo).is_err();
            fault_epoch += 1;
        }) / 1e3,
    ));
    let r_min = rfh_stats::min_replica_count(cfg.failure_rate, cfg.min_availability) as usize;
    let mut auditor = InvariantAuditor::new(cfg.partitions, r_min);
    let mut audit_epoch = 0u64;
    out.push((
        "faults.audit_us",
        ns_per_call(200, || {
            audit_epoch += 1;
            black_box(auditor.audit(
                audit_epoch,
                &topo,
                |p, buf| buf.extend_from_slice(manager.replicas(p)),
                |_| false,
            ));
        }) / 1e3,
    ));
    if failed {
        return Err("fault probe: begin_epoch failed".into());
    }

    // The pool's workers inherit their maker's CPU mask: give them both
    // CPUs, as `pool.speedup_t2` does, not the driver's one.
    let dispatch_ns = pin.on_all_cpus(|| {
        let pool = WorkerPool::new(2);
        ns_per_call(5_000, || {
            let jobs: Vec<Box<dyn FnOnce() + Send>> =
                vec![Box::new(|| _ = black_box(1)), Box::new(|| _ = black_box(2))];
            pool.run(jobs);
        })
    });
    out.push(("pool.dispatch_us", dispatch_ns / 1e3));
    Ok(())
}

/// Run the whole battery on the calling (driver) thread; `dir` holds the
/// WAL probe's files.
pub fn run(dir: &Path, pin: &Pinning) -> Res<Vec<(&'static str, f64)>> {
    let mut out = Vec::with_capacity(32);
    serve_side(&mut out);
    wal_side(dir, &mut out)?;
    sim_side(pin, &mut out)?;
    Ok(out)
}
