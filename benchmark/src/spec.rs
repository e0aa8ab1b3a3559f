//! The benchmark's names: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. This file is the one place they are
//! written: `BENCHMARK.json` at the repo root is the output of
//! `benchmark --list --json` ([`benchmark_json`]), and `--selfcheck` and
//! a unit test fail if the committed file is anything else.

use std::fmt::Write as _;

/// `command` of `BENCHMARK.json`: the driver appends `--workload`,
/// `--seed`, `--seconds` and `--trace`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `paths` of `BENCHMARK.json`.
pub const PATHS: [&str; 1] = ["benchmark"];

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 16;

/// A workload and the reason it exists.
pub struct WorkloadDef {
    /// Permanent name; later issues cite it.
    pub name: &'static str,
    /// One line on what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "kv_mem",
        why: "20-node in-memory cluster, telemetry on, 50/50 get/put at depth 64: wire, reactor, \
              route, replica fan-out, store, telemetry; nothing durable; control loop settled \
              (its cost is per-layer only)",
    },
    WorkloadDef {
        name: "kv_durable",
        why: "20-node cluster, WAL with fsync=always, telemetry off, 10/90 get/put, then restart \
              and re-read: the write path where an ack means flushed; bypasses telemetry",
    },
    WorkloadDef {
        name: "sim_scale_1m",
        why: "RFH on the sparse engine, 1 thread, 1e6 partitions, no faults: the O(dirty) epoch \
              walk and memory at scale; pool, planner and fault layers do nothing",
    },
    WorkloadDef {
        name: "sim_hot_chaos",
        why: "five policies x 250-epoch flash crowd, rack/site outages, churn, 512 KiB link \
              budget, 1 thread: traffic, decide, planner, repair, audit; bypasses the sparse \
              short-cut and the pool (per-layer only)",
    },
];

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's name, unit and direction; `bound` only end to end.
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// The five end-to-end metrics, the same on every workload. One bound
/// per metric has to hold on all four workloads, so the noisiest one
/// sets it: three times the largest quartile distance any workload
/// showed within a set of ten runs, rounded up to a twentieth and capped
/// at the contract's quarter (the README's baseline has the numbers).
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.2),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("tail_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// Per-layer metrics, printed by `--trace 1` runs. The prefix is the
/// module measured. Counts repeat exactly on the sim workloads.
pub const PER_LAYER: [MetricDef; 96] = [
    // Host and harness: explain spread, move nothing.
    layer("host.nproc", "count", Higher),
    layer("host.server_cores", "count", Higher),
    layer("host.pinned", "count", Higher),
    layer("host.cpu_calib_ms", "ms", Lower),
    layer("host.mem_calib_ms", "ms", Lower),
    layer("host.steal_share", "share", Lower),
    layer("loadgen.threads", "count", Lower),
    layer("run.ops_per_s_mean", "1/s", Higher),
    layer("run.slices", "count", Higher),
    layer("run.slice_rate_iqr_share", "share", Lower),
    layer("run.p999_us", "us", Lower),
    layer("process.cpu_us_per_op", "us", Lower),
    layer("trace.ops_per_s", "1/s", Higher),
    layer("trace.overhead_share", "share", Lower),
    // Client side of the kv path.
    layer("open.p50_us_r4k", "us", Lower),
    layer("open.p99_us_r4k", "us", Lower),
    layer("open.p99_us_r16k", "us", Lower),
    layer("open.max_rate_ok", "1/s", Higher),
    layer("loadgen.sched_lag_p99_us", "us", Lower),
    layer("loadgen.backlog_max", "count", Lower),
    layer("kv.p50_us_d1", "us", Lower),
    layer("client.submit_ns", "ns", Lower),
    // serve::wire
    layer("wire.encode_ns", "ns", Lower),
    layer("wire.decode_ns", "ns", Lower),
    // rfh-reactor
    layer("reactor.frame_reassembly_ns", "ns", Lower),
    layer("reactor.write_flush_ns", "ns", Lower),
    layer("reactor.timer_ns", "ns", Lower),
    // serve::store
    layer("store.put_ns", "ns", Lower),
    layer("store.get_ns", "ns", Lower),
    layer("store.partition_of_ns", "ns", Lower),
    layer("store.bytes_per_key", "B", Lower),
    // serve::wal
    layer("wal.append_sync_us", "us", Lower),
    layer("wal.append_nosync_ns", "ns", Lower),
    layer("wal.checkpoint_ms", "ms", Lower),
    layer("wal.replay_records_per_s", "1/s", Higher),
    layer("durable.recovery_s", "s", Lower),
    layer("durable.p50_us_d1", "us", Lower),
    layer("durable.overhead_share", "share", Lower),
    layer("wal.fsyncs_per_put", "count", Lower),
    layer("wal.records_per_put", "count", Lower),
    layer("wal.disk_bytes_per_user_byte", "B/B", Lower),
    layer("wal.checkpoints", "count", Lower),
    layer("wal.segments", "count", Lower),
    // serve::reactor / node, from /metrics and sampled span chains.
    layer("node.put.queue_us", "us", Lower),
    layer("node.put.handle_us", "us", Lower),
    layer("node.put.forward_us", "us", Lower),
    layer("node.get.handle_us", "us", Lower),
    layer("node.get.forward_us", "us", Lower),
    layer("node.fwd_put.handle_us", "us", Lower),
    layer("span.client_us", "us", Lower),
    layer("span.coordinate_self_us", "us", Lower),
    layer("span.forward_us", "us", Lower),
    layer("cluster.forwards_per_op", "count", Lower),
    layer("cluster.replicas_per_partition", "count", Lower),
    layer("cluster.acks_unavailable", "count", Lower),
    layer("cluster.acks_not_found", "count", Lower),
    // serve::telemetry, rfh-stats, rfh-obs
    layer("telemetry.overhead_share", "share", Lower),
    layer("telemetry.scrape_ms", "ms", Lower),
    layer("stats.histogram_record_ns", "ns", Lower),
    layer("obs.registry_render_us", "us", Lower),
    // serve::control
    layer("control.ticks", "count", Higher),
    layer("control.tick_rate_share", "share", Higher),
    layer("control.replications", "count", Lower),
    layer("control.migrations", "count", Lower),
    layer("control.suicides", "count", Lower),
    // rfh-sim, with_profiling(true)
    layer("sim.phase.events_ms", "ms", Lower),
    layer("sim.phase.workload_ms", "ms", Lower),
    layer("sim.phase.sparse_ms", "ms", Lower),
    layer("sim.phase.traffic_ms", "ms", Lower),
    layer("sim.phase.decide_ms", "ms", Lower),
    layer("sim.phase.apply_ms", "ms", Lower),
    layer("sim.phase.metrics_ms", "ms", Lower),
    layer("sim.warm_epoch_ms", "ms", Lower),
    layer("sim.steady_epoch_ms", "ms", Lower),
    layer("sim.step_ms_max", "ms", Lower),
    layer("sim.dirty_per_epoch", "count", Lower),
    layer("sim.skipped_share", "share", Higher),
    // rfh-traffic, rfh-workload, rfh-core
    layer("traffic.account_ns_per_partition", "ns", Lower),
    layer("traffic.topo_rebuilds", "count", Lower),
    layer("traffic.index_rebuilds", "count", Lower),
    layer("workload.epoch_load_us", "us", Lower),
    layer("core.decide_ns_per_partition", "ns", Lower),
    // sim::planner, rfh-faults, and the quality guards.
    layer("planner.plan_us", "us", Lower),
    layer("faults.begin_epoch_us", "us", Lower),
    layer("faults.audit_us", "us", Lower),
    layer("planner.admitted", "count", Higher),
    layer("planner.deferred", "count", Lower),
    layer("sim.repairs_total", "count", Higher),
    layer("sim.dead_letters", "count", Lower),
    layer("sim.invariant_violations", "count", Lower),
    layer("sim.rfh_sub_rmin_partition_epochs", "count", Lower),
    layer("sim.rfh_replica_utilization", "share", Higher),
    // rfh-pool, rfh-ring, rfh-topology
    layer("pool.speedup_t2", "x", Higher),
    layer("pool.dispatch_us", "us", Lower),
    layer("ring.primary_ns", "ns", Lower),
    layer("topology.route_rebuild_us", "us", Lower),
];

/// Per-layer metrics that are counts made by the program: on the sim
/// workloads they repeat exactly for one seed, and `--selfcheck`
/// requires it. They are also printed by untraced sim runs.
pub const SIM_COUNTS: [&str; 11] = [
    "sim.dirty_per_epoch",
    "sim.skipped_share",
    "traffic.topo_rebuilds",
    "traffic.index_rebuilds",
    "planner.admitted",
    "planner.deferred",
    "sim.repairs_total",
    "sim.dead_letters",
    "sim.invariant_violations",
    "sim.rfh_sub_rmin_partition_epochs",
    "sim.rfh_replica_utilization",
];

/// The text of `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let quoted =
        |items: &[&str]| items.iter().map(|i| format!("\"{i}\"")).collect::<Vec<_>>().join(", ");
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [{}],", quoted(&PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let _ = writeln!(out, "  \"workloads\": [\n{}\n  ],", rows(workloads));
    let metric = |m: &MetricDef, bounded: bool| {
        let bound = if bounded { format!(", \"bound\": {}", m.bound) } else { String::new() };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let end_to_end = END_TO_END.iter().map(|m| metric(m, true)).collect();
    let _ = writeln!(out, "  \"end_to_end\": [\n{}\n  ],", rows(end_to_end));
    let per_layer = PER_LAYER.iter().map(|m| metric(m, false)).collect();
    let _ = writeln!(out, "  \"per_layer\": [\n{}\n  ]", rows(per_layer));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn the_committed_benchmark_json_is_what_the_spec_renders() {
        assert_eq!(
            benchmark_json(),
            include_str!("../../BENCHMARK.json"),
            "regenerate with `benchmark --list --json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = HashSet::new();
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(ok(m.name, "_.-", 64), "bad metric name {}", m.name);
            assert!(m.name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(ok(m.unit, "_/%.-", 16), "bad unit {} on {}", m.unit, m.name);
        }
        for w in &WORKLOADS {
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(ok(w.name, "_.-", 64));
            assert!(w.why.len() <= 200, "why too long on {}", w.name);
            // Written into JSON strings as they are.
            assert!(!w.why.contains(['\n', '"', '\\']), "why needs escaping on {}", w.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for c in SIM_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == c), "{c} is not a per-layer metric");
        }
    }
}
