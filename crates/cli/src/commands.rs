//! The CLI commands.

use crate::args::{self, Options};
use rfh_core::PolicyKind;
use rfh_experiments::table1 as table1_mod;
use rfh_obs::{Metric, MetricsRegistry, Recorder, TraceRecorder};
use rfh_serve::{
    render_dashboard, run_loadgen_with, Cluster, ClusterConfig, LoadGenConfig, PersistenceConfig,
    ServeClient, TelemetryRing,
};
use rfh_sim::{report, run_comparison_observed, ObsOptions, SimParams, Simulation};
use rfh_topology::paper_topology;
use rfh_types::{Result, RfhError, SimConfig};
use rfh_workload::{EventSchedule, Trace, WorkloadGenerator};
use std::fmt::Write as _;
use std::sync::Arc;

fn params(opts: &Options) -> Result<SimParams> {
    let mut config = SimConfig::default();
    if let Some(n) = args::partitions(opts)? {
        config.partitions = n;
    }
    if let Some(s) = args::skew(opts)? {
        config.partition_skew = s;
    }
    Ok(SimParams {
        config,
        scenario: args::scenario(opts)?,
        policy: args::policy(opts)?,
        epochs: args::epochs(opts)?,
        seed: args::seed(opts)?,
        events: EventSchedule::new(),
        faults: args::fault_plan(opts)?,
        threads: 1,
    })
}

/// `rfh table1`.
pub fn table1(_opts: &Options) -> Result<String> {
    Ok(table1_mod::render(&SimConfig::default()))
}

/// `rfh experiments <name> [--seed N]`: one of the paper's figures or
/// an extension experiment ([`rfh_experiments::NAMES`]). `--seed`
/// defaults to 42, except for `sweep`, whose base seed defaults to
/// 1000.
pub fn experiments(name: Option<&str>, opts: &Options) -> Result<String> {
    let name = name.unwrap_or_default();
    let seed = match name {
        "sweep" => args::numeric(opts, "seed", rfh_experiments::sweep::DEFAULT_BASE_SEED)?,
        _ => args::seed(opts)?,
    };
    rfh_experiments::run(name, seed)
}

/// `rfh topology`: sites, servers, links, and the routes of the paper's
/// running example.
pub fn topology(opts: &Options) -> Result<String> {
    let seed = args::seed(opts)?;
    let topo = paper_topology(SimConfig::default().capacity_spread, seed)?;
    let mut out = String::from("The paper's deployment (Fig. 1):\n\n");
    for dc in topo.datacenters() {
        let _ = writeln!(
            out,
            "  {}  {}-{}-{}  ({:.2}, {:.2})  {} servers",
            dc.site,
            dc.continent,
            dc.country,
            dc.code,
            dc.location.lat_deg,
            dc.location.lon_deg,
            dc.server_count(),
        );
    }
    out.push_str("\nWAN links (one-way latency):\n");
    for dc in topo.datacenters() {
        for (peer, ms) in topo.graph().neighbours(dc.id) {
            if peer.0 > dc.id.0 {
                let _ = writeln!(
                    out,
                    "  {} ↔ {}  {ms:.0} ms  ({:.0} km)",
                    dc.site,
                    topo.datacenter(peer)?.site,
                    topo.distance_km(dc.id, peer)?,
                );
            }
        }
    }
    out.push_str("\nRoutes from the Asian sites to A (the running example):\n");
    let a = topo.datacenter_by_site("A").expect("preset has A").id;
    for site in ["H", "I", "J"] {
        let from = topo.datacenter_by_site(site).expect("preset site").id;
        let path = topo.path(from, a).expect("connected");
        let names: Vec<&str> =
            path.iter().map(|&id| topo.datacenters()[id.index()].site.as_str()).collect();
        let _ = writeln!(
            out,
            "  {} → A: {}  ({:.0} ms)",
            site,
            names.join(" → "),
            topo.graph().latency_ms(from, a).unwrap_or(0.0),
        );
    }
    Ok(out)
}

fn tail(result: &rfh_sim::SimResult, metric: &str) -> f64 {
    let s = result.metrics.series(metric).expect("metric exists");
    s.mean_over(s.len() * 3 / 4, s.len())
}

const SUMMARY_METRICS: [(&str, &str); 8] = [
    ("replica utilization", "utilization"),
    ("total replicas", "replicas_total"),
    ("replication cost (cum)", "replication_cost"),
    ("migrations (cum)", "migrations_total"),
    ("load imbalance", "load_imbalance"),
    ("lookup path length", "path_length"),
    ("mean latency (ms)", "latency_ms"),
    ("SLA within 300 ms", "sla_300ms"),
];

/// `rfh run`: one policy, steady-state summary, optional CSV, optional
/// decision trace (`--trace FILE.jsonl`) and phase profile
/// (`--profile`). Observation only: the summary is identical with and
/// without them.
pub fn run_one(opts: &Options) -> Result<String> {
    let p = params(opts)?;
    let epochs = p.epochs;
    let label = format!(
        "{} under {} for {} epochs (seed {})",
        p.policy.name(),
        p.scenario.name(),
        p.epochs,
        p.seed
    );
    let profiled = args::flag(opts, "profile");
    let planner_cfg = args::planner(opts)?;
    let recorder = opts.get("trace").map(|_| Arc::new(TraceRecorder::new()));
    let mut sim = Simulation::new(p)?
        .with_profiling(profiled)
        .with_engine(args::engine(opts)?)
        .with_planner(planner_cfg);
    if let Some(rec) = &recorder {
        sim = sim.with_recorder(Arc::clone(rec) as Arc<dyn Recorder>);
    }
    while sim.epoch() < epochs {
        sim.step()?;
    }
    let mut registry = MetricsRegistry::new();
    sim.collect_metrics(&mut registry);
    let result = sim.finish();
    let mut out = format!("{label}\nsteady state (last quarter):\n");
    for (name, metric) in SUMMARY_METRICS {
        let _ = writeln!(out, "  {name:24} {:>12.3}", tail(&result, metric));
    }
    let counter = |name: &str| match registry.get(name) {
        Some(Metric::Counter(v)) => *v,
        _ => 0,
    };
    let gauge = |name: &str| match registry.get(name) {
        Some(Metric::Gauge(v)) => *v,
        _ => 0.0,
    };
    out.push_str("robustness:\n");
    let _ = writeln!(out, "  repairs_total            {:>12}", counter("sim.repairs.completed"));
    let _ = writeln!(out, "  dead_letters_total       {:>12}", counter("sim.repairs.dead_letters"));
    let _ = writeln!(out, "  invariant_violations     {:>12}", counter("sim.invariant_violations"));
    let _ =
        writeln!(out, "  spread_score             {:>12.3}", gauge("sim.placement.spread_score"));
    if planner_cfg.link_budget_bytes.is_some() {
        out.push_str("planner:\n");
        let _ = writeln!(out, "  moves_admitted           {:>12}", counter("sim.planner.admitted"));
        let _ = writeln!(out, "  moves_deferred           {:>12}", counter("sim.planner.deferred"));
        let _ =
            writeln!(out, "  credit_bytes             {:>12.0}", gauge("sim.planner.credit_bytes"));
    }
    if registry.get("sim.availability.unavailable_partition_epochs").is_some() {
        out.push_str("availability (under faults):\n");
        let _ = writeln!(
            out,
            "  unavailable_partition_epochs {:>8}",
            counter("sim.availability.unavailable_partition_epochs")
        );
        let _ = writeln!(
            out,
            "  sub_rmin_partition_epochs    {:>8}",
            counter("sim.availability.sub_rmin_partition_epochs")
        );
        let _ = writeln!(
            out,
            "  sub_rmin_peak                {:>8.0}",
            gauge("sim.availability.sub_rmin_peak")
        );
    }
    if let Some(profile) = &result.profile {
        out.push_str("\nper-phase epoch budget:\n");
        out.push_str(&profile.render());
        out.push_str("\ncounters:\n");
        out.push_str(&registry.render());
    }
    if let (Some(path), Some(rec)) = (opts.get("trace"), &recorder) {
        std::fs::write(path, rec.to_jsonl())?;
        let _ = writeln!(out, "{} decision events written to {path}", rec.len());
        if rec.dropped() > 0 {
            let _ = writeln!(out, "({} older events evicted from the trace ring)", rec.dropped());
        }
    }
    if let Some(path) = opts.get("csv") {
        std::fs::write(path, report::run_csv(&result))?;
        let _ = writeln!(out, "full per-epoch metrics written to {path}");
    }
    Ok(out)
}

/// `rfh compare`: the four-way comparison table, with optional
/// per-policy phase budgets (`--profile`) and a shared decision trace
/// (`--trace FILE.jsonl`, events tagged by policy).
pub fn compare(opts: &Options) -> Result<String> {
    let p = params(opts)?;
    let label = format!(
        "all four policies under {} for {} epochs (seed {})",
        p.scenario.name(),
        p.epochs,
        p.seed
    );
    let profiled = args::flag(opts, "profile");
    let recorder = opts.get("trace").map(|_| Arc::new(TraceRecorder::new()));
    let obs = ObsOptions {
        profile: profiled,
        recorder: recorder.clone().map(|r| r as Arc<dyn Recorder>),
        engine: args::engine(opts)?,
    };
    let cmp = run_comparison_observed(&p, &obs)?;
    let mut out = format!("{label}\nsteady state (last quarter):\n\n");
    let _ = write!(out, "{:26}", "metric");
    for kind in PolicyKind::ALL {
        let _ = write!(out, " {:>10}", kind.name());
    }
    out.push('\n');
    for (name, metric) in SUMMARY_METRICS {
        let _ = write!(out, "{name:26}");
        for kind in PolicyKind::ALL {
            let r = cmp.require(kind)?;
            let _ = write!(out, " {:>10.3}", tail(r, metric));
        }
        out.push('\n');
    }
    if profiled {
        out.push('\n');
        out.push_str(&report::profile_table(&cmp));
    }
    if let (Some(path), Some(rec)) = (opts.get("trace"), &recorder) {
        // The four policy threads interleave their pushes into the
        // shared ring nondeterministically; order the file by epoch,
        // then by the comparison's policy order (each policy's events
        // are already in its own proposal order, and the sort is
        // stable), so equal runs write equal traces.
        let mut events = rec.events();
        let rank = |p: &str| PolicyKind::ALL.iter().position(|k| k.name() == p);
        events.sort_by_key(|e| (e.epoch, rank(e.policy)));
        let mut jsonl = String::new();
        for ev in &events {
            jsonl.push_str(&ev.to_json());
            jsonl.push('\n');
        }
        std::fs::write(path, jsonl)?;
        let _ = writeln!(out, "\n{} decision events written to {path}", events.len());
        if rec.dropped() > 0 {
            let _ = writeln!(out, "({} older events evicted from the trace ring)", rec.dropped());
        }
    }
    if let Some(dir) = opts.get("csv-dir") {
        let metrics: Vec<&str> = SUMMARY_METRICS.iter().map(|&(_, m)| m).collect();
        report::write_comparison(&cmp, std::path::Path::new(dir), &metrics)?;
        let _ = writeln!(out, "\nper-metric CSVs written under {dir}/");
    }
    Ok(out)
}

/// `rfh replay`: run a policy against a recorded trace file
/// (`--trace FILE`, format as written by `rfh trace`).
pub fn replay(opts: &Options) -> Result<String> {
    let Some(path) = opts.get("trace") else {
        return Err(rfh_types::RfhError::InvalidConfig {
            parameter: "trace",
            reason: "replay needs --trace FILE".into(),
        });
    };
    let csv = std::fs::read_to_string(path)?;
    let mut p = params(opts)?;
    let trace = Trace::from_csv(&csv, p.config.partitions, rfh_topology::PAPER_DC_COUNT as u32)?;
    if trace.is_empty() {
        return Err(rfh_types::RfhError::Io(format!("{path} contains no epochs")));
    }
    p.epochs = trace.len() as u64;
    let label = format!(
        "{} replaying {} ({} epochs, {} queries)",
        p.policy.name(),
        path,
        trace.len(),
        trace.total_queries()
    );
    let result = Simulation::new(p)?
        .with_shared_trace(Arc::new(trace))
        .with_engine(args::engine(opts)?)
        .run()?;
    let mut out = format!(
        "{label}
steady state (last quarter):
"
    );
    for (name, metric) in SUMMARY_METRICS {
        let _ = writeln!(out, "  {name:24} {:>12.3}", tail(&result, metric));
    }
    Ok(out)
}

/// `rfh trace`: dump a generated workload as CSV.
pub fn trace(opts: &Options) -> Result<String> {
    let epochs = args::epochs(opts)?;
    let seed = args::seed(opts)?;
    let scenario = args::scenario(opts)?;
    let mut cfg = SimConfig::default();
    if let Some(n) = args::partitions(opts)? {
        cfg.partitions = n;
    }
    if let Some(s) = args::skew(opts)? {
        cfg.partition_skew = s;
    }
    let mut generator = WorkloadGenerator::new(
        cfg.queries_per_epoch,
        cfg.partitions,
        rfh_topology::PAPER_DC_COUNT as u32,
        cfg.partition_skew,
        scenario,
        epochs,
        seed,
    );
    let trace = Trace::record(&mut generator, epochs);
    let csv = trace.to_csv();
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &csv)?;
            Ok(format!(
                "{} epochs, {} queries written to {path}\n",
                trace.len(),
                trace.total_queries()
            ))
        }
        None => Ok(csv),
    }
}

fn cluster_config(opts: &Options, key: &'static str) -> Result<ClusterConfig> {
    match opts.get(key) {
        None => Ok(ClusterConfig::default()),
        Some(path) => ClusterConfig::from_toml_str(&std::fs::read_to_string(path)?),
    }
}

/// `rfh serve`: run a live loopback cluster under the online RFH
/// control loop for `--duration-secs` (default 10), then shut down
/// cleanly and print the serving summary. `--addr-file FILE` writes the
/// node address list a concurrent `rfh loadgen --connect FILE` needs —
/// and if the file already exists (a previous incarnation wrote it),
/// every node *rebinds its old address* instead, so clients keep their
/// file across a kill + relaunch; `--persist-dir DIR` turns on durable
/// storage under DIR (WAL + checkpoints; a relaunch replays the logs
/// and prints the recovery banner); `--telemetry-addrs FILE` writes the
/// `/metrics` endpoint addresses (controller first) for scrapers and
/// `rfh watch`; `--timeline FILE` dumps the controller's tick-sample
/// ring as JSONL at shutdown; `--faults PLAN.toml` runs a chaos plan
/// against the live cluster (one control tick = one plan epoch),
/// including `restart_after` kill-then-restart cycles.
pub fn serve(opts: &Options) -> Result<String> {
    let mut cfg = cluster_config(opts, "config")?;
    if let Some(dir) = opts.get("persist-dir") {
        cfg.persistence = Some(PersistenceConfig::with_dir(dir.clone()));
    }
    let faults = args::fault_plan(opts)?;
    let duration = args::numeric(opts, "duration-secs", 10)?;
    // Addr-file handoff: an existing file pins every node back onto
    // the address its previous incarnation served, so a SIGKILLed
    // `rfh serve` can relaunch under running clients.
    let prior_addrs: Option<Vec<std::net::SocketAddr>> = match opts.get("addr-file") {
        Some(path) if std::path::Path::new(path).exists() => {
            let nodes = ServeClient::parse_addr_file(&std::fs::read_to_string(path)?)?;
            Some(nodes.iter().map(|n| n.addr).collect())
        }
        _ => None,
    };
    let cluster = Cluster::start_bound(&cfg, faults, prior_addrs.as_deref())?;
    let mut out = format!(
        "cluster up: {} nodes, {} partitions, control tick every {} ms\n",
        cfg.nodes(),
        cfg.partitions,
        cfg.control_interval_ms
    );
    if cfg.persistence.is_some() {
        let _ = writeln!(out, "{}", cluster.recovery_report().render());
    }
    if let Some(path) = opts.get("addr-file") {
        if prior_addrs.is_some() {
            let _ = writeln!(out, "rebound node addresses from {path}");
        } else {
            std::fs::write(path, cluster.render_addr_file())?;
            let _ = writeln!(out, "node addresses written to {path}");
        }
    }
    if let Some(path) = opts.get("telemetry-addrs") {
        if !cfg.telemetry {
            return Err(RfhError::InvalidConfig {
                parameter: "telemetry-addrs",
                reason: "the cluster config disables telemetry; no endpoints exist".into(),
            });
        }
        std::fs::write(path, cluster.render_telemetry_addr_file())?;
        let _ = writeln!(out, "telemetry endpoints written to {path}");
    }
    std::thread::sleep(std::time::Duration::from_secs(duration));
    let timeline = opts.get("timeline").map(|path| (path, cluster.timeline_jsonl()));
    let summary = cluster.shutdown()?;
    if let Some((path, jsonl)) = timeline {
        std::fs::write(path, jsonl)?;
        let _ = writeln!(out, "timeline written to {path}");
    }
    let _ = writeln!(out, "served {} seconds; clean shutdown\n", duration);
    out.push_str(&summary.render());
    Ok(out)
}

/// `rfh watch`: render the cluster timeline as a terminal dashboard.
/// `--file FILE` renders a timeline JSONL dump once (as written by
/// `rfh serve --timeline`); `--connect ADDR` (or `--telemetry-addrs
/// FILE`, using its `controller` line) polls a live controller's
/// `/timeline` endpoint every `--interval-ms` (default 500) for
/// `--duration-secs` (default 10), printing a frame per poll.
pub fn watch(opts: &Options) -> Result<String> {
    if let Some(path) = opts.get("file") {
        let samples = TelemetryRing::parse_jsonl(&std::fs::read_to_string(path)?);
        return Ok(render_dashboard(&samples, 72));
    }
    let addr = match (opts.get("connect"), opts.get("telemetry-addrs")) {
        (Some(addr), _) => addr.clone(),
        (None, Some(path)) => std::fs::read_to_string(path)?
            .lines()
            .find_map(|l| l.strip_prefix("controller ").map(str::to_string))
            .ok_or_else(|| RfhError::Io(format!("no `controller` line in {path}")))?,
        (None, None) => {
            return Err(RfhError::InvalidConfig {
                parameter: "watch",
                reason: "watch needs --file FILE, --connect ADDR, or --telemetry-addrs FILE".into(),
            })
        }
    };
    let interval = std::time::Duration::from_millis(args::numeric(opts, "interval-ms", 500)?);
    let deadline = std::time::Instant::now()
        + std::time::Duration::from_secs(args::numeric(opts, "duration-secs", 10)?);
    loop {
        let body = rfh_serve::http::get(addr.as_str(), "/timeline")
            .map_err(|e| RfhError::Io(format!("scrape {addr}/timeline: {e}")))?;
        let samples = TelemetryRing::parse_jsonl(&body);
        let frame = render_dashboard(&samples, 72);
        if std::time::Instant::now() >= deadline {
            return Ok(frame);
        }
        println!("{frame}");
        std::thread::sleep(interval);
    }
}

/// `rfh loadgen`: drive a cluster and report throughput, latency
/// percentiles, and the acked-write verification. With
/// `--connect ADDRFILE` it targets a cluster started by `rfh serve
/// --addr-file`; without it, it self-hosts one (shaped by
/// `--cluster-config`, chaos from `--faults`) for
/// the duration of the run. `--config` is the loadgen TOML, `--ops N`
/// overrides the op count, `--pipeline N` keeps up to N frames in
/// flight per closed-loop worker connection, `--report FILE` writes
/// the JSON report, `--sample N` traces every n-th op with a
/// wire-carried op-ID, and `--spans FILE` writes the resulting span
/// chains as JSONL (self-hosted runs include the server-side spans;
/// `--connect` runs see only the client side).
pub fn loadgen(opts: &Options) -> Result<String> {
    let mut lg = match opts.get("config") {
        None => LoadGenConfig::default(),
        Some(path) => LoadGenConfig::from_toml_str(&std::fs::read_to_string(path)?)?,
    };
    lg.ops = args::numeric(opts, "ops", lg.ops)?;
    lg.trace_sample = args::numeric(opts, "sample", lg.trace_sample)?;
    lg.pipeline = args::numeric(opts, "pipeline", lg.pipeline)?;
    lg.validate()?;
    let want_spans = opts.get("spans").is_some();
    let (report, hosted, spans) = match opts.get("connect") {
        Some(path) => {
            let nodes = ServeClient::parse_addr_file(&std::fs::read_to_string(path)?)?;
            let spans = want_spans.then(|| Arc::new(rfh_obs::SpanLog::new()));
            (run_loadgen_with(&lg, &nodes, spans.clone())?, None, spans)
        }
        None => {
            let cfg = cluster_config(opts, "cluster-config")?;
            let cluster = Cluster::start(&cfg, args::fault_plan(opts)?)?;
            // Self-hosted: client spans share the cluster's log, so
            // sampled ops yield complete client → forward chains.
            let spans = want_spans.then(|| cluster.span_log());
            let report = run_loadgen_with(&lg, cluster.node_infos(), spans.clone());
            let summary = cluster.shutdown()?;
            (report?, Some(summary), spans)
        }
    };
    let mut out = report.render();
    if report.lost_acked_writes > 0 || report.value_mismatches > 0 {
        return Err(RfhError::Simulation(format!(
            "acknowledged writes were lost or corrupted:\n{out}"
        )));
    }
    if let Some(path) = opts.get("report") {
        std::fs::write(path, report.to_json())?;
        let _ = writeln!(out, "JSON report written to {path}");
    }
    if let (Some(path), Some(spans)) = (opts.get("spans"), spans) {
        std::fs::write(path, spans.to_jsonl())?;
        let _ = writeln!(out, "{} spans written to {path}", spans.len());
    }
    if let Some(summary) = hosted {
        out.push_str("\nself-hosted cluster summary:\n");
        out.push_str(&summary.render());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn opts(s: &str) -> Options {
        let argv: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        parse(&argv).unwrap().2
    }

    #[test]
    fn table1_contains_parameters() {
        let out = table1(&opts("table1")).unwrap();
        assert!(out.contains("Poisson(λ = 300)"));
        assert!(out.contains("10GiB"));
    }

    #[test]
    fn topology_describes_the_world() {
        let out = topology(&opts("topology")).unwrap();
        assert!(out.contains("NA-USA-GA1"));
        assert!(out.contains("H → A: H → I → E → D → A"));
        assert!(out.contains("10 servers"));
    }

    #[test]
    fn run_prints_summary() {
        let out = run_one(&opts("run --epochs 10 --policy random")).unwrap();
        assert!(out.contains("Random under random for 10 epochs"));
        assert!(out.contains("replica utilization"));
        assert!(out.contains("SLA within 300 ms"));
    }

    #[test]
    fn compare_prints_four_columns() {
        let out = compare(&opts("compare --epochs 5")).unwrap();
        for name in ["Request", "Owner", "Random", "RFH"] {
            assert!(out.contains(name), "{name} missing");
        }
    }

    #[test]
    fn run_traces_and_profiles() {
        let dir = std::env::temp_dir().join(format!("rfh_obs_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("decisions.jsonl");
        let out = run_one(&opts(&format!("run --epochs 10 --profile --trace {}", jsonl.display())))
            .unwrap();
        assert!(out.contains("per-phase epoch budget"));
        assert!(out.contains("traffic"), "phase rows present");
        assert!(out.contains("traffic.engine.passes"), "engine counters present");
        assert!(out.contains("decision events written"));
        let content = std::fs::read_to_string(&jsonl).unwrap();
        assert!(!content.is_empty(), "10 RFH epochs must emit decisions");
        for line in content.lines() {
            assert!(line.starts_with("{\"epoch\":"), "JSONL line: {line}");
            assert!(line.ends_with('}'), "JSONL line: {line}");
        }
        // Observation must not perturb: plain run prints the same summary.
        let plain = run_one(&opts("run --epochs 10")).unwrap();
        let summary_of =
            |s: &str| s.lines().take(1 + SUMMARY_METRICS.len()).collect::<Vec<_>>().join("\n");
        assert_eq!(summary_of(&plain), summary_of(&out));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compare_trace_is_deterministic_and_ordered() {
        let dir = std::env::temp_dir().join(format!("rfh_cmp_trace_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
        let out = compare(&opts(&format!("compare --epochs 8 --trace {}", a.display()))).unwrap();
        assert!(out.contains("decision events written"));
        compare(&opts(&format!("compare --epochs 8 --trace {}", b.display()))).unwrap();
        let (a, b) = (std::fs::read_to_string(&a).unwrap(), std::fs::read_to_string(&b).unwrap());
        assert_eq!(a, b, "equal runs must write equal traces");
        // Epoch-major order, all four policies present.
        let mut last_epoch = 0u64;
        for line in a.lines() {
            let epoch: u64 = line
                .strip_prefix("{\"epoch\":")
                .and_then(|r| r.split(',').next())
                .and_then(|n| n.parse().ok())
                .unwrap();
            assert!(epoch >= last_epoch, "events out of epoch order: {line}");
            last_epoch = epoch;
        }
        for kind in PolicyKind::ALL {
            let tag = format!("\"policy\":\"{}\"", kind.name());
            assert!(a.contains(&tag), "no events tagged {}", kind.name());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compare_profile_prints_phase_budgets() {
        let out = compare(&opts("compare --epochs 5 --profile")).unwrap();
        for kind in PolicyKind::ALL {
            assert!(out.contains(&format!("=== {} phase budget ===", kind.name())));
        }
    }

    #[test]
    fn trace_csv_to_stdout() {
        let out = trace(&opts("trace --epochs 2 --seed 1")).unwrap();
        assert!(out.starts_with("epoch,partition,requester,count\n"));
        assert!(out.lines().count() > 10, "two epochs of λ=300 queries");
    }

    #[test]
    fn replay_runs_a_recorded_trace() {
        let dir = std::env::temp_dir().join(format!("rfh_replay_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("trace.csv");
        trace(&opts(&format!("trace --epochs 8 --seed 2 --out {}", file.display()))).unwrap();
        let out =
            replay(&opts(&format!("replay --trace {} --policy owner", file.display()))).unwrap();
        assert!(out.contains("Owner replaying"));
        assert!(out.contains("8 epochs"));
        assert!(out.contains("replica utilization"));
        // Missing file and missing option both error cleanly.
        assert!(replay(&opts("replay")).is_err());
        assert!(replay(&opts("replay --trace /nonexistent/x.csv")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_accepts_a_fault_plan() {
        let dir = std::env::temp_dir().join(format!("rfh_cli_faults_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.toml");
        std::fs::write(
            &plan,
            "seed = 7\n\n[[at]]\nepoch = 5\nfail_dc = 2\n\n[[at]]\nepoch = 10\nrecover_dc = 2\n",
        )
        .unwrap();
        let chaos =
            run_one(&opts(&format!("run --epochs 20 --faults {}", plan.display()))).unwrap();
        assert!(chaos.contains("replica utilization"));
        // The same plan twice prints the same summary; no plan differs
        // (the outage must leave a trace in the steady-state numbers).
        let again =
            run_one(&opts(&format!("run --epochs 20 --faults {}", plan.display()))).unwrap();
        assert_eq!(chaos, again, "seeded chaos runs are reproducible");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_prints_robustness_counters() {
        let out = run_one(&opts("run --epochs 8")).unwrap();
        assert!(out.contains("robustness:"));
        assert!(out.contains("repairs_total"));
        assert!(out.contains("dead_letters_total"));
        assert!(out.contains("invariant_violations"));
    }

    #[test]
    fn serve_and_loadgen_roundtrip_through_addr_file() {
        let dir = std::env::temp_dir().join(format!("rfh_cli_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cluster_toml = dir.join("cluster.toml");
        std::fs::write(
            &cluster_toml,
            "servers_per_rack = 1\npartitions = 16\ncontrol_interval_ms = 50\n",
        )
        .unwrap();
        let loadgen_toml = dir.join("loadgen.toml");
        std::fs::write(&loadgen_toml, "workers = 4\nops = 300\nkeys = 100\nvalue_bytes = 32\n")
            .unwrap();
        let report_json = dir.join("report.json");

        // Self-hosted loadgen: one command brings the cluster up, drives
        // it, verifies, and tears it down.
        let out = loadgen(&opts(&format!(
            "loadgen --cluster-config {} --config {} --report {}",
            cluster_toml.display(),
            loadgen_toml.display(),
            report_json.display()
        )))
        .unwrap();
        assert!(out.contains("lost 0"), "output:\n{out}");
        assert!(out.contains("self-hosted cluster summary"));
        assert!(out.contains("invariant_violations  0"));
        let json = std::fs::read_to_string(&report_json).unwrap();
        assert!(json.contains("\"lost_acked_writes\": 0"));
        assert!(json.contains("\"p99\""));

        // serve writes an addr file the client parser accepts.
        let addr_file = dir.join("nodes.txt");
        let out = serve(&opts(&format!(
            "serve --config {} --duration-secs 1 --addr-file {}",
            cluster_toml.display(),
            addr_file.display()
        )))
        .unwrap();
        assert!(out.contains("cluster up: 20 nodes"));
        assert!(out.contains("clean shutdown"));
        let nodes =
            ServeClient::parse_addr_file(&std::fs::read_to_string(&addr_file).unwrap()).unwrap();
        assert_eq!(nodes.len(), 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_persists_and_rebinds_across_incarnations() {
        let dir = std::env::temp_dir().join(format!("rfh_cli_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cluster_toml = dir.join("cluster.toml");
        std::fs::write(
            &cluster_toml,
            "servers_per_rack = 1\npartitions = 16\ncontrol_interval_ms = 50\n",
        )
        .unwrap();
        let addr_file = dir.join("nodes.txt");
        let data_dir = dir.join("data");
        let serve_args = format!(
            "serve --config {} --duration-secs 1 --addr-file {} --persist-dir {}",
            cluster_toml.display(),
            addr_file.display(),
            data_dir.display()
        );

        let out = serve(&opts(&serve_args)).unwrap();
        assert!(out.contains("node addresses written"), "first incarnation writes:\n{out}");
        assert!(out.contains("recovery: 0 nodes with data"), "cold dir replays nothing:\n{out}");
        let first_addrs = std::fs::read_to_string(&addr_file).unwrap();

        // Seed node 0's log between incarnations, standing in for the
        // writes a killed process would leave behind.
        {
            let pcfg = PersistenceConfig::with_dir(data_dir.display().to_string());
            let store = rfh_serve::store::NodeStore::durable(&pcfg, 0).unwrap();
            for k in 0..25u64 {
                assert!(store.put(k, k + 1, &k.to_le_bytes()));
            }
        }

        let out = serve(&opts(&serve_args)).unwrap();
        assert!(out.contains("rebound node addresses from"), "handoff taken:\n{out}");
        assert!(out.contains("1 nodes with data"), "node 0's log replayed:\n{out}");
        assert!(out.contains("25 records replayed"), "every record came back:\n{out}");
        assert_eq!(
            std::fs::read_to_string(&addr_file).unwrap(),
            first_addrs,
            "the addr file is never regenerated on a relaunch"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_files_are_written() {
        let dir = std::env::temp_dir().join(format!("rfh_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("run.csv");
        let out = run_one(&opts(&format!("run --epochs 5 --csv {}", csv.display()))).unwrap();
        assert!(out.contains("written"));
        let content = std::fs::read_to_string(&csv).unwrap();
        assert!(content.starts_with("epoch,"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
