//! End-to-end telemetry smoke tests: a real loopback cluster scraped
//! over HTTP, span chains for traced ops, and the controller timeline
//! under chaos.

use rfh_faults::FaultPlan;
use rfh_serve::{
    http, render_dashboard, run_loadgen_with, ArrivalMode, Cluster, ClusterConfig, LoadGenConfig,
    TelemetryRing,
};

fn small_cluster(telemetry: bool) -> ClusterConfig {
    ClusterConfig {
        servers_per_rack: 1, // 10 DCs × 2 racks × 1 = 20 nodes
        partitions: 16,
        seed: 7,
        control_interval_ms: 50,
        capacity_spread: 0.25,
        threads: 1,
        telemetry,
        persistence: None,
        ..ClusterConfig::default()
    }
}

fn small_load(ops: u64, trace_sample: u64) -> LoadGenConfig {
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
        trace_sample,
        pipeline: 1,
    }
}

/// Parse `name value` sample lines (no labels) out of a Prometheus
/// text body.
fn samples(body: &str) -> Vec<(String, f64)> {
    body.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn value_of(scrape: &[(String, f64)], name: &str) -> Option<f64> {
    scrape.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

#[test]
fn metrics_endpoints_serve_required_series_and_stay_monotone() {
    let cluster = Cluster::start(&small_cluster(true), FaultPlan::default()).unwrap();
    assert_eq!(cluster.metrics_addrs().len(), 20, "one endpoint per node");
    let ctl = cluster.controller_metrics_addr().expect("controller endpoint exists");

    let report = run_loadgen_with(&small_load(400, 0), cluster.node_infos(), None).unwrap();
    assert_eq!(report.failed, 0, "healthy cluster:\n{}", report.render());

    // Node scrape: per-kind counters and phase summaries, twice —
    // rebuilt per scrape from lifetime totals, so the second scrape
    // sees the same series with values no smaller than the first.
    let node_addr = cluster.metrics_addrs()[0];
    let first = samples(&http::get(node_addr, "/metrics").unwrap());
    for series in [
        "serve_node_get_count",
        "serve_node_put_count",
        "serve_node_fwd_get_count",
        "serve_node_fwd_put_count",
        "serve_node_get_queue_us_count",
        "serve_node_put_handle_us_count",
        "serve_node_put_forward_us_count",
    ] {
        assert!(value_of(&first, series).is_some(), "missing {series} in node scrape");
    }
    let second = samples(&http::get(node_addr, "/metrics").unwrap());
    assert_eq!(
        first.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        second.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "repeated scrapes expose the same series in the same order"
    );
    for (name, v1) in &first {
        if name.ends_with("_count") || name.ends_with("_total") {
            let v2 = value_of(&second, name).unwrap();
            assert!(v2 >= *v1, "{name} went backwards: {v1} -> {v2}");
        }
    }

    // Wait for at least one more control tick so the controller
    // registry includes the drained load, then scrape it twice.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let ctl_first = samples(&http::get(ctl, "/metrics").unwrap());
    for series in [
        "serve_control_ticks",
        "serve_requests_gets",
        "serve_requests_puts",
        "serve_acks_ok",
        "serve_sparse_dirty_partitions",
        "serve_sparse_skipped_partitions",
        "serve_replicas_total",
        "traffic_engine_passes",
    ] {
        assert!(value_of(&ctl_first, series).is_some(), "missing {series} in controller scrape");
    }
    assert!(value_of(&ctl_first, "serve_requests_gets").unwrap() > 0.0, "load was drained");
    std::thread::sleep(std::time::Duration::from_millis(120));
    let ctl_second = samples(&http::get(ctl, "/metrics").unwrap());
    assert!(
        value_of(&ctl_second, "serve_control_ticks").unwrap()
            > value_of(&ctl_first, "serve_control_ticks").unwrap(),
        "ticks advance between scrapes"
    );
    for (name, v1) in &ctl_first {
        if name.starts_with("serve_") && name != "serve_replicas_total" {
            let v2 = value_of(&ctl_second, name).unwrap();
            assert!(v2 >= *v1, "{name} went backwards: {v1} -> {v2}");
        }
    }

    assert!(http::get(node_addr, "/nope").is_err(), "unknown path 404s");
    cluster.shutdown().unwrap();
}

/// Trace every op and demand at least one complete
/// client → coordinate → forward span chain, at the given pipeline
/// depth: the reactor records the spans from event-loop callbacks, and
/// a deep pipeline must not tangle the chains.
fn span_chains_on(pipeline: u64) {
    let cluster = Cluster::start(&small_cluster(true), FaultPlan::default()).unwrap();
    let spans = cluster.span_log();
    // Trace every op: with r_min-replicated partitions on a 20-node
    // cluster, coordinated puts always forward to peer replicas.
    let cfg = LoadGenConfig { pipeline, ..small_load(200, 1) };
    let report = run_loadgen_with(&cfg, cluster.node_infos(), Some(spans.clone())).unwrap();
    assert_eq!(report.failed, 0, "healthy cluster:\n{}", report.render());
    let events = spans.events();
    cluster.shutdown().unwrap();

    assert!(!events.is_empty(), "tracing every op must record spans");
    // Group by op-ID and find a put chain with a forward leg.
    let mut complete = 0;
    let mut op_ids: Vec<u64> = events.iter().map(|e| e.op_id).collect();
    op_ids.sort_unstable();
    op_ids.dedup();
    for id in op_ids {
        let chain: Vec<_> = events.iter().filter(|e| e.op_id == id).collect();
        let has = |role: &str| chain.iter().any(|e| e.role == role);
        if has("client") && has("coordinate") && has("forward") {
            // The causal chain: the client saw the whole round-trip,
            // the coordinator a part of it, the forward target less.
            let client = chain.iter().find(|e| e.role == "client").unwrap();
            let coord = chain.iter().find(|e| e.role == "coordinate").unwrap();
            assert_eq!(client.node, -1, "client spans carry no node id");
            assert!(coord.node >= 0, "server spans carry the node id");
            complete += 1;
        }
    }
    assert!(complete > 0, "at least one traced put must span client → coordinate → forward");

    let jsonl = spans.to_jsonl();
    let line = jsonl.lines().next().unwrap();
    for key in ["\"op_id\":", "\"role\":", "\"node\":", "\"kind\":", "\"status\":"] {
        assert!(line.contains(key), "span JSONL line missing {key}: {line}");
    }
}

#[test]
fn traced_puts_yield_complete_span_chains() {
    span_chains_on(1);
}

#[test]
fn pipelined_traced_ops_keep_their_span_chains() {
    span_chains_on(8);
}

#[test]
fn chaos_timeline_shows_the_kill_and_recovery() {
    // Kill server 5 one tick in — before traffic-driven replication can
    // lift partitions off the r_min floor, so the kill must register as
    // a degraded dip. The timeline alone must show the event, the dip,
    // and the repair back to health.
    let plan = FaultPlan::from_toml_str("[[at]]\nepoch = 1\nfail_servers = [5]\n").unwrap();
    let cluster = Cluster::start(&small_cluster(true), plan).unwrap();
    let report = run_loadgen_with(&small_load(1_200, 0), cluster.node_infos(), None).unwrap();
    assert_eq!(report.lost_acked_writes, 0, "lost writes:\n{}", report.render());
    // Give the control loop time to repair before sampling the tail.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let samples = cluster.timeline();
    let jsonl = cluster.timeline_jsonl();
    cluster.shutdown().unwrap();

    assert!(samples.len() >= 3, "expected several ticks, got {}", samples.len());
    let kill_tick = samples
        .iter()
        .find(|s| s.events.iter().any(|e| e == "kill s5"))
        .expect("the kill event is on the timeline");
    assert_eq!(kill_tick.tick, 1, "fault plan epoch 1 maps to control tick 1");
    assert!(kill_tick.degraded > 0, "a kill at the r_min floor degrades the killed partitions");
    assert!(
        samples.iter().any(|s| s.degraded > 0),
        "losing a node must degrade partitions below r_min"
    );
    let last = samples.last().unwrap();
    assert_eq!(last.degraded, 0, "repair restores the replication floor");
    assert_eq!(last.unavailable, 0);
    assert!(samples.iter().any(|s| s.replications > 0), "repair shows as replications");
    assert!(samples.iter().any(|s| s.ops > 0), "load shows as per-tick ops");
    assert!(samples.iter().any(|s| s.p99_us > 0.0), "server-side latency recorded");

    // The JSONL dump round-trips and the dashboard renders the story.
    let parsed = TelemetryRing::parse_jsonl(&jsonl);
    assert_eq!(parsed, samples);
    let dashboard = render_dashboard(&samples, 72);
    assert!(dashboard.contains("kill s5"), "{dashboard}");
    assert!(dashboard.contains("ops/tick"), "{dashboard}");
    assert!(dashboard.contains("degraded"), "{dashboard}");
}

#[test]
fn disabled_telemetry_exposes_nothing() {
    let cluster = Cluster::start(&small_cluster(false), FaultPlan::default()).unwrap();
    assert!(cluster.metrics_addrs().is_empty(), "no node endpoints");
    assert!(cluster.controller_metrics_addr().is_none(), "no controller endpoint");
    assert_eq!(cluster.render_telemetry_addr_file(), "");
    let report = run_loadgen_with(&small_load(200, 0), cluster.node_infos(), None).unwrap();
    assert_eq!(report.failed, 0);
    assert!(cluster.timeline().is_empty(), "no tick samples without telemetry");
    let summary = cluster.shutdown().unwrap();
    assert_eq!(summary.invariant_violations, 0);
}
