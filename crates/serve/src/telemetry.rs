//! The serve telemetry plane: server-side phase histograms, the
//! controller's time-series ring, and the `rfh watch` dashboard model.
//!
//! Everything here is measured **where the work happens** — in the
//! reactor threads and the control loop — not at the client. Per request the
//! data plane records three phases:
//!
//! * **queue** — time a put spent deferred behind an odd route epoch
//!   (its partition mid-transfer),
//! * **forward** — summed peer round-trips issued by the coordinator,
//! * **handle** — everything else (local store work, framing).
//!
//! Each node records into one mutex-guarded set of histograms. Only the
//! reactor thread that owns the node's listener records into it; the
//! control tick and a scrape are the only other lockers, so the lock is
//! uncontended. A kind's request count is its `handle` histogram's
//! count. Per-partition hit counters are plain relaxed atomics. With
//! telemetry disabled no recorder exists and the per-request cost is
//! one branch.
//!
//! The control loop drains a per-tick latency histogram every tick and
//! appends one [`TickSample`] to a fixed-capacity [`TelemetryRing`] —
//! the cluster timeline `rfh watch` renders and `/timeline` serves.

use rfh_obs::{MetricsRegistry, SpanLog};
use rfh_stats::Histogram;
use rfh_types::PartitionId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The four request kinds a node serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Client read, coordinated here.
    Get,
    /// Client write, coordinated here.
    Put,
    /// Read forwarded from a coordinator.
    ForwardGet,
    /// Write forwarded from a coordinator.
    ForwardPut,
}

impl ReqKind {
    /// All kinds, in wire-tag order.
    pub const ALL: [ReqKind; 4] =
        [ReqKind::Get, ReqKind::Put, ReqKind::ForwardGet, ReqKind::ForwardPut];

    /// Dense index for per-kind arrays.
    fn index(self) -> usize {
        match self {
            ReqKind::Get => 0,
            ReqKind::Put => 1,
            ReqKind::ForwardGet => 2,
            ReqKind::ForwardPut => 3,
        }
    }

    /// Metric / span label.
    pub fn as_str(self) -> &'static str {
        match self {
            ReqKind::Get => "get",
            ReqKind::Put => "put",
            ReqKind::ForwardGet => "fwd_get",
            ReqKind::ForwardPut => "fwd_put",
        }
    }
}

/// Phase timings of one served request, microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Wait behind an odd route epoch.
    pub queue_us: f64,
    /// Summed peer round-trips.
    pub forward_us: f64,
    /// Local work: total minus queue minus forward.
    pub handle_us: f64,
}

/// A node's histograms: three phases per request kind, plus the
/// total-latency histogram the control loop drains each tick.
struct Phases {
    queue: [Histogram; 4],
    handle: [Histogram; 4],
    forward: [Histogram; 4],
    tick: Histogram,
}

impl Phases {
    fn new() -> Self {
        Phases {
            queue: std::array::from_fn(|_| Histogram::latency()),
            handle: std::array::from_fn(|_| Histogram::latency()),
            forward: std::array::from_fn(|_| Histogram::latency()),
            tick: Histogram::latency(),
        }
    }
}

/// One node's server-side instrumentation.
pub struct NodeTelemetry {
    phases: Mutex<Phases>,
    partition_hits: Vec<AtomicU64>,
}

impl NodeTelemetry {
    fn new(partitions: u32) -> Self {
        NodeTelemetry {
            phases: Mutex::new(Phases::new()),
            partition_hits: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Phases> {
        self.phases.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record one served request.
    pub fn record(&self, kind: ReqKind, t: PhaseTimings) {
        let mut phases = self.lock();
        let k = kind.index();
        phases.queue[k].record(t.queue_us);
        phases.handle[k].record(t.handle_us);
        phases.forward[k].record(t.forward_us);
        phases.tick.record(t.queue_us + t.handle_us + t.forward_us);
    }

    /// Bump the hit counter of the partition a request keyed into.
    pub fn hit(&self, p: PartitionId) {
        self.partition_hits[p.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Merge-and-reset the per-tick histogram into `into`.
    fn drain_tick(&self, into: &mut Histogram) {
        let mut phases = self.lock();
        if phases.tick.count() > 0 {
            into.merge(&phases.tick);
            phases.tick.clear();
        }
    }

    /// Export this node's series: per-kind request counts, per-kind
    /// per-phase latency summaries, and nonzero per-partition hit
    /// counters. Lifetime totals throughout, so repeated collection
    /// into the same registry is idempotent.
    pub fn collect_metrics(&self, registry: &mut MetricsRegistry) {
        for kind in ReqKind::ALL {
            let k = kind.index();
            // One lock per kind: the recording reactor waits behind
            // three summaries at most, not all twelve.
            let phases = self.lock();
            let name = kind.as_str();
            // Every record adds one observation to each phase, so the
            // handle histogram's count is the kind's request count.
            registry.counter_total(&format!("serve.node.{name}.count"), phases.handle[k].count());
            registry.histogram(&format!("serve.node.{name}.queue_us"), &phases.queue[k]);
            registry.histogram(&format!("serve.node.{name}.handle_us"), &phases.handle[k]);
            registry.histogram(&format!("serve.node.{name}.forward_us"), &phases.forward[k]);
        }
        for (p, hits) in self.partition_hits.iter().enumerate() {
            let n = hits.load(Ordering::Relaxed);
            if n > 0 {
                registry.counter_total(&format!("serve.node.hits.p{p}"), n);
            }
        }
    }
}

/// The whole cluster's telemetry plane, hung off the shared state.
///
/// With telemetry disabled ([`ClusterTelemetry::off`]) no node
/// instrumentation exists and [`nodes`](ClusterTelemetry::node) returns
/// `None` everywhere; the span log stays available regardless, because
/// span recording is driven by the op-ID on the wire (a client-side
/// sampling decision), not by the server-side flag.
pub struct ClusterTelemetry {
    nodes: Vec<NodeTelemetry>,
    spans: std::sync::Arc<SpanLog>,
    ring: Mutex<TelemetryRing>,
    registry: Mutex<MetricsRegistry>,
}

impl ClusterTelemetry {
    /// Instrumentation for `node_count` nodes over `partitions`.
    pub fn on(node_count: usize, partitions: u32) -> Self {
        ClusterTelemetry {
            nodes: (0..node_count).map(|_| NodeTelemetry::new(partitions)).collect(),
            spans: std::sync::Arc::new(SpanLog::new()),
            ring: Mutex::new(TelemetryRing::new(TIMELINE_CAPACITY)),
            registry: Mutex::new(MetricsRegistry::new()),
        }
    }

    /// The disabled plane: no per-node state, no recording.
    pub fn off() -> Self {
        ClusterTelemetry {
            nodes: Vec::new(),
            spans: std::sync::Arc::new(SpanLog::new()),
            ring: Mutex::new(TelemetryRing::new(TIMELINE_CAPACITY)),
            registry: Mutex::new(MetricsRegistry::new()),
        }
    }

    /// Whether server-side instrumentation is on.
    pub fn enabled(&self) -> bool {
        !self.nodes.is_empty()
    }

    /// Node `i`'s instrumentation, `None` when disabled.
    pub fn node(&self, i: usize) -> Option<&NodeTelemetry> {
        self.nodes.get(i)
    }

    /// The shared span log (always live; empty unless clients sample).
    pub fn spans(&self) -> &std::sync::Arc<SpanLog> {
        &self.spans
    }

    /// Merge-and-reset every node's per-tick histograms into `into`.
    pub fn drain_tick(&self, into: &mut Histogram) {
        for node in &self.nodes {
            node.drain_tick(into);
        }
    }

    /// Append one tick's sample to the timeline ring.
    pub fn push_sample(&self, sample: TickSample) {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).push(sample);
    }

    /// The timeline so far, oldest tick first.
    pub fn timeline(&self) -> Vec<TickSample> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).samples().iter().cloned().collect()
    }

    /// The timeline as JSONL, one tick per line.
    pub fn timeline_jsonl(&self) -> String {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).to_jsonl()
    }

    /// Replace the controller's published registry (scraped as
    /// `/metrics` on the controller endpoint).
    pub fn publish_registry(&self, registry: MetricsRegistry) {
        *self.registry.lock().unwrap_or_else(|e| e.into_inner()) = registry;
    }

    /// Snapshot of the controller's published registry.
    pub fn registry(&self) -> MetricsRegistry {
        self.registry.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Ticks retained by the controller's timeline ring (at the default
/// 200 ms cadence: two minutes of history).
pub const TIMELINE_CAPACITY: usize = 600;

/// One control tick's worth of cluster state, as the controller saw it.
///
/// Deltas (`ops`, `forwards`, acks, actions, repairs, violations) count
/// events since the previous tick; gauges (`replicas_total`, degraded /
/// unavailable partition counts) are point-in-time. Latency quantiles
/// come from the server-side per-tick histograms, not from any client.
#[derive(Debug, Clone, PartialEq)]
pub struct TickSample {
    /// Control tick index.
    pub tick: u64,
    /// Client operations (gets + puts) coordinated this tick.
    pub ops: u64,
    /// Peer forwards this tick.
    pub forwards: u64,
    /// Ok acks this tick.
    pub acks_ok: u64,
    /// Unavailable acks this tick.
    pub acks_unavailable: u64,
    /// Server-side median request latency this tick, µs (0 if idle).
    pub p50_us: f64,
    /// Server-side p99 request latency this tick, µs (0 if idle).
    pub p99_us: f64,
    /// Replicas placed across all partitions.
    pub replicas_total: u64,
    /// Partitions with fewer than `r_min` live replicas.
    pub degraded: u64,
    /// Partitions with zero live replicas.
    pub unavailable: u64,
    /// Replicate actions executed this tick.
    pub replications: u64,
    /// Migrate actions executed this tick.
    pub migrations: u64,
    /// Suicide actions executed this tick.
    pub suicides: u64,
    /// Deferred transfers completed this tick.
    pub repairs: u64,
    /// Invariant-auditor findings this tick.
    pub violations: u64,
    /// Fault-plan events this tick (`"kill s17"`, `"recover s17"`,
    /// ...). Plain words only — no quotes or commas — so the JSONL
    /// round-trip stays trivial.
    pub events: Vec<String>,
}

impl TickSample {
    /// Pinned-schema JSON object, fixed key order.
    pub fn to_json(&self) -> String {
        let events = self.events.iter().map(|e| format!("\"{e}\"")).collect::<Vec<_>>().join(",");
        format!(
            "{{\"tick\":{},\"ops\":{},\"forwards\":{},\"acks_ok\":{},\"acks_unavailable\":{},\
             \"p50_us\":{:.1},\"p99_us\":{:.1},\"replicas_total\":{},\"degraded\":{},\
             \"unavailable\":{},\"replications\":{},\"migrations\":{},\"suicides\":{},\
             \"repairs\":{},\"violations\":{},\"events\":[{events}]}}",
            self.tick,
            self.ops,
            self.forwards,
            self.acks_ok,
            self.acks_unavailable,
            self.p50_us,
            self.p99_us,
            self.replicas_total,
            self.degraded,
            self.unavailable,
            self.replications,
            self.migrations,
            self.suicides,
            self.repairs,
            self.violations,
        )
    }

    /// Parse one [`TickSample::to_json`] line back. Tolerates any key
    /// order; unknown keys are ignored, missing numeric keys default
    /// to zero.
    pub fn from_json(line: &str) -> Option<TickSample> {
        let num = |key: &str| -> f64 { json_number(line, key).unwrap_or(0.0) };
        // `tick` must be present for the line to count as a sample.
        json_number(line, "tick")?;
        Some(TickSample {
            tick: num("tick") as u64,
            ops: num("ops") as u64,
            forwards: num("forwards") as u64,
            acks_ok: num("acks_ok") as u64,
            acks_unavailable: num("acks_unavailable") as u64,
            p50_us: num("p50_us"),
            p99_us: num("p99_us"),
            replicas_total: num("replicas_total") as u64,
            degraded: num("degraded") as u64,
            unavailable: num("unavailable") as u64,
            replications: num("replications") as u64,
            migrations: num("migrations") as u64,
            suicides: num("suicides") as u64,
            repairs: num("repairs") as u64,
            violations: num("violations") as u64,
            events: json_string_array(line, "events"),
        })
    }
}

/// Extract the numeric value of `"key":<number>` from a flat JSON line.
fn json_number(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract `"key":["a","b",...]` as strings from a flat JSON line.
fn json_string_array(line: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\":[");
    let Some(start) = line.find(&pat).map(|i| i + pat.len()) else {
        return Vec::new();
    };
    let Some(end) = line[start..].find(']').map(|i| start + i) else {
        return Vec::new();
    };
    line[start..end]
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Fixed-capacity ring of [`TickSample`]s, oldest first.
#[derive(Debug)]
pub struct TelemetryRing {
    capacity: usize,
    samples: std::collections::VecDeque<TickSample>,
    dropped: u64,
}

impl TelemetryRing {
    /// A ring retaining at most `capacity` ticks.
    pub fn new(capacity: usize) -> Self {
        TelemetryRing {
            capacity: capacity.max(1),
            samples: std::collections::VecDeque::new(),
            dropped: 0,
        }
    }

    /// Append a tick, evicting the oldest at capacity.
    pub fn push(&mut self, sample: TickSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
    }

    /// Retained ticks, oldest first.
    pub fn samples(&self) -> &std::collections::VecDeque<TickSample> {
        &self.samples
    }

    /// Ticks evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The ring as JSONL, one tick per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 220);
        for s in &self.samples {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }

    /// Parse a [`TelemetryRing::to_jsonl`] dump (or a `/timeline`
    /// response) back into samples, skipping unparseable lines.
    pub fn parse_jsonl(text: &str) -> Vec<TickSample> {
        text.lines().filter_map(TickSample::from_json).collect()
    }
}

/// Render the `rfh watch` terminal dashboard from a timeline: sparkline
/// rows for throughput, server-side p99, replica total and degraded
/// partitions, fault events inline, and the latest tick's stats. Runs
/// longer than `width` ticks are downsampled into `width` buckets with
/// a trouble-biased aggregate (max ops/p99/degraded, min replicas), so
/// a one-tick dip anywhere in the run stays visible. Pure text in,
/// text out — testable without a terminal.
pub fn render_dashboard(samples: &[TickSample], width: usize) -> String {
    if samples.is_empty() {
        return "rfh watch — no timeline samples yet\n".to_string();
    }
    let width = width.max(8);
    let bucket = samples.len().div_ceil(width);
    let series = |f: &dyn Fn(&TickSample) -> f64, minimize: bool| {
        samples
            .chunks(bucket)
            .map(|c| {
                let vals = c.iter().map(f);
                if minimize {
                    vals.fold(f64::INFINITY, f64::min)
                } else {
                    vals.fold(f64::NEG_INFINITY, f64::max)
                }
            })
            .collect::<Vec<f64>>()
    };
    let ops = series(&|s| s.ops as f64, false);
    let p99 = series(&|s| s.p99_us, false);
    let replicas = series(&|s| s.replicas_total as f64, true);
    let degraded = series(&|s| (s.degraded + s.unavailable) as f64, false);

    let total_ops: u64 = samples.iter().map(|s| s.ops).sum();
    let mut out = String::new();
    out.push_str(&format!(
        "rfh watch — ticks {}..{}  ({} ops total)\n",
        samples[0].tick,
        samples[samples.len() - 1].tick,
        total_ops,
    ));
    let row = |label: &str, values: &[f64]| {
        let (lo, hi) = bounds(values);
        format!("{label:<10} {}  [{:.0}..{:.0}]\n", sparkline(values), lo, hi)
    };
    out.push_str(&row("ops/tick", &ops));
    out.push_str(&row("p99 µs", &p99));
    out.push_str(&row("replicas", &replicas));
    out.push_str(&row("degraded", &degraded));

    let events: Vec<String> = samples
        .iter()
        .flat_map(|s| s.events.iter().map(move |e| format!("t{} {e}", s.tick)))
        .collect();
    if !events.is_empty() {
        out.push_str(&format!("events: {}\n", events.join("; ")));
    }
    let last = &samples[samples.len() - 1];
    out.push_str(&format!(
        "tick {}: ops {}  fwd {}  p50 {:.0}µs  p99 {:.0}µs  replicas {}  degraded {}  \
         unavailable {}  violations {}\n",
        last.tick,
        last.ops,
        last.forwards,
        last.p50_us,
        last.p99_us,
        last.replicas_total,
        last.degraded,
        last.unavailable,
        last.violations,
    ));
    out
}

fn bounds(values: &[f64]) -> (f64, f64) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if lo.is_finite() {
        (lo, hi)
    } else {
        (0.0, 0.0)
    }
}

/// Eight-level unicode sparkline, scaled to the series' own range.
fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (lo, hi) = bounds(values);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|&v| {
            let t = ((v - lo) / span * 7.0).round().clamp(0.0, 7.0) as usize;
            LEVELS[t]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tick: u64) -> TickSample {
        TickSample {
            tick,
            ops: 100 + tick,
            forwards: 30,
            acks_ok: 99,
            acks_unavailable: 1,
            p50_us: 250.0,
            p99_us: 900.5,
            replicas_total: 192,
            degraded: 2,
            unavailable: 0,
            replications: 1,
            migrations: 0,
            suicides: 0,
            repairs: 0,
            violations: 0,
            events: vec!["kill s17".to_string()],
        }
    }

    #[test]
    fn tick_sample_json_roundtrips() {
        let s = sample(7);
        let parsed = TickSample::from_json(&s.to_json()).expect("parse back");
        assert_eq!(parsed, s);
        let mut empty_events = sample(8);
        empty_events.events.clear();
        assert_eq!(TickSample::from_json(&empty_events.to_json()), Some(empty_events));
        assert_eq!(TickSample::from_json("not json"), None);
    }

    #[test]
    fn ring_bounds_and_jsonl_roundtrip() {
        let mut ring = TelemetryRing::new(3);
        for t in 0..5 {
            ring.push(sample(t));
        }
        assert_eq!(ring.samples().len(), 3);
        assert_eq!(ring.dropped(), 2);
        let ticks: Vec<u64> = ring.samples().iter().map(|s| s.tick).collect();
        assert_eq!(ticks, [2, 3, 4], "oldest evicted first");
        let parsed = TelemetryRing::parse_jsonl(&ring.to_jsonl());
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0], sample(2));
    }

    #[test]
    fn node_telemetry_records_phases_and_exports() {
        let node = NodeTelemetry::new(4);
        node.record(
            ReqKind::Put,
            PhaseTimings { queue_us: 10.0, forward_us: 200.0, handle_us: 40.0 },
        );
        node.record(
            ReqKind::Put,
            PhaseTimings { queue_us: 20.0, forward_us: 100.0, handle_us: 30.0 },
        );
        node.record(ReqKind::Get, PhaseTimings { queue_us: 0.0, forward_us: 0.0, handle_us: 15.0 });
        node.hit(PartitionId::new(2));
        node.hit(PartitionId::new(2));

        let mut reg = MetricsRegistry::new();
        node.collect_metrics(&mut reg);
        assert_eq!(reg.get("serve.node.put.count"), Some(&rfh_obs::Metric::Counter(2)));
        assert_eq!(reg.get("serve.node.get.count"), Some(&rfh_obs::Metric::Counter(1)));
        assert_eq!(reg.get("serve.node.hits.p2"), Some(&rfh_obs::Metric::Counter(2)));
        assert_eq!(reg.get("serve.node.hits.p0"), None, "zero hits not exported");
        match reg.get("serve.node.put.forward_us") {
            Some(rfh_obs::Metric::Summary { count, mean, .. }) => {
                assert_eq!(*count, 2);
                assert!((mean - 150.0).abs() < 1e-9, "{mean}");
            }
            other => panic!("expected summary, got {other:?}"),
        }
        for kind in ReqKind::ALL {
            let name = kind.as_str();
            let Some(rfh_obs::Metric::Counter(count)) =
                reg.get(&format!("serve.node.{name}.count"))
            else {
                panic!("{name} count missing");
            };
            match reg.get(&format!("serve.node.{name}.handle_us")) {
                Some(rfh_obs::Metric::Summary { count: handled, .. }) => {
                    assert_eq!(count, handled, "{name}: count is the handle_us count")
                }
                other => panic!("expected summary, got {other:?}"),
            }
        }
        // Collecting again overwrites rather than double-counting.
        node.collect_metrics(&mut reg);
        assert_eq!(reg.get("serve.node.put.count"), Some(&rfh_obs::Metric::Counter(2)));
    }

    #[test]
    fn tick_drain_merges_and_resets() {
        let tel = ClusterTelemetry::on(2, 4);
        assert!(tel.enabled());
        tel.node(0).unwrap().record(
            ReqKind::Get,
            PhaseTimings { queue_us: 0.0, forward_us: 0.0, handle_us: 100.0 },
        );
        tel.node(1).unwrap().record(
            ReqKind::Put,
            PhaseTimings { queue_us: 50.0, forward_us: 0.0, handle_us: 50.0 },
        );
        let mut hist = Histogram::latency();
        tel.drain_tick(&mut hist);
        assert_eq!(hist.count(), 2, "both nodes drained");
        hist.clear();
        tel.drain_tick(&mut hist);
        assert_eq!(hist.count(), 0, "drain resets the tick histograms");
    }

    #[test]
    fn disabled_plane_has_no_nodes() {
        let tel = ClusterTelemetry::off();
        assert!(!tel.enabled());
        assert!(tel.node(0).is_none());
        assert_eq!(tel.timeline_jsonl(), "");
    }

    #[test]
    fn dashboard_shows_kill_and_recovery() {
        // A chaos run in miniature: steady, kill (degraded spikes,
        // throughput dips), repair, recovery.
        let mut samples: Vec<TickSample> = (0..10).map(sample).collect();
        for s in samples.iter_mut() {
            s.events.clear();
            s.degraded = 0;
        }
        samples[4].events.push("kill s17".to_string());
        samples[4].degraded = 5;
        samples[4].ops = 40;
        samples[5].degraded = 3;
        samples[5].replications = 4;
        samples[6].events.push("recover s17".to_string());
        let text = render_dashboard(&samples, 80);
        assert!(text.contains("t4 kill s17"), "{text}");
        assert!(text.contains("t6 recover s17"), "{text}");
        assert!(text.contains("degraded"), "{text}");
        assert!(text.lines().count() >= 6);
        assert_eq!(render_dashboard(&[], 80), "rfh watch — no timeline samples yet\n");
    }
}
