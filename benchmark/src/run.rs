//! One benchmark run: a workload's shape, its untraced run (the five
//! end-to-end metrics) and its traced run (every per-layer metric).
//!
//! A traced run must report every per-layer metric whatever the
//! workload, so the layers are grouped into three families — the kv
//! serving path, the durable write path, the simulator — and each
//! family is measured on the workload's own traced pass when the
//! workload exercises it, and on a one-second pass of a fixed small
//! shape (the *probe* shapes below) when it does not.

use crate::hist::{summarize, Slice, SliceSummary};
use crate::host::{self, MemCalib, Pinning};
use crate::kv::{self, Driver, DurableSpec, KvSpec};
use crate::sim::{self, SimSpec};
use crate::trace::Tracer;
use crate::{probes, Res};
use rfh_obs::SpanEvent;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Tail percentile of the sim workloads, over the timed rounds: 225 on
/// `sim_hot_chaos` (22 beyond it), 80 on `sim_scale_1m` (8).
const SIM_TAIL_Q: f64 = 0.9;
/// Set-ups per untraced kv run; `setup_s` is the fastest.
const KV_SETUPS: usize = 3;
/// Open-loop rates of a traced kv pass, ops/s.
const OPEN_RATES: [f64; 4] = [4_000.0, 8_000.0, 16_000.0, 32_000.0];
/// Span buffer of a traced run.
const TRACE_CAPACITY: usize = 1 << 17;

/// Full size, or the small size `--selfcheck` and the tests use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The sizes the bounds were measured at.
    Full,
    /// A few seconds per workload.
    Smoke,
}

/// What a run was asked to do.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed seconds (kv), or the fixed epoch count's nominal length
    /// (sim).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
    /// Every byte the run writes goes under here.
    pub work_dir: PathBuf,
}

/// What a run produced.
pub struct Outcome {
    /// Every output checked was right.
    pub correct: bool,
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations refused, unavailable, lost or errored.
    pub failed: u64,
    /// The metrics of the run's kind: end-to-end or per-layer.
    pub metrics: Vec<(&'static str, f64)>,
    /// Count metrics an untraced run prints besides (not in the result
    /// line).
    pub counts: Vec<(&'static str, f64)>,
    /// Sim workloads: hash of every run's full metric history.
    pub digest: Option<u64>,
    /// Lines for the operator: pinning, what failed.
    pub notes: Vec<String>,
}

/// A workload's shape, by the layer family its timed phase exercises.
enum Shape {
    Kv(KvSpec),
    Durable(KvSpec),
    Sim(SimSpec),
}

/// The shape of `workload` at `scale`. Sim lengths follow `seconds`
/// through constants frozen here, sized so that three repetitions take
/// about as long on a 2-vCPU host as a kv run of `seconds`.
fn shape(workload: &str, scale: Scale, seconds: f64) -> Res<Shape> {
    let full = scale == Scale::Full;
    Ok(match workload {
        "kv_mem" => Shape::Kv(KvSpec {
            servers_per_rack: 1,
            telemetry: true,
            durable: None,
            keys: if full { 60_000 } else { 2_000 },
            value_bytes: 128,
            read_fraction: 0.5,
            slice_secs: 0.25,
            tail_q: 0.99,
        }),
        "kv_durable" => Shape::Durable(KvSpec {
            servers_per_rack: 1,
            telemetry: false,
            durable: Some(DurableSpec {
                checkpoint_every: if full { 512 } else { 64 },
                range_shards: 2,
            }),
            keys: if full { 2_000 } else { 300 },
            value_bytes: 1024,
            read_fraction: 0.1,
            // About 1 300 ops/s: a shorter slice would rank slices by
            // the luck of a few hundred completions.
            slice_secs: 0.5,
            // At depth 64 one stall puts 64 operations into the tail at
            // once. The quiet set holds about 7 000 operations here: p99
            // would rest on one or two stalls, p90 rests on eleven.
            tail_q: 0.9,
        }),
        "sim_scale_1m" => Shape::Sim(SimSpec::Scale {
            partitions: if full { 1_000_000 } else { 20_000 },
            warm: 6,
            // Five epochs per nominal second: epoch cost grows with the
            // epoch index (11 ms at epoch 6, 65 ms at epoch 86), and
            // one repetition — 5 to 7 s of set-up, 80 epochs — takes
            // about 10 s.
            timed: ((seconds * 5.0).round() as u64).max(20),
            reps: 3,
        }),
        "sim_hot_chaos" => Shape::Sim(SimSpec::Chaos {
            partitions: if full { 1536 } else { 128 },
            queries_per_epoch: if full { 7_680.0 } else { 640.0 },
            // One seed's five 250-epoch runs take about 7 s here.
            seeds: ((seconds / 16.0).round() as u64).max(1),
            warm: 25,
            timed: 225,
            threads: 1,
            reps: 3,
        }),
        other => return Err(format!("unknown workload {other:?}; see --list")),
    })
}

fn probe_kv() -> KvSpec {
    KvSpec {
        servers_per_rack: 1,
        telemetry: true,
        durable: None,
        keys: 2_000,
        value_bytes: 128,
        read_fraction: 0.5,
        slice_secs: 0.125,
        tail_q: 0.99,
    }
}

fn probe_durable() -> KvSpec {
    KvSpec {
        servers_per_rack: 1,
        telemetry: false,
        durable: Some(DurableSpec { checkpoint_every: 256, range_shards: 2 }),
        keys: 300,
        value_bytes: 1024,
        read_fraction: 0.1,
        slice_secs: 0.125,
        tail_q: 0.99,
    }
}

fn probe_sim() -> SimSpec {
    SimSpec::Chaos {
        partitions: 512,
        queries_per_epoch: 2_560.0,
        seeds: 1,
        warm: 10,
        timed: 50,
        threads: 1,
        reps: 1,
    }
}

/// Refuse, rather than report zeros, on a host that cannot run the
/// workload as defined.
fn check_host(workload: &str, scale: Scale) -> Res<()> {
    if !cfg!(target_os = "linux") {
        return Err(
            "the benchmark needs Linux: epoll reactor plane, /proc, sched_setaffinity".into()
        );
    }
    if workload == "sim_scale_1m" && scale == Scale::Full {
        let available_mb = host::proc_mb("/proc/meminfo", "MemAvailable").unwrap_or(f64::MAX);
        if available_mb < 2_500.0 {
            return Err(format!(
                "sim_scale_1m needs about 1.5 GB resident; only {available_mb:.0} MB available"
            ));
        }
    }
    Ok(())
}

/// Run one workload once.
pub fn run(opts: &Opts) -> Res<Outcome> {
    check_host(&opts.workload, opts.scale)?;
    let pin = Pinning::plan();
    let shape = shape(&opts.workload, opts.scale, opts.seconds)?;
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    pin.pin_driver();
    let mut outcome = match (&shape, opts.trace) {
        (Shape::Kv(spec) | Shape::Durable(spec), false) => kv_untraced(spec, opts, &pin),
        (Shape::Sim(spec), false) => sim_untraced(spec, opts),
        (_, true) => traced(&shape, opts, &pin),
    }?;
    outcome.notes.insert(0, pin.describe());
    Ok(outcome)
}

// ---------------------------------------------------------------------
// Untraced runs: the end-to-end metrics
// ---------------------------------------------------------------------

fn end_to_end(setup_s: f64, s: &SliceSummary, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", setup_s),
        ("ops_per_s", s.ops_per_s),
        ("p50_us", s.p50_us),
        ("tail_us", s.tail_us),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// One kv set-up, timed: start the cluster and write every key once.
fn kv_set_up(
    spec: &KvSpec,
    opts: &Opts,
    pin: &Pinning,
    wal: &std::path::Path,
) -> Res<(rfh_serve::Cluster, Driver, f64)> {
    let _ = std::fs::remove_dir_all(wal);
    let t0 = Instant::now();
    let cluster = kv::start_cluster(spec, spec.telemetry, Some(wal), pin)?;
    let mut driver = Driver::new(&cluster, spec, opts.seed, pin.allowed.len().min(2))?;
    driver.preload()?;
    Ok((cluster, driver, t0.elapsed().as_secs_f64()))
}

fn kv_untraced(spec: &KvSpec, opts: &Opts, pin: &Pinning) -> Res<Outcome> {
    let wal = opts.work_dir.join("wal");
    // The first set-up stays up for the timed phase, so the process's
    // peak memory, read when that cluster is gone, is that of one
    // cluster's lifetime in a fresh process.
    let (cluster, mut driver, first_setup) = kv_set_up(spec, opts, pin, &wal)?;
    let mut setups = vec![first_setup];
    let closed = driver.run_closed(opts.seconds, spec.slices(opts.seconds), None)?;
    driver.verify()?;
    let summary = cluster.shutdown().map_err(|e| e.to_string())?;
    let mut notes = Vec::new();
    let mut tally = Tally::default();
    tally.absorb(&driver);
    let mut counts = Vec::new();
    if let Some(d) = &spec.durable {
        let storage = summary.storage.ok_or("durable cluster reported no storage counters")?;
        let shards = f64::from(spec.nodes() * d.range_shards);
        let per_shard = storage.checkpoints_written as f64 / shards;
        counts.push(("wal.checkpoints", storage.checkpoints_written as f64));
        if storage.checkpoints_written == 0 {
            return Err(
                "kv_durable crossed no checkpoint: the run is too short to mean anything".into()
            );
        }
        notes.push(format!("checkpoints per shard: {per_shard:.1}"));
        // An acknowledged write must survive a restart from the files.
        // The first cluster's freed memory goes back first, or recovery
        // would stack on whatever fragments of it the allocator kept
        // (peak 23.9 to 27.9 MB over five runs of one seed, against
        // 19.9 to 22.1 at the first cluster's shutdown).
        host::release_freed_memory();
        let restarted = kv::start_cluster(spec, spec.telemetry, Some(&wal), pin)?;
        let mut after = Driver::resume(&restarted, spec, opts.seed, &driver)?;
        after.verify()?;
        restarted.shutdown().map_err(|e| e.to_string())?;
        tally.absorb(&after);
    }
    drop(driver);
    let peak_rss_mb = host::peak_rss_mb();
    // The same set-up again, from the same seed, for its time alone.
    while setups.len() < KV_SETUPS {
        host::release_freed_memory();
        let (cluster, driver, secs) = kv_set_up(spec, opts, pin, &wal)?;
        setups.push(secs);
        drop(driver);
        cluster.shutdown().map_err(|e| e.to_string())?;
    }
    if tally.wrong > 0 {
        notes.push(format!("{} answers contradicted an acknowledged write", tally.wrong));
    }
    let s = summarize(&closed.slices, spec.tail_q);
    Ok(Outcome {
        correct: tally.wrong == 0 && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: end_to_end(fastest(&setups), &s, peak_rss_mb),
        counts,
        digest: None,
        notes,
    })
}

/// Slices of a sim timed phase, for the traced run's spans and
/// bookkeeping: 25 blocks of 9 rounds for the 225-round chaos shape, 20
/// blocks otherwise.
fn sim_slices(spec: &SimSpec) -> usize {
    match spec {
        SimSpec::Scale { .. } => 20,
        SimSpec::Chaos { .. } => 25,
    }
}

/// The end-to-end view of a sim timed phase from the wall time of each
/// of its rounds: the rate over their sum, and exact percentiles over
/// them. Rounds differ in cost by design (the cost of an epoch depends
/// on its index), so nothing here is a statistic over slices; `slices`
/// only supplies the bookkeeping fields.
fn sim_summary(slices: &[Slice], round_ns: &[u64]) -> SliceSummary {
    let mut sorted = round_ns.to_vec();
    sorted.sort_unstable();
    let at = |q: f64| {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64 / 1e3
    };
    let total_ns: u64 = round_ns.iter().sum();
    SliceSummary {
        ops_per_s: round_ns.len() as f64 * 1e9 / total_ns as f64,
        p50_us: at(0.5),
        tail_us: at(SIM_TAIL_Q),
        ..summarize(slices, SIM_TAIL_Q)
    }
}

/// A sim workload's untraced run: `reps` repetitions of set-up and timed
/// phase from the same seed, so the same rounds are executed `reps`
/// times some ten seconds apart, and every round counts with the
/// fastest of its executions.
///
/// The rounds of a sim differ in cost, so no statistic over slices can
/// tell a slow round from a disturbed one; a second execution of the
/// same round can. Six timed phases of one `sim_hot_chaos` seed, one
/// after the other in one process, took 8.5 to 10.1 s, the slow ones
/// with stretches of seconds at 1.2 to 1.4 times the fastest execution
/// of the same rounds; the fastest-of-three sums of the same data lie
/// within 4 %.
///
/// The allocator keeps what a finished repetition freed, so the later
/// set-ups fault in fewer fresh pages than the first (on `sim_scale_1m`
/// about 2 s of 7) and `setup_s`, the fastest, is a set-up on memory the
/// process already holds; what the memory itself costs is
/// `peak_rss_mb`'s to show. Handing the memory back in between would
/// add 6 s of page faults to a run that has none to spare.
fn sim_untraced(spec: &SimSpec, opts: &Opts) -> Res<Outcome> {
    let mut setups = Vec::with_capacity(spec.reps());
    let mut best: Vec<u64> = Vec::new();
    let mut first: Option<sim::SimRun> = None;
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut peak_rss_mb = 0.0;
    for _ in 0..spec.reps() {
        let warmed = sim::set_up(spec, opts.seed)?;
        setups.push(warmed.secs);
        let run = sim::run_timed(spec, warmed, sim_slices(spec), None, None);
        attempted += run.attempted;
        failed += run.failed;
        correct &= run.correct;
        match &first {
            None => {
                // One repetition in a fresh process: what a user's run
                // of this simulation would peak at.
                peak_rss_mb = host::peak_rss_mb();
                best.clone_from(&run.round_ns);
                first = Some(run);
            }
            Some(f) => {
                if f.digest != run.digest || f.counts != run.counts {
                    return Err("two repetitions of one seed gave different results".into());
                }
                for (b, &ns) in best.iter_mut().zip(&run.round_ns) {
                    *b = (*b).min(ns);
                }
            }
        }
    }
    let first = first.ok_or("a sim workload needs at least one repetition")?;
    let s = sim_summary(&first.slices, &best);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: end_to_end(fastest(&setups), &s, peak_rss_mb),
        counts: first.counts,
        digest: Some(first.digest),
        notes: first.notes,
    })
}

/// The fastest of a run's set-ups: like the timings of the timed phase,
/// what set-up costs when nothing disturbs it.
fn fastest(setups: &[f64]) -> f64 {
    setups.iter().copied().fold(f64::INFINITY, f64::min)
}

// ---------------------------------------------------------------------
// Traced runs: every per-layer metric
// ---------------------------------------------------------------------

/// What the workload's own traced pass measured, for `run.*`,
/// `process.*` and `trace.*`.
struct MainPass {
    traced: SliceSummary,
    /// Untraced rate over the same work, measured in the same run.
    reference_ops_per_s: f64,
    p999_us: f64,
    cpu_us_per_op: f64,
}

impl MainPass {
    fn of_kv(spec: &KvSpec, traced: &kv::ClosedStats, reference_ops_per_s: f64) -> MainPass {
        MainPass {
            traced: summarize(&traced.slices, spec.tail_q),
            reference_ops_per_s,
            p999_us: traced.whole.quantile_ns(0.999).unwrap_or(0.0) / 1e3,
            cpu_us_per_op: traced.cpu_us_per_op,
        }
    }
}

struct Family {
    layers: Vec<(&'static str, f64)>,
    pass: MainPass,
    /// The program's own sampled spans of the traced pass.
    program_spans: Vec<SpanEvent>,
    tally: Tally,
}

/// What every family needs of the run.
struct TraceCtx<'a> {
    pin: &'a Pinning,
    opts: &'a Opts,
}

/// Length of an untraced reference pass inside a traced run.
fn reference_secs(seconds: f64) -> f64 {
    (seconds / 5.0).max(0.5)
}

/// Operation counts summed over the drivers of a run.
#[derive(Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Answers that contradicted an acknowledged write.
    wrong: u64,
}

impl Tally {
    fn absorb(&mut self, driver: &Driver) {
        self.attempted += driver.attempted;
        self.failed += driver.failed;
        self.wrong += driver.wrong;
    }
}

/// The traced closed-loop pass of a kv family, under a `run` span. A
/// probe-shape pass has no run-wide tracer but still samples op-IDs
/// (the span metrics need them), into a private buffer.
fn traced_pass(
    driver: &mut Driver,
    seconds: f64,
    slices: usize,
    tracer: Option<&mut Tracer>,
) -> Res<kv::ClosedStats> {
    let mut local = Tracer::new(1 << 12);
    let tracer = tracer.unwrap_or(&mut local);
    let run = tracer.open("run", 0);
    let stats = driver.run_closed(seconds, slices, Some((tracer, run)))?;
    tracer.close(run);
    Ok(stats)
}

/// Closed-loop rate of `spec`'s shape in memory with telemetry off: the
/// baseline both overhead shares are taken against. The pass before
/// the measured one lets the control loop settle, as it had before the
/// family's own reference pass.
fn plain_rate(spec: &KvSpec, seconds: f64, ctx: &TraceCtx, tally: &mut Tally) -> Res<f64> {
    let cluster = kv::start_cluster(spec, false, None, ctx.pin)?;
    let mut driver = Driver::new(&cluster, spec, ctx.opts.seed, ctx.pin.allowed.len().min(2))?;
    driver.preload()?;
    let secs = reference_secs(seconds);
    driver.run_closed(secs, spec.slices(secs), None)?;
    let measured = driver.run_closed(secs, spec.slices(secs), None)?;
    driver.verify()?;
    cluster.shutdown().map_err(|e| e.to_string())?;
    tally.absorb(&driver);
    Ok(summarize(&measured.slices, spec.tail_q).ops_per_s)
}

/// Mean of `pick` over the program's sampled spans with `role` (the
/// program reports whole microseconds, so a median would be a step).
fn span_mean(spans: &[SpanEvent], role: &str, pick: impl Fn(&SpanEvent) -> f64) -> f64 {
    let values: Vec<f64> = spans.iter().filter(|s| s.role == role).map(pick).collect();
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The kv serving path on a telemetry-on cluster of `spec`'s shape:
/// a traced closed-loop pass, an untraced reference, `/metrics`, the
/// sampled span chains, the open-loop ladder, depth 1, and the same
/// shape again with telemetry off.
///
/// `tracer` is the run's span buffer when this is the workload's own
/// family, `None` on the probe shape.
fn kv_family(
    spec: &KvSpec,
    seconds: f64,
    ctx: &TraceCtx,
    tracer: Option<&mut Tracer>,
) -> Res<Family> {
    let (pin, seed) = (ctx.pin, ctx.opts.seed);
    let connections = pin.allowed.len().min(2);
    let mut tally = Tally::default();
    let up = Instant::now();
    let cluster = kv::start_cluster(spec, true, None, pin)?;
    let mut driver = Driver::new(&cluster, spec, seed, connections)?;
    driver.share_span_log(&cluster);
    driver.preload()?;
    let traced = traced_pass(&mut driver, seconds, spec.slices(seconds), tracer)?;
    // The reference runs after the traced pass, when the control loop
    // has settled, so both see the same replica fan-out.
    let secs = reference_secs(seconds);
    let reference = driver.run_closed(secs, spec.slices(secs), None)?;
    let (sums, scrape_ms) = kv::scrape_nodes(&cluster)?;
    let spans = cluster.span_log().events();
    let open_secs = (seconds / 20.0).clamp(0.3, 1.0);
    let mut open = Vec::with_capacity(OPEN_RATES.len());
    for rate in OPEN_RATES {
        open.push(driver.run_open(rate, open_secs, pin.pinned)?);
    }
    let d1 = driver.run_depth1(if seconds >= 10.0 { 2_000 } else { 300 })?;
    driver.verify()?;
    let uptime = up.elapsed().as_secs_f64();
    let summary = cluster.shutdown().map_err(|e| e.to_string())?;
    tally.absorb(&driver);

    let off_rate = plain_rate(spec, seconds, ctx, &mut tally)?;

    let mean_us = |kind: &str, phase: &str| {
        let sum = sums.get(&format!("serve_node_{kind}_{phase}_sum")).copied().unwrap_or(0.0);
        let count = sums.get(&format!("serve_node_{kind}_{phase}_count")).copied().unwrap_or(0.0);
        sum / count.max(1.0)
    };
    let reference_rate = summarize(&reference.slices, spec.tail_q).ops_per_s;
    let ops = (summary.gets + summary.puts).max(1) as f64;
    let ticks_due = uptime * 1e3 / kv::CONTROL_INTERVAL_MS as f64;
    let max_rate_ok =
        OPEN_RATES.iter().zip(&open).filter(|(_, o)| o.ok).map(|(r, _)| *r).fold(0.0, f64::max);
    let layers = vec![
        ("open.p50_us_r4k", open[0].p50_us),
        ("open.p99_us_r4k", open[0].p99_us),
        ("open.p99_us_r16k", open[2].p99_us),
        ("open.max_rate_ok", max_rate_ok),
        ("loadgen.sched_lag_p99_us", open.iter().map(|o| o.lag_p99_us).fold(0.0, f64::max)),
        ("loadgen.backlog_max", open.iter().map(|o| o.backlog_max).max().unwrap_or(0) as f64),
        ("kv.p50_us_d1", d1),
        ("client.submit_ns", traced.client_ns_per_op),
        ("node.put.queue_us", mean_us("put", "queue_us")),
        ("node.put.handle_us", mean_us("put", "handle_us")),
        ("node.put.forward_us", mean_us("put", "forward_us")),
        ("node.get.handle_us", mean_us("get", "handle_us")),
        ("node.get.forward_us", mean_us("get", "forward_us")),
        ("node.fwd_put.handle_us", mean_us("fwd_put", "handle_us")),
        ("span.client_us", span_mean(&spans, "client", |s| s.handle_us)),
        ("span.coordinate_self_us", span_mean(&spans, "coordinate", |s| s.handle_us)),
        ("span.forward_us", span_mean(&spans, "coordinate", |s| s.forward_us)),
        ("cluster.forwards_per_op", summary.forwards as f64 / ops),
        (
            "cluster.replicas_per_partition",
            summary.replicas_total as f64 / f64::from(kv::PARTITIONS),
        ),
        ("cluster.acks_unavailable", summary.acks_unavailable as f64),
        ("cluster.acks_not_found", summary.acks_not_found as f64),
        ("telemetry.overhead_share", 1.0 - reference_rate / off_rate),
        ("telemetry.scrape_ms", scrape_ms),
        ("control.ticks", summary.ticks as f64),
        ("control.tick_rate_share", summary.ticks as f64 / ticks_due),
        ("control.replications", summary.replications as f64),
        ("control.migrations", summary.migrations as f64),
        ("control.suicides", summary.suicides as f64),
    ];
    Ok(Family {
        layers,
        program_spans: spans,
        pass: MainPass::of_kv(spec, &traced, reference_rate),
        tally,
    })
}

/// The durable write path on a WAL-backed cluster of `spec`'s shape:
/// a traced pass, an untraced reference, depth 1, the storage counters
/// at shutdown, a timed restart with every acked key re-read, and the
/// same shape again in memory.
fn durable_family(
    spec: &KvSpec,
    seconds: f64,
    ctx: &TraceCtx,
    tracer: Option<&mut Tracer>,
) -> Res<Family> {
    let (pin, seed) = (ctx.pin, ctx.opts.seed);
    let connections = pin.allowed.len().min(2);
    let wal = ctx.opts.work_dir.join("wal");
    let _ = std::fs::remove_dir_all(&wal);
    let mut tally = Tally::default();
    let cluster = kv::start_cluster(spec, false, Some(&wal), pin)?;
    let mut driver = Driver::new(&cluster, spec, seed, connections)?;
    driver.share_span_log(&cluster);
    driver.preload()?;
    let traced = traced_pass(&mut driver, seconds, spec.slices(seconds), tracer)?;
    let secs = reference_secs(seconds);
    let reference = driver.run_closed(secs, spec.slices(secs), None)?;
    let d1 = driver.run_depth1(if seconds >= 10.0 { 400 } else { 100 })?;
    driver.verify()?;
    let program_spans = cluster.span_log().events();
    let summary = cluster.shutdown().map_err(|e| e.to_string())?;
    let storage = summary.storage.ok_or("durable cluster reported no storage counters")?;

    let t0 = Instant::now();
    let restarted = kv::start_cluster(spec, false, Some(&wal), pin)?;
    let recovery_s = t0.elapsed().as_secs_f64();
    let mut after = Driver::resume(&restarted, spec, seed, &driver)?;
    after.verify()?;
    restarted.shutdown().map_err(|e| e.to_string())?;
    tally.absorb(&driver);
    tally.absorb(&after);

    let mem_rate = plain_rate(spec, seconds, ctx, &mut tally)?;

    let puts = driver.puts_acked.max(1) as f64;
    let reference_rate = summarize(&reference.slices, spec.tail_q).ops_per_s;
    let layers = vec![
        ("durable.recovery_s", recovery_s),
        ("durable.p50_us_d1", d1),
        ("durable.overhead_share", 1.0 - reference_rate / mem_rate),
        ("wal.fsyncs_per_put", storage.fsyncs as f64 / puts),
        ("wal.records_per_put", storage.records_appended as f64 / puts),
        (
            "wal.disk_bytes_per_user_byte",
            (storage.bytes_appended + storage.bytes_checkpointed) as f64
                / (puts * spec.value_bytes as f64),
        ),
        ("wal.checkpoints", storage.checkpoints_written as f64),
        ("wal.segments", storage.segments_written as f64),
    ];
    Ok(Family {
        layers,
        program_spans,
        pass: MainPass::of_kv(spec, &traced, reference_rate),
        tally,
    })
}

struct SimFamily {
    layers: Vec<(&'static str, f64)>,
    pass: MainPass,
    attempted: u64,
    failed: u64,
    correct: bool,
    notes: Vec<String>,
}

/// The simulator: an untraced reference over the first two fifths of the
/// timed phase, then the whole phase with the profiler on and a span
/// per step, then the pool at one and two threads.
fn sim_family(spec: &SimSpec, ctx: &TraceCtx, tracer: Option<&mut Tracer>) -> Res<SimFamily> {
    let seed = ctx.opts.seed;
    let n_slices = sim_slices(spec);
    let reference_slices = n_slices * 2 / 5;
    let reference =
        sim::run_timed(spec, sim::set_up(spec, seed)?, n_slices, Some(reference_slices), None);
    let warmed = sim::set_up(spec, seed)?;
    let warm_epoch_ms = warmed.warm_epoch_ms;
    let cpu0 = host::process_cpu_us();
    let mut local = Tracer::new(1 << 12);
    let (tracer, main) = match tracer {
        Some(t) => (t, true),
        None => (&mut local, false),
    };
    let run_span = tracer.open("run", 0);
    let run = sim::run_timed(spec, warmed, n_slices, None, Some((tracer, run_span)));
    tracer.close(run_span);
    let cpu_us_per_op = (host::process_cpu_us() - cpu0) / run.attempted.max(1) as f64;
    let timed_epochs = run.steps.count().max(1) as f64;
    let phase_ms = |name: &str| {
        run.profile.as_ref().and_then(|p| p.phase(name)).map_or(0.0, |s| s.nanos as f64 / 1e6)
            / timed_epochs
    };
    if main {
        // The profiler's phases as children of the run, end to end, so
        // the run's self time is what no phase accounts for.
        let mut at = tracer.spans()[run_span as usize - 1].start_ns;
        for phase in run.profile.iter().flat_map(|p| &p.phases) {
            tracer.push(phase.name, run_span, at, at + phase.nanos, 0);
            at += phase.nanos;
        }
    }
    // Like with like: the traced run's first slices against the
    // reference's same slices.
    let head = |r: &sim::SimRun| {
        let head = &r.slices[..reference_slices.min(r.slices.len())];
        head.iter().map(|s| s.ops).sum::<u64>() as f64 / head.iter().map(|s| s.secs).sum::<f64>()
    };
    // The traced pass's rate is by the wall, so what the tracer costs
    // between steps is in it.
    let mut traced = sim_summary(&run.slices, &run.round_ns);
    traced.ops_per_s = traced.ops_per_s_mean;
    let reference_ops_per_s = traced.ops_per_s * head(&reference) / head(&run);
    // The pool's threads inherit the caller's mask: measure it where
    // two threads can have two CPUs.
    let (t1, t2) = ctx.pin.on_all_cpus(|| {
        Ok::<_, String>((sim::pool_prefix_secs(2048, 40, 1)?, sim::pool_prefix_secs(2048, 40, 2)?))
    })?;
    let mut layers = vec![
        ("sim.phase.events_ms", phase_ms(rfh_obs::PHASE_EVENTS)),
        ("sim.phase.workload_ms", phase_ms(rfh_obs::PHASE_WORKLOAD)),
        ("sim.phase.sparse_ms", phase_ms(rfh_obs::PHASE_SPARSE)),
        ("sim.phase.traffic_ms", phase_ms(rfh_obs::PHASE_TRAFFIC)),
        ("sim.phase.decide_ms", phase_ms(rfh_obs::PHASE_DECIDE)),
        ("sim.phase.apply_ms", phase_ms(rfh_obs::PHASE_APPLY)),
        ("sim.phase.metrics_ms", phase_ms(rfh_obs::PHASE_METRICS)),
        ("sim.warm_epoch_ms", warm_epoch_ms),
        ("sim.steady_epoch_ms", run.steps.quantile_ns(0.5).unwrap_or(0.0) / 1e6),
        ("sim.step_ms_max", run.steps.max_ns() as f64 / 1e6),
        ("pool.speedup_t2", t1 / t2),
    ];
    layers.extend(run.counts.iter().copied());
    Ok(SimFamily {
        layers,
        pass: MainPass {
            traced,
            reference_ops_per_s,
            p999_us: run.round_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3,
            cpu_us_per_op,
        },
        attempted: run.attempted + reference.attempted,
        failed: run.failed + reference.failed,
        correct: run.correct && reference.correct,
        notes: run.notes,
    })
}

fn traced(shape: &Shape, opts: &Opts, pin: &Pinning) -> Res<Outcome> {
    let jiffies0 = host::cpu_jiffies();
    let mem = MemCalib::new();
    let (cpu_before, mem_before) = (host::cpu_calib_ms(), mem.walk_ms());
    let mut tracer = Tracer::new(TRACE_CAPACITY);
    let ctx = TraceCtx { pin, opts };
    let probe_secs = 1.0;
    // Each family runs on the workload's own shape, with the run's
    // tracer, if the workload exercises it; else on the probe shape.
    let kv = match shape {
        Shape::Kv(spec) => kv_family(spec, opts.seconds, &ctx, Some(&mut tracer)),
        _ => kv_family(&probe_kv(), probe_secs, &ctx, None),
    }?;
    let durable = match shape {
        Shape::Durable(spec) => durable_family(spec, opts.seconds, &ctx, Some(&mut tracer)),
        _ => durable_family(&probe_durable(), probe_secs, &ctx, None),
    }?;
    let sim = match shape {
        Shape::Sim(spec) => sim_family(spec, &ctx, Some(&mut tracer)),
        _ => sim_family(&probe_sim(), &ctx, None),
    }?;
    let mut metrics = probes::run(&opts.work_dir, pin)?;

    let (main, program_spans) = match shape {
        Shape::Kv(_) => (&kv.pass, &kv.program_spans),
        Shape::Durable(_) => (&durable.pass, &durable.program_spans),
        Shape::Sim(_) => (&sim.pass, &Vec::new()),
    };
    let (cpu_after, mem_after) = (host::cpu_calib_ms(), mem.walk_ms());
    metrics.extend([
        ("host.nproc", pin.allowed.len() as f64),
        ("host.server_cores", pin.server.len() as f64),
        ("host.pinned", f64::from(u8::from(pin.pinned))),
        ("host.cpu_calib_ms", (cpu_before + cpu_after) / 2.0),
        ("host.mem_calib_ms", (mem_before + mem_after) / 2.0),
        ("host.steal_share", host::steal_share(jiffies0, host::cpu_jiffies())),
        ("loadgen.threads", 1.0),
        ("run.ops_per_s_mean", main.traced.ops_per_s_mean),
        ("run.slices", main.traced.slices as f64),
        ("run.slice_rate_iqr_share", main.traced.rate_iqr_share),
        ("run.p999_us", main.p999_us),
        ("process.cpu_us_per_op", main.cpu_us_per_op),
        ("trace.ops_per_s", main.traced.ops_per_s),
        ("trace.overhead_share", 1.0 - main.traced.ops_per_s / main.reference_ops_per_s),
    ]);
    metrics.extend(kv.layers);
    metrics.extend(durable.layers);
    metrics.extend(sim.layers);

    let spans_path = opts.work_dir.join("spans.jsonl");
    std::fs::write(&spans_path, tracer.to_jsonl(program_spans))
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    let wrong = kv.tally.wrong + durable.tally.wrong;
    let failed = kv.tally.failed + durable.tally.failed + sim.failed;
    let mut notes = sim.notes;
    if wrong > 0 {
        notes.push(format!("{wrong} answers contradicted an acknowledged write"));
    }
    notes.push(format!(
        "{} harness spans ({} dropped), {} program spans -> {}",
        tracer.spans().len(),
        tracer.dropped(),
        program_spans.len(),
        spans_path.display()
    ));
    Ok(Outcome {
        correct: wrong == 0 && failed == 0 && sim.correct,
        attempted: kv.tally.attempted + durable.tally.attempted + sim.attempted,
        failed,
        metrics,
        counts: Vec::new(),
        digest: None,
        notes,
    })
}

/// `name → value` for looking metrics up by the spec's names.
pub fn by_name(metrics: &[(&'static str, f64)]) -> HashMap<&'static str, f64> {
    metrics.iter().copied().collect()
}
