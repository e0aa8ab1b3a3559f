//! The load generator: drives a running cluster and measures it.
//!
//! Two arrival disciplines (see [`ArrivalMode`](crate::ArrivalMode)):
//! closed-loop workers issue back-to-back requests and measure service
//! capacity; open-loop workers drain a Poisson schedule produced by a
//! pacer thread and measure latency *from the scheduled arrival*, so
//! queueing delay counts against the tail — the coordinated-omission-
//! free measurement.
//!
//! Writes carry globally unique sequence numbers from one atomic
//! counter and values derived deterministically from `(key, seq)`, so a
//! post-run verify pass can re-read every acknowledged key and prove no
//! acknowledged write was lost or corrupted — the headline guarantee
//! the serve smoke test asserts under chaos.

use crate::client::{CompletedOp, GetOutcome, PipelinedClient, ServeClient};
use crate::cluster::NodeInfo;
use crate::config::{ArrivalMode, LoadGenConfig};
use crate::wire::{AckStatus, Frame};
use crossbeam::channel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfh_obs::SpanLog;
use rfh_ring::splitmix64;
use rfh_stats::Histogram;
use rfh_types::{Result, RfhError};
use rfh_workload::Zipf;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a load-generation run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// `"closed"` or `"open"`.
    pub mode: &'static str,
    /// Worker threads used.
    pub workers: u32,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that completed with a definitive answer.
    pub completed: u64,
    /// Operations that exhausted client retries.
    pub failed: u64,
    /// Writes acknowledged by the cluster.
    pub acked_writes: u64,
    /// Acknowledged writes the verify pass could not read back at
    /// their acked version or newer. Must be zero.
    pub lost_acked_writes: u64,
    /// Read-back values that did not match the deterministic pattern
    /// for their version. Must be zero.
    pub value_mismatches: u64,
    /// Wall-clock of the measurement phase (excludes verify).
    pub wall_ms: f64,
    /// Completed operations per second.
    pub throughput: f64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th percentile latency, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile latency, microseconds.
    pub p999_us: f64,
}

impl LoadReport {
    /// Serialize as a JSON object (the loadgen report).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"mode\": \"{}\",\n",
                "  \"workers\": {},\n",
                "  \"ops\": {},\n",
                "  \"completed\": {},\n",
                "  \"failed\": {},\n",
                "  \"acked_writes\": {},\n",
                "  \"lost_acked_writes\": {},\n",
                "  \"value_mismatches\": {},\n",
                "  \"wall_ms\": {:.3},\n",
                "  \"throughput_ops_per_sec\": {:.1},\n",
                "  \"latency_us\": {{ \"mean\": {:.1}, \"p50\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1} }}\n",
                "}}"
            ),
            self.mode,
            self.workers,
            self.ops,
            self.completed,
            self.failed,
            self.acked_writes,
            self.lost_acked_writes,
            self.value_mismatches,
            self.wall_ms,
            self.throughput,
            self.mean_us,
            self.p50_us,
            self.p99_us,
            self.p999_us,
        )
    }

    /// Human-readable one-screen summary.
    pub fn render(&self) -> String {
        format!(
            "loadgen ({} loop, {} workers): {}/{} ops completed, {} failed\n\
             throughput {:.0} ops/s over {:.0} ms\n\
             latency µs: mean {:.0}  p50 {:.0}  p99 {:.0}  p999 {:.0}\n\
             acked writes {}  lost {}  value mismatches {}\n",
            self.mode,
            self.workers,
            self.completed,
            self.ops,
            self.failed,
            self.throughput,
            self.wall_ms,
            self.mean_us,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.acked_writes,
            self.lost_acked_writes,
            self.value_mismatches,
        )
    }
}

/// The deterministic payload for `(key, seq)`: a splitmix64 stream, so
/// the verify pass can recompute any version's bytes without storing
/// them client-side.
pub fn value_for(key: u64, seq: u64, len: usize) -> Vec<u8> {
    let mut x = splitmix64(key ^ seq.rotate_left(17));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        x = splitmix64(x);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Per-worker tallies, merged after the run.
struct WorkerOutcome {
    completed: u64,
    failed: u64,
    latency: Histogram,
}

impl WorkerOutcome {
    fn new() -> Self {
        WorkerOutcome { completed: 0, failed: 0, latency: Histogram::latency() }
    }

    fn record(&mut self, latency_us: f64, ok: bool) {
        self.latency.record(latency_us);
        if ok {
            self.completed += 1;
        } else {
            self.failed += 1;
        }
    }
}

/// Shared run state handed to every worker.
struct RunState {
    nodes: Vec<NodeInfo>,
    dcs: Vec<u32>,
    zipf: Zipf,
    cfg: LoadGenConfig,
    /// Globally unique write versions.
    next_seq: AtomicU64,
    /// key → highest acknowledged seq.
    acked: Mutex<HashMap<u64, u64>>,
    /// Global operation counter, driving trace sampling.
    next_op: AtomicU64,
    /// Client spans of sampled ops land here (when tracing).
    spans: Option<Arc<SpanLog>>,
}

impl RunState {
    /// Build one operation: sample a key, flip read/write, stamp a
    /// trace op-ID when sampled. [`settle`](Self::settle) does the
    /// bookkeeping when the ack lands.
    fn build_op(&self, rng: &mut StdRng) -> (Frame, Option<u64>) {
        let key = self.zipf.sample(rng) as u64;
        let is_read = rng.gen_bool(self.cfg.read_fraction);
        // Every n-th op (globally) carries a trace op-ID; zero-based
        // index, one-based ID so 0 never appears on the wire as an ID.
        let op_id = match self.cfg.trace_sample {
            0 => None,
            n => {
                let idx = self.next_op.fetch_add(1, Ordering::Relaxed);
                idx.is_multiple_of(n).then_some(idx + 1)
            }
        };
        let frame = if is_read {
            Frame::Get { key }
        } else {
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            let value = value_for(key, seq, self.cfg.value_bytes as usize);
            Frame::Put { key, seq, value }
        };
        (frame, op_id)
    }

    /// Whether a completion succeeded. An acked put records its version
    /// for the verify pass; an `Unavailable` (or nonsensical) ack is a
    /// failure.
    fn settle(&self, done: &CompletedOp) -> bool {
        match (&done.request, &done.ack) {
            (Frame::Put { key, seq, .. }, Frame::Ack { status: AckStatus::Ok, .. }) => {
                let mut acked = self.acked.lock().expect("acked lock");
                let slot = acked.entry(*key).or_insert(0);
                *slot = (*slot).max(*seq);
                true
            }
            (Frame::Get { .. }, Frame::Ack { status, .. }) => {
                matches!(status, AckStatus::Ok | AckStatus::NotFound)
            }
            _ => false,
        }
    }

    /// Worker `w`'s client — homed round-robin over the datacenters,
    /// `depth` frames in flight — and its private RNG stream.
    fn worker(&self, w: u32, depth: usize) -> Result<(PipelinedClient, StdRng)> {
        let dc = self.dcs[w as usize % self.dcs.len()];
        let mut client = PipelinedClient::new(&self.nodes, dc, w as usize, depth)?;
        if let Some(spans) = &self.spans {
            client.set_span_log(Arc::clone(spans));
        }
        let rng = StdRng::seed_from_u64(splitmix64(
            self.cfg.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        Ok((client, rng))
    }
}

/// Run the configured load against a cluster and verify every
/// acknowledged write afterwards.
pub fn run_loadgen(cfg: &LoadGenConfig, nodes: &[NodeInfo]) -> Result<LoadReport> {
    run_loadgen_with(cfg, nodes, None)
}

/// [`run_loadgen`] with a span log for sampled ops' client-side spans.
/// Pass the cluster's own log (self-hosted runs) to get complete
/// client → coordinator → forward chains in one place.
pub fn run_loadgen_with(
    cfg: &LoadGenConfig,
    nodes: &[NodeInfo],
    spans: Option<Arc<SpanLog>>,
) -> Result<LoadReport> {
    cfg.validate()?;
    if nodes.is_empty() {
        return Err(RfhError::Topology("loadgen needs at least one node".into()));
    }
    let mut dcs: Vec<u32> = nodes.iter().map(|n| n.dc).collect();
    dcs.sort_unstable();
    dcs.dedup();
    // Write versions start at 1 so "never acked" is representable as 0.
    let state = Arc::new(RunState {
        nodes: nodes.to_vec(),
        dcs,
        zipf: Zipf::new(cfg.keys as usize, cfg.zipf_s),
        cfg: cfg.clone(),
        next_seq: AtomicU64::new(1),
        acked: Mutex::new(HashMap::new()),
        next_op: AtomicU64::new(0),
        spans,
    });

    let t_start = Instant::now();
    let outcomes = match cfg.mode {
        ArrivalMode::Closed => run_closed(&state)?,
        ArrivalMode::Open => run_open(&state)?,
    };
    let wall = t_start.elapsed();

    let mut latency = Histogram::latency();
    let (mut completed, mut failed) = (0u64, 0u64);
    for o in &outcomes {
        completed += o.completed;
        failed += o.failed;
        latency.merge(&o.latency);
    }

    let (lost, mismatches, acked_writes) = verify_acked(&state)?;

    let wall_ms = wall.as_secs_f64() * 1e3;
    Ok(LoadReport {
        mode: match cfg.mode {
            ArrivalMode::Closed => "closed",
            ArrivalMode::Open => "open",
        },
        workers: cfg.workers,
        ops: cfg.ops,
        completed,
        failed,
        acked_writes,
        lost_acked_writes: lost,
        value_mismatches: mismatches,
        wall_ms,
        throughput: if wall_ms > 0.0 { completed as f64 / (wall_ms / 1e3) } else { 0.0 },
        mean_us: latency.mean(),
        p50_us: latency.quantile(0.5).unwrap_or(0.0),
        p99_us: latency.quantile(0.99).unwrap_or(0.0),
        p999_us: latency.quantile(0.999).unwrap_or(0.0),
    })
}

/// Closed loop: split the op budget across workers, each keeping up
/// to `pipeline` frames in flight on one datacenter-local connection,
/// so at depth N a single worker extracts coordinator throughput that
/// depth 1 spends waiting out round-trips. Latency is measured from
/// each op's first submission to its ack — queueing inside the window
/// counts against the op.
fn run_closed(state: &Arc<RunState>) -> Result<Vec<WorkerOutcome>> {
    let workers = state.cfg.workers as u64;
    let handles: Vec<_> = (0..state.cfg.workers)
        .map(|w| {
            let state = Arc::clone(state);
            std::thread::Builder::new()
                .name(format!("rfh-loadgen-{w}"))
                .spawn(move || -> Result<WorkerOutcome> {
                    let quota =
                        state.cfg.ops / workers + u64::from((w as u64) < state.cfg.ops % workers);
                    let (mut client, mut rng) = state.worker(w, state.cfg.pipeline as usize)?;
                    let mut out = WorkerOutcome::new();
                    for _ in 0..quota {
                        let (frame, op_id) = state.build_op(&mut rng);
                        if let Some(done) = client.submit(frame, op_id)? {
                            out.record(done.latency_us, state.settle(&done));
                        }
                    }
                    for done in client.drain()? {
                        out.record(done.latency_us, state.settle(&done));
                    }
                    Ok(out)
                })
                .map_err(|e| RfhError::Io(format!("spawn loadgen worker: {e}")))
        })
        .collect::<Result<Vec<_>>>()?;
    handles
        .into_iter()
        .map(|h| h.join().map_err(|_| RfhError::Io("loadgen worker panicked".into()))?)
        .collect()
}

/// Open loop: a pacer thread emits a Poisson arrival schedule into a
/// bounded channel; workers drain it, waiting for each op's scheduled
/// instant and measuring latency from that instant (queueing included).
fn run_open(state: &Arc<RunState>) -> Result<Vec<WorkerOutcome>> {
    let (tx, rx) = channel::bounded::<Instant>(1024);
    let rx = Arc::new(Mutex::new(rx));
    let rate = state.cfg.rate;
    let ops = state.cfg.ops;
    let pacer_seed = splitmix64(state.cfg.seed ^ 0x5041_4345); // "PACE"
    let pacer = std::thread::Builder::new()
        .name("rfh-loadgen-pacer".into())
        .spawn(move || {
            let mut rng = StdRng::seed_from_u64(pacer_seed);
            let mut next = Instant::now();
            for _ in 0..ops {
                let u: f64 = rng.gen();
                next += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
                if tx.send(next).is_err() {
                    return; // all workers gone
                }
            }
        })
        .map_err(|e| RfhError::Io(format!("spawn pacer: {e}")))?;

    let handles: Vec<_> = (0..state.cfg.workers)
        .map(|w| {
            let state = Arc::clone(state);
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("rfh-loadgen-{w}"))
                .spawn(move || -> Result<WorkerOutcome> {
                    let (mut client, mut rng) = state.worker(w, 1)?;
                    let mut out = WorkerOutcome::new();
                    loop {
                        let sched = match rx.lock().expect("schedule lock").try_recv() {
                            Ok(s) => s,
                            Err(channel::TryRecvError::Empty) => {
                                std::thread::sleep(Duration::from_micros(200));
                                continue;
                            }
                            Err(channel::TryRecvError::Disconnected) => break,
                        };
                        let now = Instant::now();
                        if sched > now {
                            std::thread::sleep(sched - now);
                        }
                        let (frame, op_id) = state.build_op(&mut rng);
                        client.submit(frame, op_id)?;
                        // The sample is arrival-to-done, not the
                        // client's submit-to-ack service time.
                        for done in client.drain()? {
                            out.record(sched.elapsed().as_micros() as f64, state.settle(&done));
                        }
                    }
                    Ok(out)
                })
                .map_err(|e| RfhError::Io(format!("spawn loadgen worker: {e}")))
        })
        .collect::<Result<Vec<_>>>()?;

    let outcomes = handles
        .into_iter()
        .map(|h| h.join().map_err(|_| RfhError::Io("loadgen worker panicked".into()))?)
        .collect();
    let _ = pacer.join();
    outcomes
}

/// Read back every acknowledged write. Returns
/// `(lost, value_mismatches, acked_total)`. Runs after the measurement
/// phase, so no concurrent writes race the check; `Unavailable` reads
/// are retried by the client itself, then once more here across a
/// fresh coordinator before a key is declared lost.
fn verify_acked(state: &Arc<RunState>) -> Result<(u64, u64, u64)> {
    let acked = state.acked.lock().expect("acked lock");
    let mut client = ServeClient::new(&state.nodes, state.dcs[0], 0)?;
    let (mut lost, mut mismatches) = (0u64, 0u64);
    for (&key, &seq) in acked.iter() {
        let outcome = match client.get(key) {
            Ok(o) => Ok(o),
            // One more attempt on a different coordinator: the first
            // may sit in a datacenter still converging after chaos.
            Err(_) => {
                client = ServeClient::new(&state.nodes, state.dcs[0], 1)?;
                client.get(key)
            }
        };
        match outcome {
            Ok(GetOutcome::Found { seq: got, value }) if got >= seq => {
                if value != value_for(key, got, state.cfg.value_bytes as usize) {
                    mismatches += 1;
                }
            }
            // Stale version, NotFound, or unreadable: the acked write
            // is gone.
            _ => lost += 1,
        }
    }
    Ok((lost, mismatches, acked.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_pattern_is_deterministic_and_length_exact() {
        for len in [0usize, 1, 7, 8, 128] {
            let a = value_for(42, 9, len);
            assert_eq!(a.len(), len);
            assert_eq!(a, value_for(42, 9, len));
        }
        assert_ne!(value_for(1, 2, 16), value_for(1, 3, 16), "seq changes the pattern");
        assert_ne!(value_for(1, 2, 16), value_for(2, 2, 16), "key changes the pattern");
    }

    #[test]
    fn report_json_is_wellformed_enough() {
        let r = LoadReport {
            mode: "closed",
            workers: 2,
            ops: 10,
            completed: 9,
            failed: 1,
            acked_writes: 4,
            lost_acked_writes: 0,
            value_mismatches: 0,
            wall_ms: 12.5,
            throughput: 720.0,
            mean_us: 100.0,
            p50_us: 90.0,
            p99_us: 400.0,
            p999_us: 900.0,
        };
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"lost_acked_writes\": 0"));
        assert!(json.contains("\"throughput_ops_per_sec\": 720.0"));
        assert!(json.contains("\"p99\": 400.0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(r.render().contains("p99 400"));
    }
}
