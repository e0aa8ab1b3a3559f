//! The live-cluster side of the benchmark: starting a loopback cluster
//! on the server CPUs, the single-threaded client that drives it
//! (closed loop, open loop, depth 1), and the correctness checks.
//!
//! The client is one thread on its own CPU driving one pipelined
//! connection per client CPU (at most two), homed in different
//! datacenters, at a total depth of [`TOTAL_DEPTH`]: deep enough that
//! the server core never idles (rule N2), so a vCPU's halt/wake latency
//! is off the measured path.

use crate::hist::{LogHist, Slice};
use crate::host::{self, Pinning};
use crate::trace::Tracer;
use crate::Res;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfh_faults::FaultPlan;
use rfh_serve::loadgen::value_for;
use rfh_serve::wire::{AckStatus, Conn, Frame};
use rfh_serve::{
    Cluster, ClusterConfig, CompletedOp, FsyncPolicy, NodeInfo, PersistenceConfig, PipelinedClient,
    ServeClient,
};
use rfh_workload::Zipf;
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Partitions the key space hashes into, on every kv shape.
pub const PARTITIONS: u32 = 64;
/// Control-loop period.
pub const CONTROL_INTERVAL_MS: u64 = 100;
/// Key popularity exponent.
const ZIPF_S: f64 = 0.9;
/// Outstanding operations over all connections in the closed loop.
pub const TOTAL_DEPTH: usize = 64;
/// One operation in this many carries a trace op-ID on a traced pass.
const SAMPLE_EVERY: u64 = 64;
/// Keys re-read after the run (all of them when the universe is
/// smaller).
const VERIFY_KEYS: u64 = 20_000;
/// Open-loop latency limit: a rate "meets" it with p99 at or under it.
pub const OPEN_LIMIT_US: f64 = 2_000.0;
/// Outstanding operations at which an open-loop pass stops sending: the
/// backlog is growing, the rate is not met, and pushing an overloaded
/// cluster further only makes it refuse writes.
const OPEN_BACKLOG_CAP: u64 = 2_048;

/// Durable-backend settings of a kv shape.
#[derive(Clone, Debug)]
pub struct DurableSpec {
    /// Records per shard log between checkpoints.
    pub checkpoint_every: u64,
    /// Shard logs per node.
    pub range_shards: u32,
}

/// The shape of one kv cluster and its traffic.
#[derive(Clone, Debug)]
pub struct KvSpec {
    /// 20 × this many nodes.
    pub servers_per_rack: u32,
    /// Server-side telemetry plane on.
    pub telemetry: bool,
    /// WAL with `fsync = always`, or in memory.
    pub durable: Option<DurableSpec>,
    /// Preloaded key universe; the run overwrites in place (rule N5).
    pub keys: u64,
    /// Payload bytes per value.
    pub value_bytes: usize,
    /// Share of gets in the mix.
    pub read_fraction: f64,
    /// Wall length of one slice of a closed-loop pass.
    pub slice_secs: f64,
    /// The workload's tail percentile, over the quiet set's operations.
    pub tail_q: f64,
}

impl KvSpec {
    /// Node count.
    pub fn nodes(&self) -> u32 {
        20 * self.servers_per_rack
    }

    /// Slices of a closed-loop pass `seconds` long.
    pub fn slices(&self, seconds: f64) -> usize {
        ((seconds / self.slice_secs).round() as usize).max(1)
    }
}

/// Start a cluster of `spec`'s shape with every thread on the server
/// CPUs. `telemetry` and `wal_dir` override the spec so the overhead
/// passes can run the same shape with one plane switched off.
pub fn start_cluster(
    spec: &KvSpec,
    telemetry: bool,
    wal_dir: Option<&Path>,
    pin: &Pinning,
) -> Res<Cluster> {
    let persistence = match (&spec.durable, wal_dir) {
        (Some(d), Some(dir)) => Some(PersistenceConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: d.checkpoint_every,
            range_shards: d.range_shards,
            ..PersistenceConfig::with_dir(dir.display().to_string())
        }),
        _ => None,
    };
    let cfg = ClusterConfig {
        servers_per_rack: spec.servers_per_rack,
        partitions: PARTITIONS,
        control_interval_ms: CONTROL_INTERVAL_MS,
        telemetry,
        persistence,
        ..ClusterConfig::default()
    };
    pin.on_server_cpus(|| Cluster::start(&cfg, FaultPlan::default())).map_err(|e| e.to_string())
}

/// What one closed-loop pass measured.
pub struct ClosedStats {
    /// The pass cut into slices of equal wall length (rule N3).
    pub slices: Vec<Slice>,
    /// Every latency of the pass, for percentiles too high for the
    /// quiet set.
    pub whole: LogHist,
    /// Operations completed inside the slices.
    pub ops: u64,
    /// Process CPU spent per completed operation, µs.
    pub cpu_us_per_op: f64,
    /// Client-thread CPU spent per completed operation, ns.
    pub client_ns_per_op: f64,
}

/// What one open-loop pass measured, timed from each due instant.
#[derive(Clone, Copy, Debug)]
pub struct OpenStats {
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th percentile latency, µs.
    pub p99_us: f64,
    /// 99th percentile of how late the generator sent, µs.
    pub lag_p99_us: f64,
    /// Most operations ever outstanding.
    pub backlog_max: u64,
    /// Whether p99 met [`OPEN_LIMIT_US`] with no growing backlog.
    pub ok: bool,
}

/// An operation the closed loop finished.
struct Done {
    /// Submit to ack; `None` for an operation that failed, which has no
    /// latency to report (it counts as missing any limit, not as fast).
    latency_ns: Option<u64>,
    op_id: Option<u64>,
}

/// The benchmark's client: generates operations from the seed, keeps
/// the highest acknowledged version of every key, and checks every
/// answer against it.
pub struct Driver {
    nodes: Vec<NodeInfo>,
    dcs: Vec<u32>,
    clients: Vec<PipelinedClient>,
    /// Per connection, the acked version each outstanding get must not
    /// fall below (gets complete in submit order on one connection).
    get_floors: Vec<VecDeque<u64>>,
    /// Highest acknowledged version per key; 0 = never written.
    acked: Vec<u64>,
    next_seq: u64,
    rng: StdRng,
    zipf: Zipf,
    /// Popularity rank × this, modulo the key count, is the key: the
    /// hot keys are scattered over the key space, the same way on every
    /// seed (see [`Driver::new`]).
    scatter: u64,
    value_bytes: usize,
    read_fraction: f64,
    turn: usize,
    ops_submitted: u64,
    /// After a drain nothing is in flight, so a get must return
    /// exactly the acked version.
    strict: bool,
    /// Operations submitted and resolved.
    pub attempted: u64,
    /// Operations refused, unavailable or lost.
    pub failed: u64,
    /// Answers that contradict an acknowledged write.
    pub wrong: u64,
    /// Puts acknowledged, preload included.
    pub puts_acked: u64,
}

impl Driver {
    /// Connect `connections` pipelined clients, each homed in its own
    /// datacenter. The homes and the hot keys are fixed, not seeded:
    /// which datacenter a client sits in and which partitions hold the
    /// ten keys that draw a fifth of the traffic decide how many
    /// forwards a request costs, so seeding them makes the seed a
    /// throughput knob (seeded scatter, six seeds: five at 62–65k ops/s,
    /// one at 51k on every repeat). The seed drives the order of the
    /// operations, the mix and the payload bytes.
    pub fn new(cluster: &Cluster, spec: &KvSpec, seed: u64, connections: usize) -> Res<Driver> {
        let nodes = cluster.node_infos().to_vec();
        let rng = StdRng::seed_from_u64(seed);
        let zipf = Zipf::new(spec.keys as usize, ZIPF_S);
        // About 0.618 of the key count: consecutive ranks land far apart.
        let mut scatter = (spec.keys as f64 * 0.618) as u64 | 1;
        while gcd(scatter, spec.keys) != 1 {
            scatter += 2;
        }
        let mut all_dcs: Vec<u32> = nodes.iter().map(|n| n.dc).collect();
        all_dcs.sort_unstable();
        all_dcs.dedup();
        let connections = connections.clamp(1, all_dcs.len());
        let dcs: Vec<u32> =
            (0..connections).map(|i| all_dcs[i * all_dcs.len() / connections]).collect();
        let depth = (TOTAL_DEPTH / connections).max(1);
        let clients = dcs
            .iter()
            .map(|&dc| PipelinedClient::new(&nodes, dc, 0, depth).map_err(|e| e.to_string()))
            .collect::<Res<Vec<_>>>()?;
        Ok(Driver {
            nodes,
            get_floors: vec![VecDeque::with_capacity(depth + 1); connections],
            dcs,
            clients,
            acked: vec![0; spec.keys as usize],
            next_seq: 1,
            rng,
            zipf,
            scatter,
            value_bytes: spec.value_bytes,
            read_fraction: spec.read_fraction,
            turn: 0,
            ops_submitted: 0,
            strict: false,
            attempted: 0,
            failed: 0,
            wrong: 0,
            puts_acked: 0,
        })
    }

    /// A driver for a restarted cluster that must still hold every
    /// write `before` saw acknowledged.
    pub fn resume(cluster: &Cluster, spec: &KvSpec, seed: u64, before: &Driver) -> Res<Driver> {
        let mut d = Driver::new(cluster, spec, seed, before.clients.len())?;
        d.acked.clone_from(&before.acked);
        d.next_seq = before.next_seq;
        Ok(d)
    }

    /// Record the program's sampled spans for this driver's traced ops.
    pub fn share_span_log(&mut self, cluster: &Cluster) {
        for c in &mut self.clients {
            c.set_span_log(cluster.span_log());
        }
    }

    fn next_put(&mut self, key: u64) -> Frame {
        let seq = self.next_seq;
        self.next_seq += 1;
        Frame::Put { key, seq, value: value_for(key, seq, self.value_bytes) }
    }

    /// Draw the next operation of the mix.
    fn next_frame(&mut self) -> Frame {
        let rank = self.zipf.sample(&mut self.rng) as u128;
        let key = (rank * u128::from(self.scatter) % self.acked.len() as u128) as u64;
        if self.rng.gen::<f64>() < self.read_fraction {
            Frame::Get { key }
        } else {
            self.next_put(key)
        }
    }

    /// Submit `frame` on the next connection in turn; account for the
    /// operation the full window pushed out, if any.
    fn submit(&mut self, frame: Frame, op_id: Option<u64>) -> Res<Option<Done>> {
        let i = self.turn;
        self.turn = (i + 1) % self.clients.len();
        if let Frame::Get { key } = frame {
            self.get_floors[i].push_back(self.acked[key as usize]);
        }
        self.ops_submitted += 1;
        let done = self.clients[i].submit(frame, op_id).map_err(|e| e.to_string())?;
        Ok(done.map(|d| self.account(i, d)))
    }

    /// Complete everything in flight.
    fn drain(&mut self) -> Res<()> {
        for i in 0..self.clients.len() {
            for d in self.clients[i].drain().map_err(|e| e.to_string())? {
                self.account(i, d);
            }
        }
        Ok(())
    }

    /// Check one answer against what was acknowledged before it.
    fn account(&mut self, conn: usize, done: CompletedOp) -> Done {
        self.attempted += 1;
        let Frame::Ack { status, seq, value } = &done.ack else {
            self.failed += 1;
            return Done { latency_ns: None, op_id: done.op_id };
        };
        let mut ok = true;
        match (&done.request, status) {
            (Frame::Put { key, seq, .. }, AckStatus::Ok) => {
                let slot = &mut self.acked[*key as usize];
                *slot = (*slot).max(*seq);
                self.puts_acked += 1;
            }
            (Frame::Get { key }, AckStatus::Ok) => {
                let floor = self.get_floors[conn].pop_front().unwrap_or(0);
                let stale = if self.strict { *seq != floor } else { *seq < floor };
                if stale || *value != value_for(*key, *seq, self.value_bytes) {
                    self.wrong += 1;
                }
            }
            (Frame::Get { .. }, AckStatus::NotFound) => {
                // Every key is preloaded: "not found" lost a write.
                self.get_floors[conn].pop_front();
                self.wrong += 1;
            }
            _ => {
                if matches!(done.request, Frame::Get { .. }) {
                    self.get_floors[conn].pop_front();
                }
                self.failed += 1;
                ok = false;
            }
        }
        Done { latency_ns: ok.then_some((done.latency_us * 1e3) as u64), op_id: done.op_id }
    }

    /// Write every key once, in key order, through the same pipelined
    /// path the timed phase uses.
    pub fn preload(&mut self) -> Res<()> {
        for key in 0..self.acked.len() as u64 {
            let frame = self.next_put(key);
            self.submit(frame, None)?;
        }
        self.drain()
    }

    /// Closed loop for `seconds`, cut into `n_slices` slices of equal
    /// wall length, each with its own latency histogram (allocated before
    /// the first operation: rule N5). With a tracer, one operation in
    /// [`SAMPLE_EVERY`] carries an op-ID and leaves an `op` span under
    /// its slice.
    pub fn run_closed(
        &mut self,
        seconds: f64,
        n_slices: usize,
        mut trace: Option<(&mut Tracer, u32)>,
    ) -> Res<ClosedStats> {
        let slice_len = seconds / n_slices as f64;
        let mut slices = vec![Slice::default(); n_slices];
        let mut current = 0;
        let (cpu0, thread0) = (host::process_cpu_us(), host::thread_cpu_us());
        let t0 = Instant::now();
        let mut slice_start = 0.0f64;
        let mut slice_span = trace.as_mut().map_or(0, |(t, run)| t.open("slice", *run));
        while current < n_slices {
            let sampled = trace.is_some() && self.ops_submitted.is_multiple_of(SAMPLE_EVERY);
            let op_id = sampled.then_some(self.ops_submitted + 1);
            let frame = self.next_frame();
            if let Some(Done { latency_ns: Some(ns), op_id }) = self.submit(frame, op_id)? {
                slices[current].hist.record(ns);
                if let (Some(id), Some((tracer, _))) = (op_id, trace.as_mut()) {
                    let end = tracer.now_ns();
                    tracer.push("op", slice_span, end.saturating_sub(ns), end, id);
                }
            }
            let now = t0.elapsed().as_secs_f64();
            if now - slice_start >= slice_len {
                slices[current].ops = slices[current].hist.count();
                slices[current].secs = now - slice_start;
                current += 1;
                slice_start = now;
                if let Some((tracer, run)) = trace.as_mut() {
                    tracer.close(slice_span);
                    if current < n_slices {
                        slice_span = tracer.open("slice", *run);
                    }
                }
            }
        }
        let (cpu1, thread1) = (host::process_cpu_us(), host::thread_cpu_us());
        self.drain()?;
        let mut whole = LogHist::default();
        for s in &slices {
            whole.merge(&s.hist);
        }
        let ops = whole.count().max(1);
        Ok(ClosedStats {
            slices,
            whole,
            ops,
            cpu_us_per_op: (cpu1 - cpu0) / ops as f64,
            client_ns_per_op: (thread1 - thread0) * 1e3 / ops as f64,
        })
    }

    /// `n` operations of the mix one at a time on one connection:
    /// latency with nothing else in flight. Returns the median in µs.
    pub fn run_depth1(&mut self, n: u64) -> Res<f64> {
        let mut client =
            ServeClient::new(&self.nodes, self.dcs[0], 0).map_err(|e| e.to_string())?;
        let mut hist = LogHist::default();
        for _ in 0..n {
            let frame = self.next_frame();
            self.attempted += 1;
            let t0 = Instant::now();
            let outcome = match &frame {
                Frame::Get { key } => client.get(*key).map(|_| ()),
                Frame::Put { key, seq, value } => client.put(*key, *seq, value),
                _ => unreachable!("the mix is gets and puts"),
            };
            hist.record(t0.elapsed().as_nanos() as u64);
            match (outcome, &frame) {
                (Ok(()), Frame::Put { key, seq, .. }) => {
                    self.acked[*key as usize] = *seq;
                    self.puts_acked += 1;
                }
                (Ok(()), _) => {}
                (Err(_), _) => self.failed += 1,
            }
        }
        Ok(hist.quantile_ns(0.5).unwrap_or(0.0) / 1e3)
    }

    /// Poisson arrivals at `rate` ops/s for `seconds`, each operation
    /// timed from the instant it was due, over one nonblocking
    /// connection per client home. The generator never waits for a
    /// reply, so a slow server builds a backlog instead of slowing the
    /// load.
    pub fn run_open(&mut self, rate: f64, seconds: f64, spin: bool) -> Res<OpenStats> {
        let mut conns = Vec::with_capacity(self.dcs.len());
        for &dc in &self.dcs {
            let node = self.nodes.iter().find(|n| n.dc == dc).expect("home has a node");
            let stream = TcpStream::connect_timeout(&node.addr, Duration::from_secs(2))
                .and_then(|s| s.set_nodelay(true).and(s.set_nonblocking(true)).map(|()| s))
                .map_err(|e| format!("open-loop connect: {e}"))?;
            conns.push((Conn::new(stream), VecDeque::<(f64, Option<(u64, u64)>)>::new()));
        }
        let (mut lat, mut lag) = (LogHist::default(), LogHist::default());
        let (mut sent, mut done, mut backlog_max) = (0u64, 0u64, 0u64);
        let mut outstanding_at_close = None;
        let mut overrun = false;
        let mut next_due = exp_gap(&mut self.rng) / rate;
        let t0 = Instant::now();
        loop {
            let now = t0.elapsed().as_secs_f64();
            if next_due <= seconds && now >= next_due {
                let frame = self.next_frame();
                let put = match &frame {
                    Frame::Put { key, seq, .. } => Some((*key, *seq)),
                    _ => None,
                };
                let (conn, pending) = &mut conns[(sent % self.dcs.len() as u64) as usize];
                write_all_nonblocking(conn.stream(), &frame.encode())?;
                pending.push_back((next_due, put));
                lag.record(((now - next_due) * 1e9) as u64);
                sent += 1;
                backlog_max = backlog_max.max(sent - done);
                next_due += exp_gap(&mut self.rng) / rate;
                if sent - done >= OPEN_BACKLOG_CAP {
                    overrun = true;
                    next_due = f64::INFINITY;
                }
                continue;
            }
            if next_due > seconds && outstanding_at_close.is_none() {
                outstanding_at_close = Some(sent - done);
            }
            let mut progressed = false;
            for (conn, pending) in &mut conns {
                loop {
                    match conn.recv_envelope() {
                        Ok(Some((Frame::Ack { status, .. }, _))) => {
                            let (due, put) = pending.pop_front().ok_or("ack with nothing sent")?;
                            let at = t0.elapsed().as_secs_f64();
                            lat.record(((at - due) * 1e9) as u64);
                            self.attempted += 1;
                            done += 1;
                            progressed = true;
                            match (status, put) {
                                (AckStatus::Ok, Some((key, seq))) => {
                                    let slot = &mut self.acked[key as usize];
                                    *slot = (*slot).max(seq);
                                    self.puts_acked += 1;
                                }
                                (AckStatus::Ok, None) => {}
                                _ => self.failed += 1,
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Ok(_) => return Err("open-loop connection closed".into()),
                        Err(e) => return Err(format!("open-loop recv: {e}")),
                    }
                }
            }
            if next_due > seconds && sent == done {
                break;
            }
            if now > seconds + 10.0 {
                self.attempted += sent - done;
                self.failed += sent - done;
                break;
            }
            if !progressed {
                if spin {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        let p99_us = lat.quantile_ns(0.99).unwrap_or(f64::MAX) / 1e3;
        // A server that keeps up has only the pipeline's worth of work
        // outstanding when the generator stops; one that does not has a
        // share of everything sent.
        let growing =
            overrun || outstanding_at_close.unwrap_or(0) as f64 > (sent as f64 * 0.01).max(8.0);
        Ok(OpenStats {
            p50_us: lat.quantile_ns(0.5).unwrap_or(0.0) / 1e3,
            p99_us,
            lag_p99_us: lag.quantile_ns(0.99).unwrap_or(0.0) / 1e3,
            backlog_max,
            ok: p99_us <= OPEN_LIMIT_US && !growing && sent == done,
        })
    }

    /// With nothing in flight, re-read keys (all, or a seeded sample of
    /// [`VERIFY_KEYS`]) and require exactly the acknowledged version
    /// and bytes of each.
    pub fn verify(&mut self) -> Res<()> {
        self.strict = true;
        let n = self.acked.len() as u64;
        let picks: Vec<u64> = if n <= VERIFY_KEYS {
            (0..n).collect()
        } else {
            (0..VERIFY_KEYS).map(|_| self.rng.gen_range(0..n)).collect()
        };
        for key in picks {
            self.submit(Frame::Get { key }, None)?;
        }
        let r = self.drain();
        self.strict = false;
        r
    }
}

/// One gap of a Poisson arrival process of rate 1: exponential, mean 1.
fn exp_gap(rng: &mut StdRng) -> f64 {
    -(1.0 - rng.gen::<f64>()).ln()
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `write_all` for a nonblocking socket: a full send buffer means the
/// server is behind, so wait for it rather than tear the frame.
fn write_all_nonblocking(mut stream: &TcpStream, mut bytes: &[u8]) -> Res<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err("open-loop connection closed on write".into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                std::thread::yield_now();
            }
            Err(e) => return Err(format!("open-loop send: {e}")),
        }
    }
    Ok(())
}

/// Sum every plain sample of every node's `/metrics` by series name,
/// and time the whole scrape in ms.
pub fn scrape_nodes(cluster: &Cluster) -> Res<(std::collections::HashMap<String, f64>, f64)> {
    let t0 = Instant::now();
    let mut sums = std::collections::HashMap::new();
    for addr in cluster.metrics_addrs() {
        let body = rfh_serve::http::get(addr, "/metrics").map_err(|e| format!("scrape: {e}"))?;
        for line in body.lines().filter(|l| !l.starts_with('#') && !l.contains('{')) {
            if let Some((name, value)) = line.split_once(' ') {
                if let Ok(v) = value.trim().parse::<f64>() {
                    *sums.entry(name.to_string()).or_insert(0.0) += v;
                }
            }
        }
    }
    if let Some(addr) = cluster.controller_metrics_addr() {
        rfh_serve::http::get(addr, "/metrics").map_err(|e| format!("scrape controller: {e}"))?;
    }
    Ok((sums, t0.elapsed().as_secs_f64() * 1e3))
}
