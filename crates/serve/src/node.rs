//! Node threads: the data plane.
//!
//! Each topology server runs one listener thread; every accepted
//! connection gets a handler thread. A node that receives a client
//! `Get`/`Put` acts as the *coordinator*: it charges the request to
//! `q_ijt` at its own datacenter (the requester column the traffic
//! equations use), takes the partition lock, and reads or writes the
//! published replica set — forwarding to peer nodes over the same wire
//! protocol when a replica lives elsewhere.
//!
//! Writes ack only after landing on **every live replica** of the
//! route row (read under the partition lock). Combined with transfers
//! copying full partitions under that same lock, an acknowledged write
//! is durable as long as any replica that held it — alive or dead,
//! since dead stores double as the archive — survives in memory.

use crate::cluster::Shared;
use crate::store::partition_of;
use crate::telemetry::{PhaseTimings, ReqKind};
use crate::wire::{AckStatus, Conn, Frame};
use rfh_obs::SpanEvent;
use rfh_types::{DatacenterId, ServerId};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a blocked handler read waits before re-checking the
/// shutdown and alive flags.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// Read timeout for coordinator → replica round-trips (both planes).
pub(crate) const PEER_TIMEOUT: Duration = Duration::from_millis(2_000);

/// Idle peer connections kept per (source, destination) pair.
const PEER_POOL_CAP: usize = 4;

/// Cluster-wide connection counter; a connection's id picks its
/// telemetry shard, spreading concurrent handlers over the shards.
static CONN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Allocate the next connection id (both data planes share the
/// sequence, so telemetry sharding behaves identically under either).
pub(crate) fn next_conn_id() -> u64 {
    CONN_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Queue (partition-lock wait) and forward (peer round-trip) time of
/// one request, accumulated along the serve path; the handle phase is
/// total minus both.
#[derive(Default)]
pub(crate) struct PhaseAcc {
    pub queue_us: f64,
    pub forward_us: f64,
}

/// The WAL shards a reactor turn has buffered puts on and still owes a
/// commit: `(node, shard)` pairs, a handful at most. No ack may reach a
/// socket while this is non-empty.
#[derive(Default)]
pub(crate) struct TurnCommits {
    shards: Vec<(usize, usize)>,
}

impl TurnCommits {
    /// Apply a replica write to `node`'s store, buffering its log
    /// record and noting the shard for [`commit`](Self::commit).
    pub fn put(&mut self, shared: &Shared, node: usize, key: u64, seq: u64, value: &[u8]) {
        if let (_, Some(shard)) = shared.stores[node].put_buffered(key, seq, value) {
            if !self.shards.contains(&(node, shard)) {
                self.shards.push((node, shard));
            }
        }
    }

    /// Whether nothing is owed.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// One write and one policy sync per noted shard.
    pub fn commit(&mut self, shared: &Shared) {
        for (node, shard) in self.shards.drain(..) {
            shared.stores[node].commit(shard);
        }
    }
}

/// The accept loop of one node. Fail-stop is modelled as
/// accept-then-drop: a dead node's listener stays bound (its port must
/// not be reused) but every connection is closed immediately and no
/// frame is served.
pub(crate) fn run_listener(
    node: usize,
    listener: TcpListener,
    shared: Arc<Shared>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if !shared.is_alive(node) {
                    drop(stream); // fail-stop: refuse service
                    continue;
                }
                let shared2 = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("rfh-conn-{node}"))
                    .spawn(move || handle_conn(node, stream, shared2));
                match handle {
                    Ok(h) => {
                        // Keep only open connections: a handler that
                        // has returned has nothing left for shutdown
                        // to join.
                        let mut handlers = handlers.lock().expect("handlers lock");
                        handlers.retain(|h| !h.is_finished());
                        handlers.push(h);
                    }
                    Err(_) => return,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

fn handle_conn(node: usize, stream: TcpStream, shared: Arc<Shared>) {
    if stream.set_read_timeout(Some(POLL_TIMEOUT)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let conn_id = next_conn_id();
    let mut conn = Conn::new(stream);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match conn.recv_envelope() {
            Ok(None) => return,
            Ok(Some((frame, op_id))) => {
                if !shared.is_alive(node) {
                    return; // killed mid-connection: drop without reply
                }
                let reply = serve_frame(node, conn_id, frame, op_id, &shared, None);
                // The ack echoes the request's op-ID, so the client can
                // close its span without tracking request state.
                if conn.send_traced(&reply, op_id).is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return,
        }
    }
}

/// Serve one frame synchronously. `turn` is how a replica write lands:
/// the reactor passes its turn's [`TurnCommits`] (buffer now, commit
/// before the turn's flush); `None` commits before returning.
pub(crate) fn serve_frame(
    node: usize,
    conn_id: u64,
    frame: Frame,
    op_id: Option<u64>,
    shared: &Shared,
    turn: Option<&mut TurnCommits>,
) -> Frame {
    let t0 = Instant::now();
    let mut phases = PhaseAcc::default();
    let (kind, reply) = match frame {
        Frame::Get { key } => (ReqKind::Get, coordinate_get(node, key, op_id, shared, &mut phases)),
        Frame::Put { key, seq, value } => {
            (ReqKind::Put, coordinate_put(node, key, seq, &value, op_id, shared, &mut phases))
        }
        // Forwarded requests touch only the local shard; the
        // coordinator already charged q_ijt at the origin datacenter.
        Frame::ForwardGet { key, origin_dc: _ } => (
            ReqKind::ForwardGet,
            match shared.stores[node].get(key) {
                Some(v) => Frame::Ack { status: AckStatus::Ok, seq: v.seq, value: v.value },
                None => Frame::Ack { status: AckStatus::NotFound, seq: 0, value: Vec::new() },
            },
        ),
        Frame::ForwardPut { key, seq, origin_dc: _, value } => {
            // An older seq losing LWW is still success: the store
            // holds a version at least as new as the write.
            match turn {
                Some(turn) => turn.put(shared, node, key, seq, &value),
                None => {
                    shared.stores[node].put(key, seq, &value);
                }
            }
            (ReqKind::ForwardPut, Frame::Ack { status: AckStatus::Ok, seq, value: Vec::new() })
        }
        Frame::Ack { .. } => {
            // An unsolicited ack is a protocol violation; answer with
            // Unavailable rather than crashing the handler.
            return Frame::Ack { status: AckStatus::Unavailable, seq: 0, value: Vec::new() };
        }
    };
    let total_us = t0.elapsed().as_micros() as f64;
    record_request(shared, node, conn_id, kind, op_id, total_us, &phases, &reply);
    reply
}

/// The per-request telemetry tail shared by both data planes: fold the
/// phase split into the node's histograms and, when the request was
/// sampled, append its span to the chain.
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_request(
    shared: &Shared,
    node: usize,
    conn_id: u64,
    kind: ReqKind,
    op_id: Option<u64>,
    total_us: f64,
    phases: &PhaseAcc,
    reply: &Frame,
) {
    let timings = PhaseTimings {
        queue_us: phases.queue_us,
        forward_us: phases.forward_us,
        handle_us: (total_us - phases.queue_us - phases.forward_us).max(0.0),
    };
    if let Some(tel) = shared.telemetry.node(node) {
        tel.record(conn_id, kind, timings);
    }
    if let Some(id) = op_id {
        let role = match kind {
            ReqKind::Get | ReqKind::Put => "coordinate",
            ReqKind::ForwardGet | ReqKind::ForwardPut => "forward",
        };
        shared.telemetry.spans().record(SpanEvent {
            op_id: id,
            role,
            node: node as i64,
            dc: shared.dc_of[node],
            kind: kind.as_str(),
            queue_us: timings.queue_us,
            handle_us: timings.handle_us,
            forward_us: timings.forward_us,
            status: ack_status_str(reply),
        });
    }
}

fn ack_status_str(frame: &Frame) -> &'static str {
    match frame {
        Frame::Ack { status: AckStatus::Ok, .. } => "ok",
        Frame::Ack { status: AckStatus::NotFound, .. } => "not_found",
        _ => "unavailable",
    }
}

pub(crate) fn count_ack(shared: &Shared, ack: &Frame) -> Frame {
    if let Frame::Ack { status, .. } = ack {
        match status {
            AckStatus::Ok => shared.counters.acks_ok.fetch_add(1, Ordering::Relaxed),
            AckStatus::NotFound => shared.counters.acks_not_found.fetch_add(1, Ordering::Relaxed),
            AckStatus::Unavailable => {
                shared.counters.acks_unavailable.fetch_add(1, Ordering::Relaxed)
            }
        };
    }
    ack.clone()
}

fn coordinate_get(
    node: usize,
    key: u64,
    op_id: Option<u64>,
    shared: &Shared,
    phases: &mut PhaseAcc,
) -> Frame {
    let p = partition_of(key, shared.partitions);
    let origin = shared.dc_of[node];
    shared.load.add(p, DatacenterId::new(origin), 1);
    shared.counters.gets.fetch_add(1, Ordering::Relaxed);
    if let Some(tel) = shared.telemetry.node(node) {
        tel.hit(p);
    }

    let t_lock = Instant::now();
    let _guard = shared.locks[p.index()].lock().expect("partition lock");
    phases.queue_us = t_lock.elapsed().as_micros() as f64;
    let replicas = shared.route(p);
    let me = ServerId::new(node as u32);
    // Serve locally when possible; otherwise walk replicas in holder
    // order. Every current replica holds the full partition (writes go
    // to all live replicas; transfers copy whole partitions under this
    // same lock), so the first live answer is authoritative.
    let ordered = replicas
        .iter()
        .copied()
        .filter(|&r| r == me)
        .chain(replicas.iter().copied().filter(|&r| r != me));
    for r in ordered {
        if !shared.is_alive(r.index()) {
            continue;
        }
        if r == me {
            return count_ack(
                shared,
                &match shared.stores[node].get(key) {
                    Some(v) => Frame::Ack { status: AckStatus::Ok, seq: v.seq, value: v.value },
                    None => Frame::Ack { status: AckStatus::NotFound, seq: 0, value: Vec::new() },
                },
            );
        }
        match forward(shared, node, r, &Frame::ForwardGet { key, origin_dc: origin }, op_id, phases)
        {
            Ok(ack) => return count_ack(shared, &ack),
            // The peer died or the connection broke: try the next
            // replica rather than failing the read.
            Err(_) => continue,
        }
    }
    count_ack(shared, &Frame::Ack { status: AckStatus::Unavailable, seq: 0, value: Vec::new() })
}

fn coordinate_put(
    node: usize,
    key: u64,
    seq: u64,
    value: &[u8],
    op_id: Option<u64>,
    shared: &Shared,
    phases: &mut PhaseAcc,
) -> Frame {
    let p = partition_of(key, shared.partitions);
    let origin = shared.dc_of[node];
    shared.load.add(p, DatacenterId::new(origin), 1);
    shared.counters.puts.fetch_add(1, Ordering::Relaxed);
    if let Some(tel) = shared.telemetry.node(node) {
        tel.hit(p);
    }

    let t_lock = Instant::now();
    let _guard = shared.locks[p.index()].lock().expect("partition lock");
    phases.queue_us = t_lock.elapsed().as_micros() as f64;
    let replicas = shared.route(p);
    let me = ServerId::new(node as u32);
    let mut landed = 0usize;
    for r in replicas {
        if !shared.is_alive(r.index()) {
            continue; // dead at write time: its copy is repaired by the control loop
        }
        let ok = if r == me {
            shared.stores[node].put(key, seq, value);
            true
        } else {
            let f = Frame::ForwardPut { key, seq, origin_dc: origin, value: value.to_vec() };
            matches!(
                forward(shared, node, r, &f, op_id, phases),
                Ok(Frame::Ack { status: AckStatus::Ok, .. })
            )
        };
        if ok {
            landed += 1;
        } else if shared.is_alive(r.index()) {
            // A *live* replica failed the write: the all-live-replicas
            // guarantee is broken, so refuse the ack. The client
            // retries with the same seq (idempotent).
            return count_ack(
                shared,
                &Frame::Ack { status: AckStatus::Unavailable, seq, value: Vec::new() },
            );
        }
        // Replica died mid-write: treat like dead-at-write-time.
    }
    if landed == 0 {
        return count_ack(
            shared,
            &Frame::Ack { status: AckStatus::Unavailable, seq, value: Vec::new() },
        );
    }
    count_ack(shared, &Frame::Ack { status: AckStatus::Ok, seq, value: Vec::new() })
}

/// One request/ack round-trip to a peer node, using (and replenishing)
/// the source node's connection pool. The op-ID rides the forward so
/// the peer's span joins the chain; the round-trip time lands in the
/// coordinator's forward phase.
fn forward(
    shared: &Shared,
    src: usize,
    dst: ServerId,
    frame: &Frame,
    op_id: Option<u64>,
    phases: &mut PhaseAcc,
) -> io::Result<Frame> {
    shared.counters.forwards.fetch_add(1, Ordering::Relaxed);
    let mut conn = take_peer(shared, src, dst)?;
    let t0 = Instant::now();
    let result = conn.roundtrip_traced(frame, op_id);
    phases.forward_us += t0.elapsed().as_micros() as f64;
    match result {
        Ok((ack, _)) => {
            put_peer(shared, src, dst, conn);
            Ok(ack)
        }
        Err(e) => Err(e), // broken conn is dropped, not pooled
    }
}

fn take_peer(shared: &Shared, src: usize, dst: ServerId) -> io::Result<Conn<TcpStream>> {
    if let Some(conn) =
        shared.peers[src].lock().expect("peer pool lock").get_mut(&dst.index()).and_then(Vec::pop)
    {
        return Ok(conn);
    }
    let stream = TcpStream::connect(shared.addrs[dst.index()])?;
    stream.set_read_timeout(Some(PEER_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(Conn::new(stream))
}

fn put_peer(shared: &Shared, src: usize, dst: ServerId, conn: Conn<TcpStream>) {
    let mut pool = shared.peers[src].lock().expect("peer pool lock");
    let slot = pool.entry(dst.index()).or_default();
    if slot.len() < PEER_POOL_CAP {
        slot.push(conn);
    }
}
