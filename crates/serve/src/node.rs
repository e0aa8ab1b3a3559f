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
use crate::store::{partition_of, NodeStore};
use crate::telemetry::{PhaseTimings, ReqKind};
use crate::wire::{AckStatus, Conn, Frame};
use rfh_obs::SpanEvent;
use rfh_pool::WorkerPool;
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

/// Sync workers per reactor thread. Throughput is flat past this: the
/// kernel folds concurrent `fdatasync`s into shared journal commits.
const SYNC_WORKERS: usize = 8;

/// The WAL shards a reactor turn has buffered puts on and still owes a
/// commit: `(node, shard)` pairs, a few dozen at most. No ack may reach
/// a socket while this is non-empty.
#[derive(Default)]
pub(crate) struct TurnCommits {
    shards: Vec<(usize, usize)>,
    /// This reactor's sync workers, spawned by the first turn that owes
    /// more than one shard — never on a cluster without a WAL. One pool
    /// per reactor: `WorkerPool::run` admits one batch at a time.
    pool: Option<WorkerPool>,
}

impl TurnCommits {
    /// Apply a replica write to `node`'s store, buffering its log
    /// record and noting the shard for [`commit`](Self::commit).
    pub fn put(&mut self, stores: &[NodeStore], node: usize, key: u64, seq: u64, value: &[u8]) {
        if let (_, Some(shard)) = stores[node].put_buffered(key, seq, value) {
            if !self.shards.contains(&(node, shard)) {
                self.shards.push((node, shard));
            }
        }
    }

    /// Whether nothing is owed.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// One write and one policy sync per noted shard, all shards at
    /// once: returns when the last of them has landed, so the turn
    /// waits for about one sync, not their sum. Each job takes its
    /// shard's lock on the worker and holds no other, so two reactors
    /// committing the same shards cannot deadlock; a commit that fails
    /// panics on its worker and the pool re-raises it here once the
    /// batch has drained, which keeps WAL I/O errors fail-stop.
    /// Checkpoints that fall due are written on this thread after the
    /// barrier: a worker that allocates a checkpoint's buffers grows a
    /// malloc arena of its own. A lone shard commits on this thread.
    pub fn commit(&mut self, stores: &[NodeStore]) {
        let Some(&(lead, _)) = self.shards.first() else {
            return;
        };
        let t0 = Instant::now();
        if let [(node, shard)] = self.shards[..] {
            stores[node].commit(shard);
        } else {
            let mut due = vec![false; self.shards.len()];
            let jobs = (self.shards.iter().zip(&mut due))
                .map(|(&(node, shard), due)| {
                    Box::new(move || *due = stores[node].commit_log(shard)) as Box<_>
                })
                .collect();
            self.pool.get_or_insert_with(|| WorkerPool::named("rfh-sync", SYNC_WORKERS)).run(jobs);
            for (&(node, shard), _) in self.shards.iter().zip(due).filter(|&(_, due)| due) {
                stores[node].commit(shard);
            }
        }
        if let Some(stats) = stores[lead].storage() {
            stats.commit_batches.fetch_add(1, Ordering::Relaxed);
            stats.commit_batch_shards.fetch_add(self.shards.len() as u64, Ordering::Relaxed);
            stats.commit_batch_us.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
        // Only now: a commit that unwinds is still owed.
        self.shards.clear();
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
                Some(turn) => turn.put(&shared.stores, node, key, seq, &value),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Versioned;
    use crate::wal::{FsyncPolicy, PersistenceConfig, StorageSnapshot};
    use std::sync::{mpsc, Barrier};

    /// `nodes` fresh durable stores: `fsync = always`, 2 shards each,
    /// a checkpoint every 8 records so that turns cross that path too.
    fn durable_stores(tag: &str, nodes: usize) -> (PersistenceConfig, Vec<NodeStore>) {
        let dir = std::env::temp_dir().join(format!("rfh-turn-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = PersistenceConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 8,
            ..PersistenceConfig::with_dir(dir.to_string_lossy().into_owned())
        };
        let stores = (0..nodes).map(|n| NodeStore::durable(&cfg, n).unwrap()).collect();
        (cfg, stores)
    }

    fn storage_sum(stores: &[NodeStore]) -> StorageSnapshot {
        let mut sum = StorageSnapshot::default();
        for s in stores {
            sum.add(s.storage().expect("durable").snapshot());
        }
        sum
    }

    /// A turn over 3 nodes × 2 shards costs what the serial loop cost —
    /// one sync per dirtied shard — in one batch, and every record it
    /// buffered is on disk when `commit` returns.
    #[test]
    fn a_turns_commit_syncs_every_dirtied_shard_once_and_all_records_land() {
        let (cfg, stores) = durable_stores("batch", 3);
        let mut turn = TurnCommits::default();
        // A lone shard is a batch of one, committed on this thread.
        turn.put(&stores, 1, 7, 1, b"lone");
        turn.commit(&stores);
        let sum = storage_sum(&stores);
        assert_eq!((sum.fsyncs, sum.commit_batches, sum.commit_batch_shards), (1, 1, 1), "{sum:?}");
        assert!(turn.pool.is_none(), "one shard needs no worker");

        for node in 0..3 {
            for key in 0..40u64 {
                turn.put(&stores, node, key, key + 2, &key.to_le_bytes());
            }
        }
        assert_eq!(turn.shards.len(), 6, "40 keys reach both range shards of every node");
        turn.commit(&stores);
        assert!(turn.is_empty());
        assert!(turn.pool.is_some());
        let sum = storage_sum(&stores);
        assert_eq!((sum.fsyncs, sum.commits, sum.records_appended), (7, 7, 121), "{sum:?}");
        assert_eq!((sum.commit_batches, sum.commit_batch_shards), (2, 7), "{sum:?}");
        assert_eq!(sum.checkpoints_written, 6, "each shard took ≥ 8 records: {sum:?}");

        drop(stores);
        for node in 0..3 {
            let reopened = NodeStore::durable(&cfg, node).unwrap();
            assert_eq!(reopened.len(), 40, "node {node}");
            for key in 0..40u64 {
                let want = Versioned { seq: key + 2, value: key.to_le_bytes().to_vec() };
                assert_eq!(reopened.get(key), Some(want), "node {node} key {key}");
            }
        }
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }

    /// With the WAL off a turn owes nothing, so it never has workers.
    #[test]
    fn memory_stores_owe_no_commit_and_spawn_no_sync_worker() {
        let stores = [NodeStore::new(), NodeStore::new()];
        let mut turn = TurnCommits::default();
        for key in 0..40u64 {
            turn.put(&stores, (key % 2) as usize, key, 1, b"v");
        }
        assert!(turn.is_empty());
        turn.commit(&stores);
        assert!(turn.pool.is_none());
        assert_eq!(stores[0].len() + stores[1].len(), 40);
    }

    /// Two reactors' worth of turns, each with its own pool, dirty the
    /// same four shards in opposite first-touch order and commit at the
    /// same moment, 1 000 times. Jobs lock one shard each, on the
    /// worker, so no order of touching can deadlock them — and every
    /// record of every round must be on disk at the end.
    #[test]
    fn opposite_touch_orders_on_shared_shards_neither_deadlock_nor_lose_writes() {
        const ROUNDS: u64 = 1_000;
        let (cfg, stores) = durable_stores("order", 2);
        // Two keys per range shard, one for each thread (the shard of a
        // key is the same on every node).
        let mut keys: [Vec<u64>; 2] = Default::default();
        for key in 0.. {
            let (_, shard) = stores[0].put_buffered(key, 0, b"");
            let of_shard = &mut keys[shard.expect("durable")];
            if of_shard.len() < 2 {
                of_shard.push(key);
            }
            if keys.iter().all(|k| k.len() == 2) {
                break;
            }
        }
        let mine = |t: usize| [keys[0][t], keys[1][t]];

        // Plain threads, not a scope: a scope would wait for the very
        // threads whose deadlock the timeout is there to report.
        let stores = Arc::new(stores);
        let start = Arc::new(Barrier::new(2));
        let (done_tx, done_rx) = mpsc::channel();
        let threads: Vec<_> = (0..2)
            .map(|t| {
                let (stores, start, done_tx) = (stores.clone(), start.clone(), done_tx.clone());
                let mut touches: Vec<(usize, u64)> =
                    (0..2).flat_map(|node| mine(t).map(|key| (node, key))).collect();
                if t == 1 {
                    touches.reverse();
                }
                std::thread::spawn(move || {
                    let mut turn = TurnCommits::default();
                    for round in 1..=ROUNDS {
                        for &(node, key) in &touches {
                            turn.put(&stores, node, key, round, &round.to_le_bytes());
                        }
                        start.wait();
                        turn.commit(&stores);
                        assert!(turn.is_empty());
                    }
                    done_tx.send(()).unwrap();
                })
            })
            .collect();
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(120))
                .expect("two turns committing the same shards deadlocked");
        }
        threads.into_iter().for_each(|t| t.join().unwrap());
        let stores = Arc::into_inner(stores).expect("both threads joined");

        let sum = storage_sum(&stores);
        assert_eq!(sum.commit_batches, 2 * ROUNDS);
        assert_eq!(sum.commit_batch_shards, 2 * ROUNDS * 4);
        assert!(sum.checkpoints_written >= ROUNDS / 2, "{sum:?}");
        drop(stores);
        for node in 0..2 {
            let reopened = NodeStore::durable(&cfg, node).unwrap();
            for t in 0..2 {
                for key in mine(t) {
                    let want = Versioned { seq: ROUNDS, value: ROUNDS.to_le_bytes().to_vec() };
                    assert_eq!(reopened.get(key), Some(want), "node {node} key {key}");
                }
            }
        }
        std::fs::remove_dir_all(&cfg.dir).unwrap();
    }
}
