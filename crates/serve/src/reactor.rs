//! The epoll reactor data plane.
//!
//! All node listeners multiplex onto a small pool of reactor threads
//! (`min(cores, 4)`); every accepted connection is nonblocking and
//! pipelined — a client may keep many frames in flight, and replies are
//! released strictly in arrival order so an untraced pipeline
//! correlates acks by position (traced frames additionally echo their
//! op-ID). At pipeline depth 1 the wire traffic is frame-for-frame
//! identical to the threaded plane's.
//!
//! ## Coordination without the partition lock
//!
//! The threaded plane proves "zero lost acknowledged writes" by holding
//! the partition mutex across the whole write-all-replicas sequence,
//! peer round-trips included. An event loop cannot block like that, so
//! this plane validates optimistically against the per-partition
//! **route epoch** (see `Shared::route_epochs`): a put snapshots an
//! even epoch, writes every live replica of the snapshotted route
//! (local stores directly, remote ones over multiplexed peer channels),
//! and acks only if the epoch is still exactly that value afterwards.
//! The control loop flips the epoch odd before copying a partition and
//! settles it at the next even value when it republishes the route, so
//! any write racing a transfer fails validation and restarts against
//! the new route — idempotent, because replicas keep the highest seq
//! per key. An odd epoch at snapshot time defers the put briefly
//! instead of writing into a moving route.
//!
//! Gets never validate: transfers only ever *add* data and routes are
//! republished after the copy, so both the pre- and post-flip replica
//! sets can serve an authoritative read.
//!
//! ## Group commit
//!
//! On a durable cluster no put syncs inline. A turn's replica writes —
//! the coordinator's own and every `ForwardPut` served — are applied
//! and their log records buffered ([`TurnCommits`]); after the turn's
//! events and timers, `flush_dirty` sends the queued forward requests,
//! commits each dirtied WAL shard once (one `write`, one `fdatasync`
//! per the policy; all shards of the turn at once on this thread's
//! sync workers, behind one barrier), and only then flushes the
//! client-side write queues where every ack of the turn is still
//! waiting. So no ack — to a
//! client or to a coordinator — leaves before the records behind it are
//! on disk, and a crash mid-batch loses only writes nobody was told
//! about. With the WAL off the list stays empty, the step is free and
//! the flush order is what it was without group commit.
//! The server-side `handle_us` of a put does not contain its sync;
//! `serve.storage.commit_batch_us / commit_batches` is what a turn
//! waited, `commit_us / commits` what one shard's commit took.
//!
//! ## Peer channels
//!
//! Coordinator → replica forwards share one nonblocking connection per
//! (coordinator node, peer node) pair per reactor thread, replacing the
//! threaded plane's blocking connection pool. Replies correlate by FIFO
//! order: the replica serves forwards synchronously in arrival order,
//! so the n-th ack on a channel answers the n-th outstanding ticket.
//! Op-IDs still ride traced forwards — they are the *span-chain*
//! correlation token, not the transport's. A channel that errors,
//! closes, or dawdles past the peer timeout fails all its tickets
//! (gets walk on to the next replica; puts treat it as a failed write
//! to that replica) and is re-established on next use.

#![allow(clippy::too_many_arguments)]

use crate::cluster::Shared;
use crate::node::{self, PhaseAcc, TurnCommits};
use crate::store::partition_of;
use crate::telemetry::ReqKind;
use crate::wire::{AckStatus, Frame, MAX_FRAME};
use rfh_types::{DatacenterId, Result, RfhError, ServerId};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(unix)]
use rfh_reactor::{Event, FrameReader, Poller, TimerWheel, Waker, WriteQueue};
#[cfg(unix)]
use std::os::fd::AsRawFd;

/// Cap on reactor threads: beyond a few, loopback serving is syscall-
/// bound, not CPU-bound, and more loops just shuffle cache lines.
const MAX_REACTOR_THREADS: usize = 4;

/// Poller token of the wakeup eventfd.
const WAKER_TOKEN: u64 = u64::MAX;

/// Timer-wheel token of the recurring peer-timeout scan.
const SCAN_TOKEN: u64 = u64::MAX;

/// How often each reactor sweeps peer channels for expired tickets.
const SCAN_INTERVAL: Duration = Duration::from_millis(250);

/// Retry delay for a put that found its partition mid-transfer.
const DEFER_RETRY: Duration = Duration::from_millis(1);

/// Hard deadline on one put, defers and restarts included. Transfers
/// settle in milliseconds; a put still unvalidated after this long
/// answers Unavailable and lets the client retry idempotently.
const PUT_DEADLINE: Duration = Duration::from_secs(5);

/// Route-conflict restarts before giving up with Unavailable.
const MAX_RESTARTS: u32 = 32;

/// Upper bound on one `epoll_wait`, so shutdown is always noticed even
/// if the waker write itself were lost.
const MAX_IDLE: Duration = Duration::from_millis(100);

/// The running reactor pool. Created by `Cluster::start_bound` when
/// `data_plane = "reactor"`; joined at cluster shutdown.
pub(crate) struct ReactorPlane {
    threads: Vec<JoinHandle<()>>,
    wakers: Vec<Waker>,
}

#[cfg(unix)]
impl ReactorPlane {
    /// Spawn `min(cores, 4)` reactor threads and deal the node
    /// listeners out round-robin. Each listener's connections are
    /// served wholly by the thread that owns it.
    pub fn start(shared: Arc<Shared>, listeners: Vec<TcpListener>) -> io::Result<ReactorPlane> {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let nthreads = cores.min(MAX_REACTOR_THREADS).min(listeners.len()).max(1);
        let mut per: Vec<Vec<(usize, TcpListener)>> = (0..nthreads).map(|_| Vec::new()).collect();
        for (i, l) in listeners.into_iter().enumerate() {
            per[i % nthreads].push((i, l));
        }
        let mut threads = Vec::with_capacity(nthreads);
        let mut wakers = Vec::with_capacity(nthreads);
        for (t, own) in per.into_iter().enumerate() {
            let waker = Waker::new()?;
            wakers.push(waker.clone());
            let reactor = Reactor::new(Arc::clone(&shared), own, waker)?;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rfh-reactor-{t}"))
                    .spawn(move || reactor.run())?,
            );
        }
        Ok(ReactorPlane { threads, wakers })
    }

    /// Wake every reactor out of `epoll_wait` and join. The shutdown
    /// flag is already set by the caller.
    pub fn shutdown(self) -> Result<()> {
        for w in &self.wakers {
            w.wake();
        }
        for h in self.threads {
            h.join().map_err(|_| RfhError::Simulation("reactor thread panicked".into()))?;
        }
        for w in self.wakers {
            w.close();
        }
        Ok(())
    }
}

#[cfg(not(unix))]
impl ReactorPlane {
    pub fn start(_shared: Arc<Shared>, _listeners: Vec<TcpListener>) -> io::Result<ReactorPlane> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "reactor plane requires epoll"))
    }

    pub fn shutdown(self) -> Result<()> {
        Ok(())
    }
}

/// Stable handle to one in-flight coordinated operation: the client
/// connection's slot, its generation (slots are reused; a stale
/// generation means the connection died and the result is discarded),
/// and the op's per-connection sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpRef {
    slot: usize,
    gen: u64,
    op_seq: u64,
}

/// What a peer-channel ticket was sent for, deciding how its ack (or
/// the channel's failure) feeds back into the op's state machine.
#[derive(Debug, Clone, Copy)]
enum Purpose {
    Get,
    Put,
}

/// One outstanding forward on a peer channel, completed FIFO.
#[cfg(unix)]
struct Ticket {
    op: OpRef,
    target: ServerId,
    sent_at: Instant,
    purpose: Purpose,
}

/// Remaining work of one coordinated op.
enum OpState {
    /// Reply computed; waiting only for in-order release.
    Ready,
    Get(GetWork),
    Put(PutWork),
}

struct GetWork {
    key: u64,
    origin: u32,
    /// Replicas not yet tried, coordinator-local first.
    candidates: VecDeque<ServerId>,
}

struct PutWork {
    key: u64,
    seq: u64,
    value: Vec<u8>,
    /// The even route epoch this attempt snapshotted.
    p_epoch: u64,
    /// Remote acks still awaited this attempt.
    outstanding: usize,
    landed: usize,
    failed_live: bool,
    restarts: u32,
    deadline: Instant,
    /// Set while parked behind an odd epoch; elapsed time lands in the
    /// queue phase on retry.
    defer_from: Option<Instant>,
}

/// One client request in the pipeline, kept in arrival order.
struct PendingOp {
    op_seq: u64,
    op_id: Option<u64>,
    kind: ReqKind,
    t0: Instant,
    phases: PhaseAcc,
    state: OpState,
    reply: Option<Frame>,
}

#[cfg(unix)]
struct ClientConn {
    node: usize,
    conn_id: u64,
    gen: u64,
    stream: TcpStream,
    reader: FrameReader,
    wq: WriteQueue,
    want_write: bool,
    dirty: bool,
    eof: bool,
    next_op_seq: u64,
    pending: VecDeque<PendingOp>,
}

#[cfg(unix)]
impl ClientConn {
    /// A freshly accepted (already nonblocking) connection to `node`.
    fn new(node: usize, gen: u64, stream: TcpStream) -> ClientConn {
        ClientConn {
            node,
            conn_id: node::next_conn_id(),
            gen,
            stream,
            reader: FrameReader::new(MAX_FRAME),
            wq: WriteQueue::new(),
            want_write: false,
            dirty: false,
            eof: false,
            next_op_seq: 0,
            pending: VecDeque::new(),
        }
    }
}

#[cfg(unix)]
struct PeerChan {
    owner: usize,
    peer: usize,
    stream: TcpStream,
    reader: FrameReader,
    wq: WriteQueue,
    want_write: bool,
    dirty: bool,
    tickets: VecDeque<Ticket>,
}

#[cfg(unix)]
enum Entry {
    Listener { node: usize, listener: TcpListener },
    Client(ClientConn),
    Peer(PeerChan),
}

#[cfg(unix)]
struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    waker: Waker,
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// (coordinator node, peer node) → live channel slot.
    peer_map: HashMap<(usize, usize), usize>,
    wheel: TimerWheel,
    /// Timer id → op parked behind an odd route epoch.
    deferred: HashMap<u64, OpRef>,
    next_timer: u64,
    gen_seq: u64,
    /// Slots whose write queue grew this round, flushed together.
    dirty: Vec<usize>,
    /// WAL shards this turn's puts were buffered on; committed before
    /// any client-side write queue is flushed.
    commits: TurnCommits,
}

#[cfg(unix)]
fn resolve(entries: &mut [Option<Entry>], op: OpRef) -> Option<&mut PendingOp> {
    match entries.get_mut(op.slot)?.as_mut()? {
        Entry::Client(c) if c.gen == op.gen => c.pending.iter_mut().find(|p| p.op_seq == op.op_seq),
        _ => None,
    }
}

#[cfg(unix)]
impl Reactor {
    fn new(
        shared: Arc<Shared>,
        listeners: Vec<(usize, TcpListener)>,
        waker: Waker,
    ) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        poller.register(waker.fd(), WAKER_TOKEN, true, false)?;
        let now = Instant::now();
        let mut r = Reactor {
            shared,
            poller,
            waker,
            entries: Vec::new(),
            free: Vec::new(),
            peer_map: HashMap::new(),
            // 10 ms × 256 slots spans 2.56 s — past the 2 s peer
            // timeout the wheel polices.
            wheel: TimerWheel::new(Duration::from_millis(10), 256, now),
            deferred: HashMap::new(),
            next_timer: 0,
            gen_seq: 0,
            dirty: Vec::new(),
            commits: TurnCommits::default(),
        };
        r.wheel.schedule_after(SCAN_TOKEN, SCAN_INTERVAL, now);
        for (node, listener) in listeners {
            let slot = r.alloc(Entry::Listener { node, listener });
            let fd = match r.entries[slot].as_ref() {
                Some(Entry::Listener { listener, .. }) => listener.as_raw_fd(),
                _ => unreachable!("just allocated"),
            };
            r.poller.register(fd, slot as u64, true, false)?;
        }
        Ok(r)
    }

    fn alloc(&mut self, entry: Entry) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.entries[slot] = Some(entry);
                slot
            }
            None => {
                self.entries.push(Some(entry));
                self.entries.len() - 1
            }
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut due: Vec<u64> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            let timeout = self.wheel.next_timeout(now).unwrap_or(MAX_IDLE).min(MAX_IDLE);
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                return;
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            for ev in events.drain(..) {
                if ev.token == WAKER_TOKEN {
                    self.waker.drain();
                    continue;
                }
                self.handle_event(ev);
            }
            self.wheel.advance(Instant::now(), &mut due);
            for token in due.drain(..) {
                self.handle_timer(token);
            }
            self.flush_dirty();
        }
    }

    fn handle_event(&mut self, ev: Event) {
        let slot = ev.token as usize;
        match self.entries.get(slot).and_then(Option::as_ref) {
            Some(Entry::Listener { .. }) => self.accept_loop(slot),
            Some(Entry::Client(_)) => {
                if ev.readable() {
                    self.read_client(slot);
                }
                if ev.writable() {
                    self.mark_dirty(slot);
                }
            }
            Some(Entry::Peer(_)) => {
                if ev.readable() {
                    self.read_peer(slot);
                }
                if ev.writable() {
                    self.mark_dirty(slot);
                }
            }
            None => {} // closed earlier this round; stale event
        }
    }

    fn handle_timer(&mut self, token: u64) {
        if token == SCAN_TOKEN {
            self.scan_peer_timeouts();
            self.wheel.schedule_after(SCAN_TOKEN, SCAN_INTERVAL, Instant::now());
            return;
        }
        if let Some(op) = self.deferred.remove(&token) {
            self.start_put(op);
        }
    }

    fn mark_dirty(&mut self, slot: usize) {
        let flag = match self.entries.get_mut(slot).and_then(Option::as_mut) {
            Some(Entry::Client(c)) => &mut c.dirty,
            Some(Entry::Peer(p)) => &mut p.dirty,
            _ => return,
        };
        if !*flag {
            *flag = true;
            self.dirty.push(slot);
        }
    }

    // ---- accept path ----------------------------------------------

    fn accept_loop(&mut self, slot: usize) {
        loop {
            let (node, accepted) = match self.entries.get(slot).and_then(Option::as_ref) {
                Some(Entry::Listener { node, listener }) => (*node, listener.accept()),
                _ => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    if !self.shared.is_alive(node) {
                        drop(stream); // fail-stop: refuse service
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    self.gen_seq += 1;
                    let conn = ClientConn::new(node, self.gen_seq, stream);
                    let cslot = self.alloc(Entry::Client(conn));
                    let fd = match self.entries[cslot].as_ref() {
                        Some(Entry::Client(c)) => c.stream.as_raw_fd(),
                        _ => unreachable!("just allocated"),
                    };
                    if self.poller.register(fd, cslot as u64, true, false).is_err() {
                        self.entries[cslot] = None;
                        self.free.push(cslot);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    // ---- client read / dispatch -----------------------------------

    fn read_client(&mut self, slot: usize) {
        let mut bodies = Vec::new();
        let eof = {
            let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let eof = match c.reader.fill_from(&mut c.stream) {
                Ok((_, eof)) => eof,
                Err(_) => {
                    drop(bodies);
                    self.close_client(slot);
                    return;
                }
            };
            loop {
                match c.reader.next_body() {
                    Ok(Some(b)) => bodies.push(b),
                    Ok(None) => break,
                    Err(_) => {
                        drop(bodies);
                        self.close_client(slot);
                        return;
                    }
                }
            }
            eof
        };
        for body in bodies {
            if !self.dispatch(slot, &body) {
                return; // connection closed mid-batch
            }
        }
        if eof {
            // The client finished sending. Like the threaded plane we
            // stop serving it, but let already-pipelined work drain:
            // replies still flush, and the conn closes once idle.
            let done = {
                let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut)
                else {
                    return;
                };
                c.eof = true;
                let fd = c.stream.as_raw_fd();
                let _ = self.poller.modify(fd, slot as u64, false, c.want_write);
                c.pending.is_empty() && c.wq.is_empty()
            };
            if done {
                self.close_client(slot);
            }
        }
    }

    /// Decode and route one inbound frame. Returns false when the
    /// connection was closed (protocol error or fail-stop).
    fn dispatch(&mut self, slot: usize, body: &[u8]) -> bool {
        let Ok((frame, op_id)) = Frame::decode_envelope(body) else {
            self.close_client(slot);
            return false;
        };
        let (node, conn_id, gen, op_seq) = {
            let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
                return false;
            };
            c.next_op_seq += 1;
            (c.node, c.conn_id, c.gen, c.next_op_seq)
        };
        if !self.shared.is_alive(node) {
            self.close_client(slot); // killed mid-connection: drop without reply
            return false;
        }
        let op = OpRef { slot, gen, op_seq };
        match frame {
            Frame::Get { key } => {
                let p = partition_of(key, self.shared.partitions);
                let origin = self.shared.dc_of[node];
                self.shared.load.add(p, DatacenterId::new(origin), 1);
                self.shared.counters.gets.fetch_add(1, Ordering::Relaxed);
                if let Some(tel) = self.shared.telemetry.node(node) {
                    tel.hit(p);
                }
                let replicas = self.shared.route(p);
                let me = ServerId::new(node as u32);
                let candidates: VecDeque<ServerId> = replicas
                    .iter()
                    .copied()
                    .filter(|&r| r == me)
                    .chain(replicas.iter().copied().filter(|&r| r != me))
                    .collect();
                self.enqueue_op(
                    slot,
                    op_seq,
                    op_id,
                    ReqKind::Get,
                    OpState::Get(GetWork { key, origin, candidates }),
                );
                self.advance_get(op);
            }
            Frame::Put { key, seq, value } => {
                let p = partition_of(key, self.shared.partitions);
                let origin = self.shared.dc_of[node];
                self.shared.load.add(p, DatacenterId::new(origin), 1);
                self.shared.counters.puts.fetch_add(1, Ordering::Relaxed);
                if let Some(tel) = self.shared.telemetry.node(node) {
                    tel.hit(p);
                }
                self.enqueue_op(
                    slot,
                    op_seq,
                    op_id,
                    ReqKind::Put,
                    OpState::Put(PutWork {
                        key,
                        seq,
                        value,
                        p_epoch: 0,
                        outstanding: 0,
                        landed: 0,
                        failed_live: false,
                        restarts: 0,
                        deadline: Instant::now() + PUT_DEADLINE,
                        defer_from: None,
                    }),
                );
                self.start_put(op);
            }
            // Forwards (and unsolicited acks) are local-only and
            // synchronous — the exact threaded-plane handler serves
            // them, telemetry tail included — except that a forwarded
            // put is only buffered here; the turn commits it.
            other => {
                let turn = Some(&mut self.commits);
                let reply = node::serve_frame(node, conn_id, other, op_id, &self.shared, turn);
                let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut)
                else {
                    return false;
                };
                c.pending.push_back(PendingOp {
                    op_seq,
                    op_id,
                    kind: ReqKind::ForwardGet, // unused once Ready
                    t0: Instant::now(),
                    phases: PhaseAcc::default(),
                    state: OpState::Ready,
                    reply: Some(reply),
                });
                self.release(slot);
            }
        }
        true
    }

    fn enqueue_op(
        &mut self,
        slot: usize,
        op_seq: u64,
        op_id: Option<u64>,
        kind: ReqKind,
        state: OpState,
    ) {
        let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        c.pending.push_back(PendingOp {
            op_seq,
            op_id,
            kind,
            t0: Instant::now(),
            phases: PhaseAcc::default(),
            state,
            reply: None,
        });
    }

    // ---- get state machine ----------------------------------------

    /// Walk the get's candidate list until a replica answers, a forward
    /// is in flight, or the list is exhausted. Mirrors the threaded
    /// coordinator: dead replicas are skipped, a local replica answers
    /// from the store, any ack from a peer is the answer, and a broken
    /// channel just moves on to the next candidate.
    fn advance_get(&mut self, op: OpRef) {
        loop {
            let (next, node, key, origin, op_id) = {
                let Some(pend) = resolve(&mut self.entries, op) else { return };
                let OpState::Get(w) = &mut pend.state else { return };
                let (key, origin, op_id) = (w.key, w.origin, pend.op_id);
                let Some(Entry::Client(c)) = self.entries.get_mut(op.slot).and_then(Option::as_mut)
                else {
                    return;
                };
                let node = c.node;
                let Some(pend) = c.pending.iter_mut().find(|p| p.op_seq == op.op_seq) else {
                    return;
                };
                let OpState::Get(w) = &mut pend.state else { return };
                (w.candidates.pop_front(), node, key, origin, op_id)
            };
            match next {
                None => {
                    let ack =
                        Frame::Ack { status: AckStatus::Unavailable, seq: 0, value: Vec::new() };
                    self.complete(op, ack);
                    return;
                }
                Some(r) if !self.shared.is_alive(r.index()) => continue,
                Some(r) if r.index() == node => {
                    let ack = match self.shared.stores[node].get(key) {
                        Some(v) => Frame::Ack { status: AckStatus::Ok, seq: v.seq, value: v.value },
                        None => {
                            Frame::Ack { status: AckStatus::NotFound, seq: 0, value: Vec::new() }
                        }
                    };
                    self.complete(op, ack);
                    return;
                }
                Some(r) => {
                    let f = Frame::ForwardGet { key, origin_dc: origin };
                    self.forward(op, node, r, f, op_id, Purpose::Get);
                    return;
                }
            }
        }
    }

    // ---- put state machine ----------------------------------------

    /// Begin (or restart) one put attempt: snapshot an even route
    /// epoch, write the local replica directly, fan forwards out to
    /// every remote live replica. An odd epoch parks the op on a short
    /// timer instead of writing into a partition mid-transfer.
    fn start_put(&mut self, op: OpRef) {
        let now = Instant::now();
        let (node, key, seq, value, op_id, deadline) = {
            let Some(pend) = resolve(&mut self.entries, op) else { return };
            let op_id = pend.op_id;
            let OpState::Put(w) = &mut pend.state else { return };
            if let Some(t) = w.defer_from.take() {
                pend.phases.queue_us += t.elapsed().as_micros() as f64;
            }
            let (key, seq, value, deadline) = (w.key, w.seq, w.value.clone(), w.deadline);
            let Some(Entry::Client(c)) = self.entries.get_mut(op.slot).and_then(Option::as_mut)
            else {
                return;
            };
            (c.node, key, seq, value, op_id, deadline)
        };
        let p = partition_of(key, self.shared.partitions);
        let epoch = self.shared.route_epoch(p);
        if epoch & 1 == 1 {
            if now > deadline {
                let ack = Frame::Ack { status: AckStatus::Unavailable, seq, value: Vec::new() };
                self.complete(op, ack);
                return;
            }
            if let Some(pend) = resolve(&mut self.entries, op) {
                if let OpState::Put(w) = &mut pend.state {
                    w.defer_from = Some(now);
                }
            }
            let id = self.next_timer;
            self.next_timer += 1;
            self.deferred.insert(id, op);
            self.wheel.schedule_after(id, DEFER_RETRY, now);
            return;
        }

        let replicas = self.shared.route(p);
        let me = ServerId::new(node as u32);
        let mut landed = 0usize;
        let mut remote: Vec<ServerId> = Vec::new();
        for r in replicas {
            if !self.shared.is_alive(r.index()) {
                continue; // dead at write time: repaired by the control loop
            }
            if r == me {
                self.commits.put(&self.shared.stores, node, key, seq, &value);
                landed += 1;
            } else {
                remote.push(r);
            }
        }
        {
            let Some(pend) = resolve(&mut self.entries, op) else { return };
            let OpState::Put(w) = &mut pend.state else { return };
            w.p_epoch = epoch;
            w.landed = landed;
            w.failed_live = false;
            w.outstanding = remote.len();
        }
        if remote.is_empty() {
            self.finish_put_attempt(op);
            return;
        }
        let origin = self.shared.dc_of[node];
        for r in remote {
            let f = Frame::ForwardPut { key, seq, origin_dc: origin, value: value.clone() };
            self.forward(op, node, r, f, op_id, Purpose::Put);
        }
    }

    /// Feed one remote replica's outcome into the put. `ok` means the
    /// replica acked Ok; anything else (bad ack, broken channel, peer
    /// timeout) counts as a failed write to that replica, fatal only if
    /// the replica still looks alive — a replica that died mid-write is
    /// the control loop's to repair, exactly as in the threaded plane.
    fn note_put_result(&mut self, op: OpRef, target: ServerId, ok: bool) {
        let alive = self.shared.is_alive(target.index());
        let finished = {
            let Some(pend) = resolve(&mut self.entries, op) else { return };
            let OpState::Put(w) = &mut pend.state else { return };
            w.outstanding -= 1;
            if ok {
                w.landed += 1;
            } else if alive {
                w.failed_live = true;
            }
            w.outstanding == 0
        };
        if finished {
            self.finish_put_attempt(op);
        }
    }

    /// All replicas of one attempt have resolved: ack, refuse, or
    /// restart against a changed route.
    fn finish_put_attempt(&mut self, op: OpRef) {
        let (key, seq, p_epoch, landed, failed_live, restarts, deadline) = {
            let Some(pend) = resolve(&mut self.entries, op) else { return };
            let OpState::Put(w) = &pend.state else { return };
            (w.key, w.seq, w.p_epoch, w.landed, w.failed_live, w.restarts, w.deadline)
        };
        if failed_live || landed == 0 {
            let ack = Frame::Ack { status: AckStatus::Unavailable, seq, value: Vec::new() };
            self.complete(op, ack);
            return;
        }
        let p = partition_of(key, self.shared.partitions);
        if self.shared.route_epoch(p) == p_epoch {
            // No transfer overlapped the write: every live replica of
            // the published route holds it. Safe to acknowledge.
            let ack = Frame::Ack { status: AckStatus::Ok, seq, value: Vec::new() };
            self.complete(op, ack);
            return;
        }
        // The route changed under the write. Replicas that landed keep
        // the value harmlessly (LWW); restart against the new route.
        if restarts >= MAX_RESTARTS || Instant::now() > deadline {
            let ack = Frame::Ack { status: AckStatus::Unavailable, seq, value: Vec::new() };
            self.complete(op, ack);
            return;
        }
        if let Some(pend) = resolve(&mut self.entries, op) {
            if let OpState::Put(w) = &mut pend.state {
                w.restarts += 1;
            }
        }
        self.start_put(op);
    }

    // ---- completion / release -------------------------------------

    /// Record the op's telemetry and span, count its ack, mark it
    /// ready, and release any front-complete prefix of the pipeline.
    fn complete(&mut self, op: OpRef, reply: Frame) {
        let (node, conn_id, kind, op_id, total_us, phases) = {
            let Some(Entry::Client(c)) = self.entries.get_mut(op.slot).and_then(Option::as_mut)
            else {
                return;
            };
            if c.gen != op.gen {
                return;
            }
            let (node, conn_id) = (c.node, c.conn_id);
            let Some(pend) = c.pending.iter_mut().find(|p| p.op_seq == op.op_seq) else {
                return;
            };
            let phases = std::mem::take(&mut pend.phases);
            pend.state = OpState::Ready;
            pend.reply = Some(reply.clone());
            (node, conn_id, pend.kind, pend.op_id, pend.t0.elapsed().as_micros() as f64, phases)
        };
        node::count_ack(&self.shared, &reply);
        node::record_request(&self.shared, node, conn_id, kind, op_id, total_us, &phases, &reply);
        self.release(op.slot);
    }

    /// Flush the front-complete prefix of a connection's pipeline into
    /// its write queue. In-order release is what keeps depth-1 behaviour
    /// identical to the threaded plane and lets untraced pipelined
    /// clients correlate acks by position.
    fn release(&mut self, slot: usize) {
        let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let mut wrote = false;
        while c.pending.front().is_some_and(|p| p.reply.is_some()) {
            let pend = c.pending.pop_front().expect("front checked");
            let reply = pend.reply.expect("reply checked");
            c.wq.push(reply.encode_traced(pend.op_id));
            wrote = true;
        }
        if wrote && !c.dirty {
            c.dirty = true;
            self.dirty.push(slot);
        }
    }

    // ---- peer channels --------------------------------------------

    /// Queue one forward on the (owner → target) channel, opening it if
    /// needed. Failure to open counts as the forward failing.
    fn forward(
        &mut self,
        op: OpRef,
        owner: usize,
        target: ServerId,
        frame: Frame,
        op_id: Option<u64>,
        purpose: Purpose,
    ) {
        self.shared.counters.forwards.fetch_add(1, Ordering::Relaxed);
        match self.peer_channel(owner, target.index()) {
            Ok(chan) => {
                let Some(Entry::Peer(ch)) = self.entries.get_mut(chan).and_then(Option::as_mut)
                else {
                    return;
                };
                ch.wq.push(frame.encode_traced(op_id));
                ch.tickets.push_back(Ticket { op, target, sent_at: Instant::now(), purpose });
                if !ch.dirty {
                    ch.dirty = true;
                    self.dirty.push(chan);
                }
            }
            Err(_) => self.forward_failed(op, target, purpose),
        }
    }

    fn forward_failed(&mut self, op: OpRef, target: ServerId, purpose: Purpose) {
        match purpose {
            Purpose::Get => self.advance_get(op),
            Purpose::Put => self.note_put_result(op, target, false),
        }
    }

    /// The live channel slot for (owner → peer), connecting lazily.
    fn peer_channel(&mut self, owner: usize, peer: usize) -> io::Result<usize> {
        if let Some(&slot) = self.peer_map.get(&(owner, peer)) {
            if matches!(self.entries.get(slot).and_then(Option::as_ref), Some(Entry::Peer(_))) {
                return Ok(slot);
            }
            self.peer_map.remove(&(owner, peer));
        }
        let stream = TcpStream::connect(self.shared.addrs[peer])?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let slot = self.alloc(Entry::Peer(PeerChan {
            owner,
            peer,
            stream,
            reader: FrameReader::new(MAX_FRAME),
            wq: WriteQueue::new(),
            want_write: false,
            dirty: false,
            tickets: VecDeque::new(),
        }));
        let fd = match self.entries[slot].as_ref() {
            Some(Entry::Peer(p)) => p.stream.as_raw_fd(),
            _ => unreachable!("just allocated"),
        };
        if let Err(e) = self.poller.register(fd, slot as u64, true, false) {
            self.entries[slot] = None;
            self.free.push(slot);
            return Err(e);
        }
        self.peer_map.insert((owner, peer), slot);
        Ok(slot)
    }

    /// Drain a peer channel's acks, matching them FIFO to tickets.
    fn read_peer(&mut self, slot: usize) {
        let mut bodies = Vec::new();
        let mut broken;
        {
            let Some(Entry::Peer(ch)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            broken = match ch.reader.fill_from(&mut ch.stream) {
                Ok((_, eof)) => eof,
                Err(_) => true,
            };
            loop {
                match ch.reader.next_body() {
                    Ok(Some(b)) => bodies.push(b),
                    Ok(None) => break,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
        }
        for body in bodies {
            let ticket = {
                let Some(Entry::Peer(ch)) = self.entries.get_mut(slot).and_then(Option::as_mut)
                else {
                    return;
                };
                ch.tickets.pop_front()
            };
            let Some(t) = ticket else {
                broken = true; // unsolicited frame: protocol violation
                break;
            };
            match Frame::decode_envelope(&body) {
                Ok((ack @ Frame::Ack { .. }, _)) => {
                    if let Some(pend) = resolve(&mut self.entries, t.op) {
                        pend.phases.forward_us += t.sent_at.elapsed().as_micros() as f64;
                    }
                    match t.purpose {
                        Purpose::Get => self.complete(t.op, ack),
                        Purpose::Put => {
                            let ok = matches!(ack, Frame::Ack { status: AckStatus::Ok, .. });
                            self.note_put_result(t.op, t.target, ok);
                        }
                    }
                }
                _ => {
                    // Non-ack or garbage: the channel is unusable. Put
                    // the ticket back so fail_channel routes it too.
                    if let Some(Entry::Peer(ch)) =
                        self.entries.get_mut(slot).and_then(Option::as_mut)
                    {
                        ch.tickets.push_front(t);
                    }
                    broken = true;
                    break;
                }
            }
        }
        if broken {
            self.fail_channel(slot);
        }
    }

    /// Tear one peer channel down and fail every outstanding ticket:
    /// gets walk on to their next candidate, puts count a failed write.
    fn fail_channel(&mut self, slot: usize) {
        let Some(Entry::Peer(mut ch)) = self.entries.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(ch.stream.as_raw_fd());
        self.peer_map.remove(&(ch.owner, ch.peer));
        self.free.push(slot);
        for t in ch.tickets.drain(..) {
            self.forward_failed(t.op, t.target, t.purpose);
        }
    }

    /// Periodic sweep: a channel whose oldest ticket exceeded the peer
    /// timeout is failed wholesale (the replica is wedged or the ack
    /// stream stalled — either way FIFO correlation is broken).
    fn scan_peer_timeouts(&mut self) {
        let now = Instant::now();
        let mut expired = Vec::new();
        for (slot, entry) in self.entries.iter().enumerate() {
            if let Some(Entry::Peer(ch)) = entry {
                if let Some(t) = ch.tickets.front() {
                    if now.duration_since(t.sent_at) > node::PEER_TIMEOUT {
                        expired.push(slot);
                    }
                }
            }
        }
        for slot in expired {
            self.fail_channel(slot);
        }
    }

    // ---- write path -----------------------------------------------

    /// End of turn: commit, then flush. Every ack queued this turn is
    /// still in a client-side write queue here, so committing first is
    /// all it takes for "acked" to mean "flushed per policy on this
    /// node". Peer channels carry only forward *requests*, which
    /// promise nothing, so they go out before the commit and the
    /// replicas work while this thread syncs. With nothing owed (always,
    /// when the WAL is off) the slots are flushed newest first, the
    /// order the plane had before group commit: the memory path's timing
    /// is not this step's to change.
    fn flush_dirty(&mut self) {
        loop {
            if !self.commits.is_empty() {
                let mut batch = std::mem::take(&mut self.dirty);
                batch.retain(|&slot| {
                    let is_peer = matches!(self.entries.get(slot), Some(Some(Entry::Peer(_))));
                    if is_peer {
                        self.flush_slot(slot);
                    }
                    !is_peer
                });
                batch.append(&mut self.dirty);
                self.dirty = batch;
                self.commits.commit(&self.shared.stores);
            }
            // fail_channel / close paths may push more dirty slots while
            // we flush, and a failed channel restarts its puts, which
            // buffers more records: back to the commit when that happens.
            while self.commits.is_empty() {
                let Some(slot) = self.dirty.pop() else {
                    return;
                };
                self.flush_slot(slot);
            }
        }
    }

    fn flush_slot(&mut self, slot: usize) {
        enum Outcome {
            Ok,
            CloseClient,
            FailPeer,
        }
        let outcome = {
            let Some(entry) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let (stream, wq, want_write, dirty, is_client) = match entry {
                Entry::Client(c) => {
                    (&mut c.stream, &mut c.wq, &mut c.want_write, &mut c.dirty, true)
                }
                Entry::Peer(p) => {
                    (&mut p.stream, &mut p.wq, &mut p.want_write, &mut p.dirty, false)
                }
                Entry::Listener { .. } => return,
            };
            *dirty = false;
            debug_assert!(!is_client || self.commits.is_empty(), "ack flushed before its commit");
            match wq.flush(stream) {
                Ok(drained) => {
                    let fd = stream.as_raw_fd();
                    if drained && *want_write {
                        *want_write = false;
                        let readable = match entry {
                            Entry::Client(c) => !c.eof,
                            _ => true,
                        };
                        let _ = self.poller.modify(fd, slot as u64, readable, false);
                    } else if !drained && !*want_write {
                        *want_write = true;
                        let readable = match entry {
                            Entry::Client(c) => !c.eof,
                            _ => true,
                        };
                        let _ = self.poller.modify(fd, slot as u64, readable, true);
                    }
                    match entry {
                        Entry::Client(c) if c.eof && c.pending.is_empty() && c.wq.is_empty() => {
                            Outcome::CloseClient
                        }
                        _ => Outcome::Ok,
                    }
                }
                Err(_) => {
                    if is_client {
                        Outcome::CloseClient
                    } else {
                        Outcome::FailPeer
                    }
                }
            }
        };
        match outcome {
            Outcome::Ok => {}
            Outcome::CloseClient => self.close_client(slot),
            Outcome::FailPeer => self.fail_channel(slot),
        }
    }

    fn close_client(&mut self, slot: usize) {
        let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(c.stream.as_raw_fd());
        self.free.push(slot);
        // In-flight tickets referencing this conn resolve to nothing:
        // slot generations make their completions no-ops.
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::cluster::control_plane;
    use crate::config::ClusterConfig;
    use crate::store::NodeStore;
    use crate::wal::{FsyncPolicy, PersistenceConfig};
    use rfh_faults::FaultPlan;
    use std::io::Read;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Fail-stop through the overlapped commit. A turn owes six shards
    /// and holds an ack in a client's write queue; one shard's commit
    /// fails on its sync worker (its directory is gone when the full
    /// segment rotates). The failure must come back as a panic out of
    /// `flush_dirty`, after the other five commits have landed, with
    /// the ack still unsent.
    #[test]
    fn a_commit_failing_on_a_sync_worker_panics_the_reactor_before_any_ack_leaves() {
        let dir = std::env::temp_dir().join(format!("rfh-failstop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persistence = PersistenceConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes: 1024,
            ..PersistenceConfig::with_dir(dir.to_string_lossy().into_owned())
        };
        let cfg = ClusterConfig { servers_per_rack: 1, partitions: 16, ..ClusterConfig::default() };
        let pipeline = control_plane(&cfg, &FaultPlan::default()).unwrap();
        let stores: Vec<NodeStore> = (0..pipeline.topology().server_count())
            .map(|n| NodeStore::durable(&persistence, n).unwrap())
            .collect();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let addrs = vec![addr; stores.len()];
        let shared = Arc::new(Shared::new(false, &pipeline, stores, addrs));
        let mut reactor =
            Reactor::new(Arc::clone(&shared), Vec::new(), Waker::new().unwrap()).unwrap();

        // One accepted client connection, as `accept_loop` builds it.
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let slot = reactor.alloc(Entry::Client(ClientConn::new(0, 1, stream)));
        let ack = Frame::Ack { status: AckStatus::Ok, seq: 1, value: Vec::new() }.encode();
        let turn = |reactor: &mut Reactor, seq: u64| {
            for node in 0..3 {
                for key in 0..40u64 {
                    reactor.commits.put(&shared.stores, node, key, seq, &[seq as u8; 64]);
                }
            }
            let Some(Entry::Client(c)) = reactor.entries[slot].as_mut() else { unreachable!() };
            c.wq.push(ack.clone());
            reactor.mark_dirty(slot);
            catch_unwind(AssertUnwindSafe(|| reactor.flush_dirty()))
        };
        let fsyncs = |node: usize| shared.stores[node].storage().unwrap().snapshot().fsyncs;

        // The healthy turn: committed, then flushed.
        turn(&mut reactor, 1).expect("a healthy commit");
        let mut got = vec![0u8; ack.len()];
        client.read_exact(&mut got).unwrap();
        assert_eq!(got, ack);
        assert_eq!([fsyncs(0), fsyncs(1), fsyncs(2)], [2, 2, 2]);

        // Node 1 loses its directory; its shards' next rotation fails.
        std::fs::remove_dir_all(dir.join("node-1")).unwrap();
        assert!(turn(&mut reactor, 2).is_err(), "a failed commit must not return");
        assert!(!reactor.commits.is_empty(), "the failed commit is still owed");
        assert_eq!([fsyncs(0), fsyncs(2)], [4, 4], "the rest of the batch drained first");
        let err = client.read(&mut got).expect_err("an ack left although its commit failed");
        assert!(matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut), "{err}");
        let Some(Entry::Client(c)) = reactor.entries[slot].as_ref() else { unreachable!() };
        assert!(!c.wq.is_empty(), "the ack is still queued");

        drop(reactor);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
