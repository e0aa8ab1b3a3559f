//! The epoll reactor data plane.
//!
//! All node listeners multiplex onto a small pool of reactor threads
//! (`min(cores, 4)`); every accepted connection is nonblocking and
//! pipelined — a client may keep many frames in flight, and replies are
//! released strictly in arrival order so an untraced pipeline
//! correlates acks by position (traced frames additionally echo their
//! op-ID). At pipeline depth 1 that is the plain request/response
//! exchange the blocking `ServeClient` speaks.
//!
//! What to do with a request is not decided here: every inbound frame
//! goes to `coord::serve_frame`, and every client `Get`/`Put` is a
//! `coord::Coordinator` parked in its connection's pipeline. This
//! module executes the coordinator's steps — a forward becomes a
//! peer-channel ticket whose ack (or failure) is fed back, a defer
//! becomes a timer-wheel entry — and owns the I/O around them.
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
//! (coordinator node, peer node) pair per reactor thread. Replies
//! correlate by FIFO order: the replica serves forwards synchronously
//! in arrival order, so the n-th ack on a channel answers the n-th
//! outstanding ticket.
//! Op-IDs still ride traced forwards — they are the *span-chain*
//! correlation token, not the transport's. A channel that errors,
//! closes, or dawdles past the peer timeout fails all its tickets
//! (gets walk on to the next replica; puts treat it as a failed write
//! to that replica) and is re-established on next use.

use crate::cluster::Shared;
use crate::coord::{self, Coordinator, Step};
use crate::store::TurnCommits;
use crate::wire::{Frame, MAX_FRAME};
use rfh_reactor::{Event, FrameReader, Poller, TimerWheel, Waker, WriteQueue};
use rfh_types::{Result, RfhError, ServerId};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cap on reactor threads: beyond a few, loopback serving is syscall-
/// bound, not CPU-bound, and more loops just shuffle cache lines.
const MAX_REACTOR_THREADS: usize = 4;

/// Poller token of the wakeup eventfd.
const WAKER_TOKEN: u64 = u64::MAX;

/// Timer-wheel token of the recurring peer-timeout scan.
const SCAN_TOKEN: u64 = u64::MAX;

/// How often each reactor sweeps peer channels for expired tickets.
const SCAN_INTERVAL: Duration = Duration::from_millis(250);

/// Upper bound on one `epoll_wait`, so shutdown is always noticed even
/// if the waker write itself were lost.
const MAX_IDLE: Duration = Duration::from_millis(100);

/// How long a peer channel's oldest ticket may wait for its ack.
const PEER_TIMEOUT: Duration = Duration::from_millis(2_000);

/// The running reactor pool. Created by `Cluster::start_bound`; joined
/// at cluster shutdown.
pub(crate) struct ReactorPlane {
    threads: Vec<JoinHandle<()>>,
    wakers: Vec<Waker>,
}

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

/// One outstanding forward on a peer channel, completed FIFO.
struct Ticket {
    op: OpRef,
    target: ServerId,
    sent_at: Instant,
}

/// One request in a connection's pipeline, kept in arrival order.
struct PendingOp {
    op_seq: u64,
    op_id: Option<u64>,
    /// The coordinator of a client `Get`/`Put` until it replies.
    coord: Option<Coordinator>,
    /// Set once answered; waits here only for in-order release.
    reply: Option<Frame>,
}

struct ClientConn {
    node: usize,
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

impl ClientConn {
    /// A freshly accepted (already nonblocking) connection to `node`.
    fn new(node: usize, gen: u64, stream: TcpStream) -> ClientConn {
        ClientConn {
            node,
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

    /// The pipeline entry of `op_seq`, if still pending. Pending ops
    /// hold consecutive `op_seq`s (pushed in order, released from the
    /// front), so it sits at `op_seq - front.op_seq`.
    fn pending_op(&mut self, op_seq: u64) -> Option<&mut PendingOp> {
        let front = self.pending.front()?.op_seq;
        let pend = self.pending.get_mut(usize::try_from(op_seq.checked_sub(front)?).ok()?)?;
        debug_assert_eq!(pend.op_seq, op_seq);
        Some(pend)
    }
}

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

enum Entry {
    Listener { node: usize, listener: TcpListener },
    Client(ClientConn),
    Peer(PeerChan),
}

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

fn resolve(entries: &mut [Option<Entry>], op: OpRef) -> Option<&mut PendingOp> {
    match entries.get_mut(op.slot)?.as_mut()? {
        Entry::Client(c) if c.gen == op.gen => c.pending_op(op.op_seq),
        _ => None,
    }
}

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
        let Some(op) = self.deferred.remove(&token) else { return };
        let Some(coord) = resolve(&mut self.entries, op).and_then(|p| p.coord.as_mut()) else {
            return;
        };
        let step = coord.attempt(&self.shared, &mut self.commits, Instant::now());
        self.drive(op, step);
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
        let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let Ok((_, eof)) = c.reader.fill_from(&mut c.stream) else {
            self.close_client(slot);
            return;
        };
        // Each frame is decoded straight out of the connection's buffer.
        loop {
            let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let decoded = match c.reader.next_frame() {
                Ok(None) => break,
                Ok(Some(body)) => Frame::decode_envelope(body),
                Err(e) => Err(e),
            };
            let Ok((frame, op_id)) = decoded else {
                self.close_client(slot);
                return;
            };
            if !self.dispatch(slot, frame, op_id) {
                return; // connection closed mid-batch
            }
        }
        if eof {
            // The client finished sending: stop reading from it, but
            // let already-pipelined work drain — replies still flush,
            // and the conn closes once idle.
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

    /// Hand one inbound frame to the coordinator and drive what it
    /// asks for. Returns false when the connection was closed
    /// (fail-stop).
    fn dispatch(&mut self, slot: usize, frame: Frame, op_id: Option<u64>) -> bool {
        let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        c.next_op_seq += 1;
        let (node, op) = (c.node, OpRef { slot, gen: c.gen, op_seq: c.next_op_seq });
        if !self.shared.is_alive(node) {
            self.close_client(slot); // killed mid-connection: drop without reply
            return false;
        }
        // A forwarded put is only buffered here; the turn commits it.
        let now = Instant::now();
        let (coord, step) =
            coord::serve_frame(node, frame, op_id, &self.shared, &mut self.commits, now);
        c.pending.push_back(PendingOp { op_seq: op.op_seq, op_id, coord, reply: None });
        self.drive(op, step);
        true
    }

    /// Execute one coordinator step: forwards become peer-channel
    /// tickets, a defer a timer, a reply the op's place in the pipeline.
    fn drive(&mut self, op: OpRef, step: Step) {
        match step {
            Step::Wait => {}
            Step::Reply(reply) => self.complete(op, reply),
            Step::Defer(until) => {
                let id = self.next_timer;
                self.next_timer += 1;
                self.deferred.insert(id, op);
                let now = Instant::now();
                self.wheel.schedule_after(id, until.saturating_duration_since(now), now);
            }
            Step::Forward(frame, targets) => {
                let Some(Entry::Client(c)) = self.entries.get_mut(op.slot).and_then(Option::as_mut)
                else {
                    return;
                };
                let node = c.node;
                let Some(op_id) = c.pending_op(op.op_seq).map(|p| p.op_id) else {
                    return;
                };
                for target in targets {
                    self.forward(op, node, target, &frame, op_id);
                }
            }
        }
    }

    /// Feed one forward's outcome to its op's coordinator and drive the
    /// step it answers with.
    fn outcome(&mut self, op: OpRef, target: ServerId, ack: Option<Frame>, sent_at: Instant) {
        let Some(coord) = resolve(&mut self.entries, op).and_then(|p| p.coord.as_mut()) else {
            return;
        };
        let now = Instant::now();
        let rtt = now.saturating_duration_since(sent_at);
        let step = coord.forwarded(&self.shared, &mut self.commits, target, ack, rtt, now);
        self.drive(op, step);
    }

    // ---- completion / release -------------------------------------

    /// Store an answered op's reply — counted and recorded already — and
    /// release any front-complete prefix of the pipeline.
    fn complete(&mut self, op: OpRef, reply: Frame) {
        let Some(pend) = resolve(&mut self.entries, op) else { return };
        pend.coord = None;
        pend.reply = Some(reply);
        self.release(op.slot);
    }

    /// Flush the front-complete prefix of a connection's pipeline into
    /// its write queue. In-order release is what lets untraced
    /// pipelined clients correlate acks by position.
    fn release(&mut self, slot: usize) {
        let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let mut wrote = false;
        while c.pending.front().is_some_and(|p| p.reply.is_some()) {
            let pend = c.pending.pop_front().expect("front checked");
            let reply = pend.reply.expect("reply checked");
            reply.encode_into(pend.op_id, c.wq.buf_mut());
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
        frame: &Frame,
        op_id: Option<u64>,
    ) {
        let sent_at = Instant::now();
        match self.peer_channel(owner, target.index()) {
            Ok(chan) => {
                let Some(Entry::Peer(ch)) = self.entries.get_mut(chan).and_then(Option::as_mut)
                else {
                    return;
                };
                frame.encode_into(op_id, ch.wq.buf_mut());
                ch.tickets.push_back(Ticket { op, target, sent_at });
                if !ch.dirty {
                    ch.dirty = true;
                    self.dirty.push(chan);
                }
            }
            Err(_) => self.outcome(op, target, None, sent_at),
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
        let Some(Entry::Peer(ch)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let mut broken = ch.reader.fill_from(&mut ch.stream).map_or(true, |(_, eof)| eof);
        loop {
            let Some(Entry::Peer(ch)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let decoded = match ch.reader.next_frame() {
                Ok(None) => break,
                Ok(Some(body)) => Frame::decode_envelope(body),
                Err(e) => Err(e),
            };
            let Some(t) = ch.tickets.pop_front() else {
                broken = true; // unsolicited frame: protocol violation
                break;
            };
            match decoded {
                Ok((ack @ Frame::Ack { .. }, _)) => {
                    self.outcome(t.op, t.target, Some(ack), t.sent_at)
                }
                _ => {
                    // Non-ack or garbage: the channel is unusable. Put
                    // the ticket back so fail_channel routes it too.
                    ch.tickets.push_front(t);
                    broken = true;
                    break;
                }
            }
        }
        if broken {
            self.fail_channel(slot);
        }
    }

    /// Tear one peer channel down and fail every outstanding ticket.
    fn fail_channel(&mut self, slot: usize) {
        let Some(Entry::Peer(mut ch)) = self.entries.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(ch.stream.as_raw_fd());
        self.peer_map.remove(&(ch.owner, ch.peer));
        self.free.push(slot);
        for t in ch.tickets.drain(..) {
            self.outcome(t.op, t.target, None, t.sent_at);
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
                    if now.duration_since(t.sent_at) > PEER_TIMEOUT {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::control_plane;
    use crate::config::ClusterConfig;
    use crate::store::{partition_of, NodeStore};
    use crate::wal::{FsyncPolicy, PersistenceConfig};
    use crate::wire::AckStatus;
    use rfh_faults::FaultPlan;
    use std::io::{Read, Write};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Event-loop passes — `run`'s body without the timers — until
    /// `done` holds.
    fn pump_until(reactor: &mut Reactor, mut done: impl FnMut(&Reactor) -> bool) {
        let mut events = Vec::new();
        for _ in 0..500 {
            if done(reactor) {
                return;
            }
            reactor.poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
            for ev in events.drain(..) {
                reactor.handle_event(ev);
            }
            reactor.flush_dirty();
        }
        panic!("the reactor never reached the awaited state");
    }

    fn open_clients(reactor: &Reactor) -> usize {
        reactor.entries.iter().filter(|e| matches!(e, Some(Entry::Client(_)))).count()
    }

    /// A 20-node cluster's shared state whose every node address is one
    /// listener, served by a reactor that owns it as node 0: forwards
    /// reach the same reactor through that listener and are served as
    /// node 0's.
    fn node_0_reactor() -> (Arc<Shared>, Reactor, std::net::SocketAddr) {
        let cfg = ClusterConfig { servers_per_rack: 1, partitions: 16, ..ClusterConfig::default() };
        let pipeline = control_plane(&cfg, &FaultPlan::default()).unwrap();
        let nodes = pipeline.topology().server_count();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let stores = (0..nodes).map(|_| NodeStore::new()).collect();
        let shared = Arc::new(Shared::new(false, &pipeline, stores, vec![addr; nodes]));
        let reactor =
            Reactor::new(Arc::clone(&shared), vec![(0, listener)], Waker::new().unwrap()).unwrap();
        (shared, reactor, addr)
    }

    /// A key whose route holds node 0 and other replicas: its get is
    /// answered from node 0's store, its put is also forwarded.
    fn key_on_node_0(shared: &Shared) -> u64 {
        (0..)
            .find(|&k| {
                let route = shared.route(partition_of(k, shared.partitions));
                route.len() > 1 && route.iter().any(|s| s.index() == 0)
            })
            .unwrap()
    }

    /// Connection churn: 200 clients connect, get one key each and hang
    /// up, and the slot table stays at listener + one client slot,
    /// because a closed connection's slot is reused. Then the node dies:
    /// its listener still accepts, but drops the connection unserved —
    /// the client reads EOF — and allocates no slot for it.
    #[test]
    fn closed_connections_reuse_their_slot_and_a_dead_node_accepts_then_drops() {
        let (shared, mut reactor, addr) = node_0_reactor();

        // A key node 0 holds a replica of: its get is answered locally,
        // so no peer channel takes a slot.
        let key = key_on_node_0(&shared);
        shared.stores[0].put(key, 1, b"v");
        let get = Frame::Get { key }.encode();
        let ack = Frame::Ack { status: AckStatus::Ok, seq: 1, value: b"v".to_vec() }.encode();
        let served = |r: &Reactor| {
            r.entries.iter().any(|e| {
                matches!(e, Some(Entry::Client(c))
                    if c.next_op_seq == 1 && c.pending.is_empty() && c.wq.is_empty())
            })
        };

        for round in 0..200 {
            let mut client = TcpStream::connect(addr).unwrap();
            client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            client.write_all(&get).unwrap();
            pump_until(&mut reactor, served);
            let mut got = vec![0u8; ack.len()];
            client.read_exact(&mut got).unwrap();
            assert_eq!(got, ack, "round {round}");
            drop(client);
            pump_until(&mut reactor, |r| open_clients(r) == 0);
            assert_eq!((reactor.entries.len(), reactor.free.len()), (2, 1), "round {round}");
        }
        assert_eq!(reactor.gen_seq, 200, "one slot allocation per connection");

        shared.alive[0].store(false, Ordering::Release);
        let client = TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 64];
        pump_until(&mut reactor, |_| match (&client).read(&mut buf) {
            Ok(0) => true,
            Ok(n) => panic!("a dead node sent {n} bytes"),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
            Err(e) => panic!("expected EOF from a dead node, got {e}"),
        });
        assert_eq!(reactor.gen_seq, 200, "a dead node allocates no slot");
        assert_eq!((reactor.entries.len(), reactor.free.len()), (2, 1));
    }

    /// A put far longer than a read's room (256 KiB against 2 KiB)
    /// arrives over many readiness events, is reassembled, forwarded to
    /// every other replica, and acked; the stored value is intact.
    #[test]
    fn a_put_larger_than_the_read_room_is_served() {
        let (shared, mut reactor, addr) = node_0_reactor();
        let key = key_on_node_0(&shared);
        let value: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
        let put = Frame::Put { key, seq: 3, value: value.clone() }.encode();
        // The client blocks in write_all until the reactor has read most
        // of the frame, so it runs on its own thread.
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            (&stream).write_all(&put).unwrap();
            crate::wire::Conn::new(stream).recv().unwrap()
        });
        pump_until(&mut reactor, |_| client.is_finished());
        let ack = client.join().unwrap();
        assert_eq!(ack, Some(Frame::Ack { status: AckStatus::Ok, seq: 3, value: Vec::new() }));
        assert_eq!(shared.stores[0].get(key).map(|v| (v.seq, v.value)), Some((3, value)));
    }

    /// A client that sends its last frames and half-closes at once
    /// (data and FIN may arrive in one read) still gets every reply, in
    /// order — the put's after its forwards came back — and then sees
    /// its connection close.
    #[test]
    fn a_half_closed_client_gets_every_reply_and_then_eof() {
        let (shared, mut reactor, addr) = node_0_reactor();
        let key = key_on_node_0(&shared);
        let frames = [
            Frame::Put { key, seq: 1, value: b"one".to_vec() },
            Frame::Get { key },
            Frame::Put { key, seq: 2, value: b"two".to_vec() },
            Frame::Get { key },
        ];
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&frames.iter().flat_map(Frame::encode).collect::<Vec<u8>>()).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        client.set_nonblocking(true).unwrap();
        let (mut got, mut buf) = (Vec::new(), [0u8; 256]);
        pump_until(&mut reactor, |_| loop {
            match client.read(&mut buf) {
                Ok(0) => return true,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) => panic!("expected replies and then EOF, got {e}"),
            }
        });
        let expect = [
            Frame::Ack { status: AckStatus::Ok, seq: 1, value: Vec::new() },
            Frame::Ack { status: AckStatus::Ok, seq: 1, value: b"one".to_vec() },
            Frame::Ack { status: AckStatus::Ok, seq: 2, value: Vec::new() },
            Frame::Ack { status: AckStatus::Ok, seq: 2, value: b"two".to_vec() },
        ];
        assert_eq!(got, expect.iter().flat_map(Frame::encode).collect::<Vec<u8>>());
    }

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
