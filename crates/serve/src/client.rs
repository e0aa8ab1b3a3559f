//! A client handle for a running cluster.
//!
//! Each client models one front-end in a specific datacenter: it keeps
//! a single connection to a coordinator node *in that datacenter*
//! (requests enter the system locally, as the paper's traffic model
//! assumes) and fails over to the next local node when the connection
//! breaks or the node refuses service. [`PipelinedClient`] holds the
//! connection, the retry budget and the failover; [`ServeClient`] is
//! the get/put surface over a window of one.

use crate::cluster::NodeInfo;
use crate::wire::{AckStatus, Conn, Frame};
use rfh_obs::{SpanEvent, SpanLog};
use rfh_types::{Result, RfhError};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connect + read timeout for client requests. Generous: a request can
/// sit behind a partition transfer holding the lock.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(5_000);

/// Attempts per operation before giving up (each attempt may rotate to
/// a different coordinator).
const MAX_TRIES: usize = 8;

/// The outcome of a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GetOutcome {
    /// The key exists with this version and value.
    Found {
        /// Stored write version.
        seq: u64,
        /// Stored bytes.
        value: Vec<u8>,
    },
    /// No replica holds the key.
    NotFound,
}

/// One datacenter-local client connection with failover: a
/// [`PipelinedClient`] whose window holds one frame, so every request
/// is a full round-trip.
pub struct ServeClient {
    window: PipelinedClient,
}

impl ServeClient {
    /// A client homed in `dc`, coordinating through that datacenter's
    /// nodes. `offset` staggers which local node different clients pick
    /// first so load spreads.
    pub fn new(nodes: &[NodeInfo], dc: u32, offset: usize) -> Result<Self> {
        Ok(ServeClient { window: PipelinedClient::new(nodes, dc, offset, 1)? })
    }

    /// Record client-side spans for traced operations into `spans`.
    pub fn set_span_log(&mut self, spans: Arc<SpanLog>) {
        self.window.set_span_log(spans);
    }

    /// Parse the address-file format `Cluster::render_addr_file` emits
    /// (`server dc ip:port` per line) back into node infos.
    pub fn parse_addr_file(text: &str) -> Result<Vec<NodeInfo>> {
        let bad = |line: &str| RfhError::Io(format!("bad addr line {line:?}"));
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|line| {
                let mut parts = line.split_whitespace();
                let server: u32 =
                    parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad(line))?;
                let dc: u32 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad(line))?;
                let addr: SocketAddr =
                    parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad(line))?;
                Ok(NodeInfo { server: rfh_types::ServerId::new(server), dc, addr })
            })
            .collect()
    }

    /// The datacenter this client issues from.
    pub fn datacenter(&self) -> u32 {
        self.window.dc
    }

    /// Read `key`. Retries through coordinator failover; errors only
    /// when every attempt failed.
    pub fn get(&mut self, key: u64) -> Result<GetOutcome> {
        self.get_traced(key, None)
    }

    /// [`get`](ServeClient::get), optionally carrying a trace op-ID.
    /// `None` keeps the wire bytes identical to an untraced get.
    pub fn get_traced(&mut self, key: u64, op_id: Option<u64>) -> Result<GetOutcome> {
        match self.request(Frame::Get { key }, op_id)? {
            Frame::Ack { status: AckStatus::Ok, seq, value } => {
                Ok(GetOutcome::Found { seq, value })
            }
            Frame::Ack { status: AckStatus::NotFound, .. } => Ok(GetOutcome::NotFound),
            _ => Err(RfhError::Io("read unavailable".into())),
        }
    }

    /// Write `key = value` at version `seq`. Returns only after a
    /// coordinator acknowledged the write on every live replica; safe
    /// to retry with the same `seq` (idempotent last-writer-wins).
    pub fn put(&mut self, key: u64, seq: u64, value: &[u8]) -> Result<()> {
        self.put_traced(key, seq, value, None)
    }

    /// [`put`](ServeClient::put), optionally carrying a trace op-ID.
    pub fn put_traced(
        &mut self,
        key: u64,
        seq: u64,
        value: &[u8],
        op_id: Option<u64>,
    ) -> Result<()> {
        match self.request(Frame::Put { key, seq, value: value.to_vec() }, op_id)? {
            Frame::Ack { status: AckStatus::Ok, .. } => Ok(()),
            _ => Err(RfhError::Io("write unavailable".into())),
        }
    }

    /// One request through the window. An op still `Unavailable` when
    /// its retries ran out is the caller's error.
    fn request(&mut self, frame: Frame, op_id: Option<u64>) -> Result<Frame> {
        self.window.submit(frame, op_id)?;
        let done = self.window.drain()?.pop().expect("a window of one holds the op just submitted");
        match done.ack {
            Frame::Ack { status: AckStatus::Unavailable, .. } => {
                Err(RfhError::Io(format!("request failed after {MAX_TRIES} tries")))
            }
            ack => Ok(ack),
        }
    }
}

/// One finished operation from a [`PipelinedClient`] window.
#[derive(Debug)]
pub struct CompletedOp {
    /// The request frame as originally submitted.
    pub request: Frame,
    /// The trace op-ID the request carried, if any.
    pub op_id: Option<u64>,
    /// End-to-end latency from *first* submission — retries and
    /// failovers count against the op, never reset the clock.
    pub latency_us: f64,
    /// The coordinator's ack (synthetic `Unavailable` if the op
    /// exhausted its retries without one).
    pub ack: Frame,
}

/// An in-flight frame awaiting its FIFO-ordered ack.
struct InflightOp {
    request: Frame,
    op_id: Option<u64>,
    t0: Instant,
    tries: usize,
}

/// A datacenter-local client that keeps up to `depth` frames in flight
/// on one connection.
///
/// Replies correlate by order: coordinators release acks in arrival
/// order on both data planes, so the n-th ack answers the n-th
/// outstanding request. Traced frames double-check this by comparing
/// the echoed op-ID. On a broken connection or an `Unavailable` ack the
/// client rotates coordinators and replays the whole window — safe
/// because puts are idempotent (LWW at a fixed `seq`) and gets are
/// reads. With no coordinator reachable at all (the whole cluster is
/// down between a crash and its relaunch) the window waits
/// disconnected: every further attempt burns one of its ops' tries, and
/// an op out of tries completes as `Unavailable`.
pub struct PipelinedClient {
    addrs: Vec<SocketAddr>,
    cursor: usize,
    conn: Option<Conn<TcpStream>>,
    dc: u32,
    depth: usize,
    inflight: std::collections::VecDeque<InflightOp>,
    spans: Option<Arc<SpanLog>>,
}

impl PipelinedClient {
    /// A pipelined client homed in `dc` with a window of `depth`
    /// outstanding frames. `offset` staggers the first coordinator.
    pub fn new(nodes: &[NodeInfo], dc: u32, offset: usize, depth: usize) -> Result<Self> {
        let addrs: Vec<SocketAddr> = nodes.iter().filter(|n| n.dc == dc).map(|n| n.addr).collect();
        if addrs.is_empty() {
            return Err(RfhError::Topology(format!("no nodes in datacenter {dc}")));
        }
        if depth == 0 {
            return Err(RfhError::InvalidConfig {
                parameter: "pipeline",
                reason: "window depth must be at least 1".into(),
            });
        }
        let cursor = offset % addrs.len();
        Ok(PipelinedClient {
            addrs,
            cursor,
            conn: None,
            dc,
            depth,
            inflight: std::collections::VecDeque::new(),
            spans: None,
        })
    }

    /// Record client-side spans for traced operations into `spans`.
    pub fn set_span_log(&mut self, spans: Arc<SpanLog>) {
        self.spans = Some(spans);
    }

    /// Submit one request. When the window is already `depth` deep, the
    /// oldest op is first driven to completion and returned. Failures
    /// surface as `Unavailable` completions, never as `Err`.
    pub fn submit(&mut self, request: Frame, op_id: Option<u64>) -> Result<Option<CompletedOp>> {
        let done = (self.inflight.len() >= self.depth).then(|| self.read_one());
        self.inflight.push_back(InflightOp { request, op_id, t0: Instant::now(), tries: 0 });
        self.send_newest();
        Ok(done)
    }

    /// Drive every outstanding op to completion, in order.
    pub fn drain(&mut self) -> Result<Vec<CompletedOp>> {
        let mut done = Vec::with_capacity(self.inflight.len());
        while !self.inflight.is_empty() {
            done.push(self.read_one());
        }
        Ok(done)
    }

    /// Send the window's newest op. A connection that is down is
    /// re-established by replaying the whole window (the newest op
    /// included), as is one that breaks under the send; if nothing is
    /// reachable the op waits in the window for `read_one`'s retries.
    fn send_newest(&mut self) {
        let Some(conn) = self.conn.as_mut() else {
            return self.replay();
        };
        let op = self.inflight.back().expect("send_newest follows a push");
        if conn.send_traced(&op.request, op.op_id).is_err() {
            self.rotate_and_replay(); // broke under the send
        }
    }

    /// Complete the window's oldest op: read its ack, retrying through
    /// failover until it resolves or runs out of attempts.
    fn read_one(&mut self) -> CompletedOp {
        loop {
            let received = match self.conn.as_mut() {
                Some(conn) => conn.recv_envelope(),
                None => Err(io::ErrorKind::NotConnected.into()),
            };
            let front = self.inflight.front().expect("read_one needs an inflight op");
            let exhausted = front.tries >= MAX_TRIES;
            let ack = match received {
                Ok(Some((ack @ Frame::Ack { .. }, echoed))) if echoed == front.op_id => {
                    // A refusal (route mid-repair, dying node) is
                    // retried like a broken connection, while tries
                    // last; after that it is the op's answer.
                    let refused = matches!(ack, Frame::Ack { status: AckStatus::Unavailable, .. });
                    (!refused || exhausted).then_some(ack)
                }
                // Wrong op-ID echo, a non-ack frame, clean EOF, an I/O
                // error, or no connection: unusable as-is.
                Ok(_) | Err(_) => exhausted.then_some(Frame::Ack {
                    status: AckStatus::Unavailable,
                    seq: 0,
                    value: Vec::new(),
                }),
            };
            if let Some(ack) = ack {
                let op = self.inflight.pop_front().expect("front just inspected");
                return self.finish(op, ack);
            }
            // Back off, rotate, replay — the op keeps its place at the
            // window's front.
            std::thread::sleep(Duration::from_millis(10 << front.tries.min(5)));
            self.bump_tries();
            self.rotate_and_replay();
        }
    }

    fn finish(&mut self, op: InflightOp, ack: Frame) -> CompletedOp {
        let latency_us = op.t0.elapsed().as_micros() as f64;
        if let (Some(id), Some(spans)) = (op.op_id, self.spans.as_ref()) {
            spans.record(SpanEvent {
                op_id: id,
                role: "client",
                node: -1,
                dc: self.dc,
                kind: frame_kind(&op.request),
                queue_us: 0.0,
                handle_us: latency_us,
                forward_us: 0.0,
                status: ack_status(&ack),
            });
        }
        CompletedOp { request: op.request, op_id: op.op_id, latency_us, ack }
    }

    /// Every rotation burns one attempt for every op it replays: a
    /// wedged datacenter cannot spin the window forever.
    fn bump_tries(&mut self) {
        for op in &mut self.inflight {
            op.tries += 1;
        }
    }

    /// Drop the connection, advance to the next coordinator, reconnect,
    /// and resend the whole in-flight window in order. On failure the
    /// client is left disconnected.
    fn rotate_and_replay(&mut self) {
        self.cursor = (self.cursor + 1) % self.addrs.len();
        self.replay();
    }

    /// (Re)connect at the current coordinator and resend the window.
    fn replay(&mut self) {
        self.conn = self.connect();
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        let batch: Vec<(Frame, Option<u64>)> =
            self.inflight.iter().map(|op| (op.request.clone(), op.op_id)).collect();
        if !batch.is_empty() && conn.send_batch(&batch).is_err() {
            self.conn = None;
        }
    }

    /// Connect to the current coordinator, walking the ring once before
    /// giving up — every local node may be mid-restart at once.
    fn connect(&mut self) -> Option<Conn<TcpStream>> {
        for _ in 0..self.addrs.len() {
            if let Ok(stream) = TcpStream::connect_timeout(&self.addrs[self.cursor], CLIENT_TIMEOUT)
            {
                let tuned = stream
                    .set_read_timeout(Some(CLIENT_TIMEOUT))
                    .and_then(|()| stream.set_nodelay(true));
                return tuned.is_ok().then(|| Conn::new(stream));
            }
            self.cursor = (self.cursor + 1) % self.addrs.len();
        }
        None
    }
}

/// Span label for the request frame a client issues.
fn frame_kind(frame: &Frame) -> &'static str {
    match frame {
        Frame::Get { .. } => "get",
        Frame::Put { .. } => "put",
        _ => "other",
    }
}

/// Span label for the ack a client received.
fn ack_status(ack: &Frame) -> &'static str {
    match ack {
        Frame::Ack { status: AckStatus::Ok, .. } => "ok",
        Frame::Ack { status: AckStatus::NotFound, .. } => "not_found",
        _ => "unavailable",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_file_roundtrip() {
        let text = "0 0 127.0.0.1:4000\n7 3 127.0.0.1:4007\n\n";
        let nodes = ServeClient::parse_addr_file(text).unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[1].server.0, 7);
        assert_eq!(nodes[1].dc, 3);
        assert_eq!(nodes[1].addr, "127.0.0.1:4007".parse().unwrap());
        assert!(ServeClient::parse_addr_file("nonsense").is_err());
        assert!(ServeClient::new(&nodes, 9, 0).is_err(), "unknown datacenter");
    }

    /// A one-node "datacenter" that answers every request `Unavailable`,
    /// echoing its op-ID, one connection at a time. Returns the node
    /// list to hand a client and a closure that stops the listener and
    /// yields how many requests it answered.
    fn refusing_node() -> (Vec<NodeInfo>, impl FnOnce() -> usize) {
        use std::sync::atomic::{AtomicBool, Ordering};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let server = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let mut answered = 0;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let mut conn = Conn::new(stream.unwrap());
                    // Serve until the client drops this connection to
                    // rotate; its next one is already in the backlog.
                    while let Ok(Some((_, op_id))) = conn.recv_envelope() {
                        let nack = Frame::Ack {
                            status: AckStatus::Unavailable,
                            seq: 0,
                            value: Vec::new(),
                        };
                        if conn.send_traced(&nack, op_id).is_err() {
                            break;
                        }
                        answered += 1;
                    }
                }
                answered
            }
        });
        let nodes = vec![NodeInfo { server: rfh_types::ServerId::new(0), dc: 0, addr }];
        let finish = move || {
            stop.store(true, Ordering::SeqCst);
            drop(TcpStream::connect(addr)); // wake the accept
            server.join().unwrap()
        };
        (nodes, finish)
    }

    #[test]
    fn a_refused_put_errors_after_its_tries_with_one_client_span() {
        let (nodes, finish) = refusing_node();
        let spans = Arc::new(SpanLog::new());
        let mut client = ServeClient::new(&nodes, 0, 0).unwrap();
        client.set_span_log(Arc::clone(&spans));
        let err = client.put_traced(1, 1, b"v", Some(77)).unwrap_err();
        assert!(err.to_string().contains(&format!("{MAX_TRIES} tries")), "{err}");
        drop(client);
        assert!(finish() >= MAX_TRIES, "every try must reach the node");
        let events = spans.events();
        assert_eq!(events.len(), 1, "one client span per op, not per try: {events:?}");
        assert_eq!(
            (events[0].op_id, events[0].role, events[0].status),
            (77, "client", "unavailable")
        );
    }

    #[test]
    fn a_refused_window_completes_unavailable_with_one_client_span_per_op() {
        let (nodes, finish) = refusing_node();
        let spans = Arc::new(SpanLog::new());
        let mut client = PipelinedClient::new(&nodes, 0, 0, 4).unwrap();
        client.set_span_log(Arc::clone(&spans));
        for key in 0..4u64 {
            assert!(client.submit(Frame::Get { key }, Some(key + 1)).unwrap().is_none());
        }
        let done = client.drain().unwrap();
        drop(client);
        finish();
        assert_eq!(done.len(), 4);
        for (i, op) in done.iter().enumerate() {
            assert_eq!(op.request, Frame::Get { key: i as u64 }, "completions keep window order");
            assert!(matches!(op.ack, Frame::Ack { status: AckStatus::Unavailable, .. }));
        }
        let mut traced: Vec<u64> = spans.events().iter().map(|e| e.op_id).collect();
        traced.sort_unstable();
        assert_eq!(traced, [1, 2, 3, 4], "one client span per op");
    }
}
