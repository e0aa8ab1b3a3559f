//! The coordinator: the one rule by which a node serves a client `Get`
//! or `Put` (RFH §II-B), written once and driven by the data plane.
//!
//! A [`Coordinator`] is a sans-IO state machine for one client request.
//! Its inputs are the request itself ([`serve_frame`]), each forward's
//! outcome ([`Coordinator::forwarded`]) and a fired defer timer
//! ([`Coordinator::attempt`]); each input answers with a [`Step`]:
//! forwards to send, an instant to be woken at, or the final reply. It
//! reads routes, route epochs and alive flags from [`Shared`], reads the
//! local store, and buffers local replica writes on the driver's
//! [`TurnCommits`] — but it owns no socket, thread or timer, and every
//! decision uses the `now` its driver passes in. The epoll reactor
//! turns steps into peer-channel tickets and timer-wheel entries, and
//! the unit tests below into nothing at all.
//!
//! ## Writes without a lock
//!
//! No lock is held across a peer round-trip or a transfer's copy. A put
//! validates optimistically against its partition's **route epoch**
//! (see `Shared::route_epochs`): it snapshots an even epoch, writes
//! every live replica of the snapshotted route (the local store
//! directly, remote ones by forward), and acks only if the epoch is
//! still exactly that value once every outcome is in. The control loop
//! flips the epoch odd before copying a partition and settles it at the
//! next even value when it republishes the route, so any write racing a
//! transfer fails validation and restarts against the new route —
//! idempotent, because replicas keep the highest seq per key. An odd
//! epoch at snapshot time defers the put by [`DEFER_RETRY`] instead of
//! writing into a moving route; that wait is the request's `queue`
//! phase. After [`MAX_RESTARTS`] restarts, or past [`PUT_DEADLINE`], the
//! put answers `Unavailable` and the client retries idempotently.
//!
//! An ack means the write landed on every live replica of the route: a
//! live replica that fails the write refuses the ack; a replica that
//! died mid-write is the control loop's to repair, like one dead at
//! write time; no landed replica at all is `Unavailable`. On a durable
//! cluster the driver commits the turn's buffered writes before any
//! reply of the turn reaches a socket, so a replica's `Ok` to a forward
//! also means "on disk per policy".
//!
//! Gets never validate: transfers only ever *add* data and routes are
//! republished after the copy, so both the pre- and post-flip replica
//! sets can serve an authoritative read. A get answers from the local
//! replica when there is one, else walks the route in holder order,
//! skipping dead replicas and moving on from a failed forward.

use crate::cluster::Shared;
use crate::store::{partition_of, TurnCommits};
use crate::telemetry::{PhaseTimings, ReqKind};
use crate::wire::{AckStatus, Frame};
use rfh_obs::SpanEvent;
use rfh_types::{DatacenterId, PartitionId, ServerId};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry delay for a put that found its partition mid-transfer.
const DEFER_RETRY: Duration = Duration::from_millis(1);

/// Hard deadline on one put, defers and restarts included. Transfers
/// settle in milliseconds; a put still unvalidated after this long
/// answers Unavailable and lets the client retry idempotently.
const PUT_DEADLINE: Duration = Duration::from_secs(5);

/// Route-conflict restarts before giving up with Unavailable.
const MAX_RESTARTS: u32 = 32;

/// What a driver does next for one request.
#[derive(Debug)]
pub(crate) enum Step {
    /// Send this one frame to each of these replicas and feed every
    /// outcome back through [`Coordinator::forwarded`]. Every replica of
    /// a put gets the same `ForwardPut` — key, seq, origin datacenter and
    /// value — so the coordinator builds it once per put, shares it, and
    /// the reactor encodes it straight onto each peer channel.
    Forward(Arc<Frame>, Vec<ServerId>),
    /// Outcomes are still outstanding: nothing to do until one arrives.
    Wait,
    /// Call [`Coordinator::attempt`] once this instant has passed.
    Defer(Instant),
    /// The request is answered: send this reply. Its ack is already
    /// counted and its telemetry recorded.
    Reply(Frame),
}

/// One served request's identity and phase clock: what the telemetry
/// tail records about it.
struct Request {
    node: usize,
    kind: ReqKind,
    op_id: Option<u64>,
    t0: Instant,
    /// Queue and forward time so far; the handle phase is the rest.
    phases: PhaseTimings,
}

impl Request {
    /// Fold the phase split into the node's histograms and, when the
    /// request was sampled, append its span to the chain.
    fn record(&self, shared: &Shared, reply: &Frame, now: Instant) {
        let total_us = now.saturating_duration_since(self.t0).as_micros() as f64;
        let timings = PhaseTimings {
            handle_us: (total_us - self.phases.queue_us - self.phases.forward_us).max(0.0),
            ..self.phases
        };
        if let Some(tel) = shared.telemetry.node(self.node) {
            tel.record(self.kind, timings);
        }
        if let Some(id) = self.op_id {
            let role = match self.kind {
                ReqKind::Get | ReqKind::Put => "coordinate",
                ReqKind::ForwardGet | ReqKind::ForwardPut => "forward",
            };
            let status = match reply {
                Frame::Ack { status: AckStatus::Ok, .. } => "ok",
                Frame::Ack { status: AckStatus::NotFound, .. } => "not_found",
                _ => "unavailable",
            };
            shared.telemetry.spans().record(SpanEvent {
                op_id: id,
                role,
                node: self.node as i64,
                dc: shared.dc_of[self.node],
                kind: self.kind.as_str(),
                queue_us: timings.queue_us,
                handle_us: timings.handle_us,
                forward_us: timings.forward_us,
                status,
            });
        }
    }
}

/// Serve one inbound frame on `node` at `now`. A client `Get`/`Put`
/// starts a [`Coordinator`], returned with its first step. Forwarded
/// requests touch only the local store and are answered at once — the
/// coordinator already charged `q_ijt` at the origin datacenter — and
/// a forwarded put is only buffered on `turn`, which the driver commits
/// before sending the reply.
pub(crate) fn serve_frame(
    node: usize,
    frame: Frame,
    op_id: Option<u64>,
    shared: &Shared,
    turn: &mut TurnCommits,
    now: Instant,
) -> (Option<Coordinator>, Step) {
    let request = |kind| Request { node, kind, op_id, t0: now, phases: PhaseTimings::default() };
    let (req, reply) = match frame {
        Frame::Get { key } => {
            return Coordinator::start(shared, turn, request(ReqKind::Get), key, None, now);
        }
        Frame::Put { key, seq, value } => {
            let put = Some((seq, value));
            return Coordinator::start(shared, turn, request(ReqKind::Put), key, put, now);
        }
        Frame::ForwardGet { key, origin_dc: _ } => {
            (request(ReqKind::ForwardGet), local_get(shared, node, key))
        }
        Frame::ForwardPut { key, seq, origin_dc: _, value } => {
            // An older seq losing LWW is still success: the store
            // holds a version at least as new as the write.
            turn.put(&shared.stores, node, key, seq, &value);
            (request(ReqKind::ForwardPut), ack(AckStatus::Ok, seq))
        }
        // An unsolicited ack is a protocol violation; answer with
        // Unavailable rather than dropping the connection.
        Frame::Ack { .. } => return (None, Step::Reply(ack(AckStatus::Unavailable, 0))),
    };
    // Served synchronously: the handle phase is the store work just
    // done, so it is timed here rather than from an input.
    req.record(shared, &reply, Instant::now());
    (None, Step::Reply(reply))
}

fn ack(status: AckStatus, seq: u64) -> Frame {
    Frame::Ack { status, seq, value: Vec::new() }
}

fn local_get(shared: &Shared, node: usize, key: u64) -> Frame {
    match shared.stores[node].get(key) {
        Some(v) => Frame::Ack { status: AckStatus::Ok, seq: v.seq, value: v.value },
        None => ack(AckStatus::NotFound, 0),
    }
}

fn count_ack(shared: &Shared, ack: &Frame) {
    if let Frame::Ack { status, .. } = ack {
        let counter = match status {
            AckStatus::Ok => &shared.counters.acks_ok,
            AckStatus::NotFound => &shared.counters.acks_not_found,
            AckStatus::Unavailable => &shared.counters.acks_unavailable,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One client request being coordinated.
pub(crate) struct Coordinator {
    req: Request,
    key: u64,
    p: PartitionId,
    work: Work,
}

enum Work {
    /// Replicas not yet tried, the coordinator's own first.
    Get(VecDeque<ServerId>),
    Put(PutWork),
}

struct PutWork {
    seq: u64,
    /// The put as every remote replica of every attempt receives it,
    /// holding the request's value: the one copy the coordinator keeps.
    fwd: Arc<Frame>,
    deadline: Instant,
    /// The even route epoch the current attempt snapshotted.
    epoch: u64,
    /// Remote outcomes the current attempt still awaits.
    outstanding: usize,
    landed: usize,
    failed_live: bool,
    restarts: u32,
    /// Set while deferred behind an odd epoch; the wait lands in the
    /// queue phase when the attempt resumes.
    deferred_at: Option<Instant>,
}

impl Coordinator {
    /// The prologue every client request pays — `q_ijt` at the
    /// coordinator's datacenter, the request counter, the partition hit
    /// — then the first step: a get's first replica, a put's first
    /// attempt.
    fn start(
        shared: &Shared,
        turn: &mut TurnCommits,
        req: Request,
        key: u64,
        put: Option<(u64, Vec<u8>)>,
        now: Instant,
    ) -> (Option<Coordinator>, Step) {
        let p = partition_of(key, shared.partitions);
        shared.load.add(p, DatacenterId::new(shared.dc_of[req.node]), 1);
        if let Some(tel) = shared.telemetry.node(req.node) {
            tel.hit(p);
        }
        let work = match put {
            None => {
                shared.counters.gets.fetch_add(1, Ordering::Relaxed);
                let me = ServerId::new(req.node as u32);
                let mut candidates = VecDeque::from(shared.route(p));
                if let Some(i) = candidates.iter().position(|&r| r == me) {
                    candidates.remove(i);
                    candidates.push_front(me);
                }
                Work::Get(candidates)
            }
            Some((seq, value)) => {
                shared.counters.puts.fetch_add(1, Ordering::Relaxed);
                let origin_dc = shared.dc_of[req.node];
                Work::Put(PutWork {
                    seq,
                    fwd: Arc::new(Frame::ForwardPut { key, seq, origin_dc, value }),
                    deadline: now + PUT_DEADLINE,
                    epoch: 0,
                    outstanding: 0,
                    landed: 0,
                    failed_live: false,
                    restarts: 0,
                    deferred_at: None,
                })
            }
        };
        let mut c = Coordinator { req, key, p, work };
        let step = match c.work {
            Work::Get(_) => c.next_replica(shared, now),
            Work::Put(_) => c.attempt(shared, turn, now),
        };
        (Some(c), step)
    }

    /// One forward's outcome: the replica's ack, or `None` when the
    /// forward failed (no connection, a broken one, a peer timeout).
    /// `rtt` is the round-trip the driver timed; it lands in the
    /// forward phase.
    pub fn forwarded(
        &mut self,
        shared: &Shared,
        turn: &mut TurnCommits,
        target: ServerId,
        ack: Option<Frame>,
        rtt: Duration,
        now: Instant,
    ) -> Step {
        self.req.phases.forward_us += rtt.as_micros() as f64;
        let Work::Put(w) = &mut self.work else {
            // Any ack from a replica answers a get; a failed forward
            // moves on to the next replica.
            return match ack {
                Some(ack) => self.reply(shared, ack, now),
                None => self.next_replica(shared, now),
            };
        };
        w.outstanding -= 1;
        if matches!(ack, Some(Frame::Ack { status: AckStatus::Ok, .. })) {
            w.landed += 1;
        } else if shared.is_alive(target.index()) {
            // A *live* replica failed the write: the all-live-replicas
            // guarantee is broken. One that died mid-write is treated
            // like one dead at write time.
            w.failed_live = true;
        }
        if w.outstanding > 0 {
            return Step::Wait;
        }
        self.finish_attempt(shared, turn, now)
    }

    /// Begin (or resume, when its defer timer fires) one put attempt:
    /// snapshot an even route epoch, write the local replica, and fan
    /// forwards out to every other live replica. An odd epoch defers
    /// instead of writing into a partition mid-transfer.
    pub fn attempt(&mut self, shared: &Shared, turn: &mut TurnCommits, now: Instant) -> Step {
        let Work::Put(w) = &mut self.work else { unreachable!("only a put defers or restarts") };
        if let Some(t) = w.deferred_at.take() {
            self.req.phases.queue_us += now.saturating_duration_since(t).as_micros() as f64;
        }
        let epoch = shared.route_epoch(self.p);
        if epoch & 1 == 1 {
            if now <= w.deadline {
                w.deferred_at = Some(now);
                return Step::Defer(now + DEFER_RETRY);
            }
            let seq = w.seq;
            return self.reply(shared, ack(AckStatus::Unavailable, seq), now);
        }
        let (node, me) = (self.req.node, ServerId::new(self.req.node as u32));
        (w.epoch, w.landed, w.failed_live) = (epoch, 0, false);
        let mut targets = shared.route(self.p);
        let mut local = false;
        targets.retain(|&r| {
            if !shared.is_alive(r.index()) {
                return false; // dead at write time: repaired by the control loop
            }
            local |= r == me;
            r != me
        });
        if local {
            let Frame::ForwardPut { value, .. } = &*w.fwd else { unreachable!("built as a put") };
            turn.put(&shared.stores, node, self.key, w.seq, value);
            w.landed += 1;
        }
        w.outstanding = targets.len();
        if targets.is_empty() {
            return self.finish_attempt(shared, turn, now);
        }
        shared.counters.forwards.fetch_add(targets.len() as u64, Ordering::Relaxed);
        Step::Forward(Arc::clone(&w.fwd), targets)
    }

    /// Every replica of the attempt has resolved: ack, refuse, or
    /// restart against a changed route.
    fn finish_attempt(&mut self, shared: &Shared, turn: &mut TurnCommits, now: Instant) -> Step {
        let Work::Put(w) = &mut self.work else { unreachable!("only a put attempts") };
        let status = if w.failed_live || w.landed == 0 {
            AckStatus::Unavailable
        } else if shared.route_epoch(self.p) == w.epoch {
            // No transfer overlapped the write: every live replica of
            // the published route holds it. Safe to acknowledge.
            AckStatus::Ok
        } else if w.restarts >= MAX_RESTARTS || now > w.deadline {
            AckStatus::Unavailable
        } else {
            // The route changed under the write. Replicas that landed
            // keep the value harmlessly (LWW); restart on the new route.
            w.restarts += 1;
            return self.attempt(shared, turn, now);
        };
        let seq = w.seq;
        self.reply(shared, ack(status, seq), now)
    }

    /// Walk a get's candidates until one can answer: the local store
    /// answers at once, a live remote replica is forwarded to, and an
    /// exhausted list is Unavailable.
    fn next_replica(&mut self, shared: &Shared, now: Instant) -> Step {
        let Work::Get(candidates) = &mut self.work else { unreachable!("only a get walks") };
        let node = self.req.node;
        while let Some(r) = candidates.pop_front() {
            if !shared.is_alive(r.index()) {
                continue;
            }
            if r.index() == node {
                let reply = local_get(shared, node, self.key);
                return self.reply(shared, reply, now);
            }
            shared.counters.forwards.fetch_add(1, Ordering::Relaxed);
            let origin_dc = shared.dc_of[node];
            return Step::Forward(
                Arc::new(Frame::ForwardGet { key: self.key, origin_dc }),
                vec![r],
            );
        }
        self.reply(shared, ack(AckStatus::Unavailable, 0), now)
    }

    /// The tail every coordinated reply takes: count the ack, record
    /// the request's telemetry, hand the reply to the driver.
    fn reply(&mut self, shared: &Shared, reply: Frame, now: Instant) -> Step {
        count_ack(shared, &reply);
        self.req.record(shared, &reply, now);
        Step::Reply(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::control_plane;
    use crate::config::ClusterConfig;
    use crate::store::NodeStore;
    use rfh_faults::FaultPlan;

    /// A node outside the test route: every replica is remote to it.
    const OUTSIDER: usize = 0;

    /// The data plane's shared state with memory stores and no socket
    /// (a 20-node cluster), and a key whose partition is routed to
    /// nodes 1, 2 and 3, holder first.
    fn shared() -> (Shared, u64, PartitionId, Vec<ServerId>) {
        let cfg = ClusterConfig { servers_per_rack: 1, partitions: 16, ..ClusterConfig::default() };
        let pipeline = control_plane(&cfg, &FaultPlan::default()).unwrap();
        let n = pipeline.topology().server_count();
        let stores = (0..n).map(|_| NodeStore::new()).collect();
        let shared = Shared::new(true, &pipeline, stores, vec!["127.0.0.1:1".parse().unwrap(); n]);
        let (key, p) = (42, partition_of(42, shared.partitions));
        let route: Vec<ServerId> = (1..=3).map(ServerId::new).collect();
        shared.routes.write().unwrap()[p.index()] = route.clone();
        (shared, key, p, route)
    }

    fn put(node: usize, key: u64, seq: u64, shared: &Shared, now: Instant) -> (Coordinator, Step) {
        let frame = Frame::Put { key, seq, value: b"v".to_vec() };
        let (c, step) = serve_frame(node, frame, Some(9), shared, &mut TurnCommits::default(), now);
        (c.expect("a put is coordinated"), step)
    }

    fn targets(step: &Step) -> Vec<ServerId> {
        match step {
            Step::Forward(_, to) => to.clone(),
            other => panic!("expected forwards, got {other:?}"),
        }
    }

    fn status(step: &Step) -> AckStatus {
        match step {
            Step::Reply(Frame::Ack { status, .. }) => *status,
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    /// Feed an Ok ack (or, with `ok == false`, a failure) for every
    /// target; returns the step after the last.
    fn resolve_all(
        c: &mut Coordinator,
        shared: &Shared,
        to: &[ServerId],
        ok: bool,
        now: Instant,
    ) -> Step {
        let mut turn = TurnCommits::default();
        let mut last = Step::Wait;
        for (i, &r) in to.iter().enumerate() {
            assert!(matches!(last, Step::Wait), "outcome {i} of {}: {last:?}", to.len());
            let ack = ok.then(|| ack(AckStatus::Ok, 1));
            last = c.forwarded(shared, &mut turn, r, ack, Duration::ZERO, now);
        }
        last
    }

    #[test]
    fn an_odd_epoch_defers_and_the_wait_lands_in_queue_us() {
        let (shared, key, p, route) = shared();
        let t0 = Instant::now();
        shared.begin_route_change(p);
        let (mut c, step) = put(OUTSIDER, key, 1, &shared, t0);
        assert!(matches!(step, Step::Defer(t) if t == t0 + DEFER_RETRY), "{step:?}");

        // Still mid-transfer when the timer fires: defer again.
        let mut turn = TurnCommits::default();
        let t1 = t0 + Duration::from_millis(3);
        assert!(matches!(c.attempt(&shared, &mut turn, t1), Step::Defer(_)));
        shared.end_route_change(p);
        let t2 = t0 + Duration::from_millis(5);
        let step = c.attempt(&shared, &mut turn, t2);
        assert_eq!(targets(&step), route, "the settled route is written, every replica remote");
        assert_eq!(status(&resolve_all(&mut c, &shared, &route, true, t2)), AckStatus::Ok);

        let span = shared.telemetry.spans().events().pop().expect("a sampled put records a span");
        assert_eq!((span.role, span.queue_us, span.status), ("coordinate", 5_000.0, "ok"));
        assert_eq!(shared.counters.puts.load(Ordering::Relaxed), 1);
        assert_eq!(shared.counters.forwards.load(Ordering::Relaxed), route.len() as u64);
    }

    #[test]
    fn a_route_change_between_fan_out_and_the_last_outcome_restarts_until_max_restarts() {
        let (shared, key, p, route) = shared();
        let now = Instant::now();
        let (mut c, mut step) = put(OUTSIDER, key, 1, &shared, now);
        for restart in 0..=MAX_RESTARTS {
            let to = targets(&step);
            let (last, rest) = to.split_last().unwrap();
            assert!(matches!(resolve_all(&mut c, &shared, rest, true, now), Step::Wait));
            // A transfer publishes before the last replica answers.
            shared.begin_route_change(p);
            shared.end_route_change(p);
            step = resolve_all(&mut c, &shared, &[*last], true, now);
            if restart < MAX_RESTARTS {
                assert_eq!(targets(&step), route, "restart {restart} rewrites every live replica");
            }
        }
        assert_eq!(status(&step), AckStatus::Unavailable, "restarts are bounded");
        assert_eq!(shared.counters.acks_unavailable.load(Ordering::Relaxed), 1);

        // Left alone, the same put acks on its first attempt.
        let (mut c, step) = put(OUTSIDER, key, 2, &shared, now);
        assert_eq!(
            status(&resolve_all(&mut c, &shared, &targets(&step), true, now)),
            AckStatus::Ok
        );
    }

    #[test]
    fn every_replica_and_every_attempt_of_a_put_share_one_forward_frame() {
        let (shared, key, p, route) = shared();
        let now = Instant::now();
        let (mut c, step) = put(OUTSIDER, key, 1, &shared, now);
        let Step::Forward(first, to) = &step else { panic!("expected forwards, got {step:?}") };
        let origin_dc = shared.dc_of[OUTSIDER];
        assert_eq!(**first, Frame::ForwardPut { key, seq: 1, origin_dc, value: b"v".to_vec() });
        assert_eq!(*to, route);

        // A transfer publishes mid-write: the restart resends that frame.
        shared.begin_route_change(p);
        shared.end_route_change(p);
        let step = resolve_all(&mut c, &shared, to, true, now);
        let Step::Forward(again, _) = &step else { panic!("expected a restart, got {step:?}") };
        assert!(Arc::ptr_eq(first, again), "one frame per put, not per attempt");
    }

    #[test]
    fn the_deadline_answers_unavailable() {
        let (shared, key, p, _) = shared();
        let t0 = Instant::now();
        let mut turn = TurnCommits::default();

        // Deferred behind a transfer that never settles.
        shared.begin_route_change(p);
        let (mut c, step) = put(OUTSIDER, key, 1, &shared, t0);
        assert!(matches!(step, Step::Defer(_)));
        let late = t0 + PUT_DEADLINE + Duration::from_millis(1);
        assert_eq!(status(&c.attempt(&shared, &mut turn, late)), AckStatus::Unavailable);
        shared.end_route_change(p);

        // A route change whose restart would start past the deadline.
        let (mut c, step) = put(OUTSIDER, key, 2, &shared, t0);
        shared.end_route_change(p);
        let step = resolve_all(&mut c, &shared, &targets(&step), true, late);
        assert_eq!(status(&step), AckStatus::Unavailable);
    }

    #[test]
    fn a_failed_live_replica_refuses_the_ack_but_one_that_died_mid_write_does_not() {
        let (shared, key, _, route) = shared();
        let now = Instant::now();
        let mut turn = TurnCommits::default();
        // The coordinator is the holder: its own copy lands locally.
        let (mut c, step) = put(route[0].index(), key, 1, &shared, now);
        let to = targets(&step);
        assert_eq!(to, route[1..], "the local replica is written, not forwarded");
        assert_eq!(shared.stores[route[0].index()].get(key).map(|v| v.seq), Some(1));

        assert!(matches!(
            c.forwarded(&shared, &mut turn, to[0], None, Duration::ZERO, now),
            Step::Wait
        ));
        let step = resolve_all(&mut c, &shared, &to[1..], true, now);
        assert_eq!(status(&step), AckStatus::Unavailable, "a live replica missed the write");

        let (mut c, step) = put(route[0].index(), key, 2, &shared, now);
        let to = targets(&step);
        shared.alive[to[0].index()].store(false, Ordering::Release);
        assert!(matches!(
            c.forwarded(&shared, &mut turn, to[0], None, Duration::ZERO, now),
            Step::Wait
        ));
        let step = resolve_all(&mut c, &shared, &to[1..], true, now);
        assert_eq!(
            status(&step),
            AckStatus::Ok,
            "the dead replica is the control loop's to repair"
        );
    }

    #[test]
    fn zero_landed_replicas_is_unavailable() {
        let (shared, key, _, route) = shared();
        let now = Instant::now();
        let (mut c, step) = put(OUTSIDER, key, 1, &shared, now);
        // Every replica dies mid-write: none is live and failed, and
        // none landed.
        for r in &route {
            shared.alive[r.index()].store(false, Ordering::Release);
        }
        assert_eq!(
            status(&resolve_all(&mut c, &shared, &targets(&step), false, now)),
            AckStatus::Unavailable
        );

        // Dead at write time: nothing to forward, nothing landed.
        let (_, step) = put(OUTSIDER, key, 2, &shared, now);
        assert_eq!(status(&step), AckStatus::Unavailable);
    }

    #[test]
    fn a_get_tries_the_local_replica_first_then_skips_dead_and_failing_ones() {
        let (shared, key, _, route) = shared();
        let now = Instant::now();
        let mut turn = TurnCommits::default();
        let get = |node: usize, turn: &mut TurnCommits| {
            serve_frame(node, Frame::Get { key }, None, &shared, turn, now)
        };

        // A non-holder replica answers from its own store, forwarding
        // nothing — although the holder comes first in the route.
        let local = route[2].index();
        shared.stores[local].put(key, 4, b"mine");
        let (_, step) = get(local, &mut turn);
        assert!(matches!(step, Step::Reply(Frame::Ack { status: AckStatus::Ok, seq: 4, .. })));
        assert_eq!(shared.counters.forwards.load(Ordering::Relaxed), 0);

        // Off the route: the dead holder is skipped, the failing second
        // replica moved past, and the third one's ack is the answer.
        shared.alive[route[0].index()].store(false, Ordering::Release);
        let (c, step) = get(OUTSIDER, &mut turn);
        let mut c = c.expect("a get is coordinated");
        assert_eq!(targets(&step), [route[1]]);
        let step = c.forwarded(&shared, &mut turn, route[1], None, Duration::ZERO, now);
        assert_eq!(targets(&step), [route[2]]);
        let found = Frame::Ack { status: AckStatus::Ok, seq: 4, value: b"mine".to_vec() };
        let step =
            c.forwarded(&shared, &mut turn, route[2], Some(found.clone()), Duration::ZERO, now);
        assert!(matches!(step, Step::Reply(reply) if reply == found));

        // Every candidate failed: Unavailable.
        let (c, step) = get(OUTSIDER, &mut turn);
        let mut c = c.unwrap();
        let step = c.forwarded(&shared, &mut turn, targets(&step)[0], None, Duration::ZERO, now);
        let step = c.forwarded(&shared, &mut turn, targets(&step)[0], None, Duration::ZERO, now);
        assert_eq!(status(&step), AckStatus::Unavailable);
    }

    #[test]
    fn a_forward_put_with_an_older_seq_acks_ok() {
        let (shared, key, ..) = shared();
        shared.stores[3].put(key, 5, b"new");
        let mut turn = TurnCommits::default();
        let stale = Frame::ForwardPut { key, seq: 3, origin_dc: 0, value: b"old".to_vec() };
        let (c, step) = serve_frame(3, stale, None, &shared, &mut turn, Instant::now());
        assert!(c.is_none(), "a forward is answered at once");
        assert!(matches!(step, Step::Reply(Frame::Ack { status: AckStatus::Ok, seq: 3, .. })));
        assert_eq!(shared.stores[3].get(key).map(|v| v.seq), Some(5), "LWW kept the newer write");
        assert_eq!(
            shared.counters.acks_ok.load(Ordering::Relaxed),
            0,
            "replica acks are not counted"
        );
    }
}
