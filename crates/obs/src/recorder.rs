//! The recorder trait, its zero-cost null default, and the bounded
//! ring-buffer trace recorder.

use crate::event::DecisionEvent;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Sink for decision events.
///
/// Observation-only by construction: every method takes `&self` and
/// returns nothing, so a recorder can never feed state back into a run.
/// Instrumented code guards event assembly behind [`Recorder::enabled`]
/// so the disabled path costs one virtual call per decision site.
pub trait Recorder: Send + Sync {
    /// Whether this recorder wants events (gates event assembly).
    fn enabled(&self) -> bool {
        false
    }

    /// A policy proposed an action.
    fn decision(&self, _event: DecisionEvent) {}

    /// `policy`'s executor applied (or rejected) the oldest pending
    /// decision for `partition`, at eq. (1) cost `cost`. The label must
    /// match the one the policy stamped into the event: one recorder
    /// may serve several concurrently running policies (the comparison
    /// runner), and the label keeps each outcome on its own policy's
    /// events.
    fn outcome(&self, _policy: &'static str, _partition: u32, _applied: bool, _cost: f64) {}

    /// `policy`'s epoch finished; flush *its* decisions that never
    /// reached the executor (e.g. proposed but filtered upstream).
    /// Other policies sharing the recorder run their own epochs at
    /// their own pace, so their pending decisions stay untouched.
    fn end_epoch(&self, _policy: &'static str, _epoch: u64) {}
}

/// The do-nothing default. A `&NullRecorder` rvalue promotes to
/// `&'static`, so context builders can embed one without storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

#[derive(Debug, Default)]
struct TraceState {
    /// Decisions awaiting their executor outcome, in proposal order.
    pending: VecDeque<DecisionEvent>,
    /// Completed events, oldest first, bounded by `capacity`.
    ring: VecDeque<DecisionEvent>,
    /// Events evicted from the full ring.
    dropped: u64,
    /// Events ever completed (retained + dropped).
    total: u64,
}

/// Captures decision events into a bounded ring buffer.
///
/// Decisions arrive via [`Recorder::decision`] and are held pending
/// until the executor reports their [`Recorder::outcome`] (matched by
/// policy label and partition id, FIFO); completed events land in the
/// ring, evicting the oldest once `capacity` is reached. Interior
/// mutability via a mutex keeps the recorder `Sync`, so one instance
/// can be shared across the comparison runner's policy threads — the
/// policy label on every outcome and epoch flush keeps the four
/// interleaved policies from completing each other's events.
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    state: Mutex<TraceState>,
}

/// Default ring capacity: enough for the paper scenario's full run.
const DEFAULT_CAPACITY: usize = 1 << 16;

impl TraceRecorder {
    /// A recorder with the default ring capacity (65 536 events).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder retaining at most `capacity` completed events.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRecorder { capacity: capacity.max(1), state: Mutex::new(TraceState::default()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceState> {
        // A poisoned mutex only means another thread panicked mid-push;
        // the trace stays usable.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push_ring(state: &mut TraceState, capacity: usize, event: DecisionEvent) {
        if state.ring.len() == capacity {
            state.ring.pop_front();
            state.dropped += 1;
        }
        state.ring.push_back(event);
        state.total += 1;
    }

    /// Completed events currently retained, oldest first.
    pub fn events(&self) -> Vec<DecisionEvent> {
        self.lock().ring.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// Whether no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.lock().ring.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Events ever completed (retained + dropped).
    pub fn total(&self) -> u64 {
        self.lock().total
    }

    /// The retained events as JSONL, one event per line.
    pub fn to_jsonl(&self) -> String {
        let state = self.lock();
        let mut out = String::with_capacity(state.ring.len() * 160);
        for ev in &state.ring {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn decision(&self, event: DecisionEvent) {
        self.lock().pending.push_back(event);
    }

    fn outcome(&self, policy: &'static str, partition: u32, applied: bool, cost: f64) {
        let mut state = self.lock();
        // FIFO by (policy, partition): each policy's executor applies
        // its actions in proposal order, so the first pending event for
        // the pair is the one. Matching on the policy too keeps the
        // comparison runner's interleaved threads from completing each
        // other's events for the same partition.
        let Some(pos) =
            state.pending.iter().position(|e| e.policy == policy && e.partition == partition)
        else {
            return; // outcome for a decision nobody recorded
        };
        let mut event = state.pending.remove(pos).expect("position is in range");
        event.applied = Some(applied);
        event.cost = Some(cost);
        Self::push_ring(&mut state, self.capacity, event);
    }

    fn end_epoch(&self, policy: &'static str, _epoch: u64) {
        let mut state = self.lock();
        // Flush only the calling policy's unexecuted decisions (they
        // keep cost/applied = null). Other policies run their epochs at
        // their own pace on other threads; their still-pending decisions
        // must survive so their later outcomes can complete them.
        let mut i = 0;
        while i < state.pending.len() {
            if state.pending[i].policy == policy {
                let event = state.pending.remove(i).expect("index is in range");
                Self::push_ring(&mut state, self.capacity, event);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DecisionKind, Trigger};

    fn ev_for(policy: &'static str, partition: u32) -> DecisionEvent {
        DecisionEvent {
            epoch: 1,
            policy,
            kind: DecisionKind::Replicate,
            partition,
            source: None,
            target: Some(7),
            trigger: Trigger::TrafficHub,
            traffic: 30.0,
            q_avg: 10.0,
            threshold: 15.0,
            blocking: 0.01,
            unserved: 0.0,
            cost: None,
            applied: None,
        }
    }

    fn ev(partition: u32) -> DecisionEvent {
        ev_for("RFH", partition)
    }

    #[test]
    fn outcome_completes_matching_pending_event() {
        let rec = TraceRecorder::new();
        rec.decision(ev(3));
        rec.decision(ev(5));
        rec.outcome("RFH", 5, true, 12.5);
        assert_eq!(rec.len(), 1);
        let done = &rec.events()[0];
        assert_eq!(done.partition, 5);
        assert_eq!(done.applied, Some(true));
        assert_eq!(done.cost, Some(12.5));
        rec.end_epoch("RFH", 1);
        assert_eq!(rec.len(), 2, "unmatched decision flushed at epoch end");
        assert_eq!(rec.events()[1].applied, None);
    }

    #[test]
    fn outcome_only_matches_its_own_policy() {
        // Two concurrently running policies decide on the same
        // partition; each executor's outcome must land on its own
        // policy's event, whatever the interleaving.
        let rec = TraceRecorder::new();
        rec.decision(ev_for("RFH", 9));
        rec.decision(ev_for("Owner", 9));
        rec.outcome("Owner", 9, true, 7.0);
        rec.outcome("RFH", 9, false, 0.0);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            (events[0].policy, events[0].applied, events[0].cost),
            ("Owner", Some(true), Some(7.0))
        );
        assert_eq!(
            (events[1].policy, events[1].applied, events[1].cost),
            ("RFH", Some(false), Some(0.0))
        );
        // An outcome for a policy with nothing pending is dropped.
        rec.outcome("Random", 9, true, 1.0);
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn end_epoch_flushes_only_the_calling_policy() {
        // Policy threads reach their epoch boundaries at different
        // times; one policy's flush must not steal another's pending
        // decision mid-epoch (its outcome would then silently no-op).
        let rec = TraceRecorder::new();
        rec.decision(ev_for("RFH", 1));
        rec.decision(ev_for("Owner", 2));
        rec.end_epoch("RFH", 1);
        assert_eq!(rec.len(), 1, "only RFH's decision is flushed");
        assert_eq!(rec.events()[0].policy, "RFH");
        rec.outcome("Owner", 2, true, 3.0);
        assert_eq!(rec.len(), 2, "Owner's decision still completes");
        assert_eq!(rec.events()[1].applied, Some(true));
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let rec = TraceRecorder::with_capacity(2);
        for p in 0..5 {
            rec.decision(ev(p));
            rec.outcome("RFH", p, true, 1.0);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        assert_eq!(rec.total(), 5);
        let kept: Vec<u32> = rec.events().iter().map(|e| e.partition).collect();
        assert_eq!(kept, vec![3, 4], "oldest evicted first");
    }

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let rec = NullRecorder;
        assert!(!rec.enabled());
        rec.decision(ev(0));
        rec.outcome("RFH", 0, true, 1.0);
        rec.end_epoch("RFH", 0);
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let rec = TraceRecorder::new();
        rec.decision(ev(1));
        rec.outcome("RFH", 1, false, 0.0);
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.starts_with("{\"epoch\":1,"));
    }
}
