//! The harness's own span recorder for `--trace 1` runs.
//!
//! Spans are taken from outside the program, around the calls into it:
//! run → slice → op (kv: submit to ack of a sampled operation, carrying
//! the op-ID the program's own span log uses, so client, coordinate and
//! forward records join) or run → slice → step plus the profiler's
//! phases (sim). The buffer is allocated once; a full buffer drops and
//! counts. Everything is written at exit, never during the timed phase.

use rfh_obs::SpanEvent;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span was taken at.
    pub name: &'static str,
    /// 1-based id, the index into the buffer plus one.
    pub id: u32,
    /// Id of the span that caused this one.
    pub parent: u32,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made (0 while open).
    pub end_ns: u64,
    /// The program's op-ID for a sampled kv operation, else 0.
    pub op_id: u64,
}

/// Preallocated span buffer.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer holding at most `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(capacity), dropped: 0 }
    }

    /// Nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its id, or 0 if it was dropped.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
        op_id: u64,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { name, id, parent, start_ns, end_ns, op_id });
        id
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.now_ns();
        self.push(name, parent, now, 0, 0)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        if let Some(span) = id.checked_sub(1).and_then(|i| self.spans.get_mut(i as usize)) {
            span.end_ns = now;
        }
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans lost to a full buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (children may overlap, as pipelined ops do).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                children[s.parent as usize - 1].push((s.start_ns, s.end_ns.max(s.start_ns)));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (lo, hi) = (s.start_ns, s.end_ns.max(s.start_ns));
                let mut covered = 0u64;
                let mut reach = lo;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.clamp(reach, hi), b.clamp(reach, hi));
                    covered += b - a;
                    reach = reach.max(b);
                }
                (hi - lo) - covered
            })
            .collect()
    }

    /// One JSON object per line: the harness's spans with their self
    /// time, then the program's own sampled spans (which carry phase
    /// durations but no timestamps) keyed by the same op-ID.
    pub fn to_jsonl(&self, program: &[SpanEvent]) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::with_capacity(self.spans.len() * 96 + program.len() * 160);
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let _ = writeln!(
                out,
                "{{\"src\":\"harness\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{},\"op_id\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns, self_ns, s.op_id
            );
        }
        for e in program {
            let _ = writeln!(
                out,
                "{{\"src\":\"program\",\"name\":\"{}\",\"op_id\":{},\"node\":{},\"kind\":\"{}\",\
                 \"queue_us\":{},\"handle_us\":{},\"forward_us\":{},\"status\":\"{}\"}}",
                e.role, e.op_id, e.node, e.kind, e.queue_us, e.handle_us, e.forward_us, e.status
            );
        }
        let _ = writeln!(out, "{{\"src\":\"harness\",\"dropped\":{}}}", self.dropped);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut t = Tracer::new(8);
        let run = t.push("run", 0, 0, 100, 0);
        t.push("op", run, 10, 40, 1);
        t.push("op", run, 30, 60, 2); // overlaps the first by 10
        t.push("op", run, 90, 120, 3); // runs past the parent: clamped
        let selfs = t.self_times_ns();
        assert_eq!(selfs[0], 100 - (30 + 20 + 10));
        assert_eq!(selfs[1], 30);
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let mut t = Tracer::new(1);
        assert_eq!(t.push("a", 0, 0, 1, 0), 1);
        assert_eq!(t.push("b", 0, 0, 1, 0), 0);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.spans().len(), 1);
        let text = t.to_jsonl(&[]);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"dropped\":1"));
    }

    #[test]
    fn open_close_orders_time() {
        let mut t = Tracer::new(2);
        let id = t.open("run", 0);
        t.close(id);
        let s = &t.spans()[0];
        assert!(s.end_ns >= s.start_ns);
    }
}
