//! Per-phase wall-clock profiling of the epoch loop.

use std::time::Instant;

/// Fault injection, membership pruning and archive-restore retries.
pub const PHASE_EVENTS: &str = "events";
/// Query generation or trace replay.
pub const PHASE_WORKLOAD: &str = "workload";
/// Sparse-engine active-set construction (carry ∪ touched ∪ dirty).
pub const PHASE_SPARSE: &str = "sparse";
/// Placement-view render + traffic accounting + smoothing + Erlang-B.
pub const PHASE_TRAFFIC: &str = "traffic";
/// The policy's decision pass.
pub const PHASE_DECIDE: &str = "decide";
/// Applying the decided actions to the replica map.
pub const PHASE_APPLY: &str = "apply";
/// Control-plane report delivery over the WAN (distributed RFH).
pub const PHASE_NETWORK: &str = "network";
/// Snapshot assembly + metric recording.
pub const PHASE_METRICS: &str = "metrics";

/// Accumulated wall-clock for one named phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (one of the `PHASE_*` constants, or tool-defined).
    pub name: &'static str,
    /// Total time spent, nanoseconds.
    pub nanos: u64,
    /// Number of timed intervals.
    pub calls: u64,
}

/// Accumulates per-phase wall-clock time.
///
/// Disabled (the default for simulations), [`Profiler::start`] returns
/// `None` without reading the clock and [`Profiler::stop`] is a no-op —
/// the overhead is one branch per phase boundary.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    enabled: bool,
    phases: Vec<PhaseStat>,
}

impl Profiler {
    /// A profiler; pass `false` for the near-zero-overhead null mode.
    pub fn new(enabled: bool) -> Self {
        Profiler { enabled, phases: Vec::new() }
    }

    /// Whether intervals are being timed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a timing interval (`None` when disabled).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close an interval opened by [`Profiler::start`], crediting it to
    /// `name`.
    #[inline]
    pub fn stop(&mut self, name: &'static str, started: Option<Instant>) {
        if let Some(t0) = started {
            self.add(name, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Credit a pre-measured duration to `name` as one interval.
    pub fn add(&mut self, name: &'static str, nanos: u64) {
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.nanos += nanos;
                p.calls += 1;
            }
            None => self.phases.push(PhaseStat { name, nanos, calls: 1 }),
        }
    }

    /// Run `f`, crediting its wall-clock to `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = self.start();
        let out = f();
        self.stop(name, t0);
        out
    }

    /// Snapshot the accumulated phases.
    pub fn report(&self) -> ProfileReport {
        ProfileReport { phases: self.phases.clone() }
    }
}

/// A finished profile: phases in first-seen order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Per-phase totals.
    pub phases: Vec<PhaseStat>,
}

impl ProfileReport {
    /// Sum of all phase times, nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// The stat for one phase, if it was ever timed.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Whether nothing was timed.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The shared timing table: one row per phase with total ms, call
    /// count, mean µs per call and share of the profiled total.
    pub fn render(&self) -> String {
        let total = self.total_nanos().max(1) as f64;
        let width = self.phases.iter().map(|p| p.name.len()).max().unwrap_or(5).max(5);
        let mut out = format!(
            "{:width$}  {:>10}  {:>8}  {:>10}  {:>6}\n",
            "phase", "total ms", "calls", "mean us", "share"
        );
        for p in &self.phases {
            let ms = p.nanos as f64 / 1e6;
            let mean_us = p.nanos as f64 / 1e3 / p.calls.max(1) as f64;
            let share = 100.0 * p.nanos as f64 / total;
            out.push_str(&format!(
                "{:width$}  {ms:>10.3}  {:>8}  {mean_us:>10.2}  {share:>5.1}%\n",
                p.name, p.calls
            ));
        }
        out.push_str(&format!("{:width$}  {:>10.3}\n", "total", self.total_nanos() as f64 / 1e6));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_times_nothing() {
        let mut prof = Profiler::new(false);
        let t0 = prof.start();
        assert!(t0.is_none());
        prof.stop(PHASE_DECIDE, t0);
        let out = prof.time(PHASE_APPLY, || 21 * 2);
        assert_eq!(out, 42);
        assert!(prof.report().is_empty());
    }

    #[test]
    fn enabled_profiler_accumulates_per_phase() {
        let mut prof = Profiler::new(true);
        prof.add(PHASE_TRAFFIC, 1_500);
        prof.add(PHASE_TRAFFIC, 500);
        prof.add(PHASE_DECIDE, 1_000);
        let report = prof.report();
        assert_eq!(report.total_nanos(), 3_000);
        let traffic = report.phase(PHASE_TRAFFIC).unwrap();
        assert_eq!((traffic.nanos, traffic.calls), (2_000, 2));
    }

    #[test]
    fn render_lists_every_phase_and_total() {
        let mut prof = Profiler::new(true);
        prof.add(PHASE_WORKLOAD, 2_000_000);
        prof.add(PHASE_METRICS, 1_000_000);
        let table = prof.report().render();
        assert!(table.contains("workload"));
        assert!(table.contains("metrics"));
        assert!(table.lines().last().unwrap().starts_with("total"));
    }

    #[test]
    fn timed_closures_register_real_durations() {
        let mut prof = Profiler::new(true);
        prof.time(PHASE_EVENTS, || std::hint::black_box((0..1000).sum::<u64>()));
        let report = prof.report();
        assert_eq!(report.phase(PHASE_EVENTS).unwrap().calls, 1);
    }
}
