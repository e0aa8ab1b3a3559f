//! Run the four algorithms over identical workloads, in parallel.
//!
//! Each run is fully deterministic given `(params, seed)` and shares no
//! mutable state with the others — every policy thread owns its
//! `Simulation`, which owns its own `TrafficEngine` (route and
//! membership caches included), so running them on crossbeam scoped
//! threads is a pure wall-clock optimization — results are identical to
//! sequential execution (a test asserts this). The only shared state is
//! the immutable recorded workload trace.

use crate::pipeline::EngineMode;
use crate::simulation::{SimParams, SimResult, Simulation};
use rfh_core::PolicyKind;
use rfh_obs::Recorder;
use rfh_types::{Result, RfhError};
use rfh_workload::Trace;
use std::sync::Arc;

/// Results of the four policies over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonResult {
    /// One result per policy, in [`PolicyKind::ALL`] order.
    pub results: Vec<SimResult>,
}

impl ComparisonResult {
    /// The result of one policy, or `None` if it is absent (a
    /// [`run_comparison`] product always carries all four, but sliced
    /// or hand-built results may not).
    pub fn of(&self, kind: PolicyKind) -> Option<&SimResult> {
        self.results.iter().find(|r| r.policy == kind)
    }

    /// The result of one policy, or [`RfhError::Simulation`] if it is
    /// absent — for callers that would otherwise `unwrap` the
    /// [`Self::of`] option.
    pub fn require(&self, kind: PolicyKind) -> Result<&SimResult> {
        self.of(kind)
            .ok_or_else(|| RfhError::Simulation(format!("comparison has no {kind} result")))
    }
}

/// Observability options for [`run_comparison_observed`].
#[derive(Default)]
pub struct ObsOptions {
    /// Time each policy's epoch phases and attach the profile to its
    /// [`SimResult`].
    pub profile: bool,
    /// Shared decision-event sink; events from all four policies land
    /// in it (each tagged with its policy label).
    pub recorder: Option<Arc<dyn Recorder>>,
    /// Epoch engine for every policy's run. Defaults to
    /// [`EngineMode::Sparse`]; either mode yields bit-identical results.
    pub engine: EngineMode,
}

/// Run all four policies with identical parameters and workload.
///
/// `base` supplies everything but the policy; the workload trace is
/// recorded once and shared.
pub fn run_comparison(base: &SimParams) -> Result<ComparisonResult> {
    run_comparison_observed(base, &ObsOptions::default())
}

/// [`run_comparison`] with observability attached: optional per-policy
/// phase profiling and an optional shared decision-event recorder.
///
/// Observation-only: the recorder cannot feed state back and the
/// profiler only reads the clock, so the results are bit-identical to
/// a plain [`run_comparison`] (a test asserts this).
pub fn run_comparison_observed(base: &SimParams, obs: &ObsOptions) -> Result<ComparisonResult> {
    // Record the workload once, from the same constructor
    // Simulation::new uses internally (so the shapes cannot drift).
    let mut generator = base.workload_generator(rfh_topology::PAPER_DC_COUNT as u32);
    let trace = Arc::new(Trace::record(&mut generator, base.epochs));

    let outcome: std::result::Result<Vec<SimResult>, RfhError> =
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = PolicyKind::ALL
                .into_iter()
                .map(|kind| {
                    let params = SimParams { policy: kind, ..base.clone() };
                    let trace = Arc::clone(&trace);
                    let recorder = obs.recorder.clone();
                    let profile = obs.profile;
                    let engine = obs.engine;
                    scope.spawn(move |_| {
                        let mut sim = Simulation::new(params)?
                            .with_shared_trace(trace)
                            .with_profiling(profile)
                            .with_engine(engine);
                        if let Some(rec) = recorder {
                            sim = sim.with_recorder(rec);
                        }
                        sim.run()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| RfhError::Simulation("worker panicked".into()))?)
                .collect()
        })
        .map_err(|_| RfhError::Simulation("comparison scope panicked".into()))?;

    Ok(ComparisonResult { results: outcome? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_types::SimConfig;
    use rfh_workload::{EventSchedule, Scenario};

    fn base() -> SimParams {
        SimParams {
            config: SimConfig {
                partitions: 16,
                replica_capacity_mean: 5.0,
                ..SimConfig::default()
            },
            scenario: Scenario::RandomEven,
            policy: PolicyKind::Rfh, // overridden per run
            epochs: 30,
            seed: 11,
            events: EventSchedule::new(),
            faults: crate::FaultPlan::default(),
            threads: 1,
        }
    }

    #[test]
    fn comparison_runs_all_four() {
        let cmp = run_comparison(&base()).unwrap();
        assert_eq!(cmp.results.len(), 4);
        for kind in PolicyKind::ALL {
            let r = cmp.of(kind).expect("comparison carries every policy");
            assert_eq!(r.policy, kind);
            assert_eq!(r.metrics.epochs(), 30);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let b = base();
        let parallel = run_comparison(&b).unwrap();
        for kind in PolicyKind::ALL {
            let params = SimParams { policy: kind, ..b.clone() };
            let sequential = Simulation::new(params).unwrap().run().unwrap();
            let parallel = parallel.of(kind).expect("comparison carries every policy");
            assert_eq!(&sequential, parallel, "{kind}");
        }
    }

    #[test]
    fn policies_actually_differ() {
        let cmp = run_comparison(&base()).unwrap();
        let series: Vec<&[f64]> = PolicyKind::ALL
            .iter()
            .map(|&k| cmp.of(k).unwrap().metrics.series("replicas_total").unwrap().values())
            .collect();
        // At least the random baseline should diverge from RFH.
        assert_ne!(series[2], series[3], "Random vs RFH must differ");
    }
}
