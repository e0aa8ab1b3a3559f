//! A placeholder for the retired scripted-event schedule.
//!
//! Failures and recoveries are `rfh_faults::FaultPlan` entries, injected
//! by the epoch pipeline. [`EventSchedule`] holds nothing and does
//! nothing; it is kept only so that code building `rfh_sim::SimParams`
//! by struct literal (the repo benchmark does) still compiles.

/// An empty schedule with no effect on any run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventSchedule;

impl EventSchedule {
    /// The empty schedule.
    pub fn new() -> Self {
        Self
    }
}
