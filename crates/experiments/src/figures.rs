//! Per-figure experiment runners.
//!
//! Figs. 3–9 are rows of [`FIGURES`], all read from the one pair of
//! comparisons [`both_settings`] runs; Fig. 10 is its own run
//! ([`fig10`]). The run lengths follow the paper's x-axes:
//! 250 epochs under random query, 400 under flash crowd, 500 for the
//! failure/recovery experiment.

use crate::shapes::{self, ShapeCheck};
use rfh_core::PolicyKind;
use rfh_sim::{
    run_comparison, sim_seeded_plan, ComparisonResult, FaultAction, SimParams, SimResult,
    Simulation,
};
use rfh_types::{FlashCrowdConfig, Result, SimConfig};
use rfh_workload::{EventSchedule, Scenario};

/// Epochs plotted under the random-query setting (Figs. 3a–9a).
pub const RANDOM_EPOCHS: u64 = 250;
/// Epochs plotted under the flash-crowd setting (Figs. 3b–9b).
pub const FLASH_EPOCHS: u64 = 400;
/// Fig. 10 run length.
pub const FIG10_EPOCHS: u64 = 500;
/// Fig. 10: epoch of the mass failure ("30 servers are randomly removed
/// at epoch 290").
pub const FIG10_FAIL_EPOCH: u64 = 290;
/// Fig. 10: servers removed.
pub const FIG10_FAIL_SERVERS: u32 = 30;

/// The data behind Figs. 3–9: one seeded four-policy comparison under
/// random query and one under flash crowd. Every figure plots metrics
/// of these same two runs, so one pair serves all seven.
#[derive(Debug, Clone)]
pub struct FigureRun {
    /// Comparison under random query (panel (a)-style).
    pub random: ComparisonResult,
    /// Comparison under flash crowd (panel (b)-style).
    pub flash: ComparisonResult,
}

/// One of Figs. 3–9: what it plots and which of the paper's claims it
/// checks against a [`FigureRun`].
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Figure id, e.g. `"fig3"`.
    pub id: &'static str,
    /// Human caption from the paper.
    pub caption: &'static str,
    /// Metric series names (from `rfh_sim::Metrics`) the figure plots.
    pub metrics: &'static [&'static str],
    /// The figure's shape checks.
    pub check: fn(&FigureRun) -> Result<Vec<ShapeCheck>>,
}

/// Figs. 3–9, in paper order.
pub const FIGURES: [Figure; 7] = [
    Figure {
        id: "fig3",
        caption: "Replica utilization rate",
        metrics: &["utilization"],
        check: shapes::check_fig3,
    },
    Figure {
        id: "fig4",
        caption: "Replica number (total and average per partition)",
        metrics: &["replicas_total", "replicas_avg"],
        check: shapes::check_fig4,
    },
    Figure {
        id: "fig5",
        caption: "Replication cost (total and average per replica)",
        metrics: &["replication_cost", "replication_cost_avg"],
        check: shapes::check_fig5,
    },
    Figure {
        id: "fig6",
        caption: "Migration times (total and average per replica)",
        metrics: &["migrations_total", "migrations_avg"],
        check: shapes::check_fig6,
    },
    Figure {
        id: "fig7",
        caption: "Migration cost (total and average per replica)",
        metrics: &["migration_cost", "migration_cost_avg"],
        check: shapes::check_fig7,
    },
    Figure {
        id: "fig8",
        caption: "Load imbalance",
        metrics: &["load_imbalance"],
        check: shapes::check_fig8,
    },
    Figure {
        id: "fig9",
        caption: "Lookup path length",
        metrics: &["path_length"],
        check: shapes::check_fig9,
    },
];

/// Parameters shared by every figure run.
pub fn base_params(scenario: Scenario, epochs: u64, seed: u64) -> SimParams {
    SimParams {
        config: SimConfig::default(),
        scenario,
        policy: PolicyKind::Rfh, // replaced per policy by the runner
        epochs,
        seed,
        events: EventSchedule::new(),
        faults: rfh_sim::FaultPlan::default(),
        threads: 1,
    }
}

/// Run the two comparisons behind Figs. 3–9.
pub fn both_settings(seed: u64) -> Result<FigureRun> {
    let random = run_comparison(&base_params(Scenario::RandomEven, RANDOM_EPOCHS, seed))?;
    let flash = run_comparison(&base_params(
        Scenario::FlashCrowd(FlashCrowdConfig::default()),
        FLASH_EPOCHS,
        seed,
    ))?;
    Ok(FigureRun { random, flash })
}

/// Fig. 10: RFH node failure and recovery — 30 random servers fail at
/// epoch 290 of a 500-epoch random-query run; the replica count drops
/// sharply and recovers.
pub fn fig10(seed: u64) -> Result<SimResult> {
    let mut params = base_params(Scenario::RandomEven, FIG10_EPOCHS, seed);
    params.faults =
        sim_seeded_plan(seed).at(FIG10_FAIL_EPOCH, FaultAction::FailRandom(FIG10_FAIL_SERVERS));
    Simulation::new(params)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A faster configuration for tests (same structure, fewer epochs
    /// and partitions).
    fn quick(scenario: Scenario, epochs: u64) -> SimParams {
        let mut p = base_params(scenario, epochs, 5);
        p.config.partitions = 16;
        p
    }

    #[test]
    fn base_params_use_paper_defaults() {
        let p = base_params(Scenario::RandomEven, RANDOM_EPOCHS, 1);
        assert_eq!(p.config.partitions, 64);
        assert_eq!(p.epochs, 250);
        assert!(p.faults.is_empty());
    }

    #[test]
    fn quick_comparison_has_all_metrics_figures_need() {
        let cmp = run_comparison(&quick(Scenario::RandomEven, 10)).unwrap();
        for metric in FIGURES.iter().flat_map(|f| f.metrics) {
            for kind in PolicyKind::ALL {
                assert!(
                    cmp.of(kind).is_some_and(|r| r.metrics.series(metric).is_some()),
                    "{kind} missing {metric}"
                );
            }
        }
    }

    #[test]
    fn fig10_constants_match_paper() {
        assert_eq!(FIG10_FAIL_EPOCH, 290);
        assert_eq!(FIG10_FAIL_SERVERS, 30);
        assert_eq!(FIG10_EPOCHS, 500);
    }
}
