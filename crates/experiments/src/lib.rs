//! # rfh-experiments
//!
//! The paper's evaluation (§III), experiment by experiment: each one
//! reruns its simulations and returns a text report with the same
//! series the paper plots (figures also persist CSVs). `rfh experiments
//! <name> [--seed N]` runs one of them through [`run`].
//!
//! | Item | Runner | Name |
//! |---|---|---|
//! | Table I | [`table1::render`] | `rfh table1` |
//! | Figs. 3–9 | [`figures::FIGURES`] over one [`figures::both_settings`] pair | `fig3` … `fig9` |
//! | Fig. 10 (failure & recovery) | [`figures::fig10`] | `fig10` |
//! | Everything above + claim summary | [`output::all_report`] | `all` |
//! | Design-choice ablations | [`ablations::report`] | `ablations` |
//! | 300 ms SLA attainment | [`sla::report`] | `sla` |
//! | Data loss under failure waves | [`availability::report`] | `availability` |
//! | Correlated vs uncorrelated vs gray faults | [`chaos::report`] | `chaos` |
//! | Failure-domain placement, planner budgets | [`domains::report`] | `domains` |
//! | 10 → 72 datacenters | [`scalability::report`] | `scalability` |
//! | Claims over 12 seeds | [`sweep::report`] | `sweep` |
//!
//! `rfh experiments all` regenerates every figure and writes the
//! per-figure CSVs under `results/`.

#![warn(missing_docs)]

pub mod ablations;
pub mod ascii;
pub mod availability;
pub mod chaos;
pub mod domains;
pub mod figures;
pub mod output;
pub mod scalability;
pub mod shapes;
pub mod sla;
pub mod sweep;
pub mod table1;

pub use figures::{Figure, FigureRun, FIG10_FAIL_EPOCH, FIG10_FAIL_SERVERS, FIGURES};

use rfh_sim::SimResult;
use rfh_stats::TimeSeries;
use rfh_types::{Result, RfhError};

/// Every experiment name [`run`] accepts.
pub const NAMES: [&str; 16] = [
    "all",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablations",
    "sla",
    "availability",
    "chaos",
    "domains",
    "scalability",
    "sweep",
];

/// Run the experiment `name` with `seed` and return its report. For
/// `sweep`, `seed` is the first of its [`sweep::SEEDS`] consecutive
/// seeds.
pub fn run(name: &str, seed: u64) -> Result<String> {
    match name {
        "all" => output::all_report(seed),
        "fig10" => output::fig10_report(seed),
        "ablations" => ablations::report(seed),
        "sla" => sla::report(seed),
        "availability" => availability::report(seed),
        "chaos" => chaos::report(seed),
        "domains" => domains::report(seed),
        "scalability" => scalability::report(seed),
        "sweep" => sweep::report(seed),
        _ => match FIGURES.iter().find(|f| f.id == name) {
            Some(fig) => output::figure_report(fig, seed),
            None => Err(RfhError::InvalidConfig {
                parameter: "experiment",
                reason: format!("unknown experiment {name:?}; one of {}", NAMES.join(" | ")),
            }),
        },
    }
}

/// A run's `metric` series, or an error naming the policy and metric.
pub fn series<'a>(run: &'a SimResult, metric: &str) -> Result<&'a TimeSeries> {
    run.metrics.series(metric).ok_or_else(|| {
        RfhError::Simulation(format!("{} run has no {metric} series", run.policy.name()))
    })
}

/// A run's steady-state `metric`: the mean of its final quarter, the
/// value the paper's text quotes.
pub fn steady(run: &SimResult, metric: &str) -> Result<f64> {
    let s = series(run, metric)?;
    Ok(s.mean_over(s.len() * 3 / 4, s.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_has_a_name() {
        for fig in &FIGURES {
            assert!(NAMES.contains(&fig.id), "{} missing from NAMES", fig.id);
        }
    }
}
