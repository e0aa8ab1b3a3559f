//! CSV rendering of simulation results.

use crate::runner::ComparisonResult;
use crate::simulation::SimResult;
use rfh_core::PolicyKind;
use rfh_stats::{timeseries::to_csv, TimeSeries};
use rfh_types::Result;
use std::path::Path;

/// CSV of one metric across the four policies, one column per policy.
///
/// Header: `epoch,Request,Owner,Random,RFH`.
pub fn comparison_csv(cmp: &ComparisonResult, metric: &str) -> String {
    let mut renamed: Vec<TimeSeries> = Vec::new();
    for kind in PolicyKind::ALL {
        let Some(r) = cmp.of(kind) else { continue };
        if let Some(series) = r.metrics.series(metric) {
            let mut s = TimeSeries::with_capacity(kind.name(), series.len());
            for &v in series.values() {
                s.push(v);
            }
            renamed.push(s);
        }
    }
    let refs: Vec<&TimeSeries> = renamed.iter().collect();
    to_csv(&refs)
}

/// CSV of every metric of one run, one column per metric.
pub fn run_csv(result: &SimResult) -> String {
    let refs: Vec<&TimeSeries> = result.metrics.all_series().iter().collect();
    to_csv(&refs)
}

/// The per-policy phase budgets of a profiled comparison: one timing
/// table per policy that carries a profile (empty string when the
/// comparison ran unprofiled).
pub fn profile_table(cmp: &ComparisonResult) -> String {
    let mut out = String::new();
    for kind in PolicyKind::ALL {
        let Some(r) = cmp.of(kind) else { continue };
        let Some(profile) = &r.profile else { continue };
        out.push_str(&format!("=== {} phase budget ===\n", kind.name()));
        out.push_str(&profile.render());
        out.push('\n');
    }
    out
}

/// Write a comparison's metric CSVs into a directory, one file per
/// metric (`<dir>/<metric>.csv`). Creates the directory.
pub fn write_comparison(cmp: &ComparisonResult, dir: &Path, metrics: &[&str]) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    for metric in metrics {
        let csv = comparison_csv(cmp, metric);
        std::fs::write(dir.join(format!("{metric}.csv")), csv)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_comparison;
    use crate::simulation::SimParams;
    use rfh_types::SimConfig;
    use rfh_workload::{EventSchedule, Scenario};

    fn tiny_comparison() -> ComparisonResult {
        run_comparison(&SimParams {
            config: SimConfig { partitions: 4, replica_capacity_mean: 5.0, ..SimConfig::default() },
            scenario: Scenario::RandomEven,
            policy: PolicyKind::Rfh,
            epochs: 5,
            seed: 3,
            events: EventSchedule::new(),
            faults: crate::FaultPlan::default(),
            threads: 1,
        })
        .unwrap()
    }

    #[test]
    fn comparison_csv_has_four_policy_columns() {
        let cmp = tiny_comparison();
        let csv = comparison_csv(&cmp, "replicas_total");
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "epoch,Request,Owner,Random,RFH");
        assert_eq!(lines.count(), 5, "one row per epoch");
    }

    #[test]
    fn unknown_metric_yields_empty_table() {
        let cmp = tiny_comparison();
        let csv = comparison_csv(&cmp, "not_a_metric");
        assert_eq!(csv, "epoch\n");
    }

    #[test]
    fn run_csv_contains_all_metrics() {
        let cmp = tiny_comparison();
        let rfh = cmp.of(PolicyKind::Rfh).expect("RFH ran");
        let csv = run_csv(rfh);
        let header = csv.lines().next().unwrap();
        for series in rfh.metrics.all_series() {
            let name = series.name();
            assert!(header.contains(name), "{name} missing from {header}");
        }
    }

    #[test]
    fn profile_table_lists_profiled_policies_only() {
        let cmp = tiny_comparison();
        assert_eq!(profile_table(&cmp), "", "unprofiled comparison has no tables");
        let profiled = crate::runner::run_comparison_observed(
            &SimParams {
                config: SimConfig {
                    partitions: 4,
                    replica_capacity_mean: 5.0,
                    ..SimConfig::default()
                },
                scenario: Scenario::RandomEven,
                policy: PolicyKind::Rfh,
                epochs: 5,
                seed: 3,
                events: EventSchedule::new(),
                faults: crate::FaultPlan::default(),
                threads: 1,
            },
            &crate::runner::ObsOptions { profile: true, ..Default::default() },
        )
        .unwrap();
        let table = profile_table(&profiled);
        for kind in PolicyKind::ALL {
            assert!(table.contains(kind.name()), "{kind} missing from:\n{table}");
        }
        assert!(table.contains("traffic"), "phase rows present:\n{table}");
    }

    #[test]
    fn write_comparison_creates_files() {
        let cmp = tiny_comparison();
        let dir = std::env::temp_dir().join(format!("rfh_report_test_{}", std::process::id()));
        write_comparison(&cmp, &dir, &["utilization", "path_length"]).unwrap();
        assert!(dir.join("utilization.csv").exists());
        assert!(dir.join("path_length.csv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
