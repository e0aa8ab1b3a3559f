//! Harness-level integration: figure persistence round-trips and the
//! ASCII renderer never panics on arbitrary data.

use proptest::prelude::*;
use rfh_core::PolicyKind;
use rfh_experiments::ascii;
use rfh_experiments::figures::{base_params, FigureRun, FIGURES};
use rfh_experiments::output::persist_figure;
use rfh_sim::run_comparison;
use rfh_types::FlashCrowdConfig;
use rfh_workload::Scenario;

fn tiny_run() -> FigureRun {
    let tiny = |scenario| {
        let mut params = base_params(scenario, 6, 3);
        params.config.partitions = 4;
        run_comparison(&params).unwrap()
    };
    FigureRun {
        random: tiny(Scenario::RandomEven),
        flash: tiny(Scenario::FlashCrowd(FlashCrowdConfig::default())),
    }
}

#[test]
fn persisted_figure_csvs_parse_back() {
    let run = tiny_run();
    let fig = &FIGURES[1]; // Fig. 4: two metrics per panel
    let root = std::env::temp_dir().join(format!("rfh_harness_{}", std::process::id()));
    persist_figure(fig, &run, &root).unwrap();
    for (panel, cmp) in [("random", &run.random), ("flash", &run.flash)] {
        for metric in fig.metrics {
            let path = root.join(fig.id).join(panel).join(format!("{metric}.csv"));
            let text = std::fs::read_to_string(&path).unwrap();
            let mut lines = text.lines();
            assert_eq!(lines.next().unwrap(), "epoch,Request,Owner,Random,RFH");
            let rows: Vec<&str> = lines.collect();
            assert_eq!(rows.len(), 6, "{metric}: one row per epoch");
            // Every value in the CSV matches the in-memory series.
            for (epoch, row) in rows.iter().enumerate() {
                let cells: Vec<&str> = row.split(',').collect();
                assert_eq!(cells[0], epoch.to_string());
                for (ci, kind) in PolicyKind::ALL.iter().enumerate() {
                    let series = cmp.of(*kind).unwrap().metrics.series(metric).unwrap();
                    let expect = series.get(epoch).unwrap();
                    let got: f64 = cells[ci + 1].parse().unwrap();
                    assert_eq!(got, expect, "{panel} {metric} epoch {epoch} policy {kind}");
                }
            }
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ascii_chart_never_panics(
        series in proptest::collection::vec(
            proptest::collection::vec(-1e12f64..1e12, 0..400),
            0..5,
        ),
        title in "[ -~]{0,40}",
    ) {
        let named: Vec<(String, &[f64])> = series
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("s{i}"), v.as_slice()))
            .collect();
        let refs: Vec<(&str, &[f64])> =
            named.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let out = ascii::chart(&title, &refs);
        prop_assert!(out.contains(&title) || title.is_empty());
        prop_assert!(!out.is_empty());
        // Bounded output regardless of input size.
        prop_assert!(out.lines().count() < 32);
    }
}
