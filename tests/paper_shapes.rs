//! Full-scale reproduction check: regenerate the data behind every
//! figure at the paper's scale and assert the qualitative claims
//! (who wins, where the crossovers are) — the same checks
//! `rfh experiments` prints.

use rfh::experiments::{figures, shapes, FIGURES};

#[test]
fn figures_3_to_9_reproduce_paper_claims() {
    let run = figures::both_settings(42).expect("the two comparisons run");
    let mut all = Vec::new();
    for fig in &FIGURES {
        all.extend((fig.check)(&run).unwrap_or_else(|e| panic!("{} checks run: {e}", fig.id)));
    }
    let failures: Vec<String> = all
        .iter()
        .filter(|c| !c.acceptable())
        .map(|c| format!("{}: {} ({})", c.id, c.claim, c.detail))
        .collect();
    assert!(failures.is_empty(), "unexpected shape regressions:\n{}", failures.join("\n"));
    // The deviations must be exactly the documented ones, no more.
    let deviations: Vec<&str> =
        all.iter().filter(|c| !c.holds && c.known_deviation).map(|c| c.id.as_str()).collect();
    assert_eq!(
        deviations,
        vec!["fig9.rfh-short-paths"],
        "the set of known deviations changed — update EXPERIMENTS.md"
    );
    // And the core headline claims must genuinely hold.
    for required in [
        "fig3a.rfh-highest",
        "fig3b.request-collapses",
        "fig3b.rfh-recovers",
        "fig4a.random-most",
        "fig4cd.rfh-flash-insensitive",
        "fig5a.rfh-lowest-total",
        "fig6.request-most",
        "fig7.zero-for-random-and-owner",
    ] {
        let check = all.iter().find(|c| c.id == required).expect("check exists");
        assert!(check.holds, "headline claim failed: {required} ({})", check.detail);
    }
}

#[test]
fn figure_10_failure_and_recovery() {
    let result = figures::fig10(42).expect("fig10 runs");
    for check in shapes::check_fig10(&result).expect("fig10 checks run") {
        assert!(check.holds, "{}: {}", check.id, check.detail);
    }
    // The alive-server series records the event precisely.
    let alive = result.metrics.series("alive_servers").unwrap();
    assert_eq!(alive.get(289), Some(100.0));
    assert_eq!(alive.get(290), Some(70.0));
    assert_eq!(alive.last(), Some(70.0), "no recovery event in Fig. 10");
}
