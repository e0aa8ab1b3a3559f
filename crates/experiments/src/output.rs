//! The figure reports: charts, shape checks and CSVs for Table I and
//! Figs. 3–10.

use crate::figures::{self, Figure, FigureRun, FIGURES};
use crate::shapes::{self, render_checks, ShapeCheck};
use crate::table1;
use crate::{ascii, series};
use rfh_core::PolicyKind;
use rfh_sim::{report, ComparisonResult, SimResult};
use rfh_types::{Result, RfhError, SimConfig};
use std::fmt::Write as _;
use std::path::Path;

/// Where the reports write their CSVs, relative to the working
/// directory.
const RESULTS_ROOT: &str = "results";

fn chart_of(cmp: &ComparisonResult, metric: &str, title: &str) -> Result<String> {
    let series: Vec<(&str, &[f64])> = PolicyKind::ALL
        .iter()
        .map(|&k| Ok((k.name(), series(cmp.require(k)?, metric)?.values())))
        .collect::<Result<_>>()?;
    Ok(ascii::chart(title, &series))
}

/// A figure's charts (both panels) and shape checks.
fn render_figure(fig: &Figure, run: &FigureRun, checks: &[ShapeCheck]) -> Result<String> {
    let mut out = format!("==== {} — {} ====\n\n", fig.id, fig.caption);
    for metric in fig.metrics {
        for (cmp, setting) in [(&run.random, "random query"), (&run.flash, "flash crowd")] {
            let chart = chart_of(cmp, metric, &format!("{metric} under {setting}"))?;
            let _ = writeln!(out, "{chart}");
        }
    }
    let _ = writeln!(out, "{}", render_checks(checks));
    Ok(out)
}

/// Write a figure's CSVs under `root/<fig>/{random,flash}/<metric>.csv`.
pub fn persist_figure(fig: &Figure, run: &FigureRun, root: &Path) -> Result<()> {
    let dir = root.join(fig.id);
    report::write_comparison(&run.random, &dir.join("random"), fig.metrics)?;
    report::write_comparison(&run.flash, &dir.join("flash"), fig.metrics)
}

/// The Fig. 10 single-run chart and checks.
fn render_fig10(result: &SimResult, checks: &[ShapeCheck]) -> Result<String> {
    let replicas = series(result, "replicas_total")?;
    let alive = series(result, "alive_servers")?;
    let chart = ascii::chart(
        "RFH replica count across the epoch-290 mass failure",
        &[("replicas", replicas.values()), ("alive servers", alive.values())],
    );
    Ok(format!(
        "==== fig10 — Node failure and recovery (RFH) ====\n\n{chart}\n{}\n",
        render_checks(checks)
    ))
}

/// Persist the Fig. 10 run CSV.
fn persist_fig10(result: &SimResult, root: &Path) -> Result<()> {
    let dir = root.join("fig10");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("rfh_run.csv"), report::run_csv(result))?;
    Ok(())
}

/// `rfh experiments figN` for one of Figs. 3–9: its charts and checks,
/// CSVs under `results/<fig>/`.
pub fn figure_report(fig: &Figure, seed: u64) -> Result<String> {
    let run = figures::both_settings(seed)?;
    let mut out = render_figure(fig, &run, &(fig.check)(&run)?)?;
    persist_figure(fig, &run, Path::new(RESULTS_ROOT))?;
    let _ = writeln!(out, "CSV written under {RESULTS_ROOT}/{}/", fig.id);
    Ok(out)
}

/// `rfh experiments fig10`: the failure-and-recovery chart and checks,
/// the run CSV under `results/fig10/`.
pub fn fig10_report(seed: u64) -> Result<String> {
    let result = figures::fig10(seed)?;
    let mut out = render_fig10(&result, &shapes::check_fig10(&result)?)?;
    persist_fig10(&result, Path::new(RESULTS_ROOT))?;
    let _ = writeln!(out, "CSV written under {RESULTS_ROOT}/fig10/");
    Ok(out)
}

/// `rfh experiments all`: Table I, every figure's charts and checks and
/// the claim summary; every CSV under `results/`. Figs. 3–9 share one
/// [`figures::both_settings`] pair. An unexpected check failure is an
/// error carrying the summary line.
pub fn all_report(seed: u64) -> Result<String> {
    let root = Path::new(RESULTS_ROOT);
    let mut out = format!("{}\n", table1::render(&SimConfig::default()));
    let mut all_checks: Vec<ShapeCheck> = Vec::new();
    let run = figures::both_settings(seed)?;
    for fig in &FIGURES {
        let checks = (fig.check)(&run)?;
        out.push_str(&render_figure(fig, &run, &checks)?);
        persist_figure(fig, &run, root)?;
        all_checks.extend(checks);
    }
    let fig10 = figures::fig10(seed)?;
    let checks = shapes::check_fig10(&fig10)?;
    out.push_str(&render_fig10(&fig10, &checks)?);
    persist_fig10(&fig10, root)?;
    all_checks.extend(checks);

    let pass = all_checks.iter().filter(|c| c.holds).count();
    let dev = all_checks.iter().filter(|c| !c.holds && c.known_deviation).count();
    let failed: Vec<&str> =
        all_checks.iter().filter(|c| !c.acceptable()).map(|c| c.id.as_str()).collect();
    let summary = format!(
        "{pass} claims reproduced, {dev} known deviations, {} unexpected failures",
        failed.len()
    );
    if !failed.is_empty() {
        return Err(RfhError::Simulation(format!("{summary} ({})", failed.join(", "))));
    }
    let _ = writeln!(out, "==== summary ====\n{summary}\nCSVs under {RESULTS_ROOT}/");
    Ok(out)
}
