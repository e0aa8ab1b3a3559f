//! Ablation studies of the RFH design choices (the knobs DESIGN.md
//! calls out).
//!
//! Each ablation reruns RFH under the flash-crowd workload with one
//! mechanism altered and reports the steady-state metrics, isolating
//! what that mechanism buys:
//!
//! * **α (smoothing)** — does the EWMA of eqs. 10–11 matter under flash
//!   crowds, or would raw observations do?
//! * **γ (hub bar)** — the replica-count / utilization trade-off of the
//!   hub threshold.
//! * **δ = 0 (no suicide)** — resource waste after the crowd passes.
//! * **μ → ∞ (no migration)** — cost/utilization impact of eq. 16.
//! * **blocking off** — load-imbalance impact of the Erlang-B server
//!   choice (eq. 18).

use crate::figures::base_params;
use crate::steady;
use rfh_core::{PolicyKind, RfhPolicy};
use rfh_sim::{SimResult, Simulation};
use rfh_types::{FlashCrowdConfig, Result};
use rfh_workload::Scenario;
use std::fmt::Write as _;

/// Epochs per ablation run (flash-crowd schedule).
pub const ABLATION_EPOCHS: u64 = 400;

/// One ablation outcome.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Variant label, e.g. `"gamma=1.1"`.
    pub label: String,
    /// The run.
    pub result: SimResult,
}

fn flash_params(seed: u64) -> rfh_sim::SimParams {
    let mut p =
        base_params(Scenario::FlashCrowd(FlashCrowdConfig::default()), ABLATION_EPOCHS, seed);
    p.policy = PolicyKind::Rfh;
    p
}

fn run(label: String, params: rfh_sim::SimParams) -> Result<AblationResult> {
    Ok(AblationResult { label, result: Simulation::new(params)?.run()? })
}

fn run_with_policy(
    label: String,
    params: rfh_sim::SimParams,
    policy: RfhPolicy,
) -> Result<AblationResult> {
    Ok(AblationResult {
        label,
        result: Simulation::new(params)?.with_custom_policy(Box::new(policy)).run()?,
    })
}

/// α sweep: history weight of the traffic EWMA.
pub fn ablation_alpha(seed: u64) -> Result<Vec<AblationResult>> {
    [0.01, 0.2, 0.5, 0.8]
        .into_iter()
        .map(|alpha| {
            let mut p = flash_params(seed);
            p.config.thresholds.alpha = alpha;
            run(format!("alpha={alpha}"), p)
        })
        .collect()
}

/// γ sweep: how eager hub promotion is.
pub fn ablation_gamma(seed: u64) -> Result<Vec<AblationResult>> {
    [1.1, 1.5, 2.0, 3.0]
        .into_iter()
        .map(|gamma| {
            let mut p = flash_params(seed);
            p.config.thresholds.gamma = gamma;
            run(format!("gamma={gamma}"), p)
        })
        .collect()
}

/// Suicide on (paper δ = 0.2) vs off (δ = 0 reaps only perfectly idle
/// replicas; combined with an infinite grace it is fully disabled).
pub fn ablation_suicide(seed: u64) -> Result<Vec<AblationResult>> {
    let baseline = run("suicide=on (delta=0.2)".into(), flash_params(seed))?;
    let mut p = flash_params(seed);
    p.config.thresholds.delta = 0.0;
    let off = run_with_policy(
        "suicide=off".into(),
        p,
        RfhPolicy::with_grace(u64::MAX / 2), // never leaves grace
    )?;
    Ok(vec![baseline, off])
}

/// Migration on (paper μ = 1) vs off (μ so large eq. 16 never passes).
pub fn ablation_migration(seed: u64) -> Result<Vec<AblationResult>> {
    let baseline = run("migration=on (mu=1)".into(), flash_params(seed))?;
    let mut p = flash_params(seed);
    p.config.thresholds.mu = 1e12;
    let off = run("migration=off (mu=1e12)".into(), p)?;
    Ok(vec![baseline, off])
}

/// Blocking-probability server choice (eq. 18) vs lowest-id choice.
pub fn ablation_blocking(seed: u64) -> Result<Vec<AblationResult>> {
    let baseline = run("blocking=on".into(), flash_params(seed))?;
    let mut policy = RfhPolicy::new();
    policy.set_blocking_choice(false);
    let off = run_with_policy("blocking=off".into(), flash_params(seed), policy)?;
    Ok(vec![baseline, off])
}

/// Metrics every ablation table reports.
pub const ABLATION_METRICS: [&str; 6] = [
    "utilization",
    "replicas_total",
    "replication_cost",
    "migrations_total",
    "load_imbalance",
    "unserved",
];

/// Render an ablation family as an aligned table.
pub fn render(title: &str, results: &[AblationResult]) -> Result<String> {
    let mut out = format!("== ablation: {title} ==\n");
    let _ = write!(out, "{:24}", "variant");
    for m in ABLATION_METRICS {
        let _ = write!(out, " {m:>18}");
    }
    out.push('\n');
    for r in results {
        let _ = write!(out, "{:24}", r.label);
        for m in ABLATION_METRICS {
            let _ = write!(out, " {:>18.2}", steady(&r.result, m)?);
        }
        out.push('\n');
    }
    Ok(out)
}

type AblationFamily = fn(u64) -> Result<Vec<AblationResult>>;

/// `rfh experiments ablations`: every ablation family's table.
pub fn report(seed: u64) -> Result<String> {
    let families: [(&str, AblationFamily); 5] = [
        ("alpha (traffic smoothing, eqs. 10-11)", ablation_alpha),
        ("gamma (hub threshold, eq. 13)", ablation_gamma),
        ("suicide (eq. 15)", ablation_suicide),
        ("migration (eq. 16)", ablation_migration),
        ("blocking-probability choice (eq. 18)", ablation_blocking),
    ];
    let mut out = String::new();
    for (title, family) in families {
        let _ = writeln!(out, "{}", render(title, &family(seed)?)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_formats_table() {
        let fake = AblationResult {
            label: "x=1".into(),
            result: rfh_sim::SimResult {
                policy: PolicyKind::Rfh,
                scenario: "flash".into(),
                metrics: {
                    let mut m = rfh_sim::Metrics::new(4);
                    m.record(&rfh_sim::EpochSnapshot::default());
                    m
                },
                profile: None,
            },
        };
        let table = render("demo", &[fake]).unwrap();
        assert!(table.contains("ablation: demo"));
        assert!(table.contains("x=1"));
        assert!(table.contains("utilization"));
    }
}
