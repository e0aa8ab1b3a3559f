//! Extension experiment: the SLA attainment the paper's introduction
//! motivates ("a response within 300 ms for 99.9% of its requests")
//! measured for all four algorithms, under both query settings.

use crate::figures::{base_params, FLASH_EPOCHS, RANDOM_EPOCHS};
use crate::steady;
use rfh_core::PolicyKind;
use rfh_sim::run_comparison;
use rfh_types::{FlashCrowdConfig, Result};
use rfh_workload::Scenario;
use std::fmt::Write as _;

/// `rfh experiments sla`: steady-state latency, SLA share and unserved
/// demand per policy under random query and flash crowd.
pub fn report(seed: u64) -> Result<String> {
    let mut out =
        format!("Response-time SLA (300 ms round trip), steady-state means, seed {seed}:\n\n");
    for (name, scenario, epochs) in [
        ("random query", Scenario::RandomEven, RANDOM_EPOCHS),
        ("flash crowd", Scenario::FlashCrowd(FlashCrowdConfig::default()), FLASH_EPOCHS),
    ] {
        let cmp = run_comparison(&base_params(scenario, epochs, seed))?;
        let _ = writeln!(out, "== {name} ==");
        let _ = writeln!(
            out,
            "{:8} {:>16} {:>18} {:>16}",
            "policy", "mean latency ms", "within 300ms (%)", "unserved/epoch"
        );
        for kind in PolicyKind::ALL {
            let r = cmp.require(kind)?;
            let _ = writeln!(
                out,
                "{:8} {:>16.1} {:>18.1} {:>16.2}",
                kind.name(),
                steady(r, "latency_ms")?,
                steady(r, "sla_300ms")? * 100.0,
                steady(r, "unserved")?,
            );
        }
        out.push('\n');
    }
    out.push_str(
        "Latency follows replica placement: requester-local replicas answer in ~1 ms, \
         hub replicas within one or two WAN round trips, and queries that fall through \
         to a distant holder pay the full route. Unserved queries count as SLA \
         violations outright.\n",
    );
    Ok(out)
}
