//! Extension experiment: failure-domain-aware placement and the
//! bandwidth-budgeted transfer planner under correlated outages.
//!
//! Stock RFH places replicas purely by traffic, so a partition's copies
//! happily share a rack or a datacenter — and a single correlated
//! outage (the common real-world failure) can take several of them down
//! at once. The `domain-spread` placement variant keeps RFH's decision
//! tree but ranks candidate targets by failure-domain spread (fresh
//! datacenter, then fresh room, then fresh rack) before traffic.
//!
//! This experiment drives every policy — the four from the paper plus
//! domain-spread — through the same correlated outage schedule (every
//! rack in turn, then every datacenter, each healed before the next)
//! and counts what placement is ultimately for:
//!
//! * **unavail** — partition-epochs with no live replica at all;
//! * **sub-r_min** — partition-epochs below the availability floor;
//! * **peak<r_min** — the worst single epoch's count of sub-floor
//!   partitions;
//! * **spread** — the final mean fraction of a partition's replicas in
//!   distinct (dc, room, rack) domains;
//! * **ttr** — epochs until the replica count recovers to within 5% of
//!   its pre-outage level after the datacenter kill.
//!
//! A second table runs RFH with the transfer planner at decreasing
//! per-link budgets, showing admission control trading repair speed for
//! bounded WAN traffic.

use crate::figures::base_params;
use rfh_core::PolicyKind;
use rfh_faults::{FaultAction, FaultPlan};
use rfh_sim::{recovery_epochs, PlannerConfig, Simulation};
use rfh_types::{DatacenterId, FlashCrowdConfig, RackId, Result, RoomId};
use rfh_workload::Scenario;
use std::fmt::Write as _;

const EPOCHS: u64 = 340;
/// Start of the datacenter sweep (its first outage anchors ttr).
const DC_FAIL: u64 = 220;

/// A sweep over every failure domain: after an 80-epoch warm-up each
/// of the 20 racks fails for 4 epochs in turn, then each of the 10
/// datacenters (the paper's sites are 1 room × 2 racks × 5 servers, so
/// a room outage *is* a site outage). Sweeping every domain — rather
/// than picking one — means any partition whose replicas share a rack
/// or a site is caught, wherever traffic happened to concentrate it.
fn outage_plan() -> FaultPlan {
    let mut plan = FaultPlan { seed: 5, ..FaultPlan::default() };
    let room0 = RoomId::new(0);
    let mut epoch = 80;
    for dc in 0..10 {
        for rack in 0..2 {
            let (dc, rack) = (DatacenterId::new(dc), RackId::new(rack));
            plan = plan
                .at(epoch, FaultAction::FailRack(dc, room0, rack))
                .at(epoch + 4, FaultAction::RecoverRack(dc, room0, rack));
            epoch += 7;
        }
    }
    let mut epoch = DC_FAIL;
    for dc in 0..10 {
        let dc = DatacenterId::new(dc);
        plan = plan
            .at(epoch, FaultAction::FailDatacenter(dc))
            .at(epoch + 4, FaultAction::RecoverDatacenter(dc));
        epoch += 11;
    }
    plan
}

struct Run {
    unavailable: u64,
    sub_rmin: u64,
    peak: u64,
    spread: f64,
    ttr: Option<u64>,
    admitted: u64,
    deferred: u64,
}

fn run(kind: PolicyKind, planner: PlannerConfig, seed: u64) -> Result<Run> {
    let mut p = base_params(Scenario::FlashCrowd(FlashCrowdConfig::default()), EPOCHS, seed);
    p.policy = kind;
    p.faults = outage_plan();
    let mut sim = Simulation::new(p)?.with_planner(planner);
    while sim.epoch() < EPOCHS {
        sim.step()?;
    }
    let (unavailable, sub_rmin, peak) = sim.availability_counters();
    let spread = sim.spread_score();
    let (admitted, deferred) = sim.planner_counters();
    let result = sim.finish();
    let ttr = recovery_epochs(&result.metrics, DC_FAIL, 0.05);
    Ok(Run { unavailable, sub_rmin, peak, spread, ttr, admitted, deferred })
}

fn ttr_text(ttr: Option<u64>) -> String {
    ttr.map_or_else(|| "-".to_string(), |t| t.to_string())
}

/// `rfh experiments domains`: availability and spread per placement
/// policy under the outage sweep, then RFH under shrinking link budgets.
pub fn report(seed: u64) -> Result<String> {
    let mut out = format!(
        "Correlated-outage availability, {EPOCHS} epochs, seed {seed}.\n\
         Outages: every rack in turn from epoch 80, every datacenter in \
         turn from {DC_FAIL} (4-epoch outages, healed between).\n\
         unavail / sub-r_min are partition-epoch counts (lower is better).\n\n"
    );

    out.push_str("== placement ==\n");
    let _ = writeln!(
        out,
        "{:8} {:>8} {:>10} {:>10} {:>8} {:>6}",
        "policy", "unavail", "sub-r_min", "peak<r_min", "spread", "ttr"
    );
    for kind in PolicyKind::WITH_SPREAD {
        let r = run(kind, PlannerConfig::default(), seed)?;
        let _ = writeln!(
            out,
            "{:8} {:>8} {:>10} {:>10} {:>8.3} {:>6}",
            kind.name(),
            r.unavailable,
            r.sub_rmin,
            r.peak,
            r.spread,
            ttr_text(r.ttr),
        );
    }

    out.push_str("\n== transfer planner (RFH) ==\n");
    let _ = writeln!(
        out,
        "{:>14} {:>9} {:>9} {:>10} {:>10} {:>6}",
        "link budget", "admitted", "deferred", "unavail", "sub-r_min", "ttr"
    );
    let budgets = [
        ("none", PlannerConfig::default()),
        ("2 MiB/epoch", PlannerConfig::budgeted(2 << 20)),
        ("512 KiB/epoch", PlannerConfig::budgeted(512 << 10)),
    ];
    for (label, planner) in budgets {
        let r = run(PolicyKind::Rfh, planner, seed)?;
        let _ = writeln!(
            out,
            "{:>14} {:>9} {:>9} {:>10} {:>10} {:>6}",
            label,
            r.admitted,
            r.deferred,
            r.unavailable,
            r.sub_rmin,
            ttr_text(r.ttr),
        );
    }
    Ok(out)
}
