//! The failure-domain differential: under correlated rack / site
//! outage sweeps, `--placement domain-spread` must deliver measurably
//! better availability than stock RFH on the identical seed and plan,
//! and the bandwidth-budgeted planner must not cost repair speed when
//! its budget is not the bottleneck.
//!
//! The experiment-scale version of this comparison (full Table I
//! config, every policy, the planner budget ladder) lives in
//! `cargo run -p rfh-experiments --bin domains`; this test pins the
//! relation itself at a small deterministic scale so CI catches any
//! regression in the spread heuristic or the availability accounting.

use rfh_core::PolicyKind;
use rfh_faults::{FaultAction, FaultPlan};
use rfh_sim::{recovery_epochs, PlannerConfig, SimParams, Simulation};
use rfh_types::{DatacenterId, FlashCrowdConfig, RackId, RoomId, SimConfig};
use rfh_workload::{EventSchedule, Scenario};

const EPOCHS: u64 = 340;
/// First datacenter outage of the site sweep (anchors time-to-repair).
const DC_FAIL: u64 = 220;

/// Sweep every failure domain: each of the 20 racks fails for 4 epochs
/// in turn after an 80-epoch warm-up, then each of the 10 sites. Any
/// partition whose replicas share a rack or a site is caught wherever
/// traffic happened to concentrate it.
fn outage_sweep() -> FaultPlan {
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

fn params(policy: PolicyKind) -> SimParams {
    SimParams {
        config: SimConfig { partitions: 16, replica_capacity_mean: 5.0, ..SimConfig::default() },
        // The flash crowd concentrates traffic, which is exactly when
        // traffic-driven placement packs replicas into few domains.
        scenario: Scenario::FlashCrowd(FlashCrowdConfig::default()),
        policy,
        epochs: EPOCHS,
        seed: 7,
        events: EventSchedule::new(),
        faults: outage_sweep(),
        threads: 1,
    }
}

struct Outcome {
    unavailable: u64,
    sub_rmin: u64,
    spread: f64,
    ttr: Option<u64>,
}

fn run(policy: PolicyKind, planner: PlannerConfig) -> Outcome {
    let mut sim = Simulation::new(params(policy)).expect("valid params").with_planner(planner);
    while sim.epoch() < EPOCHS {
        sim.step().expect("epoch steps");
    }
    let (unavailable, sub_rmin, _) = sim.availability_counters();
    let spread = sim.spread_score();
    let result = sim.finish();
    Outcome { unavailable, sub_rmin, spread, ttr: recovery_epochs(&result.metrics, DC_FAIL, 0.05) }
}

/// The headline claim: on the identical seed and outage plan,
/// domain-spread placement dips below the availability floor strictly
/// less than stock RFH, never goes fully unavailable more often, and
/// actually spreads (the score is the mechanism, the dip is the
/// effect).
#[test]
fn domain_spread_beats_stock_rfh_under_correlated_outages() {
    let stock = run(PolicyKind::Rfh, PlannerConfig::default());
    let spread = run(PolicyKind::DomainSpread, PlannerConfig::default());

    assert!(
        spread.spread > stock.spread,
        "spread placement must measurably spread: {:.3} vs stock {:.3}",
        spread.spread,
        stock.spread
    );
    assert!(
        spread.sub_rmin < stock.sub_rmin,
        "sub-r_min partition-epochs must strictly improve: spread {} vs stock {}",
        spread.sub_rmin,
        stock.sub_rmin
    );
    assert!(
        spread.unavailable <= stock.unavailable,
        "unavailable partition-epochs must not get worse: spread {} vs stock {}",
        spread.unavailable,
        stock.unavailable
    );
    // Spread may rebuild onto different (colder) targets, so its
    // time-to-repair is not required to beat stock — only to exist and
    // stay within the same order: both runs must re-reach their
    // pre-outage replica count inside the site sweep's cadence.
    let (stock_ttr, spread_ttr) =
        (stock.ttr.expect("stock run recovers"), spread.ttr.expect("spread run recovers"));
    assert!(
        spread_ttr <= stock_ttr.max(11),
        "spread repair must finish within one sweep step: spread {spread_ttr} vs stock {stock_ttr}"
    );
}

/// Planner no-regression: with a budget generous enough that it never
/// binds, time-to-repair and the availability counters are those of an
/// unbudgeted run.
#[test]
fn planner_does_not_regress_repair_when_budget_is_ample() {
    let unbudgeted = run(PolicyKind::Rfh, PlannerConfig::default());
    let planned = run(PolicyKind::Rfh, PlannerConfig::budgeted(1 << 30));
    assert_eq!(planned.unavailable, unbudgeted.unavailable);
    assert_eq!(planned.sub_rmin, unbudgeted.sub_rmin);
    assert_eq!(planned.ttr, unbudgeted.ttr);
}

/// A budget tight enough to bind defers real moves — and the deferred
/// lane drains them, so the run still repairs and the planner's
/// lifetime accounting balances.
#[test]
fn tight_budget_defers_but_still_repairs() {
    let size = SimConfig::default().partition_size.0;
    let mut sim = Simulation::new(params(PolicyKind::Rfh))
        .expect("valid params")
        .with_planner(PlannerConfig::budgeted(size));
    while sim.epoch() < EPOCHS {
        sim.step().expect("epoch steps");
    }
    let (admitted, deferred) = sim.planner_counters();
    assert!(admitted > 0, "moves must flow under a tight budget");
    assert!(deferred > 0, "a one-partition-per-link budget must defer under outage repair");
    let (unavailable, _, _) = sim.availability_counters();
    assert_eq!(unavailable, 0, "deferral must not strand partitions without live replicas");
    let result = sim.finish();
    assert!(
        recovery_epochs(&result.metrics, DC_FAIL, 0.05).is_some(),
        "the run must still recover from the site sweep"
    );
}
