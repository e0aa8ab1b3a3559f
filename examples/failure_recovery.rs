//! Fault tolerance in action (the Fig. 10 experiment, extended): a mass
//! failure kills 30 of the 100 servers mid-run, a while later they all
//! recover. RFH re-replicates around the hole and then re-balances.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```

use rfh::prelude::*;

fn main() -> Result<()> {
    let mut params = SimParams::paper(PolicyKind::Rfh, Scenario::RandomEven);
    params.epochs = 600;
    params.faults = sim_seeded_plan(params.seed)
        .at(290, FaultAction::FailRandom(30))
        .at(450, FaultAction::RecoverAll);
    let result = Simulation::new(params)?.run()?;

    let replicas = result.metrics.series("replicas_total").expect("series exists");
    let alive = result.metrics.series("alive_servers").expect("series exists");
    let unserved = result.metrics.series("unserved").expect("series exists");

    println!("epoch  alive  replicas  unserved");
    for epoch in [0, 100, 280, 289, 290, 295, 300, 320, 360, 440, 449, 450, 460, 599] {
        println!(
            "{epoch:>5}  {:>5.0}  {:>8.0}  {:>8.1}",
            alive.get(epoch).unwrap_or(0.0),
            replicas.get(epoch).unwrap_or(0.0),
            unserved.get(epoch).unwrap_or(0.0),
        );
    }

    let before = replicas.mean_over(280, 290);
    let trough = (290..340).filter_map(|e| replicas.get(e)).fold(f64::INFINITY, f64::min);
    let recovered = replicas.mean_over(420, 450);
    println!(
        "\nThe failure wiped out {:.0} replicas ({:.0} → {:.0}); the availability floor \
         (eq. 14, r_min = 2) plus the traffic-hub relief rebuilt the fleet to {:.0} on the \
         70 surviving servers — the paper's Fig. 10 robustness claim.",
        before - trough,
        before,
        trough,
        recovered,
    );
    assert!(alive.get(290) == Some(70.0));
    assert!(alive.get(450) == Some(100.0), "RecoverAll brings everyone back");
    Ok(())
}
