//! Multi-seed robustness: the paper's claims, checked across many
//! independent workloads in parallel.
//!
//! A single seed can flatter any simulation. The sweep reruns the
//! four-way comparison over `n` seeds (crossbeam scoped threads, one
//! comparison per worker — each comparison itself runs its four
//! policies in parallel) and aggregates the headline metrics into
//! mean ± standard deviation, then re-evaluates the paper's ordering
//! claims on the *means*.

use crate::figures::{base_params, RANDOM_EPOCHS};
use crate::steady;
use rfh_core::PolicyKind;
use rfh_obs::Profiler;
use rfh_sim::run_comparison;
use rfh_stats::Welford;
use rfh_types::{Result, RfhError};
use rfh_workload::Scenario;
use std::fmt::Write as _;

/// Seeds [`report`] sweeps, consecutive from its base seed.
pub const SEEDS: u64 = 12;

/// [`report`]'s base seed when none is given.
pub const DEFAULT_BASE_SEED: u64 = 1000;

/// Metrics the sweep aggregates.
pub const SWEEP_METRICS: [&str; 6] = [
    "utilization",
    "replicas_total",
    "replication_cost",
    "migrations_total",
    "load_imbalance",
    "unserved",
];

/// Aggregated steady-state statistics for one `(policy, metric)` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Mean over seeds of the steady-state (last-quarter) value.
    pub mean: f64,
    /// Standard deviation over seeds (population).
    pub stddev: f64,
}

/// Results of a sweep: `cells[policy][metric]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Seeds that were run.
    pub seeds: Vec<u64>,
    /// `cells[policy index within PolicyKind::ALL][metric index]`.
    pub cells: Vec<Vec<CellStats>>,
}

impl SweepResult {
    /// Stats for one `(policy, metric)`.
    pub fn cell(&self, kind: PolicyKind, metric: &str) -> CellStats {
        let p = PolicyKind::ALL.iter().position(|&k| k == kind).expect("known policy");
        let m = SWEEP_METRICS.iter().position(|&n| n == metric).expect("known metric");
        self.cells[p][m]
    }
}

/// Run the comparison over `seeds` in parallel and aggregate.
///
/// Each worker produces its per-seed cell values independently; the
/// aggregation happens after the scope, folding values in *ascending
/// seed order* — floating-point addition is not associative, so a
/// thread-scheduling-dependent fold would make the result depend on
/// timing. This way the sweep is bit-reproducible and insensitive to
/// the order the seed list is given in.
pub fn sweep(scenario: Scenario, epochs: u64, seeds: &[u64]) -> Result<SweepResult> {
    type SeedCells = Vec<Vec<f64>>; // [policy][metric]

    let worker = |seed: u64| -> Result<SeedCells> {
        let cmp = run_comparison(&base_params(scenario.clone(), epochs, seed))?;
        PolicyKind::ALL
            .iter()
            .map(|&kind| {
                let r = cmp.require(kind)?;
                SWEEP_METRICS.iter().map(|&metric| steady(r, metric)).collect()
            })
            .collect()
    };

    let per_seed: Result<Vec<(u64, SeedCells)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| scope.spawn(move |_| worker(seed).map(|cells| (seed, cells))))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| rfh_types::RfhError::Simulation("sweep worker panicked".into()))?
            })
            .collect()
    })
    .map_err(|_| rfh_types::RfhError::Simulation("sweep scope panicked".into()))?;
    let mut per_seed = per_seed?;
    per_seed.sort_by_key(|&(seed, _)| seed);

    let cells = (0..PolicyKind::ALL.len())
        .map(|pi| {
            (0..SWEEP_METRICS.len())
                .map(|mi| {
                    let w: Welford = per_seed.iter().map(|(_, cells)| cells[pi][mi]).collect();
                    CellStats { mean: w.mean(), stddev: w.stddev_population() }
                })
                .collect()
        })
        .collect();
    Ok(SweepResult { seeds: seeds.to_vec(), cells })
}

/// The ordering claims re-evaluated on sweep means; returns
/// `(claim, holds)` pairs.
pub fn ordering_claims(r: &SweepResult) -> Vec<(String, bool)> {
    use PolicyKind::*;
    let u = |k| r.cell(k, "utilization").mean;
    let n = |k| r.cell(k, "replicas_total").mean;
    let c = |k| r.cell(k, "replication_cost").mean;
    let m = |k| r.cell(k, "migrations_total").mean;
    vec![
        (
            "RFH highest utilization (mean over seeds)".into(),
            PolicyKind::ALL.iter().all(|&k| u(Rfh) >= u(k)),
        ),
        ("random lowest utilization".into(), PolicyKind::ALL.iter().all(|&k| u(Random) <= u(k))),
        ("RFH fewest replicas".into(), PolicyKind::ALL.iter().all(|&k| n(Rfh) <= n(k))),
        ("random most replicas".into(), PolicyKind::ALL.iter().all(|&k| n(Random) >= n(k))),
        (
            "RFH lowest total replication cost".into(),
            PolicyKind::ALL.iter().all(|&k| c(Rfh) <= c(k)),
        ),
        (
            "request-oriented most migrations".into(),
            m(RequestOriented) >= m(Rfh) && m(Random) == 0.0 && m(OwnerOriented) == 0.0,
        ),
    ]
}

/// `rfh experiments sweep`: the four-way comparison over [`SEEDS`]
/// seeds from `base`, mean ± stddev per metric and the ordering claims
/// on the means. A claim that fails is an error carrying the count.
pub fn report(base: u64) -> Result<String> {
    let seeds: Vec<u64> = (base..base + SEEDS).collect();
    let mut out = format!(
        "sweeping {SEEDS} seeds ({}..{}), {RANDOM_EPOCHS} epochs each, random query\n\n",
        base,
        base + SEEDS - 1
    );
    let mut prof = Profiler::new(true);
    let result = prof.time("sweep", || sweep(Scenario::RandomEven, RANDOM_EPOCHS, &seeds))?;
    let secs = prof.report().total_nanos() as f64 / 1e9;
    let _ = writeln!(out, "({SEEDS} four-way comparisons in {secs:.1} s)\n");

    out.push_str("steady state, mean ± stddev over seeds:\n");
    let _ = write!(out, "{:22}", "metric");
    for kind in PolicyKind::ALL {
        let _ = write!(out, " {:>19}", kind.name());
    }
    out.push('\n');
    for metric in SWEEP_METRICS {
        let _ = write!(out, "{metric:22}");
        for kind in PolicyKind::ALL {
            let c = result.cell(kind, metric);
            let _ = write!(out, " {:>11.2} ±{:>6.2}", c.mean, c.stddev);
        }
        out.push('\n');
    }

    out.push_str("\nordering claims on the means:\n");
    let mut failed = Vec::new();
    for (claim, holds) in ordering_claims(&result) {
        let _ = writeln!(out, "  [{}] {claim}", if holds { "PASS" } else { "FAIL" });
        if !holds {
            failed.push(claim);
        }
    }
    if !failed.is_empty() {
        return Err(RfhError::Simulation(format!(
            "{} of the sweep's ordering claims failed: {}",
            failed.len(),
            failed.join("; ")
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_aggregates_across_seeds() {
        // Tiny sweep: structure and determinism, not statistics.
        let r = sweep(Scenario::RandomEven, 12, &[1, 2, 3]).unwrap();
        assert_eq!(r.seeds, vec![1, 2, 3]);
        let cell = r.cell(PolicyKind::Rfh, "replicas_total");
        assert!(cell.mean > 0.0);
        assert!(cell.stddev >= 0.0);
        // Deterministic: the same seeds give the same aggregate.
        let r2 = sweep(Scenario::RandomEven, 12, &[1, 2, 3]).unwrap();
        assert_eq!(r, r2);
        // Order-insensitive.
        let r3 = sweep(Scenario::RandomEven, 12, &[3, 1, 2]).unwrap();
        assert_eq!(r.cells, r3.cells, "seed order must not matter, bit for bit");
    }

    #[test]
    fn claims_structure() {
        let r = sweep(Scenario::RandomEven, 12, &[5]).unwrap();
        let claims = ordering_claims(&r);
        assert_eq!(claims.len(), 6);
        // At 12 epochs the orderings are not settled; only check shape.
        for (name, _) in claims {
            assert!(!name.is_empty());
        }
    }
}
