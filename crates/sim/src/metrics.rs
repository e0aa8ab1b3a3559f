//! Per-epoch metric collection — one series per curve the paper plots.
//!
//! | Series | Paper figure | Definition |
//! |---|---|---|
//! | `utilization` | Fig. 3 | eqs. 20–23: mean over replicas of served/capacity |
//! | `replicas_total` | Fig. 4(a)(c), Fig. 10 | total replica count |
//! | `replicas_avg` | Fig. 4(b)(d) | replicas per partition |
//! | `replication_cost` | Fig. 5(a)(c) | cumulative eq. 1 cost of replications |
//! | `replication_cost_avg` | Fig. 5(b)(d) | cumulative cost / replications so far |
//! | `migrations_total` | Fig. 6(a)(c) | cumulative migration count |
//! | `migrations_avg` | Fig. 6(b)(d) | cumulative migrations / current replicas |
//! | `migration_cost` | Fig. 7(a)(c) | cumulative eq. 1 cost of migrations |
//! | `migration_cost_avg` | Fig. 7(b)(d) | cumulative migration cost / migrations |
//! | `load_imbalance` | Fig. 8 | eq. 25: stddev of per-server load |
//! | `path_length` | Fig. 9 | mean WAN hops to the serving replica |
//! | `unserved` | (SLA discussion, §I) | queries nobody served |
//! | `alive_servers` | Fig. 10 | servers alive |
//! | `latency_ms` | (SLA discussion, §I) | mean round-trip response latency |
//! | `sla_300ms` | (SLA discussion, §I) | fraction of demand answered within 300 ms |
//! | `data_loss_total` | (availability extension) | cumulative partitions that lost every replica |
//! | `repairs_total` | (robustness extension) | cumulative deferred transfers/restores that completed |
//! | `dead_letters_total` | (robustness extension) | cumulative transfers dropped after exhausting retries |
//! | `invariant_violations` | (robustness extension) | cumulative safety/liveness violations from the auditor |

use rfh_stats::{load_imbalance, TimeSeries};
use rfh_topology::Topology;
use rfh_traffic::{PlacementView, TrafficAccounts};
use rfh_types::{PartitionId, ServerId};

/// Everything measured in one epoch (the inputs to the series).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochSnapshot {
    /// Mean replica utilization (eq. 23), in `[0, 1]`.
    pub utilization: f64,
    /// Total replicas.
    pub replicas_total: usize,
    /// Replications executed this epoch.
    pub replications: usize,
    /// Replication cost accrued this epoch.
    pub replication_cost: f64,
    /// Migrations executed this epoch.
    pub migrations: usize,
    /// Migration cost accrued this epoch.
    pub migration_cost: f64,
    /// Suicides executed this epoch.
    pub suicides: usize,
    /// eq. 25 load imbalance over alive servers.
    pub load_imbalance: f64,
    /// Mean lookup path length (WAN hops).
    pub path_length: f64,
    /// Queries served.
    pub served: f64,
    /// Queries nobody could serve.
    pub unserved: f64,
    /// Alive servers.
    pub alive_servers: usize,
    /// Mean round-trip response latency of served queries (ms).
    pub latency_ms: f64,
    /// Fraction of demand answered within the 300 ms SLA.
    pub sla_fraction: f64,
    /// Partitions that lost every replica this epoch (restored from
    /// cold archive — the failure replication exists to prevent).
    pub data_loss: usize,
    /// Deferred transfers and archive restores that completed this
    /// epoch (the repair path working through its backlog).
    pub repairs: usize,
    /// Transfers dropped this epoch after exhausting their retry
    /// budget.
    pub dead_letters: usize,
    /// Invariant violations the auditor flagged this epoch.
    pub invariant_violations: usize,
}

/// The full metric history of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    partitions: u32,
    /// Cumulative counters.
    replications_cum: usize,
    migrations_cum: usize,
    data_loss_cum: usize,
    repairs_cum: usize,
    dead_letters_cum: usize,
    violations_cum: usize,
    replication_cost_cum: f64,
    migration_cost_cum: f64,
    /// The recorded series, in documentation order.
    series: Vec<TimeSeries>,
}

/// Indices into `Metrics::series` (kept private; accessors below).
const UTILIZATION: usize = 0;
const REPLICAS_TOTAL: usize = 1;
const REPLICAS_AVG: usize = 2;
const REPLICATION_COST: usize = 3;
const REPLICATION_COST_AVG: usize = 4;
const MIGRATIONS_TOTAL: usize = 5;
const MIGRATIONS_AVG: usize = 6;
const MIGRATION_COST: usize = 7;
const MIGRATION_COST_AVG: usize = 8;
const LOAD_IMBALANCE: usize = 9;
const PATH_LENGTH: usize = 10;
const UNSERVED: usize = 11;
const SERVED: usize = 12;
const ALIVE_SERVERS: usize = 13;
const SUICIDES: usize = 14;
const LATENCY_MS: usize = 15;
const SLA_300MS: usize = 16;
const DATA_LOSS_TOTAL: usize = 17;
const REPAIRS_TOTAL: usize = 18;
const DEAD_LETTERS_TOTAL: usize = 19;
const INVARIANT_VIOLATIONS: usize = 20;
const SERIES_NAMES: [&str; 21] = [
    "utilization",
    "replicas_total",
    "replicas_avg",
    "replication_cost",
    "replication_cost_avg",
    "migrations_total",
    "migrations_avg",
    "migration_cost",
    "migration_cost_avg",
    "load_imbalance",
    "path_length",
    "unserved",
    "served",
    "alive_servers",
    "suicides",
    "latency_ms",
    "sla_300ms",
    "data_loss_total",
    "repairs_total",
    "dead_letters_total",
    "invariant_violations",
];

impl Metrics {
    /// Empty history for a run over `partitions` partitions.
    pub fn new(partitions: u32) -> Self {
        Metrics {
            partitions,
            replications_cum: 0,
            migrations_cum: 0,
            data_loss_cum: 0,
            repairs_cum: 0,
            dead_letters_cum: 0,
            violations_cum: 0,
            replication_cost_cum: 0.0,
            migration_cost_cum: 0.0,
            series: SERIES_NAMES.iter().map(|n| TimeSeries::new(*n)).collect(),
        }
    }

    /// Record one epoch.
    pub fn record(&mut self, snap: &EpochSnapshot) {
        self.replications_cum += snap.replications;
        self.migrations_cum += snap.migrations;
        self.data_loss_cum += snap.data_loss;
        self.repairs_cum += snap.repairs;
        self.dead_letters_cum += snap.dead_letters;
        self.violations_cum += snap.invariant_violations;
        self.replication_cost_cum += snap.replication_cost;
        self.migration_cost_cum += snap.migration_cost;

        let s = &mut self.series;
        s[UTILIZATION].push(snap.utilization);
        s[REPLICAS_TOTAL].push(snap.replicas_total as f64);
        s[REPLICAS_AVG].push(if self.partitions == 0 {
            0.0
        } else {
            snap.replicas_total as f64 / self.partitions as f64
        });
        s[REPLICATION_COST].push(self.replication_cost_cum);
        s[REPLICATION_COST_AVG].push(if self.replications_cum == 0 {
            0.0
        } else {
            self.replication_cost_cum / self.replications_cum as f64
        });
        s[MIGRATIONS_TOTAL].push(self.migrations_cum as f64);
        s[MIGRATIONS_AVG].push(if snap.replicas_total == 0 {
            0.0
        } else {
            self.migrations_cum as f64 / snap.replicas_total as f64
        });
        s[MIGRATION_COST].push(self.migration_cost_cum);
        s[MIGRATION_COST_AVG].push(if self.migrations_cum == 0 {
            0.0
        } else {
            self.migration_cost_cum / self.migrations_cum as f64
        });
        s[LOAD_IMBALANCE].push(snap.load_imbalance);
        s[PATH_LENGTH].push(snap.path_length);
        s[UNSERVED].push(snap.unserved);
        s[SERVED].push(snap.served);
        s[ALIVE_SERVERS].push(snap.alive_servers as f64);
        s[SUICIDES].push(snap.suicides as f64);
        s[LATENCY_MS].push(snap.latency_ms);
        s[SLA_300MS].push(snap.sla_fraction);
        s[DATA_LOSS_TOTAL].push(self.data_loss_cum as f64);
        s[REPAIRS_TOTAL].push(self.repairs_cum as f64);
        s[DEAD_LETTERS_TOTAL].push(self.dead_letters_cum as f64);
        s[INVARIANT_VIOLATIONS].push(self.violations_cum as f64);
    }

    /// Number of recorded epochs.
    pub fn epochs(&self) -> usize {
        self.series[UTILIZATION].len()
    }

    /// A series by name (one of the names listed in the module docs).
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        let idx = SERIES_NAMES.iter().position(|&n| n == name)?;
        Some(&self.series[idx])
    }

    /// All series, documentation order.
    pub fn all_series(&self) -> &[TimeSeries] {
        &self.series
    }
}

/// Time-to-repair: epochs after `fail_epoch` until the replica
/// population first returns to within `tolerance` (a fraction, e.g.
/// `0.05`) of its pre-failure level. `Some(0)` means the population
/// never effectively dipped; `None` means it had not reconverged by the
/// end of the run (or `fail_epoch` is out of range / epoch 0, which has
/// no pre-failure baseline).
pub fn recovery_epochs(metrics: &Metrics, fail_epoch: u64, tolerance: f64) -> Option<u64> {
    let series = metrics.series("replicas_total")?;
    let fail = usize::try_from(fail_epoch).ok()?;
    if fail == 0 || fail >= series.len() {
        return None;
    }
    let baseline = series.values()[fail - 1];
    let floor = baseline * (1.0 - tolerance);
    series.values()[fail..].iter().position(|&v| v >= floor).map(|i| i as u64)
}

/// Compute the mean replica utilization of eq. (23) for one epoch:
/// every replica slot (a server hosting capacity for a partition)
/// contributes `min(1, served / capacity)`; the mean is over slots.
/// `accounts` must come from a pass over `view`.
pub fn mean_utilization(view: &PlacementView, accounts: &TrafficAccounts) -> f64 {
    utilization_over(view, accounts, (0..view.partitions()).map(PartitionId::new))
}

/// [`mean_utilization`] over a sparse active set: only the replicas of
/// `active` partitions can have served anything this epoch, so every
/// skipped replica contributes an exact `+0.0` term to the numerator —
/// the additive identity on this non-negative accumulator — while the
/// denominator comes from the view's O(1) slot counter. Bit-identical
/// to the dense scan whenever the sparse invariant holds (every
/// partition with served traffic is in `active`, ascending).
pub fn mean_utilization_active(
    view: &PlacementView,
    accounts: &TrafficAccounts,
    active: &[u32],
) -> f64 {
    utilization_over(view, accounts, active.iter().map(|&p| PartitionId::new(p)))
}

/// Utilization terms of `parts`' slots (partitions in the given order,
/// slots in ascending server order) over every slot of the view.
fn utilization_over(
    view: &PlacementView,
    accounts: &TrafficAccounts,
    parts: impl Iterator<Item = PartitionId>,
) -> f64 {
    let mut total = 0.0;
    for p in parts {
        let (slots, served) = (view.slots(p), accounts.served(p));
        debug_assert_eq!(slots.len(), served.len(), "accounts from a pass over another view");
        for (slot, &served) in slots.iter().zip(served) {
            total += (served / slot.capacity).min(1.0);
        }
    }
    match view.slot_count() {
        0 => 0.0,
        count => total / count as f64,
    }
}

/// eq. (25): population standard deviation of per-alive-server load.
pub fn epoch_load_imbalance(topo: &Topology, accounts: &TrafficAccounts) -> f64 {
    let loads: Vec<f64> = topo
        .servers()
        .iter()
        .filter(|s| s.alive)
        .map(|s| accounts.server_load(ServerId::new(s.id.0)))
        .collect();
    load_imbalance(&loads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(replicas: usize, replications: usize, cost: f64) -> EpochSnapshot {
        EpochSnapshot {
            utilization: 0.5,
            replicas_total: replicas,
            replications,
            replication_cost: cost,
            ..Default::default()
        }
    }

    #[test]
    fn every_series_is_found_by_name() {
        let m = Metrics::new(4);
        for name in SERIES_NAMES {
            assert!(m.series(name).is_some(), "{name} missing");
        }
        assert!(m.series("nope").is_none());
        assert_eq!(m.all_series().len(), SERIES_NAMES.len());
    }

    #[test]
    fn cumulative_cost_and_average() {
        let mut m = Metrics::new(4);
        m.record(&snap(4, 2, 10.0));
        m.record(&snap(6, 1, 2.0));
        m.record(&snap(6, 0, 0.0));
        let cost = m.series("replication_cost").unwrap();
        assert_eq!(cost.values(), &[10.0, 12.0, 12.0]);
        let avg = m.series("replication_cost_avg").unwrap();
        assert_eq!(avg.values()[0], 5.0);
        assert_eq!(avg.values()[1], 4.0);
        assert_eq!(avg.values()[2], 4.0, "no new replications keeps the average");
        assert_eq!(m.series("replicas_avg").unwrap().values()[1], 1.5);
        assert_eq!(m.epochs(), 3);
    }

    #[test]
    fn recovery_epochs_measures_the_dip() {
        let mut m = Metrics::new(4);
        for replicas in [100, 100, 60, 70, 80, 96, 100] {
            m.record(&snap(replicas, 0, 0.0));
        }
        // Failure at epoch 2 (baseline 100): within 5% means ≥ 95,
        // first reached at epoch 5 → 3 epochs to repair.
        assert_eq!(recovery_epochs(&m, 2, 0.05), Some(3));
        // A 50% tolerance is already met at the dip itself.
        assert_eq!(recovery_epochs(&m, 2, 0.5), Some(0));
        // Zero tolerance needs the full 100 back.
        assert_eq!(recovery_epochs(&m, 2, 0.0), Some(4));
        // Never reconverges within the run.
        let mut short = Metrics::new(4);
        for replicas in [100, 50, 51] {
            short.record(&snap(replicas, 0, 0.0));
        }
        assert_eq!(recovery_epochs(&short, 1, 0.05), None);
        // No baseline before epoch 0; out-of-range epochs.
        assert_eq!(recovery_epochs(&m, 0, 0.05), None);
        assert_eq!(recovery_epochs(&m, 99, 0.05), None);
    }

    #[test]
    fn division_guards() {
        let mut m = Metrics::new(0);
        m.record(&EpochSnapshot::default());
        assert_eq!(m.series("replicas_avg").unwrap().values()[0], 0.0);
        assert_eq!(m.series("migration_cost_avg").unwrap().values()[0], 0.0);
        assert_eq!(m.series("migrations_avg").unwrap().values()[0], 0.0);
    }

    mod utilization {
        use super::super::*;
        use rfh_topology::TopologyBuilder;
        use rfh_traffic::TrafficEngine;
        use rfh_types::{Continent, DatacenterId, GeoPoint};
        use rfh_workload::QueryLoad;

        fn one_dc() -> Topology {
            let mut b = TopologyBuilder::new();
            b.datacenter("A", Continent::Asia, "CHN", "A1", GeoPoint::new(0.0, 0.0), 1, 1, 2)
                .unwrap();
            b.build(0.0, 0).unwrap()
        }

        #[test]
        fn utilization_mixes_full_and_idle_replicas() {
            let topo = one_dc();
            let mut view = PlacementView::new(1, 2, vec![ServerId::new(0)]);
            view.add_capacity(PartitionId::new(0), ServerId::new(0), 10.0);
            view.add_capacity(PartitionId::new(0), ServerId::new(1), 10.0);
            let mut load = QueryLoad::zeros(1, 1);
            load.add(PartitionId::new(0), DatacenterId::new(0), 10);
            let acc = TrafficEngine::new().account(&topo, &load, &view).clone();
            // Server 0 absorbs all 10 (first in DC order): 1.0; server 1
            // idles: 0.0 → mean 0.5.
            assert!((mean_utilization(&view, &acc) - 0.5).abs() < 1e-12);
        }

        #[test]
        fn empty_view_is_zero() {
            let topo = one_dc();
            let view = PlacementView::new(1, 2, vec![ServerId::new(0)]);
            let load = QueryLoad::zeros(1, 1);
            let acc = TrafficEngine::new().account(&topo, &load, &view).clone();
            assert_eq!(mean_utilization(&view, &acc), 0.0);
        }

        #[test]
        fn imbalance_reflects_served_spread() {
            let topo = one_dc();
            let mut view = PlacementView::new(1, 2, vec![ServerId::new(0)]);
            view.add_capacity(PartitionId::new(0), ServerId::new(0), 100.0);
            let mut load = QueryLoad::zeros(1, 1);
            load.add(PartitionId::new(0), DatacenterId::new(0), 50);
            let acc = TrafficEngine::new().account(&topo, &load, &view).clone();
            // Loads are [50, 0] → stddev 25.
            assert!((epoch_load_imbalance(&topo, &acc) - 25.0).abs() < 1e-12);
        }
    }
}
