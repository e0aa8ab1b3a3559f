//! Simulation configuration: the complete parameter set of Table I.
//!
//! Defaults reproduce the paper's environment exactly:
//!
//! | Parameter | Default |
//! |---|---|
//! | Max server storage capacity | 10 GB |
//! | Server storage rate limit (φ) | 70% |
//! | Replication bandwidth | 300 MB/epoch |
//! | Migration bandwidth | 100 MB/epoch |
//! | Epoch | 10 seconds |
//! | Queries per epoch | Poisson(λ = 300) |
//! | Partitions | 64 |
//! | Partition size | 512 KB |
//! | Failure rate | 0.1 |
//! | Minimum availability | 0.8 |
//! | α, β, γ, δ, μ | 0.2, 2, 1.5, 0.2, 1 |

use crate::units::{Bandwidth, Bytes};
use crate::{Result, RfhError};

/// Decision thresholds of the RFH algorithm (§II-C to §II-E).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Smoothing factor `α ∈ (0, 1)` for query and traffic EWMA
    /// (eqs. 10–11). Larger α gives more weight to history.
    pub alpha: f64,
    /// Holder-overload factor `β > 1` (eq. 12): the holder of a partition
    /// is overloaded when its traffic exceeds `β·q̄`.
    pub beta: f64,
    /// Traffic-hub factor `γ > 1` (eq. 13): a forwarding node becomes a
    /// hub when its traffic exceeds `γ·q̄`.
    pub gamma: f64,
    /// Suicide factor `δ` (eq. 15): a replica whose traffic falls below
    /// `δ·q̄` commits suicide if availability survives without it.
    pub delta: f64,
    /// Migration-benefit factor `μ` (eq. 16): migrate from node `k` to
    /// node `j` only if `tr_j − tr_k ≥ μ·t̄r`.
    pub mu: f64,
    /// Storage occupancy upper limit `φ` (eq. 19); 0.7 by default.
    pub phi: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds { alpha: 0.2, beta: 2.0, gamma: 1.5, delta: 0.2, mu: 1.0, phi: 0.7 }
    }
}

impl Thresholds {
    /// Validate the paper's domain constraints on every factor.
    pub fn validate(&self) -> Result<()> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(RfhError::InvalidConfig {
                parameter: "alpha",
                reason: format!("must satisfy 0 < α < 1, got {}", self.alpha),
            });
        }
        if self.beta <= 1.0 {
            return Err(RfhError::InvalidConfig {
                parameter: "beta",
                reason: format!("must satisfy β > 1, got {}", self.beta),
            });
        }
        if self.gamma <= 1.0 {
            return Err(RfhError::InvalidConfig {
                parameter: "gamma",
                reason: format!("must satisfy γ > 1, got {}", self.gamma),
            });
        }
        if self.delta < 0.0 || self.delta >= 1.0 {
            return Err(RfhError::InvalidConfig {
                parameter: "delta",
                reason: format!("must satisfy 0 ≤ δ < 1, got {}", self.delta),
            });
        }
        if self.mu < 0.0 {
            return Err(RfhError::InvalidConfig {
                parameter: "mu",
                reason: format!("must satisfy μ ≥ 0, got {}", self.mu),
            });
        }
        if !(self.phi > 0.0 && self.phi <= 1.0) {
            return Err(RfhError::InvalidConfig {
                parameter: "phi",
                reason: format!("must satisfy 0 < φ ≤ 1, got {}", self.phi),
            });
        }
        Ok(())
    }
}

/// The four-stage flash-crowd schedule of §III-A.
///
/// Each stage lasts a quarter of the run. A stage concentrates
/// `hot_fraction` of all queries on the datacenters named in its hot set;
/// the final stage is uniform. Datacenters are referenced by their index
/// in the topology (A = 0, B = 1, ... J = 9 in the paper preset).
#[derive(Debug, Clone, PartialEq)]
pub struct FlashCrowdConfig {
    /// Fraction of queries that originate near the stage's hot
    /// datacenters (0.8 in the paper: "80% of queries").
    pub hot_fraction: f64,
    /// Hot datacenter indices per stage; an empty set means uniform.
    pub stages: Vec<Vec<u32>>,
}

impl Default for FlashCrowdConfig {
    fn default() -> Self {
        // Paper stages: (H, I, J) → (A, B, C) → (E, F, G) → uniform.
        FlashCrowdConfig {
            hot_fraction: 0.8,
            stages: vec![vec![7, 8, 9], vec![0, 1, 2], vec![4, 5, 6], vec![]],
        }
    }
}

impl FlashCrowdConfig {
    /// The hot set active at `epoch` of a run `total_epochs` long.
    /// Returns an empty slice when the stage is uniform.
    pub fn hot_set(&self, epoch: u64, total_epochs: u64) -> &[u32] {
        if self.stages.is_empty() || total_epochs == 0 {
            return &[];
        }
        let stage_len = (total_epochs / self.stages.len() as u64).max(1);
        let stage = ((epoch / stage_len) as usize).min(self.stages.len() - 1);
        &self.stages[stage]
    }

    /// Validate the hot fraction domain.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.hot_fraction) {
            return Err(RfhError::InvalidConfig {
                parameter: "hot_fraction",
                reason: format!("must be in [0, 1], got {}", self.hot_fraction),
            });
        }
        Ok(())
    }
}

/// Complete simulation configuration (Table I plus structural knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Maximum storage per server; 10 GB in Table I.
    pub max_server_storage: Bytes,
    /// Replication bandwidth per server; 300 MB/epoch in Table I.
    pub replication_bandwidth: Bandwidth,
    /// Migration bandwidth per server; 100 MB/epoch in Table I.
    pub migration_bandwidth: Bandwidth,
    /// Wall-clock seconds per epoch; 10 s in Table I (only used for
    /// reporting, the simulator itself is epoch-driven).
    pub epoch_seconds: u64,
    /// Mean of the Poisson query arrival process per epoch; λ = 300.
    pub queries_per_epoch: f64,
    /// Number of data partitions; 64 in Table I.
    pub partitions: u32,
    /// Size of each partition; 512 KB in Table I.
    pub partition_size: Bytes,
    /// Per-virtual-node failure probability used in the availability
    /// lower bound (eq. 14); 0.1 in Table I.
    pub failure_rate: f64,
    /// Minimum expected availability `A_expect`; 0.8 in Table I
    /// (together with `failure_rate` this yields `r_min = 2`).
    pub min_availability: f64,
    /// RFH decision thresholds (α, β, γ, δ, μ, φ).
    pub thresholds: Thresholds,
    /// Mean per-replica query-processing capacity per epoch; calibrated
    /// against Fig. 4's steady state: the paper serves λ = 300
    /// queries/epoch with ≈250 replicas at ≈85% utilization, i.e.
    /// ≈1.5 queries/epoch per replica. Individual servers draw their
    /// exact capacity around this mean "according to their own physical
    /// condition" (§III-A).
    pub replica_capacity_mean: f64,
    /// Relative spread (± fraction of the mean) of per-server capacity.
    pub capacity_spread: f64,
    /// Zipf skew of partition popularity (θ = 0 is uniform; the paper's
    /// "hot partition" narrative implies a skewed draw).
    pub partition_skew: f64,
    /// Flash-crowd schedule used by the flash-crowd scenario.
    pub flash_crowd: FlashCrowdConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_server_storage: Bytes::gib(10),
            replication_bandwidth: Bandwidth::mib_per_epoch(300),
            migration_bandwidth: Bandwidth::mib_per_epoch(100),
            epoch_seconds: 10,
            queries_per_epoch: 300.0,
            partitions: 64,
            partition_size: Bytes::kib(512),
            failure_rate: 0.1,
            min_availability: 0.8,
            thresholds: Thresholds::default(),
            replica_capacity_mean: 1.5,
            capacity_spread: 0.25,
            partition_skew: 0.8,
            flash_crowd: FlashCrowdConfig::default(),
        }
    }
}

impl SimConfig {
    /// Validate every parameter domain.
    pub fn validate(&self) -> Result<()> {
        self.thresholds.validate()?;
        self.flash_crowd.validate()?;
        if self.queries_per_epoch <= 0.0 {
            return Err(RfhError::InvalidConfig {
                parameter: "queries_per_epoch",
                reason: format!("λ must be positive, got {}", self.queries_per_epoch),
            });
        }
        if self.partitions == 0 {
            return Err(RfhError::InvalidConfig {
                parameter: "partitions",
                reason: "at least one partition is required".into(),
            });
        }
        if self.partition_size == Bytes::ZERO {
            return Err(RfhError::InvalidConfig {
                parameter: "partition_size",
                reason: "partitions cannot be empty".into(),
            });
        }
        if self.partition_size > self.max_server_storage {
            return Err(RfhError::InvalidConfig {
                parameter: "partition_size",
                reason: format!(
                    "a single partition ({}) exceeds server storage ({})",
                    self.partition_size, self.max_server_storage
                ),
            });
        }
        if !(0.0..1.0).contains(&self.failure_rate) {
            return Err(RfhError::InvalidConfig {
                parameter: "failure_rate",
                reason: format!("must be in [0, 1), got {}", self.failure_rate),
            });
        }
        if !(0.0..1.0).contains(&self.min_availability) {
            return Err(RfhError::InvalidConfig {
                parameter: "min_availability",
                reason: format!("must be in [0, 1), got {}", self.min_availability),
            });
        }
        if self.replica_capacity_mean <= 0.0 {
            return Err(RfhError::InvalidConfig {
                parameter: "replica_capacity_mean",
                reason: "capacity must be positive".into(),
            });
        }
        if !(0.0..1.0).contains(&self.capacity_spread) {
            return Err(RfhError::InvalidConfig {
                parameter: "capacity_spread",
                reason: format!("must be in [0, 1), got {}", self.capacity_spread),
            });
        }
        if self.partition_skew < 0.0 {
            return Err(RfhError::InvalidConfig {
                parameter: "partition_skew",
                reason: "Zipf skew must be non-negative".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let c = SimConfig::default();
        assert_eq!(c.max_server_storage, Bytes::gib(10));
        assert_eq!(c.replication_bandwidth, Bandwidth::mib_per_epoch(300));
        assert_eq!(c.migration_bandwidth, Bandwidth::mib_per_epoch(100));
        assert_eq!(c.epoch_seconds, 10);
        assert_eq!(c.queries_per_epoch, 300.0);
        assert_eq!(c.partitions, 64);
        assert_eq!(c.partition_size, Bytes::kib(512));
        assert_eq!(c.failure_rate, 0.1);
        assert_eq!(c.min_availability, 0.8);
        let t = c.thresholds;
        assert_eq!(
            (t.alpha, t.beta, t.gamma, t.delta, t.mu, t.phi),
            (0.2, 2.0, 1.5, 0.2, 1.0, 0.7)
        );
        c.validate().expect("paper defaults are valid");
    }

    #[test]
    fn threshold_domains_enforced() {
        let ok = Thresholds::default();
        assert!(ok.validate().is_ok());
        assert!(Thresholds { alpha: 0.0, ..ok }.validate().is_err());
        assert!(Thresholds { alpha: 1.0, ..ok }.validate().is_err());
        assert!(Thresholds { beta: 1.0, ..ok }.validate().is_err());
        assert!(Thresholds { gamma: 0.9, ..ok }.validate().is_err());
        assert!(Thresholds { delta: -0.1, ..ok }.validate().is_err());
        assert!(Thresholds { delta: 1.0, ..ok }.validate().is_err());
        assert!(Thresholds { mu: -1.0, ..ok }.validate().is_err());
        assert!(Thresholds { phi: 0.0, ..ok }.validate().is_err());
        assert!(Thresholds { phi: 1.01, ..ok }.validate().is_err());
        // δ = 0 (suicide disabled) is a legal ablation.
        assert!(Thresholds { delta: 0.0, ..ok }.validate().is_ok());
    }

    #[test]
    fn config_domains_enforced() {
        let ok = SimConfig::default();
        assert!(SimConfig { queries_per_epoch: 0.0, ..ok.clone() }.validate().is_err());
        assert!(SimConfig { partitions: 0, ..ok.clone() }.validate().is_err());
        assert!(SimConfig { partition_size: Bytes::ZERO, ..ok.clone() }.validate().is_err());
        assert!(SimConfig { failure_rate: 1.0, ..ok.clone() }.validate().is_err());
        assert!(SimConfig { min_availability: -0.1, ..ok.clone() }.validate().is_err());
        assert!(SimConfig { replica_capacity_mean: 0.0, ..ok.clone() }.validate().is_err());
        assert!(SimConfig { capacity_spread: 1.0, ..ok.clone() }.validate().is_err());
        assert!(SimConfig { partition_skew: -0.5, ..ok.clone() }.validate().is_err());
        let too_big = SimConfig { partition_size: Bytes::gib(20), ..ok };
        assert!(too_big.validate().is_err(), "partition larger than a server");
    }

    #[test]
    fn flash_crowd_default_matches_paper_stages() {
        let fc = FlashCrowdConfig::default();
        assert_eq!(fc.hot_fraction, 0.8);
        assert_eq!(fc.stages.len(), 4);
        // Stage 1: H, I, J (indices 7, 8, 9).
        assert_eq!(fc.hot_set(0, 400), &[7, 8, 9]);
        assert_eq!(fc.hot_set(99, 400), &[7, 8, 9]);
        // Stage 2: A, B, C.
        assert_eq!(fc.hot_set(100, 400), &[0, 1, 2]);
        // Stage 3: E, F, G.
        assert_eq!(fc.hot_set(200, 400), &[4, 5, 6]);
        // Stage 4: uniform.
        assert_eq!(fc.hot_set(300, 400), &[] as &[u32]);
        // Epochs past the end stay in the last stage.
        assert_eq!(fc.hot_set(999, 400), &[] as &[u32]);
    }

    #[test]
    fn flash_crowd_degenerate_inputs() {
        let fc = FlashCrowdConfig::default();
        assert_eq!(fc.hot_set(0, 0), &[] as &[u32]);
        let empty = FlashCrowdConfig { hot_fraction: 0.8, stages: vec![] };
        assert_eq!(empty.hot_set(5, 100), &[] as &[u32]);
        // Fewer epochs than stages: stage length clamps to 1.
        assert_eq!(fc.hot_set(1, 2), &[0, 1, 2]);
    }

    #[test]
    fn flash_crowd_fraction_validated() {
        let bad = FlashCrowdConfig { hot_fraction: 1.5, ..Default::default() };
        assert!(bad.validate().is_err());
    }
}
