//! The replication-policy interface.
//!
//! Once per epoch, after the traffic pass, each policy inspects the
//! epoch context and emits actions; the replica manager executes them
//! (enforcing storage and bandwidth limits) and the simulator accounts
//! the costs. Keeping policies pure over a read-only context makes the
//! four algorithms trivially comparable — they see byte-identical
//! inputs.

use crate::manager::ReplicaManager;
use rfh_obs::Recorder;
use rfh_topology::Topology;
use rfh_traffic::{PlacementView, TrafficAccounts, TrafficSmoother};
use rfh_types::{Epoch, PartitionId, ServerId, SimConfig};
use rfh_workload::QueryLoad;

/// Everything a policy may read when deciding.
pub struct EpochContext<'a> {
    /// Current epoch.
    pub epoch: Epoch,
    /// Cluster structure and liveness.
    pub topo: &'a Topology,
    /// This epoch's raw query matrix `q_ijt`.
    pub load: &'a QueryLoad,
    /// This epoch's traffic pass results.
    pub accounts: &'a TrafficAccounts,
    /// Smoothed query averages and traffic (eqs. 9–11).
    pub smoother: &'a TrafficSmoother,
    /// Per-server blocking probabilities (eq. 18), indexed by server.
    pub blocking: &'a [f64],
    /// The frozen placement snapshot the traffic pass ran against —
    /// consistent with `manager` at decide time (no mutation happens
    /// between render and decide), and what the parallel decision pass
    /// evaluates partitions against.
    pub view: &'a PlacementView,
    /// Simulation parameters (Table I).
    pub config: &'a SimConfig,
    /// Decision-event sink (observation-only; `&NullRecorder` when the
    /// run is untraced).
    pub recorder: &'a dyn Recorder,
    /// Sparse-engine active set: the partitions this epoch's traffic
    /// pass touched, sorted ascending. `Some` asks the policy to
    /// evaluate only these partitions (everything outside is frozen —
    /// the policy's own [`ReplicationPolicy::keeps_live`] vouched that
    /// skipping them changes nothing); `None` is the dense full sweep.
    pub active: Option<&'a [u32]>,
}

/// One decision a policy can make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Create a new replica of `partition` on `target`.
    Replicate {
        /// Partition to replicate.
        partition: PartitionId,
        /// Destination server.
        target: ServerId,
    },
    /// Move the replica of `partition` on `from` to `to`.
    Migrate {
        /// Partition whose replica moves.
        partition: PartitionId,
        /// Current replica server.
        from: ServerId,
        /// Destination server.
        to: ServerId,
    },
    /// Remove the replica of `partition` on `server` (the paper's
    /// "suicide": the virtual node reclaims its own resources).
    Suicide {
        /// Partition whose replica is removed.
        partition: PartitionId,
        /// Server hosting the doomed replica.
        server: ServerId,
    },
}

impl Action {
    /// The partition the action acts on.
    pub fn partition(&self) -> PartitionId {
        match *self {
            Action::Replicate { partition, .. }
            | Action::Migrate { partition, .. }
            | Action::Suicide { partition, .. } => partition,
        }
    }
}

/// A replication algorithm under evaluation.
pub trait ReplicationPolicy {
    /// Short name used in reports and figure legends.
    fn name(&self) -> &'static str;

    /// Decide this epoch's actions. `manager` is the *current* replica
    /// map (read-only); actions are applied by the caller afterwards, so
    /// decisions within one epoch see a consistent snapshot.
    fn decide(&mut self, ctx: &EpochContext<'_>, manager: &ReplicaManager) -> Vec<Action>;

    /// Gray-failure hook: set the per-hop drop probability of the
    /// policy's control plane (`0.0` heals). Centralized policies have
    /// no message plane, so the default ignores it; the distributed
    /// agent overrides it to corrupt its WAN transport.
    fn set_message_loss(&mut self, _probability: f64) {}

    /// Whether partition `p` must stay in the sparse engine's active set
    /// next epoch even if nobody queries it.
    ///
    /// The sparse epoch engine carries a partition from one epoch's
    /// active set to the next only while this returns `true`; once it
    /// returns `false` the partition is frozen until new demand (or a
    /// fault) dirties it. An implementation may return `false` only when
    /// evaluating the partition under a dense sweep would provably
    /// produce no action *and no internal state change* this epoch and
    /// every following epoch until the partition is dirtied again —
    /// that is what makes sparse runs byte-identical to dense ones.
    /// `smoother` cells for frozen partitions are lazily decayed, i.e.
    /// possibly stale upper bounds of the dense values; treat any
    /// nonzero read as "still live" and the conservative direction is
    /// preserved. The default keeps everything live — always correct,
    /// never sparse.
    fn keeps_live(
        &self,
        topo: &Topology,
        smoother: &TrafficSmoother,
        manager: &ReplicaManager,
        r_min: usize,
        p: PartitionId,
    ) -> bool {
        let _ = (topo, smoother, manager, r_min, p);
        true
    }
}

/// The four algorithms of the paper's evaluation — plus the
/// failure-domain-aware RFH variant added on top — as a value, handy
/// for CLI flags and experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// The RFH algorithm (traffic-oriented).
    Rfh,
    /// The random baseline.
    Random,
    /// The owner-oriented baseline.
    OwnerOriented,
    /// The request-oriented baseline.
    RequestOriented,
    /// RFH with failure-domain-aware placement: candidate targets are
    /// scored by rack/room/datacenter spread before traffic, so
    /// replica sets survive correlated outages. Not a paper policy —
    /// [`PolicyKind::ALL`] (the figure sweeps) excludes it.
    DomainSpread,
}

impl PolicyKind {
    /// The paper's four, in its presentation order. Figure sweeps and
    /// the comparison runner iterate exactly these; the domain-spread
    /// variant joins via [`PolicyKind::WITH_SPREAD`] where the wider
    /// matrix is wanted.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::RequestOriented,
        PolicyKind::OwnerOriented,
        PolicyKind::Random,
        PolicyKind::Rfh,
    ];

    /// [`PolicyKind::ALL`] plus the domain-spread variant — the full
    /// differential-test and chaos-experiment matrix.
    pub const WITH_SPREAD: [PolicyKind; 5] = [
        PolicyKind::RequestOriented,
        PolicyKind::OwnerOriented,
        PolicyKind::Random,
        PolicyKind::Rfh,
        PolicyKind::DomainSpread,
    ];

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Rfh => "RFH",
            PolicyKind::Random => "Random",
            PolicyKind::OwnerOriented => "Owner",
            PolicyKind::RequestOriented => "Request",
            PolicyKind::DomainSpread => "Spread",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_the_paper() {
        assert_eq!(PolicyKind::ALL.len(), 4);
        let names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["Request", "Owner", "Random", "RFH"]);
        assert_eq!(PolicyKind::Rfh.to_string(), "RFH");
        // The spread variant extends — never replaces — the paper set.
        assert_eq!(PolicyKind::WITH_SPREAD[..4], PolicyKind::ALL);
        assert_eq!(PolicyKind::DomainSpread.name(), "Spread");
        assert!(!PolicyKind::ALL.contains(&PolicyKind::DomainSpread));
    }

    #[test]
    fn actions_are_comparable() {
        let a = Action::Replicate { partition: PartitionId::new(1), target: ServerId::new(2) };
        assert_eq!(a, a);
        assert_ne!(a, Action::Suicide { partition: PartitionId::new(1), server: ServerId::new(2) });
    }
}
