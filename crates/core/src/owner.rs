//! The owner-oriented baseline.
//!
//! "The coordinator will consider maximizing availability while
//! minimizing replication cost. … it is better to choose a different
//! datacenter close to the primary partition owner to replicate on"
//! (§II-A, in the spirit of PAST / CFS / Overlook, refs [7][11][12][13]).
//!
//! Placement ranks candidates by:
//! 1. the *minimum availability level* against the existing replica set
//!    (higher first — a different datacenter beats a different room,
//!    etc., per the label scheme, read from topology ids);
//! 2. replication cost from the holder, i.e. distance (closer first);
//! 3. server id (determinism).
//!
//! Migration "actually happens only when physical nodes are added into
//! or removed from the system" (§III-D) — replica loss on failure is
//! handled by re-replication (the availability floor), so this policy
//! emits no migrations and no suicides.

use crate::manager::ReplicaManager;
use crate::policy::{sweep, Action, EpochContext, ReplicationPolicy};
use crate::random::{growth_event, UNSERVED_TRIGGER};
use crate::selection::accepting_in_dc;
use rfh_stats::min_replica_count;
use rfh_types::{AvailabilityLevel, PartitionId, ServerId};
use std::cmp::Ordering;

/// The owner-oriented placement baseline.
#[derive(Debug, Clone, Default)]
pub struct OwnerOrientedPolicy;

impl OwnerOrientedPolicy {
    /// Create the policy.
    pub fn new() -> Self {
        Self
    }

    /// Pick the best target per the availability-then-cost ranking.
    ///
    /// The scan goes datacenter by datacenter: a candidate's distance
    /// from the holder depends only on its datacenter, and its level is
    /// 5 unless the datacenter holds a replica, in which case only those
    /// local replicas can lower it. Levels come from topology ids, each
    /// key is computed once, and a datacenter that cannot beat the best
    /// key so far is skipped.
    fn pick_target(
        ctx: &EpochContext<'_>,
        manager: &ReplicaManager,
        p: PartitionId,
    ) -> Option<ServerId> {
        let servers = ctx.topo.servers();
        let holder_dc = servers[manager.holder(p).index()].datacenter;
        let replicas = manager.replicas(p);
        let top = AvailabilityLevel::DifferentDatacenter.value();
        // `Iterator::max_by` over (level, closer, lower id): a later
        // candidate wins unless the best so far is strictly greater.
        let mut best: Option<(u8, f64, ServerId)> = None;
        for dc in ctx.topo.datacenters() {
            let local =
                || replicas.iter().map(|&r| &servers[r.index()]).filter(|r| r.datacenter == dc.id);
            let ceiling = if local().next().is_none() { top } else { top - 1 };
            let dist = ctx.topo.distance_km(dc.id, holder_dc).unwrap_or(f64::MAX);
            if let Some((level, best_dist, _)) = best {
                if ceiling < level || (ceiling == level && dist > best_dist) {
                    continue;
                }
            }
            for s in accepting_in_dc(ctx.topo, manager, p, dc.id) {
                let server = &servers[s.index()];
                let level =
                    local().map(|r| server.availability_level(r).value()).min().unwrap_or(top);
                let candidate = (level, dist, s);
                if best.is_none_or(|b| owner_rank(b, candidate) != Ordering::Greater) {
                    best = Some(candidate);
                }
            }
        }
        best.map(|(_, _, s)| s)
    }
}

/// The owner ranking: higher availability level, then closer to the
/// holder, then lower id.
fn owner_rank((la, da, a): (u8, f64, ServerId), (lb, db, b): (u8, f64, ServerId)) -> Ordering {
    la.cmp(&lb).then_with(|| db.partial_cmp(&da).unwrap_or(Ordering::Equal)).then_with(|| b.cmp(&a))
}

impl ReplicationPolicy for OwnerOrientedPolicy {
    fn name(&self) -> &'static str {
        "Owner"
    }

    fn decide(&mut self, ctx: &EpochContext<'_>, manager: &ReplicaManager) -> Vec<Action> {
        let r_min =
            min_replica_count(ctx.config.failure_rate, ctx.config.min_availability) as usize;
        let mut actions = Vec::new();
        // Every partition outside the active set is at the floor with
        // zero unserved demand, so a full sweep would `continue` on it
        // anyway.
        for p_idx in sweep(ctx.active, manager.partitions()) {
            let p = PartitionId::new(p_idx);
            let needs_growth = manager.replica_count(p) < r_min
                || ctx.accounts.unserved[p.index()] > UNSERVED_TRIGGER;
            if !needs_growth {
                continue;
            }
            if let Some(target) = Self::pick_target(ctx, manager, p) {
                if ctx.recorder.enabled() {
                    ctx.recorder.decision(growth_event(ctx, manager, "Owner", p, target, r_min));
                }
                actions.push(Action::Replicate { partition: p, target });
            }
        }
        actions
    }

    fn keeps_live(
        &self,
        _topo: &rfh_topology::Topology,
        _smoother: &rfh_traffic::TrafficSmoother,
        manager: &ReplicaManager,
        r_min: usize,
        p: PartitionId,
    ) -> bool {
        // Same growth predicate as the random baseline: below the floor
        // it acts unconditionally, above it only on unserved residual,
        // which requires this epoch's demand (a dirtied partition). No
        // migration, no suicide, no per-partition state.
        manager.replica_count(p) < r_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;

    #[test]
    fn prefers_foreign_datacenter_close_to_holder() {
        let h = Harness::paper_small();
        let mut policy = OwnerOrientedPolicy::new();
        let (ctx_parts, manager) = h.quiet_epoch();
        let ctx = ctx_parts.ctx(&h);
        let actions = policy.decide(&ctx, &manager);
        assert_eq!(actions.len(), manager.partitions() as usize, "r_min growth");
        for a in actions {
            let Action::Replicate { partition, target } = a else {
                panic!("owner policy only replicates, got {a:?}");
            };
            let holder = manager.holder(partition);
            let holder_dc = ctx.topo.servers()[holder.index()].datacenter;
            let target_dc = ctx.topo.servers()[target.index()].datacenter;
            // Level 5 placement: a different datacenter…
            assert_ne!(holder_dc, target_dc, "first extra replica goes off-site");
            // …and among foreign DCs, (one of) the closest.
            let d_target = ctx.topo.distance_km(holder_dc, target_dc).unwrap();
            let d_min = ctx
                .topo
                .datacenters()
                .iter()
                .filter(|dc| dc.id != holder_dc)
                .map(|dc| ctx.topo.distance_km(holder_dc, dc.id).unwrap())
                .fold(f64::INFINITY, f64::min);
            assert!(
                d_target <= d_min + 1.0,
                "{partition}: went {d_target} km when {d_min} km was available"
            );
        }
    }

    #[test]
    fn second_growth_step_keeps_diversity() {
        let h = Harness::paper_small();
        let mut policy = OwnerOrientedPolicy::new();
        let (mut ctx_parts, manager) = h.epoch_at_r_min();
        // Partition 0 is under-served: owner grows it once more.
        ctx_parts.accounts.unserved[0] = 5.0;
        let ctx = ctx_parts.ctx(&h);
        let actions = policy.decide(&ctx, &manager);
        assert_eq!(actions.len(), 1);
        let Action::Replicate { partition, target } = actions[0] else {
            panic!("expected replicate");
        };
        assert_eq!(partition.index(), 0);
        // The new copy avoids every server already hosting the partition.
        assert!(!manager.hosts(partition, target));
    }

    #[test]
    fn no_actions_when_satisfied() {
        let h = Harness::paper_small();
        let mut policy = OwnerOrientedPolicy::new();
        let (ctx_parts, manager) = h.epoch_at_r_min();
        let ctx = ctx_parts.ctx(&h);
        assert!(policy.decide(&ctx, &manager).is_empty());
    }
}
