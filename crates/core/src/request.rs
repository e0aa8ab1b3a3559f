//! The request-oriented baseline.
//!
//! "Request-oriented … encourages replicating data on datacenters near
//! to the requesters with the highest query rate. … It will randomly
//! choose a node among the top 3 ones to replicate on. The migration
//! process is started when another node without any replica joins in
//! the list of the top 3." (§II-A; Gnutella-style, refs [16][5].)

use crate::manager::ReplicaManager;
use crate::policy::{sweep, Action, EpochContext, ReplicationPolicy};
use crate::random::UNSERVED_TRIGGER;
use crate::selection::accepting_servers_in_dc;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfh_obs::{DecisionEvent, DecisionKind, Trigger};
use rfh_stats::min_replica_count;
use rfh_types::{DatacenterId, PartitionId};

/// History weight of the requester-rate EWMA. Deliberately heavier than
/// the paper's α = 0.2 traffic smoothing: the top-3 requester set must
/// rank *datacenters*, whose per-partition query counts are small and
/// Poisson-noisy, and a flappy top-3 would trigger spurious migrations
/// every epoch.
const RATE_HISTORY_WEIGHT: f64 = 0.85;

/// §III-D: a replica migrates "to a server that has much more queries
/// than the former one" — the destination's requester rate must exceed
/// the current location's by this factor.
const MIGRATION_RATE_MARGIN: f64 = 2.0;

/// The request-oriented placement baseline.
#[derive(Debug, Clone)]
pub struct RequestOrientedPolicy {
    /// Smoothed per-(partition, dc) query rates, so the top-3 set does
    /// not flap on Poisson noise. Under sparse sweeps rows of inactive
    /// partitions are lazily decayed: [`Self::stamps`] records the last
    /// pass a row was folded, and reactivation folds the missing
    /// all-zero observations in closed form — bit-identical to having
    /// folded them one epoch at a time.
    rates: Vec<f64>,
    /// Pass number at which each partition's rate row was last folded.
    stamps: Vec<u64>,
    /// Update passes taken so far.
    pass: u64,
    partitions: u32,
    dcs: u32,
    rng: StdRng,
}

impl RequestOrientedPolicy {
    /// Create the policy for the given shape; `seed` drives the random
    /// choice among the top 3.
    pub fn new(partitions: u32, dcs: u32, seed: u64) -> Self {
        RequestOrientedPolicy {
            rates: vec![0.0; partitions as usize * dcs as usize],
            stamps: vec![0; partitions as usize],
            pass: 0,
            partitions,
            dcs,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    #[inline]
    fn rate(&self, p: PartitionId, dc: DatacenterId) -> f64 {
        self.rates[p.index() * self.dcs as usize + dc.index()]
    }

    /// Minimum smoothed rate (queries/epoch) for a datacenter to count
    /// as an active requester at all; keeps long-decayed history from
    /// occupying top-3 slots.
    const ACTIVE_RATE: f64 = 0.05;

    /// Top-3 requester datacenters of a partition by smoothed rate,
    /// highest first; DCs below [`Self::ACTIVE_RATE`] are excluded.
    fn top3(&self, p: PartitionId) -> Vec<DatacenterId> {
        let row = &self.rates[p.index() * self.dcs as usize..][..self.dcs as usize];
        let mut idx: Vec<usize> =
            (0..self.dcs as usize).filter(|&j| row[j] >= Self::ACTIVE_RATE).collect();
        idx.sort_by(|&a, &b| {
            row[b].partial_cmp(&row[a]).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.cmp(&b))
        });
        idx.truncate(3);
        idx.into_iter().map(|j| DatacenterId::new(j as u32)).collect()
    }

    /// Fold this epoch's observations into the rate rows of `parts`
    /// (ascending): for each, first the zero observations of any passes
    /// it sat out (closed-form, bitwise what the epoch-at-a-time folds
    /// would have produced), then this pass's observation.
    fn update_rates(&mut self, load: &rfh_workload::QueryLoad, parts: impl Iterator<Item = u32>) {
        self.pass += 1;
        for pu in parts {
            let p = pu as usize;
            let gap = self.pass - 1 - self.stamps[p];
            self.stamps[p] = self.pass;
            let base = p * self.dcs as usize;
            for j in 0..self.dcs {
                let cell = &mut self.rates[base + j as usize];
                if gap > 0 {
                    *cell = rfh_stats::decay_zeros(RATE_HISTORY_WEIGHT, *cell, gap);
                }
                let obs = load.get(PartitionId::new(pu), DatacenterId::new(j)) as f64;
                *cell = rfh_stats::ewma_step(RATE_HISTORY_WEIGHT, *cell, obs);
            }
        }
    }
}

impl ReplicationPolicy for RequestOrientedPolicy {
    fn name(&self) -> &'static str {
        "Request"
    }

    fn heap_bytes(&self) -> usize {
        self.rates.capacity() * std::mem::size_of::<f64>()
            + self.stamps.capacity() * std::mem::size_of::<u64>()
    }

    fn decide(&mut self, ctx: &EpochContext<'_>, manager: &ReplicaManager) -> Vec<Action> {
        self.update_rates(ctx.load, sweep(ctx.active, self.partitions));
        let r_min =
            min_replica_count(ctx.config.failure_rate, ctx.config.min_availability) as usize;
        let mut actions = Vec::new();
        // A frozen partition has every rate cell below
        // [`Self::ACTIVE_RATE`] (the stale cells only overestimate the
        // decayed truth), so its top-3 is empty: a full sweep would take
        // neither the growth nor the migration branch and — crucially
        // for the shared RNG stream — draw no random numbers for it.
        for p_idx in sweep(ctx.active, manager.partitions()) {
            let p = PartitionId::new(p_idx);
            let top3 = self.top3(p);

            let needs_growth = manager.replica_count(p) < r_min
                || ctx.accounts.unserved[p.index()] > UNSERVED_TRIGGER;
            if needs_growth && !top3.is_empty() {
                // Random choice among the top 3 — but only a DC whose
                // *local* requester demand still exceeds the capacity of
                // the replicas already parked there. A requester-local
                // replica serves (almost) only its own datacenter's
                // queries, so piling more copies into a saturated
                // requester DC cannot absorb anything (this is exactly
                // the paper's critique: "it cannot guarantee replica
                // utilization rate since those other requesters will
                // have a lower chance to access these replicas").
                let cap = ctx.config.replica_capacity_mean;
                let mut order: Vec<DatacenterId> = top3
                    .iter()
                    .copied()
                    .filter(|&dc| {
                        let local_capacity = manager
                            .replicas(p)
                            .iter()
                            .filter(|&&s| ctx.topo.servers()[s.index()].datacenter == dc)
                            .count() as f64
                            * cap;
                        self.rate(p, dc) > local_capacity
                    })
                    .collect();
                // Fisher-Yates on ≤ 3 entries.
                for i in (1..order.len()).rev() {
                    let j = self.rng.gen_range(0..=i);
                    order.swap(i, j);
                }
                'dcs: for dc in order {
                    let candidates = accepting_servers_in_dc(ctx.topo, manager, p, dc);
                    if !candidates.is_empty() {
                        let target = candidates[self.rng.gen_range(0..candidates.len())];
                        if ctx.recorder.enabled() {
                            ctx.recorder.decision(DecisionEvent {
                                target: Some(target.0),
                                // The requester DC's smoothed rate vs the
                                // active-requester bar.
                                traffic: self.rate(p, dc),
                                threshold: Self::ACTIVE_RATE,
                                q_avg: ctx.smoother.q_avg(p),
                                blocking: ctx
                                    .blocking
                                    .get(target.index())
                                    .copied()
                                    .unwrap_or(f64::NAN),
                                unserved: ctx.accounts.unserved[p.index()],
                                ..DecisionEvent::new(
                                    ctx.epoch.raw(),
                                    "Request",
                                    DecisionKind::Replicate,
                                    p.0,
                                    Trigger::RequesterTop3,
                                )
                            });
                        }
                        actions.push(Action::Replicate { partition: p, target });
                        break 'dcs;
                    }
                }
            } else if !needs_growth {
                // Migration trigger (§II-A): "the migration process is
                // started when another node without any replica joins in
                // the list of the top 3" — i.e. whenever a top-3
                // requester DC lacks a replica while one idles outside
                // the top 3, move it. The condition persists until the
                // placement matches the demand, which is what makes this
                // baseline migrate so much under flash crowds.
                let uncovered: Vec<DatacenterId> = top3
                    .iter()
                    .copied()
                    .filter(|&dc| {
                        !manager
                            .replicas(p)
                            .iter()
                            .any(|&s| ctx.topo.servers()[s.index()].datacenter == dc)
                    })
                    .collect();
                if let Some(&dest_dc) = uncovered.first() {
                    let holder = manager.holder(p);
                    // §III-D: only migrate to "much more queries than the
                    // former one" — compare requester rates at both ends.
                    let dest_rate = self.rate(p, dest_dc);
                    let victim = manager.replicas(p).iter().copied().find(|&s| {
                        s != holder && {
                            let dc = ctx.topo.servers()[s.index()].datacenter;
                            !top3.contains(&dc)
                                && dest_rate >= MIGRATION_RATE_MARGIN * self.rate(p, dc).max(0.05)
                        }
                    });
                    if let Some(from) = victim {
                        let candidates = accepting_servers_in_dc(ctx.topo, manager, p, dest_dc);
                        if !candidates.is_empty() {
                            let to = candidates[self.rng.gen_range(0..candidates.len())];
                            if ctx.recorder.enabled() {
                                let from_dc = ctx.topo.servers()[from.index()].datacenter;
                                ctx.recorder.decision(DecisionEvent {
                                    source: Some(from.0),
                                    target: Some(to.0),
                                    // §III-D: destination rate vs the
                                    // margin over the victim's rate.
                                    traffic: dest_rate,
                                    threshold: MIGRATION_RATE_MARGIN
                                        * self.rate(p, from_dc).max(0.05),
                                    q_avg: ctx.smoother.q_avg(p),
                                    blocking: ctx
                                        .blocking
                                        .get(to.index())
                                        .copied()
                                        .unwrap_or(f64::NAN),
                                    unserved: ctx.accounts.unserved[p.index()],
                                    ..DecisionEvent::new(
                                        ctx.epoch.raw(),
                                        "Request",
                                        DecisionKind::Migrate,
                                        p.0,
                                        Trigger::Top3Shift,
                                    )
                                });
                            }
                            actions.push(Action::Migrate { partition: p, from, to });
                        }
                    }
                }
            }
        }
        actions
    }

    fn keeps_live(
        &self,
        _topo: &rfh_topology::Topology,
        _smoother: &rfh_traffic::TrafficSmoother,
        _manager: &ReplicaManager,
        _r_min: usize,
        p: PartitionId,
    ) -> bool {
        // Live while any requester rate could still put a DC in the
        // top-3. With every cell below the bar the top-3 is empty and
        // the dense sweep is inert for this partition: the growth
        // branch needs a non-empty top-3 (even below the floor — this
        // baseline only ever places near requesters), the migration
        // branch needs an uncovered top-3 entry, and neither touches
        // the RNG. Cells decay monotonically while unqueried, so the
        // possibly-stale read only errs toward keeping the partition
        // live.
        let row = &self.rates[p.index() * self.dcs as usize..][..self.dcs as usize];
        row.iter().any(|&r| r >= Self::ACTIVE_RATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;

    fn policy(h: &Harness) -> RequestOrientedPolicy {
        RequestOrientedPolicy::new(h.cfg.partitions, h.topo.datacenters().len() as u32, 7)
    }

    #[test]
    fn replicates_into_a_top3_requester_dc() {
        let h = Harness::paper_small();
        let mut pol = policy(&h);
        let manager = h.manager.clone();
        // Partition 0 queried heavily from DCs 7, 8, 9.
        let parts = h.epoch_with_load(&manager, |l| {
            l.add(PartitionId::new(0), DatacenterId::new(7), 50);
            l.add(PartitionId::new(0), DatacenterId::new(8), 30);
            l.add(PartitionId::new(0), DatacenterId::new(9), 20);
            l.add(PartitionId::new(0), DatacenterId::new(1), 2);
        });
        let ctx = parts.ctx(&h);
        let actions = pol.decide(&ctx, &manager);
        // Partition 0 grows (count 1 < r_min); target must be in 7/8/9.
        let target_dcs: Vec<u32> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Replicate { partition, target } if partition.index() == 0 => {
                    Some(ctx.topo.servers()[target.index()].datacenter.0)
                }
                _ => None,
            })
            .collect();
        assert_eq!(target_dcs.len(), 1);
        assert!([7, 8, 9].contains(&target_dcs[0]), "got DC {}", target_dcs[0]);
    }

    #[test]
    fn no_demand_no_growth_targets() {
        // With zero demand everywhere there is no top-3, so even the
        // r_min floor cannot act (the paper's request-oriented scheme
        // only ever places replicas near requesters).
        let h = Harness::paper_small();
        let mut pol = policy(&h);
        let (parts, manager) = h.quiet_epoch();
        let ctx = parts.ctx(&h);
        assert!(pol.decide(&ctx, &manager).is_empty());
    }

    #[test]
    fn migrates_when_top3_shifts() {
        let h = Harness::paper_small();
        let mut pol = policy(&h);
        let mut manager = h.manager.clone();
        let p = PartitionId::new(0);

        // Epoch 1: demand from DC 8 — replica lands there (r_min growth).
        let parts = h.epoch_with_load(&manager, |l| {
            l.add(p, DatacenterId::new(8), 60);
        });
        let ctx = parts.ctx(&h);
        let actions = pol.decide(&ctx, &manager);
        for a in actions {
            manager.apply(&h.topo, a).unwrap();
        }
        assert_eq!(manager.replica_count(p), 2);
        let replica_dc = |m: &ReplicaManager| {
            m.replicas(p)
                .iter()
                .map(|&s| h.topo.servers()[s.index()].datacenter.0)
                .collect::<Vec<u32>>()
        };
        assert!(replica_dc(&manager).contains(&8));

        // Several epochs of *modest* demand from DC 2 only (small enough
        // that the holder serves it, so the growth trigger stays quiet):
        // the smoothed top-3 eventually flips to {2}, DC 2 is uncovered,
        // and the replica parked at 8 must migrate there.
        let mut migrated = false;
        for _ in 0..60 {
            let parts = h.epoch_with_load(&manager, |l| {
                l.add(p, DatacenterId::new(2), 4);
            });
            let ctx = parts.ctx(&h);
            for a in pol.decide(&ctx, &manager) {
                if let Action::Migrate { partition, from, to } = a {
                    assert_eq!(partition, p);
                    assert_eq!(h.topo.servers()[from.index()].datacenter.0, 8);
                    assert_eq!(h.topo.servers()[to.index()].datacenter.0, 2);
                    migrated = true;
                }
                manager.apply(&h.topo, a).unwrap();
            }
            if migrated {
                break;
            }
        }
        assert!(migrated, "request-oriented must chase the requesters");
    }

    #[test]
    fn deterministic_under_seed() {
        let h = Harness::paper_small();
        let run = || {
            let mut pol = policy(&h);
            let manager = h.manager.clone();
            let parts = h.epoch_with_load(&manager, |l| {
                l.add(PartitionId::new(1), DatacenterId::new(4), 40);
                l.add(PartitionId::new(1), DatacenterId::new(5), 30);
            });
            let ctx = parts.ctx(&h);
            pol.decide(&ctx, &manager)
        };
        assert_eq!(run(), run());
    }
}
