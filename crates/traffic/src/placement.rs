//! The per-epoch placement view the traffic pass reads.
//!
//! The replica manager (in `rfh-core`) owns the authoritative replica
//! map; each epoch it renders this view: for every partition, one
//! replica slot per server that hosts it — the server and the total
//! query-processing capacity its replicas of the partition offer this
//! epoch (`Σ_l C_ikl` in the paper's notation) — plus each partition's
//! primary holder. Slots are sorted by server id and stored as
//! [`SlotRows`], so the view costs memory per replica, not per server.
//! Slot order is also the order in which the traffic pass lets a
//! datacenter's replicas absorb queries. The view is plain content:
//! two views are equal when their slots and holders are.

use crate::slots::SlotRows;
use rfh_types::{PartitionId, ServerId};

/// One replica slot: a server hosting the partition and the capacity
/// its replicas offer, queries/epoch (always positive).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Slot {
    /// The hosting server.
    pub server: ServerId,
    /// Σ over the server's replicas of the partition of per-replica
    /// capacity.
    pub capacity: f64,
}

/// Placement + capacity view for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementView {
    /// Each partition's replica slots, ascending by server id.
    slots: SlotRows<Slot>,
    /// Primary holder server of each partition.
    holders: Vec<ServerId>,
    /// Servers of the cluster the view describes.
    servers: u32,
    /// Slots over all partitions, maintained on every mutation so
    /// sparse consumers learn the replica-slot population in O(1).
    slot_count: usize,
}

impl PlacementView {
    /// Empty view: no capacity anywhere; holders must be set for every
    /// partition before use.
    pub fn new(partitions: u32, servers: u32, holders: Vec<ServerId>) -> Self {
        assert_eq!(holders.len(), partitions as usize, "one holder per partition required");
        PlacementView { slots: SlotRows::new(partitions as usize), holders, servers, slot_count: 0 }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> u32 {
        self.slots.rows() as u32
    }

    /// Number of servers.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Primary holder of a partition.
    #[inline]
    pub fn holder(&self, p: PartitionId) -> ServerId {
        self.holders[p.index()]
    }

    /// Partition `p`'s replica slots, ascending by server id.
    #[inline]
    pub fn slots(&self, p: PartitionId) -> &[Slot] {
        self.slots.row(p.index())
    }

    /// Capacity of partition `p` replicas on server `s` (zero when `s`
    /// hosts none).
    pub fn capacity(&self, p: PartitionId, s: ServerId) -> f64 {
        let slots = self.slots(p);
        slots.binary_search_by_key(&s, |slot| slot.server).map_or(0.0, |i| slots[i].capacity)
    }

    /// Add replica capacity for `(p, s)`. Zero capacity on a server
    /// without a slot adds no slot.
    pub fn add_capacity(&mut self, p: PartitionId, s: ServerId, queries_per_epoch: f64) {
        debug_assert!(queries_per_epoch >= 0.0);
        match self.slots(p).binary_search_by_key(&s, |slot| slot.server) {
            Ok(i) => self.slots.row_mut(p.index())[i].capacity += queries_per_epoch,
            Err(i) if queries_per_epoch > 0.0 => {
                self.slots.insert(p.index(), i, Slot { server: s, capacity: queries_per_epoch });
                self.slot_count += 1;
            }
            Err(_) => {}
        }
    }

    /// Total capacity provisioned for a partition across the cluster.
    pub fn partition_capacity_total(&self, p: PartitionId) -> f64 {
        self.slots(p).iter().map(|slot| slot.capacity).sum()
    }

    /// Reshape in place to `partitions × servers`, dropping every slot
    /// and resetting every holder to server 0 (callers re-set holders
    /// before use). Reuses the backing allocations — this is the
    /// "rebuild" half of delta maintenance when the cluster shape moved.
    pub fn reset(&mut self, partitions: u32, servers: u32) {
        self.slots.reshape(partitions as usize);
        self.holders.clear();
        self.holders.resize(partitions as usize, ServerId::new(0));
        self.servers = servers;
        self.slot_count = 0;
    }

    /// Re-point a partition's primary holder (delta update).
    pub fn set_holder(&mut self, p: PartitionId, holder: ServerId) {
        self.holders[p.index()] = holder;
    }

    /// Drop one partition's slots (delta update: callers then re-add
    /// the partition's current replica capacities).
    pub fn clear_partition(&mut self, p: PartitionId) {
        self.slot_count -= self.slots(p).len();
        self.slots.reset_row(p.index(), 0);
    }

    /// Replica slots over all partitions, in O(1).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// Servers hosting any replica of `p`, ascending id.
    pub fn replica_servers(&self, p: PartitionId) -> impl Iterator<Item = ServerId> + '_ {
        self.slots(p).iter().map(|slot| slot.server)
    }

    /// Bytes of heap the view holds, by allocation capacity.
    pub fn heap_bytes(&self) -> usize {
        self.slots.heap_bytes() + self.holders.capacity() * std::mem::size_of::<ServerId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::INLINE_SLOTS;

    fn p(i: u32) -> PartitionId {
        PartitionId::new(i)
    }
    fn s(i: u32) -> ServerId {
        ServerId::new(i)
    }

    #[test]
    fn empty_view() {
        let v = PlacementView::new(2, 3, vec![s(0), s(2)]);
        assert_eq!(v.partitions(), 2);
        assert_eq!(v.servers(), 3);
        assert_eq!(v.holder(p(1)), s(2));
        assert_eq!(v.capacity(p(0), s(0)), 0.0);
        assert_eq!(v.partition_capacity_total(p(0)), 0.0);
        assert_eq!(v.replica_servers(p(0)).count(), 0);
    }

    #[test]
    fn capacities_accumulate() {
        let mut v = PlacementView::new(2, 3, vec![s(0), s(2)]);
        v.add_capacity(p(0), s(2), 20.0);
        v.add_capacity(p(0), s(1), 10.0);
        v.add_capacity(p(0), s(1), 5.0);
        assert_eq!(v.capacity(p(0), s(1)), 15.0);
        assert_eq!(v.partition_capacity_total(p(0)), 35.0);
        assert_eq!(
            v.slots(p(0)),
            &[Slot { server: s(1), capacity: 15.0 }, Slot { server: s(2), capacity: 20.0 }]
        );
        let hosts: Vec<u32> = v.replica_servers(p(0)).map(u32::from).collect();
        assert_eq!(hosts, vec![1, 2]);
        assert_eq!(v.partition_capacity_total(p(1)), 0.0, "partitions are independent");
    }

    #[test]
    fn wide_replica_sets_spill_and_stay_sorted() {
        let servers = 3 * INLINE_SLOTS as u32;
        let mut v = PlacementView::new(3, servers, vec![s(0); 3]);
        // Descending adds: every insert lands at the front.
        for srv in (0..servers).rev() {
            v.add_capacity(p(1), s(srv), 1.0 + srv as f64);
        }
        v.add_capacity(p(2), s(4), 2.0);
        let hosts: Vec<u32> = v.replica_servers(p(1)).map(u32::from).collect();
        assert_eq!(hosts, (0..servers).collect::<Vec<_>>());
        assert_eq!(v.capacity(p(1), s(7)), 8.0);
        assert_eq!(v.slot_count(), servers as usize + 1);
        assert_eq!(v.slots(p(0)), &[], "neighbours keep their own rows");
        assert_eq!(v.slots(p(2)), &[Slot { server: s(4), capacity: 2.0 }]);
    }

    #[test]
    #[should_panic(expected = "one holder per partition")]
    fn holder_count_must_match() {
        let _ = PlacementView::new(3, 3, vec![s(0)]);
    }

    #[test]
    fn slot_count_tracks_every_mutation() {
        let mut v = PlacementView::new(3, 4, vec![s(0), s(1), s(2)]);
        let recount = |v: &PlacementView| {
            (0..v.partitions()).map(|pi| v.replica_servers(p(pi)).count()).sum::<usize>()
        };
        assert_eq!(v.slot_count(), 0);
        v.add_capacity(p(0), s(1), 10.0);
        v.add_capacity(p(0), s(1), 5.0); // same server: no new slot
        v.add_capacity(p(0), s(2), 1.0);
        v.add_capacity(p(2), s(3), 2.0);
        v.add_capacity(p(1), s(0), 0.0); // zero capacity is not a slot
        assert_eq!(v.slot_count(), 3);
        assert_eq!(v.slot_count(), recount(&v));
        v.clear_partition(p(0));
        assert_eq!(v.slot_count(), 1);
        assert_eq!(v.slot_count(), recount(&v));
        v.reset(2, 4);
        assert_eq!(v.slot_count(), 0);
    }

    #[test]
    fn delta_updates_match_fresh_construction() {
        let mut v = PlacementView::new(2, 3, vec![s(0), s(2)]);
        v.add_capacity(p(0), s(1), 10.0);
        v.add_capacity(p(1), s(2), 4.0);

        // Partition 0 moves: clear its row, re-add, re-point the holder.
        v.clear_partition(p(0));
        v.set_holder(p(0), s(2));
        v.add_capacity(p(0), s(2), 7.0);

        let mut fresh = PlacementView::new(2, 3, vec![s(2), s(2)]);
        fresh.add_capacity(p(0), s(2), 7.0);
        fresh.add_capacity(p(1), s(2), 4.0);
        assert_eq!(v, fresh);

        // Shape change: reset rebuilds in place.
        v.reset(1, 4);
        v.set_holder(p(0), s(3));
        v.add_capacity(p(0), s(3), 2.0);
        let mut fresh = PlacementView::new(1, 4, vec![s(3)]);
        fresh.add_capacity(p(0), s(3), 2.0);
        assert_eq!(v, fresh);
    }
}
