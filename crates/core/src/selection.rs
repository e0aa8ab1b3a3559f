//! Shared server-selection helpers used by the policies.

use crate::manager::ReplicaManager;
use rfh_topology::Topology;
use rfh_types::{DatacenterId, PartitionId, ServerId};
use std::cmp::Ordering;

/// Alive servers in `dc` that can accept a replica of `p` (not hosting
/// one already, storage under φ), ascending id.
pub(crate) fn accepting_servers_in_dc(
    topo: &Topology,
    manager: &ReplicaManager,
    p: PartitionId,
    dc: DatacenterId,
) -> Vec<ServerId> {
    accepting_in_dc(topo, manager, p, dc).collect()
}

/// [`accepting_servers_in_dc`] without collecting them.
pub(crate) fn accepting_in_dc<'a>(
    topo: &'a Topology,
    manager: &'a ReplicaManager,
    p: PartitionId,
    dc: DatacenterId,
) -> impl Iterator<Item = ServerId> + 'a {
    topo.alive_servers_in(dc).map(|s| s.id).filter(move |&s| manager.can_accept(p, s))
}

/// Order by blocking probability, lowest first.
fn by_blocking(blocking: &[f64], a: ServerId, b: ServerId) -> Ordering {
    blocking[a.index()].partial_cmp(&blocking[b.index()]).unwrap_or(Ordering::Equal)
}

/// The candidate with the lowest blocking probability (ties toward the
/// lower id, so selection is deterministic).
pub(crate) fn least_blocked(
    candidates: impl IntoIterator<Item = ServerId>,
    blocking: &[f64],
) -> Option<ServerId> {
    candidates.into_iter().min_by(|&a, &b| by_blocking(blocking, a, b).then_with(|| a.cmp(&b)))
}

/// The least-blocked accepting server in `dc`, if any.
pub(crate) fn least_blocked_in_dc(
    topo: &Topology,
    manager: &ReplicaManager,
    p: PartitionId,
    dc: DatacenterId,
    blocking: &[f64],
) -> Option<ServerId> {
    least_blocked(accepting_in_dc(topo, manager, p, dc), blocking)
}

/// The accepting server in `dc` that maximizes failure-domain spread
/// for `p`'s current replica set: prefer a room hosting no replica of
/// `p`, then a rack hosting none, then the lowest blocking probability,
/// then the lowest id — so a correlated rack or room outage takes out
/// as few copies as the datacenter's geometry allows. Deterministic by
/// the same total-order argument as [`least_blocked`].
pub(crate) fn most_spread_in_dc(
    topo: &Topology,
    manager: &ReplicaManager,
    p: PartitionId,
    dc: DatacenterId,
    blocking: &[f64],
) -> Option<ServerId> {
    // Rooms and racks are dense per-datacenter indices, so occupancy
    // only compares within `dc`; rack keys carry the room to stay
    // robust to per-room rack numbering.
    let occupied = || {
        manager
            .replicas(p)
            .iter()
            .map(|&s| &topo.servers()[s.index()])
            .filter(|s| s.datacenter == dc)
            .map(|s| (s.room.0, s.rack.0))
    };
    let taken = |s: ServerId| {
        let srv = &topo.servers()[s.index()];
        let room_taken = occupied().any(|(room, _)| room == srv.room.0);
        let rack_taken = occupied().any(|(room, rack)| room == srv.room.0 && rack == srv.rack.0);
        (room_taken, rack_taken)
    };
    accepting_in_dc(topo, manager, p, dc)
        .map(|s| (taken(s), s))
        .min_by(|&(ka, a), &(kb, b)| {
            ka.cmp(&kb).then_with(|| by_blocking(blocking, a, b)).then_with(|| a.cmp(&b))
        })
        .map(|(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_topology::TopologyBuilder;
    use rfh_types::{Continent, GeoPoint, SimConfig};

    fn setup() -> (Topology, ReplicaManager) {
        let mut b = TopologyBuilder::new();
        b.datacenter("A", Continent::NorthAmerica, "USA", "A1", GeoPoint::new(0.0, 0.0), 1, 1, 3)
            .unwrap();
        let topo = b.build(0.0, 0).unwrap();
        let cfg = SimConfig { partitions: 1, ..SimConfig::default() };
        let manager = ReplicaManager::new(&cfg, 3, vec![ServerId::new(0)]).unwrap();
        (topo, manager)
    }

    #[test]
    fn accepting_excludes_hosts_and_dead() {
        let (mut topo, manager) = setup();
        let p = PartitionId::new(0);
        let dc = DatacenterId::new(0);
        let c = accepting_servers_in_dc(&topo, &manager, p, dc);
        assert_eq!(c, vec![ServerId::new(1), ServerId::new(2)], "holder excluded");
        topo.fail_server(ServerId::new(1)).unwrap();
        let c = accepting_servers_in_dc(&topo, &manager, p, dc);
        assert_eq!(c, vec![ServerId::new(2)]);
    }

    #[test]
    fn least_blocked_breaks_ties_by_id() {
        let ids = [ServerId::new(2), ServerId::new(1)];
        let blocking = [0.9, 0.1, 0.1];
        assert_eq!(least_blocked(ids, &blocking), Some(ServerId::new(1)));
        assert_eq!(least_blocked([], &blocking), None);
        let blocking2 = [0.9, 0.5, 0.1];
        assert_eq!(least_blocked(ids, &blocking2), Some(ServerId::new(2)));
    }
}
