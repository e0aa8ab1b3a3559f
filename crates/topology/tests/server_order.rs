//! Server ids follow the topology's nesting: `TopologyBuilder` numbers
//! servers datacenter by datacenter, room by room, rack by rack, and
//! `Datacenter::server_ids()` walks them in the same nesting. The
//! traffic pass relies on it: it lets a datacenter's replicas absorb in
//! ascending server id, which is therefore the `server_ids()` order.
//! The same numbering lets availability levels be read from a server's
//! `(datacenter, room, rack, id)` instead of its label.

use rfh_topology::{paper_topology, scaled_paper_topology, synthetic_topology, Topology};

/// `server_ids()` over `datacenters()`, laid end to end, is
/// `0..server_count()` in order.
fn assert_ids_follow_nesting(topo: &Topology, what: &str) {
    let walked: Vec<u32> =
        topo.datacenters().iter().flat_map(|dc| dc.server_ids()).map(|s| s.0).collect();
    let ids: Vec<u32> = (0..topo.server_count() as u32).collect();
    assert_eq!(walked, ids, "{what}");
    for dc in topo.datacenters() {
        assert!(dc.server_ids().all(|s| topo.servers()[s.index()].datacenter == dc.id), "{what}");
    }
}

#[test]
fn server_ids_are_numbered_in_datacenter_room_rack_order() {
    assert_ids_follow_nesting(&paper_topology(0.3, 7).unwrap(), "paper");
    for servers_per_rack in [1, 3, 5] {
        let topo = scaled_paper_topology(servers_per_rack, 0.3, 7).unwrap();
        assert_ids_follow_nesting(&topo, &format!("scaled x{servers_per_rack}"));
    }
    assert_ids_follow_nesting(&synthetic_topology(4, 3, 2, 0.3, 7).unwrap(), "synthetic 4x3x2");
}

/// The id-derived level equals the label-derived one for every pair.
fn assert_levels_match_labels(topo: &Topology, what: &str) {
    for a in topo.servers() {
        for b in topo.servers() {
            let by_ids = topo.availability_level(a.id, b.id).unwrap();
            assert_eq!(
                by_ids,
                a.label.availability_level(&b.label),
                "{what}: {} vs {}",
                a.id,
                b.id
            );
        }
    }
}

#[test]
fn availability_levels_from_ids_match_the_labels() {
    assert_levels_match_labels(&paper_topology(0.3, 7).unwrap(), "paper");
    assert_levels_match_labels(&scaled_paper_topology(2, 0.3, 7).unwrap(), "scaled x2");
    assert_levels_match_labels(&synthetic_topology(4, 3, 2, 0.3, 7).unwrap(), "synthetic 4x3x2");
}
