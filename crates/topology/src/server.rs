//! Physical servers (storage hosts).

use rfh_types::{AvailabilityLevel, DatacenterId, RackId, RoomId, ServerId, ServerLabel};

/// A physical server: one storage host in a rack.
///
/// Structural identity (label, position in the hierarchy) lives here;
/// all *dynamic* capacity state (storage used, bandwidth consumed this
/// epoch, hosted replicas) belongs to the simulator's cluster state so
/// the topology stays cheap to clone and share.
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    /// Cluster-wide dense id (usable as a `Vec` index).
    pub id: ServerId,
    /// The datacenter this server lives in.
    pub datacenter: DatacenterId,
    /// The room within the datacenter (dense per-datacenter index).
    pub room: RoomId,
    /// The rack within the room (dense per-datacenter index).
    pub rack: RackId,
    /// The full geographic label (`NA-USA-GA1-C01-R02-S5`).
    pub label: ServerLabel,
    /// Multiplier on the configured mean capacities, drawn per server so
    /// "their capacities are different from each other" (§III-A).
    pub capacity_factor: f64,
    /// Whether the server is currently alive. Failed servers keep their
    /// slot (ids stay stable) but host nothing and route nothing.
    pub alive: bool,
}

impl Server {
    /// Create an alive server with the given identity.
    pub fn new(
        id: ServerId,
        datacenter: DatacenterId,
        room: RoomId,
        rack: RackId,
        label: ServerLabel,
        capacity_factor: f64,
    ) -> Self {
        debug_assert!(capacity_factor > 0.0, "capacity factor must be positive");
        Server { id, datacenter, room, rack, label, capacity_factor, alive: true }
    }

    /// Availability level between two servers per §II-A, read from
    /// their positions in the hierarchy: the earlier the
    /// `(datacenter, room, rack, id)` paths diverge, the higher the
    /// level. For servers a [`crate::TopologyBuilder`] made this is
    /// [`ServerLabel::availability_level`] of their labels: the builder
    /// gives each datacenter a distinct label prefix and names rooms,
    /// racks and servers uniquely within their parent.
    #[inline]
    pub fn availability_level(&self, other: &Server) -> AvailabilityLevel {
        if self.datacenter != other.datacenter {
            AvailabilityLevel::DifferentDatacenter
        } else if self.room != other.room {
            AvailabilityLevel::SameDatacenter
        } else if self.rack != other.rack {
            AvailabilityLevel::SameRoom
        } else if self.id != other.id {
            AvailabilityLevel::SameRack
        } else {
            AvailabilityLevel::SameServer
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_types::{Continent, Country};

    fn label() -> ServerLabel {
        ServerLabel::new(
            Continent::NorthAmerica,
            Country::new("USA").unwrap(),
            "GA1",
            "C01",
            "R02",
            "S5",
        )
    }

    #[test]
    fn server_starts_alive() {
        let s = Server::new(
            ServerId::new(3),
            DatacenterId::new(0),
            RoomId::new(0),
            RackId::new(1),
            label(),
            1.1,
        );
        assert!(s.alive);
        assert_eq!(s.id, ServerId::new(3));
        assert_eq!(s.label.to_string(), "NA-USA-GA1-C01-R02-S5");
        assert_eq!(s.capacity_factor, 1.1);
    }
}
