//! Server labels and availability levels (§II-A).
//!
//! Every physical node carries a label of the form
//! `continent-country-datacenter-room-rack-server`, e.g.
//! `NA-USA-GA1-C01-R02-S5`. Availability between two replicas is graded by
//! how early their labels diverge: different datacenters is Level 5 (the
//! best), same server is Level 1 (the worst).

use crate::geo::{Continent, Country};
use crate::RfhError;
use std::fmt;
use std::str::FromStr;

/// Geographic-diversity availability level between two replica locations.
///
/// Higher is better. The paper defines Level 5 as "different datacenters"
/// and Level 1 as "same server"; the intermediate levels follow the label
/// hierarchy (room, rack, server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum AvailabilityLevel {
    /// Replicas on the same server: no hardware diversity at all.
    SameServer = 1,
    /// Same rack, different servers.
    SameRack = 2,
    /// Same room, different racks.
    SameRoom = 3,
    /// Same datacenter, different rooms.
    SameDatacenter = 4,
    /// Different datacenters: the highest availability level.
    DifferentDatacenter = 5,
}

impl AvailabilityLevel {
    /// Numeric level, 1..=5.
    #[inline]
    pub const fn value(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for AvailabilityLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Level {}", self.value())
    }
}

/// A parsed `continent-country-datacenter-room-rack-server` label.
///
/// The datacenter, room, rack and server fields keep their textual form
/// (`GA1`, `C01`, `R02`, `S5`) because the scheme treats them as opaque
/// site names; equality of the corresponding prefix is what matters for
/// availability grading.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ServerLabel {
    /// Continent code (`NA`, `EU`, ...).
    pub continent: Continent,
    /// Country code (`USA`, `CHE`, ...).
    pub country: Country,
    /// Datacenter name within the country, e.g. `GA1`.
    pub datacenter: String,
    /// Room name within the datacenter, e.g. `C01`.
    pub room: String,
    /// Rack name within the room, e.g. `R02`.
    pub rack: String,
    /// Server name within the rack, e.g. `S5`.
    pub server: String,
}

impl ServerLabel {
    /// Build a label from its six components.
    pub fn new(
        continent: Continent,
        country: Country,
        datacenter: impl Into<String>,
        room: impl Into<String>,
        rack: impl Into<String>,
        server: impl Into<String>,
    ) -> Self {
        ServerLabel {
            continent,
            country,
            datacenter: datacenter.into(),
            room: room.into(),
            rack: rack.into(),
            server: server.into(),
        }
    }

    /// Availability level between two server locations per §II-A: the
    /// earlier the labels diverge, the higher the level.
    ///
    /// Labels in different datacenters — including different countries or
    /// continents — are all Level 5; the paper does not grade beyond the
    /// datacenter boundary.
    pub fn availability_level(&self, other: &ServerLabel) -> AvailabilityLevel {
        let same_dc = self.continent == other.continent
            && self.country == other.country
            && self.datacenter == other.datacenter;
        if !same_dc {
            return AvailabilityLevel::DifferentDatacenter;
        }
        if self.room != other.room {
            return AvailabilityLevel::SameDatacenter;
        }
        if self.rack != other.rack {
            return AvailabilityLevel::SameRoom;
        }
        if self.server != other.server {
            return AvailabilityLevel::SameRack;
        }
        AvailabilityLevel::SameServer
    }
}

impl fmt::Display for ServerLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-{}-{}-{}-{}-{}",
            self.continent, self.country, self.datacenter, self.room, self.rack, self.server
        )
    }
}

impl FromStr for ServerLabel {
    type Err = RfhError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('-').collect();
        let [cont, country, dc, room, rack, server] = parts.as_slice() else {
            return Err(RfhError::InvalidLabel {
                label: s.to_string(),
                reason: format!("expected 6 dash-separated fields, got {}", parts.len()),
            });
        };
        let continent = Continent::from_code(cont).ok_or_else(|| RfhError::InvalidLabel {
            label: s.to_string(),
            reason: format!("unknown continent code {cont:?}"),
        })?;
        let country = Country::new(country).ok_or_else(|| RfhError::InvalidLabel {
            label: s.to_string(),
            reason: format!("invalid country code {country:?}"),
        })?;
        for (field, name) in
            [(dc, "datacenter"), (room, "room"), (rack, "rack"), (server, "server")]
        {
            if field.is_empty() {
                return Err(RfhError::InvalidLabel {
                    label: s.to_string(),
                    reason: format!("empty {name} field"),
                });
            }
        }
        Ok(ServerLabel::new(continent, country, *dc, *room, *rack, *server))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(s: &str) -> ServerLabel {
        s.parse().expect("valid label")
    }

    #[test]
    fn parses_paper_example() {
        // The exact example from §II-A / Fig. 1.
        let l = label("NA-USA-GA1-C01-R02-S5");
        assert_eq!(l.continent, Continent::NorthAmerica);
        assert_eq!(l.country.as_str(), "USA");
        assert_eq!(l.datacenter, "GA1");
        assert_eq!(l.room, "C01");
        assert_eq!(l.rack, "R02");
        assert_eq!(l.server, "S5");
    }

    #[test]
    fn display_roundtrips() {
        let s = "AS-CHN-BJ1-C01-R01-S3";
        assert_eq!(label(s).to_string(), s);
    }

    #[test]
    fn rejects_malformed_labels() {
        assert!("NA-USA-GA1-C01-R02".parse::<ServerLabel>().is_err(), "5 fields");
        assert!("NA-USA-GA1-C01-R02-S5-X".parse::<ServerLabel>().is_err(), "7 fields");
        assert!("XX-USA-GA1-C01-R02-S5".parse::<ServerLabel>().is_err(), "bad continent");
        assert!("NA-US-GA1-C01-R02-S5".parse::<ServerLabel>().is_err(), "2-letter country");
        assert!("NA-USA--C01-R02-S5".parse::<ServerLabel>().is_err(), "empty datacenter");
        assert!("NA-USA-GA1-C01-R02-".parse::<ServerLabel>().is_err(), "empty server");
    }

    #[test]
    fn availability_levels_follow_hierarchy() {
        let a = label("NA-USA-GA1-C01-R02-S5");
        assert_eq!(a.availability_level(&a), AvailabilityLevel::SameServer);
        assert_eq!(
            a.availability_level(&label("NA-USA-GA1-C01-R02-S6")),
            AvailabilityLevel::SameRack
        );
        assert_eq!(
            a.availability_level(&label("NA-USA-GA1-C01-R03-S5")),
            AvailabilityLevel::SameRoom
        );
        assert_eq!(
            a.availability_level(&label("NA-USA-GA1-C02-R02-S5")),
            AvailabilityLevel::SameDatacenter
        );
        assert_eq!(
            a.availability_level(&label("NA-USA-VA1-C01-R02-S5")),
            AvailabilityLevel::DifferentDatacenter
        );
        assert_eq!(
            a.availability_level(&label("AS-JPN-TK1-C01-R02-S5")),
            AvailabilityLevel::DifferentDatacenter
        );
    }

    #[test]
    fn same_dc_name_in_different_country_is_level_5() {
        // Datacenter names are only meaningful within a country.
        let a = label("NA-USA-GA1-C01-R02-S5");
        let b = label("NA-CAN-GA1-C01-R02-S5");
        assert_eq!(a.availability_level(&b), AvailabilityLevel::DifferentDatacenter);
    }

    #[test]
    fn availability_level_is_symmetric() {
        let a = label("NA-USA-GA1-C01-R02-S5");
        let b = label("NA-USA-GA1-C02-R01-S1");
        assert_eq!(a.availability_level(&b), b.availability_level(&a));
    }

    #[test]
    fn availability_level_values() {
        assert_eq!(AvailabilityLevel::SameServer.value(), 1);
        assert_eq!(AvailabilityLevel::DifferentDatacenter.value(), 5);
    }

    #[test]
    fn levels_order_correctly() {
        assert!(AvailabilityLevel::DifferentDatacenter > AvailabilityLevel::SameDatacenter);
        assert!(AvailabilityLevel::SameRack > AvailabilityLevel::SameServer);
    }

    #[test]
    fn display_level() {
        assert_eq!(AvailabilityLevel::SameRoom.to_string(), "Level 3");
    }
}
