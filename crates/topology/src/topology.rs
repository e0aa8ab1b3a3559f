//! The assembled cluster: datacenters + servers + WAN routing.

use crate::datacenter::{Datacenter, Rack, Room};
use crate::graph::{RoutePath, WanGraph};
use crate::server::Server;
use rand::Rng;
use rfh_types::{
    haversine_km, AvailabilityLevel, Continent, Country, DatacenterId, GeoPoint, RackId, Result,
    RfhError, RoomId, ServerId, ServerLabel,
};

/// Specification of one rack while building.
#[derive(Debug, Clone)]
struct RackSpec {
    name: String,
    servers: u32,
}

/// Specification of one room while building.
#[derive(Debug, Clone)]
struct RoomSpec {
    name: String,
    racks: Vec<RackSpec>,
}

/// Specification of one datacenter while building.
#[derive(Debug, Clone)]
struct DcSpec {
    site: String,
    continent: Continent,
    country: Country,
    code: String,
    location: GeoPoint,
    rooms: Vec<RoomSpec>,
}

/// Fluent builder for a [`Topology`].
///
/// ```
/// use rfh_topology::TopologyBuilder;
/// use rfh_types::{Continent, GeoPoint};
///
/// let mut b = TopologyBuilder::new();
/// let a = b.datacenter("A", Continent::NorthAmerica, "USA", "GA1",
///                      GeoPoint::new(33.7, -84.4), 1, 2, 5).unwrap();
/// let h = b.datacenter("H", Continent::Asia, "CHN", "BJ1",
///                      GeoPoint::new(39.9, 116.4), 1, 2, 5).unwrap();
/// b.link(a, h, 90.0).unwrap();
/// let topo = b.build(0.25, 42).unwrap();
/// assert_eq!(topo.server_count(), 20);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    datacenters: Vec<DcSpec>,
    links: Vec<(DatacenterId, DatacenterId, f64)>,
}

impl TopologyBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a datacenter with a uniform `rooms × racks × servers` layout
    /// (the paper's sites are 1 room × 2 racks × 5 servers). Returns the
    /// id the datacenter will have in the built topology.
    ///
    /// # Errors
    /// Fails on a country that is not a 3-letter code, an empty layout,
    /// or a `(continent, country, code)` triple another datacenter
    /// already has: server labels would then mistake two sites for one,
    /// and availability levels read from labels would disagree with
    /// those read from the topology.
    #[allow(clippy::too_many_arguments)]
    pub fn datacenter(
        &mut self,
        site: impl Into<String>,
        continent: Continent,
        country: &str,
        code: impl Into<String>,
        location: GeoPoint,
        rooms: u32,
        racks_per_room: u32,
        servers_per_rack: u32,
    ) -> Result<DatacenterId> {
        let country = Country::new(country).ok_or(RfhError::InvalidConfig {
            parameter: "country",
            reason: format!("{country:?} is not a 3-letter code"),
        })?;
        if rooms == 0 || racks_per_room == 0 || servers_per_rack == 0 {
            return Err(RfhError::Topology(
                "datacenters need at least one room, rack and server".into(),
            ));
        }
        let code = code.into();
        let site = site.into();
        if let Some(twin) = self
            .datacenters
            .iter()
            .find(|d| d.continent == continent && d.country == country && d.code == code)
        {
            return Err(RfhError::Topology(format!(
                "datacenter {site:?} repeats the label {continent}-{country}-{code} of site {:?}; \
                 each datacenter needs its own (continent, country, code)",
                twin.site
            )));
        }
        let room_specs = (1..=rooms)
            .map(|r| RoomSpec {
                name: format!("C{r:02}"),
                racks: (1..=racks_per_room)
                    .map(|k| RackSpec { name: format!("R{k:02}"), servers: servers_per_rack })
                    .collect(),
            })
            .collect();
        self.datacenters.push(DcSpec {
            site,
            continent,
            country,
            code,
            location,
            rooms: room_specs,
        });
        Ok(DatacenterId::new(self.datacenters.len() as u32 - 1))
    }

    /// Add an undirected WAN link with the given one-way latency.
    pub fn link(&mut self, a: DatacenterId, b: DatacenterId, latency_ms: f64) -> Result<()> {
        let n = self.datacenters.len() as u32;
        if a.0 >= n || b.0 >= n {
            return Err(RfhError::Topology(format!(
                "link {a}-{b} references a datacenter outside 0..{n}"
            )));
        }
        self.links.push((a, b, latency_ms));
        Ok(())
    }

    /// Assemble the topology.
    ///
    /// Per-server capacity factors are drawn uniformly from
    /// `[1 − spread, 1 + spread]` with a deterministic RNG seeded by
    /// `seed`, modelling §III-A's "for every server, their capacities are
    /// different from each other".
    ///
    /// # Errors
    /// Fails on invalid links, an empty site list, or a disconnected
    /// backbone (every datacenter must be able to route to every other).
    pub fn build(&self, spread: f64, seed: u64) -> Result<Topology> {
        if self.datacenters.is_empty() {
            return Err(RfhError::Topology("no datacenters specified".into()));
        }
        if !(0.0..1.0).contains(&spread) {
            return Err(RfhError::InvalidConfig {
                parameter: "capacity_spread",
                reason: format!("must be in [0, 1), got {spread}"),
            });
        }
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        let mut datacenters = Vec::with_capacity(self.datacenters.len());
        let mut servers = Vec::new();
        for (dci, spec) in self.datacenters.iter().enumerate() {
            let dc_id = DatacenterId::new(dci as u32);
            let mut rooms = Vec::with_capacity(spec.rooms.len());
            for (ri, room_spec) in spec.rooms.iter().enumerate() {
                let mut racks = Vec::with_capacity(room_spec.racks.len());
                for (ki, rack_spec) in room_spec.racks.iter().enumerate() {
                    let mut rack = Rack {
                        name: rack_spec.name.clone(),
                        servers: Vec::with_capacity(rack_spec.servers as usize),
                    };
                    for si in 1..=rack_spec.servers {
                        let id = ServerId::new(servers.len() as u32);
                        let label = ServerLabel::new(
                            spec.continent,
                            spec.country,
                            spec.code.clone(),
                            room_spec.name.clone(),
                            rack_spec.name.clone(),
                            format!("S{si}"),
                        );
                        let factor = if spread == 0.0 {
                            1.0
                        } else {
                            rng.gen_range(1.0 - spread..=1.0 + spread)
                        };
                        servers.push(Server::new(
                            id,
                            dc_id,
                            RoomId::new(ri as u32),
                            RackId::new(ki as u32),
                            label,
                            factor,
                        ));
                        rack.servers.push(id);
                    }
                    racks.push(rack);
                }
                rooms.push(Room { name: room_spec.name.clone(), racks });
            }
            datacenters.push(Datacenter {
                id: dc_id,
                site: spec.site.clone(),
                continent: spec.continent,
                country: spec.country,
                code: spec.code.clone(),
                location: spec.location,
                rooms,
            });
        }

        let mut graph = WanGraph::new(datacenters.len());
        for &(a, b, lat) in &self.links {
            graph.add_link(a, b, lat)?;
        }
        graph.rebuild();
        if !graph.is_connected() {
            return Err(RfhError::Topology(
                "the WAN backbone is disconnected; every datacenter must reach every other".into(),
            ));
        }
        Ok(Topology { datacenters, servers, graph, generation: 0 })
    }
}

/// The assembled cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    datacenters: Vec<Datacenter>,
    servers: Vec<Server>,
    graph: WanGraph,
    /// Membership era: bumped by every effective liveness or shape
    /// change (server failure, recovery, join). Consumers that cache
    /// derived state — route tables, alive lists — key their caches on
    /// this and refresh when it moves.
    generation: u64,
}

impl Topology {
    /// All datacenters, indexable by [`DatacenterId`].
    pub fn datacenters(&self) -> &[Datacenter] {
        &self.datacenters
    }

    /// All server slots (alive and failed), indexable by [`ServerId`].
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Number of server slots (including failed ones).
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of currently alive servers.
    pub fn alive_server_count(&self) -> usize {
        self.servers.iter().filter(|s| s.alive).count()
    }

    /// Look up one datacenter.
    pub fn datacenter(&self, id: DatacenterId) -> Result<&Datacenter> {
        self.datacenters
            .get(id.index())
            .ok_or(RfhError::UnknownEntity { kind: "datacenter", id: id.0 as u64 })
    }

    /// Find a datacenter by its site name (`"A"` .. `"J"` in the paper).
    pub fn datacenter_by_site(&self, site: &str) -> Option<&Datacenter> {
        self.datacenters.iter().find(|d| d.site == site)
    }

    /// Look up one server.
    pub fn server(&self, id: ServerId) -> Result<&Server> {
        self.servers
            .get(id.index())
            .ok_or(RfhError::UnknownEntity { kind: "server", id: id.0 as u64 })
    }

    /// Alive servers in a datacenter.
    pub fn alive_servers_in(&self, dc: DatacenterId) -> impl Iterator<Item = &Server> + '_ {
        self.datacenters
            .get(dc.index())
            .into_iter()
            .flat_map(|d| d.server_ids())
            .map(|id| &self.servers[id.index()])
            .filter(|s| s.alive)
    }

    /// The WAN backbone.
    pub fn graph(&self) -> &WanGraph {
        &self.graph
    }

    /// The membership era. Starts at 0 and increments on every
    /// *effective* membership change: a server actually failing (not an
    /// idempotent re-fail), actually recovering, or joining. Caches of
    /// membership-derived state (see [`crate::routes::RouteTable`])
    /// compare this against the era they were built for.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Shortest routing path between two datacenters (both inclusive).
    pub fn path(&self, from: DatacenterId, to: DatacenterId) -> Option<RoutePath> {
        self.graph.path(from, to)
    }

    /// Backbone hop count between two datacenters.
    pub fn hop_count(&self, from: DatacenterId, to: DatacenterId) -> Option<usize> {
        self.graph.hop_count(from, to)
    }

    /// Great-circle distance between two datacenters in kilometres.
    pub fn distance_km(&self, a: DatacenterId, b: DatacenterId) -> Result<f64> {
        let da = self.datacenter(a)?;
        let db = self.datacenter(b)?;
        Ok(haversine_km(da.location, db.location))
    }

    /// Great-circle distance between two servers' sites. Servers in the
    /// same datacenter are at distance 0.
    pub fn server_distance_km(&self, a: ServerId, b: ServerId) -> Result<f64> {
        let sa = self.server(a)?;
        let sb = self.server(b)?;
        self.distance_km(sa.datacenter, sb.datacenter)
    }

    /// Availability level between two servers per the label scheme,
    /// read from their ids in the hierarchy (see
    /// [`Server::availability_level`]).
    pub fn availability_level(&self, a: ServerId, b: ServerId) -> Result<AvailabilityLevel> {
        Ok(self.server(a)?.availability_level(self.server(b)?))
    }

    /// Mark a server failed. Idempotent. Returns whether it was alive.
    pub fn fail_server(&mut self, id: ServerId) -> Result<bool> {
        let n = self.servers.len() as u64;
        let s = self
            .servers
            .get_mut(id.index())
            .ok_or(RfhError::UnknownEntity { kind: "server", id: id.0 as u64 })?;
        debug_assert!((id.0 as u64) < n);
        let was = s.alive;
        s.alive = false;
        if was {
            self.generation += 1;
        }
        Ok(was)
    }

    /// Mark a server recovered. Idempotent. Returns whether it was failed.
    pub fn recover_server(&mut self, id: ServerId) -> Result<bool> {
        let s = self
            .servers
            .get_mut(id.index())
            .ok_or(RfhError::UnknownEntity { kind: "server", id: id.0 as u64 })?;
        let was = s.alive;
        s.alive = true;
        if !was {
            self.generation += 1;
        }
        Ok(!was)
    }

    /// Fail `n` distinct randomly chosen alive servers (the Fig. 10
    /// event: "30 servers are randomly removed at epoch 290"). Returns
    /// the failed ids; fewer than `n` if not enough servers were alive.
    pub fn fail_random_servers<R: Rng>(&mut self, n: usize, rng: &mut R) -> Vec<ServerId> {
        let mut alive: Vec<ServerId> =
            self.servers.iter().filter(|s| s.alive).map(|s| s.id).collect();
        // Partial Fisher-Yates: draw n without replacement.
        let take = n.min(alive.len());
        for i in 0..take {
            let j = rng.gen_range(i..alive.len());
            alive.swap(i, j);
        }
        let failed: Vec<ServerId> = alive[..take].to_vec();
        for &id in &failed {
            self.servers[id.index()].alive = false;
        }
        if !failed.is_empty() {
            self.generation += 1;
        }
        failed
    }

    /// Server ids in one failure domain: a whole datacenter, one room,
    /// or one rack (narrowest non-`None` selector wins).
    ///
    /// # Errors
    /// Fails when the selector names an unknown domain.
    pub fn domain_servers(
        &self,
        dc: DatacenterId,
        room: Option<RoomId>,
        rack: Option<RackId>,
    ) -> Result<Vec<ServerId>> {
        let d = self.datacenter(dc)?;
        match room {
            None => Ok(d.server_ids().collect()),
            Some(r) => {
                let room_ref = d
                    .rooms
                    .get(r.index())
                    .ok_or(RfhError::UnknownEntity { kind: "room", id: r.0 as u64 })?;
                match rack {
                    None => {
                        Ok(room_ref.racks.iter().flat_map(|k| k.servers.iter().copied()).collect())
                    }
                    Some(k) => Ok(room_ref
                        .racks
                        .get(k.index())
                        .ok_or(RfhError::UnknownEntity { kind: "rack", id: k.0 as u64 })?
                        .servers
                        .clone()),
                }
            }
        }
    }

    /// Fail every alive server in a failure domain (correlated outage:
    /// a rack losing power, a room flooding, a datacenter going dark).
    /// Returns the ids that actually went down, in id order.
    ///
    /// # Errors
    /// Fails when the selector names an unknown domain.
    pub fn fail_domain(
        &mut self,
        dc: DatacenterId,
        room: Option<RoomId>,
        rack: Option<RackId>,
    ) -> Result<Vec<ServerId>> {
        let ids = self.domain_servers(dc, room, rack)?;
        let mut downed = Vec::new();
        for id in ids {
            let s = &mut self.servers[id.index()];
            if s.alive {
                s.alive = false;
                downed.push(id);
            }
        }
        if !downed.is_empty() {
            self.generation += 1;
        }
        Ok(downed)
    }

    /// Recover every failed server in a failure domain (the outage
    /// healing). Returns the ids that actually came back, in id order.
    ///
    /// # Errors
    /// Fails when the selector names an unknown domain.
    pub fn recover_domain(
        &mut self,
        dc: DatacenterId,
        room: Option<RoomId>,
        rack: Option<RackId>,
    ) -> Result<Vec<ServerId>> {
        let ids = self.domain_servers(dc, room, rack)?;
        let mut revived = Vec::new();
        for id in ids {
            let s = &mut self.servers[id.index()];
            if !s.alive {
                s.alive = true;
                revived.push(id);
            }
        }
        if !revived.is_empty() {
            self.generation += 1;
        }
        Ok(revived)
    }

    /// Take a WAN link down or bring it back up. Routes are recomputed
    /// and the generation bumped when the state actually changes, so
    /// every generation-keyed route cache refreshes. Returns whether it
    /// changed.
    ///
    /// # Errors
    /// Fails when no such link exists.
    pub fn set_link_state(&mut self, a: DatacenterId, b: DatacenterId, up: bool) -> Result<bool> {
        let changed = self.graph.set_link_up(a, b, up)?;
        if changed {
            self.graph.rebuild();
            self.generation += 1;
        }
        Ok(changed)
    }

    /// Set the latency-inflation factor on a WAN link (1.0 = healthy).
    /// Routes are recomputed and the generation bumped when the factor
    /// actually changes. Returns whether it changed.
    ///
    /// # Errors
    /// Fails when no such link exists or the factor is invalid.
    pub fn set_link_latency_factor(
        &mut self,
        a: DatacenterId,
        b: DatacenterId,
        factor: f64,
    ) -> Result<bool> {
        let changed = self.graph.set_link_factor(a, b, factor)?;
        if changed {
            self.graph.rebuild();
            self.generation += 1;
        }
        Ok(changed)
    }

    /// Split the backbone: take down every up link with exactly one
    /// endpoint in `island`, isolating those datacenters from the rest.
    /// Returns the links that went down (for the caller to heal later).
    /// No-op (empty vec) when the cut is already in place.
    pub fn isolate_island(&mut self, island: &[DatacenterId]) -> Vec<(DatacenterId, DatacenterId)> {
        let inside = |d: DatacenterId| island.contains(&d);
        let cut: Vec<(DatacenterId, DatacenterId)> = self
            .graph
            .links()
            .into_iter()
            .filter(|&(a, b, _, _, up)| up && (inside(a) != inside(b)))
            .map(|(a, b, _, _, _)| (a, b))
            .collect();
        for &(a, b) in &cut {
            // Links came from `links()`, so they exist; state is `up`.
            let _ = self.graph.set_link_up(a, b, false);
        }
        if !cut.is_empty() {
            self.graph.rebuild();
            self.generation += 1;
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn two_dc() -> Topology {
        let mut b = TopologyBuilder::new();
        let a = b
            .datacenter(
                "A",
                Continent::NorthAmerica,
                "USA",
                "GA1",
                GeoPoint::new(33.7, -84.4),
                1,
                2,
                5,
            )
            .unwrap();
        let h = b
            .datacenter("H", Continent::Asia, "CHN", "BJ1", GeoPoint::new(39.9, 116.4), 1, 2, 5)
            .unwrap();
        b.link(a, h, 90.0).unwrap();
        b.build(0.25, 7).unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids_and_labels() {
        let t = two_dc();
        assert_eq!(t.datacenters().len(), 2);
        assert_eq!(t.server_count(), 20);
        assert_eq!(t.alive_server_count(), 20);
        let s0 = t.server(ServerId::new(0)).unwrap();
        assert_eq!(s0.label.to_string(), "NA-USA-GA1-C01-R01-S1");
        let s9 = t.server(ServerId::new(9)).unwrap();
        assert_eq!(s9.label.to_string(), "NA-USA-GA1-C01-R02-S5");
        let s10 = t.server(ServerId::new(10)).unwrap();
        assert_eq!(s10.label.to_string(), "AS-CHN-BJ1-C01-R01-S1");
        assert_eq!(s10.datacenter, DatacenterId::new(1));
    }

    #[test]
    fn capacity_factors_vary_but_deterministically() {
        let t1 = two_dc();
        let t2 = two_dc();
        let f1: Vec<f64> = t1.servers().iter().map(|s| s.capacity_factor).collect();
        let f2: Vec<f64> = t2.servers().iter().map(|s| s.capacity_factor).collect();
        assert_eq!(f1, f2, "same seed, same factors");
        assert!(f1.iter().any(|&f| (f - 1.0).abs() > 1e-3), "factors actually vary");
        assert!(f1.iter().all(|&f| (0.75..=1.25).contains(&f)));
    }

    #[test]
    fn zero_spread_gives_uniform_capacity() {
        let mut b = TopologyBuilder::new();
        let a = b
            .datacenter(
                "A",
                Continent::NorthAmerica,
                "USA",
                "GA1",
                GeoPoint::new(0.0, 0.0),
                1,
                1,
                3,
            )
            .unwrap();
        let _ = a;
        let t = b.build(0.0, 1).unwrap();
        assert!(t.servers().iter().all(|s| s.capacity_factor == 1.0));
    }

    #[test]
    fn routing_and_distance() {
        let t = two_dc();
        let (a, h) = (DatacenterId::new(0), DatacenterId::new(1));
        assert_eq!(t.path(a, h).unwrap(), vec![a, h]);
        assert_eq!(t.hop_count(a, h), Some(1));
        let d = t.distance_km(a, h).unwrap();
        assert!((11200.0..11800.0).contains(&d), "Atlanta-Beijing ≈ 11,550 km, got {d}");
        assert_eq!(t.distance_km(a, a).unwrap(), 0.0);
        assert_eq!(
            t.server_distance_km(ServerId::new(0), ServerId::new(5)).unwrap(),
            0.0,
            "same DC"
        );
    }

    #[test]
    fn availability_levels_between_servers() {
        let t = two_dc();
        // Same rack (ids 0 and 1).
        assert_eq!(
            t.availability_level(ServerId::new(0), ServerId::new(1)).unwrap(),
            AvailabilityLevel::SameRack
        );
        // Different rack, same room (0 and 5).
        assert_eq!(
            t.availability_level(ServerId::new(0), ServerId::new(5)).unwrap(),
            AvailabilityLevel::SameRoom
        );
        // Different DC (0 and 10).
        assert_eq!(
            t.availability_level(ServerId::new(0), ServerId::new(10)).unwrap(),
            AvailabilityLevel::DifferentDatacenter
        );
    }

    #[test]
    fn failure_and_recovery_lifecycle() {
        let mut t = two_dc();
        assert!(t.fail_server(ServerId::new(3)).unwrap());
        assert!(!t.fail_server(ServerId::new(3)).unwrap(), "idempotent");
        assert_eq!(t.alive_server_count(), 19);
        assert!(!t.server(ServerId::new(3)).unwrap().alive);
        assert_eq!(t.alive_servers_in(DatacenterId::new(0)).count(), 9);
        assert!(t.recover_server(ServerId::new(3)).unwrap());
        assert!(!t.recover_server(ServerId::new(3)).unwrap(), "idempotent");
        assert_eq!(t.alive_server_count(), 20);
    }

    #[test]
    fn random_mass_failure_is_exact_and_deterministic() {
        let mut t = two_dc();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let failed = t.fail_random_servers(6, &mut rng);
        assert_eq!(failed.len(), 6);
        assert_eq!(t.alive_server_count(), 14);
        // No duplicates.
        let mut ids: Vec<u32> = failed.iter().map(|s| s.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6);
        // Deterministic given the seed.
        let mut t2 = two_dc();
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(99);
        assert_eq!(t2.fail_random_servers(6, &mut rng2), failed);
        // Asking for more than available fails everything, exactly once.
        let more = t.fail_random_servers(1000, &mut rng);
        assert_eq!(more.len(), 14);
        assert_eq!(t.alive_server_count(), 0);
    }

    #[test]
    fn disconnected_backbone_rejected() {
        let mut b = TopologyBuilder::new();
        b.datacenter("A", Continent::NorthAmerica, "USA", "GA1", GeoPoint::new(0.0, 0.0), 1, 1, 1)
            .unwrap();
        b.datacenter("B", Continent::Europe, "CHE", "ZH1", GeoPoint::new(47.4, 8.5), 1, 1, 1)
            .unwrap();
        assert!(matches!(b.build(0.1, 1), Err(RfhError::Topology(_))));
    }

    #[test]
    fn builder_rejects_bad_input() {
        let mut b = TopologyBuilder::new();
        assert!(b
            .datacenter("A", Continent::Asia, "XY", "C1", GeoPoint::new(0.0, 0.0), 1, 1, 1)
            .is_err());
        assert!(b
            .datacenter("A", Continent::Asia, "CHN", "C1", GeoPoint::new(0.0, 0.0), 0, 1, 1)
            .is_err());
        assert!(TopologyBuilder::new().build(0.1, 0).is_err(), "no datacenters");
        let a = b
            .datacenter("A", Continent::Asia, "CHN", "C1", GeoPoint::new(0.0, 0.0), 1, 1, 1)
            .unwrap();
        assert!(b.link(a, DatacenterId::new(5), 1.0).is_err());
        assert!(b.build(1.0, 0).is_err(), "spread must be < 1");
        let twin = b
            .datacenter("B", Continent::Asia, "CHN", "C1", GeoPoint::new(9.0, 9.0), 1, 1, 1)
            .unwrap_err();
        assert!(twin.to_string().contains("AS-CHN-C1"), "{twin}");
        assert!(b
            .datacenter("B", Continent::Asia, "JPN", "C1", GeoPoint::new(9.0, 9.0), 1, 1, 1)
            .is_ok());
    }

    /// Triangle A-B-C so link cuts can reroute instead of only split.
    fn three_dc() -> Topology {
        let mut b = TopologyBuilder::new();
        let a = b
            .datacenter(
                "A",
                Continent::NorthAmerica,
                "USA",
                "GA1",
                GeoPoint::new(33.7, -84.4),
                1,
                2,
                5,
            )
            .unwrap();
        let h = b
            .datacenter("H", Continent::Asia, "CHN", "BJ1", GeoPoint::new(39.9, 116.4), 1, 2, 5)
            .unwrap();
        let z = b
            .datacenter("Z", Continent::Europe, "CHE", "ZH1", GeoPoint::new(47.4, 8.5), 1, 2, 5)
            .unwrap();
        b.link(a, h, 90.0).unwrap();
        b.link(a, z, 40.0).unwrap();
        b.link(h, z, 60.0).unwrap();
        b.build(0.25, 7).unwrap()
    }

    #[test]
    fn fail_domain_takes_down_rack_room_or_datacenter() {
        let mut t = two_dc();
        let dc0 = DatacenterId::new(0);
        let g0 = t.generation();
        // One rack: 5 servers.
        let rack = t.fail_domain(dc0, Some(RoomId::new(0)), Some(RackId::new(0))).unwrap();
        assert_eq!(rack, (0..5).map(ServerId::new).collect::<Vec<_>>());
        assert_eq!(t.alive_server_count(), 15);
        assert_eq!(t.generation(), g0 + 1);
        // Whole room (= rest of the DC here): only the 5 still-alive fall.
        let room = t.fail_domain(dc0, Some(RoomId::new(0)), None).unwrap();
        assert_eq!(room, (5..10).map(ServerId::new).collect::<Vec<_>>());
        // Re-failing the DC is a no-op: everyone is already down.
        let g = t.generation();
        assert!(t.fail_domain(dc0, None, None).unwrap().is_empty());
        assert_eq!(t.generation(), g, "ineffective fail must not bump the era");
        // Recovery brings the whole DC back in one step.
        let back = t.recover_domain(dc0, None, None).unwrap();
        assert_eq!(back.len(), 10);
        assert_eq!(t.alive_server_count(), 20);
        assert!(t.fail_domain(dc0, Some(RoomId::new(3)), None).is_err(), "unknown room");
    }

    #[test]
    fn link_faults_bump_generation_and_reroute() {
        let mut t = three_dc();
        let (a, h, z) = (DatacenterId::new(0), DatacenterId::new(1), DatacenterId::new(2));
        assert_eq!(t.path(a, h).unwrap(), vec![a, h]);
        let g0 = t.generation();
        assert!(t.set_link_state(a, h, false).unwrap());
        assert_eq!(t.generation(), g0 + 1);
        assert_eq!(t.path(a, h).unwrap(), vec![a, z, h], "rerouted around the cut");
        assert!(!t.set_link_state(a, h, false).unwrap(), "idempotent");
        assert_eq!(t.generation(), g0 + 1);
        assert!(t.set_link_state(a, h, true).unwrap());
        assert_eq!(t.path(a, h).unwrap(), vec![a, h]);
        // Latency inflation diverts the A-H route through Z (90·2 > 100).
        assert!(t.set_link_latency_factor(a, h, 2.0).unwrap());
        assert_eq!(t.path(a, h).unwrap(), vec![a, z, h]);
        assert!(t.set_link_state(a, DatacenterId::new(9), false).is_err(), "unknown link");
    }

    #[test]
    fn isolate_island_cuts_every_crossing_link() {
        let mut t = three_dc();
        let (a, h, z) = (DatacenterId::new(0), DatacenterId::new(1), DatacenterId::new(2));
        let g0 = t.generation();
        let mut cut = t.isolate_island(&[h]);
        cut.sort();
        assert_eq!(cut, vec![(a, h), (h, z)]);
        assert_eq!(t.generation(), g0 + 1);
        assert_eq!(t.path(a, h), None, "H is unreachable");
        assert_eq!(t.path(a, z).unwrap(), vec![a, z], "survivors still route");
        assert!(t.isolate_island(&[h]).is_empty(), "already cut");
        // Healing restores exactly the recorded links.
        for (x, y) in cut {
            t.set_link_state(x, y, true).unwrap();
        }
        assert_eq!(t.path(a, h).unwrap(), vec![a, h]);
    }

    #[test]
    fn datacenter_lookup_by_site() {
        let t = two_dc();
        assert_eq!(t.datacenter_by_site("H").unwrap().id, DatacenterId::new(1));
        assert!(t.datacenter_by_site("Z").is_none());
    }
}
