//! Generation-stamped all-pairs route cache.
//!
//! [`crate::WanGraph::path`] allocates a fresh `Vec` on every call, and
//! the traffic hot path asks for the same (requester DC, holder DC)
//! routes thousands of times per epoch. A [`RouteTable`] materialises
//! every pair's shortest path once per membership era — hop lists and
//! the *cumulative* latency at each hop — into three flat arrays, so a
//! lookup is two offset reads and a pair of slices.
//!
//! The cumulative latencies are accumulated in exactly the same
//! sequential order as the legacy per-call walk in
//! `rfh-traffic::compute_traffic` (`lat += latency(prev, cur)` hop by
//! hop, missing links contributing `0.0`), so consumers that previously
//! summed link latencies on the fly read bit-identical `f64`s here.
//!
//! A table is keyed to one topology: [`RouteTable::sync`] rebuilds when
//! [`crate::Topology::generation`] has moved (or on first use) and is a
//! no-op otherwise. Syncing the same table against unrelated topologies
//! that happen to share a generation number is not detected — keep one
//! table per topology.

use rfh_types::DatacenterId;

use crate::topology::Topology;

/// Cached shortest paths and cumulative hop latencies for every
/// ordered datacenter pair, valid for one topology generation.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    /// Generation the table was built for; `None` forces the first build.
    synced: Option<u64>,
    /// Number of datacenters at build time (row stride).
    dcs: usize,
    /// Segment bounds into `hops`/`cum_ms`, indexed by `src * dcs + dst`;
    /// entry `i` spans `offsets[i]..offsets[i + 1]`. An empty segment
    /// means the pair is unreachable.
    offsets: Vec<u32>,
    /// Concatenated hop sequences (each starts at `src`, ends at `dst`).
    hops: Vec<DatacenterId>,
    /// One-way latency from `src` up to the aligned hop, accumulated
    /// link by link in path order.
    cum_ms: Vec<f64>,
}

impl RouteTable {
    /// An empty table; the first [`sync`](Self::sync) populates it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of heap the table holds, by allocation capacity.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.hops.capacity() * std::mem::size_of::<DatacenterId>()
            + self.cum_ms.capacity() * std::mem::size_of::<f64>()
    }

    /// Refresh against `topo` if its generation has moved since the
    /// last build (always builds on first use). Returns whether a
    /// rebuild happened. All buffers are reused across rebuilds.
    pub fn sync(&mut self, topo: &Topology) -> bool {
        let n = topo.datacenters().len();
        if self.synced == Some(topo.generation()) && self.dcs == n {
            return false;
        }
        self.rebuild(topo, n);
        self.synced = Some(topo.generation());
        true
    }

    fn rebuild(&mut self, topo: &Topology, n: usize) {
        self.dcs = n;
        self.offsets.clear();
        self.hops.clear();
        self.cum_ms.clear();
        self.offsets.push(0);
        for src in 0..n {
            let src = DatacenterId::new(src as u32);
            for dst in 0..n {
                let dst = DatacenterId::new(dst as u32);
                if let Some(path) = topo.path(src, dst) {
                    let mut lat_ms = 0.0;
                    for (hop, &dc) in path.iter().enumerate() {
                        if hop > 0 {
                            lat_ms += topo.graph().latency_ms(path[hop - 1], dc).unwrap_or(0.0);
                        }
                        self.hops.push(dc);
                        self.cum_ms.push(lat_ms);
                    }
                }
                self.offsets.push(self.hops.len() as u32);
            }
        }
    }

    /// The generation this table was last built for, if any.
    pub fn generation(&self) -> Option<u64> {
        self.synced
    }

    /// Cached route from `src` to `dst`: the hop sequence (starting at
    /// `src`, ending at `dst`) and, aligned with it, the cumulative
    /// one-way latency up to each hop. `None` when the pair is
    /// unreachable. Panics if the table has never been synced or the
    /// ids are out of range.
    pub fn route(&self, src: DatacenterId, dst: DatacenterId) -> Option<(&[DatacenterId], &[f64])> {
        assert!(self.synced.is_some(), "RouteTable::route before sync");
        let (s, d) = (src.index(), dst.index());
        assert!(s < self.dcs && d < self.dcs, "datacenter id out of range");
        let i = s * self.dcs + d;
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        if lo == hi {
            None
        } else {
            Some((&self.hops[lo..hi], &self.cum_ms[lo..hi]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::paper_topology;
    use crate::topology::TopologyBuilder;
    use rfh_types::{Continent, GeoPoint, ServerId};

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

    fn every_pair_matches(table: &RouteTable, topo: &Topology) {
        let n = topo.datacenters().len();
        for src in 0..n {
            let src = DatacenterId::new(src as u32);
            for dst in 0..n {
                let dst = DatacenterId::new(dst as u32);
                let fresh = topo.path(src, dst);
                match (table.route(src, dst), fresh) {
                    (None, None) => {}
                    (Some((hops, cum)), Some(path)) => {
                        assert_eq!(hops, &path[..]);
                        assert_eq!(hops.len(), cum.len());
                        // Cumulative latencies replay the sequential walk.
                        let mut lat = 0.0;
                        for (hop, &dc) in path.iter().enumerate() {
                            if hop > 0 {
                                lat += topo.graph().latency_ms(path[hop - 1], dc).unwrap_or(0.0);
                            }
                            assert_eq!(cum[hop].to_bits(), f64::to_bits(lat));
                        }
                        assert_eq!(cum[0], 0.0);
                    }
                    (cached, fresh) => {
                        panic!("cache/fresh disagree for {src:?}->{dst:?}: {cached:?} vs {fresh:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn paper_topology_routes_match_graph_paths() {
        let topo = paper_topology(0.0, 7).expect("paper topology builds");
        let mut table = RouteTable::new();
        assert!(table.sync(&topo));
        assert_eq!(table.generation(), Some(topo.generation()));
        every_pair_matches(&table, &topo);
    }

    #[test]
    fn sync_is_a_noop_until_generation_moves() {
        let mut topo = paper_topology(0.0, 7).expect("paper topology builds");
        let mut table = RouteTable::new();
        assert!(table.sync(&topo));
        assert!(!table.sync(&topo), "same generation must not rebuild");

        topo.fail_server(ServerId::new(0)).expect("server exists");
        assert!(table.sync(&topo), "generation bump must rebuild");
        assert!(!table.sync(&topo));
        every_pair_matches(&table, &topo);

        // Idempotent re-fail leaves the generation (and cache) alone.
        let gen = topo.generation();
        topo.fail_server(ServerId::new(0)).expect("server exists");
        assert_eq!(topo.generation(), gen);
        assert!(!table.sync(&topo));
    }

    #[test]
    fn membership_churn_tracks_fresh_tables() {
        let mut topo = two_dc();
        let mut table = RouteTable::new();
        table.sync(&topo);

        // A server of the second datacenter fails, then recovers: each
        // bumps the generation, and each rebuild matches the topology.
        let s = topo.datacenters()[1].server_ids().next().expect("dc has servers");
        topo.fail_server(s).expect("server exists");
        assert!(table.sync(&topo));
        every_pair_matches(&table, &topo);
        topo.recover_server(s).expect("server exists");
        assert!(table.sync(&topo));
        every_pair_matches(&table, &topo);

        topo.recover_server(ServerId::new(0)).expect("server exists");
        // Recovering an already-alive server is a no-op: no rebuild.
        assert!(!table.sync(&topo));
    }
}
