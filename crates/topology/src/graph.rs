//! The WAN backbone graph and its routing paths.
//!
//! Queries travel from the requester's datacenter to the partition
//! holder along the shortest backbone path; these paths are the `A_ij`
//! sets of §II-C, and the datacenters where many of them overlap are the
//! *traffic hubs* RFH replicates onto. The graph is tiny (tens of
//! sites), so we precompute all-pairs shortest paths with Dijkstra and
//! serve routing lookups from a dense cache.

use rfh_types::{DatacenterId, Result, RfhError};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A routing path: the ordered datacenters from the requester (first) to
/// the destination (last), inclusive. A path within one datacenter has
/// length 1.
pub type RoutePath = Vec<DatacenterId>;

/// One WAN link between two datacenters.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Link {
    to: u32,
    /// Nominal one-way latency in milliseconds (healthy link).
    base_ms: f64,
    /// Fault-injected latency multiplier (1.0 when healthy).
    factor: f64,
    /// False while the link is administratively or fault down.
    up: bool,
}

impl Link {
    /// Routing weight: the effective one-way latency.
    fn weight(&self) -> f64 {
        self.base_ms * self.factor
    }
}

/// An undirected weighted graph over datacenters with all-pairs
/// shortest-path routing.
///
/// Mutations (adding links or nodes) invalidate the path cache; it is
/// rebuilt lazily by [`WanGraph::rebuild`] which the owning topology
/// calls after construction and after any membership change.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WanGraph {
    adjacency: Vec<Vec<Link>>,
    /// `next_hop[src][dst]` = the neighbour of `src` on the shortest
    /// path toward `dst` (u32::MAX when unreachable or src == dst).
    next_hop: Vec<Vec<u32>>,
    /// `dist_ms[src][dst]` = shortest-path latency.
    dist_ms: Vec<Vec<f64>>,
}

impl WanGraph {
    /// Create a graph with `nodes` datacenters and no links.
    pub fn new(nodes: usize) -> Self {
        WanGraph { adjacency: vec![Vec::new(); nodes], next_hop: Vec::new(), dist_ms: Vec::new() }
    }

    /// Number of datacenters.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Add an undirected link. Duplicate links keep the lower latency.
    ///
    /// # Errors
    /// Fails when an endpoint is unknown, the endpoints coincide, or the
    /// latency is not a positive finite number.
    pub fn add_link(&mut self, a: DatacenterId, b: DatacenterId, latency_ms: f64) -> Result<()> {
        let n = self.adjacency.len() as u32;
        if a.0 >= n || b.0 >= n {
            return Err(RfhError::Topology(format!(
                "link {a}-{b} references a datacenter outside 0..{n}"
            )));
        }
        if a == b {
            return Err(RfhError::Topology(format!("self-link on {a}")));
        }
        if !(latency_ms > 0.0 && latency_ms.is_finite()) {
            return Err(RfhError::Topology(format!(
                "link {a}-{b} latency must be positive and finite, got {latency_ms}"
            )));
        }
        for (x, y) in [(a, b), (b, a)] {
            let adj = &mut self.adjacency[x.index()];
            match adj.iter_mut().find(|l| l.to == y.0) {
                Some(existing) => existing.base_ms = existing.base_ms.min(latency_ms),
                None => adj.push(Link { to: y.0, base_ms: latency_ms, factor: 1.0, up: true }),
            }
        }
        Ok(())
    }

    /// Direct neighbours of `dc` over *up* links, with effective link
    /// latencies. Downed links are invisible here, so bootstrap probing
    /// and routing agree on reachability.
    pub fn neighbours(&self, dc: DatacenterId) -> impl Iterator<Item = (DatacenterId, f64)> + '_ {
        self.adjacency
            .get(dc.index())
            .into_iter()
            .flatten()
            .filter(|l| l.up)
            .map(|l| (DatacenterId::new(l.to), l.weight()))
    }

    /// Every undirected link as `(low, high, base_ms, factor, up)`,
    /// ascending by endpoint ids. Includes downed links.
    pub fn links(&self) -> Vec<(DatacenterId, DatacenterId, f64, f64, bool)> {
        let mut out = Vec::new();
        for (a, adj) in self.adjacency.iter().enumerate() {
            for l in adj {
                if (a as u32) < l.to {
                    out.push((
                        DatacenterId::new(a as u32),
                        DatacenterId::new(l.to),
                        l.base_ms,
                        l.factor,
                        l.up,
                    ));
                }
            }
        }
        out
    }

    fn mutate_link(
        &mut self,
        a: DatacenterId,
        b: DatacenterId,
        f: impl Fn(&mut Link) -> bool,
    ) -> Result<bool> {
        let n = self.adjacency.len() as u32;
        if a.0 >= n || b.0 >= n || a == b {
            return Err(RfhError::Topology(format!("no such link {a}-{b}")));
        }
        let mut changed = false;
        let mut found = 0;
        for (x, y) in [(a, b), (b, a)] {
            if let Some(l) = self.adjacency[x.index()].iter_mut().find(|l| l.to == y.0) {
                found += 1;
                changed |= f(l);
            }
        }
        if found != 2 {
            return Err(RfhError::Topology(format!("no such link {a}-{b}")));
        }
        Ok(changed)
    }

    /// Bring the link between `a` and `b` up or down. Returns whether
    /// the state actually changed. Call [`WanGraph::rebuild`] after.
    ///
    /// # Errors
    /// Fails when no such link exists.
    pub fn set_link_up(&mut self, a: DatacenterId, b: DatacenterId, up: bool) -> Result<bool> {
        self.mutate_link(a, b, |l| {
            let changed = l.up != up;
            l.up = up;
            changed
        })
    }

    /// Set the latency multiplier on the link between `a` and `b`
    /// (1.0 = healthy). Returns whether the factor actually changed.
    /// Call [`WanGraph::rebuild`] after.
    ///
    /// # Errors
    /// Fails when no such link exists or the factor is not positive
    /// and finite.
    pub fn set_link_factor(
        &mut self,
        a: DatacenterId,
        b: DatacenterId,
        factor: f64,
    ) -> Result<bool> {
        if !(factor > 0.0 && factor.is_finite()) {
            return Err(RfhError::Topology(format!(
                "link {a}-{b} latency factor must be positive and finite, got {factor}"
            )));
        }
        self.mutate_link(a, b, |l| {
            let changed = l.factor != factor;
            l.factor = factor;
            changed
        })
    }

    /// Recompute the all-pairs routing tables. Must be called after any
    /// `add_link` or link change before routing queries.
    ///
    /// Runs Dijkstra from every source: O(V · E log V), trivial at the
    /// paper's scale and still fine for hundreds of sites. Ties are
    /// broken toward the lower-numbered neighbour so routing is
    /// deterministic across runs.
    pub fn rebuild(&mut self) {
        let n = self.adjacency.len();
        self.next_hop = vec![vec![u32::MAX; n]; n];
        self.dist_ms = vec![vec![f64::INFINITY; n]; n];
        for src in 0..n {
            self.dijkstra_from(src);
        }
    }

    fn dijkstra_from(&mut self, src: usize) {
        #[derive(PartialEq)]
        struct Entry {
            dist: f64,
            node: u32,
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                // Min-heap on distance, then on node id for determinism.
                other
                    .dist
                    .partial_cmp(&self.dist)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| other.node.cmp(&self.node))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = self.adjacency.len();
        // prev[v] = predecessor of v on the shortest path from src.
        let mut prev = vec![u32::MAX; n];
        let mut dist = vec![f64::INFINITY; n];
        let mut done = vec![false; n];
        dist[src] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(Entry { dist: 0.0, node: src as u32 });
        while let Some(Entry { dist: d, node }) = heap.pop() {
            let u = node as usize;
            if done[u] {
                continue;
            }
            done[u] = true;
            for link in &self.adjacency[u] {
                if !link.up {
                    continue;
                }
                let v = link.to as usize;
                let nd = d + link.weight();
                let better =
                    nd < dist[v] - 1e-12 || ((nd - dist[v]).abs() <= 1e-12 && node < prev[v]);
                if better {
                    dist[v] = nd;
                    prev[v] = node;
                    heap.push(Entry { dist: nd, node: v as u32 });
                }
            }
        }
        // Convert predecessor tree into next-hop entries for this source.
        for (dst, d) in dist.iter().enumerate() {
            if dst == src || d.is_infinite() {
                continue;
            }
            // Walk back from dst to src; the node just after src is the
            // first hop.
            let mut cur = dst;
            while prev[cur] as usize != src {
                cur = prev[cur] as usize;
            }
            self.next_hop[src][dst] = cur as u32;
        }
        self.dist_ms[src] = dist;
    }

    /// Shortest-path latency between two datacenters, or `None` when
    /// disconnected. Zero for `src == dst`.
    pub fn latency_ms(&self, src: DatacenterId, dst: DatacenterId) -> Option<f64> {
        let d = *self.dist_ms.get(src.index())?.get(dst.index())?;
        d.is_finite().then_some(d)
    }

    /// The full routing path from `src` to `dst`, both inclusive.
    /// Returns `None` when disconnected. `src == dst` yields `[src]`.
    pub fn path(&self, src: DatacenterId, dst: DatacenterId) -> Option<RoutePath> {
        if src == dst {
            return (src.index() < self.adjacency.len()).then(|| vec![src]);
        }
        self.latency_ms(src, dst)?;
        let mut path = vec![src];
        let mut cur = src;
        // The next-hop table is loop-free by construction; bound the walk
        // anyway so a corrupted table cannot hang the simulator.
        for _ in 0..self.adjacency.len() {
            let nh = self.next_hop[cur.index()][dst.index()];
            if nh == u32::MAX {
                return None;
            }
            cur = DatacenterId::new(nh);
            path.push(cur);
            if cur == dst {
                return Some(path);
            }
        }
        None
    }

    /// Number of links on the shortest path (0 for `src == dst`).
    pub fn hop_count(&self, src: DatacenterId, dst: DatacenterId) -> Option<usize> {
        self.path(src, dst).map(|p| p.len() - 1)
    }

    /// True when every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        let n = self.adjacency.len();
        if n <= 1 {
            return true;
        }
        self.dist_ms.first().map(|row| row.iter().all(|d| d.is_finite())).unwrap_or(false)
            && self.dist_ms.len() == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc(i: u32) -> DatacenterId {
        DatacenterId::new(i)
    }

    /// A small diamond: 0-1 (1ms), 0-2 (5ms), 1-2 (1ms), 2-3 (1ms).
    fn diamond() -> WanGraph {
        let mut g = WanGraph::new(4);
        g.add_link(dc(0), dc(1), 1.0).unwrap();
        g.add_link(dc(0), dc(2), 5.0).unwrap();
        g.add_link(dc(1), dc(2), 1.0).unwrap();
        g.add_link(dc(2), dc(3), 1.0).unwrap();
        g.rebuild();
        g
    }

    #[test]
    fn shortest_path_prefers_low_latency() {
        let g = diamond();
        // 0 → 2 via 1 (2ms) beats the direct 5ms link.
        assert_eq!(g.path(dc(0), dc(2)).unwrap(), vec![dc(0), dc(1), dc(2)]);
        assert_eq!(g.latency_ms(dc(0), dc(2)), Some(2.0));
        assert_eq!(g.hop_count(dc(0), dc(3)), Some(3));
    }

    #[test]
    fn paths_are_symmetric_in_cost() {
        let g = diamond();
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(g.latency_ms(dc(a), dc(b)), g.latency_ms(dc(b), dc(a)), "{a}->{b}");
            }
        }
    }

    #[test]
    fn reverse_path_is_reversed_forward_path() {
        let g = diamond();
        let fwd = g.path(dc(0), dc(3)).unwrap();
        let mut rev = g.path(dc(3), dc(0)).unwrap();
        rev.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn self_path_is_single_node() {
        let g = diamond();
        assert_eq!(g.path(dc(2), dc(2)).unwrap(), vec![dc(2)]);
        assert_eq!(g.hop_count(dc(2), dc(2)), Some(0));
        assert_eq!(g.latency_ms(dc(2), dc(2)), Some(0.0));
    }

    #[test]
    fn disconnected_nodes_have_no_path() {
        let mut g = WanGraph::new(3);
        g.add_link(dc(0), dc(1), 1.0).unwrap();
        g.rebuild();
        assert_eq!(g.path(dc(0), dc(2)), None);
        assert_eq!(g.latency_ms(dc(0), dc(2)), None);
        assert!(!g.is_connected());
    }

    #[test]
    fn connectivity_detection() {
        assert!(diamond().is_connected());
        assert!(WanGraph::new(0).is_connected());
        let mut single = WanGraph::new(1);
        single.rebuild();
        assert!(single.is_connected());
    }

    #[test]
    fn duplicate_links_keep_minimum() {
        let mut g = WanGraph::new(2);
        g.add_link(dc(0), dc(1), 5.0).unwrap();
        g.add_link(dc(0), dc(1), 2.0).unwrap();
        g.add_link(dc(1), dc(0), 9.0).unwrap();
        g.rebuild();
        assert_eq!(g.latency_ms(dc(0), dc(1)), Some(2.0));
        assert_eq!(g.neighbours(dc(0)).count(), 1);
    }

    #[test]
    fn invalid_links_rejected() {
        let mut g = WanGraph::new(2);
        assert!(g.add_link(dc(0), dc(0), 1.0).is_err(), "self link");
        assert!(g.add_link(dc(0), dc(5), 1.0).is_err(), "unknown node");
        assert!(g.add_link(dc(0), dc(1), 0.0).is_err(), "zero latency");
        assert!(g.add_link(dc(0), dc(1), -3.0).is_err(), "negative latency");
        assert!(g.add_link(dc(0), dc(1), f64::NAN).is_err(), "NaN latency");
        assert!(g.add_link(dc(0), dc(1), f64::INFINITY).is_err());
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-cost routes 0→3: via 1 or via 2. The lower-id
        // predecessor must win, every time.
        let mut g = WanGraph::new(4);
        g.add_link(dc(0), dc(1), 1.0).unwrap();
        g.add_link(dc(0), dc(2), 1.0).unwrap();
        g.add_link(dc(1), dc(3), 1.0).unwrap();
        g.add_link(dc(2), dc(3), 1.0).unwrap();
        g.rebuild();
        let p = g.path(dc(0), dc(3)).unwrap();
        assert_eq!(p, vec![dc(0), dc(1), dc(3)]);
        // Rebuilding must not change the choice.
        let mut g2 = g.clone();
        g2.rebuild();
        assert_eq!(g2.path(dc(0), dc(3)).unwrap(), p);
    }

    #[test]
    fn link_down_reroutes_and_link_up_restores() {
        let mut g = diamond();
        // Healthy: 0 → 2 via 1 (2ms).
        assert_eq!(g.latency_ms(dc(0), dc(2)), Some(2.0));
        assert!(g.set_link_up(dc(1), dc(2), false).unwrap());
        g.rebuild();
        // Forced onto the direct 5ms link.
        assert_eq!(g.path(dc(0), dc(2)).unwrap(), vec![dc(0), dc(2)]);
        assert_eq!(g.latency_ms(dc(0), dc(2)), Some(5.0));
        // Downing again is a no-op.
        assert!(!g.set_link_up(dc(1), dc(2), false).unwrap());
        assert!(g.set_link_up(dc(1), dc(2), true).unwrap());
        g.rebuild();
        assert_eq!(g.latency_ms(dc(0), dc(2)), Some(2.0));
    }

    #[test]
    fn downed_links_split_the_graph() {
        let mut g = diamond();
        g.set_link_up(dc(2), dc(3), false).unwrap();
        g.rebuild();
        assert_eq!(g.path(dc(0), dc(3)), None);
        assert!(!g.is_connected());
        assert_eq!(g.neighbours(dc(3)).count(), 0, "downed link hidden from neighbours");
    }

    #[test]
    fn latency_factor_inflates_routing_weight() {
        let mut g = diamond();
        // Inflate 0-1 by 10x: 0 → 2 now prefers the direct 5ms link.
        assert!(g.set_link_factor(dc(0), dc(1), 10.0).unwrap());
        g.rebuild();
        assert_eq!(g.path(dc(0), dc(2)).unwrap(), vec![dc(0), dc(2)]);
        // 0 → 1 routes around the inflated link: 0-2-1 = 5 + 1 = 6ms.
        assert_eq!(g.path(dc(0), dc(1)).unwrap(), vec![dc(0), dc(2), dc(1)]);
        assert_eq!(g.latency_ms(dc(0), dc(1)), Some(6.0));
        // Healing restores the original route.
        g.set_link_factor(dc(0), dc(1), 1.0).unwrap();
        g.rebuild();
        assert_eq!(g.latency_ms(dc(0), dc(1)), Some(1.0));
    }

    #[test]
    fn link_mutations_validate_arguments() {
        let mut g = diamond();
        assert!(g.set_link_up(dc(0), dc(3), false).is_err(), "no such link");
        assert!(g.set_link_up(dc(0), dc(0), false).is_err(), "self link");
        assert!(g.set_link_up(dc(0), dc(9), false).is_err(), "unknown node");
        assert!(g.set_link_factor(dc(0), dc(1), 0.0).is_err());
        assert!(g.set_link_factor(dc(0), dc(1), f64::NAN).is_err());
        assert!(!g.set_link_factor(dc(0), dc(1), 1.0).unwrap(), "already 1.0");
    }

    #[test]
    fn links_enumerates_undirected_edges() {
        let mut g = diamond();
        g.set_link_up(dc(0), dc(2), false).unwrap();
        let links = g.links();
        assert_eq!(links.len(), 4);
        assert!(links.contains(&(dc(0), dc(2), 5.0, 1.0, false)));
        assert!(links.contains(&(dc(1), dc(2), 1.0, 1.0, true)));
    }

    #[test]
    fn neighbours_lists_links() {
        let g = diamond();
        let n0: Vec<(u32, f64)> = g.neighbours(dc(0)).map(|(d, l)| (d.0, l)).collect();
        assert_eq!(n0, vec![(1, 1.0), (2, 5.0)]);
        assert_eq!(g.neighbours(dc(99)).count(), 0, "out of range is empty");
    }
}
