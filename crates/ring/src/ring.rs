//! The consistent-hash ring.
//!
//! Each physical server owns several *tokens* (virtual positions) on a
//! fixed circular `u64` space; a partition hashes to a point on the ring
//! and is owned by the server holding the next token clockwise. This is
//! the Dynamo-style "variant of consistent hashing" of §II-B: virtual
//! nodes give smooth load spreading, and "node join and departure only
//! impacts its immediate neighbors" — only the keys between the departed
//! token and its predecessor move.

use crate::hash::{combine, fnv1a64, splitmix64};
use rfh_types::{PartitionId, Result, RfhError, ServerId};

/// A consistent-hash ring mapping partitions to servers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConsistentHashRing {
    /// Sorted by token. Invariant: tokens strictly increasing.
    tokens: Vec<(u64, ServerId)>,
    /// Tokens per server, fixed at construction.
    tokens_per_server: u32,
}

impl ConsistentHashRing {
    /// Create an empty ring where each joining server will own
    /// `tokens_per_server` virtual positions.
    ///
    /// # Panics
    /// Panics if `tokens_per_server` is zero.
    pub fn new(tokens_per_server: u32) -> Self {
        assert!(tokens_per_server > 0, "servers need at least one token");
        ConsistentHashRing { tokens: Vec::new(), tokens_per_server }
    }

    /// Number of distinct servers on the ring.
    pub fn server_count(&self) -> usize {
        let mut ids: Vec<u32> = self.tokens.iter().map(|&(_, s)| s.0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// True when the ring has no servers.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The deterministic token positions of a server.
    fn token_positions(&self, server: ServerId) -> impl Iterator<Item = u64> + '_ {
        let base = splitmix64(server.0 as u64 ^ 0x5249_4e47); // "RING"
        (0..self.tokens_per_server as u64).map(move |i| combine(base, i))
    }

    /// Add a server's tokens. Idempotent: joining twice is a no-op.
    pub fn join(&mut self, server: ServerId) {
        if self.tokens.iter().any(|&(_, s)| s == server) {
            return;
        }
        let positions: Vec<u64> = self.token_positions(server).collect();
        for pos in positions {
            // In the astronomically unlikely event of a token collision,
            // nudge deterministically until free.
            let mut p = pos;
            while self.tokens.binary_search_by_key(&p, |&(t, _)| t).is_ok() {
                p = splitmix64(p);
            }
            let idx = self.tokens.partition_point(|&(t, _)| t < p);
            self.tokens.insert(idx, (p, server));
        }
    }

    /// Remove a server's tokens (departure or failure). Idempotent.
    pub fn leave(&mut self, server: ServerId) {
        self.tokens.retain(|&(_, s)| s != server);
    }

    /// Ring position of a partition.
    ///
    /// FNV-1a alone avalanches poorly in the high bits for short
    /// sequential keys (positions would clump on one arc), so the ring
    /// position is the splitmix64 finalization of the FNV digest.
    pub fn partition_position(&self, partition: PartitionId) -> u64 {
        splitmix64(fnv1a64(format!("partition:{}", partition.0).as_bytes()))
    }

    /// The server owning a raw ring position (its clockwise successor).
    pub fn owner_of_position(&self, position: u64) -> Result<ServerId> {
        if self.tokens.is_empty() {
            return Err(RfhError::Ring("lookup on an empty ring".into()));
        }
        let idx = self.tokens.partition_point(|&(t, _)| t < position);
        let idx = if idx == self.tokens.len() { 0 } else { idx };
        Ok(self.tokens[idx].1)
    }

    /// The primary owner of a partition.
    pub fn primary(&self, partition: PartitionId) -> Result<ServerId> {
        self.owner_of_position(self.partition_position(partition))
    }

    /// The first `n` *distinct* servers clockwise from the partition's
    /// position, starting with the primary — Dynamo's preference list
    /// ("replicate data at the N−1 clockwise successor nodes", §II-A).
    /// Returns fewer than `n` when the ring has fewer distinct servers.
    pub fn successors(&self, partition: PartitionId, n: usize) -> Result<Vec<ServerId>> {
        if self.tokens.is_empty() {
            return Err(RfhError::Ring("lookup on an empty ring".into()));
        }
        let pos = self.partition_position(partition);
        let start = self.tokens.partition_point(|&(t, _)| t < pos);
        let mut out: Vec<ServerId> = Vec::with_capacity(n);
        for i in 0..self.tokens.len() {
            let (_, server) = self.tokens[(start + i) % self.tokens.len()];
            if !out.contains(&server) {
                out.push(server);
                if out.len() == n {
                    break;
                }
            }
        }
        Ok(out)
    }

    /// All distinct servers on the ring, in token order from position 0.
    pub fn servers(&self) -> Vec<ServerId> {
        let mut out = Vec::new();
        for &(_, s) in &self.tokens {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    /// Fraction of the ring's keyspace owned by each server, as
    /// `(server, fraction)` pairs. With enough tokens per server these
    /// converge to `1 / server_count` — the load-spreading property that
    /// justifies virtual nodes.
    pub fn ownership(&self) -> Vec<(ServerId, f64)> {
        if self.tokens.is_empty() {
            return Vec::new();
        }
        let mut spans: std::collections::HashMap<u32, u128> = std::collections::HashMap::new();
        let n = self.tokens.len();
        for i in 0..n {
            let (tok, owner) = self.tokens[i];
            let prev = self.tokens[(i + n - 1) % n].0;
            // Arc owned by `owner`: (prev, tok], wrapping.
            let span = tok.wrapping_sub(prev) as u128;
            let span = if span == 0 { 1u128 << 64 } else { span };
            *spans.entry(owner.0).or_default() += span;
        }
        let total = 1u128 << 64;
        let mut out: Vec<(ServerId, f64)> = spans
            .into_iter()
            .map(|(s, span)| (ServerId::new(s), span as f64 / total as f64))
            .collect();
        out.sort_by_key(|&(s, _)| s.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with(n: u32, tokens: u32) -> ConsistentHashRing {
        let mut r = ConsistentHashRing::new(tokens);
        for i in 0..n {
            r.join(ServerId::new(i));
        }
        r
    }

    #[test]
    fn empty_ring_rejects_lookups() {
        let r = ConsistentHashRing::new(8);
        assert!(r.is_empty());
        assert!(r.primary(PartitionId::new(0)).is_err());
        assert!(r.successors(PartitionId::new(0), 3).is_err());
        assert!(r.owner_of_position(42).is_err());
        assert!(r.ownership().is_empty());
    }

    #[test]
    fn join_is_idempotent() {
        let mut r = ring_with(3, 16);
        assert_eq!(r.tokens.len(), 48);
        r.join(ServerId::new(1));
        assert_eq!(r.tokens.len(), 48);
        assert_eq!(r.server_count(), 3);
    }

    #[test]
    fn leave_removes_all_tokens() {
        let mut r = ring_with(3, 16);
        r.leave(ServerId::new(1));
        assert_eq!(r.tokens.len(), 32);
        assert_eq!(r.server_count(), 2);
        r.leave(ServerId::new(1)); // idempotent
        assert_eq!(r.tokens.len(), 32);
    }

    #[test]
    fn primary_is_stable_and_deterministic() {
        let r1 = ring_with(10, 32);
        let r2 = ring_with(10, 32);
        for p in 0..64 {
            let pid = PartitionId::new(p);
            assert_eq!(r1.primary(pid).unwrap(), r2.primary(pid).unwrap());
        }
    }

    #[test]
    fn successors_start_with_primary_and_are_distinct() {
        let r = ring_with(10, 32);
        for p in 0..64 {
            let pid = PartitionId::new(p);
            let succ = r.successors(pid, 4).unwrap();
            assert_eq!(succ.len(), 4);
            assert_eq!(succ[0], r.primary(pid).unwrap());
            let mut d = succ.clone();
            d.sort_by_key(|s| s.0);
            d.dedup();
            assert_eq!(d.len(), 4, "successors must be distinct servers");
        }
    }

    #[test]
    fn successors_cap_at_server_count() {
        let r = ring_with(3, 8);
        let succ = r.successors(PartitionId::new(5), 10).unwrap();
        assert_eq!(succ.len(), 3);
    }

    #[test]
    fn departure_only_moves_departed_keys() {
        // The consistent-hashing contract: removing a server never
        // changes the owner of a partition it did not own.
        let r_before = ring_with(10, 64);
        let mut r_after = r_before.clone();
        let victim = ServerId::new(4);
        r_after.leave(victim);
        for p in 0..512 {
            let pid = PartitionId::new(p);
            let before = r_before.primary(pid).unwrap();
            let after = r_after.primary(pid).unwrap();
            if before != victim {
                assert_eq!(before, after, "partition {p} moved needlessly");
            } else {
                assert_ne!(after, victim);
            }
        }
    }

    #[test]
    fn join_only_steals_keys_for_new_server() {
        let r_before = ring_with(10, 64);
        let mut r_after = r_before.clone();
        let newcomer = ServerId::new(99);
        r_after.join(newcomer);
        for p in 0..512 {
            let pid = PartitionId::new(p);
            let before = r_before.primary(pid).unwrap();
            let after = r_after.primary(pid).unwrap();
            assert!(after == before || after == newcomer, "partition {p} moved to a third party");
        }
    }

    #[test]
    fn ownership_fractions_sum_to_one_and_balance() {
        let r = ring_with(10, 128);
        let own = r.ownership();
        assert_eq!(own.len(), 10);
        let total: f64 = own.iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for &(s, f) in &own {
            assert!(
                (0.04..0.25).contains(&f),
                "server {s} owns {f}, far from 1/10 — virtual nodes not balancing"
            );
        }
    }

    #[test]
    fn partition_spread_over_servers() {
        // 64 partitions over 10 servers: no server should own a wildly
        // disproportionate share with 128 tokens each.
        let r = ring_with(10, 128);
        let mut counts = vec![0usize; 10];
        for p in 0..64 {
            counts[r.primary(PartitionId::new(p)).unwrap().index()] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 64);
        assert!(*counts.iter().max().unwrap() <= 16, "{counts:?}");
    }

    #[test]
    fn wraparound_lookup() {
        let r = ring_with(5, 16);
        // A position after the last token wraps to the first.
        let last = r.tokens.last().unwrap().0;
        let first_owner = r.tokens[0].1;
        if last < u64::MAX {
            assert_eq!(r.owner_of_position(last + 1).unwrap(), first_owner);
        }
        assert_eq!(r.owner_of_position(0).unwrap(), r.tokens[0].1);
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_tokens_rejected() {
        let _ = ConsistentHashRing::new(0);
    }
}
