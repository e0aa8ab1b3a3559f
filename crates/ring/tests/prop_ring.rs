//! Property-based tests for the ring and prefix-routing invariants.

use proptest::prelude::*;
use rfh_ring::{ConsistentHashRing, PrefixRouter};
use rfh_types::{PartitionId, ServerId};

fn ring(servers: &[u32], tokens: u32) -> ConsistentHashRing {
    let mut r = ConsistentHashRing::new(tokens);
    for &s in servers {
        r.join(ServerId::new(s));
    }
    r
}

proptest! {
    #[test]
    fn primary_is_always_a_member(
        servers in proptest::collection::hash_set(0u32..1000, 1..40),
        parts in proptest::collection::vec(0u32..10_000, 1..50),
        tokens in 1u32..64,
    ) {
        let servers: Vec<u32> = servers.into_iter().collect();
        let r = ring(&servers, tokens);
        for p in parts {
            let owner = r.primary(PartitionId::new(p)).unwrap();
            prop_assert!(servers.contains(&owner.0));
        }
    }

    #[test]
    fn minimal_disruption_on_leave(
        servers in proptest::collection::hash_set(0u32..1000, 2..30),
        tokens in 8u32..64,
        victim_idx in any::<prop::sample::Index>(),
    ) {
        let servers: Vec<u32> = servers.into_iter().collect();
        let victim = ServerId::new(servers[victim_idx.index(servers.len())]);
        let before = ring(&servers, tokens);
        let mut after = before.clone();
        after.leave(victim);
        for p in 0..128 {
            let pid = PartitionId::new(p);
            let b = before.primary(pid).unwrap();
            let a = after.primary(pid).unwrap();
            if b != victim {
                prop_assert_eq!(a, b, "partition {} moved without cause", p);
            } else {
                prop_assert_ne!(a, victim);
            }
        }
    }

    #[test]
    fn successor_lists_are_prefix_consistent(
        servers in proptest::collection::hash_set(0u32..500, 3..20),
        tokens in 4u32..32,
        p in 0u32..1000,
    ) {
        // successors(p, k) must be a prefix of successors(p, k+1).
        let servers: Vec<u32> = servers.into_iter().collect();
        let r = ring(&servers, tokens);
        let pid = PartitionId::new(p);
        for k in 1..servers.len() {
            let a = r.successors(pid, k).unwrap();
            let b = r.successors(pid, k + 1).unwrap();
            prop_assert_eq!(&b[..a.len()], &a[..]);
        }
    }

    #[test]
    fn successor_walk_yields_every_server_once(
        servers in proptest::collection::hash_set(0u32..1000, 1..40),
        tokens in 1u32..64,
        p in any::<u32>(),
    ) {
        let r = ring(&servers.iter().copied().collect::<Vec<_>>(), tokens);
        let walked: Vec<u32> = r.successor_walk(PartitionId::new(p)).map(|s| s.0).collect();
        prop_assert_eq!(walked.len(), servers.len());
        let distinct: std::collections::HashSet<u32> = walked.iter().copied().collect();
        prop_assert_eq!(distinct, servers);
    }

    #[test]
    fn successor_walk_prefixes_are_the_successor_lists(
        servers in proptest::collection::hash_set(0u32..1000, 1..40),
        tokens in 1u32..64,
        p in any::<u32>(),
        k in 0usize..48,
    ) {
        let r = ring(&servers.into_iter().collect::<Vec<_>>(), tokens);
        let pid = PartitionId::new(p);
        let prefix: Vec<ServerId> = r.successor_walk(pid).take(k).collect();
        prop_assert_eq!(prefix, r.successors(pid, k).unwrap());
    }

    #[test]
    fn ownership_sums_to_one(
        servers in proptest::collection::hash_set(0u32..300, 1..25),
        tokens in 1u32..128,
    ) {
        let servers: Vec<u32> = servers.into_iter().collect();
        let r = ring(&servers, tokens);
        let total: f64 = r.ownership().iter().map(|&(_, f)| f).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "got {total}");
        prop_assert_eq!(r.ownership().len(), servers.len());
    }

    #[test]
    fn prefix_routing_terminates_at_owner(
        servers in proptest::collection::hash_set(0u32..2000, 1..60),
        keys in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        let servers: Vec<u32> = servers.into_iter().collect();
        let mut o = PrefixRouter::new();
        for &s in &servers {
            o.join(ServerId::new(s));
        }
        for key in keys {
            let owner = o.owner(key).unwrap();
            let src = ServerId::new(servers[0]);
            let path = o.route(src, key).unwrap();
            prop_assert_eq!(*path.last().unwrap(), owner);
            // Overlay paths are bounded by the digit count + 1.
            prop_assert!(path.len() <= 18, "path too long: {}", path.len());
        }
    }
}
