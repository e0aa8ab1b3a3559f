//! # rfh-ring
//!
//! The partitioning and overlay-routing substrate of §II-B: "The
//! partitioning scheme of RFH is built using a variant of consistent
//! hashing. … A ring topology, which is treated as a fixed circular
//! space, is employed as the output range of a hash function."
//!
//! * [`hash`] — stable 64-bit hashing (FNV-1a and splitmix64), identical
//!   across platforms and runs so simulations are reproducible.
//! * [`ring`] — the consistent-hash ring: servers own multiple tokens,
//!   partitions map to their clockwise successor, and the Dynamo-style
//!   "replicate at the N−1 clockwise successor nodes" placement used by
//!   the *random* baseline falls out of
//!   [`ring::ConsistentHashRing::successor_walk`].
//! * [`prefix`] — prefix-digit overlay routing ("similar to Oceanstore…
//!   It routes messages directly to the closest node which has the
//!   desired ID and matches the prefix. The cost of routing is
//!   O(log n)").

#![warn(missing_docs)]

pub mod hash;
pub mod prefix;
pub mod ring;

pub use hash::{fnv1a64, splitmix64};
pub use prefix::PrefixRouter;
pub use ring::{ConsistentHashRing, SuccessorWalk};
