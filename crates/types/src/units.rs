//! Storage and bandwidth units.
//!
//! Table I expresses capacities in bytes (10 GB max server storage,
//! 512 KB partitions) and bandwidths in bytes *per epoch* (300 MB/epoch
//! replication, 100 MB/epoch migration). Using newtypes keeps the two
//! from being mixed up and documents every interface.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A byte count (storage size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// `n` kibibytes (1024 bytes each; the paper's "512K" partitions).
    pub const fn kib(n: u64) -> Bytes {
        Bytes(n * 1024)
    }

    /// `n` mebibytes.
    pub const fn mib(n: u64) -> Bytes {
        Bytes(n * 1024 * 1024)
    }

    /// `n` gibibytes.
    pub const fn gib(n: u64) -> Bytes {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// This size as a fraction of `total` (e.g. storage occupancy `S_i`
    /// in eq. 19). Returns 0 when `total` is zero.
    pub fn fraction_of(self, total: Bytes) -> f64 {
        if total.0 == 0 {
            0.0
        } else {
            self.0 as f64 / total.0 as f64
        }
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: u64 = 1024;
        const MIB: u64 = 1024 * KIB;
        const GIB: u64 = 1024 * MIB;
        let b = self.0;
        if b >= GIB && b.is_multiple_of(GIB) {
            write!(f, "{}GiB", b / GIB)
        } else if b >= MIB && b.is_multiple_of(MIB) {
            write!(f, "{}MiB", b / MIB)
        } else if b >= KIB && b.is_multiple_of(KIB) {
            write!(f, "{}KiB", b / KIB)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// Transfer bandwidth in bytes per epoch.
///
/// One epoch is the simulator's unit of time (10 s in Table I); a
/// bandwidth bounds how much replica data a server can ship per epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// `n` mebibytes per epoch.
    pub const fn mib_per_epoch(n: u64) -> Bandwidth {
        Bandwidth(n * 1024 * 1024)
    }

    /// Bytes transferable in one epoch.
    #[inline]
    pub const fn bytes_per_epoch(self) -> Bytes {
        Bytes(self.0)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/epoch", Bytes(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors() {
        assert_eq!(Bytes::kib(512).as_u64(), 512 * 1024);
        assert_eq!(Bytes::mib(300).as_u64(), 300 * 1024 * 1024);
        assert_eq!(Bytes::gib(10).as_u64(), 10u64 * 1024 * 1024 * 1024);
    }

    #[test]
    fn byte_arithmetic() {
        let a = Bytes::mib(3);
        let b = Bytes::mib(1);
        assert_eq!(a + b, Bytes::mib(4));
        assert_eq!(a - b, Bytes::mib(2));
        assert_eq!(b * 5, Bytes::mib(5));
        let mut c = a;
        c += b;
        assert_eq!(c, Bytes::mib(4));
        c -= b;
        assert_eq!(c, a);
        assert_eq!(Bytes(5).saturating_sub(Bytes(9)), Bytes::ZERO);
    }

    #[test]
    fn byte_sum() {
        let total: Bytes = (1..=4).map(Bytes::kib).sum();
        assert_eq!(total, Bytes::kib(10));
    }

    #[test]
    fn fraction_of_total() {
        assert_eq!(Bytes::gib(7).fraction_of(Bytes::gib(10)), 0.7);
        assert_eq!(Bytes::ZERO.fraction_of(Bytes::gib(10)), 0.0);
        assert_eq!(Bytes::mib(1).fraction_of(Bytes::ZERO), 0.0, "guard div-by-zero");
    }

    #[test]
    fn display_picks_best_unit() {
        assert_eq!(Bytes::kib(512).to_string(), "512KiB");
        assert_eq!(Bytes::mib(300).to_string(), "300MiB");
        assert_eq!(Bytes::gib(10).to_string(), "10GiB");
        assert_eq!(Bytes(999).to_string(), "999B");
        assert_eq!(Bytes(1536).to_string(), "1536B", "non-integral KiB stays bytes");
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(Bandwidth::mib_per_epoch(100).to_string(), "100MiB/epoch");
    }
}
