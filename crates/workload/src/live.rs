//! Lock-free live traffic counters for the serving runtime.
//!
//! The offline simulator fills a [`QueryLoad`] synchronously; a live
//! cluster has many request-handler threads incrementing `q_ijt`
//! concurrently while a control loop periodically snapshots it. This
//! module provides the shared, atomic variant: handlers call
//! [`SharedLoad::add`] on the hot path (one relaxed fetch-add), and the
//! control loop calls [`SharedLoad::drain_sparse_into`] to move the
//! counts of the partitions touched since the last drain into an
//! ordinary [`QueryLoad`] — atomically swapping each cell to zero so
//! every query is counted in exactly one control interval.

use crate::load::QueryLoad;
use rfh_types::{DatacenterId, PartitionId};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

/// A `partitions × requester-datacenters` matrix of atomic counters,
/// with a touched-partition registry so the control loop can drain in
/// O(touched) instead of O(cells).
#[derive(Debug)]
pub struct SharedLoad {
    partitions: u32,
    dcs: u32,
    counts: Vec<AtomicU32>,
    /// `touched[p]` — partition `p` has had an increment since it was
    /// last drained. Guards the registry against duplicate pushes.
    touched: Vec<AtomicBool>,
    /// Partitions with `touched[p]` set, in first-touch order.
    registry: Mutex<Vec<u32>>,
}

impl SharedLoad {
    /// Zeroed counter matrix for the given shape.
    pub fn zeros(partitions: u32, dcs: u32) -> Self {
        let mut counts = Vec::with_capacity(partitions as usize * dcs as usize);
        counts.resize_with(partitions as usize * dcs as usize, || AtomicU32::new(0));
        let mut touched = Vec::with_capacity(partitions as usize);
        touched.resize_with(partitions as usize, || AtomicBool::new(false));
        SharedLoad { partitions, dcs, counts, touched, registry: Mutex::new(Vec::new()) }
    }

    /// Number of partitions (rows).
    pub fn partitions(&self) -> u32 {
        self.partitions
    }

    /// Number of requester datacenters (columns).
    pub fn datacenters(&self) -> u32 {
        self.dcs
    }

    #[inline]
    fn idx(&self, p: PartitionId, j: DatacenterId) -> usize {
        debug_assert!(p.0 < self.partitions && j.0 < self.dcs);
        p.index() * self.dcs as usize + j.index()
    }

    /// Record `n` more queries for partition `p` from requester `j`.
    /// Saturates instead of wrapping if an interval somehow exceeds
    /// `u32::MAX` queries in one cell.
    #[inline]
    pub fn add(&self, p: PartitionId, j: DatacenterId, n: u32) {
        if n == 0 {
            return;
        }
        let cell = &self.counts[self.idx(p, j)];
        let prev = cell.fetch_add(n, Ordering::Relaxed);
        if prev.checked_add(n).is_none() {
            cell.store(u32::MAX, Ordering::Relaxed);
        }
        // Register the partition for the next sparse drain. The Release
        // pairs with the drain's Acquire swap on the same flag, ordering
        // the fetch_add above before the flag for the draining thread.
        if !self.touched[p.index()].swap(true, Ordering::Release) {
            self.registry.lock().expect("touched registry poisoned").push(p.0);
        }
    }

    /// Current value of one cell (racy snapshot, test/debug use).
    pub fn get(&self, p: PartitionId, j: DatacenterId) -> u32 {
        self.counts[self.idx(p, j)].load(Ordering::Relaxed)
    }

    /// Move all counts into `out` touching only registered partitions:
    /// O(touched × dcs) instead of O(cells). Each increment still lands
    /// in exactly one drain — the touch flag is cleared *before* the
    /// cells are swapped, so a concurrent increment that the swap misses
    /// re-registers its partition for the next drain; a re-registration
    /// whose counts were already taken drains as zero, harmlessly.
    ///
    /// The drained partitions are exactly `out.touched()` afterwards
    /// when `out` starts empty.
    ///
    /// # Panics
    /// If `out` has a different shape.
    pub fn drain_sparse_into(&self, out: &mut QueryLoad) -> u64 {
        assert_eq!(
            (out.partitions(), out.datacenters()),
            (self.partitions, self.dcs),
            "drain target shape mismatch"
        );
        let parts = std::mem::take(&mut *self.registry.lock().expect("touched registry poisoned"));
        let mut total = 0u64;
        for &p in &parts {
            // Clear first: an add racing past the cell swap below sees
            // `false`, re-registers, and is drained next interval.
            self.touched[p as usize].swap(false, Ordering::Acquire);
            let base = p as usize * self.dcs as usize;
            for j in 0..self.dcs as usize {
                let n = self.counts[base + j].swap(0, Ordering::Relaxed);
                if n > 0 {
                    out.add(PartitionId::new(p), DatacenterId::new(j as u32), n);
                    total += n as u64;
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PartitionId {
        PartitionId::new(i)
    }
    fn d(i: u32) -> DatacenterId {
        DatacenterId::new(i)
    }

    #[test]
    fn add_drain_and_reset() {
        let shared = SharedLoad::zeros(3, 2);
        shared.add(p(0), d(1), 4);
        shared.add(p(2), d(0), 1);
        shared.add(p(0), d(1), 2);
        assert_eq!(shared.get(p(0), d(1)), 6);
        let mut q = QueryLoad::zeros(3, 2);
        assert_eq!(shared.drain_sparse_into(&mut q), 7);
        assert_eq!(q.get(p(0), d(1)), 6);
        assert_eq!(q.get(p(2), d(0)), 1);
        assert_eq!(shared.get(p(0), d(1)), 0, "drain must zero the source");
        assert_eq!(shared.drain_sparse_into(&mut q), 0, "second drain finds nothing");
        assert_eq!(q.get(p(0), d(1)), 6, "drain adds into the target");
    }

    #[test]
    fn sparse_drain_takes_only_touched_rows_and_resets_them() {
        let shared = SharedLoad::zeros(1000, 4);
        shared.add(p(7), d(1), 3);
        shared.add(p(999), d(0), 2);
        shared.add(p(7), d(2), 1);
        let mut q = QueryLoad::zeros(1000, 4);
        assert_eq!(shared.drain_sparse_into(&mut q), 6);
        assert_eq!(q.touched(), &[7, 999]);
        assert_eq!(q.get(p(7), d(1)), 3);
        assert_eq!(q.get(p(999), d(0)), 2);
        // Second sparse drain: registry empty, nothing moves.
        let mut q2 = QueryLoad::zeros(1000, 4);
        assert_eq!(shared.drain_sparse_into(&mut q2), 0);
        assert!(q2.touched().is_empty());
        // Re-touch after a drain re-registers.
        shared.add(p(7), d(0), 5);
        let mut q3 = QueryLoad::zeros(1000, 4);
        assert_eq!(shared.drain_sparse_into(&mut q3), 5);
        assert_eq!(q3.touched(), &[7]);
    }

    #[test]
    fn sparse_drain_counts_concurrent_increments_exactly_once() {
        let shared = SharedLoad::zeros(64, 4);
        let drained = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let shared = &shared;
                s.spawn(move || {
                    for i in 0..10_000u32 {
                        shared.add(p(i % 64), d(t % 4), 1);
                    }
                });
            }
            let (shared, drained) = (&shared, &drained);
            s.spawn(move || {
                let mut q = QueryLoad::zeros(64, 4);
                for _ in 0..50 {
                    drained.fetch_add(shared.drain_sparse_into(&mut q), Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
        });
        let mut q = QueryLoad::zeros(64, 4);
        let total = drained.load(Ordering::Relaxed) + shared.drain_sparse_into(&mut q);
        assert_eq!(total, 40_000);
    }

    #[test]
    fn saturates_at_u32_max() {
        let shared = SharedLoad::zeros(1, 1);
        shared.add(p(0), d(0), u32::MAX - 1);
        shared.add(p(0), d(0), 5);
        assert_eq!(shared.get(p(0), d(0)), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn drain_rejects_shape_mismatch() {
        let shared = SharedLoad::zeros(2, 2);
        let mut q = QueryLoad::zeros(2, 3);
        shared.drain_sparse_into(&mut q);
    }
}
