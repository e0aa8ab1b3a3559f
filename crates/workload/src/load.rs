//! The per-epoch query matrix `q_ijt`.
//!
//! §II-C: "We define the number of queries for a partition `B_i`, during
//! a unit time period T, from requester `j`, as `q_ijt`." The matrix is
//! stored dense and partition-major: the requester axis is small (10
//! datacenters in the paper), the partition axis runs from the paper's
//! 64 to 10⁶, and the traffic computation scans one partition's row at
//! a time, so a flat `Vec` of rows beats any map.
//!
//! For the sparse epoch engine the matrix additionally tracks which
//! partitions were *touched* (gained their first non-zero cell) since
//! the last [`QueryLoad::clear_touched`], so a million-partition epoch
//! can be processed and reset in O(touched) instead of O(partitions).

use rfh_types::{DatacenterId, PartitionId};

/// Dense `partitions × requester-datacenters` query-count matrix for one
/// epoch, with a touched-partition index on the side.
#[derive(Debug, Clone)]
pub struct QueryLoad {
    partitions: u32,
    dcs: u32,
    /// `counts[p * dcs + j]` = queries for partition `p` from requester
    /// datacenter `j`.
    counts: Vec<u32>,
    /// Partitions with ≥ 1 non-zero cell, in first-touch order.
    touched: Vec<u32>,
    /// Per-partition count of non-zero cells (drives `touched` dedup).
    row_nonzero: Vec<u32>,
}

/// Equality is *content* equality (shape + counts). The touched index is
/// derived bookkeeping — two loads with the same cells are the same load
/// regardless of the order the cells were filled in.
impl PartialEq for QueryLoad {
    fn eq(&self, other: &Self) -> bool {
        self.partitions == other.partitions && self.dcs == other.dcs && self.counts == other.counts
    }
}

impl QueryLoad {
    /// Zero matrix for the given shape.
    pub fn zeros(partitions: u32, dcs: u32) -> Self {
        QueryLoad {
            partitions,
            dcs,
            counts: vec![0; partitions as usize * dcs as usize],
            touched: Vec::new(),
            row_nonzero: vec![0; partitions as usize],
        }
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

    /// `q_ijt`: queries for partition `p` from requester `j`.
    #[inline]
    pub fn get(&self, p: PartitionId, j: DatacenterId) -> u32 {
        self.counts[self.idx(p, j)]
    }

    /// Record one more query for partition `p` from requester `j`.
    #[inline]
    pub fn add(&mut self, p: PartitionId, j: DatacenterId, n: u32) {
        if n == 0 {
            return;
        }
        let i = self.idx(p, j);
        if self.counts[i] == 0 {
            let row = &mut self.row_nonzero[p.index()];
            if *row == 0 {
                self.touched.push(p.0);
            }
            *row += 1;
        }
        self.counts[i] += n;
    }

    /// Reset every cell to zero, keeping the shape and allocation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.row_nonzero.fill(0);
        self.touched.clear();
    }

    /// Reset only the touched rows (O(touched × dcs) instead of
    /// O(partitions × dcs)) — equivalent to [`QueryLoad::clear`] because
    /// untouched rows are zero by definition.
    pub fn clear_touched(&mut self) {
        for &p in &self.touched {
            let start = p as usize * self.dcs as usize;
            self.counts[start..start + self.dcs as usize].fill(0);
            self.row_nonzero[p as usize] = 0;
        }
        self.touched.clear();
    }

    /// Partitions with at least one non-zero cell, in first-touch order
    /// (not sorted). The sparse engine unions this into its active set.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Row view: per-requester counts for one partition.
    pub fn partition_row(&self, p: PartitionId) -> &[u32] {
        let start = p.index() * self.dcs as usize;
        &self.counts[start..start + self.dcs as usize]
    }

    /// Total queries for one partition across all requesters.
    pub fn partition_total(&self, p: PartitionId) -> u64 {
        self.partition_row(p).iter().map(|&c| c as u64).sum()
    }

    /// Total queries from one requester datacenter across all partitions.
    pub fn requester_total(&self, j: DatacenterId) -> u64 {
        (0..self.partitions).map(|p| self.get(PartitionId::new(p), j) as u64).sum()
    }

    /// Grand total of queries this epoch.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// The system average query per partition, `q̄_it` before smoothing
    /// (eq. 9): total queries for `p` divided by the number of
    /// requesters.
    pub fn system_average(&self, p: PartitionId) -> f64 {
        if self.dcs == 0 {
            return 0.0;
        }
        self.partition_total(p) as f64 / self.dcs as f64
    }

    /// Iterate over non-zero cells as `(partition, requester, count)`.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (PartitionId, DatacenterId, u32)> + '_ {
        self.counts.iter().enumerate().filter(|&(_i, &c)| c > 0).map(|(i, &c)| {
            let p = (i / self.dcs as usize) as u32;
            let j = (i % self.dcs as usize) as u32;
            (PartitionId::new(p), DatacenterId::new(j), c)
        })
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
    fn zero_matrix() {
        let q = QueryLoad::zeros(4, 3);
        assert_eq!(q.partitions(), 4);
        assert_eq!(q.datacenters(), 3);
        assert_eq!(q.total(), 0);
        assert_eq!(q.get(p(3), d(2)), 0);
        assert_eq!(q.iter_nonzero().count(), 0);
        assert!(q.touched().is_empty());
    }

    #[test]
    fn add_and_totals() {
        let mut q = QueryLoad::zeros(4, 3);
        q.add(p(0), d(0), 5);
        q.add(p(0), d(2), 7);
        q.add(p(3), d(1), 1);
        q.add(p(0), d(0), 2);
        assert_eq!(q.get(p(0), d(0)), 7);
        assert_eq!(q.partition_total(p(0)), 14);
        assert_eq!(q.partition_total(p(1)), 0);
        assert_eq!(q.requester_total(d(0)), 7);
        assert_eq!(q.requester_total(d(1)), 1);
        assert_eq!(q.total(), 15);
        assert_eq!(q.partition_row(p(0)), &[7, 0, 7]);
    }

    #[test]
    fn clear_zeroes_but_keeps_shape() {
        let mut q = QueryLoad::zeros(2, 2);
        q.add(p(1), d(1), 3);
        q.clear();
        assert_eq!(q.total(), 0);
        assert_eq!(q.partitions(), 2);
        assert_eq!(q.datacenters(), 2);
        assert!(q.touched().is_empty());
    }

    #[test]
    fn system_average_divides_by_requesters() {
        // eq. 9: q̄_it = Σ_j q_ijt / N.
        let mut q = QueryLoad::zeros(2, 4);
        q.add(p(1), d(0), 8);
        q.add(p(1), d(3), 4);
        assert_eq!(q.system_average(p(1)), 3.0);
        assert_eq!(q.system_average(p(0)), 0.0);
    }

    #[test]
    fn nonzero_iteration_matches_contents() {
        let mut q = QueryLoad::zeros(3, 3);
        q.add(p(1), d(2), 9);
        q.add(p(2), d(0), 4);
        let cells: Vec<(u32, u32, u32)> = q.iter_nonzero().map(|(a, b, c)| (a.0, b.0, c)).collect();
        assert_eq!(cells, vec![(1, 2, 9), (2, 0, 4)]);
    }

    #[test]
    fn touched_tracks_first_touch_once_per_partition() {
        let mut q = QueryLoad::zeros(8, 2);
        q.add(p(5), d(0), 1);
        q.add(p(2), d(1), 3);
        q.add(p(5), d(1), 2); // second cell of an already-touched row
        q.add(p(5), d(0), 1); // same cell again
        q.add(p(7), d(0), 0); // zero-count add must not touch
        assert_eq!(q.touched(), &[5, 2]);
    }

    #[test]
    fn clear_touched_equals_full_clear() {
        let mut q = QueryLoad::zeros(16, 4);
        q.add(p(9), d(3), 4);
        q.add(p(0), d(0), 1);
        q.clear_touched();
        assert_eq!(q, QueryLoad::zeros(16, 4));
        assert!(q.touched().is_empty());
        // Reusable after the sparse reset.
        q.add(p(9), d(1), 2);
        assert_eq!(q.touched(), &[9]);
        assert_eq!(q.total(), 2);
    }

    #[test]
    fn equality_ignores_touch_order() {
        let mut a = QueryLoad::zeros(4, 2);
        a.add(p(0), d(0), 1);
        a.add(p(3), d(1), 2);
        let mut b = QueryLoad::zeros(4, 2);
        b.add(p(3), d(1), 2);
        b.add(p(0), d(0), 1);
        assert_ne!(a.touched(), b.touched());
        assert_eq!(a, b);
    }
}
