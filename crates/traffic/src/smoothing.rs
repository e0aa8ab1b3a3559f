//! EWMA state of eqs. (9)–(11).
//!
//! "In order to compensate for steep changes of the query rate, we take
//! historical data into account and use a smoothing factor α":
//!
//! ```text
//! q̄_it  = α·q̄_i(t−1)  + (1 − α)·q_it         (eq. 10)
//! t̄r_ikt = α·t̄r_ik(t−1) + (1 − α)·tr_ikt      (eq. 11)
//! ```
//!
//! One smoother instance holds the per-partition smoothed system query
//! average and the per-(partition, datacenter) smoothed traffic the
//! decision thresholds (eqs. 12, 13, 15) compare against. Like the
//! accounts it folds, the state is partition-major: everything a
//! decision reads about one partition is one contiguous row.
//!
//! Every update names the partitions it folds (a full update names
//! them all) and brings each current with one gap of zero observations,
//! the same for every cell of its row.

use crate::absorption::TrafficAccounts;
use rfh_types::{DatacenterId, PartitionId};
use rfh_workload::QueryLoad;

/// Smoothed query and traffic state across epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSmoother {
    alpha: f64,
    partitions: usize,
    dcs: usize,
    /// Smoothed `q̄_it` per partition; NaN marks "no observation yet".
    q_avg: Vec<f64>,
    /// Smoothed `t̄r_ikt`: one row of `dcs` cells per partition,
    /// flattened; NaN marks unset.
    traffic: Vec<f64>,
    /// Smoothed forwarding traffic (outflow), same layout.
    outflow: Vec<f64>,
    /// The pass at which each partition's cells were last brought
    /// current (0 = never).
    stamps: Vec<u64>,
    /// Number of passes so far.
    pass: u64,
}

impl TrafficSmoother {
    /// New smoother for the given shape and smoothing factor α.
    pub fn new(partitions: u32, dcs: u32, alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha) && alpha.is_finite(),
            "alpha must be in [0, 1], got {alpha}"
        );
        TrafficSmoother {
            alpha,
            partitions: partitions as usize,
            dcs: dcs as usize,
            q_avg: vec![f64::NAN; partitions as usize],
            traffic: vec![f64::NAN; partitions as usize * dcs as usize],
            outflow: vec![f64::NAN; partitions as usize * dcs as usize],
            stamps: vec![0; partitions as usize],
            pass: 0,
        }
    }

    /// One smoothing step; an unset (NaN) cell takes `obs` as-is.
    fn smooth(alpha: f64, prev: f64, obs: f64) -> f64 {
        if prev.is_nan() {
            obs
        } else {
            rfh_stats::ewma_step(alpha, prev, obs)
        }
    }

    /// Where partition `p`'s cells sit in `traffic` / `outflow`.
    fn row(&self, p: usize) -> std::ops::Range<usize> {
        p * self.dcs..(p + 1) * self.dcs
    }

    /// [`update_active`](Self::update_active) over every partition.
    pub fn update(&mut self, load: &QueryLoad, accounts: &TrafficAccounts) {
        self.update_active(load, accounts, &(0..self.partitions as u32).collect::<Vec<_>>());
    }

    /// Fold one epoch's observations for the `active` partitions
    /// (sorted ascending, deduplicated), catching each one's cells up
    /// over the epochs it sat out first.
    ///
    /// A partition left out of a pass carries no load and no traffic
    /// that epoch, so a pass that included it would have fed its cells
    /// exact-zero observations. Those zero steps are folded lazily here
    /// via [`rfh_stats::decay_zeros`], which is bit-identical to the
    /// explicit recurrence — a smoother driven with supersets of the
    /// touched partitions equals one driven over every partition, bit
    /// for bit, on every cell a decision ever reads (cells of
    /// partitions that were *never* active stay lazily unfolded until
    /// first activation). Full passes ([`update`](Self::update)) and
    /// partial ones may be mixed freely: every pass stamps the
    /// partitions it folds.
    pub fn update_active(&mut self, load: &QueryLoad, accounts: &TrafficAccounts, active: &[u32]) {
        debug_assert_eq!(load.partitions() as usize, self.partitions);
        debug_assert!(
            active.windows(2).all(|w| w[0] < w[1]),
            "active set must be sorted ascending and deduplicated"
        );
        self.pass += 1;
        let alpha = self.alpha;
        for &pu in active {
            let p = pu as usize;
            // Zero observations a full pass would have applied since
            // this partition's cells were last brought current.
            let gap = self.pass - 1 - self.stamps[p];
            self.stamps[p] = self.pass;

            let pid = PartitionId::new(pu);
            Self::fold_gap(alpha, &mut self.q_avg[p], gap);
            self.q_avg[p] = Self::smooth(alpha, self.q_avg[p], load.system_average(pid));

            let row = self.row(p);
            let traffic = &mut self.traffic[row.clone()];
            let outflow = &mut self.outflow[row];
            let (obs, out) = (accounts.dc_traffic(pid), accounts.dc_outflow(pid));
            for dc in 0..self.dcs {
                Self::fold_gap(alpha, &mut traffic[dc], gap);
                traffic[dc] = Self::smooth(alpha, traffic[dc], obs[dc]);
                Self::fold_gap(alpha, &mut outflow[dc], gap);
                outflow[dc] = Self::smooth(alpha, outflow[dc], out[dc]);
            }
        }
    }

    /// Apply `gap` zero-observation smoothing steps to one cell, exactly
    /// as `gap` dense updates with a 0.0 observation would have: an
    /// unset (NaN) cell is seeded to 0.0 by the first zero and every
    /// further step keeps it at exactly 0.0.
    fn fold_gap(alpha: f64, cell: &mut f64, gap: u64) {
        if gap == 0 {
            return;
        }
        *cell = if cell.is_nan() { 0.0 } else { rfh_stats::decay_zeros(alpha, *cell, gap) };
    }

    /// Smoothed system query average `q̄_it` for a partition (eq. 10);
    /// zero before any update.
    pub fn q_avg(&self, p: PartitionId) -> f64 {
        Self::observed(self.q_avg[p.index()])
    }

    /// A cell as callers see it: zero until its first observation.
    fn observed(cell: f64) -> f64 {
        if cell.is_nan() {
            0.0
        } else {
            cell
        }
    }

    /// Smoothed traffic `t̄r_ikt` of a datacenter for a partition
    /// (eq. 11); zero before any update.
    pub fn traffic(&self, dc: DatacenterId, p: PartitionId) -> f64 {
        Self::observed(self.traffic[self.row(p.index())][dc.index()])
    }

    /// [`traffic`](Self::traffic) of every datacenter for partition
    /// `p`, in datacenter-id order.
    pub fn traffic_row(&self, p: PartitionId) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.traffic[self.row(p.index())].iter().map(|&cell| Self::observed(cell))
    }

    /// Smoothed *forwarding* traffic of a datacenter for a partition:
    /// the residual it passes onward after local absorption. This is the
    /// "most forwarding traffic" quantity RFH ranks hubs by (§I); zero
    /// before any update.
    pub fn outflow(&self, dc: DatacenterId, p: PartitionId) -> f64 {
        Self::observed(self.outflow[self.row(p.index())][dc.index()])
    }

    /// [`outflow`](Self::outflow) of every datacenter for partition
    /// `p`, in datacenter-id order.
    pub fn outflow_row(&self, p: PartitionId) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.outflow[self.row(p.index())].iter().map(|&cell| Self::observed(cell))
    }

    /// Average smoothed traffic over all datacenters for a partition —
    /// `t̄r_i` of eq. (17), the migration-benefit baseline.
    pub fn mean_traffic(&self, p: PartitionId) -> f64 {
        if self.dcs == 0 {
            return 0.0;
        }
        self.traffic_row(p).sum::<f64>() / self.dcs as f64
    }

    /// Bytes of heap the smoother holds, by allocation capacity.
    pub fn heap_bytes(&self) -> usize {
        (self.q_avg.capacity() + self.traffic.capacity() + self.outflow.capacity())
            * std::mem::size_of::<f64>()
            + self.stamps.capacity() * std::mem::size_of::<u64>()
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

    /// Build a TrafficAccounts with chosen `(dc, partition, value)`
    /// arrival-traffic cells.
    fn accounts(dcs: usize, parts: usize, cells: &[(usize, usize, f64)]) -> TrafficAccounts {
        let mut acc = TrafficAccounts::empty();
        acc.reset(dcs, parts, 1);
        for &(dc, pp, v) in cells {
            acc.partition_mut(pp).dc_traffic[dc] = v;
        }
        acc
    }

    #[test]
    fn before_any_update_everything_is_zero() {
        let s = TrafficSmoother::new(4, 3, 0.2);
        assert_eq!(s.q_avg(p(0)), 0.0);
        assert_eq!(s.traffic(d(2), p(3)), 0.0);
        assert_eq!(s.mean_traffic(p(1)), 0.0);
    }

    #[test]
    fn first_update_initialises_without_bias() {
        let mut s = TrafficSmoother::new(1, 2, 0.2);
        let mut load = QueryLoad::zeros(1, 2);
        load.add(p(0), d(0), 10); // system average = 10/2 = 5
        let acc = accounts(2, 1, &[(0, 0, 8.0), (1, 0, 2.0)]);
        s.update(&load, &acc);
        assert_eq!(s.q_avg(p(0)), 5.0, "first observation taken as-is");
        assert_eq!(s.traffic(d(0), p(0)), 8.0);
        assert_eq!(s.traffic(d(1), p(0)), 2.0);
        assert_eq!(s.mean_traffic(p(0)), 5.0);
    }

    #[test]
    fn subsequent_updates_follow_eq_10_11() {
        let mut s = TrafficSmoother::new(1, 1, 0.2);
        let mut load = QueryLoad::zeros(1, 1);
        load.add(p(0), d(0), 10);
        s.update(&load, &accounts(1, 1, &[(0, 0, 10.0)]));
        // Second epoch: zero observation.
        let load2 = QueryLoad::zeros(1, 1);
        s.update(&load2, &accounts(1, 1, &[(0, 0, 0.0)]));
        // α·prev + (1−α)·obs = 0.2·10 + 0.8·0 = 2.
        assert!((s.q_avg(p(0)) - 2.0).abs() < 1e-12);
        assert!((s.traffic(d(0), p(0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn invalid_alpha_rejected() {
        let _ = TrafficSmoother::new(1, 1, 1.5);
    }

    /// Drive one smoother densely and one sparsely through the same
    /// observation stream and require bitwise-equal state on every cell
    /// the sparse side ever brought current.
    #[test]
    fn sparse_update_bit_equals_dense_update() {
        let (parts, dcs) = (6u32, 3usize);
        // Epoch → (partition, per-dc traffic) observations. Partitions
        // 4 and 5 stay cold for long stretches; partition 3 is never
        // touched at all.
        let epochs: Vec<Vec<(u32, [f64; 3])>> = vec![
            vec![(0, [8.0, 2.0, 0.0]), (1, [1.0, 0.0, 3.0])],
            vec![(0, [4.0, 4.0, 4.0])],
            vec![],
            vec![(4, [9.0, 0.0, 1.0])],
            vec![(0, [1.0, 1.0, 1.0]), (5, [0.5, 0.25, 0.0])],
            vec![],
            vec![],
            vec![(4, [2.0, 2.0, 2.0]), (1, [0.0, 7.0, 0.0])],
        ];
        let mut dense = TrafficSmoother::new(parts, dcs as u32, 0.2);
        let mut sparse = TrafficSmoother::new(parts, dcs as u32, 0.2);
        for obs in &epochs {
            let mut load = QueryLoad::zeros(parts, dcs as u32);
            let mut cells = Vec::new();
            for &(pp, traffic) in obs {
                load.add(p(pp), d(0), (traffic[0] * 4.0) as u32 + 1);
                for (dc, &v) in traffic.iter().enumerate() {
                    cells.push((dc, pp as usize, v));
                }
            }
            let acc = accounts(dcs, parts as usize, &cells);
            dense.update(&load, &acc);
            let mut active: Vec<u32> = obs.iter().map(|&(pp, _)| pp).collect();
            active.sort_unstable();
            sparse.update_active(&load, &acc, &active);
        }
        // Catch every partition up (an all-active epoch with zero load),
        // then compare all cells bitwise.
        let load = QueryLoad::zeros(parts, dcs as u32);
        let acc = accounts(dcs, parts as usize, &[]);
        dense.update(&load, &acc);
        sparse.update_active(&load, &acc, &[0, 1, 2, 3, 4, 5]);
        for pp in 0..parts {
            assert_eq!(
                sparse.q_avg(p(pp)).to_bits(),
                dense.q_avg(p(pp)).to_bits(),
                "q_avg partition {pp}"
            );
            for dc in 0..dcs as u32 {
                assert_eq!(
                    sparse.traffic(d(dc), p(pp)).to_bits(),
                    dense.traffic(d(dc), p(pp)).to_bits(),
                    "traffic dc {dc} partition {pp}"
                );
                assert_eq!(
                    sparse.outflow(d(dc), p(pp)).to_bits(),
                    dense.outflow(d(dc), p(pp)).to_bits(),
                    "outflow dc {dc} partition {pp}"
                );
            }
        }
    }

    /// Full and partial passes share one pass counter: a smoother that
    /// alternates [`TrafficSmoother::update`] with
    /// [`TrafficSmoother::update_active`] equals one driven by `update`
    /// alone, bit for bit. A full pass that left the stamps alone would
    /// make the next partial pass fold the zero steps it owes after the
    /// full pass's observation instead of before it.
    #[test]
    fn mixed_full_and_partial_passes_equal_full_passes() {
        let (parts, dcs) = (3u32, 2usize);
        let mut full = TrafficSmoother::new(parts, dcs as u32, 0.2);
        let mut mixed = TrafficSmoother::new(parts, dcs as u32, 0.2);
        // Even epochs run full passes, the last one included, so every
        // cell is current when compared.
        for epoch in 0..13u32 {
            // Partition 0 is loaded every epoch; partition 1 on full-pass
            // epochs and every third partial one; partition 2 never.
            let partial = epoch % 2 == 1;
            let mut touched = vec![0u32];
            if !partial || epoch % 3 == 0 {
                touched.push(1);
            }
            let mut load = QueryLoad::zeros(parts, dcs as u32);
            let mut cells = Vec::new();
            for &pp in &touched {
                load.add(p(pp), d(1), 3 + epoch * (pp + 1));
                cells.push((0, pp as usize, 1.5 + f64::from(epoch)));
                cells.push((1, pp as usize, 0.25 * f64::from(pp + epoch)));
            }
            let acc = accounts(dcs, parts as usize, &cells);
            full.update(&load, &acc);
            if partial {
                mixed.update_active(&load, &acc, &touched);
            } else {
                mixed.update(&load, &acc);
            }
        }
        for pp in 0..2 {
            assert_eq!(mixed.q_avg(p(pp)).to_bits(), full.q_avg(p(pp)).to_bits(), "q_avg {pp}");
            for dc in 0..dcs as u32 {
                assert_eq!(
                    mixed.traffic(d(dc), p(pp)).to_bits(),
                    full.traffic(d(dc), p(pp)).to_bits(),
                    "traffic dc {dc} partition {pp}"
                );
            }
        }
    }
}
