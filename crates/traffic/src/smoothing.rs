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
    /// Sparse-update bookkeeping: the pass at which each partition's
    /// cells were last brought current (0 = never). Only
    /// [`update_active`](Self::update_active) maintains these.
    stamps: Vec<u64>,
    /// Number of [`update_active`](Self::update_active) passes so far.
    pass: u64,
    /// Pass at which each datacenter's history was last forgotten via
    /// [`reset_dc`](Self::reset_dc) (0 = never). Caps the zero-fold gap
    /// for that datacenter's cells: zeros before the reset are moot.
    dc_reset_pass: Vec<u64>,
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
            dc_reset_pass: vec![0; dcs as usize],
        }
    }

    fn smooth(alpha: f64, prev: f64, obs: f64) -> f64 {
        if prev.is_nan() {
            obs
        } else {
            alpha * prev + (1.0 - alpha) * obs
        }
    }

    /// Fold one epoch's raw observations into the smoothed state.
    pub fn update(&mut self, load: &QueryLoad, accounts: &TrafficAccounts) {
        debug_assert_eq!(load.partitions() as usize, self.partitions);
        let alpha = self.alpha;
        for p in 0..self.partitions {
            let pid = PartitionId::new(p as u32);
            self.q_avg[p] = Self::smooth(alpha, self.q_avg[p], load.system_average(pid));
            let row = self.row(p);
            for (cell, &obs) in self.traffic[row.clone()].iter_mut().zip(accounts.dc_traffic(pid)) {
                *cell = Self::smooth(alpha, *cell, obs);
            }
            for (cell, &out) in self.outflow[row].iter_mut().zip(accounts.dc_outflow(pid)) {
                *cell = Self::smooth(alpha, *cell, out);
            }
        }
    }

    /// Where partition `p`'s cells sit in `traffic` / `outflow`.
    fn row(&self, p: usize) -> std::ops::Range<usize> {
        p * self.dcs..(p + 1) * self.dcs
    }

    /// Sparse variant of [`update`](Self::update): fold one epoch's
    /// observations for the `active` partitions only (sorted ascending,
    /// deduplicated), catching each one's cells up over the epochs it
    /// sat untouched first.
    ///
    /// An inactive partition carries no load and no traffic, so the
    /// dense pass would have fed its cells exact-zero observations every
    /// epoch. Those zero steps are folded lazily here via
    /// [`rfh_stats::decay_zeros`], which is bit-identical to the
    /// explicit recurrence — a smoother driven by `update_active` with
    /// supersets of the touched partitions equals one driven by the
    /// dense [`update`](Self::update), bit for bit, on every cell a
    /// decision ever reads (cells of partitions that were *never*
    /// active stay lazily unfolded until first activation).
    ///
    /// A smoother must be driven exclusively through `update` or
    /// exclusively through `update_active`; mixing the two desynchronises
    /// the pass stamps.
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
            // Zero observations the dense pass would have applied since
            // this partition's cells were last brought current.
            let stamp = self.stamps[p];
            let gap = self.pass - 1 - stamp;
            self.stamps[p] = self.pass;

            let pid = PartitionId::new(pu);
            Self::fold_gap(alpha, &mut self.q_avg[p], gap);
            self.q_avg[p] = Self::smooth(alpha, self.q_avg[p], load.system_average(pid));

            let row = self.row(p);
            let traffic = &mut self.traffic[row.clone()];
            let outflow = &mut self.outflow[row];
            let (obs, out) = (accounts.dc_traffic(pid), accounts.dc_outflow(pid));
            for dc in 0..self.dcs {
                // A reset_dc wipes the cell to NaN; zeros that the dense
                // pass applied *before* the reset are irrelevant, so the
                // fold only covers epochs after the later of the two.
                let dc_gap = (self.pass - 1).saturating_sub(stamp.max(self.dc_reset_pass[dc]));
                Self::fold_gap(alpha, &mut traffic[dc], dc_gap);
                traffic[dc] = Self::smooth(alpha, traffic[dc], obs[dc]);
                Self::fold_gap(alpha, &mut outflow[dc], dc_gap);
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

    /// Forget the traffic history of one datacenter (used when all its
    /// servers failed: stale history must not drive decisions after
    /// recovery).
    pub fn reset_dc(&mut self, dc: DatacenterId) {
        for p in 0..self.partitions {
            let i = self.row(p).start + dc.index();
            self.traffic[i] = f64::NAN;
            self.outflow[i] = f64::NAN;
        }
        self.dc_reset_pass[dc.index()] = self.pass;
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
        acc.holder_dc.resize(parts, DatacenterId::new(0));
        for &(dc, pp, v) in cells {
            acc.rows_mut(pp).0[dc] = v;
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
    fn reset_dc_forgets_history() {
        let mut s = TrafficSmoother::new(1, 2, 0.5);
        let load = QueryLoad::zeros(1, 2);
        s.update(&load, &accounts(2, 1, &[(0, 0, 100.0), (1, 0, 40.0)]));
        s.reset_dc(d(0));
        assert_eq!(s.traffic(d(0), p(0)), 0.0);
        assert_eq!(s.traffic(d(1), p(0)), 40.0, "other DCs keep history");
        // The next observation re-initialises rather than smoothing
        // against stale state.
        s.update(&load, &accounts(2, 1, &[(0, 0, 10.0), (1, 0, 0.0)]));
        assert_eq!(s.traffic(d(0), p(0)), 10.0);
        assert_eq!(s.traffic(d(1), p(0)), 20.0);
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

    /// `reset_dc` between sparse passes: cells wiped mid-gap must not
    /// fold pre-reset zeros, exactly like the dense smoother.
    #[test]
    fn sparse_update_matches_dense_across_dc_reset() {
        let (parts, dcs) = (3u32, 2usize);
        let mut dense = TrafficSmoother::new(parts, dcs as u32, 0.5);
        let mut sparse = TrafficSmoother::new(parts, dcs as u32, 0.5);
        let seed = accounts(dcs, parts as usize, &[(0, 0, 32.0), (1, 0, 16.0), (0, 2, 8.0)]);
        let mut load = QueryLoad::zeros(parts, dcs as u32);
        load.add(p(0), d(0), 6);
        load.add(p(2), d(1), 2);
        dense.update(&load, &seed);
        sparse.update_active(&load, &seed, &[0, 2]);

        // Partitions go quiet, then DC 0 loses its history.
        let quiet = accounts(dcs, parts as usize, &[]);
        let none = QueryLoad::zeros(parts, dcs as u32);
        dense.update(&none, &quiet);
        dense.update(&none, &quiet);
        sparse.update_active(&none, &quiet, &[]);
        sparse.update_active(&none, &quiet, &[]);
        dense.reset_dc(d(0));
        sparse.reset_dc(d(0));

        // Partition 0 reactivates on the very next pass (the seed-vs-
        // fold edge), partition 2 only one pass later.
        let obs = accounts(dcs, parts as usize, &[(0, 0, 4.0), (1, 0, 4.0)]);
        load.clear();
        load.add(p(0), d(0), 4);
        dense.update(&load, &obs);
        sparse.update_active(&load, &obs, &[0]);
        let late = accounts(dcs, parts as usize, &[(0, 2, 2.0)]);
        let mut load2 = QueryLoad::zeros(parts, dcs as u32);
        load2.add(p(2), d(0), 2);
        dense.update(&load2, &late);
        sparse.update_active(&load2, &late, &[2]);

        // Catch every cell up before comparing: sparse cells are stale
        // by design until their partition next activates.
        let none2 = QueryLoad::zeros(parts, dcs as u32);
        dense.update(&none2, &quiet);
        sparse.update_active(&none2, &quiet, &[0, 1, 2]);

        for pp in [0u32, 2] {
            for dc in 0..dcs as u32 {
                assert_eq!(
                    sparse.traffic(d(dc), p(pp)).to_bits(),
                    dense.traffic(d(dc), p(pp)).to_bits(),
                    "traffic dc {dc} partition {pp}"
                );
            }
            assert_eq!(sparse.q_avg(p(pp)).to_bits(), dense.q_avg(p(pp)).to_bits());
        }
    }
}
