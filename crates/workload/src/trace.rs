//! Workload traces: record once, replay for every algorithm.
//!
//! The paper compares four algorithms "under the same query workload";
//! the cleanest way to guarantee that is to materialize the generated
//! `q_ijt` stream once and replay it, rather than trusting four
//! generator instances to stay in lockstep.

use crate::generator::WorkloadGenerator;
use crate::load::QueryLoad;
use rfh_types::{DatacenterId, PartitionId, Result, RfhError};
use std::fmt::Write as _;

/// A recorded sequence of per-epoch query matrices.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    epochs: Vec<QueryLoad>,
}

impl Trace {
    /// Record `epochs` epochs from a generator.
    pub fn record(generator: &mut WorkloadGenerator, epochs: u64) -> Self {
        Trace { epochs: (0..epochs).map(|e| generator.epoch_load(e)).collect() }
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// True when no epochs were recorded.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// The query matrix of one epoch.
    pub fn epoch(&self, e: u64) -> Option<&QueryLoad> {
        self.epochs.get(e as usize)
    }

    /// Iterate over all epochs in order.
    pub fn iter(&self) -> impl Iterator<Item = &QueryLoad> + '_ {
        self.epochs.iter()
    }

    /// Grand total of queries over the whole trace.
    pub fn total_queries(&self) -> u64 {
        self.epochs.iter().map(|l| l.total()).sum()
    }

    /// Parse a trace from the CSV format [`Trace::to_csv`] writes
    /// (`epoch,partition,requester,count`). The shape is inferred from
    /// the data: epochs run `0..=max_epoch`, and the matrix is sized to
    /// the largest partition / requester id seen (callers may pass
    /// larger minimums to match a simulation's shape).
    pub fn from_csv(csv: &str, min_partitions: u32, min_dcs: u32) -> Result<Trace> {
        let mut rows: Vec<(u64, u32, u32, u32)> = Vec::new();
        for (lineno, line) in csv.lines().enumerate() {
            if lineno == 0 {
                if line.trim() != "epoch,partition,requester,count" {
                    return Err(RfhError::Io(format!("unexpected trace header {line:?}")));
                }
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            let [e, p, j, c] = fields.as_slice() else {
                return Err(RfhError::Io(format!(
                    "line {}: expected 4 fields, got {}",
                    lineno + 1,
                    fields.len()
                )));
            };
            let parse = |s: &str, what: &str| -> Result<u64> {
                s.trim()
                    .parse()
                    .map_err(|_| RfhError::Io(format!("line {}: bad {what} {s:?}", lineno + 1)))
            };
            rows.push((
                parse(e, "epoch")?,
                parse(p, "partition")? as u32,
                parse(j, "requester")? as u32,
                parse(c, "count")? as u32,
            ));
        }
        let epochs = rows.iter().map(|&(e, ..)| e + 1).max().unwrap_or(0);
        let partitions =
            rows.iter().map(|&(_, p, ..)| p + 1).max().unwrap_or(0).max(min_partitions);
        let dcs = rows.iter().map(|&(_, _, j, _)| j + 1).max().unwrap_or(0).max(min_dcs);
        let mut loads: Vec<QueryLoad> =
            (0..epochs).map(|_| QueryLoad::zeros(partitions, dcs)).collect();
        for (e, p, j, c) in rows {
            loads[e as usize].add(PartitionId::new(p), DatacenterId::new(j), c);
        }
        Ok(Trace { epochs: loads })
    }

    /// Export as CSV (`epoch,partition,requester,count`, non-zero cells
    /// only) for offline analysis.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("epoch,partition,requester,count\n");
        for (e, load) in self.epochs.iter().enumerate() {
            for (p, j, c) in load.iter_nonzero() {
                let _ = writeln!(out, "{e},{},{},{c}", p.0, j.0);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use rfh_types::{DatacenterId, PartitionId};

    fn small_trace() -> Trace {
        let mut g = WorkloadGenerator::new(50.0, 8, 4, 0.5, Scenario::RandomEven, 10, 21);
        Trace::record(&mut g, 10)
    }

    #[test]
    fn record_captures_every_epoch() {
        let t = small_trace();
        assert_eq!(t.len(), 10);
        assert!(!t.is_empty());
        assert!(t.epoch(0).is_some());
        assert!(t.epoch(9).is_some());
        assert!(t.epoch(10).is_none());
        assert!(t.total_queries() > 0);
    }

    #[test]
    fn replay_is_identical_to_recording() {
        let mut g1 = WorkloadGenerator::new(50.0, 8, 4, 0.5, Scenario::RandomEven, 10, 21);
        let t1 = Trace::record(&mut g1, 10);
        let mut g2 = WorkloadGenerator::new(50.0, 8, 4, 0.5, Scenario::RandomEven, 10, 21);
        let t2 = Trace::record(&mut g2, 10);
        assert_eq!(t1, t2);
        let total: u64 = t1.iter().map(|l| l.total()).sum();
        assert_eq!(total, t1.total_queries());
    }

    #[test]
    fn csv_round_trips_cell_counts() {
        let mut a = QueryLoad::zeros(2, 2);
        a.add(PartitionId::new(0), DatacenterId::new(1), 3);
        let mut b = QueryLoad::zeros(2, 2);
        b.add(PartitionId::new(1), DatacenterId::new(0), 5);
        let t = Trace { epochs: vec![a, b] };
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "epoch,partition,requester,count");
        assert_eq!(lines[1], "0,0,1,3");
        assert_eq!(lines[2], "1,1,0,5");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn csv_roundtrip_preserves_the_trace() {
        let mut g = WorkloadGenerator::new(40.0, 8, 4, 0.5, Scenario::RandomEven, 6, 9);
        let original = Trace::record(&mut g, 6);
        let parsed = Trace::from_csv(&original.to_csv(), 8, 4).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn from_csv_rejects_garbage() {
        assert!(Trace::from_csv(
            "wrong,header
",
            1,
            1
        )
        .is_err());
        assert!(
            Trace::from_csv(
                "epoch,partition,requester,count
1,2
",
                1,
                1
            )
            .is_err(),
            "short row"
        );
        assert!(
            Trace::from_csv(
                "epoch,partition,requester,count
x,0,0,1
",
                1,
                1
            )
            .is_err(),
            "non-numeric"
        );
    }

    #[test]
    fn from_csv_respects_minimum_shape() {
        let t = Trace::from_csv(
            "epoch,partition,requester,count
0,1,1,5
",
            16,
            10,
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        let l = t.epoch(0).unwrap();
        assert_eq!(l.partitions(), 16);
        assert_eq!(l.datacenters(), 10);
        assert_eq!(l.get(PartitionId::new(1), DatacenterId::new(1)), 5);
        // Blank lines tolerated, empty body yields empty trace.
        let e = Trace::from_csv(
            "epoch,partition,requester,count

",
            4,
            4,
        )
        .unwrap();
        assert!(e.is_empty());
    }

    #[test]
    fn empty_trace() {
        let t = Trace { epochs: vec![] };
        assert!(t.is_empty());
        assert_eq!(t.total_queries(), 0);
        assert_eq!(t.to_csv(), "epoch,partition,requester,count\n");
    }
}
