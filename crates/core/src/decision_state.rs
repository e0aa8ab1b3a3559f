//! The RFH decision core's per-replica state, one row per partition.
//!
//! Two facts about a replica outlive the epoch that decided them: its
//! *idle streak*, the consecutive evaluations it has satisfied eq. 15
//! (suicide waits for [`SUICIDE_PATIENCE`] of them), and its *birth*,
//! which shields a fresh replica from suicide and from being migrated
//! away for a grace period. Both are keyed by `(partition, server)`.
//!
//! [`DecisionState`] keeps them partition-indexed: one [`SlotRows`] row
//! per partition, whose cells `{server, streak, grace end}` are sorted
//! by server. At the availability floor a partition has one
//! non-primary replica and the holder keeps no streak, so two inline
//! cells hold almost every row and wider rows spill. Evaluating a
//! partition and asking whether it stays live read one row, and a pass
//! in partition order reads the rows in memory order.
//!
//! The reads are exactly those of a map keyed by `(partition, server)`:
//! a cell is found again if its server hosts the partition again after
//! the replica was dropped behind the state's back, and an absent cell
//! reads as "streak 0, no birth". A cell that reads like an absent one
//! (no streak, grace over) is dropped whenever its row is written.
//! Epochs never run backwards, so a grace that is over stays over.

use crate::policy::Action;
use crate::rfh::SUICIDE_PATIENCE;
use rfh_traffic::SlotRows;
use rfh_types::{Epoch, PartitionId, ServerId};

/// Cells stored inline per partition: at `r_min = 2` a partition has
/// one non-primary replica, plus room for one birth or streak more.
const INLINE_CELLS: usize = 2;

/// One replica's decision state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    server: u32,
    /// Consecutive epochs the replica satisfied eq. 15 (0: none).
    streak: u32,
    /// First epoch past the replica's birth grace (0: no birth).
    grace_end: u64,
}

impl Cell {
    fn in_grace(&self, now: u64) -> bool {
        now < self.grace_end
    }

    /// Reads the same as no cell, now and at every later epoch.
    fn inert(&self, now: u64) -> bool {
        self.streak == 0 && !self.in_grace(now)
    }
}

/// Idle streaks and birth grace of every replica, one row per partition
/// (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct DecisionState {
    grace_epochs: u64,
    rows: SlotRows<Cell, INLINE_CELLS>,
}

impl DecisionState {
    /// Empty state; a birth shields its replica for `grace_epochs`.
    pub fn new(grace_epochs: u64) -> Self {
        DecisionState { grace_epochs, rows: SlotRows::new(0) }
    }

    /// Hold a row for every one of `partitions` partitions, so that
    /// deciding them never grows the rows.
    pub fn presize(&mut self, partitions: u32) {
        self.rows.grow(partitions as usize);
    }

    /// Bytes of heap the rows hold, by allocation capacity.
    pub fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes()
    }

    fn row(&self, p: PartitionId) -> &[Cell] {
        if p.index() < self.rows.rows() {
            self.rows.row(p.index())
        } else {
            &[]
        }
    }

    fn cell(&self, p: PartitionId, s: ServerId) -> Option<&Cell> {
        let row = self.row(p);
        row.binary_search_by_key(&s.0, |c| c.server).ok().map(|i| &row[i])
    }

    /// `s`'s idle streak as a replica of `p` (0 when it has none).
    pub fn streak(&self, p: PartitionId, s: ServerId) -> u32 {
        self.cell(p, s).map_or(0, |c| c.streak)
    }

    /// Whether `s`'s copy of `p` is still inside its birth grace.
    pub fn in_grace(&self, epoch: Epoch, p: PartitionId, s: ServerId) -> bool {
        self.cell(p, s).is_some_and(|c| c.in_grace(epoch.raw()))
    }

    /// Whether any of `replicas` other than `holder` has an idle streak
    /// below [`SUICIDE_PATIENCE`] (or none at all): the suicide state
    /// machine of `p` has not saturated yet.
    pub fn any_streak_unsaturated(
        &self,
        p: PartitionId,
        holder: ServerId,
        replicas: &[ServerId],
    ) -> bool {
        replicas.iter().any(|&s| s != holder && self.streak(p, s) < SUICIDE_PATIENCE)
    }

    /// Store one evaluation's idle streaks for `p`: `(server, streak)`,
    /// where 0 means the streak broke.
    pub fn set_streaks(&mut self, epoch: Epoch, p: PartitionId, streaks: &[(ServerId, u32)]) {
        if streaks.is_empty() {
            return;
        }
        for &(s, streak) in streaks {
            self.update(epoch, p, s, |c| c.streak = streak);
        }
        self.compact(epoch, p);
    }

    /// Record the births and deaths in an epoch's actions: a placed
    /// replica starts its grace with no streak, and a replica that
    /// migrated away or died is forgotten.
    pub fn note_births(&mut self, epoch: Epoch, actions: &[Action]) {
        let grace_end = epoch.raw() + self.grace_epochs;
        let born = |c: &mut Cell| *c = Cell { server: c.server, streak: 0, grace_end };
        let gone = |c: &mut Cell| *c = Cell { server: c.server, ..Cell::default() };
        for a in actions {
            let p = match *a {
                Action::Replicate { partition, target } => {
                    self.update(epoch, partition, target, born);
                    partition
                }
                Action::Migrate { partition, from, to } => {
                    self.update(epoch, partition, from, gone);
                    self.update(epoch, partition, to, born);
                    partition
                }
                Action::Suicide { partition, server } => {
                    self.update(epoch, partition, server, gone);
                    partition
                }
            };
            self.compact(epoch, p);
        }
    }

    /// Apply `f` to the cell of `(p, s)`, adding one if `f` leaves it
    /// live. The caller compacts the row afterwards.
    fn update(&mut self, epoch: Epoch, p: PartitionId, s: ServerId, f: impl FnOnce(&mut Cell)) {
        let r = p.index();
        self.rows.grow(r + 1);
        match self.rows.row(r).binary_search_by_key(&s.0, |c| c.server) {
            Ok(i) => f(&mut self.rows.row_mut(r)[i]),
            Err(i) => {
                let mut cell = Cell { server: s.0, ..Cell::default() };
                f(&mut cell);
                if !cell.inert(epoch.raw()) {
                    self.rows.insert(r, i, cell);
                }
            }
        }
    }

    /// Drop `p`'s cells that read like absent ones.
    fn compact(&mut self, epoch: Epoch, p: PartitionId) {
        let now = epoch.raw();
        self.rows.retain(p.index(), |c| !c.inert(now));
    }

    /// Cells held for `p` (the state's footprint, for tests).
    #[cfg(test)]
    pub(crate) fn cells_in(&self, p: PartitionId) -> usize {
        self.row(p).len()
    }
}
