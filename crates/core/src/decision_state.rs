//! The RFH decision core's per-replica state, one row per partition.
//!
//! Two facts about a replica outlive the epoch that decided them: its
//! *idle run*, the consecutive epochs it has satisfied eq. 15 (suicide
//! waits for [`SUICIDE_PATIENCE`] of them), and its *birth*, which
//! shields a fresh replica from suicide and from being migrated away
//! for a grace period. Both are keyed by `(partition, server)`.
//!
//! Both are epoch stamps. A run stores the epoch it began, and its
//! streak at `epoch` is `min(epoch − start + 1, SUICIDE_PATIENCE)`: a
//! run ages with the epoch, not with how often its partition is
//! evaluated. That is what lets the sparse engine skip a partition
//! whose replicas stay idle without a write (`RfhPolicy::keeps_live`;
//! DESIGN.md, "Per-policy freeze predicates"). It takes each partition
//! to be decided at most once per epoch, which [`DecisionState::begin_pass`]
//! asserts in debug builds.
//!
//! [`DecisionState`] keeps them partition-indexed: one [`SlotRows`] row
//! per partition, whose cells `{server, run start, grace end}` are
//! sorted by server. At the availability floor a partition has one
//! non-primary replica and the holder keeps no streak, so two inline
//! cells hold almost every row and wider rows spill. Evaluating a
//! partition and asking whether it stays live read one row, and a pass
//! in partition order reads the rows in memory order.
//!
//! The reads are exactly those of a map keyed by `(partition, server)`:
//! a cell is found again if its server hosts the partition again after
//! the replica was dropped behind the state's back, and an absent cell
//! reads as "streak 0, no birth". A cell that reads like an absent one
//! (no run, grace over) is dropped whenever its row is written.
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
    /// One more than the epoch the replica's current idle run began;
    /// 0 while it has none.
    run_from: u32,
    /// First epoch past the replica's birth grace (0: no birth).
    grace_end: u64,
}

// Every partition holds two cells inline, so a wider cell costs every
// partition its width twice over.
const _: () = assert!(std::mem::size_of::<Cell>() == 16);

impl Cell {
    fn in_grace(&self, now: u64) -> bool {
        now < self.grace_end
    }

    fn run_start(&self) -> Option<u64> {
        self.run_from.checked_sub(1).map(u64::from)
    }

    fn set_run_start(&mut self, start: Option<u64>) {
        self.run_from = start.map_or(0, |e| {
            e.checked_add(1)
                .and_then(|v| u32::try_from(v).ok())
                .expect("an idle run's start epoch fits the cell's u32")
        });
    }

    /// The idle streak at epoch `now`: the epochs of the run through
    /// `now`, capped at [`SUICIDE_PATIENCE`].
    fn streak(&self, now: u64) -> u32 {
        self.run_start().map_or(0, |start| {
            debug_assert!(start <= now, "idle run read before it began");
            (now - start + 1).min(u64::from(SUICIDE_PATIENCE)) as u32
        })
    }

    /// Reads the same as no cell, now and at every later epoch.
    fn inert(&self, now: u64) -> bool {
        self.run_from == 0 && !self.in_grace(now)
    }
}

/// Idle streaks and birth grace of every replica, one row per partition
/// (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct DecisionState {
    grace_epochs: u64,
    rows: SlotRows<Cell, INLINE_CELLS>,
    /// Epoch of the last [`DecisionState::begin_pass`].
    last_pass: Option<u64>,
}

impl DecisionState {
    /// Empty state; a birth shields its replica for `grace_epochs`.
    pub fn new(grace_epochs: u64) -> Self {
        DecisionState { grace_epochs, rows: SlotRows::new(0), last_pass: None }
    }

    /// Start the decision pass of `epoch` over `partitions` partitions:
    /// hold a row for each, so that deciding them never grows the rows.
    /// A pass decides each partition at most once and passes run in
    /// ascending epochs (asserted in debug builds), so an idle run's
    /// stamp counts epochs exactly.
    pub fn begin_pass(&mut self, epoch: Epoch, partitions: u32) {
        debug_assert!(
            self.last_pass.is_none_or(|last| last < epoch.raw()),
            "epoch {} decided after epoch {:?}: a partition decided twice in one epoch",
            epoch.raw(),
            self.last_pass
        );
        self.last_pass = Some(epoch.raw());
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

    /// `s`'s idle streak as a replica of `p` at `epoch`: the epochs of
    /// its idle run through `epoch`, capped at [`SUICIDE_PATIENCE`]
    /// (0 when it has no run).
    pub fn streak(&self, epoch: Epoch, p: PartitionId, s: ServerId) -> u32 {
        self.cell(p, s).map_or(0, |c| c.streak(epoch.raw()))
    }

    /// `s`'s idle streak as a replica of `p` if it satisfied eq. 15 in
    /// `epoch` too: its run goes on through `epoch`, or begins in it.
    pub fn continued_streak(&self, epoch: Epoch, p: PartitionId, s: ServerId) -> u32 {
        self.streak(epoch, p, s).max(1)
    }

    /// Whether `s`'s copy of `p` is still inside its birth grace.
    pub fn in_grace(&self, epoch: Epoch, p: PartitionId, s: ServerId) -> bool {
        self.cell(p, s).is_some_and(|c| c.in_grace(epoch.raw()))
    }

    /// Store one evaluation's idle streaks for `p` at `epoch`:
    /// `(server, streak)`, where 0 means the run broke. A streak `n`
    /// starts the run at `epoch + 1 − n`; a capped one keeps an earlier
    /// start, whose streak reads capped too.
    pub fn set_streaks(&mut self, epoch: Epoch, p: PartitionId, streaks: &[(ServerId, u32)]) {
        if streaks.is_empty() {
            return;
        }
        let now = epoch.raw();
        for &(s, streak) in streaks {
            self.update(epoch, p, s, |c| {
                debug_assert!(u64::from(streak) <= now + 1, "a run begun before epoch 0");
                let start = (streak > 0).then(|| (now + 1).saturating_sub(u64::from(streak)));
                let keep = streak == SUICIDE_PATIENCE
                    && c.run_start().zip(start).is_some_and(|(old, new)| old <= new);
                if !keep {
                    c.set_run_start(start);
                }
            });
        }
        self.compact(epoch, p);
    }

    /// Record the births and deaths in an epoch's actions: a placed
    /// replica starts its grace with no streak, and a replica that
    /// migrated away or died is forgotten.
    pub fn note_births(&mut self, epoch: Epoch, actions: &[Action]) {
        let grace_end = epoch.raw() + self.grace_epochs;
        let born = |c: &mut Cell| *c = Cell { server: c.server, run_from: 0, grace_end };
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
