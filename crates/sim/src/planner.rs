//! The per-epoch transfer planner: admission control for replicate /
//! migrate moves against per-link bandwidth budgets.
//!
//! RFH fires its decisions greedily per partition; under churn the
//! resulting transfers can saturate inter-datacenter links and prolong
//! exactly the availability dip replication exists to prevent. The
//! planner sits between the decision pass and execution: the epoch
//! engine turns its intended moves into [`MoveReq`]s, the planner
//! admits them link by link against a per-epoch byte budget, and
//! everything that does not fit is deferred to the next epoch (the
//! PR 3 [`crate::RepairQueue`] is the deferred lane — see
//! [`crate::RepairQueue::defer_next`]).
//!
//! Three properties, proven by the property suite in
//! `crates/sim/tests/planner_props.rs`:
//!
//! 1. **Budget safety.** The bytes admitted on a link in one epoch
//!    never exceed that epoch's budget plus the credit carried in from
//!    earlier epochs, and credit only ever accrues from *unspent*
//!    budget — so over any window of `k` epochs a link moves at most
//!    `k × budget` bytes.
//! 2. **No starvation.** Admission order is priority order, but once a
//!    move on a link defers, every later move on that link defers too
//!    (head-of-line blocking). The blocked head therefore finds its
//!    full carried credit plus a fresh budget waiting next epoch; the
//!    credit grows by `budget` every blocked epoch, so any move of
//!    finite size is admitted within `ceil(bytes / budget)` epochs of
//!    reaching the head of its link. Deferred moves age, and age
//!    outranks every fresh move, so a deferred move *does* reach the
//!    head.
//! 3. **Determinism.** The planner holds only `BTreeMap`s and sorts by
//!    total orders ending in the input sequence number — identical
//!    inputs produce identical plans, byte for byte.
//!
//! **Execution order.** Priority order decides only *which* moves are
//! admitted; admitted moves are returned in their original input order,
//! so a budget that happens to fit everything executes exactly the
//! sequence an unbudgeted epoch would.

use rfh_types::DatacenterId;
use std::collections::{BTreeMap, BTreeSet};

/// Planner configuration, as carried by the CLI / serve config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerConfig {
    /// Per-link byte budget per epoch. `None` (the default) runs no
    /// admission control: every move executes, in decision order. The
    /// effective budget is additionally scaled by the replica manager's
    /// live bandwidth factors, so a `bandwidth` fault verb throttles
    /// planned transfers exactly as it throttles the per-server caps.
    pub link_budget_bytes: Option<u64>,
}

impl PlannerConfig {
    /// A per-link budget of `bytes` per epoch.
    pub fn budgeted(bytes: u64) -> Self {
        PlannerConfig { link_budget_bytes: Some(bytes) }
    }
}

/// A WAN link as the planner accounts it: the unordered pair of
/// datacenter ids, low id first. Both directions of a physical link
/// share one budget.
pub type LinkKey = (u32, u32);

/// The canonical [`LinkKey`] between two datacenters.
pub fn link_between(a: DatacenterId, b: DatacenterId) -> LinkKey {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// Priority class of one intended move. Selection order is `Deferred`
/// (oldest age first), then `UnderReplicated`, then `Normal`; ties
/// break by input order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveClass {
    /// Re-admitted from the deferred lane; `age` is how many times it
    /// has been deferred already. Older moves outrank younger ones, so
    /// aging promotes every deferred move to the head of its link.
    Deferred {
        /// Prior deferrals of this move.
        age: u32,
    },
    /// A replication for a partition below the availability floor
    /// `r_min` — the moves the planner exists to expedite.
    UnderReplicated,
    /// Everything else (hub replications, migrations).
    Normal,
}

impl MoveClass {
    /// Selection-order key: lower sorts earlier. Age saturates well
    /// below the rank width, so `Deferred` always outranks the fresh
    /// classes and older always outranks younger.
    fn rank(self) -> u64 {
        match self {
            MoveClass::Deferred { age } => u32::MAX as u64 - age.min(u32::MAX - 2) as u64,
            MoveClass::UnderReplicated => u32::MAX as u64 + 1,
            MoveClass::Normal => u32::MAX as u64 + 2,
        }
    }
}

/// One intended move, as the epoch engine hands it to the planner.
#[derive(Debug, Clone)]
pub struct MoveReq<T> {
    /// Caller payload, returned verbatim in the plan.
    pub tag: T,
    /// The WAN link the transfer crosses; `None` for zero-byte moves
    /// (suicides, intra-datacenter transfers), which always admit.
    pub link: Option<LinkKey>,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Priority class.
    pub class: MoveClass,
}

/// The planner's verdict for one epoch: `admitted` preserves the input
/// order of the admitted subset (priority picks winners, it never
/// reorders execution); `deferred` preserves the input order of the
/// rest.
#[derive(Debug, Clone)]
pub struct PlanOutcome<T> {
    /// Moves to execute this epoch, in input order.
    pub admitted: Vec<T>,
    /// Moves to push onto the deferred lane, in input order.
    pub deferred: Vec<T>,
}

/// Per-link admission control with carried credit. See the module docs
/// for the scheme and its guarantees.
#[derive(Debug, Clone, Default)]
pub struct TransferPlanner {
    /// Unspent budget carried by links whose head-of-line move is
    /// blocked. Cleared the first epoch the link admits everything
    /// offered (credit exists to unblock, not to burst).
    credit: BTreeMap<LinkKey, u64>,
    admitted_total: u64,
    deferred_total: u64,
}

impl TransferPlanner {
    /// A planner with no carried credit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plan one epoch. `budget_of` yields each link's byte budget for
    /// this epoch (`u64::MAX` for unlimited); it is consulted once per
    /// distinct link.
    pub fn plan<T>(
        &mut self,
        moves: Vec<MoveReq<T>>,
        mut budget_of: impl FnMut(LinkKey) -> u64,
    ) -> PlanOutcome<T> {
        // Selection order: priority class, then input order. Stable and
        // total, so the plan is a pure function of the input sequence.
        let mut order: Vec<usize> = (0..moves.len()).collect();
        order.sort_by_key(|&i| (moves[i].class.rank(), i));

        // Each link's available bytes this epoch: budget plus whatever
        // credit a blocked head carried over.
        let mut avail: BTreeMap<LinkKey, u64> = BTreeMap::new();
        let mut blocked: BTreeSet<LinkKey> = BTreeSet::new();
        let mut admit_flags = vec![false; moves.len()];
        for &i in &order {
            let Some(link) = moves[i].link else {
                admit_flags[i] = true; // zero-cost moves always admit
                continue;
            };
            if blocked.contains(&link) {
                continue; // head-of-line: the link is closed this epoch
            }
            let a = avail.entry(link).or_insert_with(|| {
                budget_of(link).saturating_add(self.credit.get(&link).copied().unwrap_or(0))
            });
            if moves[i].bytes <= *a {
                *a -= moves[i].bytes;
                admit_flags[i] = true;
            } else {
                blocked.insert(link);
            }
        }

        // Carry credit on blocked links only; a link that admitted
        // everything offered starts fresh next epoch.
        for (link, rest) in avail {
            if blocked.contains(&link) {
                // `rest` already includes any prior credit, so this
                // grows by exactly one budget per blocked epoch.
                self.credit.insert(link, rest);
            } else {
                self.credit.remove(&link);
            }
        }

        let mut admitted = Vec::new();
        let mut deferred = Vec::new();
        for (i, m) in moves.into_iter().enumerate() {
            if admit_flags[i] {
                admitted.push(m.tag);
            } else {
                deferred.push(m.tag);
            }
        }
        self.admitted_total += admitted.len() as u64;
        self.deferred_total += deferred.len() as u64;
        PlanOutcome { admitted, deferred }
    }

    /// Lifetime count of admitted moves.
    pub fn admitted_total(&self) -> u64 {
        self.admitted_total
    }

    /// Lifetime count of deferred moves.
    pub fn deferred_total(&self) -> u64 {
        self.deferred_total
    }

    /// Total credit currently carried by blocked links, in bytes.
    pub fn credit_bytes(&self) -> u64 {
        self.credit.values().fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// Credit carried by one link (tests and diagnostics).
    pub fn credit_of(&self, link: LinkKey) -> u64 {
        self.credit.get(&link).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(tag: u32, link: Option<LinkKey>, bytes: u64, class: MoveClass) -> MoveReq<u32> {
        MoveReq { tag, link, bytes, class }
    }

    #[test]
    fn unlimited_budget_admits_everything_in_input_order() {
        let mut pl = TransferPlanner::new();
        let moves = vec![
            req(0, Some((0, 1)), 500, MoveClass::Normal),
            req(1, Some((0, 1)), 500, MoveClass::UnderReplicated),
            req(2, None, 0, MoveClass::Normal),
            req(3, Some((2, 3)), 500, MoveClass::Deferred { age: 3 }),
        ];
        let out = pl.plan(moves, |_| u64::MAX);
        assert_eq!(out.admitted, vec![0, 1, 2, 3], "input order, not priority order");
        assert!(out.deferred.is_empty());
        assert_eq!(pl.credit_bytes(), 0);
    }

    #[test]
    fn budget_admits_by_priority_but_returns_input_order() {
        let mut pl = TransferPlanner::new();
        // Budget 600 on one link: the under-replicated move (input
        // position 2) wins the slot over the two earlier normal moves.
        let moves = vec![
            req(0, Some((0, 1)), 500, MoveClass::Normal),
            req(1, Some((0, 1)), 500, MoveClass::Normal),
            req(2, Some((0, 1)), 500, MoveClass::UnderReplicated),
        ];
        let out = pl.plan(moves, |_| 600);
        assert_eq!(out.admitted, vec![2]);
        assert_eq!(out.deferred, vec![0, 1]);
    }

    #[test]
    fn head_of_line_blocking_closes_the_link() {
        let mut pl = TransferPlanner::new();
        // The high-priority move is too big; the small normal move on
        // the same link must NOT sneak past it (that would starve the
        // head), but another link is unaffected.
        let moves = vec![
            req(0, Some((0, 1)), 1000, MoveClass::UnderReplicated),
            req(1, Some((0, 1)), 10, MoveClass::Normal),
            req(2, Some((4, 7)), 10, MoveClass::Normal),
        ];
        let out = pl.plan(moves, |_| 600);
        assert_eq!(out.admitted, vec![2]);
        assert_eq!(out.deferred, vec![0, 1]);
        assert_eq!(pl.credit_of((0, 1)), 600, "unspent budget carries");
        assert_eq!(pl.credit_of((4, 7)), 0, "satisfied links carry nothing");
    }

    #[test]
    fn credit_grows_until_the_blocked_move_fits() {
        let mut pl = TransferPlanner::new();
        // 1000-byte move, 400-byte budget: epochs carry 400, then 800,
        // then 1200 ≥ 1000 — admitted on the third epoch.
        for epoch in 0..2 {
            let out = pl
                .plan(vec![req(0, Some((0, 1)), 1000, MoveClass::Deferred { age: epoch })], |_| {
                    400
                });
            assert!(out.admitted.is_empty(), "epoch {epoch}");
            assert_eq!(pl.credit_of((0, 1)), 400 * (epoch as u64 + 1));
        }
        let out =
            pl.plan(vec![req(0, Some((0, 1)), 1000, MoveClass::Deferred { age: 2 })], |_| 400);
        assert_eq!(out.admitted, vec![0]);
        assert_eq!(pl.credit_of((0, 1)), 0, "credit resets once the head admits");
    }

    #[test]
    fn aged_deferred_moves_outrank_everything() {
        let mut pl = TransferPlanner::new();
        let moves = vec![
            req(0, Some((0, 1)), 500, MoveClass::UnderReplicated),
            req(1, Some((0, 1)), 500, MoveClass::Deferred { age: 0 }),
            req(2, Some((0, 1)), 500, MoveClass::Deferred { age: 4 }),
        ];
        let out = pl.plan(moves, |_| 500);
        assert_eq!(out.admitted, vec![2], "oldest deferral wins the slot");
    }

    #[test]
    fn link_key_is_direction_free() {
        assert_eq!(link_between(DatacenterId::new(3), DatacenterId::new(7)), (3, 7));
        assert_eq!(link_between(DatacenterId::new(7), DatacenterId::new(3)), (3, 7));
        assert_eq!(link_between(DatacenterId::new(5), DatacenterId::new(5)), (5, 5));
    }

    #[test]
    fn totals_accumulate() {
        let mut pl = TransferPlanner::new();
        pl.plan(vec![req(0, Some((0, 1)), 10, MoveClass::Normal)], |_| 100);
        pl.plan(vec![req(0, Some((0, 1)), 10, MoveClass::Normal)], |_| 5);
        assert_eq!(pl.admitted_total(), 1);
        assert_eq!(pl.deferred_total(), 1);
    }
}
