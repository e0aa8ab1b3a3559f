//! Differential test of the RFH decision state: the partition-indexed
//! rows of [`DecisionState`] against a reference model that keeps idle
//! streaks and births in maps keyed by `(partition, server)`, the way
//! the decision core once held them (expired births swept out at most
//! once per grace period).
//!
//! Random operation sequences drive both through what the decision core
//! does to them: streak updates from an evaluation, births, migrations
//! and suicides through `note_births`, replicas dropped behind the
//! state's back (as `prune_dead` does), a dropped server coming back as
//! holder and later as a non-primary replica, and partitions gaining
//! more replicas than a row holds inline. After every operation every
//! streak, grace and "streaks unsaturated" read of every partition and
//! server must agree.

use proptest::prelude::*;
use rfh_core::rfh::SUICIDE_PATIENCE;
use rfh_core::{Action, DecisionState};
use rfh_types::{Epoch, PartitionId, ServerId};
use std::collections::HashMap;

const PARTITIONS: u32 = 4;
const SERVERS: u32 = 10;

/// The map-keyed state the rows replace.
struct MapModel {
    grace: u64,
    born: HashMap<(u32, u32), u64>,
    born_swept: u64,
    idle: HashMap<(u32, u32), u32>,
}

impl MapModel {
    fn new(grace: u64) -> Self {
        MapModel { grace, born: HashMap::new(), born_swept: 0, idle: HashMap::new() }
    }

    fn streak(&self, p: u32, s: u32) -> u32 {
        self.idle.get(&(p, s)).copied().unwrap_or(0)
    }

    fn in_grace(&self, now: u64, p: u32, s: u32) -> bool {
        self.born.get(&(p, s)).is_some_and(|&b| now < b + self.grace)
    }

    fn set_streaks(&mut self, p: u32, streaks: &[(ServerId, u32)]) {
        for &(s, n) in streaks {
            if n > 0 {
                self.idle.insert((p, s.0), n);
            } else {
                self.idle.remove(&(p, s.0));
            }
        }
    }

    fn note_births(&mut self, now: u64, actions: &[Action]) {
        if now >= self.born_swept + self.grace.max(1) {
            let grace = self.grace;
            self.born.retain(|_, &mut b| now < b + grace);
            self.born_swept = now;
        }
        for a in actions {
            match *a {
                Action::Replicate { partition, target } => {
                    self.born.insert((partition.0, target.0), now);
                    self.idle.remove(&(partition.0, target.0));
                }
                Action::Migrate { partition, from, to } => {
                    self.born.remove(&(partition.0, from.0));
                    self.born.insert((partition.0, to.0), now);
                    self.idle.remove(&(partition.0, from.0));
                    self.idle.remove(&(partition.0, to.0));
                }
                Action::Suicide { partition, server } => {
                    self.born.remove(&(partition.0, server.0));
                    self.idle.remove(&(partition.0, server.0));
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Evaluate `p`: replica `i` (holder excluded) is idle iff bit `i`
    /// of `idle` is set.
    Evaluate { p: u32, idle: u32 },
    /// Place a copy of `p` on server `s`.
    Replicate { p: u32, s: u32 },
    /// Move a non-primary copy of `p` to server `s`.
    Migrate { p: u32, pick: u32, s: u32 },
    /// A non-primary copy of `p` removes itself.
    Suicide { p: u32, pick: u32 },
    /// A copy of `p` vanishes with no action (a dead server's replica
    /// pruned); dropping the holder promotes the next replica.
    Drop { p: u32, pick: u32 },
    /// Server `s` becomes `p`'s holder (a restore after a prune).
    Promote { p: u32, s: u32 },
    /// Time passes (zero epochs: a second decision in the same epoch).
    Advance { epochs: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..PARTITIONS, 0..256u32).prop_map(|(p, idle)| Op::Evaluate { p, idle }),
        (0..PARTITIONS, 0..256u32).prop_map(|(p, idle)| Op::Evaluate { p, idle }),
        (0..PARTITIONS, 0..SERVERS).prop_map(|(p, s)| Op::Replicate { p, s }),
        (0..PARTITIONS, 0..8u32, 0..SERVERS).prop_map(|(p, pick, s)| Op::Migrate { p, pick, s }),
        (0..PARTITIONS, 0..8u32).prop_map(|(p, pick)| Op::Suicide { p, pick }),
        (0..PARTITIONS, 0..8u32).prop_map(|(p, pick)| Op::Drop { p, pick }),
        (0..PARTITIONS, 0..SERVERS).prop_map(|(p, s)| Op::Promote { p, s }),
        (0..3u64).prop_map(|epochs| Op::Advance { epochs }),
    ]
}

/// Every read of both states agrees, for every partition and server.
fn assert_agree(
    rows: &DecisionState,
    model: &MapModel,
    now: u64,
    replicas: &[Vec<ServerId>],
) -> Result<(), TestCaseError> {
    for p in 0..PARTITIONS {
        let pid = PartitionId::new(p);
        for s in 0..SERVERS {
            let sid = ServerId::new(s);
            prop_assert_eq!(rows.streak(pid, sid), model.streak(p, s), "streak of {} on {}", p, s);
            prop_assert_eq!(
                rows.in_grace(Epoch(now), pid, sid),
                model.in_grace(now, p, s),
                "grace of {} on {} at {}",
                p,
                s,
                now
            );
        }
        let set = &replicas[p as usize];
        if let Some(&holder) = set.first() {
            let expected =
                set.iter().any(|&s| s != holder && model.streak(p, s.0) < SUICIDE_PATIENCE);
            prop_assert_eq!(rows.any_streak_unsaturated(pid, holder, set), expected, "live {}", p);
        }
    }
    Ok(())
}

/// The `pick`-th non-primary replica of `set`, if it has any.
fn non_primary(set: &[ServerId], pick: u32) -> Option<ServerId> {
    (set.len() > 1).then(|| set[1 + pick as usize % (set.len() - 1)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rows_read_like_the_maps(
        grace in 0..7u64,
        presized in any::<bool>(),
        ops in proptest::collection::vec(arb_op(), 0..160),
    ) {
        let mut rows = DecisionState::new(grace);
        if presized {
            rows.presize(PARTITIONS);
        }
        let mut model = MapModel::new(grace);
        // Holder first, like the replica manager.
        let mut replicas: Vec<Vec<ServerId>> =
            (0..PARTITIONS).map(|p| vec![ServerId::new(p % SERVERS)]).collect();
        let mut now = 0u64;
        for op in ops {
            let mut births = Vec::new();
            match op {
                Op::Evaluate { p, idle } => {
                    let set = &replicas[p as usize];
                    let streaks: Vec<(ServerId, u32)> = set
                        .iter()
                        .skip(1)
                        .enumerate()
                        .map(|(i, &s)| {
                            let next = if idle >> (i % 8) & 1 == 1 {
                                (model.streak(p, s.0) + 1).min(SUICIDE_PATIENCE)
                            } else {
                                0
                            };
                            (s, next)
                        })
                        .collect();
                    rows.set_streaks(Epoch(now), PartitionId::new(p), &streaks);
                    model.set_streaks(p, &streaks);
                }
                Op::Replicate { p, s } => {
                    let s = ServerId::new(s);
                    if !replicas[p as usize].contains(&s) {
                        replicas[p as usize].push(s);
                        births.push(Action::Replicate { partition: PartitionId::new(p), target: s });
                    }
                }
                Op::Migrate { p, pick, s } => {
                    let to = ServerId::new(s);
                    let set = &mut replicas[p as usize];
                    if let Some(from) = non_primary(set, pick).filter(|_| !set.contains(&to)) {
                        set.retain(|&x| x != from);
                        set.push(to);
                        births.push(Action::Migrate { partition: PartitionId::new(p), from, to });
                    }
                }
                Op::Suicide { p, pick } => {
                    let set = &mut replicas[p as usize];
                    if let Some(server) = non_primary(set, pick) {
                        set.retain(|&x| x != server);
                        births.push(Action::Suicide { partition: PartitionId::new(p), server });
                    }
                }
                Op::Drop { p, pick } => {
                    let set = &mut replicas[p as usize];
                    if set.len() > 1 {
                        set.remove(pick as usize % set.len());
                    }
                }
                Op::Promote { p, s } => {
                    let s = ServerId::new(s);
                    let set = &mut replicas[p as usize];
                    set.retain(|&x| x != s);
                    set.insert(0, s);
                }
                Op::Advance { epochs } => now += epochs,
            }
            // The decision core notes every pass's actions, none or many.
            rows.note_births(Epoch(now), &births);
            model.note_births(now, &births);
            assert_agree(&rows, &model, now, &replicas)?;
        }
    }
}
