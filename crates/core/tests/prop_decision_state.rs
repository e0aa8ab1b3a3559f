//! Differential tests of the RFH decision state.
//!
//! `rows_read_like_the_maps` checks the layout: the partition-indexed
//! rows of [`DecisionState`] against a reference model that keeps idle
//! run starts and births in maps keyed by `(partition, server)`, the way
//! the decision core once held them (expired births swept out at most
//! once per grace period). Random operation sequences drive both through
//! what the decision core does to them: streak updates from an
//! evaluation, births, migrations and suicides through `note_births`,
//! replicas dropped behind the state's back (as `prune_dead` does), a
//! dropped server coming back as holder and later as a non-primary
//! replica, and partitions gaining more replicas than a row holds
//! inline. After every operation every streak and grace read of every
//! partition and server must agree.
//!
//! `stamps_count_epochs_through_frozen_gaps` checks the meaning: a
//! counter of idle epochs, evaluated for every partition in every
//! epoch, against rows that are evaluated only outside random frozen
//! gaps, which a partition enters only while every non-primary replica
//! has zero traffic (the sparse engine's freeze). Every streak read of
//! every partition, frozen or not, must equal the counter.

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
    /// The epoch each replica's idle run began.
    idle: HashMap<(u32, u32), u64>,
}

impl MapModel {
    fn new(grace: u64) -> Self {
        MapModel { grace, born: HashMap::new(), born_swept: 0, idle: HashMap::new() }
    }

    fn streak(&self, now: u64, p: u32, s: u32) -> u32 {
        self.idle
            .get(&(p, s))
            .map_or(0, |&start| (now - start + 1).min(u64::from(SUICIDE_PATIENCE)) as u32)
    }

    fn in_grace(&self, now: u64, p: u32, s: u32) -> bool {
        self.born.get(&(p, s)).is_some_and(|&b| now < b + self.grace)
    }

    fn set_streaks(&mut self, now: u64, p: u32, streaks: &[(ServerId, u32)]) {
        for &(s, n) in streaks {
            if n == 0 {
                self.idle.remove(&(p, s.0));
            } else if n < SUICIDE_PATIENCE || !self.idle.contains_key(&(p, s.0)) {
                self.idle.insert((p, s.0), now + 1 - u64::from(n));
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
    /// of `idle` is set. Skipped if `p` was evaluated in this epoch.
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
    /// Time passes (zero epochs: more actions in the same epoch).
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
fn assert_agree(rows: &DecisionState, model: &MapModel, now: u64) -> Result<(), TestCaseError> {
    for p in 0..PARTITIONS {
        let pid = PartitionId::new(p);
        for s in 0..SERVERS {
            let sid = ServerId::new(s);
            prop_assert_eq!(
                rows.streak(Epoch(now), pid, sid),
                model.streak(now, p, s),
                "streak of {} on {} at {}",
                p,
                s,
                now
            );
            prop_assert_eq!(
                rows.in_grace(Epoch(now), pid, sid),
                model.in_grace(now, p, s),
                "grace of {} on {} at {}",
                p,
                s,
                now
            );
        }
    }
    Ok(())
}

/// The `pick`-th non-primary replica of `set`, if it has any.
fn non_primary(set: &[ServerId], pick: u32) -> Option<ServerId> {
    (set.len() > 1).then(|| set[1 + pick as usize % (set.len() - 1)])
}

/// One partition's epoch in `stamps_count_epochs_through_frozen_gaps`,
/// drawn from one random word.
struct Draw(u32);

impl Draw {
    /// Non-primary replica `i`'s traffic this epoch: 0 zero, 1 light
    /// (eq. 15 holds), 2 busy (it does not).
    fn traffic(&self, i: usize) -> u32 {
        (self.0 >> (2 * (i % 8))) % 3
    }

    /// Epochs the partition stays frozen if it may freeze now (0: none).
    fn gap(&self) -> u32 {
        (self.0 >> 16) % 6
    }

    /// The epoch's action: a copy placed on a server, one removed, or
    /// nothing.
    fn action(&self, p: PartitionId, set: &[ServerId]) -> Option<Action> {
        let arg = self.0 >> 24;
        match (self.0 >> 21) % 8 {
            0 => Some(ServerId::new(arg % SERVERS))
                .filter(|s| !set.contains(s))
                .map(|target| Action::Replicate { partition: p, target }),
            1 => non_primary(set, arg).map(|server| Action::Suicide { partition: p, server }),
            _ => None,
        }
    }
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
            rows.begin_pass(Epoch(0), PARTITIONS);
        }
        let mut model = MapModel::new(grace);
        // Holder first, like the replica manager.
        let mut replicas: Vec<Vec<ServerId>> =
            (0..PARTITIONS).map(|p| vec![ServerId::new(p % SERVERS)]).collect();
        // The epoch each partition was last evaluated in.
        let mut evaluated: Vec<Option<u64>> = vec![None; PARTITIONS as usize];
        let mut now = 0u64;
        for op in ops {
            let mut births = Vec::new();
            match op {
                Op::Evaluate { p, idle } => {
                    if evaluated[p as usize] != Some(now) {
                        evaluated[p as usize] = Some(now);
                        let set = &replicas[p as usize];
                        let pid = PartitionId::new(p);
                        let streaks: Vec<(ServerId, u32)> = set
                            .iter()
                            .skip(1)
                            .enumerate()
                            .map(|(i, &s)| {
                                let next = if idle >> (i % 8) & 1 == 1 {
                                    rows.continued_streak(Epoch(now), pid, s)
                                } else {
                                    0
                                };
                                (s, next)
                            })
                            .collect();
                        rows.set_streaks(Epoch(now), pid, &streaks);
                        model.set_streaks(now, p, &streaks);
                    }
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
            assert_agree(&rows, &model, now)?;
        }
    }

    #[test]
    fn stamps_count_epochs_through_frozen_gaps(
        grace in 0..7u64,
        extra in proptest::collection::vec(1..4usize, PARTITIONS as usize),
        epochs in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), PARTITIONS as usize),
            1..90,
        ),
    ) {
        let mut rows = DecisionState::new(grace);
        // Holder first, then `extra` non-primary copies.
        let mut replicas: Vec<Vec<ServerId>> = (0..PARTITIONS)
            .map(|p| (0..=extra[p as usize] as u32).map(|i| ServerId::new((p + i) % SERVERS)).collect())
            .collect();
        // The reference: consecutive idle epochs, counted in every epoch.
        let mut counter: HashMap<(u32, ServerId), u32> = HashMap::new();
        // Epochs each partition stays frozen, and whether its placement
        // changed last epoch (which dirties it: it cannot freeze).
        let mut frozen = vec![0u32; PARTITIONS as usize];
        let mut dirty = vec![false; PARTITIONS as usize];
        for (e, draws) in epochs.iter().enumerate() {
            let now = Epoch(e as u64);
            rows.begin_pass(now, PARTITIONS);
            let mut actions = Vec::new();
            for p in 0..PARTITIONS {
                let (pid, pu) = (PartitionId::new(p), p as usize);
                let draw = Draw(draws[pu]);
                let skipped = frozen[pu] > 0;
                // A frozen partition's zero traffic stays zero: eq. 15
                // holds for each of its replicas in each skipped epoch.
                let traffic = |i: usize| if skipped { 0 } else { draw.traffic(i) };
                let mut streaks = Vec::new();
                for (i, &s) in replicas[pu].iter().enumerate().skip(1) {
                    let idle = traffic(i) < 2;
                    let count = counter.entry((p, s)).or_insert(0);
                    *count = if idle { (*count + 1).min(SUICIDE_PATIENCE) } else { 0 };
                    if !skipped {
                        let next = if idle { rows.continued_streak(now, pid, s) } else { 0 };
                        streaks.push((s, next));
                    }
                }
                if skipped {
                    frozen[pu] -= 1;
                    continue;
                }
                rows.set_streaks(now, pid, &streaks);
                let all_zero = (1..replicas[pu].len()).all(|i| traffic(i) == 0);
                let action = draw.action(pid, &replicas[pu]);
                if all_zero && !dirty[pu] && action.is_none() {
                    frozen[pu] = draw.gap();
                }
                dirty[pu] = action.is_some();
                match action {
                    Some(Action::Replicate { target, .. }) => {
                        replicas[pu].push(target);
                        counter.insert((p, target), 0);
                    }
                    Some(Action::Suicide { server, .. }) => {
                        replicas[pu].retain(|&s| s != server);
                        counter.remove(&(p, server));
                    }
                    _ => {}
                }
                actions.extend(action);
            }
            rows.note_births(now, &actions);
            for p in 0..PARTITIONS {
                for s in (0..SERVERS).map(ServerId::new) {
                    let expected = counter.get(&(p, s)).copied().unwrap_or(0);
                    prop_assert_eq!(
                        rows.streak(now, PartitionId::new(p), s),
                        expected,
                        "streak of {} on {} at epoch {} (frozen for {} more)",
                        p,
                        s,
                        e,
                        frozen[p as usize]
                    );
                }
            }
        }
    }
}
