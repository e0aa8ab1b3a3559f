//! Declarative fault schedules.
//!
//! A [`FaultPlan`] is data, not behaviour: a list of scheduled one-shot
//! [`FaultAction`]s plus an optional stochastic [`ChurnConfig`]. Plans
//! are built in code or parsed from a small TOML subset
//! ([`FaultPlan::from_toml_str`]) so chaos scenarios can live in files
//! alongside experiment configs:
//!
//! ```toml
//! seed = 42
//!
//! [churn]
//! mtbf = 400      # mean epochs between failures, per server
//! mttr = 25       # mean epochs to repair
//! start = 0
//! end = 600       # optional; churn runs to the end of the sim if absent
//!
//! [[at]]
//! epoch = 100
//! fail_dc = 3
//!
//! [[at]]
//! epoch = 160
//! recover_dc = 3
//!
//! [[at]]
//! epoch = 120
//! partition = [7, 8, 9]   # cut these DCs off the backbone
//!
//! [[at]]
//! epoch = 150
//! heal_partition = true
//!
//! [[at]]
//! epoch = 200
//! recover_all = true      # every dead server comes back, in id order
//! ```
//!
//! Syntax is handled by the workspace's shared TOML-subset reader
//! ([`rfh_types::toml`]): top-level `key = value`, `[churn]` tables,
//! `[[at]]` array-of-table blocks, integer / float / boolean scalars and
//! flat numeric arrays, with `#` comments. That subset is valid TOML, so
//! plans stay readable by standard tooling. This module owns the
//! schema: which tables and keys exist and what their domains are.

use rfh_types::toml::{self, BlockKind, TomlBlock, TomlValue};
use rfh_types::{DatacenterId, RackId, Result, RfhError, RoomId, ServerId};

/// One fault (or healing) applied at a scheduled epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Correlated outage: every alive server in the datacenter fails.
    FailDatacenter(DatacenterId),
    /// Heal a datacenter outage: every failed server in it recovers.
    RecoverDatacenter(DatacenterId),
    /// Correlated outage of one room.
    FailRoom(DatacenterId, RoomId),
    /// Heal a room outage.
    RecoverRoom(DatacenterId, RoomId),
    /// Correlated outage of one rack.
    FailRack(DatacenterId, RoomId, RackId),
    /// Heal a rack outage.
    RecoverRack(DatacenterId, RoomId, RackId),
    /// Fail specific servers (already-dead ones are skipped).
    FailServers(Vec<ServerId>),
    /// Recover specific servers (already-alive ones are skipped).
    RecoverServers(Vec<ServerId>),
    /// Recover every failed server, in server-id order.
    RecoverAll,
    /// Fail `count` random alive servers, clamped to the alive
    /// population (the paper's Fig. 10 event, seeded).
    FailRandom(u32),
    /// Take one WAN link down.
    LinkDown(DatacenterId, DatacenterId),
    /// Bring one WAN link back up.
    LinkUp(DatacenterId, DatacenterId),
    /// Inflate one link's latency by a factor (1.0 heals it).
    LinkLatency(DatacenterId, DatacenterId, f64),
    /// Split the backbone: cut every link with exactly one endpoint in
    /// the island. The injector remembers the cut for [`Self::HealPartition`].
    Partition(Vec<DatacenterId>),
    /// Restore every link cut by earlier `Partition` actions.
    HealPartition,
    /// Set the control-plane per-hop message drop probability (sticky
    /// until set again; 0.0 heals).
    MessageLoss(f64),
    /// Scale the replication / migration bandwidth budgets (sticky;
    /// 1.0, 1.0 heals).
    Bandwidth(f64, f64),
}

/// A [`FaultAction`] pinned to the epoch it fires at.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFault {
    /// Epoch the action is applied at (start of the epoch, before the
    /// workload runs).
    pub epoch: u64,
    /// What happens.
    pub action: FaultAction,
    /// Kill-then-restart: every server this (fail-type) action takes
    /// down comes back `restart_after` epochs later as a *process
    /// restart* — empty memory, log replayed — rather than a plain
    /// recovery. Only valid on fail actions.
    pub restart_after: Option<u64>,
}

/// Stochastic background churn: each alive server fails independently
/// with probability `1/mtbf` per epoch and repairs after an
/// exponentially distributed time with mean `mttr` epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Mean epochs between failures for one server (must be ≥ 1).
    pub mtbf: f64,
    /// Mean epochs to repair (must be ≥ 1).
    pub mttr: f64,
    /// First epoch churn is active.
    pub start: u64,
    /// Epoch churn stops drawing new failures (`None` = never stops).
    /// Outstanding repairs still complete.
    pub end: Option<u64>,
}

/// A complete fault schedule for one run.
///
/// The default plan is empty; [`FaultInjector::new`](crate::FaultInjector::new)
/// maps an empty plan to `None`, so runs without faults skip the chaos
/// path entirely and stay bit-identical to builds that never linked it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every stochastic choice the plan makes (churn timing,
    /// random-server selection). Independent of the simulation seed so
    /// the same workload can be replayed under different chaos.
    pub seed: u64,
    /// One-shot faults; applied in epoch order, ties in listed order.
    pub scheduled: Vec<ScheduledFault>,
    /// Optional background failure/repair process.
    pub churn: Option<ChurnConfig>,
}

impl FaultPlan {
    /// `true` when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty() && self.churn.is_none()
    }

    /// Add a scheduled action (builder style).
    pub fn at(mut self, epoch: u64, action: FaultAction) -> Self {
        self.scheduled.push(ScheduledFault { epoch, action, restart_after: None });
        self
    }

    /// Add a fail action whose victims restart (replay their logs and
    /// rejoin) `after` epochs later (builder style).
    pub fn at_restarting(mut self, epoch: u64, action: FaultAction, after: u64) -> Self {
        self.scheduled.push(ScheduledFault { epoch, action, restart_after: Some(after) });
        self
    }

    /// Parse a plan from the TOML subset described in the module docs.
    ///
    /// # Errors
    /// Fails with [`RfhError::InvalidConfig`] on syntax errors, unknown
    /// keys, missing `epoch`, or an `[[at]]` block without exactly one
    /// action.
    pub fn from_toml_str(text: &str) -> Result<FaultPlan> {
        parse(text)
    }
}

// ---------------------------------------------------------------------
// Schema validation over the shared TOML-subset reader
// ---------------------------------------------------------------------

fn err(line_no: usize, reason: impl Into<String>) -> RfhError {
    toml::config_err("fault_plan", line_no, reason)
}

fn ids_of(v: &TomlValue, n: usize, key: &str, line_no: usize) -> Result<Vec<u32>> {
    let ids = v.as_ids().ok_or_else(|| err(line_no, format!("{key} wants an id array")))?;
    if n != 0 && ids.len() != n {
        return Err(err(line_no, format!("{key} wants exactly {n} ids, got {}", ids.len())));
    }
    Ok(ids)
}

fn parse_top(block: &TomlBlock, plan: &mut FaultPlan) -> Result<()> {
    for item in &block.items {
        match item.key.as_str() {
            "seed" => {
                plan.seed = item
                    .value
                    .as_u64()
                    .ok_or_else(|| err(item.line, "seed wants a non-negative int"))?
            }
            key => return Err(err(item.line, format!("unknown top-level key {key:?}"))),
        }
    }
    Ok(())
}

fn parse_churn(block: &TomlBlock) -> Result<ChurnConfig> {
    let mut c = ChurnConfig { mtbf: 0.0, mttr: 1.0, start: 0, end: None };
    for item in &block.items {
        let (val, line_no) = (&item.value, item.line);
        match item.key.as_str() {
            "mtbf" => {
                c.mtbf = val
                    .as_f64()
                    .filter(|&x| x >= 1.0)
                    .ok_or_else(|| err(line_no, "mtbf wants a number ≥ 1"))?
            }
            "mttr" => {
                c.mttr = val
                    .as_f64()
                    .filter(|&x| x >= 1.0)
                    .ok_or_else(|| err(line_no, "mttr wants a number ≥ 1"))?
            }
            "start" => {
                c.start = val.as_u64().ok_or_else(|| err(line_no, "start wants an epoch"))?
            }
            "end" => c.end = Some(val.as_u64().ok_or_else(|| err(line_no, "end wants an epoch"))?),
            key => return Err(err(line_no, format!("unknown [churn] key {key:?}"))),
        }
    }
    if c.mtbf < 1.0 {
        return Err(err(block.line, "[churn] requires `mtbf`"));
    }
    Ok(c)
}

/// Whether `restart_after` may attach to this action: only actions
/// that take servers down have anyone to restart.
fn is_fail_action(a: &FaultAction) -> bool {
    matches!(
        a,
        FaultAction::FailDatacenter(_)
            | FaultAction::FailRoom(..)
            | FaultAction::FailRack(..)
            | FaultAction::FailServers(_)
            | FaultAction::FailRandom(_)
    )
}

fn parse_at(block: &TomlBlock) -> Result<ScheduledFault> {
    let mut epoch: Option<u64> = None;
    let mut restart_after: Option<u64> = None;
    let mut action: Option<FaultAction> = None;
    let set_action = |a: FaultAction, action: &mut Option<FaultAction>, line_no| {
        if action.is_some() {
            return Err(err(line_no, "an [[at]] block takes exactly one action"));
        }
        *action = Some(a);
        Ok(())
    };
    for item in &block.items {
        let (key, val, line_no) = (item.key.as_str(), &item.value, item.line);
        match key {
            "epoch" => {
                epoch = Some(val.as_u64().ok_or_else(|| err(line_no, "epoch wants an int"))?)
            }
            "restart_after" => {
                restart_after = Some(
                    val.as_u64()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| err(line_no, "restart_after wants an epoch count ≥ 1"))?,
                )
            }
            "fail_dc" | "recover_dc" => {
                let id =
                    val.as_u64().ok_or_else(|| err(line_no, format!("{key} wants a dc id")))?;
                let dc = DatacenterId::new(id as u32);
                let a = if key == "fail_dc" {
                    FaultAction::FailDatacenter(dc)
                } else {
                    FaultAction::RecoverDatacenter(dc)
                };
                set_action(a, &mut action, line_no)?;
            }
            "fail_room" | "recover_room" => {
                let ids = ids_of(val, 2, key, line_no)?;
                let (dc, room) = (DatacenterId::new(ids[0]), RoomId::new(ids[1]));
                let a = if key == "fail_room" {
                    FaultAction::FailRoom(dc, room)
                } else {
                    FaultAction::RecoverRoom(dc, room)
                };
                set_action(a, &mut action, line_no)?;
            }
            "fail_rack" | "recover_rack" => {
                let ids = ids_of(val, 3, key, line_no)?;
                let (dc, room, rack) =
                    (DatacenterId::new(ids[0]), RoomId::new(ids[1]), RackId::new(ids[2]));
                let a = if key == "fail_rack" {
                    FaultAction::FailRack(dc, room, rack)
                } else {
                    FaultAction::RecoverRack(dc, room, rack)
                };
                set_action(a, &mut action, line_no)?;
            }
            "fail_servers" | "recover_servers" => {
                let ids = ids_of(val, 0, key, line_no)?.into_iter().map(ServerId::new).collect();
                let a = if key == "fail_servers" {
                    FaultAction::FailServers(ids)
                } else {
                    FaultAction::RecoverServers(ids)
                };
                set_action(a, &mut action, line_no)?;
            }
            "fail_random" => {
                let n = val.as_u64().ok_or_else(|| err(line_no, "fail_random wants a count"))?;
                set_action(FaultAction::FailRandom(n as u32), &mut action, line_no)?;
            }
            "link_down" | "link_up" => {
                let ids = ids_of(val, 2, key, line_no)?;
                let (a_dc, b_dc) = (DatacenterId::new(ids[0]), DatacenterId::new(ids[1]));
                let a = if key == "link_down" {
                    FaultAction::LinkDown(a_dc, b_dc)
                } else {
                    FaultAction::LinkUp(a_dc, b_dc)
                };
                set_action(a, &mut action, line_no)?;
            }
            "link_latency" => {
                let xs = match val {
                    TomlValue::Array(xs) if xs.len() == 3 => xs,
                    _ => return Err(err(line_no, "link_latency wants [dc, dc, factor]")),
                };
                let ids = ids_of(&TomlValue::Array(xs[..2].to_vec()), 2, key, line_no)?;
                set_action(
                    FaultAction::LinkLatency(
                        DatacenterId::new(ids[0]),
                        DatacenterId::new(ids[1]),
                        xs[2],
                    ),
                    &mut action,
                    line_no,
                )?;
            }
            "partition" => {
                let ids =
                    ids_of(val, 0, key, line_no)?.into_iter().map(DatacenterId::new).collect();
                set_action(FaultAction::Partition(ids), &mut action, line_no)?;
            }
            "heal_partition" | "recover_all" => {
                if *val != TomlValue::Bool(true) {
                    return Err(err(line_no, format!("{key} wants `true`")));
                }
                let a = if key == "heal_partition" {
                    FaultAction::HealPartition
                } else {
                    FaultAction::RecoverAll
                };
                set_action(a, &mut action, line_no)?;
            }
            "message_loss" => {
                let p = val
                    .as_f64()
                    .filter(|&p| (0.0..=1.0).contains(&p))
                    .ok_or_else(|| err(line_no, "message_loss wants p in [0, 1]"))?;
                set_action(FaultAction::MessageLoss(p), &mut action, line_no)?;
            }
            "bandwidth" => {
                let xs = match val {
                    TomlValue::Array(xs) if xs.len() == 2 => xs,
                    _ => {
                        return Err(err(
                            line_no,
                            "bandwidth wants [replication_factor, migration_factor]",
                        ))
                    }
                };
                set_action(FaultAction::Bandwidth(xs[0], xs[1]), &mut action, line_no)?;
            }
            _ => return Err(err(line_no, format!("unknown [[at]] key {key:?}"))),
        }
    }
    let epoch = epoch.ok_or_else(|| err(block.line, "[[at]] block missing `epoch`"))?;
    let action = action.ok_or_else(|| err(block.line, "[[at]] block missing an action"))?;
    if restart_after.is_some() && !is_fail_action(&action) {
        return Err(err(block.line, "restart_after only applies to fail actions"));
    }
    Ok(ScheduledFault { epoch, action, restart_after })
}

fn parse(text: &str) -> Result<FaultPlan> {
    let doc = toml::parse_toml(text, "fault_plan")?;
    let mut plan = FaultPlan::default();
    let mut churn: Option<ChurnConfig> = None;
    for block in &doc.blocks {
        match (block.kind, block.name.as_str()) {
            (BlockKind::Top, _) => parse_top(block, &mut plan)?,
            (BlockKind::Table, "churn") => {
                if churn.is_some() {
                    return Err(err(block.line, "duplicate [churn] table"));
                }
                churn = Some(parse_churn(block)?);
            }
            (BlockKind::ArrayOfTables, "at") => plan.scheduled.push(parse_at(block)?),
            (BlockKind::Table, name) => {
                return Err(err(block.line, format!("unknown table {:?}", format!("[{name}]"))))
            }
            (BlockKind::ArrayOfTables, name) => {
                return Err(err(block.line, format!("unknown table {:?}", format!("[[{name}]]"))))
            }
        }
    }
    plan.churn = churn;
    // Deterministic application order: epoch, then listing order.
    plan.scheduled.sort_by_key(|s| s.epoch);
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_default_plans_are_empty() {
        assert!(FaultPlan::default().is_empty());
        let p = FaultPlan::from_toml_str("# nothing but comments\n\n").unwrap();
        assert!(p.is_empty());
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn parses_a_full_plan() {
        let text = r#"
            seed = 42            # chaos seed

            [churn]
            mtbf = 400
            mttr = 25
            start = 10
            end = 600

            [[at]]
            epoch = 160
            recover_dc = 3

            [[at]]
            epoch = 100
            fail_dc = 3

            [[at]]
            epoch = 100
            link_latency = [0, 4, 3.5]

            [[at]]
            epoch = 120
            partition = [7, 8]

            [[at]]
            epoch = 150
            heal_partition = true

            [[at]]
            epoch = 30
            message_loss = 0.2

            [[at]]
            epoch = 40
            bandwidth = [0.25, 0.5]

            [[at]]
            epoch = 60
            fail_rack = [2, 0, 1]

            [[at]]
            epoch = 90
            fail_servers = [10, 11, 12]

            [[at]]
            epoch = 95
            fail_random = 30

            [[at]]
            epoch = 170
            recover_all = true
        "#;
        let p = FaultPlan::from_toml_str(text).unwrap();
        assert_eq!(p.seed, 42);
        let c = p.churn.as_ref().unwrap();
        assert_eq!((c.mtbf, c.mttr, c.start, c.end), (400.0, 25.0, 10, Some(600)));
        // Sorted by epoch; the two epoch-100 entries keep listing order.
        let epochs: Vec<u64> = p.scheduled.iter().map(|s| s.epoch).collect();
        assert_eq!(epochs, vec![30, 40, 60, 90, 95, 100, 100, 120, 150, 160, 170]);
        assert_eq!(p.scheduled[5].action, FaultAction::FailDatacenter(DatacenterId::new(3)));
        assert_eq!(
            p.scheduled[6].action,
            FaultAction::LinkLatency(DatacenterId::new(0), DatacenterId::new(4), 3.5)
        );
        assert_eq!(
            p.scheduled[3].action,
            FaultAction::FailServers(vec![ServerId::new(10), ServerId::new(11), ServerId::new(12)])
        );
        assert_eq!(p.scheduled[4].action, FaultAction::FailRandom(30));
        assert_eq!(p.scheduled[10].action, FaultAction::RecoverAll);
    }

    #[test]
    fn rejects_malformed_plans() {
        for (bad, why) in [
            ("epoch = 3", "action keys outside [[at]]"),
            ("[[at]]\nfail_dc = 1", "missing epoch"),
            ("[[at]]\nepoch = 5", "missing action"),
            ("[[at]]\nepoch = 5\nfail_dc = 1\nlink_up = [0, 1]", "two actions"),
            ("[[at]]\nepoch = 5\nmessage_loss = 1.5", "p out of range"),
            ("[[at]]\nepoch = 5\nlink_down = [0]", "arity"),
            ("[churn]\nmttr = 5", "churn without mtbf"),
            ("[bogus]", "unknown table"),
            ("seed = -3", "negative seed"),
            ("[[at]]\nepoch = 5\nfail_servers = [1.5]", "fractional id"),
            ("[[at]]\nepoch = 5\nfail_dc = 1\nrestart_after = 0", "restart_after below 1"),
            ("[[at]]\nepoch = 5\nrecover_dc = 1\nrestart_after = 3", "restart on a heal"),
            ("[[at]]\nepoch = 5\nlink_down = [0, 1]\nrestart_after = 3", "restart on a link"),
            ("[[at]]\nepoch = 5\nrecover_all = false", "recover_all not true"),
            ("[[at]]\nepoch = 5\nrecover_all = 1", "recover_all not a bool"),
            ("[[at]]\nepoch = 5\nrecover_all = [1]", "recover_all an array"),
            ("[[at]]\nepoch = 5\nrecover_all = true\nrestart_after = 3", "restart on a heal-all"),
        ] {
            assert!(FaultPlan::from_toml_str(bad).is_err(), "{why}: {bad:?}");
        }
    }

    #[test]
    fn restart_after_parses_on_fail_actions() {
        let p = FaultPlan::from_toml_str(
            "[[at]]\nepoch = 4\nfail_servers = [2, 3]\nrestart_after = 6\n\
             [[at]]\nepoch = 9\nfail_random = 1\n",
        )
        .unwrap();
        assert_eq!(p.scheduled[0].restart_after, Some(6));
        assert_eq!(
            p.scheduled[0].action,
            FaultAction::FailServers(vec![ServerId::new(2), ServerId::new(3)])
        );
        assert_eq!(p.scheduled[1].restart_after, None, "plain kills stay plain");
    }

    #[test]
    fn builder_shorthand() {
        let p = FaultPlan::default()
            .at(5, FaultAction::FailDatacenter(DatacenterId::new(1)))
            .at(2, FaultAction::MessageLoss(0.1));
        assert!(!p.is_empty());
        assert_eq!(p.scheduled.len(), 2);
    }
}
