//! Cluster and load-generator configuration, read through the shared
//! TOML-subset reader in `rfh_types::toml` (the same parser fault plans
//! use — one config dialect across the workspace).

use crate::wal::{FsyncPolicy, PersistenceConfig};
use rfh_core::PlacementMode;
use rfh_sim::PlannerConfig;
use rfh_types::toml::{self, BlockKind, TomlBlock, TomlDoc};
use rfh_types::{Result, RfhError, SimConfig};

/// Shape and cadence of a serving cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Servers per rack in the scaled paper topology: the cluster has
    /// `10 DCs × 2 racks × servers_per_rack` nodes (5 → the paper's
    /// 100-server deployment).
    pub servers_per_rack: u32,
    /// Number of partitions the key space hashes into.
    pub partitions: u32,
    /// Master seed (topology capacity factors, placement).
    pub seed: u64,
    /// Online control-loop period: one tick plays the role of one
    /// offline epoch (snapshot counters, run RFH, execute transfers).
    pub control_interval_ms: u64,
    /// Per-server capacity spread (Table I's heterogeneity).
    pub capacity_spread: f64,
    /// Server-side telemetry plane: per-node phase histograms, the
    /// controller timeline ring, and the `/metrics` HTTP endpoints.
    /// Disabled, no metrics listener binds and no per-request recording
    /// happens — the data path is byte-identical to a pre-telemetry
    /// build.
    pub telemetry: bool,
    /// Durable per-node storage (the `[persistence]` table). `None` —
    /// the default, and what every pre-existing config parses to — runs
    /// purely in memory, byte-identical to a build without the WAL.
    pub persistence: Option<PersistenceConfig>,
    /// Replica-placement ordering for the online RFH policy:
    /// [`PlacementMode::Traffic`] (the paper's, default) or
    /// [`PlacementMode::DomainSpread`] (targets ranked by rack/room/DC
    /// spread before traffic).
    pub placement: PlacementMode,
    /// Per-WAN-link byte budget per control tick. `None` — the default —
    /// executes every transfer the policy decides; `Some(b)` routes
    /// them through the [`rfh_sim::TransferPlanner`], deferring
    /// over-budget moves to the repair lane with carried credit.
    pub link_budget_bytes: Option<u64>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            servers_per_rack: 5,
            partitions: 64,
            seed: 42,
            control_interval_ms: 200,
            capacity_spread: 0.25,
            telemetry: true,
            persistence: None,
            placement: PlacementMode::Traffic,
            link_budget_bytes: None,
        }
    }
}

impl ClusterConfig {
    /// The Table I simulation parameters this cluster config implies:
    /// defaults with the partition count overridden.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            partitions: self.partitions,
            capacity_spread: self.capacity_spread,
            ..SimConfig::default()
        }
    }

    /// Total node count of the scaled paper topology.
    pub fn nodes(&self) -> u32 {
        10 * 2 * self.servers_per_rack
    }

    /// The transfer-planner configuration this cluster config implies.
    pub fn planner(&self) -> PlannerConfig {
        PlannerConfig { link_budget_bytes: self.link_budget_bytes }
    }

    /// Domain checks beyond parsing.
    pub fn validate(&self) -> Result<()> {
        let err = |reason: &str| RfhError::InvalidConfig {
            parameter: "serve_config",
            reason: reason.to_string(),
        };
        if self.servers_per_rack == 0 {
            return Err(err("servers_per_rack must be at least 1"));
        }
        if self.control_interval_ms == 0 {
            return Err(err("control_interval_ms must be at least 1"));
        }
        if let Some(p) = &self.persistence {
            p.validate()?;
        }
        self.sim_config().validate()
    }

    /// Parse from the TOML subset. All scalar keys are top-level and
    /// optional; durability lives in an optional `[persistence]` table
    /// (absent = in-memory, the pre-durability behaviour):
    ///
    /// ```toml
    /// servers_per_rack = 3
    /// partitions = 64
    /// seed = 42
    /// control_interval_ms = 200
    /// capacity_spread = 0.25
    /// telemetry = true
    /// placement = "traffic"    # or "domain-spread"
    /// link_budget_bytes = 1048576   # per-WAN-link per-tick; absent = no cap
    ///
    /// [persistence]
    /// dir = "/var/tmp/rfh-data"
    /// fsync = "never"          # "always", "never", or an int (every n)
    /// segment_bytes = 1048576
    /// checkpoint_every = 4096
    /// range_shards = 2
    /// ```
    pub fn from_toml_str(text: &str) -> Result<Self> {
        let doc = toml::parse_toml(text, "serve_config")?;
        let mut cfg = ClusterConfig::default();
        for block in &doc.blocks {
            match (block.kind, block.name.as_str()) {
                (BlockKind::Top, _) => {}
                (BlockKind::Table, "persistence") => {
                    if cfg.persistence.is_some() {
                        return Err(toml::config_err(
                            "serve_config",
                            block.line,
                            "duplicate [persistence] table".to_string(),
                        ));
                    }
                    cfg.persistence = Some(parse_persistence(block)?);
                }
                _ => {
                    return Err(toml::config_err(
                        "serve_config",
                        block.line,
                        format!("unknown table {:?}", block.name),
                    ))
                }
            }
        }
        for item in &doc.top().items {
            let (val, line) = (&item.value, item.line);
            let e = |reason: String| toml::config_err("serve_config", line, reason);
            match item.key.as_str() {
                "servers_per_rack" => {
                    cfg.servers_per_rack = val
                        .as_u64()
                        .filter(|&x| x >= 1)
                        .ok_or_else(|| e("servers_per_rack wants an int ≥ 1".into()))?
                        as u32
                }
                "partitions" => {
                    cfg.partitions = val
                        .as_u64()
                        .filter(|&x| x >= 1)
                        .ok_or_else(|| e("partitions wants an int ≥ 1".into()))?
                        as u32
                }
                "seed" => {
                    cfg.seed =
                        val.as_u64().ok_or_else(|| e("seed wants a non-negative int".into()))?
                }
                "control_interval_ms" => {
                    cfg.control_interval_ms = val
                        .as_u64()
                        .filter(|&x| x >= 1)
                        .ok_or_else(|| e("control_interval_ms wants an int ≥ 1".into()))?
                }
                "capacity_spread" => {
                    cfg.capacity_spread = val
                        .as_f64()
                        .filter(|&x| (0.0..1.0).contains(&x))
                        .ok_or_else(|| e("capacity_spread wants a number in [0, 1)".into()))?
                }
                "telemetry" => {
                    cfg.telemetry =
                        val.as_bool().ok_or_else(|| e("telemetry wants true or false".into()))?
                }
                "placement" => {
                    cfg.placement = match val.as_str() {
                        Some("traffic") => PlacementMode::Traffic,
                        Some("domain-spread") => PlacementMode::DomainSpread,
                        _ => {
                            return Err(
                                e("placement wants \"traffic\" or \"domain-spread\"".into()),
                            )
                        }
                    }
                }
                "link_budget_bytes" => {
                    cfg.link_budget_bytes = Some(
                        val.as_u64()
                            .filter(|&x| x >= 1)
                            .ok_or_else(|| e("link_budget_bytes wants an int ≥ 1".into()))?,
                    )
                }
                key => return Err(e(format!("unknown serve key {key:?}"))),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// How the load generator paces requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalMode {
    /// Each worker issues its next request as soon as the previous one
    /// completes — measures capacity.
    Closed,
    /// Requests arrive on a Poisson process at `rate` per second,
    /// independent of completions — measures latency under a fixed
    /// offered load (queueing delay counts against latency).
    Open,
}

/// Load-generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadGenConfig {
    /// Arrival pacing.
    pub mode: ArrivalMode,
    /// Concurrent client workers (each owns one connection set).
    pub workers: u32,
    /// Total operations to issue.
    pub ops: u64,
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// Size of the key universe.
    pub keys: u64,
    /// Zipf skew over keys (0 = uniform), via `rfh_workload::Zipf`.
    pub zipf_s: f64,
    /// Payload bytes per write.
    pub value_bytes: u32,
    /// Seed for key popularity, origin datacenters and read/write mix.
    pub seed: u64,
    /// Span-trace sampling: `0` disables tracing (every frame encodes
    /// byte-identically to an untraced build); `n ≥ 1` stamps an op-ID
    /// onto every `n`-th operation, yielding one causal span chain per
    /// sampled request.
    pub trace_sample: u64,
    /// Closed-loop pipeline depth: each worker keeps up to this many
    /// operations in flight on one connection, correlating replies by
    /// arrival order (plus the op-ID echo on traced frames). `1` is
    /// the classic request/response loop. Open-loop mode requires `1` —
    /// its coordinated-omission-free latency accounting assumes each
    /// arrival is an independent request.
    pub pipeline: u64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            mode: ArrivalMode::Closed,
            workers: 8,
            ops: 10_000,
            rate: 2_000.0,
            read_fraction: 0.5,
            keys: 10_000,
            zipf_s: 0.9,
            value_bytes: 128,
            seed: 1,
            trace_sample: 0,
            pipeline: 1,
        }
    }
}

impl LoadGenConfig {
    /// Domain checks beyond parsing.
    pub fn validate(&self) -> Result<()> {
        let err = |reason: &str| RfhError::InvalidConfig {
            parameter: "loadgen_config",
            reason: reason.to_string(),
        };
        if self.workers == 0 {
            return Err(err("workers must be at least 1"));
        }
        if self.keys == 0 {
            return Err(err("keys must be at least 1"));
        }
        if !(0.0..=1.0).contains(&self.read_fraction) {
            return Err(err("read_fraction must be in [0, 1]"));
        }
        if self.mode == ArrivalMode::Open && !(self.rate.is_finite() && self.rate > 0.0) {
            return Err(err("open-loop mode needs rate > 0"));
        }
        if self.zipf_s < 0.0 {
            return Err(err("zipf_s must be non-negative"));
        }
        if self.value_bytes as u64 > (crate::wire::MAX_FRAME as u64) / 2 {
            return Err(err("value_bytes larger than half a wire frame"));
        }
        if self.pipeline == 0 {
            return Err(err("pipeline must be at least 1"));
        }
        if self.mode == ArrivalMode::Open && self.pipeline != 1 {
            return Err(err("open-loop mode requires pipeline = 1"));
        }
        Ok(())
    }

    /// Parse from the TOML subset. All keys top-level and optional:
    ///
    /// ```toml
    /// mode = "closed"          # or "open"
    /// workers = 8
    /// ops = 10000
    /// rate = 2000.0            # open-loop arrivals/sec
    /// read_fraction = 0.5
    /// keys = 10000
    /// zipf_s = 0.9
    /// value_bytes = 128
    /// seed = 1
    /// trace_sample = 0         # 0 = off; n = trace every n-th op
    /// pipeline = 1             # closed-loop in-flight depth per worker
    /// ```
    pub fn from_toml_str(text: &str) -> Result<Self> {
        let doc = toml::parse_toml(text, "loadgen_config")?;
        reject_tables(&doc, "loadgen_config")?;
        let mut cfg = LoadGenConfig::default();
        for item in &doc.top().items {
            let (val, line) = (&item.value, item.line);
            let e = |reason: String| toml::config_err("loadgen_config", line, reason);
            match item.key.as_str() {
                "mode" => {
                    cfg.mode = match val.as_str() {
                        Some("closed") => ArrivalMode::Closed,
                        Some("open") => ArrivalMode::Open,
                        _ => return Err(e("mode wants \"closed\" or \"open\"".into())),
                    }
                }
                "workers" => {
                    cfg.workers = val
                        .as_u64()
                        .filter(|&x| x >= 1)
                        .ok_or_else(|| e("workers wants an int ≥ 1".into()))?
                        as u32
                }
                "ops" => cfg.ops = val.as_u64().ok_or_else(|| e("ops wants an int".into()))?,
                "rate" => {
                    cfg.rate = val
                        .as_f64()
                        .filter(|&x| x > 0.0)
                        .ok_or_else(|| e("rate wants a number > 0".into()))?
                }
                "read_fraction" => {
                    cfg.read_fraction = val
                        .as_f64()
                        .filter(|&x| (0.0..=1.0).contains(&x))
                        .ok_or_else(|| e("read_fraction wants a number in [0, 1]".into()))?
                }
                "keys" => {
                    cfg.keys = val
                        .as_u64()
                        .filter(|&x| x >= 1)
                        .ok_or_else(|| e("keys wants an int ≥ 1".into()))?
                }
                "zipf_s" => {
                    cfg.zipf_s = val
                        .as_f64()
                        .filter(|&x| x >= 0.0)
                        .ok_or_else(|| e("zipf_s wants a non-negative number".into()))?
                }
                "value_bytes" => {
                    cfg.value_bytes =
                        val.as_u64().ok_or_else(|| e("value_bytes wants an int".into()))? as u32
                }
                "seed" => {
                    cfg.seed =
                        val.as_u64().ok_or_else(|| e("seed wants a non-negative int".into()))?
                }
                "trace_sample" => {
                    cfg.trace_sample = val
                        .as_u64()
                        .ok_or_else(|| e("trace_sample wants a non-negative int".into()))?
                }
                "pipeline" => {
                    cfg.pipeline = val
                        .as_u64()
                        .filter(|&x| x >= 1)
                        .ok_or_else(|| e("pipeline wants an int ≥ 1".into()))?
                }
                key => return Err(e(format!("unknown loadgen key {key:?}"))),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Schema of the `[persistence]` table. `dir` is required; everything
/// else defaults as in [`PersistenceConfig::with_dir`].
fn parse_persistence(block: &TomlBlock) -> Result<PersistenceConfig> {
    let mut cfg = PersistenceConfig::with_dir("");
    let mut saw_dir = false;
    for item in &block.items {
        let (val, line) = (&item.value, item.line);
        let e = |reason: String| toml::config_err("serve_config", line, reason);
        match item.key.as_str() {
            "dir" => {
                cfg.dir = val
                    .as_str()
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| e("dir wants a non-empty string".into()))?
                    .to_string();
                saw_dir = true;
            }
            "fsync" => {
                cfg.fsync = match (val.as_str(), val.as_u64()) {
                    (Some("always"), _) => FsyncPolicy::Always,
                    (Some("never"), _) => FsyncPolicy::Never,
                    (None, Some(n)) if n >= 1 => FsyncPolicy::EveryN(n),
                    _ => return Err(e("fsync wants \"always\", \"never\" or an int ≥ 1".into())),
                }
            }
            "segment_bytes" => {
                cfg.segment_bytes = val
                    .as_u64()
                    .filter(|&x| x >= 1024)
                    .ok_or_else(|| e("segment_bytes wants an int ≥ 1024".into()))?
            }
            "checkpoint_every" => {
                cfg.checkpoint_every = val
                    .as_u64()
                    .filter(|&x| x >= 1)
                    .ok_or_else(|| e("checkpoint_every wants an int ≥ 1".into()))?
            }
            "range_shards" => {
                cfg.range_shards = val
                    .as_u64()
                    .filter(|&x| (1..=256).contains(&x))
                    .ok_or_else(|| e("range_shards wants an int in 1..=256".into()))?
                    as u32
            }
            key => return Err(e(format!("unknown [persistence] key {key:?}"))),
        }
    }
    if !saw_dir {
        return Err(toml::config_err(
            "serve_config",
            block.line,
            "[persistence] requires `dir`".to_string(),
        ));
    }
    Ok(cfg)
}

fn reject_tables(doc: &TomlDoc, parameter: &'static str) -> Result<()> {
    for block in &doc.blocks {
        if block.kind != BlockKind::Top {
            return Err(toml::config_err(
                parameter,
                block.line,
                format!("unknown table {:?}", block.name),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_config_parses_and_defaults() {
        let cfg = ClusterConfig::from_toml_str("servers_per_rack = 3\nseed = 9\n").unwrap();
        assert_eq!(cfg.servers_per_rack, 3);
        assert_eq!(cfg.nodes(), 60);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.partitions, 64, "unset keys keep defaults");
        assert_eq!(ClusterConfig::from_toml_str("").unwrap(), ClusterConfig::default());
    }

    #[test]
    fn cluster_config_rejects_bad_values() {
        for bad in [
            "servers_per_rack = 0",
            "partitions = -1",
            "capacity_spread = 1.5",
            "control_interval_ms = 0",
            "nope = 1",
            "[table]\nx = 1",
        ] {
            assert!(ClusterConfig::from_toml_str(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn loadgen_config_parses_modes() {
        let c = LoadGenConfig::from_toml_str("mode = \"open\"\nrate = 500.0\nops = 42\n").unwrap();
        assert_eq!(c.mode, ArrivalMode::Open);
        assert_eq!(c.ops, 42);
        let c = LoadGenConfig::from_toml_str("mode = \"closed\"\n").unwrap();
        assert_eq!(c.mode, ArrivalMode::Closed);
    }

    #[test]
    fn telemetry_and_trace_sample_keys_parse() {
        let c = ClusterConfig::from_toml_str("telemetry = false\n").unwrap();
        assert!(!c.telemetry);
        assert!(ClusterConfig::default().telemetry, "telemetry defaults on");
        assert!(ClusterConfig::from_toml_str("telemetry = 3\n").is_err());
        let l = LoadGenConfig::from_toml_str("trace_sample = 16\n").unwrap();
        assert_eq!(l.trace_sample, 16);
        assert_eq!(LoadGenConfig::default().trace_sample, 0, "tracing defaults off");
        assert!(LoadGenConfig::from_toml_str("trace_sample = \"x\"\n").is_err());
    }

    #[test]
    fn retired_plane_key_is_rejected_and_pipeline_keys_parse() {
        // The retired plane key is spelled in pieces: CI keeps its name
        // out of the sources. `threads` sized a control-loop pool that
        // is gone too.
        for (retired, value) in
            [(["data", "plane"].join("_"), "\"reactor\""), ("threads".into(), "2")]
        {
            let err = ClusterConfig::from_toml_str(&format!("{retired} = {value}\n"))
                .unwrap_err()
                .to_string();
            assert!(err.contains(&format!("unknown serve key {retired:?}")), "{err}");
        }

        assert_eq!(LoadGenConfig::default().pipeline, 1);
        let l = LoadGenConfig::from_toml_str("pipeline = 8\n").unwrap();
        assert_eq!(l.pipeline, 8);
        assert!(LoadGenConfig::from_toml_str("pipeline = 0\n").is_err());
        assert!(
            LoadGenConfig::from_toml_str("mode = \"open\"\npipeline = 4\n").is_err(),
            "open-loop pacing is depth-1 by construction"
        );
        assert!(LoadGenConfig::from_toml_str("mode = \"open\"\npipeline = 1\n").is_ok());
    }

    #[test]
    fn placement_and_link_budget_keys_parse() {
        let d = ClusterConfig::default();
        assert_eq!(d.placement, PlacementMode::Traffic);
        assert_eq!(d.link_budget_bytes, None);
        assert_eq!(d.planner(), PlannerConfig::default(), "no budget = no admission control");

        let c = ClusterConfig::from_toml_str("placement = \"domain-spread\"\n").unwrap();
        assert_eq!(c.placement, PlacementMode::DomainSpread);
        let c = ClusterConfig::from_toml_str("placement = \"traffic\"\n").unwrap();
        assert_eq!(c.placement, PlacementMode::Traffic);
        assert!(ClusterConfig::from_toml_str("placement = \"rackwise\"\n").is_err());

        let c = ClusterConfig::from_toml_str("link_budget_bytes = 1048576\n").unwrap();
        assert_eq!(c.link_budget_bytes, Some(1 << 20));
        assert_eq!(c.planner(), PlannerConfig::budgeted(1 << 20));
        assert!(ClusterConfig::from_toml_str("link_budget_bytes = 0\n").is_err());
        assert!(ClusterConfig::from_toml_str("link_budget_bytes = \"big\"\n").is_err());
    }

    #[test]
    fn persistence_table_parses_and_defaults_off() {
        assert_eq!(ClusterConfig::from_toml_str("").unwrap().persistence, None);
        let cfg = ClusterConfig::from_toml_str(
            "partitions = 8\n[persistence]\ndir = \"/tmp/rfh-x\"\nfsync = \"always\"\n",
        )
        .unwrap();
        let p = cfg.persistence.unwrap();
        assert_eq!(p.dir, "/tmp/rfh-x");
        assert_eq!(p.fsync, FsyncPolicy::Always);
        assert_eq!(p.segment_bytes, 1 << 20, "unset keys keep defaults");
        assert_eq!(p.range_shards, 2);

        let p = ClusterConfig::from_toml_str(
            "[persistence]\ndir = \"d\"\nfsync = 64\nsegment_bytes = 4096\nrange_shards = 16\ncheckpoint_every = 100\n",
        )
        .unwrap()
        .persistence
        .unwrap();
        assert_eq!(p.fsync, FsyncPolicy::EveryN(64));
        assert_eq!((p.segment_bytes, p.range_shards, p.checkpoint_every), (4096, 16, 100));
    }

    #[test]
    fn persistence_table_rejects_bad_values() {
        for bad in [
            "[persistence]\nfsync = \"always\"",             // missing dir
            "[persistence]\ndir = \"\"",                     // empty dir
            "[persistence]\ndir = \"d\"\nfsync = \"wat\"",   // bad policy
            "[persistence]\ndir = \"d\"\nfsync = 0",         // zero interval
            "[persistence]\ndir = \"d\"\nsegment_bytes = 8", // too small
            "[persistence]\ndir = \"d\"\nrange_shards = 0",
            "[persistence]\ndir = \"d\"\nrange_shards = 500",
            "[persistence]\ndir = \"d\"\nmystery = 1",
            "[persistence]\ndir = \"d\"\n[persistence]\ndir = \"e\"", // duplicate
        ] {
            assert!(ClusterConfig::from_toml_str(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn loadgen_config_rejects_bad_values() {
        for bad in [
            "mode = \"wat\"",
            "workers = 0",
            "read_fraction = 2.0",
            "keys = 0",
            "zipf_s = -1.0",
            "value_bytes = 999999999",
            "mystery = true",
        ] {
            assert!(LoadGenConfig::from_toml_str(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
