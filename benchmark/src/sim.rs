//! The simulator side of the benchmark: building the two sim shapes,
//! stepping them round by round with the wall time of every round kept,
//! and reading the counts and the profiler back out through the
//! simulator's public surface.
//!
//! The unit of work is one *round*: every simulation of the shape
//! advances one epoch (one `Simulation::step` on `sim_scale_1m`, one of
//! each of the five policies on `sim_hot_chaos`, whose steps cost 3 to
//! 12 ms depending on the policy — timing them singly would make the
//! median and the tail a statement about the mix, not about the code).
//! Run length is a fixed number of epochs (rule N4): the cost of an
//! epoch depends on its index, so a fixed wall time would measure a
//! different mix of epochs whenever the code got faster.

use crate::hist::{LogHist, Slice};
use crate::trace::Tracer;
use crate::Res;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfh_core::PolicyKind;
use rfh_faults::{ChurnConfig, FaultAction, FaultPlan};
use rfh_obs::{Metric, MetricsRegistry, ProfileReport};
use rfh_sim::{PlannerConfig, SimParams, Simulation};
use rfh_topology::{paper_topology, scaled_paper_topology};
use rfh_types::{
    Bandwidth, Bytes, DatacenterId, FlashCrowdConfig, PartitionId, RackId, RoomId, SimConfig,
};
use rfh_workload::{EventSchedule, Scenario};
use std::time::Instant;

/// Seed of the topology's per-server capacity factors and of the fault
/// plan's churn draws. The cluster and what breaks in it are
/// configuration, not input; the run's seed drives the query stream and
/// the policies' own randomness. For the topology: with the run's seed here, five seeds of
/// `sim_scale_1m` spread 9 % in `ops_per_s` where one seed repeated
/// spread 4 %; with it fixed, five seeds spread 3 %.
const SCENARIO_SEED: u64 = 42;

/// The planner's per-WAN-link byte budget per epoch on `sim_hot_chaos`.
const LINK_BUDGET_BYTES: u64 = 512 << 10;

/// The shape of one sim workload.
#[derive(Clone, Debug)]
pub enum SimSpec {
    /// One RFH run on the scaled paper topology, no faults, 1 thread.
    Scale {
        /// Partitions (1 KiB each).
        partitions: u32,
        /// Epochs charged to set-up: the all-dirty seed epoch and the
        /// streak-saturation epochs after it.
        warm: u64,
        /// Timed epochs.
        timed: u64,
        /// Times an untraced run repeats set-up and timed phase.
        reps: usize,
    },
    /// Five policies × `seeds` flash-crowd runs under faults and a link
    /// budget on the paper's 100-server topology.
    Chaos {
        /// Partitions (16 KiB each, so a link admits 32 moves an epoch:
        /// at 32 KiB, Spread left a partition under its floor past the
        /// auditor's repair window on a third of the seeds tried).
        partitions: u32,
        /// Poisson mean of queries per epoch: about five per partition,
        /// so nearly every partition is dirty every epoch.
        queries_per_epoch: f64,
        /// Derived sim seeds per policy.
        seeds: u64,
        /// Epochs of every run charged to set-up.
        warm: u64,
        /// Timed epochs of every run.
        timed: u64,
        /// Worker threads of the epoch hot path.
        threads: usize,
        /// Times an untraced run repeats set-up and timed phase.
        reps: usize,
    },
}

impl SimSpec {
    fn warm(&self) -> u64 {
        match self {
            SimSpec::Scale { warm, .. } | SimSpec::Chaos { warm, .. } => *warm,
        }
    }

    /// Repetitions of set-up and timed phase in an untraced run.
    pub fn reps(&self) -> usize {
        match self {
            SimSpec::Scale { reps, .. } | SimSpec::Chaos { reps, .. } => *reps,
        }
    }

    /// Timed rounds: every sim of the shape takes one step per round.
    pub fn timed(&self) -> u64 {
        match self {
            SimSpec::Scale { timed, .. } | SimSpec::Chaos { timed, .. } => *timed,
        }
    }
}

/// Rack outage, then site outage, over background churn; everything is
/// healed and churn has stopped well before the run ends, so a policy
/// that repairs at all ends with every partition at its floor.
fn chaos_plan(epochs: u64) -> FaultPlan {
    let room = RoomId::new(0);
    let at = |share: u64| epochs * share / 100;
    let plan = FaultPlan {
        seed: SCENARIO_SEED,
        churn: Some(ChurnConfig { mtbf: 400.0, mttr: 10.0, start: at(12), end: Some(at(80)) }),
        ..FaultPlan::default()
    };
    plan.at(at(24), FaultAction::FailRack(DatacenterId::new(2), room, RackId::new(1)))
        .at(at(28), FaultAction::RecoverRack(DatacenterId::new(2), room, RackId::new(1)))
        .at(at(48), FaultAction::FailDatacenter(DatacenterId::new(7)))
        .at(at(52), FaultAction::RecoverDatacenter(DatacenterId::new(7)))
}

/// Build every simulation of `spec` for `seed`, unstepped.
fn build(spec: &SimSpec, seed: u64) -> Res<Vec<Simulation>> {
    let base = |config: SimConfig, scenario, policy, epochs, seed, faults, threads| SimParams {
        config,
        scenario,
        policy,
        epochs,
        seed,
        events: EventSchedule::new(),
        faults,
        threads,
    };
    match spec {
        SimSpec::Scale { partitions, warm, timed, .. } => {
            // Storage and bandwidth lifted so placement at this scale
            // is unconstrained, as bench_sparse does.
            let config = SimConfig {
                partitions: *partitions,
                partition_size: Bytes::kib(1),
                max_server_storage: Bytes::gib(1000),
                replication_bandwidth: Bandwidth::mib_per_epoch(10_000),
                migration_bandwidth: Bandwidth::mib_per_epoch(10_000),
                ..SimConfig::default()
            };
            let params = base(
                config.clone(),
                Scenario::RandomEven,
                PolicyKind::Rfh,
                warm + timed,
                seed,
                FaultPlan::default(),
                1,
            );
            let topo = scaled_paper_topology(2, config.capacity_spread, SCENARIO_SEED)
                .map_err(|e| e.to_string())?;
            let sim = Simulation::with_topology(params, topo).map_err(|e| e.to_string())?;
            Ok(vec![sim])
        }
        SimSpec::Chaos { partitions, queries_per_epoch, seeds, warm, timed, threads, .. } => {
            let mut derive = StdRng::seed_from_u64(seed);
            let mut sims = Vec::new();
            for _ in 0..*seeds {
                let run_seed = derive.gen::<u64>() >> 1;
                for kind in PolicyKind::WITH_SPREAD {
                    let config = SimConfig {
                        partitions: *partitions,
                        partition_size: Bytes::kib(16),
                        queries_per_epoch: *queries_per_epoch,
                        ..SimConfig::default()
                    };
                    let epochs = warm + timed;
                    let params = base(
                        config,
                        Scenario::FlashCrowd(FlashCrowdConfig::default()),
                        kind,
                        epochs,
                        run_seed,
                        chaos_plan(epochs),
                        *threads,
                    );
                    let topo = paper_topology(params.config.capacity_spread, SCENARIO_SEED)
                        .map_err(|e| e.to_string())?;
                    let sim = Simulation::with_topology(params, topo).map_err(|e| e.to_string())?;
                    sims.push(sim.with_planner(PlannerConfig::budgeted(LINK_BUDGET_BYTES)));
                }
            }
            Ok(sims)
        }
    }
}

/// Simulations built and stepped through their warm-up epochs.
pub struct Warmed {
    sims: Vec<Simulation>,
    /// Wall seconds building and warming took.
    pub secs: f64,
    /// Mean wall time of one warm-up epoch, ms.
    pub warm_epoch_ms: f64,
}

/// One full set-up: build every simulation and run its warm-up epochs.
pub fn set_up(spec: &SimSpec, seed: u64) -> Res<Warmed> {
    let t0 = Instant::now();
    let mut sims = build(spec, seed)?;
    let built = t0.elapsed().as_secs_f64();
    for sim in &mut sims {
        for _ in 0..spec.warm() {
            sim.step().map_err(|e| format!("warm-up step: {e}"))?;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let warm_steps = (spec.warm() * sims.len() as u64).max(1);
    Ok(Warmed { sims, secs, warm_epoch_ms: (secs - built) * 1e3 / warm_steps as f64 })
}

/// What the timed phase of a sim workload produced.
pub struct SimRun {
    /// Equal round-count slices, by wall time (what a tracer costs
    /// between steps is inside).
    pub slices: Vec<Slice>,
    /// Wall time of every round, in order: the sum of its steps.
    pub round_ns: Vec<u64>,
    /// Every single step's latency, for the per-layer step metrics.
    pub steps: LogHist,
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds in which a step returned an error.
    pub failed: u64,
    /// Hash of every finished run's full metric history.
    pub digest: u64,
    /// Whether the quality guards held (see [`SimRun::notes`]).
    pub correct: bool,
    /// What failed, if anything did.
    pub notes: Vec<String>,
    /// Count metrics read from the program: exact for one seed.
    pub counts: Vec<(&'static str, f64)>,
    /// Profiler phases summed over every run, if profiling was on.
    pub profile: Option<ProfileReport>,
}

/// Run `spec.timed()` rounds — every simulation steps once per round —
/// cut into `n_slices` slices of equal round count, then finish every
/// run and check its quality guards. A traced run turns the simulator's
/// phase profiler on for the timed phase and leaves a `step` span per
/// step. `stop_after` ends the phase after that many slices (the
/// untraced reference a traced run compares its first slices with);
/// the guards of a run cut short are not checked.
pub fn run_timed(
    spec: &SimSpec,
    warmed: Warmed,
    n_slices: usize,
    stop_after: Option<usize>,
    mut trace: Option<(&mut Tracer, u32)>,
) -> SimRun {
    let profiling = trace.is_some();
    let mut sims: Vec<Simulation> =
        warmed.sims.into_iter().map(|s| s.with_profiling(profiling)).collect();
    let rounds = spec.timed();
    let n_slices = (n_slices as u64).clamp(1, rounds.max(1));
    let mut slices = Vec::with_capacity(n_slices as usize);
    let mut round_times = Vec::with_capacity(rounds as usize);
    let (mut hist, mut steps) = (LogHist::default(), LogHist::default());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut slice_t0 = Instant::now();
    let mut slice_span = trace.as_mut().map_or(0, |(t, run)| t.open("slice", *run));
    for round in 0..rounds {
        let (mut round_ns, mut round_ok) = (0u64, true);
        for sim in &mut sims {
            let start = trace.as_ref().map(|(t, _)| t.now_ns());
            let t0 = Instant::now();
            round_ok &= sim.step().is_ok();
            let ns = t0.elapsed().as_nanos() as u64;
            steps.record(ns);
            round_ns += ns;
            if let (Some(start), Some((tracer, _))) = (start, trace.as_mut()) {
                tracer.push("step", slice_span, start, start + ns, 0);
            }
        }
        attempted += 1;
        round_times.push(round_ns);
        if round_ok {
            hist.record(round_ns);
        } else {
            failed += 1;
        }
        // Slice k ends after round `rounds * k / n_slices`.
        if round + 1 == rounds * (slices.len() as u64 + 1) / n_slices {
            slices.push(Slice {
                ops: hist.count(),
                secs: slice_t0.elapsed().as_secs_f64(),
                hist: std::mem::take(&mut hist),
            });
            slice_t0 = Instant::now();
            if let Some((tracer, run)) = trace.as_mut() {
                tracer.close(slice_span);
                if round + 1 < rounds {
                    slice_span = tracer.open("slice", *run);
                }
            }
            if stop_after == Some(slices.len()) {
                break;
            }
        }
    }
    let mut run = finish(sims, slices, round_times, steps, attempted, failed);
    if stop_after.is_some() {
        run.correct = run.failed == 0;
    }
    run
}

fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    match reg.get(name) {
        Some(Metric::Counter(v)) => *v,
        _ => 0,
    }
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Read the counts, check the guards, and fold every run's metric
/// history into the digest.
fn finish(
    sims: Vec<Simulation>,
    slices: Vec<Slice>,
    round_ns: Vec<u64>,
    steps: LogHist,
    attempted: u64,
    failed: u64,
) -> SimRun {
    let mut notes = Vec::new();
    let (mut dirty, mut skipped, mut epochs_total) = (0u64, 0u64, 0u64);
    let (mut admitted, mut deferred, mut repairs, mut dead_letters) = (0u64, 0u64, 0u64, 0u64);
    let (mut topo_rebuilds, mut index_rebuilds) = (0u64, 0u64);
    let (mut guarded_violations, mut rfh_sub_rmin) = (0u64, 0u64);
    let (mut rfh_utilization, mut rfh_runs) = (0.0f64, 0u64);
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut profile: Option<ProfileReport> = None;
    // Neither shape overrides the availability parameters.
    let cfg = SimConfig::default();
    let r_min = rfh_stats::min_replica_count(cfg.failure_rate, cfg.min_availability) as usize;
    for sim in sims {
        let mut reg = MetricsRegistry::new();
        sim.collect_metrics(&mut reg);
        epochs_total += sim.epoch();
        dirty += counter(&reg, "sim.sparse.dirty_partitions");
        skipped += counter(&reg, "sim.sparse.skipped_partitions");
        repairs += counter(&reg, "sim.repairs.completed");
        dead_letters += counter(&reg, "sim.repairs.dead_letters");
        topo_rebuilds += counter(&reg, "traffic.engine.topo_rebuilds");
        index_rebuilds += counter(&reg, "traffic.engine.index_rebuilds");
        let (a, d) = sim.planner_counters();
        admitted += a;
        deferred += d;
        let partitions = sim.manager().partitions();
        // Both RFH variants must keep every invariant and end with every
        // partition at its floor; the three baselines are not built to.
        let under_floor = (0..partitions)
            .filter(|&p| sim.manager().replicas(PartitionId::new(p)).len() < r_min)
            .count();
        let violations = sim.auditor().total();
        let sub_rmin = sim.availability_counters().1;
        let result = sim.finish();
        let guarded = matches!(result.policy, PolicyKind::Rfh | PolicyKind::DomainSpread);
        if guarded {
            guarded_violations += violations;
            if violations > 0 || under_floor > 0 {
                notes.push(format!(
                    "{}: {violations} invariant violations, {under_floor} partitions under r_min \
                     at the end",
                    result.policy.name()
                ));
            }
        }
        if result.policy == PolicyKind::Rfh {
            rfh_sub_rmin += sub_rmin;
            rfh_utilization += result.metrics.series("utilization").map_or(0.0, |s| s.mean());
            rfh_runs += 1;
        }
        fnv(&mut digest, result.policy.name().as_bytes());
        for series in result.metrics.all_series() {
            fnv(&mut digest, series.name().as_bytes());
            for v in series.values() {
                fnv(&mut digest, &v.to_bits().to_le_bytes());
            }
        }
        if let Some(p) = result.profile {
            match profile.as_mut() {
                None => profile = Some(p),
                Some(sum) => {
                    for phase in p.phases {
                        match sum.phases.iter_mut().find(|s| s.name == phase.name) {
                            Some(s) => {
                                s.nanos += phase.nanos;
                                s.calls += phase.calls;
                            }
                            None => sum.phases.push(phase),
                        }
                    }
                }
            }
        }
    }
    if failed > 0 {
        notes.push(format!("{failed} rounds had a step return an error"));
    }
    let epochs = epochs_total.max(1) as f64;
    let counts = vec![
        ("sim.dirty_per_epoch", dirty as f64 / epochs),
        ("sim.skipped_share", skipped as f64 / (dirty + skipped).max(1) as f64),
        ("traffic.topo_rebuilds", topo_rebuilds as f64),
        ("traffic.index_rebuilds", index_rebuilds as f64),
        ("planner.admitted", admitted as f64),
        ("planner.deferred", deferred as f64),
        ("sim.repairs_total", repairs as f64),
        ("sim.dead_letters", dead_letters as f64),
        ("sim.invariant_violations", guarded_violations as f64),
        ("sim.rfh_sub_rmin_partition_epochs", rfh_sub_rmin as f64),
        ("sim.rfh_replica_utilization", rfh_utilization / rfh_runs.max(1) as f64),
    ];
    SimRun {
        slices,
        round_ns,
        steps,
        attempted,
        failed,
        digest,
        correct: notes.is_empty(),
        notes,
        counts,
        profile,
    }
}

/// Wall seconds for an RFH chaos-shaped prefix at `threads` workers:
/// the numerator and denominator of `pool.speedup_t2`.
pub fn pool_prefix_secs(partitions: u32, epochs: u64, threads: usize) -> Res<f64> {
    let spec = SimSpec::Chaos {
        partitions,
        queries_per_epoch: f64::from(partitions) * 5.0,
        seeds: 1,
        warm: 0,
        timed: epochs,
        threads,
        reps: 1,
    };
    let mut sims = build(&spec, 42)?;
    // WITH_SPREAD order: index 3 is RFH.
    let sim = &mut sims[3];
    let t0 = Instant::now();
    for _ in 0..epochs {
        sim.step().map_err(|e| e.to_string())?;
    }
    Ok(t0.elapsed().as_secs_f64())
}
