//! The offline simulator: one policy's run of the epoch pipeline over a
//! generated or replayed workload.

use crate::metrics::{EpochSnapshot, Metrics};
use crate::pipeline::{initial_placement, EngineMode, EpochPipeline, NoHost};
use crate::planner::PlannerConfig;
use rfh_core::{
    OwnerOrientedPolicy, PlacementMode, PolicyKind, RandomPolicy, ReplicaManager,
    ReplicationPolicy, RequestOrientedPolicy, RfhPolicy,
};
use rfh_faults::{FaultPlan, InvariantAuditor, PLAN_SEED_SALT};
use rfh_obs::{
    MetricsRegistry, ProfileReport, Profiler, Recorder, PHASE_EVENTS, PHASE_METRICS, PHASE_WORKLOAD,
};
use rfh_ring::ConsistentHashRing;
use rfh_topology::{paper_topology, Topology};
use rfh_types::{PartitionId, Result, RfhError, SimConfig};
use rfh_workload::{EventSchedule, QueryLoad, Scenario, Trace, WorkloadGenerator};
use std::sync::Arc;

/// Parameters of one simulation run.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Table I parameters.
    pub config: SimConfig,
    /// Query-origin scenario.
    pub scenario: Scenario,
    /// The algorithm under test.
    pub policy: PolicyKind,
    /// Run length in epochs.
    pub epochs: u64,
    /// Master seed: workload and topology capacity factors derive from
    /// it, so `(params, seed)` fully determines a fault-free run (a
    /// fault plan carries its own seed; see [`sim_seeded_plan`]).
    pub seed: u64,
    /// No effect: failures enter only through [`Self::faults`]. Kept so
    /// that code building `SimParams` by struct literal (the repo
    /// benchmark does) still compiles.
    pub events: EventSchedule,
    /// Every failure, recovery and gray fault the run injects:
    /// scheduled actions (Fig. 10's random kill among them) and churn.
    /// The default empty plan builds no injector at all, so a run
    /// without faults is bit-identical to one from before the fault
    /// layer existed.
    pub faults: FaultPlan,
    /// No effect: the epoch runs on the calling thread whatever this
    /// holds. Kept so that code building `SimParams` by struct literal
    /// (the repo benchmark does) still compiles.
    pub threads: usize,
}

impl SimParams {
    /// Paper defaults: Table I config, 250 epochs, no faults.
    pub fn paper(policy: PolicyKind, scenario: Scenario) -> Self {
        SimParams {
            config: SimConfig::default(),
            scenario,
            policy,
            epochs: 250,
            seed: 42,
            events: EventSchedule::new(),
            faults: FaultPlan::default(),
            threads: 1,
        }
    }

    /// The workload generator these parameters describe. The single
    /// construction point shared by [`Simulation`] and
    /// [`crate::runner::run_comparison`]: equal params and `dc_count`
    /// yield byte-identical query streams.
    pub fn workload_generator(&self, dc_count: u32) -> WorkloadGenerator {
        WorkloadGenerator::new(
            self.config.queries_per_epoch,
            self.config.partitions,
            dc_count,
            self.config.partition_skew,
            self.scenario.clone(),
            self.epochs,
            self.seed,
        )
    }
}

/// An empty fault plan whose seed derives from the simulation seed
/// `sim_seed`, for experiments and tests that script failures per run
/// seed (Fig. 10, the availability waves). The injector seeds its RNG
/// with `plan.seed ^ PLAN_SEED_SALT`, so this plan's `FailRandom`
/// draws from `sim_seed ^ "EVENTS"`: the stream Fig. 10's published
/// victims were drawn from.
pub fn sim_seeded_plan(sim_seed: u64) -> FaultPlan {
    const EVENTS: u64 = 0x4556_454E_5453; // "EVENTS"
    FaultPlan { seed: sim_seed ^ EVENTS ^ PLAN_SEED_SALT, ..FaultPlan::default() }
}

/// The outcome of a finished run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The algorithm that produced it.
    pub policy: PolicyKind,
    /// Scenario name (for report labelling).
    pub scenario: String,
    /// The full metric history.
    pub metrics: Metrics,
    /// Per-phase epoch timing, present when profiling was enabled.
    pub profile: Option<ProfileReport>,
}

/// Equality ignores the profile: two runs are the *same run* iff their
/// decisions and metric histories match — wall-clock never counts, so
/// determinism tests hold whether or not profiling was on.
impl PartialEq for SimResult {
    fn eq(&self, other: &Self) -> bool {
        self.policy == other.policy
            && self.scenario == other.scenario
            && self.metrics == other.metrics
    }
}

/// One policy's simulation state: the epoch pipeline plus what only an
/// offline run has — a workload source and the metric history.
pub struct Simulation {
    params: SimParams,
    pipeline: EpochPipeline,
    /// Workload source: a shared recorded trace, or a private generator.
    trace: Option<Arc<Trace>>,
    generator: WorkloadGenerator,
    /// Reused query-matrix buffer for generated workloads: cleared
    /// touched-rows-only each epoch, so workload handling stays
    /// O(queries) instead of O(partitions).
    load_buf: QueryLoad,
    metrics: Metrics,
}

impl Simulation {
    /// Build a run on the paper topology.
    pub fn new(params: SimParams) -> Result<Self> {
        params.config.validate()?;
        let topo = paper_topology(params.config.capacity_spread, params.seed)?;
        Self::with_topology(params, topo)
    }

    /// Build a run on a custom topology.
    pub fn with_topology(params: SimParams, topo: Topology) -> Result<Self> {
        params.config.validate()?;
        let cfg = &params.config;
        let dc_count = topo.datacenters().len() as u32;
        let (ring, manager) = initial_placement(cfg, &topo)?;
        let policy = Self::build_policy(&params, dc_count, &ring);
        Ok(Simulation {
            generator: params.workload_generator(dc_count),
            load_buf: QueryLoad::zeros(cfg.partitions, dc_count),
            metrics: Metrics::new(cfg.partitions),
            pipeline: EpochPipeline::new(cfg.clone(), topo, ring, manager, policy, &params.faults),
            trace: None,
            params,
        })
    }

    /// Replace the policy with a custom (e.g. ablated) implementation.
    /// The `params.policy` kind is kept for labelling only.
    pub fn with_custom_policy(mut self, policy: Box<dyn ReplicationPolicy + Send>) -> Self {
        self.pipeline.policy = policy;
        self
    }

    /// Replay a shared recorded trace instead of generating queries.
    /// Guarantees byte-identical workloads across policies (the
    /// generator already guarantees this for equal seeds; the trace also
    /// saves regeneration work).
    pub fn with_shared_trace(mut self, trace: Arc<Trace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attach a decision-event recorder. Observation-only: the policy's
    /// decisions are identical under any recorder (the recorder trait
    /// cannot feed state back), so a traced run stays bit-identical to
    /// an untraced one.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.pipeline.recorder = recorder;
        self
    }

    /// Enable (or disable) per-phase epoch timing. Off by default; when
    /// off the cost is one branch per phase boundary.
    pub fn with_profiling(mut self, enabled: bool) -> Self {
        self.pipeline.profiler = Profiler::new(enabled);
        self
    }

    /// Select the epoch engine (see [`EngineMode`]; the default is
    /// [`EngineMode::Sparse`]). Results are bit-identical either way —
    /// the mode trades per-epoch cost only.
    pub fn with_engine(mut self, mode: EngineMode) -> Self {
        self.pipeline.engine_mode = mode;
        self
    }

    /// Attach the per-epoch transfer planner (see [`crate::planner`]):
    /// a link budget rate-limits each WAN link, deferring what does not
    /// fit to the next epoch via the repair queue. Without a budget
    /// (the default) every move executes.
    pub fn with_planner(mut self, cfg: PlannerConfig) -> Self {
        self.pipeline = self.pipeline.with_planner(cfg);
        self
    }

    fn build_policy(
        params: &SimParams,
        dc_count: u32,
        ring: &ConsistentHashRing,
    ) -> Box<dyn ReplicationPolicy + Send> {
        let rfh = |placement| Box::new(RfhPolicy::new().with_placement(placement));
        match params.policy {
            PolicyKind::Rfh => rfh(PlacementMode::default()),
            PolicyKind::DomainSpread => rfh(PlacementMode::DomainSpread),
            PolicyKind::Random => Box::new(RandomPolicy::new(ring.clone())),
            PolicyKind::OwnerOriented => Box::new(OwnerOrientedPolicy::new()),
            PolicyKind::RequestOriented => Box::new(RequestOrientedPolicy::new(
                params.config.partitions,
                dc_count,
                params.seed ^ 0x5245_5155, // "REQU"
            )),
        }
    }

    /// Current epoch (next to be simulated).
    pub fn epoch(&self) -> u64 {
        self.pipeline.epoch()
    }

    /// The replica map (inspection in tests and examples).
    pub fn manager(&self) -> &ReplicaManager {
        self.pipeline.manager()
    }

    /// The cluster (inspection in tests and examples).
    pub fn topology(&self) -> &Topology {
        self.pipeline.topology()
    }

    /// Simulate one epoch; returns its snapshot.
    pub fn step(&mut self) -> Result<EpochSnapshot> {
        let ev_t0 = self.pipeline.profiler.start();
        self.pipeline.inject_faults(&mut NoHost)?;
        self.pipeline.profiler.stop(PHASE_EVENTS, ev_t0);

        let wl_t0 = self.pipeline.profiler.start();
        let epoch = self.pipeline.epoch();
        let load: &QueryLoad = match &self.trace {
            Some(t) => t
                .epoch(epoch)
                .ok_or_else(|| RfhError::Simulation(format!("trace has no epoch {epoch}")))?,
            None => {
                self.generator.epoch_load_into(epoch, &mut self.load_buf);
                &self.load_buf
            }
        };
        self.pipeline.profiler.stop(PHASE_WORKLOAD, wl_t0);

        let snap = self.pipeline.run_epoch(load, &mut NoHost);
        let me_t0 = self.pipeline.profiler.start();
        self.metrics.record(&snap);
        self.pipeline.profiler.stop(PHASE_METRICS, me_t0);
        Ok(snap)
    }

    /// Export the run's counters into a metrics registry: epoch and
    /// replica totals plus the traffic engine's pass counters.
    /// All values are lifetime totals written set-style, so collecting
    /// into the same registry repeatedly is idempotent.
    pub fn collect_metrics(&self, registry: &mut MetricsRegistry) {
        let pl = &self.pipeline;
        registry.counter_total("sim.epochs", pl.epoch());
        registry.counter_total("sim.fault_shortfall", pl.fault_shortfall);
        registry.gauge("sim.repairs.pending", pl.repair_queue().len() as f64);
        pl.collect_metrics(registry, "sim");
        if pl.has_fault_plan() {
            let (unavailable, sub_rmin, peak) = pl.availability_counters();
            registry.counter_total("sim.availability.unavailable_partition_epochs", unavailable);
            registry.counter_total("sim.availability.sub_rmin_partition_epochs", sub_rmin);
            registry.gauge("sim.availability.sub_rmin_peak", peak as f64);
        }
        registry.gauge("sim.placement.spread_score", self.spread_score());
    }

    /// Mean failure-domain spread of the current placement: per
    /// partition, the number of distinct (datacenter, room, rack)
    /// triples its replicas occupy divided by its replica count — 1.0
    /// when every copy sits in its own rack, approaching `1/n` when all
    /// share one. O(replicas); computed at collection time only.
    pub fn spread_score(&self) -> f64 {
        let (manager, topo) = (self.manager(), self.topology());
        let n = manager.partitions();
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut racks: Vec<(u32, u32, u32)> = Vec::new();
        for p in 0..n {
            let set = manager.replicas(PartitionId::new(p));
            if set.is_empty() {
                continue;
            }
            racks.clear();
            for &s in set {
                let srv = &topo.servers()[s.index()];
                racks.push((srv.datacenter.0, srv.room.0, srv.rack.0));
            }
            racks.sort_unstable();
            racks.dedup();
            total += racks.len() as f64 / set.len() as f64;
        }
        total / n as f64
    }

    /// Chaos availability counters: `(unavailable partition-epochs,
    /// sub-r_min partition-epochs, peak sub-r_min in one epoch)`. All
    /// zero unless a fault plan is active.
    pub fn availability_counters(&self) -> (u64, u64, u64) {
        self.pipeline.availability_counters()
    }

    /// The transfer planner's lifetime `(admitted, deferred)` move
    /// counts. Both zero without a link budget.
    pub fn planner_counters(&self) -> (u64, u64) {
        self.pipeline.planner_counters()
    }

    /// The invariant auditor's findings so far (tests and diagnostics).
    pub fn auditor(&self) -> &InvariantAuditor {
        self.pipeline.auditor()
    }

    /// Package the metrics recorded so far (and the profile, if timing
    /// was on) without running further epochs.
    pub fn finish(self) -> SimResult {
        let profiler = &self.pipeline.profiler;
        SimResult {
            policy: self.params.policy,
            scenario: self.params.scenario.name().to_string(),
            profile: profiler.enabled().then(|| profiler.report()),
            metrics: self.metrics,
        }
    }

    /// Run to completion and return the metric history.
    pub fn run(mut self) -> Result<SimResult> {
        while self.epoch() < self.params.epochs {
            self.step()?;
        }
        Ok(self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_faults::FaultAction;

    fn quick_params(policy: PolicyKind) -> SimParams {
        SimParams {
            config: SimConfig {
                partitions: 16,
                replica_capacity_mean: 5.0,
                ..SimConfig::default()
            },
            scenario: Scenario::RandomEven,
            policy,
            epochs: 40,
            seed: 7,
            events: EventSchedule::new(),
            faults: FaultPlan::default(),
            threads: 1,
        }
    }

    #[test]
    fn runs_to_completion_for_every_policy() {
        for kind in PolicyKind::ALL {
            let sim = Simulation::new(quick_params(kind)).unwrap();
            let result = sim.run().unwrap();
            assert_eq!(result.metrics.epochs(), 40, "{kind}");
            assert_eq!(result.policy, kind);
        }
    }

    #[test]
    fn replica_counts_grow_from_demand() {
        let sim = Simulation::new(quick_params(PolicyKind::Rfh)).unwrap();
        let result = sim.run().unwrap();
        let replicas = result.metrics.series("replicas_total").unwrap();
        assert_eq!(replicas.values()[0], 16.0 + 16.0, "first epoch: floor growth begins");
        assert!(
            replicas.last().unwrap() > 32.0,
            "demand must add replicas beyond the floor: {:?}",
            replicas.last()
        );
    }

    #[test]
    fn sparse_equals_dense_for_every_policy() {
        for kind in PolicyKind::ALL {
            let dense = Simulation::new(quick_params(kind))
                .unwrap()
                .with_engine(EngineMode::Dense)
                .run()
                .unwrap();
            let sparse = Simulation::new(quick_params(kind))
                .unwrap()
                .with_engine(EngineMode::Sparse)
                .run()
                .unwrap();
            assert_eq!(dense, sparse, "{kind}: sparse engine must be bit-identical");
        }
    }

    /// Records the size of the active set each epoch hands the policy;
    /// decides nothing and carries nothing, so after the first epoch
    /// every epoch is a fault-free steady one.
    struct ActiveProbe(Arc<std::sync::Mutex<Vec<Option<usize>>>>);

    impl ReplicationPolicy for ActiveProbe {
        fn name(&self) -> &'static str {
            "Probe"
        }

        fn decide(
            &mut self,
            ctx: &rfh_core::EpochContext<'_>,
            _: &ReplicaManager,
        ) -> Vec<rfh_core::Action> {
            self.0.lock().unwrap().push(ctx.active.map(<[u32]>::len));
            Vec::new()
        }

        fn keeps_live(
            &self,
            _: &Topology,
            _: &rfh_traffic::TrafficSmoother,
            _: &ReplicaManager,
            _: usize,
            _: PartitionId,
        ) -> bool {
            false
        }
    }

    #[test]
    fn dense_epochs_evaluate_every_partition() {
        let mut p = quick_params(PolicyKind::Random);
        p.config.partitions = 512;
        for mode in [EngineMode::Dense, EngineMode::Sparse] {
            let seen = Arc::default();
            let mut sim = Simulation::new(p.clone())
                .unwrap()
                .with_custom_policy(Box::new(ActiveProbe(Arc::clone(&seen))))
                .with_engine(mode);
            for _ in 0..10 {
                sim.step().unwrap();
            }
            let seen = seen.lock().unwrap();
            assert_eq!(seen.len(), 10);
            assert_eq!(seen[0], Some(512), "{mode:?}: the first epoch runs dirty-all");
            for (epoch, &active) in seen.iter().enumerate().skip(1) {
                match mode {
                    EngineMode::Dense => assert_eq!(active, Some(512), "epoch {epoch}"),
                    EngineMode::Sparse => assert!(active < Some(512), "epoch {epoch}"),
                }
            }
            // The work counters count the evaluated partitions in both
            // modes.
            let mut reg = MetricsRegistry::new();
            sim.collect_metrics(&mut reg);
            let dirty = match reg.get("sim.sparse.dirty_partitions") {
                Some(rfh_obs::Metric::Counter(v)) => *v,
                other => panic!("expected a counter, got {other:?}"),
            };
            assert_eq!(dirty == 10 * 512, mode == EngineMode::Dense, "{mode:?}: {dirty}");
        }
    }

    #[test]
    fn sparse_epochs_skip_cold_partitions() {
        // 512 partitions but only ~300 queries/epoch: most partitions see
        // no traffic in any given epoch, and the random baseline carries
        // nothing beyond the availability floor.
        let mut p = quick_params(PolicyKind::Random);
        p.config.partitions = 512;
        let mut sim = Simulation::new(p).unwrap();
        for _ in 0..40 {
            sim.step().unwrap();
        }
        fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
            match reg.get(name) {
                Some(rfh_obs::Metric::Counter(v)) => *v,
                other => panic!("{name}: expected counter, got {other:?}"),
            }
        }
        let mut reg = MetricsRegistry::new();
        sim.collect_metrics(&mut reg);
        let dirty = counter(&reg, "sim.sparse.dirty_partitions");
        let skipped = counter(&reg, "sim.sparse.skipped_partitions");
        assert_eq!(dirty + skipped, 40 * 512, "every partition is dirty or skipped");
        assert!(skipped > 0, "a skewed workload must leave some partitions cold");
        // Collecting again must not double-count (set-style totals).
        sim.collect_metrics(&mut reg);
        assert_eq!(counter(&reg, "sim.sparse.dirty_partitions"), dirty);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Simulation::new(quick_params(PolicyKind::Rfh)).unwrap().run().unwrap();
        let b = Simulation::new(quick_params(PolicyKind::Rfh)).unwrap().run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut p = quick_params(PolicyKind::Rfh);
        let a = Simulation::new(p.clone()).unwrap().run().unwrap();
        p.seed = 8;
        let b = Simulation::new(p).unwrap().run().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn trace_replay_equals_generation() {
        let p = quick_params(PolicyKind::OwnerOriented);
        let generated = Simulation::new(p.clone()).unwrap().run().unwrap();
        // Record the same generator's stream and replay it.
        let mut g = p.workload_generator(10);
        let trace = Arc::new(Trace::record(&mut g, p.epochs));
        let replayed = Simulation::new(p).unwrap().with_shared_trace(trace).run().unwrap();
        assert_eq!(generated, replayed);
    }

    /// Time-to-repair harness behind
    /// [`mass_failure_drops_replicas_then_recovers`]: kill `burst`
    /// servers at `fail_epoch` and return how many epochs the replica
    /// count takes to climb back within `tolerance` of its pre-failure
    /// level, as measured by [`crate::recovery_epochs`].
    fn time_to_repair(fail_epoch: u64, burst: u32, tolerance: f64) -> Option<u64> {
        let mut p = quick_params(PolicyKind::Rfh);
        p.epochs = fail_epoch * 2;
        p.faults = sim_seeded_plan(p.seed).at(fail_epoch, FaultAction::FailRandom(burst));
        let result = Simulation::new(p).unwrap().run().unwrap();
        let replicas = result.metrics.series("replicas_total").unwrap();
        let alive = result.metrics.series("alive_servers").unwrap();
        let fe = fail_epoch as usize;
        assert_eq!(alive.values()[fe - 1], 100.0);
        assert_eq!(alive.values()[fe], (100 - burst) as f64, "{burst} servers die at {fail_epoch}");
        let before = replicas.values()[fe - 1];
        let at = replicas.values()[fe];
        assert!(at < before, "replica count must drop with the servers: {before} → {at}");
        crate::recovery_epochs(&result.metrics, fail_epoch, tolerance)
    }

    #[test]
    fn mass_failure_drops_replicas_then_recovers() {
        let ttr = time_to_repair(60, 30, 0.05)
            .expect("re-replication must return within 5% of the pre-failure fleet");
        assert!(ttr <= 40, "recovery must converge within bounded epochs, took {ttr}");
        // A smaller wave heals no slower than the big one measured with
        // the same tolerance.
        let small = time_to_repair(60, 10, 0.05).expect("small wave recovers too");
        assert!(small <= ttr.max(10), "10-server wave took {small}, 30-server took {ttr}");
    }

    #[test]
    fn data_loss_only_under_catastrophic_failure() {
        // No faults: the data-loss series stays flat zero.
        let clean = Simulation::new(quick_params(PolicyKind::Rfh)).unwrap().run().unwrap();
        let series = clean.metrics.series("data_loss_total").unwrap();
        assert!(series.values().iter().all(|&v| v == 0.0));
        // Kill 95 of 100 servers at once: with replicas capped at r_min=2
        // early on, some partitions must lose every copy.
        let mut p = quick_params(PolicyKind::Rfh);
        p.epochs = 30;
        p.faults = sim_seeded_plan(p.seed).at(20, FaultAction::FailRandom(95));
        let hit = Simulation::new(p).unwrap().run().unwrap();
        let series = hit.metrics.series("data_loss_total").unwrap();
        assert!(series.last().unwrap() > 0.0, "a 95-server wipe must create restore events");
        assert_eq!(series.get(19), Some(0.0), "no loss before the event");
    }

    #[test]
    fn unserved_demand_shrinks_over_time() {
        let sim = Simulation::new(quick_params(PolicyKind::Rfh)).unwrap();
        let result = sim.run().unwrap();
        let unserved = result.metrics.series("unserved").unwrap();
        let early = unserved.mean_over(0, 5);
        let late = unserved.mean_over(35, 40);
        assert!(
            late < early * 0.5 || late < 1.0,
            "replication must absorb demand: early {early}, late {late}"
        );
    }
}
