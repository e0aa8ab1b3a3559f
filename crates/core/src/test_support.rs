//! Shared fixtures for the policy unit tests.

use crate::manager::ReplicaManager;
use crate::policy::EpochContext;
use rfh_ring::ConsistentHashRing;
use rfh_topology::{paper_topology, Topology};
use rfh_traffic::{PlacementView, TrafficAccounts, TrafficEngine, TrafficSmoother};
use rfh_types::{Epoch, PartitionId, SimConfig};
use rfh_workload::QueryLoad;
use std::cell::RefCell;

/// A small paper-shaped cluster: the 10-DC topology with 8 partitions.
pub(crate) struct Harness {
    pub cfg: SimConfig,
    pub topo: Topology,
    pub ring: ConsistentHashRing,
    pub manager: ReplicaManager,
    /// Reused traffic engine: its route table survives across the many
    /// epochs a single test assembles.
    engine: RefCell<TrafficEngine>,
}

/// The owned pieces an `EpochContext` borrows.
pub(crate) struct CtxParts {
    pub epoch: Epoch,
    pub load: QueryLoad,
    pub accounts: TrafficAccounts,
    pub smoother: TrafficSmoother,
    pub blocking: Vec<f64>,
    pub view: PlacementView,
}

impl CtxParts {
    /// The same pieces, stamped as epoch `e`.
    pub fn at(mut self, e: u64) -> Self {
        self.epoch = Epoch(e);
        self
    }

    /// Assemble the borrowed context.
    pub fn ctx<'a>(&'a self, h: &'a Harness) -> EpochContext<'a> {
        EpochContext {
            epoch: self.epoch,
            topo: &h.topo,
            load: &self.load,
            accounts: &self.accounts,
            smoother: &self.smoother,
            blocking: &self.blocking,
            view: &self.view,
            config: &h.cfg,
            recorder: &rfh_obs::NullRecorder,
            active: None,
        }
    }
}

impl Harness {
    /// Paper topology (100 servers), 8 partitions, capacity mean 5.
    pub fn paper_small() -> Self {
        let cfg = SimConfig { partitions: 8, replica_capacity_mean: 5.0, ..SimConfig::default() };
        let topo = paper_topology(0.0, 1).expect("preset builds");
        let mut ring = ConsistentHashRing::new(32);
        for s in topo.servers() {
            ring.join(s.id);
        }
        let holders = (0..cfg.partitions)
            .map(|p| ring.primary(PartitionId::new(p)).expect("non-empty ring"))
            .collect();
        let manager =
            ReplicaManager::new(&cfg, topo.server_count(), holders).expect("valid placement");
        Harness { cfg, topo, ring, manager, engine: RefCell::new(TrafficEngine::new()) }
    }

    fn parts_for(&self, manager: &ReplicaManager, load: QueryLoad) -> CtxParts {
        let view = manager.placement_view(&self.topo, self.cfg.replica_capacity_mean);
        let accounts = self.engine.borrow_mut().account(&self.topo, &load, &view).clone();
        let mut smoother = TrafficSmoother::new(
            self.cfg.partitions,
            self.topo.datacenters().len() as u32,
            self.cfg.thresholds.alpha,
        );
        smoother.update(&load, &accounts);
        let blocking = crate::blocking::server_blocking_probabilities(
            &self.topo,
            &accounts,
            self.cfg.replica_capacity_mean,
        );
        CtxParts { epoch: Epoch::ZERO, load, accounts, smoother, blocking, view }
    }

    /// An epoch with zero queries, manager at initial placement.
    pub fn quiet_epoch(&self) -> (CtxParts, ReplicaManager) {
        let manager = self.manager.clone();
        let load = QueryLoad::zeros(self.cfg.partitions, self.topo.datacenters().len() as u32);
        (self.parts_for(&manager, load), manager)
    }

    /// An epoch with zero queries, manager grown to the availability
    /// floor (2 replicas per partition).
    pub fn epoch_at_r_min(&self) -> (CtxParts, ReplicaManager) {
        let mut manager = self.manager.clone();
        for p_idx in 0..self.cfg.partitions {
            let p = PartitionId::new(p_idx);
            let pref = self.ring.successors(p, 4).expect("ring populated");
            let target =
                pref.into_iter().find(|&s| manager.can_accept(p, s)).expect("spare server exists");
            manager
                .apply(&self.topo, crate::policy::Action::Replicate { partition: p, target })
                .expect("placement fits");
        }
        let load = QueryLoad::zeros(self.cfg.partitions, self.topo.datacenters().len() as u32);
        (self.parts_for(&manager, load), manager)
    }

    /// An epoch whose query matrix the caller fills in; traffic and
    /// smoothing are computed against `manager`'s placement.
    pub fn epoch_with_load(
        &self,
        manager: &ReplicaManager,
        fill: impl FnOnce(&mut QueryLoad),
    ) -> CtxParts {
        let mut load = QueryLoad::zeros(self.cfg.partitions, self.topo.datacenters().len() as u32);
        fill(&mut load);
        self.parts_for(manager, load)
    }
}
