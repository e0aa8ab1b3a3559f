//! The live cluster: shared state, startup, and clean shutdown.
//!
//! [`Cluster::start`] builds the scaled paper topology, places
//! partitions on the consistent-hash ring, floor-replicates them to
//! `r_min` copies (so a single-server kill never strands a partition),
//! then binds one loopback TCP listener per topology server, hands them
//! all to the epoll reactor threads and starts the online control loop.
//!
//! ## Shared state
//!
//! The data plane (the reactor driving the coordinator) and the control
//! plane (the RFH loop) meet in [`Shared`]:
//!
//! * `alive[i]` — fail-stop flags; a killed node accepts connections
//!   and immediately drops them, and serves nothing.
//! * `routes` — the published replica map (partition → servers, holder
//!   first), read per request, rewritten by the control loop.
//! * `route_epochs[p]` — one atomic epoch per partition, even while
//!   the route is stable, odd while a transfer copies the partition.
//!   It is the whole write protocol between the two planes, and what
//!   makes "zero lost acknowledged writes" hold: the control loop flips
//!   the epoch odd before the copy (`begin_route_change`) and settles
//!   it at the next even value once the new route is published
//!   (`end_route_change`); a put defers while the epoch is odd,
//!   snapshots the even value, writes all live replicas, and acks only
//!   if the epoch is still the snapshot — otherwise a transfer raced it
//!   and the attempt restarts on the new route. So no acknowledged
//!   write can slip between a transfer's copy and its route flip, and
//!   no request ever waits on a lock held across a copy.
//! * `load` — the live `q_ijt` counters ([`rfh_workload::SharedLoad`])
//!   the control loop drains into the real `TrafficEngine`.

use crate::config::ClusterConfig;
use crate::control::{ControlStats, Controller};
use crate::http;
use crate::reactor::ReactorPlane;
use crate::store::{partition_of, NodeStore, Versioned};
use crate::telemetry::{ClusterTelemetry, TickSample};
use crate::wal::StorageSnapshot;
use rfh_core::{Action, ReplicaManager, RfhPolicy};
use rfh_faults::FaultPlan;
use rfh_obs::{MetricsRegistry, SpanLog};
use rfh_ring::ConsistentHashRing;
use rfh_sim::{initial_placement, EpochPipeline};
use rfh_stats::min_replica_count;
use rfh_topology::{scaled_paper_topology, Topology};
use rfh_types::{PartitionId, Result, RfhError, ServerId};
use rfh_workload::SharedLoad;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

/// Monotonic counters the data plane bumps per request.
#[derive(Debug, Default)]
pub struct Counters {
    /// Client get requests coordinated.
    pub gets: AtomicU64,
    /// Client put requests coordinated.
    pub puts: AtomicU64,
    /// Requests forwarded to a replica on another node.
    pub forwards: AtomicU64,
    /// Acks sent with status Ok.
    pub acks_ok: AtomicU64,
    /// Acks sent with status NotFound.
    pub acks_not_found: AtomicU64,
    /// Acks sent with status Unavailable.
    pub acks_unavailable: AtomicU64,
}

/// State shared between the reactor threads and the control loop.
pub(crate) struct Shared {
    /// Partition count (shape of `routes`, `route_epochs`, `load`).
    pub partitions: u32,
    /// Node index → datacenter id.
    pub dc_of: Vec<u32>,
    /// Fail-stop flags, one per node.
    pub alive: Vec<AtomicBool>,
    /// Published replica sets, holder first.
    pub routes: RwLock<Vec<Vec<ServerId>>>,
    /// Per-partition route epochs for optimistic writes. Even = route
    /// stable; odd = a transfer for the partition is in progress (the
    /// control loop stores odd before copying, bumps to the next even
    /// when it republishes). A coordinator snapshots an even epoch
    /// before writing and acks only if the epoch is unchanged once
    /// every replica landed — any route flip in between forces a
    /// (LWW-idempotent) restart.
    pub route_epochs: Vec<AtomicU64>,
    /// Live `q_ijt` counters.
    pub load: SharedLoad,
    /// Per-node shard maps.
    pub stores: Vec<NodeStore>,
    /// Listener address of each node.
    pub addrs: Vec<SocketAddr>,
    /// Request counters.
    pub counters: Counters,
    /// The telemetry plane (no per-node state when disabled).
    pub telemetry: ClusterTelemetry,
    /// Set once at shutdown; every thread polls it.
    pub shutdown: AtomicBool,
}

impl Shared {
    /// The data plane's state for a freshly built control plane: every
    /// node alive as the topology has it, routes as the replica manager
    /// placed them, counters at zero.
    pub fn new(
        telemetry: bool,
        pipeline: &EpochPipeline,
        stores: Vec<NodeStore>,
        addrs: Vec<SocketAddr>,
    ) -> Shared {
        let (topo, manager) = (pipeline.topology(), pipeline.manager());
        let (n, partitions) = (topo.server_count(), manager.partitions());
        Shared {
            partitions,
            dc_of: topo.servers().iter().map(|s| s.datacenter.0).collect(),
            alive: topo.servers().iter().map(|s| AtomicBool::new(s.alive)).collect(),
            routes: RwLock::new(
                (0..partitions).map(|p| manager.replicas(PartitionId::new(p)).to_vec()).collect(),
            ),
            route_epochs: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
            load: SharedLoad::zeros(partitions, topo.datacenters().len() as u32),
            stores,
            addrs,
            counters: Counters::default(),
            telemetry: if telemetry {
                ClusterTelemetry::on(n, partitions)
            } else {
                ClusterTelemetry::off()
            },
            shutdown: AtomicBool::new(false),
        }
    }

    /// Route row for one partition (cloned snapshot).
    pub fn route(&self, p: PartitionId) -> Vec<ServerId> {
        self.routes.read().expect("routes lock")[p.index()].clone()
    }

    /// Whether node `i` is currently alive.
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive[i].load(Ordering::Acquire)
    }

    /// Current route epoch of `p` (even = stable, odd = transferring).
    pub fn route_epoch(&self, p: PartitionId) -> u64 {
        self.route_epochs[p.index()].load(Ordering::SeqCst)
    }

    /// Mark a route change as in progress: flip the epoch odd. Called
    /// by the control loop before copying.
    pub fn begin_route_change(&self, p: PartitionId) {
        self.route_epochs[p.index()].fetch_or(1, Ordering::SeqCst);
    }

    /// Settle the epoch at the next even value — from either parity —
    /// invalidating every optimistic write that began before this
    /// moment. Called after each route publish (and after an aborted
    /// change, where the spurious invalidation is harmless).
    pub fn end_route_change(&self, p: PartitionId) {
        let e = &self.route_epochs[p.index()];
        e.store((e.load(Ordering::SeqCst) | 1) + 1, Ordering::SeqCst);
    }
}

/// What startup recovery did, when the cluster runs durable storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Nodes whose logs replayed at least one record.
    pub nodes_with_data: usize,
    /// WAL + checkpoint records replayed across all nodes.
    pub records_replayed: u64,
    /// Invalid log tails dropped (each kept exactly its durable prefix).
    pub torn_tails_truncated: u64,
    /// Entries the reconcile pass copied onto current route members
    /// (recovered data can live off-route when the fresh ring disagrees
    /// with kill-time placement).
    pub reconciled_entries: u64,
    /// Partitions that needed any reconciliation.
    pub reconciled_partitions: u64,
    /// Wall-clock for replay + reconcile, in milliseconds.
    pub duration_ms: u64,
}

impl RecoveryReport {
    /// One-line human summary (the `rfh serve` startup banner).
    pub fn render(&self) -> String {
        format!(
            "recovery: {} nodes with data, {} records replayed, {} torn tails truncated, \
             {} entries reconciled across {} partitions, {} ms",
            self.nodes_with_data,
            self.records_replayed,
            self.torn_tails_truncated,
            self.reconciled_entries,
            self.reconciled_partitions,
            self.duration_ms
        )
    }
}

/// One node's identity as seen by clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInfo {
    /// The topology server this node incarnates.
    pub server: ServerId,
    /// Its datacenter.
    pub dc: u32,
    /// Its loopback listener address.
    pub addr: SocketAddr,
}

/// Final accounting returned by [`Cluster::shutdown`].
#[derive(Debug)]
pub struct ServeSummary {
    /// Node count at startup.
    pub nodes: usize,
    /// Nodes alive at shutdown.
    pub alive_nodes: usize,
    /// Control ticks executed.
    pub ticks: u64,
    /// Client gets coordinated.
    pub gets: u64,
    /// Client puts coordinated.
    pub puts: u64,
    /// Peer forwards performed.
    pub forwards: u64,
    /// Ok acks sent.
    pub acks_ok: u64,
    /// NotFound acks sent.
    pub acks_not_found: u64,
    /// Unavailable acks sent.
    pub acks_unavailable: u64,
    /// Replicate actions executed online.
    pub replications: u64,
    /// Migrate actions executed online.
    pub migrations: u64,
    /// Suicide actions executed online.
    pub suicides: u64,
    /// Deferred transfers completed by the repair queue.
    pub repairs_completed: u64,
    /// Transfers dropped after exhausting retries.
    pub dead_letters: u64,
    /// Invariant-auditor findings.
    pub invariant_violations: u64,
    /// Partitions restored from the archive (all replicas lost).
    pub data_restores: u64,
    /// Kill-then-restart cycles completed by the fault plan's
    /// `restart_after` verb.
    pub restarts: u64,
    /// Total replicas placed at shutdown.
    pub replicas_total: usize,
    /// Aggregated `serve.storage.*` counters, `None` when persistence
    /// is off.
    pub storage: Option<StorageSnapshot>,
    /// The control loop's metrics registry (serve.* counters).
    pub registry: MetricsRegistry,
}

impl ServeSummary {
    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("nodes                 {}\n", self.nodes));
        out.push_str(&format!("alive_at_shutdown     {}\n", self.alive_nodes));
        out.push_str(&format!("control_ticks         {}\n", self.ticks));
        out.push_str(&format!("gets                  {}\n", self.gets));
        out.push_str(&format!("puts                  {}\n", self.puts));
        out.push_str(&format!("forwards              {}\n", self.forwards));
        out.push_str(&format!("acks_ok               {}\n", self.acks_ok));
        out.push_str(&format!("acks_not_found        {}\n", self.acks_not_found));
        out.push_str(&format!("acks_unavailable      {}\n", self.acks_unavailable));
        out.push_str(&format!("replications          {}\n", self.replications));
        out.push_str(&format!("migrations            {}\n", self.migrations));
        out.push_str(&format!("suicides              {}\n", self.suicides));
        out.push_str(&format!("repairs_completed     {}\n", self.repairs_completed));
        out.push_str(&format!("dead_letters          {}\n", self.dead_letters));
        out.push_str(&format!("invariant_violations  {}\n", self.invariant_violations));
        out.push_str(&format!("data_restores         {}\n", self.data_restores));
        out.push_str(&format!("replicas_total        {}\n", self.replicas_total));
        // Durability lines appear only when the feature is exercised,
        // keeping persistence-off output byte-identical to older builds.
        if self.restarts > 0 {
            out.push_str(&format!("restarts              {}\n", self.restarts));
        }
        if let Some(s) = &self.storage {
            out.push_str(&format!("segments_written      {}\n", s.segments_written));
            out.push_str(&format!("records_appended      {}\n", s.records_appended));
            out.push_str(&format!("fsyncs                {}\n", s.fsyncs));
            out.push_str(&format!("commits               {}\n", s.commits));
            out.push_str(&format!("commit_us             {}\n", s.commit_us));
            out.push_str(&format!("sync_us               {}\n", s.sync_us));
            out.push_str(&format!("commit_batches        {}\n", s.commit_batches));
            out.push_str(&format!("commit_batch_shards   {}\n", s.commit_batch_shards));
            out.push_str(&format!("commit_batch_us       {}\n", s.commit_batch_us));
            out.push_str(&format!("bytes_checkpointed    {}\n", s.bytes_checkpointed));
            out.push_str(&format!("bytes_zeroed          {}\n", s.bytes_zeroed));
            out.push_str(&format!("records_replayed      {}\n", s.records_replayed));
            out.push_str(&format!("torn_tails_truncated  {}\n", s.torn_tails_truncated));
        }
        out
    }
}

/// A running cluster. Dropping without [`shutdown`](Cluster::shutdown)
/// leaks threads; always shut down.
pub struct Cluster {
    shared: Arc<Shared>,
    infos: Vec<NodeInfo>,
    /// The epoll data plane serving every node's listener.
    reactor: ReactorPlane,
    control: JoinHandle<ControlStats>,
    /// Per-node `/metrics` endpoints (empty when telemetry is off).
    metrics_addrs: Vec<SocketAddr>,
    /// The controller's `/metrics` + `/timeline` + `/spans` endpoint.
    controller_metrics_addr: Option<SocketAddr>,
    /// Serves every telemetry endpoint (`None` when telemetry is off).
    http_thread: Option<JoinHandle<()>>,
    /// What startup replay + reconcile did (all zero with persistence
    /// off or a cold data directory).
    recovery: RecoveryReport,
}

impl Cluster {
    /// Build and start a cluster. Returns once every listener is bound
    /// and the control loop is running — the cluster is immediately
    /// serveable (partitions already at their replication floor).
    pub fn start(config: &ClusterConfig, faults: FaultPlan) -> Result<Cluster> {
        Cluster::start_bound(config, faults, None)
    }

    /// Like [`start`](Cluster::start), but pins each node's listener to
    /// a given address instead of an ephemeral port. This is the
    /// process-restart path: a relaunched `rfh serve` reads the address
    /// file its previous incarnation wrote and rebinds every node where
    /// clients already point, so the file never has to be regenerated.
    /// Every listener (pinned or ephemeral) binds with `SO_REUSEADDR`,
    /// and accepted sockets inherit the flag — that is what lets the
    /// rebind succeed while the killed process's connections still
    /// linger in `TIME-WAIT`.
    pub fn start_bound(
        config: &ClusterConfig,
        faults: FaultPlan,
        bind_addrs: Option<&[SocketAddr]>,
    ) -> Result<Cluster> {
        let pipeline = control_plane(config, &faults)?;
        let n = pipeline.topology().server_count();

        // Bind every node's listener before any thread starts, so the
        // address list is complete from the first request on.
        if let Some(want) = bind_addrs {
            if want.len() != n {
                return Err(RfhError::InvalidConfig {
                    parameter: "addr_file",
                    reason: format!("address file lists {} nodes, topology has {n}", want.len()),
                });
            }
        }
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for i in 0..n {
            let want = match bind_addrs {
                Some(want) => want[i],
                None => "127.0.0.1:0".parse().expect("loopback template addr"),
            };
            let l = bind_reuseaddr(want)
                .map_err(|e| RfhError::Io(format!("bind loopback listener {want}: {e}")))?;
            l.set_nonblocking(true).map_err(|e| RfhError::Io(e.to_string()))?;
            addrs.push(l.local_addr().map_err(|e| RfhError::Io(e.to_string()))?);
            listeners.push(l);
        }

        // Durable mode: open (and recover) every node's WAL before the
        // data plane exists, then reconcile what survived onto the
        // fresh placement — the new ring need not agree with where the
        // killed incarnation kept each partition.
        let recover_t0 = std::time::Instant::now();
        let stores: Vec<NodeStore> = match &config.persistence {
            None => (0..n).map(|_| NodeStore::new()).collect(),
            Some(p) => (0..n).map(|i| NodeStore::durable(p, i)).collect::<Result<_>>()?,
        };

        let shared = Arc::new(Shared::new(config.telemetry, &pipeline, stores, addrs));

        let mut recovery = RecoveryReport::default();
        if config.persistence.is_some() {
            for s in &shared.stores {
                if let Some(stats) = s.storage() {
                    let snap = stats.snapshot();
                    if snap.records_replayed > 0 {
                        recovery.nodes_with_data += 1;
                    }
                    recovery.records_replayed += snap.records_replayed;
                    recovery.torn_tails_truncated += snap.torn_tails_truncated;
                }
            }
            let routes = shared.routes.read().expect("routes lock");
            reconcile_recovered(&shared.stores, &routes, shared.partitions, &mut recovery);
            recovery.duration_ms = recover_t0.elapsed().as_millis() as u64;
        }

        let infos: Vec<NodeInfo> = pipeline
            .topology()
            .servers()
            .iter()
            .map(|s| NodeInfo {
                server: s.id,
                dc: s.datacenter.0,
                addr: shared.addrs[s.id.index()],
            })
            .collect();

        let reactor = ReactorPlane::start(Arc::clone(&shared), listeners)
            .map_err(|e| RfhError::Io(format!("start reactor plane: {e}")))?;

        // Telemetry exposition: one tiny HTTP/1.0 endpoint per node
        // plus one for the controller, all served by one thread.
        // Disabled ⇒ nothing binds and no extra thread exists.
        let mut metrics_addrs = Vec::new();
        let mut controller_metrics_addr = None;
        let mut http_thread = None;
        if shared.telemetry.enabled() {
            let bind = || http::bind().map_err(|e| RfhError::Io(format!("bind metrics: {e}")));
            let mut endpoints: Vec<(TcpListener, Route)> = Vec::with_capacity(n + 1);
            for i in 0..n {
                let (listener, addr) = bind()?;
                metrics_addrs.push(addr);
                let shared = Arc::clone(&shared);
                endpoints
                    .push((listener, Box::new(move |path| node_metrics_route(&shared, i, path))));
            }
            let (listener, addr) = bind()?;
            controller_metrics_addr = Some(addr);
            let ctl = Arc::clone(&shared);
            endpoints.push((listener, Box::new(move |path| controller_route(&ctl, path))));
            let stop = Arc::clone(&shared);
            http_thread = Some(
                std::thread::Builder::new()
                    .name("rfh-metrics".into())
                    .spawn(move || {
                        http::serve(&endpoints, || stop.shutdown.load(Ordering::Acquire))
                    })
                    .map_err(|e| RfhError::Io(format!("spawn metrics thread: {e}")))?,
            );
        }

        let controller = Controller::new(Arc::clone(&shared), pipeline);
        let interval = std::time::Duration::from_millis(config.control_interval_ms);
        let control = std::thread::Builder::new()
            .name("rfh-control".into())
            .spawn(move || controller.run(interval))
            .map_err(|e| RfhError::Io(format!("spawn control thread: {e}")))?;

        Ok(Cluster {
            shared,
            infos,
            reactor,
            control,
            metrics_addrs,
            controller_metrics_addr,
            http_thread,
            recovery,
        })
    }

    /// What startup recovery replayed and reconciled. All-zero when
    /// persistence is off or the data directory was empty.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Per-node identity and address, for clients and the address file.
    pub fn node_infos(&self) -> &[NodeInfo] {
        &self.infos
    }

    /// Render the address file consumed by `rfh loadgen --connect`:
    /// one `server dc addr` line per node.
    pub fn render_addr_file(&self) -> String {
        let mut out = String::new();
        for i in &self.infos {
            out.push_str(&format!("{} {} {}\n", i.server.0, i.dc, i.addr));
        }
        out
    }

    /// Per-node `/metrics` addresses, parallel to
    /// [`node_infos`](Cluster::node_infos). Empty when telemetry is
    /// off.
    pub fn metrics_addrs(&self) -> &[SocketAddr] {
        &self.metrics_addrs
    }

    /// The controller telemetry endpoint (`/metrics`, `/timeline`,
    /// `/spans`), `None` when telemetry is off.
    pub fn controller_metrics_addr(&self) -> Option<SocketAddr> {
        self.controller_metrics_addr
    }

    /// Render the telemetry address file written by
    /// `rfh serve --telemetry-addrs`: a `controller <addr>` line, then
    /// one `node <server> <addr>` line per node.
    pub fn render_telemetry_addr_file(&self) -> String {
        let mut out = String::new();
        if let Some(addr) = self.controller_metrics_addr {
            out.push_str(&format!("controller {addr}\n"));
        }
        for (info, addr) in self.infos.iter().zip(&self.metrics_addrs) {
            out.push_str(&format!("node {} {addr}\n", info.server.0));
        }
        out
    }

    /// The shared span log — complete chains in self-hosted runs,
    /// where client spans land in the same log as server spans.
    pub fn span_log(&self) -> Arc<SpanLog> {
        Arc::clone(self.shared.telemetry.spans())
    }

    /// The controller's timeline so far, oldest tick first.
    pub fn timeline(&self) -> Vec<TickSample> {
        self.shared.telemetry.timeline()
    }

    /// The controller's timeline as JSONL.
    pub fn timeline_jsonl(&self) -> String {
        self.shared.telemetry.timeline_jsonl()
    }

    /// Stop everything: control loop first (one final tick), then the
    /// reactors and the metrics endpoints. Returns the run's accounting.
    pub fn shutdown(self) -> Result<ServeSummary> {
        self.shared.shutdown.store(true, Ordering::Release);
        let stats = self
            .control
            .join()
            .map_err(|_| RfhError::Simulation("control loop panicked".into()))?;
        self.reactor.shutdown()?;
        if let Some(h) = self.http_thread {
            h.join().map_err(|_| RfhError::Simulation("metrics endpoint panicked".into()))?;
        }
        let c = &self.shared.counters;
        let alive_nodes = self.shared.alive.iter().filter(|a| a.load(Ordering::Acquire)).count();
        let storage = {
            let mut agg = StorageSnapshot::default();
            let mut durable = false;
            for s in &self.shared.stores {
                if let Some(stats) = s.storage() {
                    agg.add(stats.snapshot());
                    durable = true;
                }
            }
            durable.then_some(agg)
        };
        Ok(ServeSummary {
            nodes: self.shared.alive.len(),
            alive_nodes,
            ticks: stats.ticks,
            gets: c.gets.load(Ordering::Relaxed),
            puts: c.puts.load(Ordering::Relaxed),
            forwards: c.forwards.load(Ordering::Relaxed),
            acks_ok: c.acks_ok.load(Ordering::Relaxed),
            acks_not_found: c.acks_not_found.load(Ordering::Relaxed),
            acks_unavailable: c.acks_unavailable.load(Ordering::Relaxed),
            replications: stats.replications,
            migrations: stats.migrations,
            suicides: stats.suicides,
            repairs_completed: stats.repairs_completed,
            dead_letters: stats.dead_letters,
            invariant_violations: stats.invariant_violations,
            data_restores: stats.data_restores,
            restarts: stats.restarts,
            replicas_total: stats.replicas_total,
            storage,
            registry: stats.registry,
        })
    }
}

/// One telemetry endpoint's request handler: path in, body out.
type Route = Box<dyn Fn(&str) -> Option<String> + Send>;

/// `GET /metrics` on a node endpoint: the node's own series in
/// Prometheus text format. Rebuilt per scrape from lifetime totals, so
/// repeated scrapes are idempotent and monotone.
fn node_metrics_route(shared: &Shared, node: usize, path: &str) -> Option<String> {
    if path != "/metrics" {
        return None;
    }
    let tel = shared.telemetry.node(node)?;
    let mut registry = MetricsRegistry::new();
    tel.collect_metrics(&mut registry);
    if let Some(stats) = shared.stores[node].storage() {
        stats.snapshot().collect_metrics(&mut registry);
    }
    Some(registry.render_prometheus())
}

/// The controller endpoint: `/metrics` (the control loop's registry,
/// republished every tick), `/timeline` (the ring as JSONL) and
/// `/spans` (the span log as JSONL).
fn controller_route(shared: &Shared, path: &str) -> Option<String> {
    match path {
        "/metrics" => Some(shared.telemetry.registry().render_prometheus()),
        "/timeline" => Some(shared.telemetry.timeline_jsonl()),
        "/spans" => Some(shared.telemetry.spans().to_jsonl()),
        _ => None,
    }
}

/// Reconcile recovered data with the fresh placement: union every
/// surviving entry per partition (LWW across nodes), then merge each
/// partition's union into all of its current route members. Recovered
/// data can sit on a node the fresh ring no longer routes that
/// partition to, and a route member may have lost its copy to a torn
/// tail — the union heals both directions. Merged winners are logged by
/// the stores, so the reconciled state is itself durable. Off-route
/// leftovers are kept (they are correct data and cost nothing); the
/// control loop's usual suicide path never sees them because they were
/// never placed.
fn reconcile_recovered(
    stores: &[NodeStore],
    routes: &[Vec<ServerId>],
    partitions: u32,
    recovery: &mut RecoveryReport,
) {
    let mut union: HashMap<PartitionId, HashMap<u64, Versioned>> = HashMap::new();
    for store in stores {
        for (k, v) in store.snapshot_all() {
            let slot = union.entry(partition_of(k, partitions)).or_default();
            match slot.get(&k) {
                Some(cur) if cur.seq >= v.seq => {}
                _ => {
                    slot.insert(k, v);
                }
            }
        }
    }
    for (p, entries) in union {
        let entries: Vec<(u64, Versioned)> = entries.into_iter().collect();
        let mut healed = 0u64;
        for &s in &routes[p.index()] {
            healed += stores[s.index()].merge(&entries) as u64;
        }
        if healed > 0 {
            recovery.reconciled_entries += healed;
            recovery.reconciled_partitions += 1;
        }
    }
}

/// Bind a TCP listener with `SO_REUSEADDR` set *before* `bind` — std
/// offers no pre-bind socket options, so this goes through the raw
/// libc symbols std itself links. Accepted connections inherit the
/// flag; without it on *both* incarnations' sockets, a process
/// restarted after `SIGKILL` cannot rebind its old port until the
/// kernel retires the dead incarnation's `TIME-WAIT` entries. The
/// constants and the `sockaddr_in` layout are Linux's.
fn bind_reuseaddr(addr: SocketAddr) -> std::io::Result<TcpListener> {
    use std::os::fd::FromRawFd;

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    /// `struct sockaddr_in` (fields in network byte order).
    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    let SocketAddr::V4(v4) = addr else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "node listeners are IPv4 loopback only",
        ));
    };
    // SAFETY: the calls take plain integers and pointers to `one` and
    // `sa`, which outlive them, with their exact sizes. The fd is this
    // function's alone: closed on every error path, and on success
    // owned solely by the returned listener.
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM, 0);
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let one: i32 = 1;
        let sa = SockaddrIn {
            sin_family: AF_INET as u16,
            sin_port: v4.port().to_be(),
            // octets() is already big-endian byte order; keep it as-is.
            sin_addr: u32::from_ne_bytes(v4.ip().octets()),
            sin_zero: [0; 8],
        };
        if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) < 0
            || bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) < 0
            || listen(fd, 128) < 0
        {
            let err = std::io::Error::last_os_error();
            close(fd);
            return Err(err);
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

/// The control plane `config` describes, ready to tick: the scaled
/// paper topology, partitions on their ring primaries and
/// floor-replicated to `r_min` copies, the RFH policy, the fault plan.
pub(crate) fn control_plane(config: &ClusterConfig, faults: &FaultPlan) -> Result<EpochPipeline> {
    config.validate()?;
    let cfg = config.sim_config();
    let topo = scaled_paper_topology(config.servers_per_rack, config.capacity_spread, config.seed)?;
    let (ring, mut manager) = initial_placement(&cfg, &topo)?;
    let r_min = min_replica_count(cfg.failure_rate, cfg.min_availability) as usize;
    floor_replicate(&topo, &ring, &mut manager, cfg.partitions, r_min);
    let policy = RfhPolicy::new().with_placement(config.placement);
    Ok(EpochPipeline::new(cfg, topo, ring, manager, Box::new(policy), faults)
        .with_planner(config.planner()))
}

/// Grow every partition to `r_min` replicas before serving starts,
/// one ring successor at a time, cycling the manager's per-epoch
/// bandwidth budget as needed. Stores are empty at this point, so no
/// data moves — only the replica map.
fn floor_replicate(
    topo: &Topology,
    ring: &ConsistentHashRing,
    manager: &mut ReplicaManager,
    partitions: u32,
    r_min: usize,
) {
    for _round in 0..r_min.max(1) * 4 {
        manager.begin_epoch();
        let mut progressed = false;
        for p in (0..partitions).map(PartitionId::new) {
            if manager.replica_count(p) >= r_min {
                continue;
            }
            let target =
                ring.successors(p, topo.server_count()).ok().into_iter().flatten().find(|&s| {
                    topo.servers()[s.index()].alive
                        && !manager.hosts(p, s)
                        && manager.can_accept(p, s)
                });
            if let Some(target) = target {
                if manager.apply(topo, Action::Replicate { partition: p, target }).is_ok() {
                    progressed = true;
                }
            }
        }
        let done = (0..partitions).all(|p| manager.replica_count(PartitionId::new(p)) >= r_min);
        if done || !progressed {
            break;
        }
    }
    manager.begin_epoch();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{PipelinedClient, ServeClient};
    use crate::wal::{FsyncPolicy, PersistenceConfig};
    use crate::wire::{AckStatus, Frame};
    use crate::GetOutcome;

    /// Group commit end to end: a pipelined client at depth 32 against
    /// a durable reactor cluster with `fsync = always`. Batching must
    /// show (fewer syncs than records), nothing may be refused, and —
    /// the invariant — every write whose ack the client received is on
    /// disk: wiping every store's memory and replaying its log must
    /// bring each one back. (Debug builds also assert in the reactor
    /// that no client-side queue is flushed while a commit is owed.)
    #[test]
    fn pipelined_durable_puts_batch_their_syncs_and_survive_a_replay() {
        let dir = std::env::temp_dir().join(format!("rfh-groupcommit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ClusterConfig {
            servers_per_rack: 1,
            partitions: 16,
            // No tick during the test: restart_from_disk below wants
            // the stores quiescent, transfers included.
            control_interval_ms: 600_000,
            persistence: Some(PersistenceConfig {
                fsync: FsyncPolicy::Always,
                ..PersistenceConfig::with_dir(dir.to_string_lossy().into_owned())
            }),
            ..ClusterConfig::default()
        };
        let cluster = Cluster::start(&cfg, FaultPlan::default()).unwrap();
        let nodes = cluster.node_infos().to_vec();

        let mut client = PipelinedClient::new(&nodes, 0, 0, 32).unwrap();
        let mut done = Vec::new();
        for i in 0..2_000u64 {
            let (key, seq) = (i % 300, i + 1);
            let put = Frame::Put { key, seq, value: crate::loadgen::value_for(key, seq, 64) };
            done.extend(client.submit(put, None).unwrap());
        }
        done.extend(client.drain().unwrap());
        drop(client);
        assert_eq!(done.len(), 2_000);
        let mut acked: HashMap<u64, u64> = HashMap::new();
        for op in &done {
            let (Frame::Put { key, seq, .. }, Frame::Ack { status, .. }) = (&op.request, &op.ack)
            else {
                panic!("not a put/ack pair: {op:?}");
            };
            assert_eq!(*status, AckStatus::Ok, "put {key}@{seq} refused");
            let slot = acked.entry(*key).or_insert(0);
            *slot = (*slot).max(*seq);
        }

        let mut storage = StorageSnapshot::default();
        for s in &cluster.shared.stores {
            storage.add(s.storage().expect("durable").snapshot());
        }
        assert!(storage.records_appended >= 2_000, "every put logs on each replica: {storage:?}");
        assert!(storage.fsyncs < storage.records_appended, "no batching: {storage:?}");
        assert_eq!(storage.commits, storage.fsyncs, "always: one sync per commit: {storage:?}");

        for s in &cluster.shared.stores {
            s.restart_from_disk().unwrap();
        }
        let mut reader = ServeClient::new(&nodes, 5, 0).unwrap();
        for (&key, &seq) in &acked {
            match reader.get(key).unwrap() {
                GetOutcome::Found { seq: got, value } => {
                    assert_eq!(got, seq, "key {key} replayed stale");
                    assert_eq!(value, crate::loadgen::value_for(key, seq, 64));
                }
                GetOutcome::NotFound => panic!("acked key {key}@{seq} was not on disk"),
            }
        }
        drop(reader);
        let summary = cluster.shutdown().unwrap();
        assert_eq!(summary.acks_unavailable, 0, "{}", summary.render());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
