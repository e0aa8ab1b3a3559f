//! The simulator's cost ledger: heap bytes, allocation counts and
//! partitions evaluated of the `sim_scale_1m` epoch shape, counted
//! exactly and checked against the committed entries in
//! `alloc_ledger.txt`.
//!
//! A counting global allocator tallies every allocation the test thread
//! makes, and the sparse engine counts the partitions it evaluates, so
//! the counts are the same on any host and need no timing. A count
//! above its ledger entry fails the test. A change that lowers a count
//! lowers its entry too, so the diff states what moved.
//!
//! The shape is `sim_scale_1m` at 20 000 partitions: the scaled paper
//! topology with two servers per rack (40 servers), `RandomEven`
//! demand, RFH on the sparse engine, one thread, a fixed seed.

use rfh_core::PolicyKind;
use rfh_faults::FaultPlan;
use rfh_obs::{Metric, MetricsRegistry};
use rfh_sim::{SimParams, Simulation};
use rfh_topology::scaled_paper_topology;
use rfh_traffic::TrafficEngine;
use rfh_types::{Bandwidth, Bytes, SimConfig};
use rfh_workload::{EventSchedule, QueryLoad, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread has allocated: allocation calls, and live and peak
/// live bytes (as requested, not as the system allocator rounds them).
#[derive(Clone, Copy, Debug)]
struct Tally {
    allocs: u64,
    live: isize,
    peak: isize,
}

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(Tally { allocs: 0, live: 0, peak: 0 }) };
}

/// Counts on the allocating thread, so whatever the test harness does
/// on its own threads stays out of the ledger.
struct Counting;

fn note(bytes: isize, allocs: u64) {
    let _ = TALLY.try_with(|t| {
        let mut v = t.get();
        v.allocs += allocs;
        v.live += bytes;
        v.peak = v.peak.max(v.live);
        t.set(v);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// calls only updates a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize, 1);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), 0);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn tally() -> Tally {
    TALLY.with(Cell::get)
}

/// Restart the peak from the current live bytes.
fn reset_peak() {
    TALLY.with(|t| {
        let mut v = t.get();
        v.peak = v.live;
        t.set(v);
    });
}

const PARTITIONS: u32 = 20_000;
/// The benchmark's warm-up: the epochs `sim_scale_1m` charges to set-up.
const WARM: u64 = 6;
const STEADY: u64 = 8;

/// Epochs 0 and 1 evaluate every partition: the first renders every
/// placement, and the second decides the copies the first placed.
const SEEDED: u64 = 2;

/// The committed entries, `name value` per line, `#` comments.
fn ledger(name: &str) -> u64 {
    include_str!("alloc_ledger.txt")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (key, value) = line.split_once(' ')?;
            (key == name).then(|| value.trim().parse().expect("ledger values are integers"))
        })
        .unwrap_or_else(|| panic!("no ledger entry {name}"))
}

fn config() -> SimConfig {
    // Storage and bandwidth lifted so placement at this scale is
    // unconstrained, as on `sim_scale_1m`.
    SimConfig {
        partitions: PARTITIONS,
        partition_size: Bytes::kib(1),
        max_server_storage: Bytes::gib(1000),
        replication_bandwidth: Bandwidth::mib_per_epoch(10_000),
        migration_bandwidth: Bandwidth::mib_per_epoch(10_000),
        ..SimConfig::default()
    }
}

fn params() -> SimParams {
    SimParams {
        config: config(),
        scenario: Scenario::RandomEven,
        policy: PolicyKind::Rfh,
        epochs: WARM + STEADY,
        seed: 1,
        events: EventSchedule::new(),
        faults: FaultPlan::default(),
        threads: 1,
    }
}

#[test]
fn sim_costs_stay_within_the_ledger() {
    let cfg = config();
    let topo = scaled_paper_topology(2, cfg.capacity_spread, 42).unwrap();
    let dcs = topo.datacenters().len() as u32;

    // 1. Peak live heap per partition and allocations, from
    //    construction through the warm-up.
    let start = tally();
    reset_peak();
    let mut sim = Simulation::with_topology(params(), topo).unwrap();
    for _ in 0..WARM {
        sim.step().unwrap();
    }
    let warm = tally();
    let peak_per_partition = (warm.peak - start.live) as u64 / u64::from(PARTITIONS);
    let warm_up_allocs = warm.allocs - start.allocs;

    // 2. The by-owner byte gauges account for what is live.
    let live = (warm.live - start.live) as f64;
    let mut registry = MetricsRegistry::new();
    sim.collect_metrics(&mut registry);
    let owners = ["view", "accounts", "engine", "smoother", "manager", "load", "auditor", "policy"];
    let owned: f64 = owners
        .iter()
        .map(|owner| match registry.get(&format!("sim.bytes.{owner}")) {
            Some(Metric::Gauge(bytes)) => *bytes,
            other => panic!("sim.bytes.{owner}: {other:?}"),
        })
        .sum();
    drop(registry);

    // 3. Allocations per steady epoch.
    let before = tally().allocs;
    for _ in 0..STEADY {
        sim.step().unwrap();
    }
    let allocs_per_epoch = (tally().allocs - before) / STEADY;

    // 4. A steady sparse traffic pass allocates nothing: two loads over
    //    one placement, each pass after the first two only reuses.
    let view = sim.manager().placement_view(sim.topology(), cfg.replica_capacity_mean);
    let mut generator = params().workload_generator(dcs);
    let loads: Vec<(QueryLoad, Vec<u32>)> = (0..2)
        .map(|epoch| {
            let mut load = QueryLoad::zeros(PARTITIONS, dcs);
            generator.epoch_load_into(WARM + STEADY + epoch, &mut load);
            let mut active = load.touched().to_vec();
            active.sort_unstable();
            (load, active)
        })
        .collect();
    let mut engine = TrafficEngine::new();
    for (load, active) in &loads {
        engine.account_active(sim.topology(), load, &view, active);
    }
    let before = tally().allocs;
    for (load, active) in loads.iter().chain(&loads) {
        engine.account_active(sim.topology(), load, &view, active);
    }
    let pass_allocs = tally().allocs - before;

    println!("peak_bytes_per_partition {peak_per_partition}");
    println!("warm_up_allocs {warm_up_allocs}");
    println!("allocs_per_steady_epoch {allocs_per_epoch}");
    println!("account_active_allocs {pass_allocs}");
    println!("live {live} owned {owned} share {:.3}", owned / live);

    assert!(
        peak_per_partition <= ledger("peak_bytes_per_partition"),
        "peak live heap {peak_per_partition} B/partition is over the ledger"
    );
    assert!(
        warm_up_allocs <= ledger("warm_up_allocs"),
        "{warm_up_allocs} allocations from construction through warm-up is over the ledger"
    );
    assert!(
        allocs_per_epoch <= ledger("allocs_per_steady_epoch"),
        "{allocs_per_epoch} allocations per steady epoch is over the ledger"
    );
    assert_eq!(pass_allocs, ledger("account_active_allocs"), "a steady sparse pass allocated");
    assert!(
        (owned - live).abs() <= 0.1 * live,
        "sim.bytes.* sum to {owned} B against {live} B live: an owner is missing"
    );
}

/// Partitions the sparse engine has evaluated so far.
fn evaluated(sim: &Simulation) -> u64 {
    let mut registry = MetricsRegistry::new();
    sim.collect_metrics(&mut registry);
    match registry.get("sim.sparse.dirty_partitions") {
        Some(Metric::Counter(n)) => *n,
        other => panic!("sim.sparse.dirty_partitions: {other:?}"),
    }
}

#[test]
fn sim_work_stays_within_the_ledger() {
    let cfg = config();
    let topo = scaled_paper_topology(2, cfg.capacity_spread, 42).unwrap();
    let mut sim = Simulation::with_topology(params(), topo).unwrap();
    for _ in 0..SEEDED {
        sim.step().unwrap();
    }
    let seeded = evaluated(&sim);
    assert_eq!(seeded, SEEDED * u64::from(PARTITIONS), "the first epochs evaluate everything");
    for _ in SEEDED..WARM {
        sim.step().unwrap();
    }
    let warm = evaluated(&sim);
    for _ in 0..STEADY {
        sim.step().unwrap();
    }
    let warm_up_evaluated = warm - seeded;
    let evaluated_per_epoch = (evaluated(&sim) - warm) / STEADY;

    println!("warm_up_evaluated {warm_up_evaluated}");
    println!("evaluated_per_steady_epoch {evaluated_per_epoch}");

    assert!(
        warm_up_evaluated <= ledger("warm_up_evaluated"),
        "{warm_up_evaluated} partitions evaluated in warm-up epochs {SEEDED}-{} is over the ledger",
        WARM - 1
    );
    assert!(
        evaluated_per_epoch <= ledger("evaluated_per_steady_epoch"),
        "{evaluated_per_epoch} partitions evaluated per steady epoch is over the ledger"
    );
}
