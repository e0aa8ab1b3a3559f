//! The serving path's cost ledger: heap allocations and bytes, value
//! bytes copied, and the reactor's `read`, `write` and `epoll_wait`
//! calls per get and per put, counted through a live loopback cluster
//! and checked against the committed bounds in `serve_ledger.txt`.
//!
//! The cluster is the 20-node shape of the serve smoke tests with its
//! route settled: the control loop ticks once at start-up and then not
//! again for an hour, so nothing moves a partition and nothing but the
//! requests allocates. A counting global allocator tallies every
//! allocation of the process and, separately, the test thread's, which
//! is the client's share; the serving path's count is the difference.
//! Value copies (`rfh_serve::wire::VALUE_BYTES_COPIED`, client encode
//! and decode included) and I/O calls (`rfh_reactor::IoCalls`, server
//! only: the client's blocking reads and writes are not counted) come
//! from the counters the code bumps where the work is done.
//!
//! Requests run at depth 1 (a blocking client, one op in flight) and
//! at depth [`DEPTH`] (a pipelined client). Allocation and copy counts
//! are the same on every run at either depth. The I/O calls depend on
//! how a turn's events fall — how many reactor threads serve the nodes,
//! which acks share a wakeup — so the test pins itself to one CPU, which
//! makes the cluster start one reactor thread on any host, and the
//! depth-[`DEPTH`] bounds carry a declared slack.

#![cfg(target_os = "linux")]

use rfh_faults::FaultPlan;
use rfh_reactor::IoCalls;
use rfh_serve::wire::{AckStatus, Frame, VALUE_BYTES_COPIED};
use rfh_serve::{Cluster, ClusterConfig, GetOutcome, PipelinedClient, ServeClient};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's (allocations, bytes).
    static MINE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Counts every allocation of the process, and each thread's own.
struct Counting;

fn note(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = MINE.try_with(|m| {
        let (n, b) = m.get();
        m.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// calls only updates atomics and a thread-local `Cell`, and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin this thread, and so every thread it starts, to the first CPU it
/// may run on: the cluster then sizes its reactor pool to one thread,
/// the configuration the ledger's entries were measured in.
fn pin_to_one_cpu() {
    // A 1024-CPU `cpu_set_t`, the C library's size.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is writable and exactly as long as the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity: {}", std::io::Error::last_os_error());
    let word = mask.iter().position(|&w| w != 0).expect("this thread may run somewhere");
    let mut one = [0u64; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: `one` is readable and exactly as long as the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity: {}", std::io::Error::last_os_error());
    assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
}

/// Requests in flight on the pipelined pass.
const DEPTH: usize = 16;
/// Keys the passes cycle over; each is written in warm-up, so every
/// measured put overwrites in place, as on the benchmark's `kv_mem`.
const KEYS: u64 = 64;
/// Passes over the keys per measured block.
const ROUNDS: u64 = 4;
/// Payload bytes per value (`kv_mem`'s size).
const VALUE: usize = 128;

/// Every counter at one instant.
#[derive(Clone, Copy)]
struct Counts {
    allocs: u64,
    bytes: u64,
    client: (u64, u64),
    copied: u64,
    io: IoCalls,
}

impl Counts {
    fn now() -> Counts {
        Counts {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
            client: MINE.with(Cell::get),
            copied: VALUE_BYTES_COPIED.load(Ordering::Relaxed),
            io: IoCalls::now(),
        }
    }
}

/// Per-op costs of one measured block.
struct PerOp {
    server_allocs: f64,
    server_bytes: f64,
    client_allocs: f64,
    value_copies: f64,
    reads: f64,
    writes: f64,
    waits: f64,
}

/// Run `ops` operations through `block` and divide what they cost.
fn measure(ops: u64, block: impl FnOnce()) -> PerOp {
    let a = Counts::now();
    block();
    let b = Counts::now();
    let client = (b.client.0 - a.client.0, b.client.1 - a.client.1);
    let io = b.io.since(a.io);
    let per = |n: u64| n as f64 / ops as f64;
    PerOp {
        server_allocs: per(b.allocs - a.allocs - client.0),
        server_bytes: per(b.bytes - a.bytes - client.1),
        client_allocs: per(client.0),
        value_copies: per(b.copied - a.copied) / VALUE as f64,
        reads: per(io.reads),
        writes: per(io.writes),
        waits: per(io.waits),
    }
}

/// The committed bound `name`, from `name value` lines (`#` comments).
fn ledger(name: &str) -> f64 {
    include_str!("serve_ledger.txt")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (key, value) = line.split_once(' ')?;
            (key == name).then(|| value.trim().parse().expect("ledger values are numbers"))
        })
        .unwrap_or_else(|| panic!("no ledger entry {name}"))
}

fn config() -> ClusterConfig {
    ClusterConfig {
        servers_per_rack: 1, // 10 DCs × 2 racks × 1 = 20 nodes
        partitions: 16,
        seed: 7,
        control_interval_ms: 3_600_000,
        capacity_spread: 0.25,
        telemetry: true,
        persistence: None,
        ..ClusterConfig::default()
    }
}

/// One block's ops: `(seq, key)` for every key, [`ROUNDS`] times. Block
/// `b`'s seqs are above every earlier block's, so each put is applied
/// (a put that loses last-writer-wins copies nothing).
fn ops(block: u64) -> impl Iterator<Item = (u64, u64)> {
    (0..ROUNDS).flat_map(move |round| (0..KEYS).map(move |key| (block * ROUNDS + round + 1, key)))
}

fn d1_gets(client: &mut ServeClient) {
    for (_, key) in ops(0) {
        let got = client.get(key).expect("a settled cluster answers");
        assert!(matches!(got, GetOutcome::Found { .. }), "key {key}: {got:?}");
    }
}

fn d1_puts(client: &mut ServeClient, block: u64) {
    let value = vec![block as u8; VALUE];
    for (seq, key) in ops(block) {
        client.put(key, seq, &value).expect("a settled cluster acks");
    }
}

fn dk_gets(client: &mut PipelinedClient) {
    dk_pass(client, ops(0).map(|(_, key)| Frame::Get { key }));
}

fn dk_puts(client: &mut PipelinedClient, block: u64) {
    let value = vec![block as u8; VALUE];
    dk_pass(client, ops(block).map(|(seq, key)| Frame::Put { key, seq, value: value.clone() }));
}

fn dk_pass(client: &mut PipelinedClient, frames: impl Iterator<Item = Frame>) {
    let mut done = Vec::new();
    for frame in frames {
        done.extend(client.submit(frame, None).unwrap());
    }
    done.extend(client.drain().unwrap());
    assert_eq!(done.len() as u64, KEYS * ROUNDS);
    for op in done {
        assert!(matches!(op.ack, Frame::Ack { status: AckStatus::Ok, .. }), "{:?}", op.ack);
    }
}

fn check(report: &mut Vec<String>, over: &mut Vec<String>, name: &str, measured: f64) {
    let bound = ledger(name);
    report.push(format!("{name} {measured:.2} (bound {bound})"));
    if measured > bound {
        over.push(format!("{name}: measured {measured:.2}, ledger {bound}"));
    }
}

#[test]
fn serving_costs_stay_within_the_ledger() {
    pin_to_one_cpu();
    let cluster = Cluster::start(&config(), FaultPlan::default()).unwrap();
    let nodes = cluster.node_infos().to_vec();
    let n = KEYS * ROUNDS;

    // Warm-up: every key written and read twice over each connection
    // the passes use, so buffers, peer channels and the stores' maps
    // are at their working size.
    let mut d1 = ServeClient::new(&nodes, 0, 0).unwrap();
    let mut dk = PipelinedClient::new(&nodes, 0, 0, DEPTH).unwrap();
    for block in 0..2 {
        d1_puts(&mut d1, 2 * block);
        d1_gets(&mut d1);
        dk_puts(&mut dk, 2 * block + 1);
        dk_gets(&mut dk);
    }

    let blocks = [
        ("d1_get", measure(n, || d1_gets(&mut d1))),
        ("d1_put", measure(n, || d1_puts(&mut d1, 4))),
        ("dk_get", measure(n, || dk_gets(&mut dk))),
        ("dk_put", measure(n, || dk_puts(&mut dk, 5))),
    ];
    cluster.shutdown().unwrap();

    let (mut report, mut over) = (Vec::new(), Vec::new());
    for (block, per) in &blocks {
        let mut check =
            |what: &str, v: f64| check(&mut report, &mut over, &format!("{block}_{what}"), v);
        check("server_allocs", per.server_allocs);
        check("server_bytes", per.server_bytes);
        check("client_allocs", per.client_allocs);
        check("value_copies", per.value_copies);
        check("reads", per.reads);
        check("writes", per.writes);
        check("waits", per.waits);
    }
    println!("{}", report.join("\n"));
    assert!(
        over.is_empty(),
        "over the ledger:\n{}\n\nall counts:\n{}",
        over.join("\n"),
        report.join("\n")
    );
}
