//! What the harness can see and control of the host (rules N1, N7):
//! the allowed CPU set and thread pinning, process CPU time and peak
//! memory, CPU steal, and two fixed calibration loops whose time tells
//! a slow run from a slow host.

use rfh_ring::splitmix64;
use std::time::Instant;

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// The CPUs this thread may run on, ascending. Empty if the call fails.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Restrict the calling thread (and every thread it later spawns) to
/// `cpus`. Returns whether the kernel accepted the mask.
pub fn pin_current(cpus: &[usize]) -> bool {
    let mut mask = [0u64; CPU_SET_WORDS];
    for &c in cpus.iter().filter(|&&c| c < CPU_SET_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// How a run's threads are laid over the allowed CPUs (rule N1).
#[derive(Clone, Debug)]
pub struct Pinning {
    /// Every CPU the process may use.
    pub allowed: Vec<usize>,
    /// Where the client (kv) or the driver (sim) runs.
    pub driver: Vec<usize>,
    /// Where the cluster's threads run: reactors, controller, metrics.
    pub server: Vec<usize>,
    /// Whether the split was applied; false on a 1-CPU host.
    pub pinned: bool,
}

impl Pinning {
    /// With two or more CPUs: the first for the driver, up to four of
    /// the rest for the server. With one: everything shares it.
    pub fn plan() -> Pinning {
        let allowed = allowed_cpus();
        if allowed.len() < 2 {
            return Pinning {
                driver: allowed.clone(),
                server: allowed.clone(),
                allowed,
                pinned: false,
            };
        }
        let driver = vec![allowed[0]];
        let server = allowed[1..allowed.len().min(5)].to_vec();
        Pinning { allowed, driver, server, pinned: true }
    }

    /// `driver=0 server=1-1` style, for the result's log lines.
    pub fn describe(&self) -> String {
        format!(
            "pinned={} allowed={:?} driver={:?} server={:?}",
            u8::from(self.pinned),
            self.allowed,
            self.driver,
            self.server
        )
    }

    /// Pin the calling thread to the driver CPUs.
    pub fn pin_driver(&self) {
        if self.pinned {
            pin_current(&self.driver);
        }
    }

    /// Run `f` on a helper thread pinned to the server CPUs, so every
    /// thread `f` spawns inherits that mask and
    /// `available_parallelism` inside it counts only those CPUs.
    pub fn on_server_cpus<T: Send>(&self, f: impl FnOnce() -> T + Send) -> T {
        self.on_cpus(&self.server, f)
    }

    /// Run `f` on a helper thread free to use every allowed CPU,
    /// whatever the calling thread is pinned to.
    pub fn on_all_cpus<T: Send>(&self, f: impl FnOnce() -> T + Send) -> T {
        self.on_cpus(&self.allowed, f)
    }

    fn on_cpus<T: Send>(&self, cpus: &[usize], f: impl FnOnce() -> T + Send) -> T {
        if !self.pinned {
            return f();
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                pin_current(cpus);
                f()
            })
            .join()
            .expect("pinned helper thread panicked")
        })
    }
}

fn cpu_clock_us(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    unsafe { clock_gettime(clock, &mut ts) };
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

/// CPU time this process has used so far, all threads, in µs.
pub fn process_cpu_us() -> f64 {
    cpu_clock_us(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far, in µs.
pub fn thread_cpu_us() -> f64 {
    cpu_clock_us(CLOCK_THREAD_CPUTIME_ID)
}

/// Hand the allocator's free memory back to the kernel. A set-up that
/// is torn down leaves its memory in the arenas of threads that no
/// longer exist; whether the next set-up's threads reuse those arenas is
/// a race, and when they do not, `peak_rss_mb` doubles (kv_mem: 250 MB
/// on most runs, 615 MB on one in six, eight full 64 MB arenas in
/// `smaps`). Called between set-up rounds, never inside a timed phase.
pub fn release_freed_memory() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time; it only returns free heap pages to the kernel.
    unsafe {
        malloc_trim(0);
    }
}

/// The `<field>: <n> kB` line of a `/proc` file, in MB.
pub fn proc_mb(path: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let rest = text.lines().find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok().map(|kb| kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    proc_mb("/proc/self/status", "VmHWM").unwrap_or(0.0)
}

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Milliseconds for a fixed dependent-hash loop: pure core speed.
pub fn cpu_calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 1u64;
    for _ in 0..40_000_000u32 {
        x = splitmix64(x);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// A 64 MB table walked at random: memory-latency speed of the host.
pub struct MemCalib {
    table: Vec<u64>,
}

impl MemCalib {
    /// Build the table (one random cycle over 8 Mi slots).
    pub fn new() -> MemCalib {
        let n = 8usize << 20;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state = 0x00C0_FFEE_u64;
        for i in (1..n).rev() {
            state = splitmix64(state);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut table = vec![0u64; n];
        for w in 0..n {
            table[order[w] as usize] = u64::from(order[(w + 1) % n]);
        }
        MemCalib { table }
    }

    /// Milliseconds for a fixed number of dependent loads.
    pub fn walk_ms(&self) -> f64 {
        let t0 = Instant::now();
        let mut at = 0usize;
        for _ in 0..2_000_000u32 {
            at = self.table[at] as usize;
        }
        std::hint::black_box(at);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for MemCalib {
    fn default() -> Self {
        MemCalib::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_round_trips() {
        let allowed = allowed_cpus();
        assert!(!allowed.is_empty(), "sched_getaffinity reported no CPUs");
        std::thread::spawn(move || {
            assert!(pin_current(&allowed[..1]));
            assert_eq!(allowed_cpus(), allowed[..1]);
        })
        .join()
        .expect("pin thread");
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(cpu_calib_ms() > 0.0);
        assert!(process_cpu_us() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        let (steal, total) = cpu_jiffies();
        assert!(total > 0 && steal <= total);
        assert_eq!(steal_share((0, 0), (0, 0)), 0.0);
    }
}
