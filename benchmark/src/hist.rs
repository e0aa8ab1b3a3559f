//! Fixed-size latency recording (rule N5) and the aggregation of a sliced
//! run into its end-to-end timings (N3).
//!
//! [`LogHist`] is a log-bucket histogram over nanoseconds: 64 buckets
//! per power of two, so a reported quantile is within 1/64 of the exact
//! one at worst and, interpolated by rank within its bucket, well under
//! 1 % on any populated bucket. `rfh_stats::Histogram::latency()` has
//! 50 µs linear buckets, which flips a 500 µs median by 10 % — too
//! coarse to hold a metric to a tenth. Memory is constant: nothing here
//! grows with the number of operations a run happens to complete.

/// Sub-buckets per power of two (as a shift).
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values below `2 * SUB` ns get one bucket each; above, 64 per octave
/// up to 2^40 ns (~18 min), which no single operation here reaches.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = 2 * SUB + (MAX_EXP - SUB_BITS - 1) as usize * SUB;

/// Log-bucket histogram of nanosecond durations.
#[derive(Clone)]
pub struct LogHist {
    counts: Box<[u32; BUCKETS]>,
    total: u64,
    max_ns: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist { counts: Box::new([0; BUCKETS]), total: 0, max_ns: 0 }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < (2 * SUB) as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    // The top SUB_BITS+1 bits of `ns`, in SUB..2*SUB.
    let top = (ns >> shift) as usize;
    (shift as usize) * SUB + top
}

/// `(low edge, width)` of bucket `b` in ns.
fn bucket_span(b: usize) -> (f64, f64) {
    if b < 2 * SUB {
        return (b as f64, 1.0);
    }
    let shift = (b / SUB - 1) as u32;
    let top = (b % SUB + SUB) as u64;
    ((top << shift) as f64, (1u64 << shift) as f64)
}

impl LogHist {
    /// Record one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded, exact.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile in nanoseconds, `None` if empty: the bucket
    /// holding the nearest-rank sample, interpolated by rank within it
    /// (samples taken as evenly spread over a bucket).
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if seen + c >= rank {
                let (lo, width) = bucket_span(b);
                let within = ((rank - seen) as f64 - 0.5) / c as f64;
                return Some((lo + width * within).min(self.max_ns as f64));
            }
            seen += c;
        }
        Some(self.max_ns as f64)
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice: every caller has at least one slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` by the method of Python's `statistics.quantiles(v, n=4)`
/// (exclusive), so `compare` prints what the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// One slice of the timed phase: what completed in it, how long it
/// lasted, and every latency recorded in it.
#[derive(Clone, Default)]
pub struct Slice {
    /// Operations completed inside the slice.
    pub ops: u64,
    /// Wall seconds the slice lasted.
    pub secs: f64,
    /// Latencies of those operations.
    pub hist: LogHist,
}

impl Slice {
    fn rate(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// One slice in this many belongs to the quiet set. An eighth follows
/// the floor more closely but leaves the tail percentile to too few
/// stalls: at depth 64 one stall puts 64 operations in the tail at once,
/// and over six seeds of `kv_mem` the pooled p99 of the top eighth
/// spread 12.6 % between quartiles, that of the top quarter 5.7 %.
const QUIET_ONE_IN: usize = 4;

/// The end-to-end timings of a sliced run, taken from its *quiet set*:
/// the quarter of the slices with the highest rate.
///
/// A shared host disturbs a run in bursts — seconds at a time during
/// which everything runs 20 to 40 % slower — over a floor that repeats
/// within a few percent. The share of a run the bursts cover swings from
/// a tenth to more than half, so a median over slices lands on the floor
/// in one run and inside a burst in the next (eight seeds of `kv_mem`,
/// 80 slices each: the median slice rate spread 13.9 % between quartiles,
/// the 90th-percentile slice rate 2.3 %). The quiet set reads the floor.
/// In a closed loop of fixed depth rate × mean latency is the depth, so
/// the slices with the highest rate are also those with the lowest
/// latency, and one selection serves all three timings.
#[derive(Clone, Copy, Debug)]
pub struct SliceSummary {
    /// Median rate of the quiet set.
    pub ops_per_s: f64,
    /// Median latency over the quiet set's operations, µs.
    pub p50_us: f64,
    /// Tail percentile over the quiet set's operations, µs.
    pub tail_us: f64,
    /// Whole-run mean rate, bursts included.
    pub ops_per_s_mean: f64,
    /// Interquartile distance of all per-slice rates over their median:
    /// how disturbed the run was.
    pub rate_iqr_share: f64,
    /// Slices aggregated.
    pub slices: usize,
}

/// Aggregate slices into the run's end-to-end timings; `tail_q` is the
/// workload's tail percentile.
pub fn summarize(slices: &[Slice], tail_q: f64) -> SliceSummary {
    let rates: Vec<f64> = slices.iter().map(Slice::rate).collect();
    let mut by_rate: Vec<&Slice> = slices.iter().collect();
    by_rate.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
    let quiet = &by_rate[..slices.len().div_ceil(QUIET_ONE_IN)];
    let quiet_rates: Vec<f64> = quiet.iter().map(|s| s.rate()).collect();
    let mut pooled = LogHist::default();
    for s in quiet {
        pooled.merge(&s.hist);
    }
    let total_ops: u64 = slices.iter().map(|s| s.ops).sum();
    let total_secs: f64 = slices.iter().map(|s| s.secs).sum();
    let rate_iqr_share = if rates.len() >= 2 {
        let (q1, q2, q3) = quartiles(&rates);
        (q3 - q1) / q2
    } else {
        0.0
    };
    SliceSummary {
        ops_per_s: median(&quiet_rates),
        p50_us: pooled.quantile_ns(0.5).unwrap_or(0.0) / 1e3,
        tail_us: pooled.quantile_ns(tail_q).unwrap_or(0.0) / 1e3,
        ops_per_s_mean: total_ops as f64 / total_secs,
        rate_iqr_share,
        slices: slices.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_within_one_percent_of_exact() {
        // Log-uniform over 1 µs .. 100 ms: every octave is populated.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut exact: Vec<u64> = (0..200_000)
            .map(|_| (1_000.0 * (100_000.0f64).powf(rng.gen::<f64>())) as u64)
            .collect();
        let mut h = LogHist::default();
        for &ns in &exact {
            h.record(ns);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let want = exact[rank - 1] as f64;
            let got = h.quantile_ns(q).expect("non-empty");
            assert!(
                (got - want).abs() / want <= 0.01,
                "q={q}: exact {want} ns, histogram {got} ns"
            );
        }
        assert_eq!(h.max_ns(), *exact.last().expect("non-empty"));
        assert_eq!(h.count(), exact.len() as u64);
    }

    #[test]
    fn small_and_huge_values_land_in_range() {
        let mut h = LogHist::default();
        for ns in [0, 1, 127, 128, 129, u64::MAX] {
            h.record(ns);
        }
        assert_eq!(h.count(), 6);
        assert!(h.quantile_ns(0.0).expect("non-empty") < 1.0);
        assert!(h.quantile_ns(1.0).expect("non-empty") >= (1u64 << (MAX_EXP - 1)) as f64);
        assert_eq!(bucket_of(127), 127);
        assert_eq!(bucket_of(128), 128);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn merge_adds_up() {
        let (mut a, mut b) = (LogHist::default(), LogHist::default());
        assert_eq!(a.quantile_ns(0.5), None);
        a.record(1_000);
        b.record(9_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_ns(), 9_000);
    }

    fn slice(ops: u64, latency_ns: u64) -> Slice {
        let mut hist = LogHist::default();
        for _ in 0..ops {
            hist.record(latency_ns);
        }
        Slice { ops, secs: 1.0, hist }
    }

    #[test]
    fn quiet_set_reads_the_floor_under_bursts() {
        // 16 slices, 10 of them inside a burst: a median over slices
        // would report the burst.
        let mut slices: Vec<Slice> = (0..6).map(|i| slice(1_000 + i, 100_000)).collect();
        slices.extend((0..10).map(|i| slice(600 + i, 170_000)));
        let s = summarize(&slices, 0.99);
        // Quiet set: the four fastest slices, 1005 down to 1002 ops.
        assert_eq!(s.ops_per_s, 1_003.5);
        assert!((s.p50_us - 100.0).abs() < 1.0, "p50 {}", s.p50_us);
        assert!((s.tail_us - 100.0).abs() < 1.0, "tail {}", s.tail_us);
        assert!(s.ops_per_s_mean < 800.0);
        assert!(s.rate_iqr_share > 0.3);
        assert_eq!(s.slices, 16);
    }

    #[test]
    fn quiet_set_pools_latencies_before_taking_the_tail() {
        // One quiet slice of four: its own distribution is reported whole.
        let mut fast = slice(990, 100_000);
        for _ in 0..10 {
            fast.hist.record(900_000);
        }
        fast.ops = 1_000;
        let mut slices = vec![fast];
        slices.extend((0..3).map(|_| slice(500, 200_000)));
        let s = summarize(&slices, 0.995);
        assert_eq!(s.ops_per_s, 1_000.0);
        assert!((s.p50_us - 100.0).abs() < 1.0);
        assert!((s.tail_us - 900.0).abs() < 9.0, "tail {}", s.tail_us);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&v), (1.5, 3.0, 4.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
