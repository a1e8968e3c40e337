//! Sample statistics, the seeded input generator, and process memory.

/// One order statistic of a sample: which percentile, its value, the
/// sample count, and how many samples rank above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile reported (nearest rank), e.g. 99 or 80.
    pub pct: u32,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Samples that must rank above a tail percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `pct` of an ascending sample, with the count of
/// samples ranked above it. `None` for an empty sample.
pub fn percentile(sorted: &[f64], pct: u32) -> Option<Quantile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (pct as usize * n).div_ceil(100).clamp(1, n);
    Some(Quantile {
        pct,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The tail rule: the highest percentile, at most p99, that still has at
/// least [`TAIL_MIN_BEYOND`] samples ranked above it. Below p50 the median
/// itself is returned, so a short sample never reports a tail it cannot
/// support; `beyond` then says how thin it is.
pub fn tail(sorted: &[f64]) -> Option<Quantile> {
    (50..=99)
        .rev()
        .filter_map(|pct| percentile(sorted, pct))
        .find(|q| q.beyond >= TAIL_MIN_BEYOND)
        .or_else(|| percentile(sorted, 50))
}

/// The tail-rule value of an unsorted sample (0 when empty).
pub fn tail_value(values: &[f64]) -> f64 {
    tail(&sorted(values.to_vec())).map_or(0.0, |q| q.value)
}

/// Sorts a sample ascending (total order; the benchmark never records NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50).map_or(0.0, |q| q.value)
}

/// Mean of a sample (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Failed operations over attempted ones, always with its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailedRatio {
    pub failed: u64,
    pub attempted: u64,
}

impl FailedRatio {
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The ratio; 0 when nothing was attempted.
    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{:.6} ({} failed of {} attempted)",
            self.ratio(),
            self.failed,
            self.attempted
        )
    }
}

/// splitmix64: the benchmark's only source of input randomness, so every
/// input is a pure function of the `--seed` argument.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// The splitmix64 finalizer: derives independent sub-seeds.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Clock ticks per second of the times in `/proc/<pid>/stat` (`USER_HZ`,
/// 100 on Linux).
const USER_HZ: f64 = 100.0;

/// CPU time this process has used so far, in seconds: user plus system
/// time of every thread, exited ones included (`/proc/self/stat`), in
/// steps of a clock tick (10 ms). 0 where `/proc` is unavailable.
///
/// A difference of two readings is off by at most one tick either way,
/// and the error is as likely up as down, so a sum of many differences
/// is close to the CPU time they span.
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // The command name may hold spaces; the fields follow its ')'.
            let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
            let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
            // Fields 14 (utime) and 15 (stime); the state, field 3, is first.
            Some(ticks(11)? + ticks(12)?)
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_reports_p99_only_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, with exactly 10 above it.
        let q = tail(&ramp(1000)).unwrap();
        assert_eq!((q.pct, q.value, q.samples, q.beyond), (99, 990.0, 1000, 10));
        // 999 samples: p99 would leave 9 beyond, so p98 is the tail.
        let q = tail(&ramp(999)).unwrap();
        assert_eq!(q.pct, 98);
        assert!(q.beyond >= TAIL_MIN_BEYOND);
        assert_eq!(q.samples, 999);
    }

    #[test]
    fn tail_falls_back_to_a_lower_percentile_for_small_samples() {
        let q = tail(&ramp(50)).unwrap();
        assert_eq!((q.pct, q.beyond), (80, 10));
        assert_eq!(q.value, 40.0);
        // Too few for any tail: the median, flagged by its thin `beyond`.
        let q = tail(&ramp(8)).unwrap();
        assert_eq!((q.pct, q.value, q.beyond), (50, 4.0, 4));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50).unwrap().value, 5.0);
        assert_eq!(percentile(&s, 99).unwrap().value, 10.0);
        assert_eq!(percentile(&[7.0], 1).unwrap().value, 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn failed_ratio_states_its_base() {
        let mut r = FailedRatio::default();
        assert_eq!(r.ratio(), 0.0);
        for i in 0..8 {
            r.attempt(i % 4 != 0);
        }
        assert_eq!((r.failed, r.attempted), (2, 8));
        assert_eq!(r.ratio(), 0.25);
        assert_eq!(r.describe(), "0.250000 (2 failed of 8 attempted)");
    }

    #[test]
    fn cpu_time_counts_this_process() {
        let before = cpu_s();
        let mut x = 0u64;
        while cpu_s() - before < 0.05 {
            for i in 0..10_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
        }
        std::hint::black_box(x);
        assert!(before >= 0.0 && cpu_s() >= before + 0.05);
    }

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(9);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(9);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(mix(1), mix(2));
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!((16..=64).contains(&r.range(16, 64)));
        }
    }
}
