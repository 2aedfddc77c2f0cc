//! Exact order statistics and read-only host counters.

/// Nearest-rank percentile (`p` in 0..=100) of `samples`, sorting a copy:
/// the smallest sample with at least `p`% of all samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// CPU time of the whole process (user + system, all threads), in
/// microseconds, from `/proc/self/stat`.
pub fn process_cpu_us() -> u64 {
    stat_cpu_us("/proc/self/stat")
}

/// CPU time of the calling thread, in microseconds.
pub fn thread_cpu_us() -> u64 {
    stat_cpu_us("/proc/thread-self/stat")
}

fn stat_cpu_us(path: &str) -> u64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let after = text.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks: u64 = fields
        .get(11..13)
        .map(|f| f.iter().filter_map(|v| v.parse::<u64>().ok()).sum())
        .unwrap_or(0);
    ticks * 1_000_000 / USER_HZ
}

/// Clock ticks per second in `/proc` CPU times: 100 on every Linux the
/// benchmark targets.
const USER_HZ: u64 = 100;

/// Host-wide CPU accounting from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    pub total: u64,
    pub steal: u64,
}

impl HostCpu {
    pub fn read() -> HostCpu {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let line = text.lines().next().unwrap_or("");
        let vals: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user.
        HostCpu {
            total: vals.iter().take(8).sum(),
            steal: vals.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), in MiB.
pub fn status_mib(field: &str) -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force: the smallest sample x with count(<= x) >= p% of n.
    fn brute(samples: &[f64], p: f64) -> f64 {
        let n = samples.len() as f64;
        let mut candidates = samples.to_vec();
        candidates.sort_by(f64::total_cmp);
        *candidates
            .iter()
            .find(|&&x| samples.iter().filter(|&&s| s <= x).count() as f64 >= p / 100.0 * n)
            .expect("the maximum always qualifies")
    }

    #[test]
    fn percentile_matches_brute_force_nearest_rank() {
        let mut state = 0x5eed_u64;
        for n in 1..120usize {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    state = crate::workload::mix(state, 7);
                    // Few distinct values, so ties are common.
                    (state % 50) as f64
                })
                .collect();
            for p in [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                assert_eq!(percentile(&samples, p), brute(&samples, p), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn host_counters_read() {
        assert!(status_mib("VmHWM") > 0.0);
        let a = HostCpu::read();
        assert!(a.total > 0);
        let spin: u64 = (0..2_000_000u64).fold(0, |acc, x| acc.wrapping_add(x * x));
        std::hint::black_box(spin);
        assert!(process_cpu_us() >= thread_cpu_us());
    }
}
