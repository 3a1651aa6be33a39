//! Small numeric and process-accounting helpers: order statistics,
//! per-thread and per-process CPU time from `/proc`, peak RSS.

use std::time::Instant;

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Indices of the quieter rounds of a run: every round whose
/// hypervisor steal (`steal[i]` belongs to round `i`) is at most that of
/// the `ceil(n/2)`-th quietest round, so at least half of them. Rounds
/// tied on steal (most often at 0) are all kept, not cut by position.
/// Interference from other guests on the host then moves which rounds
/// count, not the result.
pub fn quiet_rounds(steal: &[f64]) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(&limit) = sorted.get(steal.len().div_ceil(2).saturating_sub(1)) else {
        return Vec::new();
    };
    (0..steal.len()).filter(|&i| steal[i] <= limit).collect()
}

/// Median of `values` over the [`quiet_rounds`].
pub fn quiet_median(values: &[f64], steal: &[f64]) -> f64 {
    let keep: Vec<f64> = quiet_rounds(steal).iter().map(|&i| values[i]).collect();
    median(&keep)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

/// Nanoseconds from `base` to `t` (saturating at 0).
pub fn since(base: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(base).as_nanos() as u64
}

/// The throughput window of a multi-threaded phase: from the earliest
/// start any thread recorded to the latest end any thread recorded.
/// Timing from a single thread's view (for example taking the clock
/// after a barrier that the workers may already have passed) can make
/// the window arbitrarily short; this form cannot.
pub fn window_ns(starts: &[u64], ends: &[u64]) -> u64 {
    let start = starts.iter().copied().min().unwrap_or(0);
    let end = ends.iter().copied().max().unwrap_or(0);
    end.saturating_sub(start)
}

/// CPU time of the calling thread in nanoseconds, from
/// `/proc/thread-self/schedstat` (time spent on a CPU).
pub fn thread_cpu_ns() -> u64 {
    read_schedstat("/proc/thread-self/schedstat")
}

/// CPU time of every live thread of this process, summed, in
/// nanoseconds (`/proc/self/task/*/schedstat`).
pub fn process_cpu_ns() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .map(|entry| read_schedstat(entry.path().join("schedstat")))
        .sum()
}

fn read_schedstat(path: impl AsRef<std::path::Path>) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time the hypervisor ran other guests on this machine's CPUs
/// (`steal` in `/proc/stat`), in ms, summed over CPUs. Interference
/// from outside the process shows up here.
pub fn steal_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: u64 = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0);
    ticks * 10
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fast 64-bit content hash (word-at-a-time multiply–xor) used as
/// the delivery checksum.
pub fn hash_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(29);
    }
    h ^ bytes.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.95), 95);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }

    #[test]
    fn quiet_median_ignores_stolen_rounds() {
        // Rounds 1 and 3 ran while the host stole time; they are slow.
        let values = [100.0, 900.0, 110.0, 950.0, 105.0];
        let steal = [0.0, 80.0, 10.0, 90.0, 0.0];
        assert_eq!(quiet_median(&values, &steal), 105.0);
        assert_eq!(median(&values), 110.0);
    }

    #[test]
    fn quiet_rounds_keep_every_tie() {
        // Four of six rounds saw no steal: all four count, not the first three.
        let steal = [0.0, 30.0, 0.0, 0.0, 20.0, 0.0];
        assert_eq!(quiet_rounds(&steal), vec![0, 2, 3, 5]);
        assert_eq!(quiet_rounds(&[5.0, 1.0, 9.0]), vec![0, 1]);
        assert!(quiet_rounds(&[]).is_empty());
    }

    #[test]
    fn window_spans_all_threads() {
        // Thread A ran 10..50, thread B 30..90: the window is 10..90.
        assert_eq!(window_ns(&[10, 30], &[50, 90]), 80);
    }

    #[test]
    fn cpu_clocks_advance() {
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(x > 0);
        let t1 = thread_cpu_ns();
        assert!(t1 > t0);
        assert!(process_cpu_ns() >= t1);
    }
}
