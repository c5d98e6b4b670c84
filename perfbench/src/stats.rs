//! Small statistics helpers: percentiles, log2-histogram medians and the
//! process's peak resident set.

use goat::metrics::HistogramSnapshot;

/// The `q`-quantile (0..=1) of `samples`, interpolating linearly between
/// the two nearest ranks. 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of nanosecond samples, in microseconds.
pub fn p50_us(ns: &[f64]) -> f64 {
    quantile(ns, 0.5) / 1e3
}

/// Median of a log2-bucket histogram (bucket `i > 0` spans
/// `[2^(i-1), 2^i)`), interpolated linearly inside the median bucket.
pub fn histogram_median(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let half = h.count as f64 / 2.0;
    let mut seen = 0.0;
    for &(b, n) in &h.buckets {
        let n = n as f64;
        if seen + n >= half {
            let (lo, hi) =
                if b == 0 { (0.0, 1.0) } else { ((1u64 << (b - 1)) as f64, (1u64 << b) as f64) };
            return lo + (hi - lo) * ((half - seen) / n);
        }
        seen += n;
    }
    h.max as f64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_CHILDREN: i32 = -1;
const SC_CLK_TCK: i32 = 2;

/// CPU time, in nanoseconds, this process (all its threads) and its
/// child processes have used so far: reaped children from `getrusage`
/// and, with `live`, running ones from `/proc/<pid>/stat`.
///
/// Unlike wall time it leaves out time spent waiting and time the
/// hypervisor gave to other guests (steal), which on a shared host
/// moves wall-clock figures by a factor of two or three within minutes.
/// Steal still raises it, less: a goroutine thread spin-waiting for the
/// run token burns CPU while the thread that should grant it sits on a
/// vCPU the hypervisor took. [`Steal::cpu_scale`] corrects for that.
pub fn cpu_ns(live: bool) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    let mut ru = Rusage { utime: [0; 2], stime: [0; 2], rest: [0; 14] };
    // SAFETY: both calls only write the structs passed, which match the
    // x86_64/aarch64 Linux layouts of `timespec` and `rusage`.
    unsafe {
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts);
        getrusage(RUSAGE_CHILDREN, &mut ru);
    }
    let own = ts.sec as f64 * 1e9 + ts.nsec as f64;
    let reaped =
        (ru.utime[0] + ru.stime[0]) as f64 * 1e9 + (ru.utime[1] + ru.stime[1]) as f64 * 1e3;
    own + reaped + if live { live_children_ns() } else { 0.0 }
}

/// CPU time of this process's running (or not yet reaped) children, at
/// clock-tick resolution.
fn live_children_ns() -> f64 {
    let me = std::process::id().to_string();
    // SAFETY: sysconf reads a constant.
    let tick_ns = 1e9 / unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let Ok(dir) = std::fs::read_dir("/proc") else { return 0.0 };
    let mut ticks = 0u64;
    for entry in dir.flatten() {
        let name = entry.file_name();
        if !name.to_str().is_some_and(|n| n.bytes().all(|b| b.is_ascii_digit())) {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else { continue };
        // Fields after the `(comm)`: state, ppid, ..., utime (12th), stime.
        let Some((_, rest)) = stat.rsplit_once(')') else { continue };
        let f: Vec<&str> = rest.split_whitespace().collect();
        if f.get(1) == Some(&me.as_str()) {
            ticks += f.get(11).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0)
                + f.get(12).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        }
    }
    ticks as f64 * tick_ns
}

/// How strongly CPU time is corrected for steal, fitted on a 2-vCPU guest
/// by running the same workloads at under 1% and at 15-37% steal. Raw
/// CPU time per iteration grew like `(1 - share)^-k`, with `k` varying
/// from one steal episode to the next: 0.8-1.2 on `sweep`, 0.7-1.1 on
/// `detect`, 0.3-0.6 on `isolated`. 0.8 keeps every workload within
/// about 12% of its low-steal figure; `k = 1` read `isolated` up to 24%
/// low and no correction read `sweep` 45% high.
const STEAL_EXPONENT: f64 = 0.8;

/// CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`) since [`Steal::now`], as a share of all CPU time.
pub struct Steal([u64; 2]);

impl Steal {
    fn read() -> [u64; 2] {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let cpu: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        [cpu.get(7).copied().unwrap_or(0), cpu.iter().sum()]
    }

    pub fn now() -> Steal {
        Steal(Steal::read())
    }

    pub fn share(&self) -> f64 {
        let [steal, total] = Steal::read();
        (steal - self.0[0]) as f64 / (total - self.0[1]).max(1) as f64
    }

    /// The factor CPU times measured since [`Steal::now`] are scaled by:
    /// `(1 - share)` to the power [`STEAL_EXPONENT`].
    pub fn cpu_scale(&self) -> f64 {
        (1.0 - self.share()).powf(STEAL_EXPONENT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_median_lands_in_the_median_bucket() {
        // Values 5, 6 (bucket 3: [4, 8)) and 100 (bucket 7: [64, 128)).
        let h = HistogramSnapshot { count: 3, sum: 111, max: 100, buckets: vec![(3, 2), (7, 1)] };
        let m = histogram_median(&h);
        assert!((4.0..8.0).contains(&m), "{m}");
    }
}
