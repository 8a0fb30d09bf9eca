//! Host fingerprint and per-run diagnostics read from the kernel: CPU time
//! accounting (for steal), resident-set high-water mark, CPU flags.

use std::fs;

/// Cumulative CPU time counters from the `cpu` line of `/proc/stat`
/// (user, nice, system, idle, iowait, irq, softirq, steal, …).
#[derive(Debug, Clone)]
pub struct CpuTimes(Vec<u64>);

impl CpuTimes {
    /// Reads the counters now; empty when `/proc/stat` is unavailable.
    pub fn now() -> Self {
        let fields = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                s.lines().next().map(|l| {
                    l.split_whitespace()
                        .skip(1)
                        .filter_map(|v| v.parse().ok())
                        .collect()
                })
            })
            .unwrap_or_default();
        CpuTimes(fields)
    }

    /// Share of all CPU time between `self` and `later` that the
    /// hypervisor stole; 0 when the counters are unavailable.
    pub fn steal_share_until(&self, later: &CpuTimes) -> f64 {
        let delta: Vec<u64> = self
            .0
            .iter()
            .zip(&later.0)
            .map(|(a, b)| b.saturating_sub(*a))
            .collect();
        let total: u64 = delta.iter().sum();
        match delta.get(7) {
            Some(&steal) if total > 0 => steal as f64 / total as f64,
            _ => 0.0,
        }
    }
}

/// Hands freed heap pages back to the kernel, so memory the allocator only
/// keeps cached does not count in the resident set.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and only returns
        // unused pages of the allocator's own arenas to the kernel; it is
        // safe to call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the process's resident-set high-water mark (`VmHWM`) to its
/// current resident set.
///
/// # Errors
///
/// Fails when the kernel does not offer the reset (no `/proc`).
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
///
/// # Errors
///
/// Fails when `/proc/self/status` has no readable `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "reading VmHWM from /proc/self/status".to_owned())
}

/// SIMD feature flags of the first CPU in `/proc/cpuinfo`.
fn simd_flags() -> Vec<String> {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = info
        .lines()
        .find(|l| l.starts_with("flags"))
        .and_then(|l| l.split(':').nth(1))
        .unwrap_or("");
    flags
        .split_whitespace()
        .filter(|f| f.starts_with("avx") || f.starts_with("sse4") || *f == "fma")
        .map(str::to_owned)
        .collect()
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_rev() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                fs::read_to_string(".git/packed-refs").ok().and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_owned)
                })
            })
            .map_or_else(|| "unknown".to_owned(), |r| r.trim().to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

/// The host fingerprint as a JSON object.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let flags: Vec<String> = simd_flags().iter().map(|f| format!("\"{f}\"")).collect();
    format!(
        "{{\"nproc\":{nproc},\"simd_flags\":[{}],\"pool_threads\":{},\"git_rev\":\"{}\"}}",
        flags.join(","),
        soteria_pool::effective_threads(),
        git_rev()
    )
}
