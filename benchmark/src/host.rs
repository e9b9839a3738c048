//! What the host was doing during a run, read from `/proc`.

use std::path::Path;

/// CPU ticks of all kinds and the stolen share of them, from the
/// aggregate `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    pub fn read() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Stolen ticks since `earlier`, as a percentage of all ticks.
    pub fn steal_pct_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Bytes this process caused to be sent to the storage layer
/// (`write_bytes` of `/proc/self/io`).
pub fn write_bytes() -> u64 {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// TCP segments sent in this network namespace (`OutSegs` of
/// `/proc/net/snmp`), acknowledgements included. Socket `send` calls do
/// not show in `/proc/self/io`, so this is how the wire's write pattern
/// is counted.
pub fn tcp_out_segments() -> u64 {
    let snmp = std::fs::read_to_string("/proc/net/snmp").unwrap_or_default();
    let mut tcp = snmp.lines().filter(|l| l.starts_with("Tcp:"));
    let (Some(names), Some(values)) = (tcp.next(), tcp.next()) else {
        return 0;
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(n, _)| *n == "OutSegs")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// A memory figure of `/proc/self/status` (`VmHWM`, `VmRSS`), MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory since the last [`reset_peak_rss`] (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap to the kernel, then resets the peak to the
/// resident memory now; returns that resident memory, MiB.
pub fn reset_peak_rss() -> Result<f64, String> {
    // SAFETY: malloc_trim only releases free pages of glibc's heap.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident memory: {e}"))?;
    Ok(status_mb("VmRSS"))
}

/// The filesystem type of the mount holding `path`.
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split_whitespace().nth(4)?;
            let fs = right.split_whitespace().next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
