//! What a result must record about the host: core count, peak resident
//! memory of a process, the temp dir's filesystem type, and an fsync
//! probe that tells a slower disk from a slower commit path, and the
//! share of CPU time the host took from this guest (steal) while a stage
//! ran.

use std::io::Write;
use std::path::Path;

/// Hardware threads the program may use (`ExecPolicy::auto()` uses all).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set (`VmHWM`) of process `pid` (this process when
/// `None`), in KiB.
pub fn peak_rss_kib(pid: Option<u32>) -> Result<u64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/mounts`), or `unknown`.
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// The guest's CPU time counters at one moment, from the first line of
/// `/proc/stat` (ticks summed over all CPUs).
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the counters now; zeros when `/proc/stat` cannot be read.
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user and nice).
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|t| t.parse().unwrap_or(0))
            .collect();
        CpuTicks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// Share of the CPU time since `self` that the host took from this
    /// guest (0 when no tick has passed).
    pub fn steal_share(&self) -> f64 {
        let now = CpuTicks::now();
        let total = now.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        now.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Median microseconds of `reps` 4 KiB write + `sync_all` rounds on a
/// file in `dir`.
pub fn fsync_probe_us(dir: &Path, reps: usize) -> Result<f64, String> {
    let path = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&path).map_err(|e| format!("fsync probe: {e}"))?;
    let block = [0x5Au8; 4096];
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = bestk_obs::now_nanos();
        file.write_all(&block)
            .and_then(|()| file.sync_all())
            .map_err(|e| format!("fsync probe: {e}"))?;
        samples.push(bestk_obs::now_nanos() - t0);
    }
    drop(file);
    std::fs::remove_file(&path).map_err(|e| format!("fsync probe: {e}"))?;
    let median = crate::stats::median(&samples).ok_or("fsync probe took no samples")?;
    Ok(median as f64 / 1e3)
}
