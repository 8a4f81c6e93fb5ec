//! `.bestk` snapshot files: bounded-retry I/O and the load ladder.
//!
//! A snapshot persists one dataset's graph plus its best-k index, so a
//! later process answers queries after an open instead of an `O(m^1.5)`
//! rebuild. The on-disk layout and its validation live in
//! [`snapv2`](crate::snapv2) (`BESTKSS2`, the one format this build reads
//! and writes); this module owns the file I/O around it:
//!
//! * [`RetryPolicy`] and the retry loop shared by reads and writes;
//! * the failpoint-instrumented single-attempt writer and reader
//!   (`snapshot.write`, `snapshot.read`);
//! * [`load_path`] / [`load_path_with_retry`], which map a file and open
//!   it through [`snapv2::open_mmap`](crate::snapv2::open_mmap);
//! * [`load_or_rebuild`], the quarantine-and-rebuild ladder.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use bestk_exec::ExecPolicy;
use bestk_faults::sites;

use crate::dataset::Dataset;
use crate::engine::LoadOutcome;
use crate::error::EngineError;
use crate::mmap::Mmap;

/// FNV-1a 64 over a byte slice (the workspace is dependency-free, so the
/// checksum is hand-rolled; FNV is fast and order-sensitive, which is all a
/// corruption check needs).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bounded retry policy for transient snapshot I/O (`Interrupted`,
/// `WouldBlock`, `TimedOut`, `WriteZero`). Corruption is *not* retried —
/// re-reading bad bytes cannot fix them; see
/// [`Engine::load_snapshot_with_fallback`](crate::Engine::load_snapshot_with_fallback)
/// for the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, first try included (`0` behaves as `1`).
    pub attempts: u32,
    /// Base backoff; attempt `i` sleeps `i × backoff` before retrying.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// A single attempt, no retries.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(1),
        }
    }
}

fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WriteZero
    )
}

pub(crate) fn with_retries<T>(
    policy: &RetryPolicy,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let attempts = policy.attempts.max(1);
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < attempts => {
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff * attempt);
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One write attempt, with the `snapshot.write` failpoint threaded in: an
/// injected truncation persists a *partial* file and then fails, exactly
/// like a mid-write crash, so retries must overwrite from scratch.
pub(crate) fn write_snapshot_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(e) = bestk_faults::io_error(sites::SNAPSHOT_WRITE) {
        return Err(e);
    }
    if let Some(keep) = bestk_faults::truncation(sites::SNAPSHOT_WRITE, bytes.len()) {
        std::fs::write(path, &bytes[..keep])?;
        return Err(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "injected mid-write crash",
        ));
    }
    std::fs::write(path, bytes)
}

/// One read attempt, with the `snapshot.read` failpoint threaded in:
/// injected I/O errors fire before the mapping; injected bit flips and
/// truncations damage an owned copy of the bytes, caught downstream by the
/// open's checks. The copy is made only while a fault plan is installed,
/// so the fault-free path stays zero-copy.
fn map_snapshot(path: &Path) -> std::io::Result<Mmap> {
    if let Some(e) = bestk_faults::io_error(sites::SNAPSHOT_READ) {
        return Err(e);
    }
    let map = Mmap::open(path)?;
    if !bestk_faults::is_enabled() {
        return Ok(map);
    }
    let mut bytes = map.as_slice().to_vec();
    bestk_faults::corrupt_buffer(sites::SNAPSHOT_READ, &mut bytes);
    Ok(Mmap::from_vec(bytes))
}

/// Opens a snapshot file (one attempt; see [`load_path_with_retry`]).
pub fn load_path<P: AsRef<Path>>(path: P) -> Result<Dataset, EngineError> {
    load_path_with_retry(path, &RetryPolicy::none())
}

/// Opens a snapshot file, retrying transient I/O failures under `policy`.
/// Corruption (bad magic, checksum mismatch, truncation, …) is returned
/// immediately — re-reading the same bad bytes cannot fix them.
pub fn load_path_with_retry<P: AsRef<Path>>(
    path: P,
    policy: &RetryPolicy,
) -> Result<Dataset, EngineError> {
    let map = with_retries(policy, || map_snapshot(path.as_ref()))?;
    crate::snapv2::open_mmap(Arc::new(map))
}

/// The resilient load ladder as a free function: read `path` (retrying
/// transient I/O under `retry`); on corruption, quarantine the bad file
/// and rebuild the full index from the `source` graph file if one is
/// given; otherwise surface the typed error.
///
/// This is deliberately registry-free — every byte of disk I/O and the
/// whole `O(m^1.5)` rebuild happen here, so callers holding a registry
/// lock can (and must) finish this *before* acquiring it. The returned
/// dataset is fully built on the [`Rebuilt`](LoadOutcome::Rebuilt) path
/// and arrives built from any valid snapshot.
pub fn load_or_rebuild(
    path: &str,
    source: Option<&str>,
    retry: &RetryPolicy,
    policy: &ExecPolicy,
) -> Result<(Dataset, LoadOutcome), EngineError> {
    match load_path_with_retry(path, retry) {
        Ok(dataset) => Ok((dataset, LoadOutcome::Loaded)),
        Err(e) if e.is_corruption() => {
            let source = match source {
                Some(s) => s,
                None => return Err(e),
            };
            // Quarantine is best-effort: the rebuild below is the part
            // that restores service.
            if std::fs::rename(path, format!("{path}.quarantine")).is_ok() {
                bestk_obs::counter("engine.quarantines").inc();
            }
            let graph = {
                let _span = bestk_obs::span!("phase.load");
                bestk_graph::io::read_auto_path(source)?
            };
            let mut dataset = Dataset::from_graph(graph);
            dataset.ensure_built(policy);
            Ok((dataset, LoadOutcome::Rebuilt))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_core::Metric;
    use bestk_graph::{generators, CsrGraph};

    use crate::query::Query;
    use crate::snapv2::{save_path, save_path_with_retry};

    fn built(g: CsrGraph) -> Dataset {
        let mut ds = Dataset::from_graph(g);
        ds.ensure_built(&ExecPolicy::Sequential);
        ds
    }

    fn answers(ds: &Dataset) -> Vec<String> {
        let mut qs = vec![Query::Stats];
        for m in Metric::ALL {
            qs.push(Query::BestKSet { metric: m });
            qs.push(Query::BestCore { metric: m });
            qs.push(Query::ScoreProfile { metric: m });
        }
        ds.answer_batch(&qs, &ExecPolicy::Sequential)
            .into_iter()
            .map(|r| r.unwrap().to_line())
            .collect()
    }

    /// A fresh scratch file holding a built snapshot of `g`, written
    /// around the `snapshot.write` failpoint so a sibling test's live
    /// fault plan cannot tear this fixture.
    fn saved(tag: &str, g: CsrGraph) -> (std::path::PathBuf, Dataset) {
        let dir = std::env::temp_dir().join(format!("bestk-engine-snap-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bestk");
        let original = built(g);
        std::fs::write(&path, crate::snapv2::to_bytes(&original).unwrap()).unwrap();
        (path, original)
    }

    fn zero_backoff(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            backoff: Duration::ZERO,
        }
    }

    #[test]
    fn fnv1a_reference_values() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn file_round_trip() {
        let (path, original) = saved("rt", generators::erdos_renyi_gnm(80, 320, 5));
        // Retries outlast a sibling test's transient-read plan.
        let loaded = load_path_with_retry(&path, &zero_backoff(4)).unwrap();
        assert_eq!(loaded.graph(), original.graph());
        assert_eq!(answers(&loaded), answers(&original));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_write_crash_heals_on_retry() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        let (path, original) = saved("wfault", generators::paper_figure2());
        // One injected mid-write crash: the first attempt persists a partial
        // file and errors; the bounded retry overwrites it from scratch.
        let plan = FaultPlan::new(11).site(
            sites::SNAPSHOT_WRITE,
            SiteSpec::always(Fault::Truncate).with_budget(1),
        );
        bestk_faults::with_plan(&plan, || {
            save_path_with_retry(&original, &path, &zero_backoff(3)).unwrap();
        });
        let loaded = load_path(&path).unwrap();
        assert_eq!(answers(&loaded), answers(&original));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_write_crash_without_retry_is_a_typed_error() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        let (path, original) = saved("wfault2", generators::paper_figure2());
        let plan = FaultPlan::new(7).site(
            sites::SNAPSHOT_WRITE,
            SiteSpec::always(Fault::Truncate).with_budget(1),
        );
        bestk_faults::with_plan(&plan, || {
            let err = save_path(&original, &path).unwrap_err();
            assert!(matches!(err, EngineError::Io(_)), "{err}");
            // The partial file left behind is rejected as corrupt, never a
            // panic.
            let err = load_path(&path).unwrap_err();
            assert!(err.is_corruption(), "{err}");
        });
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn transient_read_errors_retry_to_success() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        let (path, original) = saved("rfault", generators::paper_figure2());
        let plan = FaultPlan::new(3).site(
            sites::SNAPSHOT_READ,
            SiteSpec::mixed(vec![Fault::Interrupted, Fault::WouldBlock], 1.0).with_budget(2),
        );
        bestk_faults::with_plan(&plan, || {
            // Not enough attempts: the transient error surfaces, typed.
            let err = load_path_with_retry(&path, &zero_backoff(1)).unwrap_err();
            assert!(matches!(err, EngineError::Io(_)), "{err}");
            // Enough attempts to outlast the budget: the load succeeds.
            let loaded = load_path_with_retry(&path, &zero_backoff(4)).unwrap();
            assert_eq!(answers(&loaded), answers(&original));
        });
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_read_corruption_is_rejected_not_retried() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        let (path, original) = saved("cfault", generators::paper_figure2());
        // Injected truncation of the read buffer: shorter snapshots are
        // always structurally invalid, so every seed must yield a typed
        // corruption error (retries don't help and must not loop).
        for seed in 0..8 {
            let plan =
                FaultPlan::new(seed).site(sites::SNAPSHOT_READ, SiteSpec::always(Fault::Truncate));
            bestk_faults::with_plan(&plan, || {
                let err = load_path_with_retry(&path, &zero_backoff(3)).unwrap_err();
                assert!(err.is_corruption(), "seed {seed}: {err}");
            });
        }
        // The open checks every byte, so every injected bit flip is a
        // typed corruption error too.
        for seed in 0..8 {
            let plan =
                FaultPlan::new(seed).site(sites::SNAPSHOT_READ, SiteSpec::always(Fault::BitFlip));
            bestk_faults::with_plan(&plan, || {
                let err = load_path(&path).unwrap_err();
                assert!(err.is_corruption(), "seed {seed}: {err}");
            });
        }
        // With the plan gone the same file opens clean again: the damage
        // was only ever applied to a copy. (Retries outlast a sibling
        // test's transient-read plan.)
        let clean = load_path_with_retry(&path, &zero_backoff(4)).unwrap();
        assert_eq!(answers(&clean), answers(&original));
        std::fs::remove_file(path).ok();
    }
}
