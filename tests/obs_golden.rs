//! Golden test for the observability layer: run a full best-k serving
//! session under the deterministic manual clock on a fresh metrics
//! registry, render the final snapshot, and compare it byte-for-byte
//! against `tests/golden/obs_metrics.golden`.
//!
//! Every metric in the exposition is deterministic under the manual clock
//! except the `exec.*` family, whose values depend on the execution policy
//! (the kernels dispatch through the runtime only when parallel), so those
//! lines are filtered out of the comparison and asserted separately. The
//! remaining lines must be **identical at every thread count** — counters
//! count events, not time, and span timings come from the injected clock
//! — which CI checks by running this test with `BESTK_GOLDEN_THREADS` set
//! to 1, 2, and 4.
//!
//! To regenerate the golden file after an intentional metrics change:
//!
//! ```text
//! BESTK_UPDATE_GOLDEN=1 cargo test --test obs_golden
//! ```
//!
//! then re-run without the variable (at more than one thread count) and
//! review the diff like any other code change.

use std::sync::Arc;

use bestk_engine::{serve_lines, ServeLimits, SharedEngine};
use bestk_exec::ExecPolicy;
use bestk_graph::generators;
use bestk_obs::ManualClock;

/// The scripted session: every query family (stats, best-k set, best
/// single core, coreness), then the metrics verb itself, then quit.
const SCRIPT: &[u8] = b"query g stats\n\
    query g bestkset ad\n\
    query g bestcore den\n\
    query g coreof 5\n\
    metrics\n\
    quit\n";

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs_metrics.golden")
}

/// Drops the mode-dependent `exec.*` lines from a rendered exposition;
/// everything else must be thread-count invariant.
fn mode_invariant(rendered: &str) -> String {
    rendered
        .lines()
        .filter(|l| !l.starts_with("exec."))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn metrics_exposition_matches_golden_at_every_thread_count() {
    let threads: usize = match std::env::var("BESTK_GOLDEN_THREADS") {
        Ok(raw) => raw.parse().expect("BESTK_GOLDEN_THREADS must be a number"),
        Err(_) => 2,
    };
    let policy = ExecPolicy::with_threads(threads).expect("valid thread count");

    // Fixed-step manual clock: every `now_nanos` reading advances time by
    // exactly 1µs, so span timings and the latency histogram are exact
    // functions of the code path, not the machine.
    let clock = Arc::new(ManualClock::with_step(1_000));
    let ((), snap) = bestk_obs::with_fresh(clock, || {
        let engine = SharedEngine::with_budget(None);
        engine.insert_graph("g", generators::paper_figure2());
        let mut out = Vec::new();
        serve_lines(
            &engine,
            &policy,
            SCRIPT,
            &mut out,
            &ServeLimits::default(),
            None,
        )
        .expect("serve");
        let text = String::from_utf8(out).expect("utf8 replies");

        // The inline `metrics` verb frames the same exposition over the
        // wire mid-session; spot-check the contract here while the full
        // snapshot is compared against the golden file below.
        assert!(text.contains("ok\tmetrics\t"), "{text}");
        assert!(text.contains("serve.requests"), "{text}");
        assert!(text.contains("serve.latency_nanos_bucket"), "{text}");
        assert!(text.contains("phase.peel.calls"), "{text}");
    });

    // The exec runtime was exercised (counted on the unfiltered snapshot:
    // at 1 thread the kernels run inline, but parallel-capable sections
    // still dispatch through the runtime at least once).
    assert!(
        snap.counter("exec.dispatches").unwrap_or(0) > 0,
        "expected at least one runtime dispatch"
    );

    let got = mode_invariant(&snap.render());
    let path = golden_path();
    if std::env::var("BESTK_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir golden");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             BESTK_UPDATE_GOLDEN=1 cargo test --test obs_golden",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "rendered metrics diverged from {} (threads={threads}); if the \
         change is intentional, regenerate with BESTK_UPDATE_GOLDEN=1",
        path.display()
    );
}
