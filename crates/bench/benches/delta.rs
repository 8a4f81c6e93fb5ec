//! Micro-bench: incremental best-k maintenance vs full rebuild.
//!
//! Measurements on the workload the delta subsystem exists for — a large
//! graph absorbing single-edge commits (see DESIGN.md §15 "Edge streams"):
//!
//! * `delta/rebuild_and_select`        — `DeltaIndex::build` from scratch
//!   plus one best-k selection, the cost a non-incremental engine pays on
//!   every commit;
//! * `delta/stream_mixed_2k`           — a 1000-op mixed insert/delete
//!   stream applied forward and then undone in reverse (so every
//!   iteration starts from the same state), each op followed by one best-k
//!   selection and timed on its own;
//! * `delta/wal_append_commit_durable` — one write-ahead-logged op plus
//!   the commit marker and fsync, the durability floor of a commit.
//!
//! Gauges recorded into the JSON report alongside the timings:
//!
//! * `delta/stream_op_p50_ns`, `delta/stream_op_p99_ns` — per-op latency
//!   (apply + select) over every stream op of every iteration;
//! * `delta/commit_speedup_permille` — rebuild min time over the stream
//!   median, ×1000 (10000 = a typical single-edge commit is 10× cheaper
//!   than rebuilding);
//! * `delta/stream_p99_speedup_permille` — the same over the stream p99.
//!
//! With `BESTK_BENCH_JSON` set, all records land in the JSON report.

use bestk_bench::{time, Bench};
use bestk_core::Metric;
use bestk_delta::{DeltaIndex, DeltaLog};
use bestk_graph::generators::{self, EdgeOp};

fn main() {
    let b = Bench::from_env_or_exit();
    assert!(
        !bestk_faults::is_enabled(),
        "fault injection must be disabled for benchmarks"
    );
    let g = generators::erdos_renyi_gnm(20_000, 100_000, 11);
    println!(
        "# graph: er_gnm_20k (n = {}, m = {})",
        g.num_vertices(),
        g.num_edges()
    );

    // A non-edge touching vertex 0: the op the WAL bench logs.
    let nbrs = g.neighbors(0);
    let v = (1..bestk_graph::cast::u32_of(g.num_vertices()))
        .find(|v| !nbrs.contains(v))
        .expect("a non-edge from vertex 0");

    let rebuild = b.run("delta/rebuild_and_select", || {
        let index = DeltaIndex::build(&g);
        index.best(Metric::AverageDegree).expect("metric")
    });

    // Per-op latency over a mixed stream applied forward, then undone in
    // reverse order (the inverse of a valid sequence is valid), so the
    // index state round-trips every iteration.
    let mut index = DeltaIndex::build(&g);
    let ops = generators::edge_stream_mixed(&g, 1000, 7);
    let undo: Vec<EdgeOp> = ops
        .iter()
        .rev()
        .map(|op| {
            let (u, w) = op.endpoints();
            if op.is_insert() {
                EdgeOp::Delete(u, w)
            } else {
                EdgeOp::Insert(u, w)
            }
        })
        .collect();
    let elements = 2 * ops.len() as u64;
    let mut per_op: Vec<u128> = Vec::new();
    b.run_elements("delta/stream_mixed_2k", elements, || {
        for op in ops.iter().chain(&undo) {
            let (best, took) = time(|| {
                index.apply(op).expect("stream op");
                index.best(Metric::AverageDegree).expect("metric")
            });
            std::hint::black_box(best);
            per_op.push(took.as_nanos());
        }
    });
    per_op.sort_unstable();
    if let (Some(&p50), Some(&p99)) = (
        per_op.get(per_op.len() / 2),
        per_op.get(per_op.len() * 99 / 100),
    ) {
        b.gauge("delta/stream_op_p50_ns", p50);
        b.gauge("delta/stream_op_p99_ns", p99);
        if let Some(slow) = rebuild.iter().min() {
            let slow = slow.as_nanos().saturating_mul(1000);
            if let Some(permille) = slow.checked_div(p50) {
                b.gauge("delta/commit_speedup_permille", permille);
            }
            if let Some(permille) = slow.checked_div(p99) {
                b.gauge("delta/stream_p99_speedup_permille", permille);
            }
        }
    }

    // The durability floor: one logged op plus marker + fsync.
    let dir = std::env::temp_dir().join(format!("bestk-bench-delta-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench tmp dir");
    let (mut log, _) = DeltaLog::open(dir.join("bench.wal")).expect("open wal");
    b.run("delta/wal_append_commit_durable", || {
        log.append(&EdgeOp::Insert(0, v)).expect("append");
        log.commit().expect("commit");
    });
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
    b.finish_or_exit();
}
