//! Micro-bench: graph storage backends and the snapshot cold start.
//!
//! Measurements on an Erdős–Rényi stand-in (see DESIGN.md §14 "Storage
//! backends"):
//!
//! * `storage/cold_open_v2`   — mmap open of a `.bestk` snapshot (every
//!   checksum plus the full CSR check over the mapped graph section) plus
//!   one answer, the cold-start path;
//! * `storage/scan_<backend>` — full neighbor-scan throughput per backend
//!   (csr / mapped), the price of each representation's reads.
//!
//! With `BESTK_BENCH_JSON` set, all records land in the JSON report.

use bestk_bench::Bench;
use bestk_core::Metric;
use bestk_engine::{snapshot, snapv2, Dataset, GraphStore, Query};
use bestk_exec::ExecPolicy;
use bestk_graph::{generators, GraphView};

/// Sums every adjacency entry through the `GraphView` seam — the
/// representative read pattern (the peel and the metric sweeps are all
/// sequential neighbor scans).
fn scan<G: GraphView>(g: &G) -> u64 {
    let mut acc = 0u64;
    for v in g.vertices() {
        for u in g.neighbors(v) {
            acc = acc.wrapping_add(u64::from(u));
        }
    }
    acc
}

fn main() {
    let b = Bench::from_env_or_exit();
    assert!(
        !bestk_faults::is_enabled(),
        "fault injection must be disabled for benchmarks"
    );
    let policy = ExecPolicy::Sequential;
    let g = generators::erdos_renyi_gnm(20_000, 100_000, 11);
    let entries = 2 * g.num_edges() as u64;
    println!(
        "# graph: er_gnm_20k (n = {}, m = {})",
        g.num_vertices(),
        g.num_edges()
    );

    let dir = std::env::temp_dir().join(format!("bestk-bench-storage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench tmp dir");
    let path = dir.join("er.bestk");
    let mut built = Dataset::from_graph(g.clone());
    built.ensure_built(&policy);
    snapv2::save_path(&built, &path).expect("save snapshot");
    let query = Query::BestKSet {
        metric: Metric::AverageDegree,
    };

    b.run("storage/cold_open_v2", || {
        let ds = snapshot::load_path(&path).expect("open");
        ds.answer(&query).expect("answer")
    });

    // Neighbor-scan throughput per backend, all through GraphView.
    let csr = GraphStore::from(g.clone());
    let mapped_ds = snapshot::load_path(&path).expect("open");
    let mapped = mapped_ds.graph();
    assert_eq!(scan(mapped), scan(&csr), "mapped scan diverged");
    b.run_elements("storage/scan_csr", entries, || scan(&csr));
    b.run_elements("storage/scan_mapped", entries, || scan(mapped));
    println!(
        "# resident heap bytes: csr={} mapped={}",
        csr.resident_heap_bytes(),
        mapped.resident_heap_bytes()
    );
    drop(mapped_ds);

    let _ = std::fs::remove_dir_all(&dir);
    b.finish_or_exit();
}
