//! # bestk-bench
//!
//! The evaluation harness: everything needed to regenerate the tables and
//! figures of the paper's §V on the synthetic dataset stand-ins described in
//! `DESIGN.md` §4.
//!
//! Each table/figure has a binary under `src/bin/`:
//!
//! | target | reproduces |
//! |--------|------------|
//! | `table3` | Table III — dataset statistics |
//! | `table4` | Table IV — best k per metric (set and single core) |
//! | `fig5` | Figure 5 — score of every k-core set |
//! | `fig6` | Figure 6 — score of every single k-core |
//! | `case_study` | Tables V–VII — communities found by different metrics |
//! | `fig7` | Figure 7 — runtime, best k-core set (baseline vs optimal) |
//! | `fig8` | Figure 8 — runtime, best single k-core |
//! | `table8` | Table VIII — densest subgraph & maximum clique |
//! | `table9` | Table IX — size-constrained k-core hit rates |
//! | `ext_tables` | beyond-paper: §VI-B best k-truss set + §VII weighted best-s |
//!
//! Run with `cargo run -p bestk-bench --release --bin <target>`. Every
//! binary accepts an optional comma-separated dataset filter, e.g.
//! `--datasets=ap,dblp`. Micro-benchmarks live in `benches/` on the
//! in-repo [`harness`] (`cargo bench -p bestk-bench`, filter with
//! `--filter=<substr>`, iteration count via `BESTK_BENCH_ITERS`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datasets;
pub mod harness;
pub mod table;
pub mod timer;

pub use datasets::{all_specs, load_dataset, spec_by_key, DatasetSpec};
pub use harness::Bench;
pub use table::TableWriter;
pub use timer::time;

/// Parses a `--datasets=a,b,c` argument (any position) into a key filter;
/// `None` means "all datasets".
pub fn dataset_filter_from_args() -> Option<Vec<String>> {
    for arg in std::env::args().skip(1) {
        if let Some(list) = arg.strip_prefix("--datasets=") {
            return Some(list.split(',').map(|s| s.trim().to_string()).collect());
        }
    }
    None
}

/// The dataset specs selected by the command-line filter (all by default).
///
/// Unknown keys abort with a clear message listing the valid keys.
pub fn selected_specs() -> Vec<DatasetSpec> {
    match dataset_filter_from_args() {
        None => all_specs(),
        Some(keys) => keys
            .iter()
            .map(|k| {
                spec_by_key(k).unwrap_or_else(|| {
                    let valid: Vec<&str> = all_specs().iter().map(|s| s.key).collect();
                    eprintln!("unknown dataset key {k:?}; valid keys: {valid:?}");
                    std::process::exit(2);
                })
            })
            .collect(),
    }
}
