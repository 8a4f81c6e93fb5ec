//! Table IX reproduction: `Opt-SC` hit rate on size-constrained k-core
//! queries.
//!
//! On the DBLP stand-in, for each query-vertex coreness class `c(v)` and
//! each `k ∈ {10, 15, 20, 30, 40}`, the harness issues random queries with a
//! size target `h` and reports the fraction answered with ≤ 5% size
//! deviation — the paper's hit criterion.

use bestk_apps::opt_sc;
use bestk_bench::{spec_by_key, TableWriter};
use bestk_core::analyze_basic;
use bestk_graph::rng::Xoshiro256;

const KS: [u32; 5] = [10, 15, 20, 30, 40];
const QUERIES_PER_CELL: usize = 50;
const SIZE_TARGET: usize = 64;
const TOLERANCE: f64 = 0.05;

fn main() {
    let key = bestk_bench::dataset_filter_from_args()
        .and_then(|keys| keys.first().cloned())
        .unwrap_or_else(|| "d".to_string());
    let Some(spec) = spec_by_key(&key) else {
        eprintln!("unknown dataset key {key:?}");
        std::process::exit(2);
    };
    eprintln!("running Opt-SC queries on {} ...", spec.key);
    let g = bestk_bench::load_dataset(&spec);
    let analysis = analyze_basic(&g);
    let d = analysis.decomposition();

    // Coreness classes: five representative coreness values that actually
    // occur, spread over the k-range (like the paper's 30/43/51/64/113 rows).
    let kmax = d.kmax();
    let mut classes: Vec<u32> = [kmax / 4, kmax / 3, kmax / 2, (2 * kmax) / 3, kmax]
        .into_iter()
        .filter_map(|target| {
            // Snap to the nearest coreness with at least one vertex.
            (0..=kmax)
                .filter(|&c| !d.shell(c).is_empty())
                .min_by_key(|&c| c.abs_diff(target))
        })
        .collect();
    classes.sort_unstable();
    classes.dedup();

    let mut header = vec!["c(v)".to_string()];
    header.extend(KS.iter().map(|k| format!("k = {k}")));
    let mut table = TableWriter::new(header);
    let mut rng = Xoshiro256::seed_from_u64(0x5C9);
    for &class in &classes {
        let shell = d.shell(class);
        let mut row = vec![class.to_string()];
        for &k in &KS {
            if class < k {
                row.push("/".to_string());
                continue;
            }
            let (mut hits, mut total) = (0usize, 0usize);
            for _ in 0..QUERIES_PER_CELL {
                let q = shell[rng.next_index(shell.len())];
                total += 1;
                if let Some(res) = opt_sc(&g, &analysis, k, SIZE_TARGET, q) {
                    if res.hits(SIZE_TARGET, TOLERANCE) {
                        hits += 1;
                    }
                }
            }
            row.push(format!("{:.1}%", 100.0 * hits as f64 / total as f64));
        }
        table.row(row);
    }
    println!(
        "Table IX (stand-in {}): Opt-SC hit rate (h = {SIZE_TARGET}, ±{:.0}%)\n",
        spec.key,
        TOLERANCE * 100.0
    );
    table.print();
    println!("\n'/' marks infeasible cells (query coreness below k), as in the paper.");
}
