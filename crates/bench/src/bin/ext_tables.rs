//! Beyond-paper extension tables: best k-truss set (§VI-B) and weighted
//! best-s (§VII) on the dataset stand-ins.
//!
//! Defaults to the four smaller datasets (truss decomposition is
//! `O(m^1.5)` and the dense stand-ins are deliberately hard); pass
//! `--datasets=...` to override.

use bestk_bench::{dataset_filter_from_args, spec_by_key, time, TableWriter};
use bestk_core::weighted::{weighted_core_decomposition, weighted_core_set_profile};
use bestk_core::Metric;
use bestk_graph::cast;
use bestk_graph::rng::Xoshiro256;
use bestk_graph::weighted::WeightedGraphBuilder;
use bestk_truss::{truss_set_profile, EdgeIndex};

fn main() {
    let specs = dataset_filter_from_args()
        .map(|keys| {
            keys.iter()
                .map(|k| {
                    spec_by_key(k).unwrap_or_else(|| {
                        eprintln!("unknown dataset key {k:?}");
                        std::process::exit(2)
                    })
                })
                .collect::<Vec<_>>()
        })
        .unwrap_or_else(|| {
            ["ap", "g", "d", "y"]
                .iter()
                .filter_map(|k| spec_by_key(k))
                .collect()
        });

    // --- Best k-truss set per metric.
    let mut header: Vec<String> = vec!["Algo".into()];
    header.extend(specs.iter().map(|s| s.key.to_uppercase()));
    let mut truss_rows: Vec<Vec<String>> = Metric::ALL
        .iter()
        .map(|m| vec![format!("TS-{}", m.abbrev())])
        .collect();
    let mut tmax_row: Vec<String> = vec!["tmax".into()];
    let mut time_row: Vec<String> = vec!["decomp (s)".into()];
    for spec in &specs {
        eprintln!("truss-decomposing {} ...", spec.key);
        let g = bestk_bench::load_dataset(spec);
        let idx = EdgeIndex::build(&g);
        let (t, took) =
            time(|| bestk_truss::decomposition::truss_decomposition_with_index(&g, &idx));
        let profile = truss_set_profile(&g, &idx, &t);
        tmax_row.push(t.tmax().to_string());
        time_row.push(format!("{:.2}", took.as_secs_f64()));
        for (i, m) in Metric::ALL.iter().enumerate() {
            truss_rows[i].push(
                profile
                    .best(m)
                    .map(|b| b.k.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
    }
    println!("Extension table (§VI-B): best k for the k-truss set\n");
    let mut table = TableWriter::new(header.clone());
    for row in truss_rows {
        table.row(row);
    }
    table.row(tmax_row);
    table.row(time_row);
    table.print();

    // --- Weighted best-s: random integer weights over the same topology.
    println!("\nExtension table (§VII): best s for the weighted s-core set (weights 1..9)\n");
    let weighted_metrics = [
        Metric::AverageDegree,
        Metric::Conductance,
        Metric::Modularity,
    ];
    let mut wrows: Vec<Vec<String>> = weighted_metrics
        .iter()
        .map(|m| vec![format!("WS-{}", m.abbrev())])
        .collect();
    let mut smax_row: Vec<String> = vec!["smax".into()];
    for spec in &specs {
        eprintln!("weighted-decomposing {} ...", spec.key);
        let g = bestk_bench::load_dataset(spec);
        let mut rng = Xoshiro256::seed_from_u64(spec.seed ^ 0x77);
        let mut b = WeightedGraphBuilder::new();
        b.reserve_vertices(g.num_vertices());
        for (u, v) in g.edges() {
            b.add_edge(u, v, 1 + cast::u32_from_u64(rng.next_below(9)));
        }
        let wg = b.build();
        let wd = weighted_core_decomposition(&wg);
        let profile = weighted_core_set_profile(&wg, &wd);
        smax_row.push(wd.smax().to_string());
        for (i, m) in weighted_metrics.iter().enumerate() {
            wrows[i].push(
                profile
                    .best(m)
                    .map(|(s, _)| s.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
    }
    let mut wtable = TableWriter::new(header);
    for row in wrows {
        wtable.row(row);
    }
    wtable.row(smax_row);
    wtable.print();
}
