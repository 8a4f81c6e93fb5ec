//! Table III reproduction: statistics of the (synthetic stand-in) datasets.
//!
//! Prints `n`, `m`, average degree, and `kmax` per dataset, mirroring the
//! columns of the paper's Table III.

use bestk_bench::{selected_specs, time, TableWriter};
use bestk_core::core_decomposition;
use bestk_graph::stats::graph_stats;

fn main() {
    let mut table = TableWriter::new([
        "Dataset",
        "stand-in key",
        "n",
        "m",
        "d_avg",
        "kmax",
        "load (s)",
    ]);
    for spec in selected_specs() {
        let (g, load_time) = time(|| bestk_bench::load_dataset(&spec));
        let s = graph_stats(&g);
        let d = core_decomposition(&g);
        table.row([
            spec.paper_name.to_string(),
            spec.key.to_string(),
            s.num_vertices.to_string(),
            s.num_edges.to_string(),
            format!("{:.1}", s.average_degree),
            d.kmax().to_string(),
            format!("{:.2}", load_time.as_secs_f64()),
        ]);
    }
    println!("Table III (stand-ins): dataset statistics\n");
    table.print();
}
