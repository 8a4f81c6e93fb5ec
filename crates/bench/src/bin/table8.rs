//! Table VIII reproduction: `Opt-D` on densest subgraph and maximum clique.
//!
//! Per dataset: the average degree and runtime of a `CoreApp`-style
//! approximation versus `Opt-D`, whether the maximum clique is contained in
//! `Opt-D`'s output `S*`, and `|S*| / n`.
//!
//! The maximum-clique check runs the exact branch-and-bound solver; on the
//! densest stand-ins this can take a while, so it is skipped when the
//! degeneracy exceeds a cap (pass `--mc-cap=<kmax>` to change it).

use bestk_apps::clique::maximum_clique_with_budget;
use bestk_apps::{contains_clique, core_app, opt_d};
use bestk_bench::{selected_specs, time, TableWriter};
use bestk_core::analyze_basic;

fn mc_cap() -> u32 {
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--mc-cap=") {
            return v.parse().unwrap_or_else(|e| {
                eprintln!("bad --mc-cap value {v:?}: {e}");
                std::process::exit(2)
            });
        }
    }
    600
}

fn main() {
    let cap = mc_cap();
    let mut table = TableWriter::new([
        "dataset",
        "CoreApp d_avg",
        "CoreApp time (s)",
        "Opt-D d_avg",
        "Opt-D time (s)",
        "MC ⊆ S*",
        "|S*|/n",
    ]);
    for spec in selected_specs() {
        eprintln!("running {} ...", spec.key);
        let g = bestk_bench::load_dataset(&spec);
        // Both methods share the analysis; time it into both columns the way
        // the paper's end-to-end numbers do.
        let (analysis, t_analysis) = time(|| analyze_basic(&g));
        let (ca, t_ca) = time(|| core_app(&g, &analysis));
        let (od, t_od) = time(|| opt_d(&g, &analysis));
        let mc_cell = if analysis.kmax() <= cap {
            let (clique, exact) = maximum_clique_with_budget(
                &g,
                analysis.decomposition(),
                Some(std::time::Duration::from_secs(60)),
            );
            let qual = if exact { "MC" } else { "MC>=" };
            if contains_clique(&od.vertices, &clique) {
                format!("yes (|{qual}|={})", clique.len())
            } else {
                format!("no (|{qual}|={})", clique.len())
            }
        } else {
            "skipped (kmax>cap)".to_string()
        };
        table.row([
            spec.key.to_string(),
            format!("{:.2}", ca.average_degree),
            format!("{:.3}", (t_analysis + t_ca).as_secs_f64()),
            format!("{:.2}", od.average_degree),
            format!("{:.3}", (t_analysis + t_od).as_secs_f64()),
            mc_cell,
            format!(
                "{:.3}%",
                100.0 * od.vertices.len() as f64 / g.num_vertices() as f64
            ),
        ]);
    }
    println!("Table VIII (stand-ins): Opt-D on densest subgraph & maximum clique\n");
    table.print();
}
