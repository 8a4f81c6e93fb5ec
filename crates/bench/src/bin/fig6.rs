//! Figure 6 reproduction: the score of every individual k-core.
//!
//! The paper ranks all k-cores by ascending k (ties by ascending score) and
//! plots the score against the sequence id `c`, smoothing with a moving
//! average over consecutive cores. We emit the same smoothed series as CSV
//! for the LiveJournal / Orkut / FriendSter stand-ins.

use bestk_core::{analyze_basic, Metric};

const FIG6_METRICS: [Metric; 4] = [
    Metric::AverageDegree,
    Metric::CutRatio,
    Metric::Conductance,
    Metric::Modularity,
];

fn main() {
    let specs = bestk_bench::dataset_filter_from_args()
        .map(|keys| {
            keys.iter()
                .map(|k| {
                    bestk_bench::spec_by_key(k).unwrap_or_else(|| {
                        eprintln!("unknown dataset key {k:?}");
                        std::process::exit(2)
                    })
                })
                .collect::<Vec<_>>()
        })
        .unwrap_or_else(|| {
            ["lj", "o", "fs"]
                .iter()
                .filter_map(|k| bestk_bench::spec_by_key(k))
                .collect()
        });

    for metric in FIG6_METRICS {
        println!("# Figure 6 ({}): score of every k-core", metric.abbrev());
        println!("dataset,c,k,score_smoothed");
        for spec in &specs {
            let g = bestk_bench::load_dataset(spec);
            let a = analyze_basic(&g);
            let seq = a.single_core_scores(&metric);
            // The paper smooths LiveJournal with window 20, the others 5.
            let window = if seq.len() > 1000 { 20 } else { 5 };
            for (c, chunk) in seq.chunks(window).enumerate() {
                // bestk-analyze: allow(float-reduce) — in-order sum over one small chunk
                let avg = chunk.iter().map(|(_, s)| s).sum::<f64>() / chunk.len() as f64;
                let k = chunk[0].0;
                println!("{},{},{},{}", spec.key, c * window, k, avg);
            }
            eprintln!("{}: {} distinct k-cores", spec.key, seq.len());
        }
        println!();
    }
}
