//! Figure 5 reproduction: the score of every k-core set as a function of k.
//!
//! The paper plots four metrics (average degree, cut ratio, conductance,
//! modularity) on LiveJournal, Orkut, and FriendSter; we emit the same
//! series as CSV (one file-like block per metric on stdout) for the
//! corresponding stand-ins, plus a coarse ASCII sparkline so the shape is
//! visible without plotting.

use bestk_core::{analyze_basic, Metric};

const FIG5_METRICS: [Metric; 4] = [
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

    for metric in FIG5_METRICS {
        println!(
            "# Figure 5 ({}): score of every k-core set",
            metric.abbrev()
        );
        println!("dataset,k,score");
        for spec in &specs {
            let g = bestk_bench::load_dataset(spec);
            let a = analyze_basic(&g);
            let scores = a.core_set_scores(&metric);
            for (k, s) in scores.iter().enumerate() {
                if s.is_finite() {
                    println!("{},{},{}", spec.key, k, s);
                }
            }
            sparkline(spec.key, &scores);
        }
        println!();
    }
}

/// Prints a 60-char ASCII sparkline of the finite score series (comment
/// lines, so the CSV stays machine-readable).
fn sparkline(name: &str, scores: &[f64]) {
    let finite: Vec<f64> = scores.iter().copied().filter(|s| s.is_finite()).collect();
    if finite.is_empty() {
        return;
    }
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    let ramp: &[u8] = b" .:-=+*#%@";
    let width = 60.min(finite.len());
    let mut line = String::new();
    for i in 0..width {
        let idx = i * finite.len() / width;
        let s = finite[idx];
        let t = if hi > lo { (s - lo) / (hi - lo) } else { 0.5 };
        let c = ramp[((t * (ramp.len() - 1) as f64).round() as usize).min(ramp.len() - 1)];
        line.push(c as char);
    }
    println!("# {name:>4} |{line}| lo={lo:.4} hi={hi:.4}");
}
