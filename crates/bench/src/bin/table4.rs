//! Table IV reproduction: the best k per community metric, for both the
//! best k-core set (`CS-*` rows) and the best single k-core (`C-*` rows),
//! across all datasets.

use bestk_bench::{selected_specs, TableWriter};
use bestk_core::{analyze, Metric};

fn main() {
    let specs = selected_specs();
    let mut header: Vec<String> = vec!["Algo".into()];
    header.extend(specs.iter().map(|s| s.key.to_uppercase()));
    let mut rows: Vec<Vec<String>> = Vec::new();
    for m in Metric::ALL {
        rows.push(vec![format!("CS-{}", m.abbrev())]);
        rows.push(vec![format!("C-{}", m.abbrev())]);
    }

    for spec in &specs {
        eprintln!("analyzing {} ...", spec.key);
        let g = bestk_bench::load_dataset(spec);
        let a = analyze(&g);
        for (i, m) in Metric::ALL.iter().enumerate() {
            let cs = a
                .best_core_set(m)
                .map(|b| b.k.to_string())
                .unwrap_or_else(|| "-".into());
            let c = a
                .best_single_core(m)
                .map(|b| b.k.to_string())
                .unwrap_or_else(|| "-".into());
            rows[2 * i].push(cs);
            rows[2 * i + 1].push(c);
        }
    }

    let mut table = TableWriter::new(header);
    for row in rows {
        table.row(row);
    }
    println!("Table IV (stand-ins): best k for the k-core (set)\n");
    table.print();
}
