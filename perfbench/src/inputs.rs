//! Workloads and the inputs they are made from.
//!
//! Every input comes from the workload seed: the same seed gives the same
//! files and the same request stream. The program under test only ever
//! sees the generated files and request lines.

use std::path::{Path, PathBuf};

use bestk_core::{CommunityMetric, Metric};
use bestk_engine::Dataset;
use bestk_exec::ExecPolicy;
use bestk_graph::generators::{self, EdgeOp};
use bestk_graph::rng::Xoshiro256;
use bestk_graph::{io, CsrGraph};

/// The eight metrics, in `bestk analyze --extended` order.
pub const ALL_METRICS: [Metric; 8] = [
    Metric::AverageDegree,
    Metric::InternalDensity,
    Metric::CutRatio,
    Metric::Conductance,
    Metric::Modularity,
    Metric::ClusteringCoefficient,
    Metric::Separability,
    Metric::TriangleDensity,
];

/// Vertices and edges of the served Erdős–Rényi graph.
pub const SERVE_N: usize = 20_000;
/// Edges of the served graph.
pub const SERVE_M: usize = 100_000;
/// Queries per read/write cycle.
pub const CYCLE_QUERIES: usize = 64;
/// Edge ops per cycle, committed together at its end.
pub const CYCLE_OPS: usize = 8;
/// Cycles per serving block: one compaction period (32 commits of 8 ops
/// each, compaction every 256 ops), so every block holds one compaction.
pub const BLOCK_CYCLES: usize = 32;
/// Cycles a run serves at least: seven blocks, whose 224 commits leave
/// eleven beyond the p95. The traced run replays exactly these in
/// process.
pub const MIN_CYCLES: usize = 7 * BLOCK_CYCLES;
/// Cycles the seed's op stream covers; a run that serves them all spends
/// the rest of its time on analysis passes.
pub const MAX_CYCLES: usize = 128 * BLOCK_CYCLES;
/// Name the served dataset is loaded under.
pub const DATASET: &str = "g";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Chung–Lu text edge list through the full `analyze --extended` path.
    AnalyzeText,
    /// The Orkut stand-in as binary CSR, degree metrics only. Not in
    /// `BENCHMARK.json`: its input generation and oracle checks take about
    /// 35 s a run, which the benchmark's time limit cannot spare; run it by
    /// name.
    AnalyzeDeep,
    /// The served graph itself; analysis is small and serving dominates.
    ServeRw,
}

impl Workload {
    /// The workloads of `BENCHMARK.json`, in its order; `--workload all`
    /// runs these.
    pub const ALL: [Workload; 2] = [Workload::AnalyzeText, Workload::ServeRw];

    /// Every workload `--workload` accepts by name.
    pub const BY_NAME: [Workload; 3] = [
        Workload::AnalyzeText,
        Workload::AnalyzeDeep,
        Workload::ServeRw,
    ];

    /// Looks a workload up by its name.
    pub fn by_name(name: &str) -> Result<Workload, String> {
        Workload::BY_NAME
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!("unknown workload {name:?} (expected analyze_text|analyze_deep|serve_rw)")
            })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyzeText => "analyze_text",
            Workload::AnalyzeDeep => "analyze_deep",
            Workload::ServeRw => "serve_rw",
        }
    }

    /// Metrics one analysis pass answers.
    pub fn metrics(self) -> &'static [Metric] {
        match self {
            Workload::AnalyzeDeep => &ALL_METRICS[..5],
            Workload::AnalyzeText | Workload::ServeRw => &ALL_METRICS,
        }
    }

    /// Whether the pass counts triangles (Alg. 3).
    pub fn triangles(self) -> bool {
        self.metrics().iter().any(|m| m.needs_triangles())
    }

    /// The metric the oracle re-checks once per run.
    pub fn verified_metric(self) -> Metric {
        self.metrics()[0]
    }

    /// File name of the analysis input inside a set-up directory.
    pub fn input_file(self) -> &'static str {
        match self {
            Workload::AnalyzeDeep => "input.bin",
            Workload::AnalyzeText | Workload::ServeRw => "input.txt",
        }
    }

    /// Generates the analysis input graph.
    pub fn input_graph(self, seed: u64) -> Result<CsrGraph, String> {
        Ok(match self {
            Workload::AnalyzeText => generators::chung_lu_power_law(200_000, 15.6, 2.5, seed),
            Workload::AnalyzeDeep => {
                let spec = bestk_bench::datasets::spec_by_key("o")
                    .ok_or("dataset spec \"o\" is missing")?;
                bestk_bench::datasets::generate(&bestk_bench::datasets::DatasetSpec {
                    seed,
                    ..spec
                })
            }
            Workload::ServeRw => serve_graph(seed),
        })
    }
}

/// The served graph: Erdős–Rényi `G(n, m)` with [`SERVE_N`] and
/// [`SERVE_M`].
pub fn serve_graph(seed: u64) -> CsrGraph {
    generators::erdos_renyi_gnm(SERVE_N, SERVE_M, seed)
}

/// Paths of one set-up directory.
#[derive(Debug, Clone)]
pub struct SetupFiles {
    /// The analysis input file.
    pub input: PathBuf,
    /// The served v2 snapshot (its WAL goes beside it).
    pub snapshot: PathBuf,
}

impl SetupFiles {
    /// The files of `workload` inside `dir`.
    pub fn new(workload: Workload, dir: &Path) -> SetupFiles {
        SetupFiles {
            input: dir.join(workload.input_file()),
            snapshot: dir.join("serve.bestk"),
        }
    }
}

/// Writes a workload's inputs into `dir` and syncs them: the analysis
/// input file and the served graph's v2 snapshot.
pub fn make_inputs(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let files = SetupFiles::new(workload, dir);
    let g = workload.input_graph(seed)?;
    let written = match workload {
        Workload::AnalyzeDeep => io::write_binary_path(&g, &files.input),
        Workload::AnalyzeText | Workload::ServeRw => io::write_edge_list_path(&g, &files.input),
    };
    written.map_err(|e| format!("write {}: {e}", files.input.display()))?;
    let served = if workload == Workload::ServeRw {
        g
    } else {
        serve_graph(seed)
    };
    let mut dataset = Dataset::from_graph(served);
    dataset.ensure_built(&ExecPolicy::auto());
    bestk_engine::snapv2::save_path(&dataset, &files.snapshot)
        .map_err(|e| format!("write {}: {e}", files.snapshot.display()))?;
    // Flush the inputs now, so their writeback does not compete with the
    // measured stages (and with the WAL's fsyncs in particular).
    for path in [&files.input, &files.snapshot] {
        std::fs::File::open(path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("sync {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The deterministic read/write request stream of one seed.
#[derive(Debug, Clone)]
pub struct Mix {
    seed: u64,
    ops: Vec<EdgeOp>,
}

impl Mix {
    /// The stream for `seed` over the served graph `g`.
    pub fn new(g: &CsrGraph, seed: u64) -> Mix {
        Mix {
            seed,
            ops: generators::edge_stream_mixed(g, CYCLE_OPS * MAX_CYCLES, seed ^ 0x5EED_0095),
        }
    }

    /// Query lines of cycle `c`: `bestkset`/`bestcore`/`profile` over the
    /// eight metrics, and `coreof` one in four.
    pub fn queries(&self, c: usize) -> Vec<String> {
        let mut rng = Xoshiro256::seed_from_u64(
            self.seed ^ 0x0051_AEED ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        (0..CYCLE_QUERIES)
            .map(|_| {
                if rng.next_bool(0.25) {
                    format!("coreof {}", rng.next_index(SERVE_N))
                } else {
                    let verb = ["bestkset", "bestcore", "profile"][rng.next_index(3)];
                    format!("{verb} {}", ALL_METRICS[rng.next_index(8)].abbrev())
                }
            })
            .collect()
    }

    /// Edge ops of cycle `c`, or `None` past the pre-generated stream.
    pub fn ops(&self, c: usize) -> Option<&[EdgeOp]> {
        self.ops.get(c * CYCLE_OPS..(c + 1) * CYCLE_OPS)
    }

    /// The ops of the first `cycles` cycles, in order.
    pub fn ops_prefix(&self, cycles: usize) -> &[EdgeOp] {
        &self.ops[..(cycles * CYCLE_OPS).min(self.ops.len())]
    }
}

/// The protocol line that stages `op` on the served dataset.
pub fn op_line(op: &EdgeOp) -> String {
    let (u, v) = op.endpoints();
    let verb = if op.is_insert() {
        "add-edge"
    } else {
        "del-edge"
    };
    format!("{verb} {DATASET} {u} {v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        let g = generators::erdos_renyi_gnm(500, 2_000, 3);
        let a = Mix::new(&g, 7);
        let b = Mix::new(&g, 7);
        let c = Mix::new(&g, 8);
        for cycle in [0, 1, 57] {
            assert_eq!(a.queries(cycle), b.queries(cycle));
            assert_eq!(a.ops(cycle), b.ops(cycle));
        }
        assert_ne!(a.queries(0), c.queries(0));
        assert_ne!(a.ops_prefix(4), c.ops_prefix(4));
        assert_ne!(a.queries(0), a.queries(1), "cycles differ");
    }

    #[test]
    fn every_request_line_parses_and_ops_are_whole_cycles() {
        let g = generators::erdos_renyi_gnm(500, 2_000, 3);
        let mix = Mix::new(&g, 11);
        for q in mix.queries(3) {
            bestk_engine::Query::parse(&q).expect("query parses");
        }
        assert_eq!(mix.ops(0).map(<[EdgeOp]>::len), Some(CYCLE_OPS));
        assert_eq!(mix.ops(MAX_CYCLES), None);
        assert_eq!(mix.ops_prefix(2).len(), 2 * CYCLE_OPS);
        let line = op_line(&EdgeOp::Insert(3, 9));
        assert_eq!(line, format!("add-edge {DATASET} 3 9"));
    }

    #[test]
    fn workloads_round_trip_by_name() {
        for w in Workload::BY_NAME {
            assert_eq!(Workload::by_name(w.name()), Ok(w));
        }
        assert!(Workload::by_name("nope").is_err());
        assert!(!Workload::AnalyzeDeep.triangles());
        assert!(Workload::AnalyzeText.triangles());
    }
}
