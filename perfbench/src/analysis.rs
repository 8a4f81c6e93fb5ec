//! The analysis stage: cold passes over the workload's input file.
//!
//! One pass makes the calls `bestk analyze <file>` makes: `read_auto_path`,
//! the pipeline (peel, order, sweep, forest, per-core profile; triangles
//! only when a metric needs them), then the best k-core set and the best
//! single core for every metric of the workload. The untraced pass calls
//! the `analyze_with` facade; the traced pass makes the same calls one by
//! one, each inside a span.

use std::path::{Path, PathBuf};

use bestk_core::{
    analyze_basic_with, analyze_with, core_decomposition_with, core_set_profile,
    single_core_profile, BestCore, BestKSet, CoreDecomposition, CoreForest, OrderedGraph,
};
use bestk_exec::{ChunkPlan, ExecPolicy};
use bestk_graph::{io, CsrGraph};

use crate::inputs::Workload;
use crate::stats;
use crate::sysinfo::CpuTicks;
use crate::trace::Tracer;

/// Untraced passes every run makes at least, however short its budget.
pub const MIN_PASSES: usize = 5;

/// Layer spans of the traced pass, in call order.
pub const LAYERS: [&str; 7] = [
    "load", "peel", "order", "sweep", "forest", "coreprof", "select",
];

/// Per metric: the best k-core set and the best single core.
type Answers = Vec<(Option<BestKSet>, Option<BestCore>)>;

/// What the last pass left behind, for the checks and the input record.
pub struct LastPass {
    /// The loaded graph.
    pub graph: CsrGraph,
    /// Its core decomposition.
    pub decomp: CoreDecomposition,
    /// The pass's answers.
    answers: Answers,
    /// Nodes of the core forest.
    pub forest_nodes: usize,
}

/// The stage's timings and the state the checks need.
pub struct Stage {
    w: Workload,
    input: PathBuf,
    policy: ExecPolicy,
    /// The warm-up pass's answers, which every timed pass must repeat.
    reference: Answers,
    /// Wall time of every untraced pass, ns.
    pub pass_ns: Vec<u64>,
    /// Share of CPU time the host took from this guest during each
    /// untraced pass.
    pub pass_steal: Vec<f64>,
    /// Wall time of every traced pass, ns (traced runs only).
    pub traced_ns: Vec<u64>,
    /// Per layer, its self time in every traced pass, ns.
    pub layer_ns: Vec<(&'static str, Vec<u64>)>,
    /// Sequential peel time after every traced pass, ns.
    pub peel_t1_ns: Vec<u64>,
    /// Share of each traced pass covered by layer spans.
    pub coverage: Vec<f64>,
    /// `phase.peel.rounds` of one traced peel.
    pub peel_rounds: u64,
    /// Passes run.
    pub attempted: u64,
    /// Passes whose answers differed from the warm-up pass's, or whose
    /// sequential peel disagreed with the default one.
    pub failed: u64,
    /// The last pass; empty while a pass runs.
    last: Option<LastPass>,
}

impl Stage {
    /// Runs the untimed warm-up pass, which fills the page cache and the
    /// allocator and gives the reference answers.
    pub fn warm_up(w: Workload, input: &Path, policy: &ExecPolicy) -> Result<Stage, String> {
        let last = plain_pass(w, input, policy)?.1;
        Ok(Stage {
            w,
            input: input.to_path_buf(),
            policy: *policy,
            reference: last.answers.clone(),
            pass_ns: Vec::new(),
            pass_steal: Vec::new(),
            traced_ns: Vec::new(),
            layer_ns: LAYERS.iter().map(|l| (*l, Vec::new())).collect(),
            peel_t1_ns: Vec::new(),
            coverage: Vec::new(),
            peel_rounds: 0,
            attempted: 0,
            failed: 0,
            last: Some(last),
        })
    }

    /// Takes what the last pass left, freeing it.
    pub fn take_last(&mut self) -> Option<LastPass> {
        self.last.take()
    }

    /// What the last pass left.
    pub fn last(&self) -> Result<&LastPass, String> {
        self.last
            .as_ref()
            .ok_or_else(|| "no pass completed".to_string())
    }

    /// Whether the stage has its minimum of passes: [`MIN_PASSES`]
    /// untraced ones, and as many traced ones in a traced run.
    pub fn has_min_passes(&self, traced: bool) -> bool {
        self.pass_ns.len() >= MIN_PASSES && (!traced || self.traced_ns.len() >= MIN_PASSES)
    }

    /// Makes one pass. With `tracer`, passes alternate untraced and traced
    /// so the tracing overhead is measured within one run.
    pub fn step(&mut self, tracer: Option<&mut Tracer>) -> Result<(), String> {
        // Free the previous pass's graph first: a `bestk analyze` process
        // holds one graph, and the peak memory must show that.
        self.last = None;
        let traced_turn = self.attempted % 2 == 1;
        let last = match tracer {
            Some(tr) if traced_turn => {
                let (ns, last, root, t1_ns, peel_ok, rounds) =
                    traced_pass(self.w, &self.input, &self.policy, tr)?;
                self.traced_ns.push(ns);
                let selfs = tr.self_by_name(root);
                for (name, samples) in &mut self.layer_ns {
                    samples.push(selfs.get(name).copied().unwrap_or(0));
                }
                let uncovered = selfs.get("pass").copied().unwrap_or(0);
                self.coverage
                    .push(1.0 - uncovered as f64 / ns.max(1) as f64);
                self.peel_t1_ns.push(t1_ns);
                self.peel_rounds = rounds;
                if !peel_ok {
                    self.failed += 1;
                }
                last
            }
            _ => {
                let ticks = CpuTicks::now();
                let (ns, last) = plain_pass(self.w, &self.input, &self.policy)?;
                self.pass_steal.push(ticks.steal_share());
                self.pass_ns.push(ns);
                last
            }
        };
        self.attempted += 1;
        if last.answers != self.reference {
            self.failed += 1;
        }
        self.last = Some(last);
        Ok(())
    }
}

/// Makes one untraced pass in a process that has made none before, as a
/// `bestk analyze` process does, and returns the process's peak resident
/// set in KiB. A fresh process keeps the allocator's history out of the
/// number: after many passes in one process the peak depends on how its
/// heap happened to fragment.
pub fn peak_pass_kib(w: Workload, input: &Path) -> Result<u64, String> {
    plain_pass(w, input, &ExecPolicy::auto())?;
    crate::sysinfo::peak_rss_kib(None)
}

/// One untraced pass; returns its wall time and what it left.
fn plain_pass(w: Workload, input: &Path, policy: &ExecPolicy) -> Result<(u64, LastPass), String> {
    let t0 = bestk_obs::now_nanos();
    let graph = io::read_auto_path(input).map_err(|e| format!("read {}: {e}", input.display()))?;
    let a = if w.triangles() {
        analyze_with(&graph, policy)
    } else {
        analyze_basic_with(&graph, policy)
    };
    let mut answers = Vec::with_capacity(w.metrics().len());
    for m in w.metrics() {
        answers.push((
            a.try_best_core_set(m).map_err(|e| e.to_string())?,
            a.try_best_single_core(m).map_err(|e| e.to_string())?,
        ));
    }
    let ns = bestk_obs::now_nanos() - t0;
    let last = LastPass {
        forest_nodes: a.forest().node_count(),
        decomp: a.decomposition().clone(),
        graph,
        answers: std::hint::black_box(answers),
    };
    Ok((ns, last))
}

/// One traced pass. Returns its wall time, what it left, its root span,
/// the sequential peel time, whether that peel agreed, and the peel's
/// `phase.peel.rounds`.
fn traced_pass(
    w: Workload,
    input: &Path,
    policy: &ExecPolicy,
    tr: &mut Tracer,
) -> Result<(u64, LastPass, usize, u64, bool, u64), String> {
    let tri = w.triangles();
    let rounds_before = peel_rounds();
    let root = tr.enter("pass");
    let s = tr.enter("load");
    let graph = io::read_auto_path(input).map_err(|e| format!("read {}: {e}", input.display()))?;
    tr.exit(s);
    let s = tr.enter("peel");
    let decomp = core_decomposition_with(&graph, policy);
    tr.exit(s);
    let s = tr.enter("order");
    let ordered = OrderedGraph::build_with(&graph, &decomp, policy);
    tr.exit(s);
    let s = tr.enter("sweep");
    let set_profile = core_set_profile(&ordered, tri);
    tr.exit(s);
    let s = tr.enter("forest");
    let forest = CoreForest::build(&graph, &decomp);
    tr.exit(s);
    let s = tr.enter("coreprof");
    let core_profile = single_core_profile(&ordered, &forest, tri);
    tr.exit(s);
    drop(ordered);
    let s = tr.enter("select");
    let mut answers = Vec::with_capacity(w.metrics().len());
    for m in w.metrics() {
        answers.push((
            set_profile.try_best(m).map_err(|e| e.to_string())?,
            core_profile.try_best(m).map_err(|e| e.to_string())?,
        ));
    }
    tr.exit(s);
    tr.exit(root);
    let rounds = peel_rounds() - rounds_before;
    let t0 = bestk_obs::now_nanos();
    let sequential = core_decomposition_with(&graph, &ExecPolicy::sequential());
    let t1_ns = bestk_obs::now_nanos() - t0;
    let peel_ok = sequential.coreness_slice() == decomp.coreness_slice();
    let last = LastPass {
        forest_nodes: forest.node_count(),
        decomp,
        graph,
        answers: std::hint::black_box(answers),
    };
    Ok((tr.nanos(root), last, root, t1_ns, peel_ok, rounds))
}

fn peel_rounds() -> u64 {
    bestk_obs::snapshot()
        .counter("phase.peel.rounds")
        .unwrap_or(0)
}

/// The oracle checks, made once outside the timed passes: the
/// decomposition, then the best k-core set and best single core of the
/// workload's verified metric. The three run side by side on the policy's
/// workers; nothing is timed meanwhile. Returns `(attempted, failed)`.
pub fn verify(w: Workload, last: &LastPass, policy: &ExecPolicy) -> (u64, u64) {
    use bestk_core::verify::{verify_best_core_set, verify_best_single_core, verify_decomposition};
    let m = w.verified_metric();
    let (set, core) = w
        .metrics()
        .iter()
        .position(|x| *x == m)
        .and_then(|i| last.answers.get(i).copied())
        .unwrap_or((None, None));
    let g = &last.graph;
    let outcomes = policy.map_chunks(
        &ChunkPlan::even(3, 3),
        || (),
        |_, check, _| -> Result<(), String> {
            let (what, r) = match check {
                0 => ("decomposition", verify_decomposition(g, &last.decomp)),
                1 => match set {
                    Some(best) => ("best k-core set", verify_best_core_set(g, &m, &best)),
                    None => return Err("best k-core set: no answer".into()),
                },
                _ => match core {
                    Some(best) => ("best single core", verify_best_single_core(g, &m, &best)),
                    None => return Err("best single core: no answer".into()),
                },
            };
            r.map_err(|e| format!("{what}: {e}"))
        },
    );
    let mut failed = 0;
    for e in outcomes.iter().filter_map(|r| r.as_ref().err()) {
        eprintln!("perfbench: check failed: {e}");
        failed += 1;
    }
    (outcomes.len() as u64, failed)
}

/// Median of a layer's samples, ns.
pub fn layer_median(stage: &Stage, layer: &str) -> u64 {
    stage
        .layer_ns
        .iter()
        .find(|(name, _)| *name == layer)
        .and_then(|(_, s)| stats::median(s))
        .unwrap_or(0)
}
