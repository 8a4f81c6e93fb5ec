//! Property test: a `save → open` round trip answers every query
//! byte-identically to the fresh in-memory dataset.
//!
//! Three generator families (Erdős–Rényi G(n,m), Chung–Lu power-law,
//! planted overlapping cliques) plus fully random testkit graphs are swept
//! with seeded cases; failures replay via `BESTK_PROP_SEED`.
//!
//! The second half pins the corrupt-graph-body defect: a snapshot whose
//! graph section is damaged — by a stray bit, or by an asymmetric
//! adjacency whose checksums were recomputed — must be rejected when it is
//! opened, so the load ladder rebuilds from a source (or fails typed) and
//! no later commit or write-ahead-log replay ever sees the bad graph.

use std::path::PathBuf;
use std::sync::Arc;

use bestk_core::Metric;
use bestk_engine::mmap::Mmap;
use bestk_engine::snapshot::fnv1a;
use bestk_engine::{
    handle_request, snapv2, Dataset, LoadOutcome, Query, RetryPolicy, SharedEngine,
};
use bestk_exec::ExecPolicy;
use bestk_graph::generators::{self, EdgeOp};
use bestk_graph::{testkit, CsrGraph, GraphView};

fn built(g: CsrGraph) -> Dataset {
    let mut ds = Dataset::from_graph(g);
    ds.ensure_built(&ExecPolicy::Sequential);
    ds
}

/// `BestKSet` + `BestCore` for all six base metrics, plus profiles, stats,
/// and a few vertex lookups.
fn query_set(n: usize) -> Vec<Query> {
    let mut qs = vec![Query::Stats];
    for m in Metric::ALL {
        qs.push(Query::BestKSet { metric: m });
        qs.push(Query::BestCore { metric: m });
        qs.push(Query::ScoreProfile { metric: m });
    }
    for v in [0usize, n / 2, n.saturating_sub(1)] {
        if v < n {
            qs.push(Query::CoreOfVertex { vertex: v as u32 });
        }
    }
    qs
}

fn answer_lines(ds: &Dataset, policy: &ExecPolicy) -> Vec<String> {
    ds.answer_batch(&query_set(ds.graph().num_vertices()), policy)
        .into_iter()
        .map(|r| match r {
            Ok(a) => a.to_line(),
            Err(e) => format!("err\t{e}"),
        })
        .collect()
}

fn open_bytes(bytes: Vec<u8>) -> Result<Dataset, bestk_engine::EngineError> {
    snapv2::open_mmap(Arc::new(Mmap::from_vec(bytes)))
}

fn assert_roundtrip(g: CsrGraph, label: &str) {
    let original = built(g);
    let loaded = open_bytes(snapv2::to_bytes(&original).expect("save")).expect("open");
    assert!(loaded.is_built(), "{label}: snapshot must arrive built");
    assert_eq!(loaded.graph(), original.graph(), "{label}: graph mismatch");
    let seq = ExecPolicy::Sequential;
    let fresh = answer_lines(&original, &seq);
    assert_eq!(
        answer_lines(&loaded, &seq),
        fresh,
        "{label}: answers diverge"
    );
    // And the loaded dataset stays thread-invariant.
    for threads in [2usize, 4] {
        let par = ExecPolicy::with_threads(threads).expect("policy");
        assert_eq!(
            answer_lines(&loaded, &par),
            fresh,
            "{label}: answers diverge at {threads} threads"
        );
    }
}

#[test]
fn prop_roundtrip_erdos_renyi() {
    testkit::check("engine_roundtrip_er", 12, |gen| {
        let n = gen.usize_in(2, 120);
        let m = gen.usize_in(0, 3 * n);
        let seed = gen.u64();
        assert_roundtrip(
            generators::erdos_renyi_gnm(n, m, seed),
            &format!("er n={n} m={m} seed={seed}"),
        );
    });
}

#[test]
fn prop_roundtrip_chung_lu_power_law() {
    testkit::check("engine_roundtrip_cl", 10, |gen| {
        let n = gen.usize_in(4, 150);
        let avg = 1.0 + 5.0 * gen.f64_unit();
        let gamma = 2.1 + gen.f64_unit();
        let seed = gen.u64();
        assert_roundtrip(
            generators::chung_lu_power_law(n, avg, gamma, seed),
            &format!("cl n={n} seed={seed}"),
        );
    });
}

#[test]
fn prop_roundtrip_overlapping_cliques() {
    testkit::check("engine_roundtrip_cliques", 10, |gen| {
        let n = gen.usize_in(10, 120);
        let cliques = gen.usize_in(1, 12);
        let lo = gen.usize_in(2, 5);
        let hi = lo + gen.usize_in(0, 4);
        let seed = gen.u64();
        assert_roundtrip(
            generators::overlapping_cliques(n, cliques, (lo, hi), seed),
            &format!("cliques n={n} c={cliques} seed={seed}"),
        );
    });
}

#[test]
fn prop_roundtrip_testkit_random_graphs() {
    testkit::check("engine_roundtrip_random", 12, |gen| {
        let g = gen.graph(100, 400);
        assert_roundtrip(g, "testkit random graph");
    });
}

// ------------------------------------------------ corrupt graph bodies

/// Fresh scratch dir with the Figure-2 source edge list and its snapshot.
fn fixture(tag: &str) -> (PathBuf, String, String) {
    let dir = std::env::temp_dir().join(format!("bestk-corrupt-body-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let source = dir.join("fig2.txt");
    let snap = dir.join("fig2.bestk");
    let g = generators::paper_figure2();
    bestk_graph::io::write_edge_list_path(&g, &source).expect("write source");
    snapv2::save_path(&built(g), &snap).expect("write snapshot");
    let path = |p: PathBuf| p.to_str().expect("utf8 path").to_string();
    (dir, path(source), path(snap))
}

fn flip(path: &str, at: usize) {
    let mut bytes = std::fs::read(path).expect("read snapshot");
    bytes[at] ^= 0x01;
    std::fs::write(path, bytes).expect("write snapshot");
}

/// Rewrites vertex 0's last neighbor to the next id (for Figure 2, its
/// neighbors {1, 2, 3} become {1, 2, 4}: still in range and sorted, but
/// no longer symmetric), then recomputes every checksum so only the
/// structural check can see the damage.
fn asymmetric_resealed(bytes: &mut [u8]) {
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let (graph, n) = (word(bytes, 72) as usize, word(bytes, 16) as usize);
    let degree = word(bytes, graph + 16 + 8) as usize;
    let last = graph + 16 + 8 * (n + 1) + 4 * (degree - 1);
    let v = u32::from_le_bytes(bytes[last..last + 4].try_into().unwrap());
    bytes[last..last + 4].copy_from_slice(&(v + 1).to_le_bytes());
    for slot in 0..4 {
        let entry = 64 + 32 * slot;
        let (off, len) = (
            word(bytes, entry + 8) as usize,
            word(bytes, entry + 16) as usize,
        );
        let sum = fnv1a(&bytes[off..off + len]);
        bytes[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
    }
    let table = fnv1a(&bytes[64..64 + 4 * 32]);
    bytes[40..48].copy_from_slice(&table.to_le_bytes());
    let header = fnv1a(&bytes[..48]);
    bytes[48..56].copy_from_slice(&header.to_le_bytes());
}

fn ask(engine: &SharedEngine, line: &str) -> String {
    handle_request(engine, &ExecPolicy::Sequential, line).0
}

/// Bytes 278 (an adjacency offset) and 409 (a neighbor id) of the
/// Figure-2 image sit in the graph body.
const BODY_BYTES: [usize; 2] = [278, 409];

#[test]
fn corrupt_graph_body_with_a_source_rebuilds_and_commits() {
    for at in BODY_BYTES {
        let (dir, source, snap) = fixture(&format!("src{at}"));
        flip(&snap, at);
        let engine = SharedEngine::with_budget(None);
        assert_eq!(
            ask(&engine, &format!("load g {snap} {source}")),
            "ok\trebuilt\tg",
            "byte {at}"
        );
        assert!(ask(&engine, "add-edge g 0 11").starts_with("ok\tstaged"));
        let reply = ask(&engine, "commit g");
        assert!(
            reply.starts_with("ok\tcommitted\tg\tops=1\tn=12\tm=20"),
            "byte {at}: {reply}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn corrupt_graph_body_without_a_source_is_a_typed_error() {
    for at in BODY_BYTES {
        let (dir, _source, snap) = fixture(&format!("nosrc{at}"));
        flip(&snap, at);
        let engine = SharedEngine::with_budget(None);
        assert_eq!(
            ask(&engine, &format!("load g {snap}")),
            "err\tcorrupt snapshot: checksum mismatch in graph",
            "byte {at}"
        );
        let err = bestk_engine::snapshot::load_path(&snap).unwrap_err();
        assert!(err.is_corruption(), "byte {at}: {err}");
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn checksum_consistent_asymmetric_body_is_rejected_at_open() {
    let mut bytes = snapv2::to_bytes(&built(generators::paper_figure2())).expect("save");
    asymmetric_resealed(&mut bytes);
    let err = open_bytes(bytes).unwrap_err();
    assert!(matches!(err, bestk_engine::EngineError::Graph(_)), "{err}");
    assert!(err.is_corruption());
}

#[test]
fn wal_replay_never_sees_a_tampered_graph() {
    let (dir, source, snap) = fixture("wal");
    let policy = ExecPolicy::Sequential;
    let retry = RetryPolicy::none();
    // Session 1: a clean load and one committed op in the sibling WAL.
    let engine = SharedEngine::with_budget(None);
    engine
        .load_snapshot_with_fallback("g", &snap, None, &retry, &policy)
        .expect("clean load");
    engine
        .stage_edge("g", EdgeOp::Insert(0, 11))
        .expect("stage");
    engine.commit_edges("g", &policy).expect("commit");
    drop(engine);

    // The snapshot is then tampered with so that every checksum agrees.
    let mut bytes = std::fs::read(&snap).expect("read snapshot");
    asymmetric_resealed(&mut bytes);
    std::fs::write(&snap, &bytes).expect("write snapshot");

    // Without a source the load fails typed; the WAL is never replayed
    // over the tampered graph.
    let engine = SharedEngine::with_budget(None);
    let err = engine
        .load_snapshot_with_fallback("g", &snap, None, &retry, &policy)
        .unwrap_err();
    assert!(err.is_corruption(), "{err}");

    // With a source the snapshot is rebuilt and the committed op replays
    // on the rebuilt graph.
    let outcome = engine
        .load_snapshot_with_fallback("g", &snap, Some(&source), &retry, &policy)
        .expect("rebuild");
    assert_eq!(outcome, LoadOutcome::Rebuilt);
    let stats = engine.query("g", &Query::Stats, &policy).expect("stats");
    assert_eq!(stats.to_line(), "stats\tn=12\tm=20\tkmax=3\tcores=2");
    let _ = std::fs::remove_dir_all(dir);
}
