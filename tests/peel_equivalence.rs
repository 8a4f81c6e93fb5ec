//! The differential test layer for the core decomposition.
//!
//! [`core_decomposition`] is the one Batagelj–Zaveršnik peel. This suite
//! checks it against the independent h-index oracle and the full
//! decomposition verifier (coreness, rank order, shells, and a degeneracy
//! peel order with at most `c(v)` later neighbors per vertex), and proves
//! everything built from it is **bit-identical** at threads {1, 2, 4, 7}:
//! the decomposition, the Alg. 1 position tags, the Alg. 2 per-k and
//! Alg. 5 per-core primaries (through the parallel triangle kernel), and
//! the index arrays a snapshot does not persist plus the serialized
//! `.bestk` snapshot bytes. Shapes cover
//! random graphs, sparse and degenerate inputs, and the adversarial
//! generators (`k_chain`, `shell_ladder`, `tie_storm`, max-degeneracy
//! cliques).
//!
//! Random cases run on the seeded in-repo property harness
//! (`BESTK_PROP_SEED` / `BESTK_PROP_CASES`), like the other equivalence
//! suites.

use bestk::core::hindex::hindex_core_decomposition;
use bestk::core::verify::verify_decomposition;
use bestk::core::{
    core_decomposition, core_decomposition_with, profiles_with, CoreDecomposition, CoreForest,
    CoreForestNode, OrderedGraph,
};
use bestk::exec::ExecPolicy;
use bestk::graph::generators::{self, regular};
use bestk::graph::testkit::{check, Gen};
use bestk::graph::CsrGraph;
use bestk_engine::{snapv2, Dataset};

/// Thread counts every artifact is rebuilt at. 7 is deliberately prime
/// and larger than the chunk-per-worker alignment assumptions.
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// Checks the decomposition of `g` against the oracles, then rebuilds it
/// and the artifacts the sweeps consume at every thread count and asserts
/// they match the sequential build exactly.
fn assert_correct_and_thread_count_invariant(g: &CsrGraph, context: &str) {
    let want = core_decomposition(g);
    assert_eq!(
        want.coreness_slice(),
        &hindex_core_decomposition(g).coreness[..],
        "{context}: coreness disagrees with h-index iteration"
    );
    if let Err(e) = verify_decomposition(g, &want) {
        panic!("{context}: decomposition fails verification: {e}");
    }
    let forest = CoreForest::build(g, &want);
    let want_ordered = OrderedGraph::build(g, &want);
    let (want_set, want_core) =
        profiles_with(&want_ordered, &forest, true, &ExecPolicy::Sequential);
    for threads in THREADS {
        let policy = ExecPolicy::with_threads(threads).unwrap();
        let got = core_decomposition_with(g, &policy);
        assert_eq!(got, want, "{context}: decomposition at {threads} threads");
        let ordered = OrderedGraph::build_with(g, &got, &policy);
        assert_eq!(
            ordered.raw_tags(),
            want_ordered.raw_tags(),
            "{context}: Alg. 1 tags at {threads} threads"
        );
        let (set, core) = profiles_with(&ordered, &forest, true, &policy);
        assert_eq!(
            set.primaries, want_set.primaries,
            "{context}: Alg. 2 primaries at {threads} threads"
        );
        assert_eq!(
            core.primaries, want_core.primaries,
            "{context}: Alg. 5 primaries at {threads} threads"
        );
    }
}

/// The index arrays a snapshot does not persist, compared in memory: the
/// decomposition (peel order included), the Alg. 1 rank-ordered adjacency
/// with its `same`/`plus`/`high` tags, and the forest's nodes plus its
/// vertex-to-node map.
type IndexArrays = (
    CoreDecomposition,
    [Vec<u32>; 4],
    Vec<CoreForestNode>,
    Vec<u32>,
);

fn index_arrays(ds: &Dataset) -> IndexArrays {
    let art = ds.artifacts().expect("owned artifacts");
    (
        art.decomp.clone(),
        [
            art.adj.clone(),
            art.same.clone(),
            art.plus.clone(),
            art.high.clone(),
        ],
        art.forest.nodes().to_vec(),
        art.forest.vertex_nodes().to_vec(),
    )
}

#[test]
fn random_graphs_are_bit_identical() {
    check("peel equivalence random sweep", 24, |gen: &mut Gen| {
        let g = gen.graph(60, 220);
        assert_correct_and_thread_count_invariant(&g, "random");
    });
}

#[test]
fn sparse_and_degenerate_shapes_are_bit_identical() {
    for (name, g) in [
        ("empty", CsrGraph::empty(0)),
        ("isolated", CsrGraph::empty(5)),
        ("single-edge", {
            let mut b = bestk::graph::GraphBuilder::new();
            b.add_edge(0, 1);
            b.reserve_vertices(4);
            b.build()
        }),
        ("path", regular::path(31)),
        ("star", regular::star(17)),
        ("figure2", generators::paper_figure2()),
    ] {
        assert_correct_and_thread_count_invariant(&g, name);
    }
}

#[test]
fn adversarial_shapes_are_bit_identical() {
    // Maximum shell depth, wide shells over a deep core, cross-component
    // ties, and max-degeneracy constructions (a clique is one bucket; a
    // clique chain moves vertices across bridges).
    for (name, g) in [
        ("k-chain", generators::k_chain(10)),
        ("shell-ladder", generators::shell_ladder(8, 7)),
        ("tie-storm", generators::tie_storm(6, 5, 71)),
        ("complete", regular::complete(40)),
        ("clique-chain", regular::clique_chain(4, 12)),
        (
            "overlapping",
            generators::overlapping_cliques(80, 8, (4, 9), 17),
        ),
    ] {
        assert_correct_and_thread_count_invariant(&g, name);
    }
}

#[test]
fn snapshot_bytes_are_identical_at_every_thread_count() {
    // The end-to-end determinism contract: a dataset built at any thread
    // count holds the *same index arrays* (peel order included) and
    // serializes to the *same bytes* as a sequential build.
    let dir = std::env::temp_dir().join(format!("bestk-peel-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (name, g) in [
        ("random", generators::erdos_renyi_gnm(300, 1200, 41)),
        ("ladder", generators::shell_ladder(7, 9)),
        ("k-chain", generators::k_chain(10)),
    ] {
        let mut reference = Dataset::from_graph(g.clone());
        reference.ensure_built(&ExecPolicy::Sequential);
        let arrays_want = index_arrays(&reference);
        let v2_path = dir.join(format!("{name}-seq.bestk"));
        snapv2::save_path(&reference, &v2_path).expect("save v2");
        let v2_want = std::fs::read(&v2_path).expect("read v2");
        for threads in THREADS {
            let policy = ExecPolicy::with_threads(threads).unwrap();
            let mut ds = Dataset::from_graph(g.clone());
            ds.ensure_built(&policy);
            assert!(
                index_arrays(&ds) == arrays_want,
                "{name}: index arrays at {threads} threads"
            );
            let path = dir.join(format!("{name}-{threads}.bestk"));
            snapv2::save_path(&ds, &path).expect("save v2");
            assert_eq!(
                std::fs::read(&path).expect("read v2"),
                v2_want,
                "{name}: v2 bytes at {threads} threads"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
