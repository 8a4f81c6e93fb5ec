//! Core decomposition by h-index iteration.
//!
//! The locality-based alternative to peeling (Lü et al., *Nature Comm.*
//! 2016), which is the kernel of the distributed decomposition the paper
//! cites as reference \[43\] (Montresor et al., TPDS 2013): start from
//! `c⁰(v) = d(v)` and repeatedly set
//!
//! ```text
//! cᵗ⁺¹(v) = H( cᵗ(u) : u ∈ N(v) )
//! ```
//!
//! where `H` is the h-index (the largest `h` such that at least `h` of the
//! values are ≥ `h`). The sequence decreases monotonically to the coreness
//! of every vertex. Each round is embarrassingly parallel and touches each
//! vertex's neighborhood once — exactly why it distributes; the trade-off
//! is the number of rounds (bounded by `n`, tiny in practice).
//!
//! Provided here both as an independent oracle for the peeling
//! decomposition and as the substrate a distributed/semi-external port
//! would build on.

use bestk_exec::ExecPolicy;
use bestk_graph::cast;
use bestk_graph::{GraphView, VertexId};

/// The result of an h-index iteration run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HIndexDecomposition {
    /// Final values — equal to the coreness of every vertex.
    pub coreness: Vec<u32>,
    /// Number of full rounds executed until the fixpoint.
    pub rounds: usize,
}

/// Runs synchronous h-index iteration to fixpoint. `O(rounds · m)` time,
/// `O(n)` space beyond the graph.
pub fn hindex_core_decomposition<G: GraphView + Sync>(g: &G) -> HIndexDecomposition {
    hindex_core_decomposition_with(g, &ExecPolicy::Sequential)
}

/// Synchronous h-index iteration under an execution policy: each round is
/// embarrassingly parallel (every vertex reads the previous round's values
/// and writes its own slot), so rounds run as edge-balanced chunks on the
/// shared runtime. The per-vertex h-index depends only on the immutable
/// previous-round snapshot, so coreness *and* round count are bit-identical
/// to the sequential run at every thread count.
pub fn hindex_core_decomposition_with<G: GraphView + Sync>(
    g: &G,
    policy: &ExecPolicy,
) -> HIndexDecomposition {
    let n = g.num_vertices();
    let mut values: Vec<u32> = (0..n)
        .map(|v| cast::u32_of(g.degree(cast::vertex_id(v))))
        .collect();
    let mut next = values.clone();
    let mut rounds = 0usize;
    // Chunk by cumulative degree: each vertex's update costs O(d(v)).
    let plan = policy.plan_weighted(&g.degree_offsets());
    let cuts = plan.bounds().to_vec();
    loop {
        let values_ref = &values;
        // bestk-analyze: allow(raw-atomic) — monotone convergence flag; true-stores commute
        let changed = std::sync::atomic::AtomicBool::new(false);
        policy.for_each_disjoint(
            &plan,
            &mut next,
            &cuts,
            Vec::new,
            |scratch, _, vertices, out| {
                let base = vertices.start;
                let mut any = false;
                for v in vertices {
                    let h = neighborhood_h_index(g, cast::vertex_id(v), values_ref, scratch);
                    any |= h != values_ref[v];
                    out[v - base] = h;
                }
                if any {
                    changed.store(true, std::sync::atomic::Ordering::Relaxed);
                }
            },
        );
        rounds += 1;
        std::mem::swap(&mut values, &mut next);
        if !changed.into_inner() {
            break;
        }
    }
    HIndexDecomposition {
        coreness: values,
        rounds,
    }
}

/// The h-index of `v`'s neighbor values, computed with a counting pass
/// bounded by `d(v)` (values above the degree can be clamped: the h-index
/// never exceeds the list length).
fn neighborhood_h_index<G: GraphView>(
    g: &G,
    v: VertexId,
    values: &[u32],
    scratch: &mut Vec<u32>,
) -> u32 {
    let d = g.degree(v);
    scratch.clear();
    scratch.resize(d + 1, 0);
    for u in g.neighbors(v) {
        let val = (values[u as usize] as usize).min(d);
        scratch[val] += 1;
    }
    let mut at_least = 0u32;
    for h in (0..=d).rev() {
        at_least += scratch[h];
        if at_least as usize >= h {
            return cast::u32_of(h);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::core_decomposition;
    use bestk_graph::generators::{self, regular};

    #[test]
    fn matches_peeling_on_paper_example() {
        let g = generators::paper_figure2();
        let d = core_decomposition(&g);
        let h = hindex_core_decomposition(&g);
        assert_eq!(h.coreness, d.coreness_slice());
    }

    #[test]
    fn matches_peeling_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::erdos_renyi_gnm(200, 800, seed);
            let d = core_decomposition(&g);
            assert_eq!(
                hindex_core_decomposition(&g).coreness,
                d.coreness_slice(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_peeling_on_structured_graphs() {
        for g in [
            regular::complete(12),
            regular::cycle(30),
            regular::star(20),
            regular::clique_chain(5, 6),
            generators::overlapping_cliques(200, 40, (3, 10), 3),
            generators::chung_lu_power_law(400, 7.0, 2.4, 9),
        ] {
            let d = core_decomposition(&g);
            assert_eq!(hindex_core_decomposition(&g).coreness, d.coreness_slice());
        }
    }

    #[test]
    fn policy_runs_match_sequential_exactly() {
        bestk_graph::testkit::check("hindex_policy_equals_sequential", 24, |gen| {
            let g = gen.graph(50, 250);
            let reference = hindex_core_decomposition(&g);
            for threads in [1, 2, 4, 7] {
                let policy = ExecPolicy::with_threads(threads).unwrap();
                let got = hindex_core_decomposition_with(&g, &policy);
                assert_eq!(got.coreness, reference.coreness, "{threads} threads");
                assert_eq!(got.rounds, reference.rounds, "{threads} threads");
            }
        });
    }

    #[test]
    fn rounds_are_modest_on_small_world_graphs() {
        let g = generators::chung_lu_power_law(2000, 8.0, 2.4, 4);
        let h = hindex_core_decomposition(&g);
        // Convergence is much faster than the trivial n bound.
        assert!(h.rounds < 64, "rounds = {}", h.rounds);
        assert!(h.rounds >= 2);
    }

    #[test]
    fn path_needs_propagation_rounds() {
        // A long path: degree estimate 2 everywhere except the endpoints;
        // the correct coreness 1 must propagate inward one hop per round,
        // the classic worst-ish case for the synchronous variant.
        let g = regular::path(64);
        let d = core_decomposition(&g);
        let h = hindex_core_decomposition(&g);
        assert_eq!(h.coreness, d.coreness_slice());
        assert!(h.rounds >= 16, "rounds = {}", h.rounds);
    }

    #[test]
    fn empty_and_isolated() {
        let h = hindex_core_decomposition(&bestk_graph::CsrGraph::empty(0));
        assert!(h.coreness.is_empty());
        let h = hindex_core_decomposition(&bestk_graph::CsrGraph::empty(5));
        assert_eq!(h.coreness, vec![0; 5]);
        assert_eq!(h.rounds, 1);
    }
}
