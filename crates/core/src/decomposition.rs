//! Core decomposition (paper §II-A) by the Batagelj–Zaveršnik peel.
//!
//! Peeling repeatedly removes a vertex of minimum current degree; the
//! level being peeled when a vertex is removed is its *coreness*.
//! [`core_decomposition`] is the `O(n + m)` bin-sort peel of Batagelj &
//! Zaveršnik, "An O(m) Algorithm for Cores Decomposition of Networks".
//! It is sequential and deterministic; parallelism lives downstream
//! (ordering tags, triangles, sweeps), so every artifact built from a
//! decomposition is identical at every thread count. See DESIGN.md §17.

use bestk_exec::ExecPolicy;
use bestk_graph::cast;
use bestk_graph::{GraphView, VertexId};

/// The result of a core decomposition: every vertex's coreness plus the
/// vertex ordering the paper's algorithms build on.
///
/// Vertices are stored bin-sorted by coreness (ascending, ties by id), so the
/// vertex set of any k-core set `C_k` is a contiguous *suffix* of
/// [`vertices_by_coreness`](Self::vertices_by_coreness) — retrieving it is
/// `O(|V(C_k)|)`, exactly the baseline's §III-A retrieval step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDecomposition {
    coreness: Vec<u32>,
    kmax: u32,
    /// Vertices sorted by (coreness, id) ascending.
    order: Vec<VertexId>,
    /// Vertices in peel order (a degeneracy ordering).
    peel_order: Vec<VertexId>,
    /// `shell_start[k]..shell_start[k + 1]` indexes the k-shell `H_k` inside
    /// `order`. Length `kmax + 2`.
    shell_start: Vec<usize>,
}

impl CoreDecomposition {
    /// Coreness `c(v)` (paper Def. 3).
    #[inline]
    pub fn coreness(&self, v: VertexId) -> u32 {
        self.coreness[v as usize]
    }

    /// The full coreness array, indexed by vertex id.
    #[inline]
    pub fn coreness_slice(&self) -> &[u32] {
        &self.coreness
    }

    /// The degeneracy `kmax`: largest `k` with a non-empty k-core.
    #[inline]
    pub fn kmax(&self) -> u32 {
        self.kmax
    }

    /// All vertices sorted by `(coreness, id)` ascending — the paper's vertex
    /// rank order (Def. 5).
    #[inline]
    pub fn vertices_by_coreness(&self) -> &[VertexId] {
        &self.order
    }

    /// The k-shell `H_k = {v | c(v) = k}` as a sorted-by-id slice.
    #[inline]
    pub fn shell(&self, k: u32) -> &[VertexId] {
        if k > self.kmax {
            return &[];
        }
        let k = k as usize;
        &self.order[self.shell_start[k]..self.shell_start[k + 1]]
    }

    /// The vertex set of the k-core set `C_k` (all vertices with coreness
    /// ≥ k), as the suffix of the rank order; `O(1)` to obtain.
    #[inline]
    pub fn core_set_vertices(&self, k: u32) -> &[VertexId] {
        if k > self.kmax {
            return &[];
        }
        &self.order[self.shell_start[k as usize]..]
    }

    /// Number of vertices in the k-core set.
    #[inline]
    pub fn core_set_size(&self, k: u32) -> usize {
        self.core_set_vertices(k).len()
    }

    /// Number of vertices in the graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.coreness.len()
    }

    /// The peeling order — a true *degeneracy ordering*: when vertex `v` is
    /// peeled, at most `c(v)` of its neighbors are still unpeeled (i.e.
    /// appear later in this order), and coreness is non-decreasing along
    /// it. Useful for branch-and-bound algorithms such as maximum clique
    /// (paper §V-D). Only these properties are part of the contract; the
    /// order among equal-coreness vertices is whatever the peel produced.
    #[inline]
    pub fn peel_ordering(&self) -> &[VertexId] {
        &self.peel_order
    }

    /// The shell boundary array: `shell_starts()[k]..shell_starts()[k + 1]`
    /// indexes the k-shell inside
    /// [`vertices_by_coreness`](Self::vertices_by_coreness). Length
    /// `kmax + 2`.
    #[inline]
    pub fn shell_starts(&self) -> &[usize] {
        &self.shell_start
    }
}

/// Bin-sorts `coreness` into the (coreness, id) rank order with shell
/// boundaries (stable in id because vertices are scanned ascending) — the
/// §III-A ordering — and assembles the final decomposition.
fn assemble(coreness: Vec<u32>, kmax: u32, peel_order: Vec<VertexId>) -> CoreDecomposition {
    let n = coreness.len();
    let mut shell_start = vec![0usize; kmax as usize + 2];
    for &c in &coreness {
        shell_start[c as usize + 1] += 1;
    }
    for k in 0..=kmax as usize {
        shell_start[k + 1] += shell_start[k];
    }
    let mut order: Vec<VertexId> = vec![0; n];
    let mut cursor = shell_start.clone();
    for (v, &c) in coreness.iter().enumerate() {
        let c = c as usize;
        order[cursor[c]] = cast::vertex_id(v);
        cursor[c] += 1;
    }
    CoreDecomposition {
        coreness,
        kmax,
        order,
        peel_order,
        shell_start,
    }
}

/// The Batagelj–Zaveršnik peel: `O(n + m)` time, `O(n)` extra space.
///
/// Vertices are counting-sorted by degree into `vert` (bucket `d` starts
/// at `bin[d]`; `pos` inverts `vert`) and processed front to back. When
/// `v` is processed, every neighbor `u` still in a higher bucket drops one
/// bucket: it swaps with the first vertex of its bucket and the bucket
/// start moves past it. A processed vertex's bucket is its coreness, and
/// the processing sequence is [`peel_ordering`](CoreDecomposition::peel_ordering).
pub fn core_decomposition<G: GraphView>(g: &G) -> CoreDecomposition {
    let _span = bestk_obs::span!("phase.peel");
    let n = g.num_vertices();
    // `cur[v]`: v's bucket — an upper bound on its unprocessed neighbors
    // while v waits, its coreness once processed.
    let mut cur: Vec<u32> = (0..n)
        .map(|v| cast::u32_of(g.degree(cast::vertex_id(v))))
        .collect();
    let top = cur.iter().copied().max().unwrap_or(0) as usize;
    let mut bin = vec![0usize; top + 1];
    for &c in &cur {
        bin[c as usize] += 1;
    }
    let mut start = 0;
    for slot in &mut bin {
        let size = *slot;
        *slot = start;
        start += size;
    }
    let mut vert: Vec<VertexId> = vec![0; n];
    let mut pos: Vec<u32> = vec![0; n];
    let mut fill = bin.clone();
    for (v, &c) in cur.iter().enumerate() {
        let at = &mut fill[c as usize];
        vert[*at] = cast::vertex_id(v);
        pos[v] = cast::u32_of(*at);
        *at += 1;
    }
    for i in 0..n {
        let v = vert[i];
        let cv = cur[v as usize];
        for u in g.neighbors(v) {
            let uu = u as usize;
            let cu = cur[uu];
            if cu > cv {
                let front = bin[cu as usize];
                let w = vert[front];
                let at = pos[uu];
                vert[at as usize] = w;
                pos[w as usize] = at;
                vert[front] = u;
                pos[uu] = cast::u32_of(front);
                bin[cu as usize] += 1;
                cur[uu] = cu - 1;
            }
        }
    }
    // Buckets are processed in non-decreasing order, so the last vertex
    // carries the largest coreness.
    let kmax = vert.last().map_or(0, |&v| cur[v as usize]);
    assemble(cur, kmax, vert)
}

/// [`core_decomposition`] with an execution policy, kept for callers that
/// thread one through. The peel is sequential, so the policy is unused;
/// the output is the same at every thread count.
pub fn core_decomposition_with<G: GraphView + Sync>(
    g: &G,
    _policy: &ExecPolicy,
) -> CoreDecomposition {
    core_decomposition(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_graph::generators::{self, regular};
    use bestk_graph::GraphBuilder;

    #[test]
    fn paper_figure2_coreness() {
        // Example 2: v5, v6, v7, v8 have coreness 2; the rest coreness 3.
        let g = generators::paper_figure2();
        let d = core_decomposition(&g);
        assert_eq!(d.kmax(), 3);
        for v in [4u32, 5, 6, 7] {
            assert_eq!(d.coreness(v), 2, "v{}", v + 1);
        }
        for v in [0u32, 1, 2, 3, 8, 9, 10, 11] {
            assert_eq!(d.coreness(v), 3, "v{}", v + 1);
        }
    }

    #[test]
    fn paper_figure2_shells_and_core_sets() {
        let g = generators::paper_figure2();
        let d = core_decomposition(&g);
        assert_eq!(d.shell(2), &[4, 5, 6, 7]);
        assert_eq!(d.shell(3), &[0, 1, 2, 3, 8, 9, 10, 11]);
        assert!(d.shell(0).is_empty());
        assert!(d.shell(1).is_empty());
        assert!(d.shell(4).is_empty());
        assert_eq!(d.core_set_size(3), 8);
        assert_eq!(d.core_set_size(2), 12);
        assert_eq!(d.core_set_size(0), 12);
        assert!(d.core_set_vertices(4).is_empty());
        assert!(d.core_set_vertices(99).is_empty());
    }

    #[test]
    fn complete_graph_coreness() {
        let g = regular::complete(7);
        let d = core_decomposition(&g);
        assert_eq!(d.kmax(), 6);
        assert!(g.vertices().all(|v| d.coreness(v) == 6));
    }

    #[test]
    fn cycle_and_path_and_star() {
        let d = core_decomposition(&regular::cycle(10));
        assert_eq!(d.kmax(), 2);
        assert!((0..10).all(|v| d.coreness(v) == 2));

        let d = core_decomposition(&regular::path(10));
        assert_eq!(d.kmax(), 1);

        let d = core_decomposition(&regular::star(9));
        assert_eq!(d.kmax(), 1);
        assert!((0..10).all(|v| d.coreness(v) == 1));
    }

    #[test]
    fn isolated_vertices_have_coreness_zero() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.reserve_vertices(4);
        let d = core_decomposition(&b.build());
        assert_eq!(d.coreness(0), 1);
        assert_eq!(d.coreness(2), 0);
        assert_eq!(d.coreness(3), 0);
        assert_eq!(d.shell(0), &[2, 3]);
        assert_eq!(d.kmax(), 1);
    }

    #[test]
    fn empty_graph() {
        let d = core_decomposition(&bestk_graph::CsrGraph::empty(0));
        assert_eq!(d.kmax(), 0);
        assert_eq!(d.num_vertices(), 0);
        assert!(d.core_set_vertices(0).is_empty());
    }

    #[test]
    fn clique_chain_coreness() {
        let g = regular::clique_chain(3, 5);
        let d = core_decomposition(&g);
        assert_eq!(d.kmax(), 4);
        assert!(g.vertices().all(|v| d.coreness(v) == 4));
    }

    #[test]
    fn order_is_sorted_by_coreness_then_id() {
        let g = generators::erdos_renyi_gnm(300, 1200, 3);
        let d = core_decomposition(&g);
        let order = d.vertices_by_coreness();
        assert_eq!(order.len(), 300);
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            let key = |v: u32| (d.coreness(v), v);
            assert!(
                key(a) < key(b),
                "order not strictly sorted by (coreness, id)"
            );
        }
    }

    #[test]
    fn peel_order_on_fixed_shapes() {
        // Pinned because v1 snapshots persist the peel order: changing it
        // changes their bytes. A cycle is one bucket, processed by id.
        let d = core_decomposition(&regular::cycle(6));
        assert_eq!(d.peel_ordering(), &[0, 1, 2, 3, 4, 5]);

        // A star peels all leaves first; the hub follows at level 1.
        let d = core_decomposition(&regular::star(4));
        assert_eq!(d.peel_ordering(), &[1, 2, 3, 4, 0]);

        // A path peels both endpoints, then drops their inner neighbors
        // into the level-1 bucket and works inward from both ends.
        let d = core_decomposition(&regular::path(6));
        assert_eq!(d.peel_ordering(), &[0, 5, 1, 4, 2, 3]);
    }

    /// Definitional check: c(v) ≥ k iff v survives peeling to min degree k.
    fn naive_coreness(g: &bestk_graph::CsrGraph) -> Vec<u32> {
        let n = g.num_vertices();
        let mut coreness = vec![0u32; n];
        let mut alive = vec![true; n];
        for k in 1..=n as u32 {
            // Peel vertices with degree < k among alive ones.
            loop {
                let mut removed = false;
                for v in 0..n {
                    if alive[v] {
                        let deg = g
                            .neighbors(v as VertexId)
                            .iter()
                            .filter(|&&u| alive[u as usize])
                            .count();
                        if (deg as u32) < k {
                            alive[v] = false;
                            removed = true;
                        }
                    }
                }
                if !removed {
                    break;
                }
            }
            for v in 0..n {
                if alive[v] {
                    coreness[v] = k;
                }
            }
            if alive.iter().all(|&a| !a) {
                break;
            }
        }
        coreness
    }

    #[test]
    fn matches_naive_peeling_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::erdos_renyi_gnm(60, 150, seed);
            let d = core_decomposition(&g);
            assert_eq!(d.coreness_slice(), &naive_coreness(&g)[..], "seed {seed}");
        }
    }

    #[test]
    fn matches_naive_peeling_on_deep_shells() {
        // Many levels: the shapes where a per-level rescan would cost
        // `n·kmax`, and where bucket moves cross the most boundaries.
        for (name, g) in [
            ("k-chain", generators::k_chain(12)),
            ("shell-ladder", generators::shell_ladder(6, 8)),
        ] {
            let d = core_decomposition(&g);
            assert_eq!(d.coreness_slice(), &naive_coreness(&g)[..], "{name}");
        }
    }

    #[test]
    fn peel_ordering_is_a_degeneracy_ordering() {
        for (name, g) in [
            ("cl", generators::chung_lu_power_law(400, 8.0, 2.4, 10)),
            ("er", generators::erdos_renyi_gnm(300, 1500, 4)),
        ] {
            let d = core_decomposition(&g);
            let peel = d.peel_ordering();
            assert_eq!(peel.len(), g.num_vertices());
            let mut position = vec![0usize; g.num_vertices()];
            for (i, &v) in peel.iter().enumerate() {
                position[v as usize] = i;
            }
            for v in g.vertices() {
                let later = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| position[u as usize] > position[v as usize])
                    .count();
                assert!(
                    later <= d.coreness(v) as usize,
                    "{name}: vertex {v} has {later} later neighbors > c(v) {}",
                    d.coreness(v)
                );
            }
        }
    }

    #[test]
    fn later_rank_neighbors_have_geq_coreness() {
        // In the (coreness, id) rank order, every neighbor appearing later
        // than v has coreness >= c(v) — the property Algorithm 3's triangle
        // attribution relies on.
        let g = generators::chung_lu_power_law(500, 8.0, 2.4, 10);
        let d = core_decomposition(&g);
        let mut position = vec![0usize; g.num_vertices()];
        for (i, &v) in d.vertices_by_coreness().iter().enumerate() {
            position[v as usize] = i;
        }
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                if position[u as usize] > position[v as usize] {
                    assert!(d.coreness(u) >= d.coreness(v));
                }
            }
        }
    }
}
