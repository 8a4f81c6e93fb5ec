//! Triangle and triplet counting primitives.
//!
//! `triangle_totals` is the one triangle/triplet kernel behind both
//! optimal profiles (Algorithm 3's per-k sets and Algorithm 5's per-core
//! forest nodes): it attributes every triangle and every triplet to one
//! core level and one forest node, and the profiles aggregate those totals
//! (suffix sums over levels, children-first sums over the forest). The
//! whole-graph counters below serve the baselines, tests, and the ablation
//! benches. All triangle counters are `O(m^1.5)` \[Latapy 2008, paper
//! reference 35\].

use bestk_exec::{prefix_sum, ExecPolicy};
use bestk_graph::cast;
use bestk_graph::{GraphView, VertexId};

use crate::forest::CoreForest;
use crate::ordering::OrderedGraph;

/// Triangle and triplet counts attributed to core levels and forest nodes
/// by [`triangle_totals`].
///
/// A triangle belongs to the level `k` and the forest node of its
/// minimum-rank vertex `v`: all three vertices have coreness at least
/// `c(v) = k` and are connected through `v`, so the triangle lies in a
/// core exactly when `v` does. A triplet (a path of length 2 centered at
/// `w`) belongs to the level of its lowest-coreness vertex and to the
/// forest node of that level's component around `w`, by the same argument.
/// Summing the levels `≥ k` gives the k-core set's counts; summing a
/// node's subtree gives its core's counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TriangleTotals {
    /// Per level `k = 0 ..= kmax`: triangles whose minimum-rank vertex has
    /// coreness `k`.
    pub level_triangles: Vec<u64>,
    /// Per level: triplets whose lowest-coreness vertex has coreness `k`.
    pub level_triplets: Vec<u64>,
    /// Per forest node: triangles whose minimum-rank vertex lies in the
    /// node. Empty when no forest was given.
    pub node_triangles: Vec<u64>,
    /// Per forest node: triplets credited to the node. Empty when no
    /// forest was given.
    pub node_triplets: Vec<u64>,
}

/// The shared triangle/triplet kernel of Algorithms 3 and 5: per-level
/// totals always, per-node totals when `forest` is given.
///
/// * **Triangles** — for every vertex `v`, count the triangles whose
///   minimum-rank vertex is `v` (Algorithm 3 lines 7–12 for one `v`: mark
///   `N(v, >r)`, probe each `N(u, >r)`). The per-vertex counts are
///   independent, so they run as weight-balanced chunks under `policy`,
///   each worker with its own marker bitset, into one `u64` per vertex.
/// * **Triplets** — one `O(m)` walk: `w` adds `C(|N(w, ≥)|, 2)` at its own
///   level, and at each lower level `k` where it has `eq` neighbours of
///   coreness `k` and `gt` above `k`, it adds `C(gt + eq, 2) − C(gt, 2)` —
///   Algorithm 3's `C(eq, 2) + gt·eq` — credited to the node of those `eq`
///   neighbours (they all lie in the k-core component containing `w`).
///
/// Every total is an integer sum, so the result is identical at every
/// thread count. `O(m^1.5)` time; besides the `O(kmax + #nodes)` totals,
/// `8n` bytes for the per-vertex counts plus an `n`-bit marker per worker.
pub(crate) fn triangle_totals(
    o: &OrderedGraph<'_>,
    forest: Option<&CoreForest>,
    policy: &ExecPolicy,
) -> TriangleTotals {
    let _span = bestk_obs::span!("phase.triangles");
    let d = o.decomposition();
    let levels = d.kmax() as usize + 1;
    let nodes = forest.map_or(0, CoreForest::node_count);
    let mut totals = TriangleTotals {
        level_triangles: vec![0; levels],
        level_triplets: vec![0; levels],
        node_triangles: vec![0; nodes],
        node_triplets: vec![0; nodes],
    };
    let by_rank = d.vertices_by_coreness();
    let per_vertex = triangles_by_min_rank(o, by_rank, policy);
    for (&v, &count) in by_rank.iter().zip(&per_vertex) {
        if count == 0 {
            continue;
        }
        totals.level_triangles[d.coreness(v) as usize] += count;
        if let Some(f) = forest {
            totals.node_triangles[f.node_of(v) as usize] += count;
        }
    }
    drop(per_vertex);
    for w in o.vertices() {
        let own = choose2(o.count_ge(w) as u64);
        totals.level_triplets[d.coreness(w) as usize] += own;
        if let Some(f) = forest {
            totals.node_triplets[f.node_of(w) as usize] += own;
        }
        // `N(w, <)` is rank-sorted, so equal-coreness neighbours form runs
        // in ascending coreness; everything after a run lies above its level.
        let lower = o.neighbors_lt(w);
        let mut above = o.count_ge(w);
        let mut end = lower.len();
        while end > 0 {
            let k = d.coreness(lower[end - 1]);
            let mut start = end - 1;
            while start > 0 && d.coreness(lower[start - 1]) == k {
                start -= 1;
            }
            let eq = (end - start) as u64;
            let gt = above as u64;
            let amount = choose2(eq) + gt * eq;
            totals.level_triplets[k as usize] += amount;
            if let Some(f) = forest {
                totals.node_triplets[f.node_of(lower[start]) as usize] += amount;
            }
            above += end - start;
            end = start;
        }
    }
    totals
}

/// `t(v)` for every vertex `v = order[i]`, at index `i`: the number of
/// triangles whose minimum-rank vertex is `v`. Walking the vertices in rank
/// order keeps the probed `N(u, >r)` lists of neighbouring iterations close
/// together. Parallel policies chunk by the `O(m)` cost estimate
/// `|N(v, >r)| + Σ_{u ∈ N(v, >r)} |N(u, >r)|`, so hubs do not serialize a
/// chunk.
fn triangles_by_min_rank(
    o: &OrderedGraph<'_>,
    order: &[VertexId],
    policy: &ExecPolicy,
) -> Vec<u64> {
    let n = o.num_vertices();
    let plan = if policy.is_parallel() {
        policy.plan_weighted(&prefix_sum(order.iter().map(|&v| {
            let up = o.neighbors_gt_rank(v);
            up.len()
                + up.iter()
                    .map(|&u| o.neighbors_gt_rank(u).len())
                    .sum::<usize>()
        })))
    } else {
        policy.plan_even(n)
    };
    let mut per_vertex = vec![0u64; n];
    policy.for_each_disjoint(
        &plan,
        &mut per_vertex,
        plan.bounds(),
        || vec![0u64; n.div_ceil(64)],
        |marked, _, range, out| {
            for (slot, &v) in out.iter_mut().zip(&order[range]) {
                let up = o.neighbors_gt_rank(v);
                if up.len() < 2 {
                    continue;
                }
                for &u in up {
                    marked[u as usize / 64] |= 1 << (u % 64);
                }
                let mut count = 0u64;
                for &u in up {
                    for &w in o.neighbors_gt_rank(u) {
                        count += (marked[w as usize / 64] >> (w % 64)) & 1;
                    }
                }
                for &u in up {
                    marked[u as usize / 64] = 0;
                }
                *slot = count;
            }
        },
    );
    per_vertex
}

/// `C(x, 2)`.
#[inline]
pub(crate) fn choose2(x: u64) -> u64 {
    x * x.saturating_sub(1) / 2
}

/// Naive `(triangles, triplets)` of the subgraph induced by `verts`:
/// materialize it and count by brute force. The test oracle for every
/// per-k and per-core triangle count.
#[cfg(test)]
pub(crate) fn naive_triangles_triplets(
    g: &bestk_graph::CsrGraph,
    verts: &[VertexId],
) -> (u64, u64) {
    let sub = bestk_graph::subgraph::induced_subgraph(g, verts);
    let sg = &sub.graph;
    let mut triangles = 0u64;
    for v in sg.vertices() {
        for &u in sg.neighbors(v) {
            if u <= v {
                continue;
            }
            for &w in sg.neighbors(u) {
                if w > u && sg.has_edge(v, w) {
                    triangles += 1;
                }
            }
        }
    }
    let triplets = sg.vertices().map(|v| choose2(sg.degree(v) as u64)).sum();
    (triangles, triplets)
}

/// Counts the triangles of `g` with the forward algorithm over a
/// degree-descending total order: each triangle is found exactly once at its
/// lowest-ordered vertex. `O(m^1.5)` time, `O(n)` space.
///
/// Needs no core decomposition, which is what makes it the right primitive
/// for the baseline's per-k-core-set recounts.
pub fn count_triangles<G: GraphView>(g: &G) -> u64 {
    let n = g.num_vertices();
    // Order: degree descending, ties by id; position in this order.
    let mut order: Vec<VertexId> = (0..cast::vertex_id(n)).collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    let mut pos = vec![0u32; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v as usize] = cast::u32_of(i);
    }
    // forward[v]: neighbors of v that come *later* in the order.
    let mut marked = vec![0u32; n];
    let mut stamp = 0u32;
    let mut triangles = 0u64;
    for &v in &order {
        stamp += 1;
        let pv = pos[v as usize];
        for u in g.neighbors(v) {
            if pos[u as usize] > pv {
                marked[u as usize] = stamp;
            }
        }
        for u in g.neighbors(v) {
            if pos[u as usize] > pv {
                for w in g.neighbors(u) {
                    if pos[w as usize] > pos[u as usize] && marked[w as usize] == stamp {
                        triangles += 1;
                    }
                }
            }
        }
    }
    triangles
}

/// [`count_triangles`] under an execution policy: the degree-descending
/// outer loop is split into edge-balanced chunks on the shared runtime,
/// each worker carrying its own marker array. The count is exactly that of
/// the sequential version at every thread count (each outer vertex's
/// contribution is independent, and the per-chunk partials are summed in
/// chunk order).
pub fn count_triangles_with<G: GraphView + Sync>(g: &G, policy: &ExecPolicy) -> u64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    if !policy.is_parallel() {
        return count_triangles(g);
    }
    let mut order: Vec<VertexId> = (0..cast::vertex_id(n)).collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    let mut pos = vec![0u32; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v as usize] = cast::u32_of(i);
    }
    // Edge-balanced chunking: the cost of outer vertex `order[i]` is
    // degree-shaped, so chunk by cumulative degree, not by vertex count.
    let prefix = prefix_sum(order.iter().map(|&v| g.degree(v)));
    let plan = policy.plan_weighted(&prefix);
    let order = &order;
    let pos = &pos;
    policy.map_reduce(
        &plan,
        || (vec![0u32; n], 0u32),
        |(marked, stamp), _, range| {
            let mut local = 0u64;
            for &v in &order[range] {
                *stamp += 1;
                let pv = pos[v as usize];
                for u in g.neighbors(v) {
                    if pos[u as usize] > pv {
                        marked[u as usize] = *stamp;
                    }
                }
                for u in g.neighbors(v) {
                    if pos[u as usize] > pv {
                        for w in g.neighbors(u) {
                            if pos[w as usize] > pos[u as usize] && marked[w as usize] == *stamp {
                                local += 1;
                            }
                        }
                    }
                }
            }
            local
        },
        0u64,
        |acc, part| acc + part,
    )
}

/// Parallel version of [`count_triangles`] with an explicit thread count —
/// a thin wrapper over [`count_triangles_with`] kept for callers that think
/// in threads rather than policies. Small graphs run sequentially (worker
/// spawning would dominate).
pub fn count_triangles_parallel<G: GraphView + Sync>(g: &G, threads: usize) -> u64 {
    if g.num_vertices() < 1024 {
        return count_triangles(g);
    }
    let policy = ExecPolicy::with_threads(threads.max(1)).unwrap_or(ExecPolicy::Sequential);
    count_triangles_with(g, &policy)
}

/// Counts the triplets of `g`: `Σ_v C(d(v), 2)`. `O(n)`.
pub fn count_triplets<G: GraphView>(g: &G) -> u64 {
    g.vertices()
        .map(|v| {
            let d = g.degree(v) as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum()
}

/// Counts triangles using the rank order and `N(·, >r)` slices with a marker
/// — the strategy of `triangle_totals` (Algorithm 3's), summed over all
/// vertices and run sequentially; exposed for testing and benchmarking
/// against [`count_triangles`].
pub fn count_triangles_ordered(o: &OrderedGraph<'_>) -> u64 {
    let by_rank = o.decomposition().vertices_by_coreness();
    triangles_by_min_rank(o, by_rank, &ExecPolicy::Sequential)
        .iter()
        .sum()
}

/// The paper's literal strategy (Algorithm 3 lines 8-12): for each rank-
/// increasing edge `(v, u)`, intersect the two `N(·, >r)` lists, scanning
/// the shorter one and merge-probing the other (both are rank-sorted).
/// Exposed as an ablation comparator for [`count_triangles_ordered`].
pub fn count_triangles_merge(o: &OrderedGraph<'_>) -> u64 {
    let mut triangles = 0u64;
    for v in o.vertices() {
        for &u in o.neighbors_gt_rank(v) {
            let (a, b) = {
                let (x, y) = if o.degree(u) > o.degree(v) {
                    (v, u)
                } else {
                    (u, v)
                };
                (o.neighbors_gt_rank(x), o.neighbors_gt_rank(y))
            };
            triangles += sorted_intersection_size(o, a, b);
        }
    }
    triangles
}

/// Size of the intersection of two rank-sorted neighbor slices.
fn sorted_intersection_size(o: &OrderedGraph<'_>, a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        if a[i] == b[j] {
            count += 1;
            i += 1;
            j += 1;
        } else if o.rank_gt(b[j], a[i]) {
            i += 1;
        } else {
            j += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::core_decomposition;
    use bestk_graph::generators::{self, regular};
    use bestk_graph::CsrGraph;

    fn brute_force(g: &CsrGraph) -> u64 {
        let mut t = 0u64;
        for (u, v) in g.edges() {
            for &w in g.neighbors(v) {
                if w > v && g.has_edge(u, w) {
                    t += 1;
                }
            }
        }
        t
    }

    #[test]
    fn known_counts() {
        assert_eq!(count_triangles(&regular::complete(4)), 4);
        assert_eq!(count_triangles(&regular::complete(6)), 20);
        assert_eq!(count_triangles(&regular::cycle(10)), 0);
        assert_eq!(count_triangles(&regular::star(8)), 0);
        assert_eq!(count_triangles(&generators::paper_figure2()), 10);
        assert_eq!(count_triangles(&CsrGraph::empty(5)), 0);
    }

    #[test]
    fn triplet_counts() {
        assert_eq!(count_triplets(&regular::complete(4)), 4 * 3);
        assert_eq!(count_triplets(&regular::star(5)), 10);
        assert_eq!(count_triplets(&regular::cycle(6)), 6);
        // Example 5: the whole Figure 2 graph has 45 triplets.
        assert_eq!(count_triplets(&generators::paper_figure2()), 45);
    }

    #[test]
    fn all_three_counters_agree_with_brute_force() {
        for seed in 0..5 {
            let g = generators::erdos_renyi_gnm(70, 320, seed);
            let expected = brute_force(&g);
            assert_eq!(count_triangles(&g), expected, "forward, seed {seed}");
            let d = core_decomposition(&g);
            let o = OrderedGraph::build(&g, &d);
            assert_eq!(
                count_triangles_ordered(&o),
                expected,
                "ordered, seed {seed}"
            );
            assert_eq!(count_triangles_merge(&o), expected, "merge, seed {seed}");
        }
    }

    #[test]
    fn counters_agree_on_dense_graphs() {
        let g = generators::overlapping_cliques(150, 25, (4, 10), 3);
        let expected = brute_force(&g);
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        assert_eq!(count_triangles(&g), expected);
        assert_eq!(count_triangles_ordered(&o), expected);
        assert_eq!(count_triangles_merge(&o), expected);
    }

    #[test]
    fn policy_counter_matches_sequential_on_generated_graphs() {
        bestk_graph::testkit::check("triangles_policy_equals_sequential", 24, |gen| {
            let g = gen.graph(60, 300);
            let expected = count_triangles(&g);
            assert_eq!(count_triangles_with(&g, &ExecPolicy::Sequential), expected);
            for threads in [1, 2, 4, 7] {
                let policy = ExecPolicy::with_threads(threads).unwrap();
                assert_eq!(
                    count_triangles_with(&g, &policy),
                    expected,
                    "{threads} threads"
                );
            }
        });
    }

    #[test]
    fn parallel_counter_matches_sequential() {
        for (g, label) in [
            (generators::chung_lu_power_law(3000, 10.0, 2.4, 7), "cl"),
            (
                generators::overlapping_cliques(800, 120, (4, 12), 9),
                "cliques",
            ),
            (regular::complete(40), "k40"),
            (CsrGraph::empty(10), "empty"),
        ] {
            let expected = count_triangles(&g);
            for threads in [1, 2, 4, 7] {
                assert_eq!(
                    count_triangles_parallel(&g, threads),
                    expected,
                    "{label} with {threads} threads"
                );
            }
        }
        assert_eq!(count_triangles_parallel(&CsrGraph::empty(0), 4), 0);
    }
}
