//! [`DeltaIndex`]: the paper's best-k index, maintained incrementally.
//!
//! A from-scratch pipeline run (peel → Alg. 1 order/tags → Alg. 2 sweep)
//! costs `O(m)` per query graph. This module keeps every piece of that
//! state — coreness, the `(coreness, id)` shell order, the per-vertex
//! `(same, plus, high)` position tags, and the per-`k` primary values —
//! valid across single-edge inserts and deletes in time proportional to
//! the *affected region*, not the graph:
//!
//! 1. **Coreness** by order-based maintenance (Zhang, Yu, Zhang, Qin,
//!    "A Fast Order-Based Approach for Core Maintenance", ICDE 2017). The
//!    index keeps a *k-order* ([`KOrder`]): a degeneracy order in which
//!    every vertex has at most `c(v)` neighbors after it, laid out shell by
//!    shell. An insert `{u, v}` with `u` first in the order raises `u`'s
//!    later-neighbor count; if that stays `<= K = c(u)` no coreness moves.
//!    Otherwise only the vertices of `O_K` after `u` that gain a candidate
//!    neighbor are visited, in order, and the survivors `C` rise to
//!    `K + 1`. A delete cascades from the endpoints through
//!    `mcd(v) = |{w ∈ N(v): c(w) >= c(v)}|`: vertices left with
//!    `mcd < K` fall to `K - 1`. Either way `C` moves between two adjacent
//!    shells, each vertex by exactly 1 (Montresor et al., `PAPERS.md`).
//! 2. **Order and tags**: the `(coreness, id)` order is repaired with one
//!    span rewrite between two shell boundaries. Adjacency lists (kept in
//!    rank order, exactly the Alg. 1 scatter layout) and `(s, p, h)` tags
//!    are recomputed only for `{u, v} ∪ C ∪ N(C)`.
//! 3. **Primaries** (Alg. 2): each shell keeps the sum of its vertices'
//!    sweep contributions, updated for `{u, v} ∪ C ∪ N(C)` only; the
//!    primaries of the dirty levels `hi..0` (`hi = max` of the endpoints'
//!    old and new coreness) are their suffix sums, `O(kmax)`.
//!
//! Every observable structure is bit-identical to a from-scratch rebuild
//! after every op (`DeltaIndex`'s `PartialEq` compares all of it and skips
//! only the k-order, whose labels and tie order are the one internal
//! freedom, and per-op scratch); the full pipeline stays in the tree as the
//! oracle, and [`DeltaIndex::check_k_order`] checks the order itself.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bestk_core::bestkset::core_set_primaries;
use bestk_core::{
    core_decomposition, BestKSet, CoreSetProfile, GraphContext, Metric, MetricError, OrderedGraph,
    PrimaryValues,
};
use bestk_exec::ExecPolicy;
use bestk_graph::generators::EdgeOp;
use bestk_graph::{cast, CsrGraph, GraphView, VertexId};

use crate::korder::{KOrder, NIL};
use crate::DeltaError;

/// What one applied op touched (observability + test assertions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyStats {
    /// `|C|`: vertices whose coreness changed (by exactly 1).
    pub changed_vertices: usize,
    /// Number of `k`-levels the dirty-range sweep recomputed.
    pub recomputed_levels: u32,
    /// Vertices the coreness maintenance examined: the endpoints plus
    /// every vertex the insert pass queued or the delete cascade reached.
    pub visited: usize,
}

/// One shell's summed Alg. 2 sweep contributions: its vertex count, its
/// vertices' `2·|N_>| + |N_=|` (twice their internal-edge share), and
/// their `|N_<| − |N_>|` (boundary-edge share).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ShellSum {
    num: u64,
    in_twice: u64,
    out: i64,
}

/// Per-vertex state of the maintenance pass in flight: not reached yet.
const FRESH: u8 = 0;
/// Insert: in the frontier heap, waiting to be visited.
const QUEUED: u8 = 1;
/// Insert: may rise to `K + 1`.
const CANDIDATE: u8 = 2;
/// Insert: visited (or evicted as a candidate) and stays at `K`.
const STAYS: u8 = 3;
/// Delete: falls to `K − 1`.
const FALLEN: u8 = 4;

/// Epoch-stamped per-vertex scratch for one op: a vertex whose stamp is
/// not the current epoch reads as `FRESH` with zero counts, so starting
/// an op is `O(1)` instead of an `O(n)` clear.
#[derive(Debug, Clone, Default)]
struct Scratch {
    epoch: u32,
    stamp: Vec<u32>,
    state: Vec<u8>,
    /// Insert: the vertex's neighbors that may still end up after it in
    /// the k-order — candidates before it (`dstar`) plus, once it is a
    /// candidate itself, its later neighbors not yet known to stay
    /// (`dplus`). Only the sum decides anything, so only the sum is kept.
    support: Vec<u32>,
    /// Vertices stamped in this op.
    touched: usize,
    heap: BinaryHeap<Reverse<(u32, VertexId)>>,
    stack: Vec<VertexId>,
}

impl Scratch {
    fn new(n: usize) -> Scratch {
        Scratch {
            stamp: vec![0; n],
            state: vec![FRESH; n],
            support: vec![0; n],
            ..Scratch::default()
        }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.touched = 0;
        self.heap.clear();
        self.stack.clear();
    }

    fn touch(&mut self, v: VertexId) {
        let i = v as usize;
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.state[i] = FRESH;
            self.support[i] = 0;
            self.touched += 1;
        }
    }

    fn state(&self, v: VertexId) -> u8 {
        let i = v as usize;
        if self.stamp[i] == self.epoch {
            self.state[i]
        } else {
            FRESH
        }
    }

    /// Takes one from candidate `w`'s support, evicting it if the support
    /// no longer exceeds `k`.
    fn weaken(&mut self, w: VertexId, k: u32, anchor: VertexId, out: &mut Vec<Evicted>) {
        let i = w as usize;
        self.support[i] -= 1;
        if self.support[i] <= k {
            self.state[i] = STAYS;
            self.stack.push(w);
            out.push(Evicted { anchor, vertex: w });
        }
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.stamp.capacity() * size_of::<u32>()
            + self.state.capacity()
            + self.support.capacity() * size_of::<u32>()
            + self.heap.capacity() * size_of::<Reverse<(u32, VertexId)>>()
            + self.stack.capacity() * size_of::<VertexId>()
    }
}

/// An evicted candidate and the visited vertex whose staying evicted it;
/// the k-order re-inserts it right after that anchor.
#[derive(Debug, Clone, Copy)]
struct Evicted {
    anchor: VertexId,
    vertex: VertexId,
}

/// The incrementally maintained best-k index. See the module docs.
#[derive(Debug, Clone)]
pub struct DeltaIndex {
    n: usize,
    m: usize,
    /// Per-vertex adjacency in ascending `(coreness, id)` order — the
    /// Alg. 1 scatter layout, kept sorted across mutations.
    adj: Vec<Vec<VertexId>>,
    coreness: Vec<u32>,
    kmax: u32,
    /// All vertices in ascending `(coreness, id)` order.
    order: Vec<VertexId>,
    /// `order` positions of shell `k`: `shell_start[k]..shell_start[k+1]`,
    /// length `kmax + 2`.
    shell_start: Vec<usize>,
    /// Alg. 1 position tags, relative to each vertex's list start, with
    /// the vertex degree as the "no qualifying neighbor" sentinel.
    same: Vec<u32>,
    plus: Vec<u32>,
    high: Vec<u32>,
    /// Alg. 2 primary values per `k`, length `kmax + 1`.
    primaries: Vec<PrimaryValues>,
    /// `mcd[v]`: neighbors of `v` with coreness `>= c(v)`.
    mcd: Vec<u32>,
    /// Per-shell sweep contribution sums, length `kmax + 1`.
    shell_sums: Vec<ShellSum>,
    /// The maintained degeneracy order.
    korder: KOrder,
    scratch: Scratch,
}

impl PartialEq for DeltaIndex {
    /// Every observable field; the k-order and the scratch are skipped.
    fn eq(&self, other: &DeltaIndex) -> bool {
        self.n == other.n
            && self.m == other.m
            && self.adj == other.adj
            && self.coreness == other.coreness
            && self.kmax == other.kmax
            && self.order == other.order
            && self.shell_start == other.shell_start
            && self.same == other.same
            && self.plus == other.plus
            && self.high == other.high
            && self.primaries == other.primaries
            && self.mcd == other.mcd
            && self.shell_sums == other.shell_sums
    }
}

impl DeltaIndex {
    /// Builds the index from scratch through the paper's pipeline (this is
    /// also the equivalence oracle: applying ops must reproduce `build` of
    /// the mutated graph exactly).
    pub fn build<G: GraphView + Sync>(g: &G) -> DeltaIndex {
        Self::build_with(g, &ExecPolicy::Sequential)
    }

    /// [`build`](Self::build) under an execution policy: the Alg. 1 tag
    /// scan runs on the policy's workers (identical output at every thread
    /// count), which is what the engine's commit-after-eviction rebuild
    /// routes through.
    pub fn build_with<G: GraphView + Sync>(g: &G, policy: &ExecPolicy) -> DeltaIndex {
        let decomp = core_decomposition(g);
        let ordered = OrderedGraph::build_with(g, &decomp, policy);
        let primaries = core_set_primaries(&ordered);
        let n = g.num_vertices();
        let offsets = g.degree_offsets();
        let raw = ordered.raw_adjacency();
        let adj: Vec<Vec<VertexId>> = (0..n)
            .map(|v| raw[offsets[v]..offsets[v + 1]].to_vec())
            .collect();
        let (same, plus, high) = ordered.raw_tags();
        let coreness = decomp.coreness_slice().to_vec();
        let kmax = decomp.kmax();
        let mcd = adj
            .iter()
            .zip(&coreness)
            .map(|(list, &c)| {
                cast::u32_of(list.iter().filter(|&&x| coreness[x as usize] >= c).count())
            })
            .collect();
        let korder = KOrder::from_sequence(&coreness, kmax, decomp.peel_ordering());
        let mut index = DeltaIndex {
            n,
            m: g.num_edges(),
            adj,
            coreness,
            kmax,
            order: decomp.vertices_by_coreness().to_vec(),
            shell_start: decomp.shell_starts().to_vec(),
            same: same.to_vec(),
            plus: plus.to_vec(),
            high: high.to_vec(),
            primaries,
            mcd,
            shell_sums: vec![ShellSum::default(); kmax as usize + 1],
            korder,
            scratch: Scratch::new(n),
        };
        for w in 0..n {
            index.deposit(cast::vertex_id(w));
        }
        index
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Largest coreness.
    pub fn kmax(&self) -> u32 {
        self.kmax
    }

    /// Approximate heap bytes held by the index: the per-vertex adjacency
    /// lists, every order/tag/primary vector, the k-order, and the op
    /// scratch. Counts *capacity* (what the allocator actually holds), so
    /// memory-budget accounting sees the true cost of keeping the index
    /// resident.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let adj_inner: usize = self
            .adj
            .iter()
            .map(|l| l.capacity() * size_of::<VertexId>())
            .sum();
        adj_inner
            + self.adj.capacity() * size_of::<Vec<VertexId>>()
            + self.coreness.capacity() * size_of::<u32>()
            + self.order.capacity() * size_of::<VertexId>()
            + self.shell_start.capacity() * size_of::<usize>()
            + (self.same.capacity() + self.plus.capacity() + self.high.capacity())
                * size_of::<u32>()
            + self.primaries.capacity() * size_of::<PrimaryValues>()
            + self.mcd.capacity() * size_of::<u32>()
            + self.shell_sums.capacity() * size_of::<ShellSum>()
            + self.korder.heap_bytes()
            + self.scratch.heap_bytes()
    }

    /// Coreness of `v`.
    pub fn coreness(&self, v: VertexId) -> u32 {
        self.coreness[v as usize]
    }

    /// The vertices of shell `k` (coreness exactly `k`), sorted by id.
    pub fn shell(&self, k: u32) -> &[VertexId] {
        let k = k as usize;
        if k + 1 >= self.shell_start.len() {
            return &[];
        }
        &self.order[self.shell_start[k]..self.shell_start[k + 1]]
    }

    /// Checks the maintained k-order: one sequence per shell `0..=kmax`,
    /// ascending by coreness, holding exactly that shell's vertices with
    /// ascending labels, and every vertex has at most `c(v)` neighbors
    /// after it. Costs `O(n + m)`; for tests and debugging.
    pub fn check_k_order(&self) -> Result<(), String> {
        if self.korder.num_shells() != self.kmax as usize + 1 {
            return Err(format!(
                "k-order has {} shells for kmax {}",
                self.korder.num_shells(),
                self.kmax
            ));
        }
        for (k, seq) in self.korder.check_links()?.iter().enumerate() {
            let mut ids = seq.clone();
            ids.sort_unstable();
            if ids != self.shell(cast::u32_of(k)) {
                return Err(format!("k-order shell {k} does not hold shell {k}"));
            }
        }
        for v in 0..self.n {
            let v = cast::vertex_id(v);
            let later = self.later_count(v);
            if later > self.coreness(v) {
                return Err(format!(
                    "vertex {v}: {later} later neighbors exceed coreness {}",
                    self.coreness(v)
                ));
            }
        }
        Ok(())
    }

    /// Applies one op, returning what it touched.
    pub fn apply(&mut self, op: &EdgeOp) -> Result<ApplyStats, DeltaError> {
        let (u, v) = op.endpoints();
        if op.is_insert() {
            self.apply_insert(u, v)
        } else {
            self.apply_delete(u, v)
        }
    }

    /// Inserts the edge `{u, v}` and repairs every index layer.
    pub fn apply_insert(&mut self, u: VertexId, v: VertexId) -> Result<ApplyStats, DeltaError> {
        let _span = bestk_obs::span!("phase.delta.apply");
        crate::validate_op(self.n, &EdgeOp::Insert(u, v), |a, b| self.has_edge(a, b))?;
        let (old_cu, old_cv) = (self.coreness(u), self.coreness(v));
        self.begin_op(u, v);
        self.adj_insert(u, v);
        self.adj_insert(v, u);
        self.m += 1;
        if old_cv >= old_cu {
            self.mcd[u as usize] += 1;
        }
        if old_cu >= old_cv {
            self.mcd[v as usize] += 1;
        }
        // Only the endpoint first in the k-order gains a later neighbor.
        let first = if self.precedes(u, v) { u } else { v };
        let k = self.coreness(first);
        let changed = if self.later_count(first) > k {
            self.order_insert(first)
        } else {
            Vec::new()
        };
        self.settle(u, v, &changed, k, k + 1);
        let hi = old_cu
            .max(old_cv)
            .max(self.coreness(u))
            .max(self.coreness(v));
        let levels = self.sweep_dirty(hi);
        bestk_obs::counter("delta.inserts").inc();
        bestk_obs::counter("delta.recomputed_levels").add(u64::from(levels));
        Ok(self.stats(changed.len(), levels))
    }

    /// Deletes the edge `{u, v}` and repairs every index layer.
    pub fn apply_delete(&mut self, u: VertexId, v: VertexId) -> Result<ApplyStats, DeltaError> {
        let _span = bestk_obs::span!("phase.delta.apply");
        crate::validate_op(self.n, &EdgeOp::Delete(u, v), |a, b| self.has_edge(a, b))?;
        let (old_cu, old_cv) = (self.coreness(u), self.coreness(v));
        // Both endpoints carry an edge, so both have coreness >= 1.
        let k = old_cu.min(old_cv);
        self.begin_op(u, v);
        self.adj_remove(u, v);
        self.adj_remove(v, u);
        self.m -= 1;
        if old_cv >= old_cu {
            self.mcd[u as usize] -= 1;
        }
        if old_cu >= old_cv {
            self.mcd[v as usize] -= 1;
        }
        let changed = self.order_delete(u, v, k);
        self.settle(u, v, &changed, k, k - 1);
        let levels = self.sweep_dirty(old_cu.max(old_cv));
        bestk_obs::counter("delta.deletes").inc();
        bestk_obs::counter("delta.recomputed_levels").add(u64::from(levels));
        Ok(self.stats(changed.len(), levels))
    }

    /// The maintained Alg. 2 profile (no triangle metrics: those fall back
    /// to the full pipeline — see DESIGN.md §15).
    pub fn profile(&self) -> CoreSetProfile {
        CoreSetProfile {
            kmax: self.kmax,
            primaries: self.primaries.clone(),
            has_triangles: false,
            context: GraphContext {
                total_vertices: self.n as u64,
                total_edges: self.m as u64,
            },
        }
    }

    /// The best `k` under `metric` from the maintained profile.
    pub fn best(&self, metric: Metric) -> Result<Option<BestKSet>, MetricError> {
        self.profile().try_best(&metric)
    }

    /// Materializes the maintained graph as a canonical [`CsrGraph`].
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_adjacency_lists(self.adj.iter().map(Vec::as_slice))
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj[u as usize].contains(&v)
    }

    fn stats(&self, changed_vertices: usize, recomputed_levels: u32) -> ApplyStats {
        ApplyStats {
            changed_vertices,
            recomputed_levels,
            visited: self.scratch.touched,
        }
    }

    /// Opens the op's scratch epoch and takes the endpoints' sweep
    /// contributions out while their tags still match their lists.
    fn begin_op(&mut self, u: VertexId, v: VertexId) {
        self.scratch.begin();
        self.scratch.touch(u);
        self.scratch.touch(v);
        self.retract(u);
        self.retract(v);
    }

    /// Whether `x` comes before `y` in the k-order.
    fn precedes(&self, x: VertexId, y: VertexId) -> bool {
        (self.coreness(x), self.korder.label(x)) < (self.coreness(y), self.korder.label(y))
    }

    /// Neighbors of `x` after it in the k-order.
    fn later_count(&self, x: VertexId) -> u32 {
        cast::u32_of(
            self.adj[x as usize]
                .iter()
                .filter(|&&y| self.precedes(x, y))
                .count(),
        )
    }

    /// The order-based insert pass, entered when `first` — the edge's
    /// endpoint first in the k-order, `K = c(first)` — has more than `K`
    /// later neighbors. Visits, in k-order, `first` and each vertex of
    /// `O_K` that gained a candidate neighbor before it:
    ///
    /// * if its *support* — candidate neighbors before it (`dstar`) plus
    ///   neighbors after it (`dplus`) — exceeds `K`, it becomes a
    ///   candidate, and each of its later `O_K` neighbors is queued and
    ///   gains one support;
    /// * otherwise it stays at `K`: each candidate neighbor (all come
    ///   before it) loses it as a later neighbor, and candidates whose
    ///   support drops to `K` are evicted in a cascade — an evicted vertex
    ///   takes one support from each candidate or queued neighbor.
    ///
    /// Returns the surviving candidates — exactly the vertices that rise to
    /// `K + 1` — in k-order, and re-threads the evicted ones into `O_K`
    /// right after the vertex whose staying evicted them, in eviction
    /// order. Every vertex then still has at most `c(v)` neighbors after it
    /// (DESIGN.md §15.3).
    fn order_insert(&mut self, first: VertexId) -> Vec<VertexId> {
        let k = self.coreness(first);
        let mut candidates = Vec::new();
        let mut evicted: Vec<Evicted> = Vec::new();
        let mut next = Some(first);
        while let Some(x) = next {
            let xi = x as usize;
            let before = self.scratch.support[xi];
            if x != first && before == 0 {
                // Every candidate neighbor before it was evicted: its
                // later-neighbor count is unchanged.
                self.scratch.state[xi] = STAYS;
            } else {
                let after = self.later_count(x);
                let DeltaIndex {
                    adj,
                    coreness,
                    korder,
                    scratch: s,
                    ..
                } = self;
                if before + after > k {
                    s.state[xi] = CANDIDATE;
                    s.support[xi] = before + after;
                    candidates.push(x);
                    let lx = korder.label(x);
                    for &z in &adj[xi] {
                        if coreness[z as usize] == k && korder.label(z) > lx {
                            s.touch(z);
                            s.support[z as usize] += 1;
                            if s.state[z as usize] == FRESH {
                                s.state[z as usize] = QUEUED;
                                s.heap.push(Reverse((korder.label(z), z)));
                            }
                        }
                    }
                } else {
                    s.state[xi] = STAYS;
                    for &z in &adj[xi] {
                        if s.state(z) == CANDIDATE {
                            s.weaken(z, k, x, &mut evicted);
                        }
                    }
                    while let Some(w) = s.stack.pop() {
                        for &y in &adj[w as usize] {
                            match s.state(y) {
                                CANDIDATE => s.weaken(y, k, x, &mut evicted),
                                // Queued vertices all come after `w`.
                                QUEUED => s.support[y as usize] -= 1,
                                _ => {}
                            }
                        }
                    }
                }
            }
            next = self.scratch.heap.pop().map(|Reverse((_, z))| z);
        }
        let ku = k as usize;
        for run in evicted.chunk_by(|a, b| a.anchor == b.anchor) {
            let group: Vec<VertexId> = run.iter().map(|e| e.vertex).collect();
            for &w in &group {
                self.korder.unlink(ku, w);
            }
            self.korder.insert_after(ku, run[0].anchor, &group);
        }
        candidates.retain(|&w| self.scratch.state(w) == CANDIDATE);
        candidates
    }

    /// The delete cascade: endpoints of coreness `k` left with `mcd < k`
    /// fall, and each fallen vertex takes one from the `mcd` of its
    /// coreness-`k` neighbors. Returns the fallen in the order they fell —
    /// the order they join the end of `O_{k−1}` in, which keeps every
    /// later-neighbor count within coreness.
    fn order_delete(&mut self, u: VertexId, v: VertexId, k: u32) -> Vec<VertexId> {
        let DeltaIndex {
            adj,
            coreness,
            mcd,
            scratch: s,
            ..
        } = self;
        let mut fallen = Vec::new();
        for w in [u, v] {
            let wi = w as usize;
            if coreness[wi] == k && mcd[wi] < k && s.state(w) != FALLEN {
                s.state[wi] = FALLEN;
                fallen.push(w);
            }
        }
        let mut i = 0;
        while let Some(&w) = fallen.get(i) {
            i += 1;
            for &y in &adj[w as usize] {
                let yi = y as usize;
                if coreness[yi] == k && s.state(y) != FALLEN {
                    s.touch(y);
                    mcd[yi] -= 1;
                    if mcd[yi] < k {
                        s.state[yi] = FALLEN;
                        fallen.push(y);
                    }
                }
            }
        }
        fallen
    }

    /// Moves the changed set `C` (k-order sequence) from shell `from` to
    /// the adjacent shell `to` and repairs everything keyed on coreness
    /// for `{u, v} ∪ C ∪ N(C)`: `mcd`, the `(coreness, id)` order, the
    /// k-order, kmax, adjacency rank order, tags, and the shell sums. The
    /// endpoints' contributions were already retracted by `begin_op`.
    fn settle(&mut self, u: VertexId, v: VertexId, c: &[VertexId], from: u32, to: u32) {
        let mut affected: Vec<VertexId> = vec![u, v];
        for &w in c {
            affected.push(w);
            affected.extend_from_slice(&self.adj[w as usize]);
        }
        affected.sort_unstable();
        affected.dedup();
        for &w in &affected {
            if w != u && w != v {
                self.retract(w);
            }
        }
        if !c.is_empty() {
            if to > from {
                // A rising vertex now counts toward its new shell-mates.
                for &w in c {
                    for &y in &self.adj[w as usize] {
                        if self.coreness[y as usize] == to {
                            self.mcd[y as usize] += 1;
                        }
                    }
                }
            }
            for &w in c {
                self.coreness[w as usize] = to;
            }
            for &w in c {
                let n_ge = self.adj[w as usize]
                    .iter()
                    .filter(|&&y| self.coreness[y as usize] >= to)
                    .count();
                self.mcd[w as usize] = cast::u32_of(n_ge);
            }
            if to > self.kmax {
                self.resize_levels(to);
            }
            let mut by_id = c.to_vec();
            by_id.sort_unstable();
            self.move_between_adjacent_shells(&by_id, from, to);
            for &w in c {
                self.korder.unlink(from as usize, w);
            }
            if to > from {
                self.korder.insert_after(to as usize, NIL, c);
            } else {
                self.korder.push_back(to as usize, c);
            }
            if from == self.kmax && self.shell(from).is_empty() {
                self.resize_levels(from - 1);
            }
        }
        self.repair_tags(&affected);
        for &w in &affected {
            self.deposit(w);
        }
    }

    /// Sets kmax, growing or cutting every per-level table to match.
    fn resize_levels(&mut self, kmax: u32) {
        let levels = kmax as usize + 1;
        self.kmax = kmax;
        self.shell_start.resize(levels + 1, self.n);
        self.primaries.resize(levels, PrimaryValues::default());
        self.shell_sums.resize(levels, ShellSum::default());
        self.korder.resize_shells(levels);
    }

    /// `w`'s Alg. 2 sweep contribution from its current tags:
    /// `(2·|N_>| + |N_=|, |N_<| − |N_>|)`.
    fn contribution(&self, w: VertexId) -> (u64, i64) {
        let wi = w as usize;
        let deg = self.adj[wi].len() as u64;
        let s = u64::from(self.same[wi]);
        let p = u64::from(self.plus[wi]);
        let (gt, eq, lt) = (deg - p, p - s, s);
        (2 * gt + eq, lt as i64 - gt as i64)
    }

    /// Adds `w`'s contribution to its shell's sums.
    fn deposit(&mut self, w: VertexId) {
        let (in_twice, out) = self.contribution(w);
        let sum = &mut self.shell_sums[self.coreness[w as usize] as usize];
        sum.num += 1;
        sum.in_twice += in_twice;
        sum.out += out;
    }

    /// Takes `w`'s contribution back out of its shell's sums.
    fn retract(&mut self, w: VertexId) {
        let (in_twice, out) = self.contribution(w);
        let sum = &mut self.shell_sums[self.coreness[w as usize] as usize];
        sum.num -= 1;
        sum.in_twice -= in_twice;
        sum.out -= out;
    }

    /// Inserts `x` into `u`'s rank-ordered list at its `(coreness, id)`
    /// position.
    fn adj_insert(&mut self, u: VertexId, x: VertexId) {
        let DeltaIndex { adj, coreness, .. } = self;
        let key = (coreness[x as usize], x);
        let list = &mut adj[u as usize];
        let i = list.partition_point(|&y| (coreness[y as usize], y) < key);
        list.insert(i, x);
    }

    fn adj_remove(&mut self, u: VertexId, x: VertexId) {
        let list = &mut self.adj[u as usize];
        if let Some(i) = list.iter().position(|&y| y == x) {
            list.remove(i);
        }
    }

    /// Moves the changed set `C` (sorted by id, all previously in shell
    /// `from`) into the adjacent shell `to` in place: only the `order`
    /// entries between `C`'s first old and last new position move.
    fn move_between_adjacent_shells(&mut self, c: &[VertexId], from: u32, to: u32) {
        let (Some(&c_first), Some(&c_last)) = (c.first(), c.last()) else {
            return;
        };
        let upper = from.max(to) as usize;
        let (lo, split, hi) = (
            self.shell_start[upper - 1],
            self.shell_start[upper],
            self.shell_start[upper + 1],
        );
        let order = &mut self.order;
        if to > from {
            // Close the gaps `C` leaves in the lower shell...
            let start = lo + order[lo..split].partition_point(|&x| x < c_first);
            let (mut w, mut j) = (start, 0);
            for r in start..split {
                let x = order[r];
                if c.get(j) == Some(&x) {
                    j += 1;
                } else {
                    order[w] = x;
                    w += 1;
                }
            }
            // ...then merge `C` into the upper shell front to back; the
            // write cursor never passes the read cursor.
            let (mut r, mut j) = (split, 0);
            self.shell_start[upper] = w;
            while let Some(&x) = c.get(j) {
                if r < hi && order[r] < x {
                    order[w] = order[r];
                    r += 1;
                } else {
                    order[w] = x;
                    j += 1;
                }
                w += 1;
            }
        } else {
            // The mirror image: close the gaps in the upper shell back to
            // front, then merge `C` into the lower shell back to front.
            let end = split + order[split..hi].partition_point(|&x| x <= c_last);
            let (mut w, mut j) = (end, c.len());
            for r in (split..end).rev() {
                let x = order[r];
                if j > 0 && c[j - 1] == x {
                    j -= 1;
                } else {
                    w -= 1;
                    order[w] = x;
                }
            }
            let (mut r, mut j) = (split, c.len());
            self.shell_start[upper] = w;
            while j > 0 {
                w -= 1;
                if r > lo && order[r - 1] > c[j - 1] {
                    order[w] = order[r - 1];
                    r -= 1;
                } else {
                    order[w] = c[j - 1];
                    j -= 1;
                }
            }
        }
    }

    /// Re-sorts the adjacency lists and recounts the `(s, p, h)` tags of
    /// `affected` — every vertex whose list content or neighbor keys
    /// changed. The relative `(coreness, id)` order of all other vertices
    /// is untouched, so their lists and tags stay valid.
    fn repair_tags(&mut self, affected: &[VertexId]) {
        let DeltaIndex {
            adj,
            coreness,
            same,
            plus,
            high,
            ..
        } = self;
        for &w in affected {
            let list = &mut adj[w as usize];
            list.sort_unstable_by_key(|&x| (coreness[x as usize], x));
            let cw = coreness[w as usize];
            let deg = cast::u32_of(list.len());
            let (mut s, mut p, mut h) = (deg, deg, deg);
            for (i, &x) in list.iter().enumerate() {
                let cx = coreness[x as usize];
                if s == deg && cx >= cw {
                    s = cast::u32_of(i);
                }
                if p == deg && cx > cw {
                    p = cast::u32_of(i);
                }
                if h == deg && (cx > cw || (cx == cw && x > w)) {
                    h = cast::u32_of(i);
                }
            }
            same[w as usize] = s;
            plus[w as usize] = p;
            high[w as usize] = h;
        }
    }

    /// Rebuilds the primaries of the dirty levels `min(hi, kmax)..0` as
    /// suffix sums of the shell sums, seeded from the first clean level
    /// above. Returns the number of levels recomputed.
    fn sweep_dirty(&mut self, hi: u32) -> u32 {
        let _span = bestk_obs::span!("phase.delta.sweep");
        let start = hi.min(self.kmax);
        let (mut num, mut in_twice, mut out): (u64, u64, i64) = if start < self.kmax {
            let seed = &self.primaries[start as usize + 1];
            (
                seed.num_vertices,
                2 * seed.internal_edges,
                seed.boundary_edges as i64,
            )
        } else {
            (0, 0, 0)
        };
        for k in (0..=start as usize).rev() {
            let sum = self.shell_sums[k];
            num += sum.num;
            in_twice += sum.in_twice;
            out += sum.out;
            self.primaries[k] = PrimaryValues {
                num_vertices: num,
                internal_edges: in_twice / 2,
                boundary_edges: out as u64,
                triangles: 0,
                triplets: 0,
            };
        }
        start + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_graph::{generators, GraphBuilder};

    /// Applies each op, asserting full structural equality against a
    /// from-scratch rebuild of the mutated graph after every step.
    fn drive(g: &CsrGraph, ops: &[EdgeOp]) {
        let mut index = DeltaIndex::build(g);
        let mut edges: std::collections::BTreeSet<(VertexId, VertexId)> = g.edges().collect();
        for (step, op) in ops.iter().enumerate() {
            index
                .apply(op)
                .unwrap_or_else(|e| panic!("step {step} {op:?}: {e}"));
            let (u, v) = op.endpoints();
            if op.is_insert() {
                edges.insert((u, v));
            } else {
                edges.remove(&(u, v));
            }
            let mut b = GraphBuilder::with_capacity(edges.len());
            b.reserve_vertices(g.num_vertices());
            for &(a, c) in &edges {
                b.add_edge(a, c);
            }
            let now = b.build();
            let oracle = DeltaIndex::build(&now);
            assert_eq!(index, oracle, "diverged at step {step} ({op:?})");
            if let Err(e) = index.check_k_order() {
                panic!("k-order broken at step {step} ({op:?}): {e}");
            }
            assert_eq!(index.to_csr(), now, "graph diverged at step {step}");
        }
    }

    #[test]
    fn figure2_insert_delete_round_trip() {
        let g = generators::paper_figure2();
        drive(
            &g,
            &[
                EdgeOp::Insert(0, 11),
                EdgeOp::Insert(3, 9),
                EdgeOp::Delete(0, 11),
                EdgeOp::Delete(3, 9),
            ],
        );
    }

    #[test]
    fn first_edge_in_an_empty_graph_grows_kmax() {
        let g = CsrGraph::empty(4);
        let mut index = DeltaIndex::build(&g);
        assert_eq!(index.kmax(), 0);
        index.apply_insert(0, 1).unwrap();
        assert_eq!(index.kmax(), 1);
        assert_eq!((index.coreness(0), index.coreness(1)), (1, 1));
        assert_eq!(index.coreness(2), 0);
        index.apply_delete(0, 1).unwrap();
        assert_eq!(index, DeltaIndex::build(&g));
    }

    #[test]
    fn completing_a_triangle_promotes_the_whole_cycle() {
        let g = generators::regular::path(3);
        let mut index = DeltaIndex::build(&g);
        let stats = index.apply_insert(0, 2).unwrap();
        assert_eq!(stats.changed_vertices, 3);
        assert_eq!(index, DeltaIndex::build(&generators::regular::cycle(3)));
    }

    #[test]
    fn mixed_stream_tracks_the_oracle() {
        let g = generators::erdos_renyi_gnm(30, 70, 13);
        let ops = generators::edge_stream_mixed(&g, 120, 17);
        drive(&g, &ops);
    }

    #[test]
    fn delete_heavy_stream_tracks_the_oracle() {
        let g = generators::erdos_renyi_gnm(25, 60, 5);
        let ops = generators::edge_stream_delete_heavy(&g, 150, 23);
        drive(&g, &ops);
    }

    #[test]
    fn max_k_churn_tracks_the_oracle() {
        let g = generators::overlapping_cliques(24, 4, (4, 7), 31);
        let index = DeltaIndex::build(&g);
        let top: Vec<VertexId> = index.shell(index.kmax()).to_vec();
        let ops = generators::edge_stream_focused(&g, &top, 80, 37);
        assert!(!ops.is_empty());
        drive(&g, &ops);
    }

    #[test]
    fn adversarial_k_chain_churn_tracks_the_oracle() {
        // Maximum shell depth per vertex: every op near the top of the
        // chain dirties a deep sweep range.
        let g = generators::k_chain(6);
        let ops = generators::edge_stream_mixed(&g, 60, 41);
        drive(&g, &ops);
    }

    #[test]
    fn adversarial_shell_ladder_churn_tracks_the_oracle() {
        // Wide shells pinned to a deep core: boundary moves have many
        // same-coreness candidates at every level.
        let g = generators::shell_ladder(5, 4);
        let ops = generators::edge_stream_mixed(&g, 80, 43);
        drive(&g, &ops);
    }

    #[test]
    fn adversarial_tie_storm_churn_tracks_the_oracle() {
        // Shuffled identical cliques: one giant run of (coreness, id)
        // ties whose repair order must match the rebuild exactly.
        let g = generators::tie_storm(5, 4, 47);
        let ops = generators::edge_stream_mixed(&g, 80, 53);
        drive(&g, &ops);
    }

    #[test]
    fn built_k_order_is_valid_at_every_thread_count() {
        let g = generators::chung_lu_power_law(300, 6.0, 2.4, 19);
        for threads in [1, 2, 4] {
            let policy = ExecPolicy::with_threads(threads).unwrap();
            let index = DeltaIndex::build_with(&g, &policy);
            assert_eq!(index, DeltaIndex::build(&g));
            index.check_k_order().unwrap();
        }
    }

    #[test]
    fn a_broken_k_order_is_reported() {
        // Thread a top-shell vertex into the shell-0 sequence: the
        // sequences no longer hold their shells.
        let g = generators::paper_figure2();
        let mut index = DeltaIndex::build(&g);
        index.check_k_order().unwrap();
        let v = index.shell(index.kmax())[0];
        let top = index.kmax() as usize;
        index.korder.unlink(top, v);
        index.korder.insert_after(0, NIL, &[v]);
        assert!(index.check_k_order().is_err());

        // A star's center first in its shell has 3 later neighbors at
        // coreness 1.
        let mut b = GraphBuilder::new();
        b.extend_edges([(0, 1), (0, 2), (0, 3)]);
        let mut star = DeltaIndex::build(&b.build());
        star.check_k_order().unwrap();
        star.korder.unlink(1, 0);
        star.korder.insert_after(1, NIL, &[0]);
        let err = star.check_k_order().unwrap_err();
        assert!(err.contains("3 later neighbors"), "{err}");
    }

    #[test]
    fn ops_visit_their_affected_region_not_the_graph() {
        // ER 20k/100k under a mixed stream: the median op examines a
        // handful of vertices (a subcore walk examined about 10,000).
        let g = generators::erdos_renyi_gnm(20_000, 100_000, 11);
        let ops = generators::edge_stream_mixed(&g, 2000, 7);
        let mut index = DeltaIndex::build(&g);
        let mut visited: Vec<usize> = ops
            .iter()
            .map(|op| index.apply(op).unwrap().visited)
            .collect();
        visited.sort_unstable();
        let median = visited[visited.len() / 2];
        assert!(median <= 100, "median op visited {median} vertices");
        assert!(visited.iter().all(|&x| x >= 2), "endpoints always count");
        index.check_k_order().unwrap();
        assert_eq!(index, DeltaIndex::build(&index.to_csr()));
    }

    #[test]
    fn invalid_ops_are_typed_errors() {
        let g = generators::paper_figure2();
        let mut index = DeltaIndex::build(&g);
        let pristine = index.clone();
        assert!(index.apply_insert(2, 2).is_err());
        assert!(index.apply_insert(0, 99).is_err());
        assert!(index.apply_delete(0, 11).is_err());
        let (u, v) = g.edges().next().unwrap();
        assert!(index.apply_insert(u, v).is_err());
        assert_eq!(index, pristine);
    }

    #[test]
    fn best_k_matches_the_full_pipeline() {
        let g = generators::erdos_renyi_gnm(40, 120, 7);
        let mut index = DeltaIndex::build(&g);
        for op in generators::edge_stream_mixed(&g, 50, 3) {
            index.apply(&op).unwrap();
        }
        let now = index.to_csr();
        let decomp = core_decomposition(&now);
        let ordered = OrderedGraph::build(&now, &decomp);
        let profile = bestk_core::core_set_profile(&ordered, false);
        for metric in [
            Metric::AverageDegree,
            Metric::InternalDensity,
            Metric::CutRatio,
        ] {
            assert_eq!(
                index.best(metric).unwrap(),
                profile.try_best(&metric).unwrap(),
                "{metric:?}"
            );
        }
    }
}
