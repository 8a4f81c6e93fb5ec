//! Pluggable graph storage backends behind one [`GraphStore`] enum.
//!
//! The engine serves queries against two physical layouts:
//!
//! * [`GraphStore::Csr`] — the canonical materialized
//!   [`CsrGraph`](bestk_graph::CsrGraph): the only mutable/buildable form.
//! * [`GraphStore::Mapped`] — a zero-copy [`ByteCsr`] borrowing its bytes
//!   from a memory-mapped snapshot: near-zero heap cost, backed by the
//!   page cache.
//!
//! Both implement [`GraphView`] with identical observations, so every
//! algorithm and every query answer is bit-identical across backends
//! (property-tested in `tests/backend_equivalence.rs`).

use std::sync::Arc;

use bestk_graph::{ByteCsr, CsrGraph, GraphView, Neighbors, VertexId};

use crate::mmap::Mmap;

/// A window into a shared memory-mapped snapshot: the byte holder behind
/// [`GraphStore::Mapped`]. Cloning is `O(1)` — it bumps the `Arc` on the
/// mapping, never copies file bytes.
#[derive(Clone, Debug)]
pub struct SnapshotSlice {
    map: Arc<Mmap>,
    off: usize,
    len: usize,
}

impl SnapshotSlice {
    /// Slices `map[off .. off + len]`; `None` when the range falls outside
    /// the mapping (a corrupt section table, typically).
    pub fn new(map: Arc<Mmap>, off: usize, len: usize) -> Option<SnapshotSlice> {
        let end = off.checked_add(len)?;
        if end > map.len() {
            return None;
        }
        Some(SnapshotSlice { map, off, len })
    }

    /// The shared mapping this slice borrows from.
    pub fn mapping(&self) -> &Arc<Mmap> {
        &self.map
    }
}

impl AsRef<[u8]> for SnapshotSlice {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.map.as_slice()[self.off..self.off + self.len]
    }
}

/// A graph held in one of the engine's storage backends. See the module
/// docs for the trade-offs; [`GraphStore::as_csr`] is the escape hatch for
/// the few operations that need the canonical form.
#[derive(Clone, Debug)]
pub enum GraphStore {
    /// Canonical materialized CSR.
    Csr(Arc<CsrGraph>),
    /// Zero-copy view into a mapped v2 snapshot.
    Mapped(ByteCsr<SnapshotSlice>),
}

impl GraphStore {
    /// Stable lowercase backend tag used by CLI flags, metric labels, and
    /// bench JSON: `csr` or `mapped`.
    pub fn backend_name(&self) -> &'static str {
        match self {
            GraphStore::Csr(_) => "csr",
            GraphStore::Mapped(_) => "mapped",
        }
    }

    /// Heap bytes resident for the graph itself. Mapped graphs report 0 —
    /// their bytes live in the page cache, not the process heap.
    pub fn resident_heap_bytes(&self) -> usize {
        match self {
            GraphStore::Csr(g) => g.heap_bytes(),
            GraphStore::Mapped(_) => 0,
        }
    }

    /// The canonical CSR: borrowed when this *is* the CSR backend,
    /// materialized otherwise.
    pub fn as_csr(&self) -> Arc<CsrGraph> {
        match self {
            GraphStore::Csr(g) => Arc::clone(g),
            GraphStore::Mapped(b) => Arc::new(b.to_csr()),
        }
    }
}

/// Observation equality: two stores are equal when every [`GraphView`]
/// observation agrees, regardless of backend. This is the equality that
/// matters for round-trip tests — a mapped snapshot of a CSR *is* that
/// graph.
impl PartialEq for GraphStore {
    fn eq(&self, other: &GraphStore) -> bool {
        self.num_vertices() == other.num_vertices()
            && self.num_edges() == other.num_edges()
            && self
                .vertices()
                .all(|v| self.neighbors(v).eq(other.neighbors(v)))
    }
}

impl Eq for GraphStore {}

impl From<CsrGraph> for GraphStore {
    fn from(g: CsrGraph) -> GraphStore {
        GraphStore::Csr(Arc::new(g))
    }
}

impl From<Arc<CsrGraph>> for GraphStore {
    fn from(g: Arc<CsrGraph>) -> GraphStore {
        GraphStore::Csr(g)
    }
}

impl GraphView for GraphStore {
    #[inline]
    fn num_vertices(&self) -> usize {
        match self {
            GraphStore::Csr(g) => GraphView::num_vertices(&**g),
            GraphStore::Mapped(g) => g.num_vertices(),
        }
    }

    #[inline]
    fn num_edges(&self) -> usize {
        match self {
            GraphStore::Csr(g) => GraphView::num_edges(&**g),
            GraphStore::Mapped(g) => g.num_edges(),
        }
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        match self {
            GraphStore::Csr(g) => GraphView::degree(&**g, v),
            GraphStore::Mapped(g) => g.degree(v),
        }
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        match self {
            GraphStore::Csr(g) => GraphView::neighbors(&**g, v),
            GraphStore::Mapped(g) => g.neighbors(v),
        }
    }

    #[inline]
    fn adjacency_start(&self, v: VertexId) -> usize {
        match self {
            GraphStore::Csr(g) => GraphView::adjacency_start(&**g, v),
            GraphStore::Mapped(g) => g.adjacency_start(v),
        }
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match self {
            // Keep the CSR's binary-search override through the enum.
            GraphStore::Csr(g) => g.has_edge(u, v),
            GraphStore::Mapped(g) => GraphView::has_edge(g, u, v),
        }
    }

    fn degree_offsets(&self) -> Vec<usize> {
        match self {
            // bestk-analyze: allow(no-raw-graph) — CSR fast path for the trait's own accessor
            GraphStore::Csr(g) => g.offsets().to_vec(),
            GraphStore::Mapped(g) => GraphView::degree_offsets(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_graph::generators;

    fn observations<G: GraphView>(g: &G) -> (usize, usize, Vec<Vec<VertexId>>) {
        (
            g.num_vertices(),
            g.num_edges(),
            g.vertices().map(|v| g.neighbors(v).collect()).collect(),
        )
    }

    fn mapped(g: &CsrGraph) -> GraphStore {
        let map = Arc::new(Mmap::from_vec(bestk_graph::bytecsr::encode_view(g)));
        let len = map.len();
        GraphStore::Mapped(ByteCsr::new(SnapshotSlice::new(map, 0, len).unwrap()).unwrap())
    }

    #[test]
    fn backends_observe_identically() {
        let g = generators::paper_figure2();
        let base = observations(&g);
        let csr = GraphStore::from(g.clone());
        let mapped = mapped(&g);
        for store in [&csr, &mapped] {
            assert_eq!(observations(store), base, "{}", store.backend_name());
            assert_eq!(store.degree_offsets(), g.offsets().to_vec());
        }
        assert_eq!(csr.backend_name(), "csr");
        assert_eq!(mapped.backend_name(), "mapped");
        assert_eq!(mapped.resident_heap_bytes(), 0);
        assert!(csr.resident_heap_bytes() > 0);
    }

    #[test]
    fn as_csr_round_trips_every_backend() {
        let g = generators::erdos_renyi_gnm(60, 180, 3);
        for store in [GraphStore::from(g.clone()), mapped(&g)] {
            assert_eq!(*store.as_csr(), g, "{}", store.backend_name());
        }
    }

    #[test]
    fn snapshot_slice_rejects_out_of_range() {
        let map = Arc::new(Mmap::from_vec(vec![0u8; 10]));
        assert!(SnapshotSlice::new(Arc::clone(&map), 4, 6).is_some());
        assert!(SnapshotSlice::new(Arc::clone(&map), 4, 7).is_none());
        assert!(SnapshotSlice::new(map, usize::MAX, 2).is_none());
    }
}
