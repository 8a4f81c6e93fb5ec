//! Zero-copy CSR view over raw little-endian bytes.
//!
//! [`ByteCsr`] interprets a flat byte buffer — typically a slice borrowed
//! from a memory-mapped snapshot — as a CSR graph without deserializing
//! it. Construction checks every byte of the layout: the framing header,
//! monotone offsets, and the simple-graph invariants of the adjacency
//! (sorted, symmetric, in range, no self loops — the same
//! [`validate_simple`] pass behind [`CsrGraph::validate`]). That costs
//! `O(n + m)` reads and one `n`-entry scratch array, never a copy of the
//! graph: adjacency is still served straight from the bytes.
//!
//! ## Layout (all little-endian)
//!
//! ```text
//! offset   size        field
//! 0        8           n    — vertex count
//! 8        8           nnz  — adjacency entries (2 m)
//! 16       8 (n + 1)   offsets, monotone, offsets[0] == 0, offsets[n] == nnz
//! 16+8(n+1) 4 nnz      neighbors, u32 ids
//! ```
//!
//! The same layout is produced by [`encode_view`] and embedded verbatim
//! as the graph section of `.bestk` snapshots.

use crate::view::{validate_simple, GraphView, Neighbors};
use crate::{CsrGraph, GraphError, VertexId};

/// Header bytes before the offsets array: `n` and `nnz`.
const HEADER: usize = 16;

/// A read-only CSR graph borrowed from (or owning) raw bytes.
///
/// Generic over the byte holder so the same view works over a `Vec<u8>`,
/// a borrowed slice, or a memory-mapped region.
#[derive(Clone)]
pub struct ByteCsr<B: AsRef<[u8]>> {
    bytes: B,
    n: usize,
    nnz: usize,
}

impl<B: AsRef<[u8]>> ByteCsr<B> {
    /// Wraps `bytes` as a CSR view after checking all of them: the header
    /// must parse, the buffer length must match it exactly, the offsets
    /// must run monotonically from 0 to `nnz`, and the adjacency must be
    /// a simple undirected graph.
    pub fn new(bytes: B) -> Result<Self, GraphError> {
        let bad = |msg: String| GraphError::BadBinaryFormat(format!("byte-csr: {msg}"));
        let buf = bytes.as_ref();
        if buf.len() < HEADER {
            return Err(bad(format!("{} bytes, need >= 16", buf.len())));
        }
        let n64 = read_u64(buf, 0);
        let nnz64 = read_u64(buf, 8);
        if n64 > u64::from(u32::MAX) {
            return Err(bad(format!("vertex count {n64} overflows u32")));
        }
        let n = n64 as usize;
        let nnz = usize::try_from(nnz64).map_err(|_| bad("nnz overflows".into()))?;
        let need = (n + 1)
            .checked_mul(8)
            .and_then(|o| nnz.checked_mul(4).map(|a| (o, a)))
            .and_then(|(o, a)| o.checked_add(a))
            .and_then(|body| body.checked_add(HEADER))
            .ok_or_else(|| bad("header sizes overflow".into()))?;
        if buf.len() != need {
            return Err(bad(format!(
                "{} bytes but header implies {need} (n = {n}, nnz = {nnz})",
                buf.len()
            )));
        }
        let mut prev = 0u64;
        for i in 0..=n {
            let cur = read_u64(buf, HEADER + 8 * i);
            if (i == 0 && cur != 0) || cur < prev {
                return Err(bad(format!("offsets are not monotone from 0 at slot {i}")));
            }
            prev = cur;
        }
        if prev != nnz64 {
            return Err(bad(format!("offsets end at {prev}, expected {nnz}")));
        }
        let view = ByteCsr { bytes, n, nnz };
        validate_simple(&view).map_err(bad)?;
        Ok(view)
    }

    /// The backing bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.bytes.as_ref()
    }

    /// Offset of vertex slot `i` (`0..=n`). The constructor proved the
    /// offsets monotone and bounded by `nnz`; the clamp keeps the accessor
    /// panic-free on its face.
    #[inline]
    fn offset(&self, i: usize) -> usize {
        let raw = read_u64(self.bytes.as_ref(), HEADER + 8 * i);
        usize::try_from(raw).unwrap_or(usize::MAX).min(self.nnz)
    }

    /// Materializes the bytes as a [`CsrGraph`] (a copy; the view itself
    /// serves adjacency without one).
    pub fn to_csr(&self) -> CsrGraph {
        let offsets = (0..=self.n).map(|i| self.offset(i)).collect();
        let base = HEADER + 8 * (self.n + 1);
        let buf = self.bytes.as_ref();
        let neighbors = (0..self.nnz).map(|j| read_u32(buf, base + 4 * j)).collect();
        CsrGraph::from_parts(offsets, neighbors)
    }
}

impl<B: AsRef<[u8]>> GraphView for ByteCsr<B> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.nnz / 2
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offset(v + 1).saturating_sub(self.offset(v))
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        let v = v as usize;
        let lo = self.offset(v);
        let hi = self.offset(v + 1).max(lo);
        let base = HEADER + 8 * (self.n + 1);
        Neighbors::from_le_bytes(&self.bytes.as_ref()[base + 4 * lo..base + 4 * hi])
    }

    #[inline]
    fn adjacency_start(&self, v: VertexId) -> usize {
        self.offset(v as usize)
    }
}

impl<B: AsRef<[u8]>> std::fmt::Debug for ByteCsr<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ByteCsr {{ n: {}, nnz: {} }}", self.n, self.nnz)
    }
}

/// Serializes any backend into the [`ByteCsr`] layout.
pub fn encode_view<G: GraphView>(g: &G) -> Vec<u8> {
    let n = g.num_vertices();
    let mut nnz = 0usize;
    for v in g.vertices() {
        nnz = nnz.saturating_add(g.degree(v));
    }
    let mut out = Vec::with_capacity(HEADER + 8 * (n + 1) + 4 * nnz);
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(nnz as u64).to_le_bytes());
    let mut acc = 0u64;
    out.extend_from_slice(&acc.to_le_bytes());
    for v in g.vertices() {
        acc = acc.saturating_add(g.degree(v) as u64);
        out.extend_from_slice(&acc.to_le_bytes());
    }
    for v in g.vertices() {
        for w in g.neighbors(v) {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    out
}

/// Little-endian `u64` at `pos`; callers guarantee `pos + 8 <= buf.len()`
/// via the constructor's exact-length check.
#[inline]
fn read_u64(buf: &[u8], pos: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[pos..pos + 8]);
    u64::from_le_bytes(b)
}

/// Little-endian `u32` at `pos`.
#[inline]
fn read_u32(buf: &[u8], pos: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[pos..pos + 4]);
    u32::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use crate::GraphBuilder;

    fn sample() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn encode_then_view_matches_source() {
        let g = sample();
        let bytes = encode_view(&g);
        let view = ByteCsr::new(bytes.as_slice()).expect("fresh encoding must parse");
        assert_eq!(view.num_vertices(), g.num_vertices());
        assert_eq!(view.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(GraphView::degree(&view, v), g.degree(v));
            assert_eq!(
                GraphView::adjacency_start(&view, v),
                g.offsets()[v as usize]
            );
            let got: Vec<_> = GraphView::neighbors(&view, v).collect();
            assert_eq!(got, g.neighbors(v).to_vec());
        }
        assert_eq!(view.to_csr(), g);
    }

    #[test]
    fn truncated_bytes_are_rejected_at_open() {
        let g = sample();
        let bytes = encode_view(&g);
        for cut in [0, 7, 15, bytes.len() - 1] {
            assert!(ByteCsr::new(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        assert!(ByteCsr::new([bytes.clone(), vec![0u8; 3]].concat().as_slice()).is_err());
    }

    #[test]
    fn corrupt_offsets_and_ids_are_rejected_at_open() {
        let g = sample();
        let base = HEADER + 8 * (g.num_vertices() + 1);
        let mut huge_offset = encode_view(&g);
        huge_offset[HEADER + 8..HEADER + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut nonzero_first = encode_view(&g);
        nonzero_first[HEADER] = 1;
        let mut out_of_range = encode_view(&g);
        out_of_range[base..base + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // Vertex 0's neighbor 1 rewritten to 3: in range and still sorted,
        // but 3 does not list 0 and 1 lists a 0 that does not list it.
        let mut asymmetric = encode_view(&g);
        asymmetric[base..base + 4].copy_from_slice(&3u32.to_le_bytes());
        for (name, bytes) in [
            ("huge offset", huge_offset),
            ("nonzero first offset", nonzero_first),
            ("out-of-range id", out_of_range),
            ("asymmetric", asymmetric),
        ] {
            assert!(ByteCsr::new(bytes.as_slice()).is_err(), "{name}");
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = encode_view(&sample());
        for at in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x01;
            assert!(ByteCsr::new(corrupt.as_slice()).is_err(), "flip at {at}");
        }
    }

    #[test]
    fn random_graphs_round_trip_through_bytes() {
        testkit::check("bytecsr_round_trip", 40, |gen| {
            let g = gen.graph(150, 500);
            let bytes = encode_view(&g);
            let view = ByteCsr::new(bytes.as_slice()).expect("fresh encoding must parse");
            assert_eq!(view.to_csr(), g);
        });
    }
}
