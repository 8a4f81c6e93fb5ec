//! The versioned, checksummed `.bestk` snapshot format.
//!
//! A snapshot persists one dataset's full index — everything
//! [`Artifacts`] holds — so a later process answers best-k queries after a
//! pair of bulk reads instead of an `O(m^1.5)` rebuild.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! magic    : 8 bytes = b"BESTKSS1"
//! version  : u32     (currently 1; any other value is VersionSkew)
//! sections : u32     (section count)
//! table    : sections × { id u32, reserved u32, offset u64, len u64, fnv1a u64 }
//! payload  : the concatenated section bodies, contiguous, in table order
//! ```
//!
//! Section ids and body layouts:
//!
//! | id | name           | body |
//! |----|----------------|------|
//! | 1  | `graph`        | `n u64, nnz u64, offsets (n+1)×u64, neighbors nnz×u32` |
//! | 2  | `decomposition`| `n u64, coreness n×u32, order n×u32, peel n×u32, s u64, shell_start s×u64` |
//! | 3  | `ordering`     | `nnz u64, adj nnz×u32, same n×u32, plus n×u32, high n×u32` |
//! | 4  | `forest`       | `nodes u64, nodes × {coreness u32, parent u32, nv u64, vertices nv×u32}, vertex_node n×u32` |
//! | 5  | `set-profile`  | `kmax u32, tri u8, n u64, m u64, count u64, count × 5×u64` |
//! | 6  | `core-profile` | `tri u8, n u64, m u64, count u64, coreness count×u32, count × 5×u64` |
//!
//! A forest parent of `u32::MAX` encodes "root"; child lists are rebuilt on
//! load. Every section carries an FNV-1a 64 checksum, verified before the
//! section is parsed; after parsing, each structure's invariants are
//! re-checked through the core crate's `from_parts` constructors, so a
//! corrupted or hand-edited snapshot is rejected with a structured
//! [`EngineError`] — never a panic — no matter where the damage sits.

use std::io::{Read, Write};
use std::path::Path;
use std::time::Duration;

use bestk_exec::ExecPolicy;

use crate::engine::LoadOutcome;

use bestk_core::{
    CoreDecomposition, CoreForest, CoreForestNode, CoreSetProfile, GraphContext, OrderedGraph,
    PrimaryValues, SingleCoreProfile,
};
use bestk_faults::sites;
use bestk_graph::CsrGraph;

use crate::dataset::{Artifacts, Dataset};
use crate::error::EngineError;

/// The `.bestk` magic bytes.
pub const MAGIC: &[u8; 8] = b"BESTKSS1";
/// The single format version this build reads and writes.
pub const VERSION: u32 = 1;

const SEC_GRAPH: u32 = 1;
const SEC_DECOMP: u32 = 2;
const SEC_ORDERING: u32 = 3;
const SEC_FOREST: u32 = 4;
const SEC_SET_PROFILE: u32 = 5;
const SEC_CORE_PROFILE: u32 = 6;

fn section_name(id: u32) -> Option<&'static str> {
    match id {
        SEC_GRAPH => Some("graph"),
        SEC_DECOMP => Some("decomposition"),
        SEC_ORDERING => Some("ordering"),
        SEC_FOREST => Some("forest"),
        SEC_SET_PROFILE => Some("set-profile"),
        SEC_CORE_PROFILE => Some("core-profile"),
        _ => None,
    }
}

/// FNV-1a 64 over a byte slice (the workspace is dependency-free, so the
/// checksum is hand-rolled; FNV is fast and order-sensitive, which is all a
/// corruption check needs).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------- writing

pub(crate) fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_primaries(buf: &mut Vec<u8>, pv: &PrimaryValues) {
    put_u64(buf, pv.num_vertices);
    put_u64(buf, pv.internal_edges);
    put_u64(buf, pv.boundary_edges);
    put_u64(buf, pv.triangles);
    put_u64(buf, pv.triplets);
}

/// The v1 graph body is byte-for-byte the [`bestk_graph::ByteCsr`]
/// layout, so any backend serializes through the view-generic encoder.
fn encode_graph<G: bestk_graph::GraphView>(g: &G) -> Vec<u8> {
    bestk_graph::bytecsr::encode_view(g)
}

fn encode_decomp(d: &CoreDecomposition) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, d.num_vertices() as u64);
    for &c in d.coreness_slice() {
        put_u32(&mut buf, c);
    }
    for &v in d.vertices_by_coreness() {
        put_u32(&mut buf, v);
    }
    for &v in d.peel_ordering() {
        put_u32(&mut buf, v);
    }
    put_u64(&mut buf, d.shell_starts().len() as u64);
    for &s in d.shell_starts() {
        put_u64(&mut buf, s as u64);
    }
    buf
}

fn encode_ordering(art: &Artifacts) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, art.adj.len() as u64);
    for &v in &art.adj {
        put_u32(&mut buf, v);
    }
    for tags in [&art.same, &art.plus, &art.high] {
        for &t in tags.iter() {
            put_u32(&mut buf, t);
        }
    }
    buf
}

fn encode_forest(f: &CoreForest) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, f.node_count() as u64);
    for node in f.nodes() {
        put_u32(&mut buf, node.coreness);
        put_u32(&mut buf, node.parent.unwrap_or(u32::MAX));
        put_u64(&mut buf, node.vertices.len() as u64);
        for &v in &node.vertices {
            put_u32(&mut buf, v);
        }
    }
    for &nid in f.vertex_nodes() {
        put_u32(&mut buf, nid);
    }
    buf
}

pub(crate) fn encode_set_profile(p: &CoreSetProfile) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, p.kmax);
    buf.push(u8::from(p.has_triangles));
    put_u64(&mut buf, p.context.total_vertices);
    put_u64(&mut buf, p.context.total_edges);
    put_u64(&mut buf, p.primaries.len() as u64);
    for pv in &p.primaries {
        put_primaries(&mut buf, pv);
    }
    buf
}

pub(crate) fn encode_core_profile(p: &SingleCoreProfile) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.push(u8::from(p.has_triangles));
    put_u64(&mut buf, p.context.total_vertices);
    put_u64(&mut buf, p.context.total_edges);
    put_u64(&mut buf, p.primaries.len() as u64);
    for &c in &p.coreness {
        put_u32(&mut buf, c);
    }
    for pv in &p.primaries {
        put_primaries(&mut buf, pv);
    }
    buf
}

/// Serializes a built dataset to a writer in the `.bestk` format.
///
/// The dataset must have its artifacts resident (build them first); a bare
/// graph is rejected with [`EngineError::BadSnapshot`].
pub fn save<W: Write>(dataset: &Dataset, writer: W) -> Result<(), EngineError> {
    let art = dataset.artifacts().ok_or_else(|| {
        EngineError::BadSnapshot("cannot save a dataset whose artifacts are not built".into())
    })?;
    let sections: [(u32, Vec<u8>); 6] = [
        (SEC_GRAPH, encode_graph(dataset.graph())),
        (SEC_DECOMP, encode_decomp(&art.decomp)),
        (SEC_ORDERING, encode_ordering(art)),
        (SEC_FOREST, encode_forest(&art.forest)),
        (SEC_SET_PROFILE, encode_set_profile(&art.set_profile)),
        (SEC_CORE_PROFILE, encode_core_profile(&art.core_profile)),
    ];
    let mut w = std::io::BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&bestk_graph::cast::u32_of(sections.len()).to_le_bytes())?;
    let header_len = 16 + 32 * sections.len() as u64;
    let mut offset = header_len;
    for (id, body) in &sections {
        w.write_all(&id.to_le_bytes())?;
        w.write_all(&0u32.to_le_bytes())?;
        w.write_all(&offset.to_le_bytes())?;
        w.write_all(&(body.len() as u64).to_le_bytes())?;
        w.write_all(&fnv1a(body).to_le_bytes())?;
        offset = offset.saturating_add(body.len() as u64);
    }
    for (_, body) in &sections {
        w.write_all(body)?;
    }
    w.flush()?;
    Ok(())
}

/// Bounded retry policy for transient snapshot I/O (`Interrupted`,
/// `WouldBlock`, `TimedOut`, `WriteZero`). Corruption is *not* retried —
/// re-reading bad bytes cannot fix them; see
/// [`Engine::load_snapshot_with_fallback`](crate::Engine::load_snapshot_with_fallback)
/// for the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, first try included (`0` behaves as `1`).
    pub attempts: u32,
    /// Base backoff; attempt `i` sleeps `i × backoff` before retrying.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// A single attempt, no retries.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(1),
        }
    }
}

fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WriteZero
    )
}

pub(crate) fn with_retries<T>(
    policy: &RetryPolicy,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let attempts = policy.attempts.max(1);
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < attempts => {
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff * attempt);
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One write attempt, with the `snapshot.write` failpoint threaded in: an
/// injected truncation persists a *partial* file and then fails, exactly
/// like a mid-write crash, so retries must overwrite from scratch.
pub(crate) fn write_snapshot_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(e) = bestk_faults::io_error(sites::SNAPSHOT_WRITE) {
        return Err(e);
    }
    if let Some(keep) = bestk_faults::truncation(sites::SNAPSHOT_WRITE, bytes.len()) {
        std::fs::write(path, &bytes[..keep])?;
        return Err(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "injected mid-write crash",
        ));
    }
    std::fs::write(path, bytes)
}

/// One read attempt, with the `snapshot.read` failpoint threaded in
/// (injected I/O errors before the read; injected bit flips / truncation
/// on the bytes after it, caught downstream by the checksums).
fn read_snapshot_bytes(path: &Path) -> std::io::Result<Vec<u8>> {
    if let Some(e) = bestk_faults::io_error(sites::SNAPSHOT_READ) {
        return Err(e);
    }
    let mut bytes = std::fs::read(path)?;
    bestk_faults::corrupt_buffer(sites::SNAPSHOT_READ, &mut bytes);
    Ok(bytes)
}

/// [`save`] to a file path (one attempt; see [`save_path_with_retry`]).
pub fn save_path<P: AsRef<Path>>(dataset: &Dataset, path: P) -> Result<(), EngineError> {
    save_path_with_retry(dataset, path, &RetryPolicy::none())
}

/// [`save`] to a file path, retrying transient I/O failures under
/// `policy`. The snapshot is serialized once up front; each attempt
/// rewrites the whole file, so a partially-persisted earlier attempt is
/// healed rather than appended to.
pub fn save_path_with_retry<P: AsRef<Path>>(
    dataset: &Dataset,
    path: P,
    policy: &RetryPolicy,
) -> Result<(), EngineError> {
    let mut buf = Vec::new();
    save(dataset, &mut buf)?;
    with_retries(policy, || write_snapshot_bytes(path.as_ref(), &buf)).map_err(EngineError::Io)
}

// ---------------------------------------------------------------- reading

/// A bounds-checked cursor over one section's bytes: every overrun is a
/// [`EngineError::Truncated`] naming the section, and `finish` rejects
/// bytes the layout did not account for.
pub(crate) struct SectionReader<'a> {
    buf: &'a [u8],
    at: usize,
    section: &'static str,
}

impl<'a> SectionReader<'a> {
    pub(crate) fn new(buf: &'a [u8], section: &'static str) -> Self {
        SectionReader {
            buf,
            at: 0,
            section,
        }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], EngineError> {
        if len > self.remaining() {
            return Err(EngineError::Truncated {
                section: self.section,
            });
        }
        let slice = &self.buf[self.at..self.at + len];
        self.at += len;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, EngineError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, EngineError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, EngineError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A u64 count/offset that must fit `usize` (32-bit safety) and is
    /// implicitly bounded by the section length on any later read.
    pub(crate) fn count(&mut self) -> Result<usize, EngineError> {
        let raw = self.u64()?;
        usize::try_from(raw).map_err(|_| {
            EngineError::BadSnapshot(format!(
                "{}: count {raw} does not fit this platform's usize",
                self.section
            ))
        })
    }

    pub(crate) fn u32_vec(&mut self, count: usize) -> Result<Vec<u32>, EngineError> {
        let bytes = count.checked_mul(4).ok_or(EngineError::Truncated {
            section: self.section,
        })?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    pub(crate) fn u64_vec(&mut self, count: usize) -> Result<Vec<u64>, EngineError> {
        let bytes = count.checked_mul(8).ok_or(EngineError::Truncated {
            section: self.section,
        })?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect())
    }

    pub(crate) fn primaries(&mut self, count: usize) -> Result<Vec<PrimaryValues>, EngineError> {
        let mut out = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            out.push(PrimaryValues {
                num_vertices: self.u64()?,
                internal_edges: self.u64()?,
                boundary_edges: self.u64()?,
                triangles: self.u64()?,
                triplets: self.u64()?,
            });
        }
        Ok(out)
    }

    pub(crate) fn finish(self) -> Result<(), EngineError> {
        if self.remaining() != 0 {
            return Err(EngineError::BadSnapshot(format!(
                "{}: {} trailing byte(s) inside the section",
                self.section,
                self.remaining()
            )));
        }
        Ok(())
    }
}

pub(crate) fn bad(section: &str, msg: String) -> EngineError {
    EngineError::BadSnapshot(format!("{section}: {msg}"))
}

fn decode_graph(body: &[u8]) -> Result<CsrGraph, EngineError> {
    let mut r = SectionReader::new(body, "graph");
    let n = r.count()?;
    let nnz = r.count()?;
    let offsets_raw = r.u64_vec(
        n.checked_add(1)
            .ok_or(EngineError::Truncated { section: "graph" })?,
    )?;
    let mut offsets = Vec::with_capacity(offsets_raw.len());
    for off in offsets_raw {
        offsets.push(
            usize::try_from(off)
                .map_err(|_| bad("graph", format!("offset {off} does not fit usize")))?,
        );
    }
    let neighbors = r.u32_vec(nnz)?;
    r.finish()?;
    // bestk-analyze: allow(no-raw-graph) — the blessed deserializer boundary for untrusted bytes
    CsrGraph::try_from_parts(offsets, neighbors).map_err(EngineError::Graph)
}

fn decode_decomp(body: &[u8], graph: &CsrGraph) -> Result<CoreDecomposition, EngineError> {
    let mut r = SectionReader::new(body, "decomposition");
    let n = r.count()?;
    if n != graph.num_vertices() {
        return Err(bad(
            "decomposition",
            format!(
                "declares {n} vertices but the graph has {}",
                graph.num_vertices()
            ),
        ));
    }
    let coreness = r.u32_vec(n)?;
    let order = r.u32_vec(n)?;
    let peel = r.u32_vec(n)?;
    let shells = r.count()?;
    let shell_raw = r.u64_vec(shells)?;
    r.finish()?;
    let mut shell_start = Vec::with_capacity(shell_raw.len());
    for s in shell_raw {
        shell_start.push(usize::try_from(s).map_err(|_| {
            bad(
                "decomposition",
                format!("shell boundary {s} does not fit usize"),
            )
        })?);
    }
    CoreDecomposition::from_parts(coreness, order, peel, shell_start)
        .map_err(|msg| bad("decomposition", msg))
}

/// Decodes and validates the ordering section, returning the owned arrays
/// (validation happens inside `OrderedGraph::from_parts`, which borrows the
/// graph and decomposition only transiently).
fn decode_ordering(
    body: &[u8],
    graph: &CsrGraph,
    decomp: &CoreDecomposition,
) -> Result<(Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>), EngineError> {
    let mut r = SectionReader::new(body, "ordering");
    let nnz = r.count()?;
    // bestk-analyze: allow(no-raw-graph) — ordering sections mirror the raw adjacency layout
    let adj_len = graph.raw_neighbors().len();
    if nnz != adj_len {
        return Err(bad(
            "ordering",
            format!("declares {nnz} adjacency entries but the graph has {adj_len}"),
        ));
    }
    let adj = r.u32_vec(nnz)?;
    let n = graph.num_vertices();
    let same = r.u32_vec(n)?;
    let plus = r.u32_vec(n)?;
    let high = r.u32_vec(n)?;
    r.finish()?;
    let ordered = OrderedGraph::from_parts(graph, decomp, adj, same, plus, high)
        .map_err(|msg| bad("ordering", msg))?;
    Ok(ordered.into_parts())
}

fn decode_forest(body: &[u8], graph: &CsrGraph) -> Result<CoreForest, EngineError> {
    let mut r = SectionReader::new(body, "forest");
    let node_count = r.count()?;
    let mut nodes = Vec::with_capacity(node_count.min(1 << 16));
    for _ in 0..node_count {
        let coreness = r.u32()?;
        let parent_raw = r.u32()?;
        let nv = r.count()?;
        let vertices = r.u32_vec(nv)?;
        nodes.push(CoreForestNode {
            coreness,
            vertices,
            parent: (parent_raw != u32::MAX).then_some(parent_raw),
            children: Vec::new(),
        });
    }
    let vertex_node = r.u32_vec(graph.num_vertices())?;
    r.finish()?;
    CoreForest::from_parts(nodes, vertex_node).map_err(|msg| bad("forest", msg))
}

fn decode_context(
    r: &mut SectionReader<'_>,
    section: &str,
    graph: &CsrGraph,
) -> Result<GraphContext, EngineError> {
    let total_vertices = r.u64()?;
    let total_edges = r.u64()?;
    if total_vertices != graph.num_vertices() as u64 || total_edges != graph.num_edges() as u64 {
        return Err(bad(
            section,
            format!(
                "context ({total_vertices} vertices, {total_edges} edges) disagrees with the graph ({}, {})",
                graph.num_vertices(),
                graph.num_edges()
            ),
        ));
    }
    Ok(GraphContext {
        total_vertices,
        total_edges,
    })
}

fn decode_set_profile(
    body: &[u8],
    graph: &CsrGraph,
    decomp: &CoreDecomposition,
) -> Result<CoreSetProfile, EngineError> {
    let mut r = SectionReader::new(body, "set-profile");
    let kmax = r.u32()?;
    let has_triangles = r.u8()? != 0;
    let context = decode_context(&mut r, "set-profile", graph)?;
    let count = r.count()?;
    let primaries = r.primaries(count)?;
    r.finish()?;
    if kmax != decomp.kmax() {
        return Err(bad(
            "set-profile",
            format!(
                "kmax {kmax} disagrees with the decomposition's {}",
                decomp.kmax()
            ),
        ));
    }
    if count != kmax as usize + 1 {
        return Err(bad(
            "set-profile",
            format!("has {count} entries; kmax {kmax} requires {}", kmax + 1),
        ));
    }
    Ok(CoreSetProfile {
        kmax,
        primaries,
        has_triangles,
        context,
    })
}

fn decode_core_profile(
    body: &[u8],
    graph: &CsrGraph,
    forest: &CoreForest,
) -> Result<SingleCoreProfile, EngineError> {
    let mut r = SectionReader::new(body, "core-profile");
    let has_triangles = r.u8()? != 0;
    let context = decode_context(&mut r, "core-profile", graph)?;
    let count = r.count()?;
    let coreness = r.u32_vec(count)?;
    let primaries = r.primaries(count)?;
    r.finish()?;
    if count != forest.node_count() {
        return Err(bad(
            "core-profile",
            format!(
                "has {count} entries but the forest has {} nodes",
                forest.node_count()
            ),
        ));
    }
    for (i, (&c, node)) in coreness.iter().zip(forest.nodes()).enumerate() {
        if c != node.coreness {
            return Err(bad(
                "core-profile",
                format!(
                    "entry {i} has coreness {c} but forest node {i} has {}",
                    node.coreness
                ),
            ));
        }
    }
    Ok(SingleCoreProfile {
        primaries,
        coreness,
        has_triangles,
        context,
    })
}

/// Parses and validates a whole snapshot held in memory.
///
/// Rejections are structured: [`EngineError::BadMagic`],
/// [`EngineError::VersionSkew`], [`EngineError::Truncated`],
/// [`EngineError::ChecksumMismatch`], [`EngineError::TrailingBytes`],
/// [`EngineError::MissingSection`], or [`EngineError::BadSnapshot`] for
/// structural invariant violations.
pub fn load_bytes(buf: &[u8]) -> Result<Dataset, EngineError> {
    if buf.len() < 8 {
        return Err(EngineError::Truncated { section: "magic" });
    }
    if &buf[..8] != MAGIC {
        return Err(EngineError::BadMagic);
    }
    if buf.len() < 16 {
        return Err(EngineError::Truncated { section: "header" });
    }
    let version = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    if version != VERSION {
        return Err(EngineError::VersionSkew {
            found: version,
            supported: VERSION,
        });
    }
    let section_count = u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]) as usize;
    let header_len = section_count
        .checked_mul(32)
        .and_then(|t| t.checked_add(16))
        .ok_or(EngineError::Truncated {
            section: "section table",
        })?;
    if buf.len() < header_len {
        return Err(EngineError::Truncated {
            section: "section table",
        });
    }

    // Walk the table: sections must be contiguous from the header's end (so
    // the file length is fully determined and trailing garbage detectable),
    // with known, non-duplicate ids and intact checksums.
    let mut bodies: [Option<&[u8]>; 6] = [None; 6];
    let mut cursor = header_len;
    for s in 0..section_count {
        let entry = &buf[16 + 32 * s..16 + 32 * s + 32];
        let mut r = SectionReader::new(entry, "section table");
        let id = r.u32()?;
        let _reserved = r.u32()?;
        let offset = r.count()?;
        let len = r.count()?;
        let checksum = r.u64()?;
        let name = section_name(id)
            .ok_or_else(|| EngineError::BadSnapshot(format!("unknown section id {id}")))?;
        if offset != cursor {
            return Err(EngineError::BadSnapshot(format!(
                "section {name} starts at {offset}, expected {cursor} (sections must be contiguous)"
            )));
        }
        let end = offset
            .checked_add(len)
            .ok_or(EngineError::Truncated { section: name })?;
        if end > buf.len() {
            return Err(EngineError::Truncated { section: name });
        }
        let body = &buf[offset..end];
        if fnv1a(body) != checksum {
            return Err(EngineError::ChecksumMismatch { section: name });
        }
        let slot = (id - 1) as usize;
        if bodies[slot].is_some() {
            return Err(EngineError::BadSnapshot(format!(
                "duplicate {name} section"
            )));
        }
        bodies[slot] = Some(body);
        cursor = end;
    }
    if cursor != buf.len() {
        return Err(EngineError::TrailingBytes);
    }
    let body = |id: u32| -> Result<&[u8], EngineError> {
        bodies[(id - 1) as usize].ok_or_else(|| {
            // section_name is total over the six ids requested below.
            EngineError::MissingSection(section_name(id).unwrap_or("unknown"))
        })
    };

    let graph = decode_graph(body(SEC_GRAPH)?)?;
    let decomp = decode_decomp(body(SEC_DECOMP)?, &graph)?;
    let (adj, same, plus, high) = decode_ordering(body(SEC_ORDERING)?, &graph, &decomp)?;
    let forest = decode_forest(body(SEC_FOREST)?, &graph)?;
    let set_profile = decode_set_profile(body(SEC_SET_PROFILE)?, &graph, &decomp)?;
    let core_profile = decode_core_profile(body(SEC_CORE_PROFILE)?, &graph, &forest)?;
    Ok(Dataset::from_built(
        graph,
        Artifacts {
            decomp,
            adj,
            same,
            plus,
            high,
            forest,
            set_profile,
            core_profile,
        },
    ))
}

/// Reads a snapshot from any reader (buffers the stream, then parses).
pub fn load<R: Read>(mut reader: R) -> Result<Dataset, EngineError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    load_bytes(&buf)
}

/// Reads a snapshot from a file path (one attempt; see
/// [`load_path_with_retry`]).
pub fn load_path<P: AsRef<Path>>(path: P) -> Result<Dataset, EngineError> {
    load_path_with_retry(path, &RetryPolicy::none())
}

/// Reads a snapshot from a file path, retrying transient I/O failures
/// under `policy`. Corruption (bad magic, checksum mismatch, truncation,
/// …) is returned immediately — re-reading the same bad bytes cannot fix
/// them.
pub fn load_path_with_retry<P: AsRef<Path>>(
    path: P,
    policy: &RetryPolicy,
) -> Result<Dataset, EngineError> {
    // Version dispatch by magic sniff: a v2 file routes to the zero-copy
    // mmap opener; everything else (v1, garbage, missing) stays on the v1
    // path, whose own validation produces the structured error.
    if sniff_magic(path.as_ref()) == Some(*crate::snapv2::MAGIC) {
        return crate::snapv2::open_with_retry(path, policy);
    }
    let bytes = with_retries(policy, || read_snapshot_bytes(path.as_ref()))?;
    load_bytes(&bytes)
}

/// Reads the first 8 bytes of `path`, if it has them. Errors map to
/// `None` — the caller's real read reports them properly.
fn sniff_magic(path: &Path) -> Option<[u8; 8]> {
    let mut f = std::fs::File::open(path).ok()?;
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic).ok()?;
    Some(magic)
}

/// The resilient load ladder as a free function: read `path` (retrying
/// transient I/O under `retry`); on corruption, quarantine the bad file
/// and rebuild the full index from the `source` graph file if one is
/// given; otherwise surface the typed error.
///
/// This is deliberately registry-free — every byte of disk I/O and the
/// whole `O(m^1.5)` rebuild happen here, so callers holding a registry
/// lock can (and must) finish this *before* acquiring it. The returned
/// dataset is fully built on the [`Rebuilt`](LoadOutcome::Rebuilt) path
/// and arrives built from any valid snapshot.
pub fn load_or_rebuild(
    path: &str,
    source: Option<&str>,
    retry: &RetryPolicy,
    policy: &ExecPolicy,
) -> Result<(Dataset, LoadOutcome), EngineError> {
    match load_path_with_retry(path, retry) {
        Ok(dataset) => Ok((dataset, LoadOutcome::Loaded)),
        Err(e) if e.is_corruption() => {
            let source = match source {
                Some(s) => s,
                None => return Err(e),
            };
            // Quarantine is best-effort: the rebuild below is the part
            // that restores service.
            if std::fs::rename(path, format!("{path}.quarantine")).is_ok() {
                bestk_obs::counter("engine.quarantines").inc();
            }
            let graph = {
                let _span = bestk_obs::span!("phase.load");
                bestk_graph::io::read_auto_path(source)?
            };
            let mut dataset = Dataset::from_graph(graph);
            dataset.ensure_built(policy);
            Ok((dataset, LoadOutcome::Rebuilt))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_core::Metric;
    use bestk_exec::ExecPolicy;
    use bestk_graph::generators;

    use crate::query::Query;

    fn built(g: CsrGraph) -> Dataset {
        let mut ds = Dataset::from_graph(g);
        ds.ensure_built(&ExecPolicy::Sequential);
        ds
    }

    fn snapshot_of(g: CsrGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        save(&built(g), &mut buf).unwrap();
        buf
    }

    fn all_queries() -> Vec<Query> {
        let mut qs = vec![Query::Stats];
        for m in Metric::ALL {
            qs.push(Query::BestKSet { metric: m });
            qs.push(Query::BestCore { metric: m });
            qs.push(Query::ScoreProfile { metric: m });
        }
        qs
    }

    fn answers(ds: &Dataset) -> Vec<String> {
        ds.answer_batch(&all_queries(), &ExecPolicy::Sequential)
            .into_iter()
            .map(|r| r.unwrap().to_line())
            .collect()
    }

    #[test]
    fn round_trip_preserves_every_answer() {
        for (name, g) in [
            ("fig2", generators::paper_figure2()),
            ("er", generators::erdos_renyi_gnm(150, 600, 7)),
            ("cl", generators::chung_lu_power_law(200, 6.0, 2.4, 9)),
            (
                "cliques",
                generators::overlapping_cliques(120, 20, (4, 9), 3),
            ),
        ] {
            let original = built(g);
            let mut buf = Vec::new();
            save(&original, &mut buf).unwrap();
            let loaded = load_bytes(&buf).unwrap();
            assert!(loaded.is_built(), "{name}");
            assert_eq!(loaded.graph(), original.graph(), "{name}");
            assert_eq!(answers(&loaded), answers(&original), "{name}");
        }
    }

    #[test]
    fn round_trip_empty_and_tiny() {
        for g in [CsrGraph::empty(0), CsrGraph::empty(5)] {
            let original = built(g);
            let mut buf = Vec::new();
            save(&original, &mut buf).unwrap();
            let loaded = load_bytes(&buf).unwrap();
            assert_eq!(loaded.graph(), original.graph());
        }
    }

    #[test]
    fn saving_an_unbuilt_dataset_is_an_error() {
        let ds = Dataset::from_graph(generators::paper_figure2());
        let err = save(&ds, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, EngineError::BadSnapshot(_)), "{err}");
    }

    #[test]
    fn rejects_bad_magic_and_version_skew() {
        let mut buf = snapshot_of(generators::paper_figure2());
        let mut wrong = buf.clone();
        wrong[0] = b'X';
        assert!(matches!(load_bytes(&wrong), Err(EngineError::BadMagic)));
        // Bump the version field.
        buf[8] = 99;
        match load_bytes(&buf) {
            Err(EngineError::VersionSkew { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, VERSION);
            }
            other => panic!("expected VersionSkew, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let buf = snapshot_of(generators::paper_figure2());
        // Sweep a range of cut points: prologue, table, and payload. Every
        // one must produce a structured error, never a panic, and cuts are
        // always rejected (shorter files cannot be valid).
        for cut in [0, 4, 8, 12, 15, 16, 40, 100, buf.len() - 1, buf.len() - 17] {
            let err = load_bytes(&buf[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    EngineError::Truncated { .. } | EngineError::BadSnapshot(_)
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut buf = snapshot_of(generators::paper_figure2());
        buf.push(0xAB);
        assert!(matches!(load_bytes(&buf), Err(EngineError::TrailingBytes)));
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_benign() {
        // Flip each byte of a small snapshot: the loader must never panic,
        // and payload corruption must surface as ChecksumMismatch (header
        // corruption may surface as any structured error). The reserved
        // table fields are the only bytes a flip may leave undetected.
        let buf = snapshot_of(generators::paper_figure2());
        let reserved: Vec<usize> = (0..6).map(|s| 16 + 32 * s + 4).collect();
        for at in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[at] ^= 0x40;
            let result = load_bytes(&corrupt);
            if reserved.iter().any(|&r| (r..r + 4).contains(&at)) {
                continue; // reserved padding: either outcome is fine
            }
            assert!(result.is_err(), "flip at byte {at} was accepted");
        }
    }

    #[test]
    fn payload_corruption_is_a_checksum_mismatch() {
        let buf = snapshot_of(generators::paper_figure2());
        let header_len = 16 + 32 * 6;
        let mut corrupt = buf.clone();
        corrupt[header_len + 3] ^= 0xFF;
        assert!(matches!(
            load_bytes(&corrupt),
            Err(EngineError::ChecksumMismatch { section: "graph" })
        ));
        let mut corrupt = buf.clone();
        *corrupt.last_mut().unwrap() ^= 0xFF;
        assert!(matches!(
            load_bytes(&corrupt),
            Err(EngineError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn consistent_but_wrong_section_is_structurally_rejected() {
        // Re-checksum a tampered section so the CRC passes; the structural
        // validators must still catch the lie. Corrupt the first coreness
        // entry in the decomposition section.
        let buf = snapshot_of(generators::paper_figure2());
        let mut corrupt = buf.clone();
        // Section table entry 1 (decomposition): offset at 16+32+8.
        let entry = 16 + 32;
        let off = u64::from_le_bytes(corrupt[entry + 8..entry + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(corrupt[entry + 16..entry + 24].try_into().unwrap()) as usize;
        corrupt[off + 8] ^= 0x01; // first coreness value
        let sum = fnv1a(&corrupt[off..off + len]);
        corrupt[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
        let err = load_bytes(&corrupt).unwrap_err();
        assert!(matches!(err, EngineError::BadSnapshot(_)), "{err}");
    }

    #[test]
    fn fnv1a_reference_values() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("bestk-engine-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bestk");
        let original = built(generators::erdos_renyi_gnm(80, 320, 5));
        save_path(&original, &path).unwrap();
        let loaded = load_path(&path).unwrap();
        assert_eq!(loaded.graph(), original.graph());
        assert_eq!(answers(&loaded), answers(&original));
        std::fs::remove_file(path).ok();
    }

    fn zero_backoff(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            backoff: Duration::ZERO,
        }
    }

    #[test]
    fn injected_write_crash_heals_on_retry() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        let dir = std::env::temp_dir().join("bestk-engine-snap-wfault");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bestk");
        let original = built(generators::paper_figure2());
        // One injected mid-write crash: the first attempt persists a partial
        // file and errors; the bounded retry overwrites it from scratch.
        let plan = FaultPlan::new(11).site(
            sites::SNAPSHOT_WRITE,
            SiteSpec::always(Fault::Truncate).with_budget(1),
        );
        bestk_faults::with_plan(&plan, || {
            save_path_with_retry(&original, &path, &zero_backoff(3)).unwrap();
        });
        let loaded = load_path(&path).unwrap();
        assert_eq!(answers(&loaded), answers(&original));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_write_crash_without_retry_is_a_typed_error() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        let dir = std::env::temp_dir().join("bestk-engine-snap-wfault2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bestk");
        let original = built(generators::paper_figure2());
        let plan = FaultPlan::new(7).site(
            sites::SNAPSHOT_WRITE,
            SiteSpec::always(Fault::Truncate).with_budget(1),
        );
        bestk_faults::with_plan(&plan, || {
            let err = save_path(&original, &path).unwrap_err();
            assert!(matches!(err, EngineError::Io(_)), "{err}");
            // The partial file left behind is rejected as corrupt, never a
            // panic.
            let err = load_path(&path).unwrap_err();
            assert!(err.is_corruption(), "{err}");
        });
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn transient_read_errors_retry_to_success() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        let dir = std::env::temp_dir().join("bestk-engine-snap-rfault");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bestk");
        let original = built(generators::paper_figure2());
        save_path(&original, &path).unwrap();
        let plan = FaultPlan::new(3).site(
            sites::SNAPSHOT_READ,
            SiteSpec::mixed(vec![Fault::Interrupted, Fault::WouldBlock], 1.0).with_budget(2),
        );
        bestk_faults::with_plan(&plan, || {
            // Not enough attempts: the transient error surfaces, typed.
            let err = load_path_with_retry(&path, &zero_backoff(1)).unwrap_err();
            assert!(matches!(err, EngineError::Io(_)), "{err}");
            // Enough attempts to outlast the budget: the load succeeds.
            let loaded = load_path_with_retry(&path, &zero_backoff(4)).unwrap();
            assert_eq!(answers(&loaded), answers(&original));
        });
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_read_corruption_is_rejected_not_retried() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        let dir = std::env::temp_dir().join("bestk-engine-snap-cfault");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bestk");
        let original = built(generators::paper_figure2());
        save_path(&original, &path).unwrap();
        // Injected truncation of the read buffer: shorter snapshots are
        // always structurally invalid, so every seed must yield a typed
        // corruption error (retries don't help and must not loop).
        for seed in 0..8 {
            let plan =
                FaultPlan::new(seed).site(sites::SNAPSHOT_READ, SiteSpec::always(Fault::Truncate));
            bestk_faults::with_plan(&plan, || {
                let err = load_path_with_retry(&path, &zero_backoff(3)).unwrap_err();
                assert!(err.is_corruption(), "seed {seed}: {err}");
            });
        }
        // Bit flips obey the chaos invariant: correct answer or typed error.
        for seed in 0..8 {
            let plan =
                FaultPlan::new(seed).site(sites::SNAPSHOT_READ, SiteSpec::always(Fault::BitFlip));
            bestk_faults::with_plan(&plan, || match load_path(&path) {
                Ok(loaded) => assert_eq!(answers(&loaded), answers(&original)),
                Err(err) => assert!(err.is_corruption(), "seed {seed}: {err}"),
            });
        }
        std::fs::remove_file(path).ok();
    }
}
