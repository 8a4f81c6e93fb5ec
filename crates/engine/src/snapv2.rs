//! The `.bestk` snapshot format (`BESTKSS2`): zero-copy, mmap-friendly.
//!
//! A snapshot is *opened*, not deserialized: the file is memory-mapped,
//! every byte of it is checked, the two (tiny) profile sections are
//! decoded, and the graph plus coreness sections are served straight out
//! of the mapping — no allocation proportional to the graph, and no second
//! copy of it.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic = b"BESTKSS2"
//! 8       4     version = 2
//! 12      4     section count
//! 16      8     n      — vertex count
//! 24      8     nnz    — adjacency entries (2 m)
//! 32      4     kmax
//! 36      4     forest node count
//! 40      8     fnv1a of the section table bytes
//! 48      8     fnv1a of header bytes 0..48
//! 56      8     reserved (zero)
//! 64      table: sections × { id u32, reserved u32 (zero), offset u64, len u64, fnv1a u64 }
//! ...     section bodies, ascending offsets, each 8-byte aligned, zero padding between
//! ```
//!
//! Section ids and bodies:
//!
//! | id | name           | body |
//! |----|----------------|------|
//! | 1  | `graph`        | the [`ByteCsr`] layout (`n u64, nnz u64, offsets (n+1)×u64, neighbors nnz×u32`) |
//! | 5  | `set-profile`  | `kmax u32, tri u8, n u64, m u64, count u64, count × 5×u64 primaries` |
//! | 6  | `core-profile` | `tri u8, n u64, m u64, count u64, coreness count×u32, count × 5×u64 primaries` |
//! | 7  | `coreness`     | `n × u32` |
//!
//! ## What an open checks
//!
//! [`open_mmap`] rejects a file unless every byte is accounted for: the
//! header and table checksums, zero reserved bytes and padding, the
//! checksum of every section (the graph's included), the full simple-graph
//! invariants of the mapped adjacency (sorted, symmetric, in range, no
//! self loops — [`ByteCsr::new`]), and the coreness array against the set
//! profile's per-k vertex counts. A corrupt or hand-edited snapshot is a
//! typed [`EngineError`] at open, never a wrong answer or a panic later.
//! The price is one `O(n + m)` pass over the mapped bytes.

use std::path::Path;
use std::sync::Arc;

use bestk_core::{CoreSetProfile, GraphContext, PrimaryValues, SingleCoreProfile};
use bestk_graph::{ByteCsr, GraphView, VertexId};

use crate::dataset::Dataset;
use crate::error::EngineError;
use crate::mmap::Mmap;
use crate::snapshot::{fnv1a, with_retries, write_snapshot_bytes, RetryPolicy};
use crate::store::{GraphStore, SnapshotSlice};

/// The magic bytes: the `BESTKSS` family prefix plus the version digit.
pub const MAGIC: &[u8; 8] = b"BESTKSS2";
/// The format version number.
pub const VERSION: u32 = 2;
/// Fixed header length in bytes.
const HEADER_LEN: usize = 64;
/// Bytes of the header covered by the header checksum.
const HEADER_CHECKED: usize = 48;
/// Section table entry size.
const ENTRY_LEN: usize = 32;

const SEC_GRAPH: u32 = 1;
const SEC_SET_PROFILE: u32 = 5;
const SEC_CORE_PROFILE: u32 = 6;
const SEC_CORENESS: u32 = 7;

fn section_name(id: u32) -> Option<&'static str> {
    match id {
        SEC_GRAPH => Some("graph"),
        SEC_SET_PROFILE => Some("set-profile"),
        SEC_CORE_PROFILE => Some("core-profile"),
        SEC_CORENESS => Some("coreness"),
        _ => None,
    }
}

/// Rounds `x` up to the next multiple of 8.
fn align8(x: usize) -> usize {
    x.div_ceil(8) * 8
}

fn bad(section: &str, msg: String) -> EngineError {
    EngineError::BadSnapshot(format!("{section}: {msg}"))
}

// ---------------------------------------------------------------- writing

fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_primaries(buf: &mut Vec<u8>, pv: &PrimaryValues) {
    put_u64(buf, pv.num_vertices);
    put_u64(buf, pv.internal_edges);
    put_u64(buf, pv.boundary_edges);
    put_u64(buf, pv.triangles);
    put_u64(buf, pv.triplets);
}

fn encode_set_profile(p: &CoreSetProfile) -> Vec<u8> {
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

fn encode_core_profile(p: &SingleCoreProfile) -> Vec<u8> {
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

/// Serializes a built dataset into the snapshot byte layout.
pub fn to_bytes(dataset: &Dataset) -> Result<Vec<u8>, EngineError> {
    let art = dataset.artifacts().ok_or_else(|| {
        EngineError::BadSnapshot(
            "cannot save a snapshot from a dataset whose artifacts are not built".into(),
        )
    })?;
    let g = dataset.graph();
    let mut coreness = Vec::with_capacity(4 * g.num_vertices());
    for &c in art.decomp.coreness_slice() {
        put_u32(&mut coreness, c);
    }
    let sections: [(u32, Vec<u8>); 4] = [
        (SEC_GRAPH, bestk_graph::bytecsr::encode_view(g)),
        (SEC_SET_PROFILE, encode_set_profile(&art.set_profile)),
        (SEC_CORE_PROFILE, encode_core_profile(&art.core_profile)),
        (SEC_CORENESS, coreness),
    ];

    // Lay the sections out 8-byte aligned after the table, then build the
    // table, then the header (its checksum covers the table checksum).
    let table_end = HEADER_LEN + ENTRY_LEN * sections.len();
    let mut offsets = Vec::with_capacity(sections.len());
    let mut cursor = align8(table_end);
    let mut total = cursor;
    for (_, body) in &sections {
        offsets.push(cursor);
        total = cursor + body.len();
        cursor = align8(total);
    }

    let mut table = Vec::with_capacity(ENTRY_LEN * sections.len());
    for ((id, body), &off) in sections.iter().zip(&offsets) {
        put_u32(&mut table, *id);
        put_u32(&mut table, 0);
        put_u64(&mut table, off as u64);
        put_u64(&mut table, body.len() as u64);
        put_u64(&mut table, fnv1a(body));
    }

    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, bestk_graph::cast::u32_of(sections.len()));
    put_u64(&mut out, g.num_vertices() as u64);
    put_u64(&mut out, 2 * g.num_edges() as u64);
    put_u32(&mut out, art.decomp.kmax());
    put_u32(&mut out, bestk_graph::cast::u32_of(art.forest.node_count()));
    put_u64(&mut out, fnv1a(&table));
    let header_checksum = fnv1a(&out[..HEADER_CHECKED]);
    put_u64(&mut out, header_checksum);
    put_u64(&mut out, 0);
    out.extend_from_slice(&table);
    for ((_, body), &off) in sections.iter().zip(&offsets) {
        out.resize(off, 0);
        out.extend_from_slice(body);
    }
    Ok(out)
}

/// Writes a snapshot to `path` (one attempt).
pub fn save_path<P: AsRef<Path>>(dataset: &Dataset, path: P) -> Result<(), EngineError> {
    save_path_with_retry(dataset, path, &RetryPolicy::none())
}

/// Writes a snapshot to `path`, retrying transient I/O failures under
/// `policy`. The snapshot is serialized once up front; each attempt goes
/// through the `snapshot.write` failpoint-instrumented writer and rewrites
/// the whole file, so a partially-persisted earlier attempt is healed
/// rather than appended to.
pub fn save_path_with_retry<P: AsRef<Path>>(
    dataset: &Dataset,
    path: P,
    policy: &RetryPolicy,
) -> Result<(), EngineError> {
    let bytes = to_bytes(dataset)?;
    with_retries(policy, || write_snapshot_bytes(path.as_ref(), &bytes)).map_err(EngineError::Io)
}

// ---------------------------------------------------------------- opening

/// The index portion of an opened snapshot: decoded profiles plus
/// zero-copy access to the mapped coreness array.
#[derive(Debug, Clone)]
pub struct MappedIndex {
    map: Arc<Mmap>,
    coreness_off: usize,
    n: usize,
    kmax: u32,
    forest_nodes: u32,
    set_profile: CoreSetProfile,
    core_profile: SingleCoreProfile,
}

impl MappedIndex {
    /// `kmax` as recorded in the snapshot header.
    pub fn kmax(&self) -> u32 {
        self.kmax
    }

    /// Core-forest node count as recorded in the snapshot header.
    pub fn forest_nodes(&self) -> u32 {
        self.forest_nodes
    }

    /// The per-k set profile (decoded eagerly; it is `O(kmax)` small).
    pub fn set_profile(&self) -> &CoreSetProfile {
        &self.set_profile
    }

    /// The per-core profile (decoded eagerly; `O(#cores)` small).
    pub fn core_profile(&self) -> &SingleCoreProfile {
        &self.core_profile
    }

    /// Coreness of `vertex`, read directly from the mapped section —
    /// a single 4-byte access. `None` when the vertex is out of range.
    pub fn core_of(&self, vertex: VertexId) -> Option<u32> {
        let v = vertex as usize;
        if v >= self.n {
            return None;
        }
        Some(read_u32(self.map.as_slice(), self.coreness_off + 4 * v))
    }

    /// Approximate heap bytes held by the decoded (non-mapped) parts.
    pub fn resident_bytes(&self) -> usize {
        40 * self.set_profile.primaries.len() + 44 * self.core_profile.primaries.len()
    }
}

/// Little-endian `u32` at `at`; callers bounds-check the section first.
fn read_u32(buf: &[u8], at: usize) -> u32 {
    let b = &buf[at..at + 4];
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Opens an established mapping: checks every byte (see the module docs)
/// and returns a dataset that answers every query from the mapping.
pub fn open_mmap(map: Arc<Mmap>) -> Result<Dataset, EngineError> {
    let buf = map.as_slice();
    if buf.len() < 8 {
        return Err(EngineError::Truncated { section: "magic" });
    }
    // Another version digit behind the family prefix (the retired version
    // 1, say) is a version skew, not foreign bytes.
    if buf[..7] == MAGIC[..7] && buf[7] != MAGIC[7] && buf[7].is_ascii_digit() {
        return Err(EngineError::VersionSkew {
            found: u32::from(buf[7] - b'0'),
            supported: VERSION,
        });
    }
    if &buf[..8] != MAGIC {
        return Err(EngineError::BadMagic);
    }
    if buf.len() < HEADER_LEN {
        return Err(EngineError::Truncated { section: "header" });
    }
    let mut h = SectionReader::new(&buf[8..HEADER_LEN], "header");
    let version = h.u32()?;
    if version != VERSION {
        return Err(EngineError::VersionSkew {
            found: version,
            supported: VERSION,
        });
    }
    let section_count = h.u32()? as usize;
    let n = h.count()?;
    let nnz = h.count()?;
    let kmax = h.u32()?;
    let forest_nodes = h.u32()?;
    let table_checksum = h.u64()?;
    let header_checksum = h.u64()?;
    if fnv1a(&buf[..HEADER_CHECKED]) != header_checksum {
        return Err(EngineError::ChecksumMismatch { section: "header" });
    }
    if h.u64()? != 0 {
        return Err(bad("header", "reserved bytes 56..64 are not zero".into()));
    }
    let table_end = section_count
        .checked_mul(ENTRY_LEN)
        .and_then(|t| t.checked_add(HEADER_LEN))
        .ok_or(EngineError::Truncated {
            section: "section table",
        })?;
    if buf.len() < table_end {
        return Err(EngineError::Truncated {
            section: "section table",
        });
    }
    let table = &buf[HEADER_LEN..table_end];
    if fnv1a(table) != table_checksum {
        return Err(EngineError::ChecksumMismatch {
            section: "section table",
        });
    }

    // Walk the table: known non-duplicate ids, zero reserved fields,
    // aligned ascending offsets, zero padding, in-bounds bodies with
    // intact checksums.
    let mut found: [Option<(usize, &[u8])>; 4] = [None; 4];
    let mut raw_end = table_end;
    for s in 0..section_count {
        let mut r = SectionReader::new(&table[ENTRY_LEN * s..ENTRY_LEN * (s + 1)], "section table");
        let id = r.u32()?;
        let reserved = r.u32()?;
        let offset = r.count()?;
        let len = r.count()?;
        let checksum = r.u64()?;
        let name = section_name(id)
            .ok_or_else(|| EngineError::BadSnapshot(format!("unknown section id {id}")))?;
        if reserved != 0 {
            return Err(bad(name, "reserved table field is not zero".into()));
        }
        let expected = align8(raw_end);
        if offset != expected {
            return Err(EngineError::BadSnapshot(format!(
                "section {name} starts at {offset}, expected {expected}"
            )));
        }
        let end = offset
            .checked_add(len)
            .ok_or(EngineError::Truncated { section: name })?;
        if end > buf.len() {
            return Err(EngineError::Truncated { section: name });
        }
        if buf[raw_end..offset].iter().any(|&b| b != 0) {
            return Err(bad(name, "padding before the section is not zero".into()));
        }
        let body = &buf[offset..end];
        if fnv1a(body) != checksum {
            return Err(EngineError::ChecksumMismatch { section: name });
        }
        let slot = match id {
            SEC_GRAPH => 0,
            SEC_SET_PROFILE => 1,
            SEC_CORE_PROFILE => 2,
            _ => 3,
        };
        if found[slot].is_some() {
            return Err(EngineError::BadSnapshot(format!(
                "duplicate {name} section"
            )));
        }
        found[slot] = Some((offset, body));
        raw_end = end;
    }
    if buf.len() != raw_end {
        return Err(EngineError::TrailingBytes);
    }
    let want =
        |slot: usize, name: &'static str| found[slot].ok_or(EngineError::MissingSection(name));
    let (graph_off, graph_body) = want(0, "graph")?;
    let set_profile = decode_set_profile(want(1, "set-profile")?.1, n, nnz, kmax)?;
    let core_profile = decode_core_profile(want(2, "core-profile")?.1, n, nnz, forest_nodes)?;
    let (coreness_off, coreness) = want(3, "coreness")?;
    if coreness.len() != 4 * n {
        return Err(bad(
            "coreness",
            format!("{} bytes for {n} vertices (want {})", coreness.len(), 4 * n),
        ));
    }
    check_coreness(coreness, &set_profile)?;

    // Graph: the full CSR invariants over the mapped bytes, cross-checked
    // against the header.
    let slice = SnapshotSlice::new(Arc::clone(&map), graph_off, graph_body.len())
        .ok_or(EngineError::Truncated { section: "graph" })?;
    let view = ByteCsr::new(slice).map_err(EngineError::Graph)?;
    if view.num_vertices() != n || 2 * view.num_edges() != nnz {
        return Err(bad(
            "graph",
            format!(
                "graph section declares n = {}, nnz = {} but the header says n = {n}, nnz = {nnz}",
                view.num_vertices(),
                2 * view.num_edges()
            ),
        ));
    }

    let index = MappedIndex {
        map,
        coreness_off,
        n,
        kmax,
        forest_nodes,
        set_profile,
        core_profile,
    };
    Ok(Dataset::from_mapped(GraphStore::Mapped(view), index))
}

/// The coreness section must agree with the set profile: every value at
/// most `kmax`, and exactly `primaries[k].num_vertices` vertices of
/// coreness `>= k` for every `k` — so no single value can change
/// unnoticed. `O(n + kmax)`.
fn check_coreness(body: &[u8], profile: &CoreSetProfile) -> Result<(), EngineError> {
    let kmax = profile.kmax as usize;
    let mut at_least = vec![0u64; kmax + 2];
    for b in body.chunks_exact(4) {
        let c = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        if c > kmax {
            return Err(bad("coreness", format!("value {c} exceeds kmax {kmax}")));
        }
        at_least[c] += 1;
    }
    for k in (0..=kmax).rev() {
        at_least[k] += at_least[k + 1];
        if at_least[k] != profile.primaries[k].num_vertices {
            return Err(bad(
                "coreness",
                format!(
                    "{} vertices have coreness >= {k}, the set profile says {}",
                    at_least[k], profile.primaries[k].num_vertices
                ),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- decode

/// A bounds-checked cursor over one section's bytes: every overrun is a
/// [`EngineError::Truncated`] naming the section, and `finish` rejects
/// bytes the layout did not account for.
struct SectionReader<'a> {
    buf: &'a [u8],
    at: usize,
    section: &'static str,
}

impl<'a> SectionReader<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        SectionReader {
            buf,
            at: 0,
            section,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], EngineError> {
        if len > self.remaining() {
            return Err(EngineError::Truncated {
                section: self.section,
            });
        }
        let slice = &self.buf[self.at..self.at + len];
        self.at += len;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, EngineError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, EngineError> {
        Ok(read_u32(self.take(4)?, 0))
    }

    fn u64(&mut self) -> Result<u64, EngineError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A u64 count/offset that must fit `usize` (32-bit safety) and is
    /// implicitly bounded by the section length on any later read.
    fn count(&mut self) -> Result<usize, EngineError> {
        let raw = self.u64()?;
        usize::try_from(raw).map_err(|_| {
            EngineError::BadSnapshot(format!(
                "{}: count {raw} does not fit this platform's usize",
                self.section
            ))
        })
    }

    fn u32_vec(&mut self, count: usize) -> Result<Vec<u32>, EngineError> {
        let bytes = count.checked_mul(4).ok_or(EngineError::Truncated {
            section: self.section,
        })?;
        let raw = self.take(bytes)?;
        Ok(raw.chunks_exact(4).map(|b| read_u32(b, 0)).collect())
    }

    fn primaries(&mut self, count: usize) -> Result<Vec<PrimaryValues>, EngineError> {
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

    fn finish(self) -> Result<(), EngineError> {
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

fn decode_context(
    r: &mut SectionReader<'_>,
    section: &'static str,
    n: usize,
    nnz: usize,
) -> Result<GraphContext, EngineError> {
    let total_vertices = r.u64()?;
    let total_edges = r.u64()?;
    if total_vertices != n as u64 || total_edges != (nnz / 2) as u64 {
        return Err(bad(
            section,
            format!(
                "context ({total_vertices} vertices, {total_edges} edges) disagrees with the \
                 header ({n}, {})",
                nnz / 2
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
    n: usize,
    nnz: usize,
    header_kmax: u32,
) -> Result<CoreSetProfile, EngineError> {
    let mut r = SectionReader::new(body, "set-profile");
    let kmax = r.u32()?;
    let has_triangles = decode_flag(&mut r, "set-profile")?;
    let context = decode_context(&mut r, "set-profile", n, nnz)?;
    let count = r.count()?;
    let primaries = r.primaries(count)?;
    r.finish()?;
    if kmax != header_kmax {
        return Err(bad(
            "set-profile",
            format!("kmax {kmax} disagrees with the header's {header_kmax}"),
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
    n: usize,
    nnz: usize,
    forest_nodes: u32,
) -> Result<SingleCoreProfile, EngineError> {
    let mut r = SectionReader::new(body, "core-profile");
    let has_triangles = decode_flag(&mut r, "core-profile")?;
    let context = decode_context(&mut r, "core-profile", n, nnz)?;
    let count = r.count()?;
    let coreness = r.u32_vec(count)?;
    let primaries = r.primaries(count)?;
    r.finish()?;
    if count != forest_nodes as usize {
        return Err(bad(
            "core-profile",
            format!("has {count} entries but the header declares {forest_nodes} forest nodes"),
        ));
    }
    Ok(SingleCoreProfile {
        primaries,
        coreness,
        has_triangles,
        context,
    })
}

/// A boolean byte: exactly 0 or 1, so no bit of it is unchecked.
fn decode_flag(r: &mut SectionReader<'_>, section: &'static str) -> Result<bool, EngineError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(bad(
            section,
            format!("flag byte {other} is neither 0 nor 1"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Answer, Query};
    use bestk_core::Metric;
    use bestk_exec::ExecPolicy;
    use bestk_graph::{generators, CsrGraph};

    fn built(g: CsrGraph) -> Dataset {
        let mut ds = Dataset::from_graph(g);
        ds.ensure_built(&ExecPolicy::Sequential);
        ds
    }

    fn open_bytes(bytes: Vec<u8>) -> Result<Dataset, EngineError> {
        open_mmap(Arc::new(Mmap::from_vec(bytes)))
    }

    fn figure2_bytes() -> Vec<u8> {
        to_bytes(&built(generators::paper_figure2())).unwrap()
    }

    fn all_queries() -> Vec<Query> {
        let mut qs = vec![Query::Stats];
        for m in Metric::EXTENDED {
            qs.push(Query::BestKSet { metric: m });
            qs.push(Query::BestCore { metric: m });
            qs.push(Query::ScoreProfile { metric: m });
        }
        for v in 0..12 {
            qs.push(Query::CoreOfVertex { vertex: v });
        }
        qs
    }

    fn answers(ds: &Dataset) -> Vec<String> {
        all_queries()
            .iter()
            .map(|q| {
                ds.answer(q)
                    .map(|a| a.to_line())
                    .unwrap_or_else(|e| format!("err\t{e}"))
            })
            .collect()
    }

    /// `(offset, len)` of table entry `slot`'s section body.
    fn section(bytes: &[u8], slot: usize) -> (usize, usize) {
        let entry = HEADER_LEN + ENTRY_LEN * slot;
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        (word(entry + 8), word(entry + 16))
    }

    /// Recomputes every section checksum, the table checksum, and the
    /// header checksum, so a tampered body reaches the structural checks.
    fn reseal(bytes: &mut [u8]) {
        for slot in 0..4 {
            let (off, len) = section(bytes, slot);
            let sum = fnv1a(&bytes[off..off + len]);
            let at = HEADER_LEN + ENTRY_LEN * slot + 24;
            bytes[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        }
        let table = fnv1a(&bytes[HEADER_LEN..HEADER_LEN + 4 * ENTRY_LEN]);
        bytes[40..48].copy_from_slice(&table.to_le_bytes());
        let header = fnv1a(&bytes[..HEADER_CHECKED]);
        bytes[48..56].copy_from_slice(&header.to_le_bytes());
    }

    #[test]
    fn round_trip_preserves_every_answer() {
        let ds = built(generators::paper_figure2());
        let mapped = open_bytes(to_bytes(&ds).unwrap()).unwrap();
        assert_eq!(mapped.graph().backend_name(), "mapped");
        assert!(mapped.is_built());
        assert_eq!(answers(&mapped), answers(&ds));
    }

    #[test]
    fn round_trip_empty_and_tiny() {
        for g in [CsrGraph::empty(0), CsrGraph::empty(5)] {
            let original = built(g);
            let loaded = open_bytes(to_bytes(&original).unwrap()).unwrap();
            assert_eq!(loaded.graph(), original.graph());
        }
    }

    #[test]
    fn file_round_trip_via_real_mmap() {
        let dir = std::env::temp_dir().join("bestk-snapv2-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig2.bestk");
        let ds = built(generators::paper_figure2());
        save_path(&ds, &path).unwrap();
        let mapped = crate::snapshot::load_path(&path).unwrap();
        assert_eq!(answers(&mapped), answers(&ds));
        let a = mapped.answer(&Query::Stats).unwrap();
        assert_eq!(
            a,
            Answer::Stats {
                vertices: 12,
                edges: 19,
                kmax: 3,
                forest_nodes: 3
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let bytes = figure2_bytes();
        let mut b = bytes.clone();
        b[0] ^= 0xff;
        assert!(matches!(open_bytes(b).unwrap_err(), EngineError::BadMagic));
        // Version (header checksum recomputed so the skew is what's seen).
        let mut b = bytes.clone();
        b[8..12].copy_from_slice(&9u32.to_le_bytes());
        reseal(&mut b);
        let e = open_bytes(b).unwrap_err();
        assert!(
            matches!(
                e,
                EngineError::VersionSkew {
                    found: 9,
                    supported: 2
                }
            ),
            "{e}"
        );
        // Truncations at a few boundaries.
        for cut in [0, 4, 32, 70, bytes.len() / 2, bytes.len() - 1] {
            let e = open_bytes(bytes[..cut].to_vec()).unwrap_err();
            assert!(e.is_corruption(), "cut {cut}: {e}");
        }
    }

    #[test]
    fn retired_v1_images_are_a_typed_version_skew() {
        let mut b = figure2_bytes();
        b[7] = b'1';
        let e = open_bytes(b).unwrap_err();
        assert!(
            matches!(
                e,
                EngineError::VersionSkew {
                    found: 1,
                    supported: 2
                }
            ),
            "{e}"
        );
        assert!(e.is_corruption());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut b = figure2_bytes();
        b.push(0xAB);
        assert!(matches!(
            open_bytes(b).unwrap_err(),
            EngineError::TrailingBytes
        ));
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        // No exemptions: the header's reserved bytes, the inter-section
        // padding, and every byte of the graph body are checked at open.
        let bytes = figure2_bytes();
        assert_eq!(bytes.len(), 864);
        for at in 0..bytes.len() {
            for mask in [0x01, 0x40, 0xff] {
                let mut b = bytes.clone();
                b[at] ^= mask;
                match open_bytes(b) {
                    Ok(_) => panic!("flip {mask:#04x} at byte {at} was accepted"),
                    Err(e) => assert!(e.is_corruption(), "byte {at}: {e}"),
                }
            }
        }
    }

    #[test]
    fn graph_body_flips_are_checksum_mismatches() {
        for at in [278, 409] {
            let mut b = figure2_bytes();
            b[at] ^= 0x01;
            assert!(
                matches!(
                    open_bytes(b).unwrap_err(),
                    EngineError::ChecksumMismatch { section: "graph" }
                ),
                "byte {at}"
            );
        }
    }

    #[test]
    fn consistent_but_wrong_section_is_structurally_rejected() {
        // Re-checksum a tampered section so every checksum passes; the
        // structural checks must still catch the lie.
        let bytes = figure2_bytes();
        let (graph, _) = section(&bytes, 0);
        let (coreness, _) = section(&bytes, 3);
        let neighbors = graph + 16 + 8 * 13;

        // Coreness of vertex 0 bumped by one: in range, wrong histogram.
        let mut b = bytes.clone();
        b[coreness] ^= 0x01;
        reseal(&mut b);
        let e = open_bytes(b).unwrap_err();
        assert!(matches!(e, EngineError::BadSnapshot(_)), "{e}");

        // Vertex 0's neighbors {1, 2, 3} rewritten to {1, 2, 4}: in range
        // and sorted, but 4 does not list 0 and 3 lists a 0 that does not
        // list it.
        let mut b = bytes.clone();
        let last = neighbors + 4 * 2;
        assert_eq!(
            b[last..last + 4],
            3u32.to_le_bytes(),
            "figure 2 fixture changed"
        );
        b[last..last + 4].copy_from_slice(&4u32.to_le_bytes());
        reseal(&mut b);
        let e = open_bytes(b).unwrap_err();
        assert!(matches!(e, EngineError::Graph(_)), "{e}");

        // Nonzero padding and reserved fields are rejected even when the
        // checksums are made to agree.
        let (set_profile, len) = section(&bytes, 1);
        let mut b = bytes.clone();
        b[set_profile + len] = 1;
        assert!(matches!(
            open_bytes(b).unwrap_err(),
            EngineError::BadSnapshot(_)
        ));
        let mut b = bytes.clone();
        b[HEADER_LEN + 4] = 1;
        reseal(&mut b);
        assert!(matches!(
            open_bytes(b).unwrap_err(),
            EngineError::BadSnapshot(_)
        ));
    }

    #[test]
    fn unbuilt_dataset_refuses_save() {
        let ds = Dataset::from_graph(generators::paper_figure2());
        assert!(matches!(
            to_bytes(&ds).unwrap_err(),
            EngineError::BadSnapshot(_)
        ));
    }

    #[test]
    fn core_of_reads_single_values_from_the_map() {
        let g = generators::paper_figure2();
        let expect = bestk_core::core_decomposition(&g);
        let mapped = open_bytes(to_bytes(&built(g)).unwrap()).unwrap();
        let idx = mapped.mapped_index().unwrap();
        for v in 0..12u32 {
            assert_eq!(idx.core_of(v), Some(expect.coreness(v)));
        }
        assert_eq!(idx.core_of(12), None);
        assert_eq!(idx.kmax(), 3);
        assert_eq!(idx.forest_nodes(), 3);
    }
}
