//! SNAP-style text edge lists.
//!
//! Format: one edge per line as two whitespace-separated integers; lines
//! starting with `#` or `%` and blank lines are ignored. Vertex ids may be
//! sparse `u64`s — they are densely relabeled on read.
//!
//! The reader streams bytes through one reused buffer: no per-line
//! `String`, and ids go straight into the graph builder as dense `u32`
//! pairs. A byte-level fast path takes the common line — blank, comment,
//! or two short decimal ids — in an ASCII buffer region; every other line
//! (signs, long or malformed ids, a missing id, any non-ASCII byte) is
//! judged by the `str` path (`parse_text_line`), so Unicode whitespace,
//! invalid UTF-8, and error messages come out exactly as a line-by-line
//! `str` reader would produce them.

use std::io::{BufWriter, ErrorKind, Read, Write};
use std::path::Path;

use crate::builder::{GraphBuilder, Relabeler};
use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::Result;

/// Bytes requested from the reader per read; a longer line grows the
/// buffer to fit it.
const CHUNK: usize = 1 << 16;

/// Reads a text edge list from any reader, relabeling sparse ids densely.
///
/// Returns the graph and the `dense -> original id` mapping. Parse errors
/// carry the 1-based line number; a line that is not valid UTF-8 is an
/// [`ErrorKind::InvalidData`] I/O error.
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<(CsrGraph, Vec<u64>)> {
    let mut ids = Relabeler::default();
    let mut builder = GraphBuilder::new();
    let mut buf = vec![0u8; CHUNK];
    let (mut start, mut filled) = (0usize, 0usize);
    let mut line_no = 0usize;
    let mut consumed = 0usize;
    loop {
        // Keep the unfinished line, then top the buffer up behind it.
        buf.copy_within(start..filled, 0);
        filled -= start;
        start = 0;
        if filled == buf.len() {
            buf.resize(buf.len() * 2, 0);
        }
        let got = match reader.read(&mut buf[filled..]) {
            Ok(got) => got,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let kept = filled;
        filled += got;
        consumed = consumed.saturating_add(got);
        // Whole lines only, until the input ends. The kept bytes hold no
        // `\n`, so only the fresh ones need a look.
        let end = if got == 0 {
            filled
        } else {
            match buf[kept..filled].iter().rposition(|&b| b == b'\n') {
                Some(nl) => kept + nl + 1,
                None => continue,
            }
        };
        // The direct id table may cover ids below half the bytes read so
        // far (at most 2 bytes of table per input byte).
        let allowance = consumed / 2;
        parse_lines(&buf[..end], &mut line_no, |u, v| {
            let du = ids.id_of(u, allowance)?;
            let dv = ids.id_of(v, allowance)?;
            builder.add_edge(du, dv);
            Ok(())
        })?;
        start = end;
        if got == 0 {
            break;
        }
    }
    Ok((builder.build(), ids.into_original()))
}

/// Parses the lines of `region` (each ending in `\n`, except possibly the
/// input's last), counting them into `line_no` and emitting every edge.
fn parse_lines(
    region: &[u8],
    line_no: &mut usize,
    mut emit: impl FnMut(u64, u64) -> Result<()>,
) -> Result<()> {
    let ascii = region.is_ascii();
    let mut at = 0;
    while at < region.len() {
        *line_no += 1;
        let (edge, next) = match ascii.then(|| fast_line(region, at)).flatten() {
            Some(parsed) => parsed,
            None => {
                let end = region[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(region.len(), |len| at + len);
                (slow_line(&region[at..end], *line_no)?, end + 1)
            }
        };
        if let Some((u, v)) = edge {
            emit(u, v)?;
        }
        at = next;
    }
    Ok(())
}

/// Whitespace inside a line, as `char::is_whitespace` has it in ASCII:
/// space, `\t`, `\x0b`, `\x0c`, `\r` (`\n` ends the line).
#[inline]
fn is_blank(b: u8) -> bool {
    b == b' ' || b == b'\t' || b == 0x0b || b == 0x0c || b == b'\r'
}

/// The fast path for the ASCII line starting at `at`: a blank line, a
/// comment, or two ids of 1 to 19 decimal digits (which cannot overflow a
/// `u64`). Returns the line's edge and the start of the next line, or
/// `None` to hand the line to [`slow_line`].
#[inline]
fn fast_line(region: &[u8], mut at: usize) -> Option<(Option<(u64, u64)>, usize)> {
    let skip_blanks = |mut at: usize| {
        while at < region.len() && is_blank(region[at]) {
            at += 1;
        }
        at
    };
    let to_next_line = |at: usize| {
        region[at..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(region.len(), |len| at + len + 1)
    };
    let id = |at: &mut usize| {
        let start = *at;
        let mut value = 0u64;
        while let Some(d) = region.get(*at).map(|b| b.wrapping_sub(b'0')) {
            if d >= 10 {
                break;
            }
            // Wraps only past 19 digits, where the value is discarded.
            value = value.wrapping_mul(10).wrapping_add(u64::from(d));
            *at += 1;
        }
        let len = *at - start;
        let ends = region.get(*at).is_none_or(|&b| b == b'\n' || is_blank(b));
        ((1..=19).contains(&len) && ends).then_some(value)
    };
    at = skip_blanks(at);
    match region.get(at) {
        None | Some(b'\n') => return Some((None, at + 1)),
        Some(b'#' | b'%') => return Some((None, to_next_line(at))),
        _ => {}
    }
    let u = id(&mut at)?;
    at = skip_blanks(at);
    let v = id(&mut at)?;
    Some((Some((u, v)), to_next_line(at)))
}

/// Any line the fast path declines: UTF-8 checked, then judged by
/// [`parse_text_line`].
fn slow_line(line: &[u8], line_no: usize) -> Result<Option<(u64, u64)>> {
    let text = std::str::from_utf8(line).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    parse_text_line(text, line_no)
}

/// The `str` path: one line judged with Unicode trimming and splitting.
fn parse_text_line(line: &str, line_no: usize) -> Result<Option<(u64, u64)>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let mut it = trimmed.split_whitespace();
    let u = parse_token(it.next().ok_or_else(|| missing_id(line_no))?, line_no)?;
    let v = parse_token(it.next().ok_or_else(|| missing_id(line_no))?, line_no)?;
    Ok(Some((u, v)))
}

fn parse_token(token: &str, line_no: usize) -> Result<u64> {
    token.parse::<u64>().map_err(|e| GraphError::Parse {
        line: line_no,
        message: format!("invalid vertex id {token:?}: {e}"),
    })
}

fn missing_id(line_no: usize) -> GraphError {
    GraphError::Parse {
        line: line_no,
        message: "expected two vertex ids".into(),
    }
}

/// Reads a text edge list from a file path.
pub fn read_edge_list_path<P: AsRef<Path>>(path: P) -> Result<(CsrGraph, Vec<u64>)> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes the graph as a text edge list (each undirected edge once, `u < v`).
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# bestk edge list: n={} m={}",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes the graph as a text edge list to a file path.
pub fn write_edge_list_path<P: AsRef<Path>>(g: &CsrGraph, path: P) -> Result<()> {
    write_edge_list(g, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use std::collections::HashMap;
    use std::io::{BufRead, BufReader};

    /// The line-by-line `String` reader the streaming parser replaced, kept
    /// as the conformance oracle: `BufRead::lines`, Unicode `trim` and
    /// `split_whitespace`, `u64::from_str`, and a hash-map relabel in
    /// first-seen order.
    fn oracle_read_edge_list<R: Read>(reader: R) -> Result<(CsrGraph, Vec<u64>)> {
        let mut map: HashMap<u64, u32> = HashMap::new();
        let mut original: Vec<u64> = Vec::new();
        let mut b = GraphBuilder::new();
        for (idx, line) in BufReader::new(reader).lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
                continue;
            }
            let mut it = trimmed.split_whitespace();
            let parse = |tok: Option<&str>| -> Result<u64> {
                let tok = tok.ok_or_else(|| missing_id(idx + 1))?;
                tok.parse::<u64>().map_err(|e| GraphError::Parse {
                    line: idx + 1,
                    message: format!("invalid vertex id {tok:?}: {e}"),
                })
            };
            let u = parse(it.next())?;
            let v = parse(it.next())?;
            let mut id_of = |x: u64| {
                *map.entry(x).or_insert_with(|| {
                    original.push(x);
                    u32::try_from(original.len() - 1).unwrap()
                })
            };
            let (du, dv) = (id_of(u), id_of(v));
            b.add_edge(du, dv);
        }
        Ok((b.build(), original))
    }

    /// A reader that hands out one byte per `read`, so every line crosses
    /// a read boundary.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), out.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    /// Same graph and mapping, or the same error (kind, line, message).
    fn assert_conforms(input: &[u8]) {
        let outcome = |r: Result<(CsrGraph, Vec<u64>)>| r.map_err(|e| e.to_string());
        let want = outcome(oracle_read_edge_list(input));
        assert_eq!(outcome(read_edge_list(input)), want, "input {input:?}");
        assert_eq!(
            outcome(read_edge_list(Trickle(input))),
            want,
            "trickled {input:?}"
        );
    }

    #[test]
    fn streaming_reader_conforms_to_the_line_reader() {
        let cases: &[&[u8]] = &[
            // Comments, with and without leading whitespace.
            b"# c\n  # indented\n\t% tabbed\n%x\n0 1\n1 2\n",
            // Blank lines, CRLF, tabs, trailing columns, no final newline.
            b"0 1\r\n\r\n\n1\t2\t0.5 extra\n   \n2 3",
            b"0 1\n   ",
            b"\r\n",
            b"",
            // Signs and leading zeros as `u64::from_str` takes them.
            b"+5 +6\n007 8\n",
            b"-1 2\n",
            b"+ 2\n",
            b"++5 1\n",
            // The id range edges: u64::MAX, 19 and 20 digits, overflow.
            b"18446744073709551615 0\n",
            b"9999999999999999999 10000000000000000000\n",
            b"0 1\n18446744073709551616 2\n",
            b"0 1\n1 99999999999999999999999\n",
            // A one-token line, a non-digit token, a glued token.
            b"0 1\n5\n",
            b"0 1\n\n1 x\n",
            b"0 1\n12a 3\n",
            b"0 1\n1 2x\n",
            // Ids near 10^18: nothing proportional to the id values.
            b"1000000000000000000 1000000000000000001\n999999999999999999 1000000000000000000\n",
            b"4000000000 5\n5 4000000000\n",
            // Self-loops and duplicate edges.
            b"1 1\n1 2\n2 1\n1 2\n3 3\n",
            // Non-ASCII: Unicode whitespace separates, anything else
            // rejects, invalid UTF-8 is an I/O error at its line.
            "0\u{a0}1\n1\u{3000}2\n".as_bytes(),
            "0 1 caf\u{e9}\n".as_bytes(),
            "# коммент\n0 1\n".as_bytes(),
            "0 \u{e9}\n".as_bytes(),
            b"0 1\n\xff\xfe 2\n",
            b"# \xff\n0 1\n",
            b"0 1 \xff\n",
        ];
        for input in cases {
            assert_conforms(input);
        }
        // Every ASCII byte between two ids and in front of them.
        for b in 0u8..128 {
            assert_conforms(&[b'0', b, b'1', b'\n', b, b'2', b' ', b'3']);
        }
        // A line longer than one read chunk, then a normal one.
        let mut long = b"0 1 ".to_vec();
        long.extend(std::iter::repeat_n(b'x', 3 * CHUNK));
        long.extend_from_slice(b"\n1 2\n");
        assert_conforms(&long);
        // Every graph-io corpus file, text or not.
        let corpus =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/graph-io");
        for entry in std::fs::read_dir(corpus).unwrap() {
            assert_conforms(&std::fs::read(entry.unwrap().path()).unwrap());
        }
    }

    #[test]
    fn streaming_reader_conforms_on_generated_text() {
        crate::testkit::check("edge_list_reader_conformance", 256, |gen| {
            assert_conforms(gen.ascii_text(400).as_bytes());
            // Mostly-valid lists with sparse ids and scattered damage.
            let mut text = String::new();
            for _ in 0..gen.usize_in(0, 60) {
                let (u, v) = (gen.u32_in(0, 40), gen.u32_in(0, 40));
                match gen.usize_in(0, 12) {
                    0 => text.push_str("# note\n"),
                    1 => text.push_str(&format!("{u}\t{v}\t1.5\r\n")),
                    2 => text.push_str(&format!("{}  {v}\n", u64::from(u) << 40)),
                    3 => text.push_str(&format!("{u}\n")),
                    _ => text.push_str(&format!("{u} {v}\n")),
                }
            }
            assert_conforms(text.as_bytes());
        });
    }

    #[test]
    fn huge_ids_stay_out_of_the_direct_table() {
        let mut ids = Relabeler::default();
        assert_eq!(ids.id_of(1_000_000_000_000_000_000, 1 << 20).unwrap(), 0);
        assert_eq!(ids.id_of(7, 1 << 20).unwrap(), 1);
        assert_eq!(ids.id_of(1_000_000_000_000_000_000, 1 << 20).unwrap(), 0);
        // An id first seen beyond the allowance keeps its dense id once
        // the table grows over it.
        assert_eq!(ids.id_of(5_000, 100).unwrap(), 2);
        assert_eq!(ids.id_of(5_000, 1 << 20).unwrap(), 2);
        assert_eq!(ids.id_of(5_001, 1 << 20).unwrap(), 3);
        assert_eq!(
            ids.into_original(),
            vec![1_000_000_000_000_000_000, 7, 5_000, 5_001]
        );
    }

    #[test]
    fn parse_simple_list() {
        let text = "# comment\n0 1\n1 2\n\n% another comment\n2 0\n";
        let (g, orig) = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(orig, vec![0, 1, 2]);
    }

    #[test]
    fn parse_sparse_ids_and_tabs() {
        let text = "1000\t42\n42\t7\n";
        let (g, orig) = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(orig, vec![1000, 42, 7]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn parse_tolerates_extra_columns() {
        let text = "0 1 3.5 extra\n1 2 0.1\n";
        let (g, _) = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn parse_error_reports_line_number() {
        let text = "0 1\nnot-a-number 2\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn parse_error_on_missing_column() {
        let text = "0\n";
        assert!(matches!(
            read_edge_list(text.as_bytes()),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn roundtrip_through_text() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]);
        let g = b.build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (g2, orig) = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.num_vertices(), g.num_vertices());
        // Ids are relabeled in first-seen order; map the reread edges back
        // and compare as sets.
        let mut original_edges: Vec<_> = g.edges().collect();
        let mut mapped: Vec<_> = g2
            .edges()
            .map(|(u, v)| {
                let (a, b) = (orig[u as usize] as u32, orig[v as usize] as u32);
                if a < b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        original_edges.sort_unstable();
        mapped.sort_unstable();
        assert_eq!(original_edges, mapped);
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join("bestk-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let mut b = GraphBuilder::new();
        b.extend_edges([(5, 6), (6, 7)]);
        let g = b.build();
        write_edge_list_path(&g, &path).unwrap();
        let (g2, orig) = read_edge_list_path(&path).unwrap();
        assert_eq!(g2.num_edges(), 2);
        assert_eq!(orig, vec![5, 6, 7]);
        std::fs::remove_file(path).ok();
    }
}
