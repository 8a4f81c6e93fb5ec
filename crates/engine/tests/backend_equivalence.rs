//! Backend-equivalence property suite: both storage backends — canonical
//! CSR and zero-copy mapped snapshot — must be *observation-identical*.
//! Degrees, neighbor sequences, and every best-k answer are compared
//! bit-for-bit across backends on randomized testkit graphs, and the mmap
//! path is additionally probed with truncated and corrupted files, all of
//! which must be rejected at open.

use std::sync::Arc;

use bestk_core::Metric;
use bestk_engine::{mmap::Mmap, snapv2, Dataset, EngineError, Query};
use bestk_exec::ExecPolicy;
use bestk_graph::{bytecsr, testkit, ByteCsr, CsrGraph, GraphView};

/// Renders an answer result to a stable line, errors included, so parity
/// holds even on degenerate graphs where some queries legitimately fail.
fn answer_line(ds: &Dataset, q: &Query) -> String {
    match ds.answer(q) {
        Ok(a) => format!("ok\t{}", a.to_line()),
        Err(e) => format!("err\t{e}"),
    }
}

/// The query battery: every answer shape, plus boundary vertices.
fn queries(n: usize) -> Vec<Query> {
    let mut qs = vec![
        Query::Stats,
        Query::BestKSet {
            metric: Metric::AverageDegree,
        },
        Query::BestCore {
            metric: Metric::InternalDensity,
        },
        Query::ScoreProfile {
            metric: Metric::AverageDegree,
        },
    ];
    for v in [0, n / 2, n.saturating_sub(1)] {
        if v < n {
            qs.push(Query::CoreOfVertex { vertex: v as u32 });
        }
    }
    qs
}

#[test]
fn backends_observe_identically_on_random_graphs() {
    let mut gen = testkit::Gen::new(0xBACC);
    for case in 0..24 {
        let g = gen.graph(48, 160);
        let mapped = ByteCsr::new(bytecsr::encode_view(&g)).expect("valid encoding");
        assert_eq!(mapped.num_vertices(), g.num_vertices(), "case {case}");
        assert_eq!(mapped.num_edges(), g.num_edges(), "case {case}");
        for v in g.vertices() {
            let want = g.neighbors(v).to_vec();
            assert_eq!(GraphView::degree(&mapped, v), want.len(), "case {case}");
            let m: Vec<u32> = GraphView::neighbors(&mapped, v).collect();
            assert_eq!(m, want, "case {case} vertex {v}");
        }
    }
}

#[test]
fn best_k_answers_are_bit_identical_across_backends() {
    let policy = ExecPolicy::with_threads(2).expect("policy");
    let mut gen = testkit::Gen::new(0xBE57);
    let mut graphs = vec![CsrGraph::empty(0), CsrGraph::empty(5)];
    for _ in 0..10 {
        graphs.push(gen.graph(40, 120));
    }
    for (case, g) in graphs.into_iter().enumerate() {
        let qs = queries(g.num_vertices());

        let mut csr = Dataset::from_graph(g.clone());
        csr.ensure_built(&policy);
        let want: Vec<String> = qs.iter().map(|q| answer_line(&csr, q)).collect();

        // Mapped backend: answers come straight off the snapshot bytes.
        let bytes = snapv2::to_bytes(&csr).expect("serialize");
        let mapped = snapv2::open_mmap(Arc::new(Mmap::from_vec(bytes))).expect("open");
        let got: Vec<String> = qs.iter().map(|q| answer_line(&mapped, q)).collect();
        assert_eq!(got, want, "case {case}: mapped diverged");
        assert!(mapped.is_built(), "mapped datasets never need a build");
    }
}

#[test]
fn truncated_snapshots_are_rejected_at_every_length() {
    let policy = ExecPolicy::with_threads(1).expect("policy");
    let mut ds = Dataset::from_graph(bestk_graph::generators::paper_figure2());
    ds.ensure_built(&policy);
    let bytes = snapv2::to_bytes(&ds).expect("serialize");
    // Every proper prefix must be rejected — never a panic, never a
    // silently-shorter dataset.
    for len in 0..bytes.len() {
        let err = snapv2::open_mmap(Arc::new(Mmap::from_vec(bytes[..len].to_vec())))
            .err()
            .unwrap_or_else(|| panic!("prefix of {len} bytes was accepted"));
        match err {
            EngineError::Truncated { .. }
            | EngineError::BadMagic
            | EngineError::ChecksumMismatch { .. }
            | EngineError::BadSnapshot { .. } => {}
            other => panic!("prefix of {len} bytes: unexpected error {other}"),
        }
    }
    // Trailing garbage is rejected too.
    let mut long = bytes.clone();
    long.extend_from_slice(&[0u8; 5]);
    assert!(snapv2::open_mmap(Arc::new(Mmap::from_vec(long))).is_err());
}

#[test]
fn every_graph_body_flip_is_rejected_at_open() {
    let policy = ExecPolicy::with_threads(1).expect("policy");
    let mut ds = Dataset::from_graph(bestk_graph::generators::paper_figure2());
    ds.ensure_built(&policy);
    let bytes = snapv2::to_bytes(&ds).expect("serialize");

    // The graph section is the first table entry: offset at bytes 72..80,
    // length at 80..88 (64-byte header + id/reserved of entry 0).
    let off = u64::from_le_bytes(bytes[72..80].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[80..88].try_into().unwrap()) as usize;
    assert!(len > 16 && off + len <= bytes.len());

    // Every byte of the graph body — framing, offsets, and adjacency — is
    // checked before the open returns, so no damaged body can reach a
    // query or a commit.
    for delta in 0..len {
        let mut corrupt = bytes.clone();
        corrupt[off + delta] ^= 0x01;
        match snapv2::open_mmap(Arc::new(Mmap::from_vec(corrupt))) {
            Err(EngineError::ChecksumMismatch { section: "graph" }) => {}
            Err(other) => panic!("byte {delta}: unexpected error {other}"),
            Ok(_) => panic!("byte {delta}: a corrupt graph body opened"),
        }
    }
    assert!(snapv2::open_mmap(Arc::new(Mmap::from_vec(bytes))).is_ok());
}
