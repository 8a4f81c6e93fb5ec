//! Graph loading with format auto-detection.

use bestk_graph::{io, CsrGraph};

use crate::CliError;

/// Loads a graph from `path`. `.metis` / `.graph` files parse as METIS;
/// otherwise the format is sniffed: files starting with the binary magic
/// `BESTKGR1` are read as binary CSR, everything else as a SNAP-style text
/// edge list (sparse ids are relabeled densely). Delegates to
/// [`io::read_auto_path`] (the engine's snapshot-rebuild fallback uses the
/// same loader, so a path that works here works there), inside a
/// `phase.load` span.
pub fn load_graph(path: &str) -> Result<CsrGraph, CliError> {
    let _span = bestk_obs::span!("phase.load");
    Ok(io::read_auto_path(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_graph::GraphBuilder;

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("bestk-cli-load-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn loads_text_and_binary() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0, 1), (1, 2), (2, 0)]);
        let g = b.build();
        let dir = tmpdir();
        let text = dir.join("g.txt");
        let bin = dir.join("g.bin");
        io::write_edge_list_path(&g, &text).unwrap();
        io::write_binary_path(&g, &bin).unwrap();
        let gt = load_graph(text.to_str().unwrap()).unwrap();
        let gb = load_graph(bin.to_str().unwrap()).unwrap();
        assert_eq!(gt.num_edges(), 3);
        assert_eq!(gb, g);
        std::fs::remove_file(text).ok();
        std::fs::remove_file(bin).ok();
    }

    #[test]
    fn missing_file_is_a_graph_error() {
        assert!(matches!(
            load_graph("/nonexistent/definitely-not-here.txt"),
            Err(CliError::Graph(_))
        ));
    }

    #[test]
    fn tiny_text_file_without_magic() {
        let dir = tmpdir();
        let path = dir.join("tiny.txt");
        std::fs::write(&path, "0 1\n").unwrap();
        let g = load_graph(path.to_str().unwrap()).unwrap();
        assert_eq!(g.num_edges(), 1);
        std::fs::remove_file(path).ok();
    }
}
